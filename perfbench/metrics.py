"""Metric names, units and how each is computed from a worker's result.

BENCHMARK.json lists the same names; selfcheck.py checks that they agree.
"""

from __future__ import annotations

import math
import statistics

# (name, unit, better, bound)
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics of the traced run. Every value is a total over one
# traced unit of work: the workload's set-up once, plus a fixed number of
# operation cycles (Workload.trace_cycles), so it does not grow with speed.
# Times are medians over the traced repetitions.
_CALLS_SELF = (
    "geometry.classify_membership", "geometry.hull_vertex_indices", "thermal.hull_membership",
    "thermal.enumerate_classical", "thermal.classical_reachable_set", "thermal.realize_interior",
    "energy.build_setup", "majorization.birkhoff_decompose", "majorization.schur_horn_unitary",
    "majorization.thermomajorizes", "noisy.horn_transition_unitary",
    "noisy.marginal_transition_unitary", "noisy.NoisyRealization", "linalg.unitarity_defect",
    "linalg.apply_channel", "thermal.synthesize_unitary", "thermal.decompose_channel_to_classical",
    "serialize.dump_json",
)


def _per_layer():
    out = []
    for layer in _CALLS_SELF:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_ms", "ms", "lower"))
    for layer in ("geometry.linprog", "majorization.linprog"):
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.ms", "ms", "lower"))
    out += [
        ("thermal.hull_membership.exterior", "count", "lower"),
        ("geometry.hull_vertex_indices.vertex_ratio", "ratio", "lower"),
        ("thermal.enumerate_classical.rows", "count", "lower"),
        ("thermal.enumerate_classical.sampled", "count", "lower"),
        ("thermal.classical_reachable_set.points", "count", "lower"),
        ("thermal.classical_reachable_set.useful_ratio", "ratio", "higher"),
        ("thermal.realize_interior.baths_tried", "count", "lower"),
        ("thermal.realize_interior.found_ratio", "ratio", "higher"),
        ("energy.blocks.max_size", "count", "lower"),
        ("majorization.birkhoff_decompose.terms", "count", "lower"),
        ("cli.interp_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.main.self_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(layers, cli):
    """Per-layer metric values from one unit's layer summary and cli totals."""
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    values = {}
    for layer in _CALLS_SELF:
        values[f"{layer}.calls"] = get(layer, "calls")
        values[f"{layer}.self_ms"] = get(layer, "self_ms")
    for layer in ("geometry.linprog", "majorization.linprog"):
        values[f"{layer}.calls"] = get(layer, "calls")
        values[f"{layer}.ms"] = get(layer, "ms")
    values.update({
        "thermal.hull_membership.exterior": get("thermal.hull_membership", "exterior"),
        "geometry.hull_vertex_indices.vertex_ratio": _ratio(
            get("geometry.hull_vertex_indices", "vertices"), get("geometry.hull_vertex_indices", "points")),
        "thermal.enumerate_classical.rows": get("thermal.enumerate_classical", "rows"),
        "thermal.enumerate_classical.sampled": get("thermal.enumerate_classical", "sampled"),
        "thermal.classical_reachable_set.points": get("thermal.classical_reachable_set", "points"),
        "thermal.classical_reachable_set.useful_ratio": _ratio(
            get("thermal.classical_reachable_set", "points"), get("thermal.enumerate_classical", "rows")),
        "thermal.realize_interior.baths_tried": get("thermal.realize_interior", "baths_tried"),
        "thermal.realize_interior.found_ratio": _ratio(
            get("thermal.realize_interior", "found"), get("thermal.realize_interior", "calls")),
        "energy.blocks.max_size": get("energy.build_setup", "max_block"),
        "majorization.birkhoff_decompose.terms": get("majorization.birkhoff_decompose", "terms"),
        "cli.interp_ms": cli["interp_ms"],
        "cli.import_ms": cli["import_ms"],
        "cli.main.self_ms": cli["main_self_ms"],
    })
    return values


def merge_layers(a, b):
    """Sum two layer summaries (max for the block-size maximum)."""
    out = {name: dict(entry) for name, entry in a.items()}
    for name, entry in b.items():
        target = out.setdefault(name, {})
        for key, value in entry.items():
            if key == "max_block":
                target[key] = max(target.get(key, 0), value)
            else:
                target[key] = target.get(key, 0) + value
    return out


def per_layer(result):
    """Median over traced repetitions of (set-up + one unit) per metric."""
    samples = []
    for layers, cli, overhead in zip(result["rep_layers"], result["rep_cli"], result["overhead_fracs"]):
        merged_cli = {k: result["setup_cli"][k] + cli[k] for k in cli}
        values = layer_values(merge_layers(result["setup_layers"], layers), merged_cli)
        values["trace.overhead_frac"] = overhead
        samples.append(values)
    return {name: statistics.median(s[name] for s in samples) for name, _, _ in PER_LAYER}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result, setup_samples, tail_q):
    """End-to-end metrics of one untraced run.

    Latencies are CPU times scaled to the reference speed (reference.py);
    set-up and memory are as measured.
    """
    lat = result["latencies"]
    return {
        "ops_per_s": result["outcomes"]["ok"] / sum(lat),
        "latency_p50_ms": 1e3 * nearest_rank(lat, 0.5),
        "latency_tail_ms": 1e3 * nearest_rank(lat, tail_q),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
