"""Span recorder that wraps thermohorn's public functions from outside.

Each wrapped function is one layer. A span records the layer name, the
operation id it ran under, its parent span, its start and end, and its self
time (duration minus the time covered by child spans). Spans stay in memory
until the caller writes them out.

Several thermohorn modules bind functions by name (``from .geometry import
classify_membership``), so a wrapper is installed on every thermohorn module
that holds the original object; patching only the defining module would
count nothing. ``linprog`` is wrapped separately as seen from ``geometry``
and from ``majorization``. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time

# (layer name, module, attribute, scope). Scope "all" replaces the object in
# every thermohorn module that bound it; "home" only in the named module;
# "class" wraps the class's __init__.
LAYERS = (
    ("geometry.classify_membership", "thermohorn.geometry", "classify_membership", "all"),
    ("geometry.hull_vertex_indices", "thermohorn.geometry", "hull_vertex_indices", "all"),
    ("geometry.linprog", "thermohorn.geometry", "linprog", "home"),
    ("thermal.hull_membership", "thermohorn.thermal", "hull_membership", "all"),
    ("thermal.enumerate_classical", "thermohorn.thermal", "enumerate_classical", "all"),
    ("thermal.classical_reachable_set", "thermohorn.thermal", "classical_reachable_set", "all"),
    ("thermal.realize_interior", "thermohorn.thermal", "realize_interior", "all"),
    ("thermal.synthesize_unitary", "thermohorn.thermal", "synthesize_unitary", "all"),
    ("thermal.decompose_channel_to_classical", "thermohorn.thermal", "decompose_channel_to_classical", "all"),
    ("energy.build_setup", "thermohorn.energy", "build_setup", "all"),
    ("majorization.birkhoff_decompose", "thermohorn.majorization", "birkhoff_decompose", "all"),
    ("majorization.schur_horn_unitary", "thermohorn.majorization", "schur_horn_unitary", "all"),
    ("majorization.thermomajorizes", "thermohorn.majorization", "thermomajorizes", "all"),
    ("majorization.linprog", "thermohorn.majorization", "linprog", "home"),
    ("noisy.horn_transition_unitary", "thermohorn.noisy", "horn_transition_unitary", "all"),
    ("noisy.marginal_transition_unitary", "thermohorn.noisy", "marginal_transition_unitary", "all"),
    ("noisy.NoisyRealization", "thermohorn.noisy", "NoisyRealization", "class"),
    ("linalg.unitarity_defect", "thermohorn.linalg", "unitarity_defect", "all"),
    ("linalg.apply_channel", "thermohorn.linalg", "apply_channel", "all"),
    ("serialize.dump_json", "thermohorn.serialize", "dump_json", "all"),
)


def _attrs(name, args, result):
    """Sizes and outcomes recorded on a span, read from the call's result."""
    if name == "thermal.enumerate_classical":
        return {"rows": int(result.permutations.shape[0]), "sampled": result.mode == "sampled"}
    if name == "thermal.classical_reachable_set":
        return {"points": int(len(result.points))}
    if name == "geometry.hull_vertex_indices":
        return {"vertices": len(result), "points": int(len(args[0]))}
    if name == "thermal.hull_membership":
        return {"exterior": result.classification == "exterior"}
    if name == "thermal.realize_interior":
        return {"found": result is not None}
    if name == "energy.build_setup":
        return {"max_block": max(len(b) for b in result.blocks)}
    if name == "majorization.birkhoff_decompose":
        return {"terms": len(result.terms)}
    return None


class Tracer:
    """In-memory spans for one process; ``active`` gates recording."""

    def __init__(self):
        self.spans = []  # [name, op, parent, t0, t1, self_s, attrs, error, phase]
        self.active = False
        self.op = 0
        self.phase = "setup"
        self._stack = []  # [span index, child seconds]
        self._patches = []  # (owner, attribute, original)

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0, 0.0, None, False, self.phase])
        self._stack.append([index, 0.0])
        return index

    def _exit(self, index, attrs=None, error=False):
        t1 = time.perf_counter()
        span = self.spans[index]
        _, child = self._stack.pop()
        duration = t1 - span[3]
        span[4] = t1
        span[5] = duration - child
        span[6] = attrs
        span[7] = error
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._exit(index, error=True)
            raise
        self._exit(index, _attrs(name, args, result))
        return result

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.layer = name
        return traced

    def install(self):
        """Wrap every layer of the thermohorn modules imported so far."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "thermohorn" or key.startswith("thermohorn."))
        ]
        for name, module_name, attr, scope in LAYERS:
            home = sys.modules.get(module_name)
            if home is None:  # never imported, so never called
                continue
            original = getattr(home, attr)
            if scope == "class":
                wrapped = self._wrapper(name, original.__init__)
                self._patch(original, "__init__", wrapped)
                continue
            wrapped = self._wrapper(name, original)
            owners = [home] if scope == "home" else modules
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self):
        """Spans as dicts, each naming its parent layer."""
        out = []
        for name, op, parent, t0, t1, self_s, attrs, error, phase in self.spans:
            out.append({
                "name": name, "op": op, "phase": phase,
                "parent": self.spans[parent][0] if parent >= 0 else None,
                "start": t0, "end": t1, "self_s": self_s, "attrs": attrs, "error": error,
            })
        return out


def leftover_wrappers():
    """(module, attribute) of every tracing wrapper still bound in thermohorn."""
    found = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "thermohorn" or key.startswith("thermohorn.")):
            continue
        for attr, value in vars(module).items():
            target = value.__dict__.get("__init__") if isinstance(value, type) else value
            if hasattr(target, "layer") and hasattr(target, "__wrapped__"):
                found.append((key, attr))
    return found


def write_spans(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def summarize(records):
    """Per-layer totals over span records: calls, self and total ms, attributes."""
    out = {}
    for span in records:
        entry = out.setdefault(span["name"], {"calls": 0, "self_ms": 0.0, "ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * span["self_s"]
        entry["ms"] += 1e3 * (span["end"] - span["start"])
        for key, value in (span["attrs"] or {}).items():
            if key == "max_block":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + int(value)
        if span["name"] == "thermal.hull_membership" and span["parent"] == "thermal.realize_interior":
            host = out["thermal.realize_interior"]
            host["baths_tried"] = host.get("baths_tried", 0) + 1
    return out
