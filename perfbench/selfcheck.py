"""The benchmark's own self-check; exits 1 if any expectation fails.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size and checks that:

* a clean run passes every oracle, except realize-search, where the oracle
  must report the known sampled-fallback miss (so fail_frac > 0 there);
* a deliberately wrong answer (flipped membership verdict, corrupted
  unitary or realization, corrupted golden) raises fail_frac above zero;
* the traced run counts calls through names that modules imported from
  each other, and leaves no wrapper behind;
* BENCHMARK.json lists the metrics and workloads this code produces, and
  every cli-cold variant has a golden.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(workloads.ROOT, ".bench_out", "selfcheck")

# Layers that must be seen in a traced tiny run; several are reached only
# through names bound by another module (thermal -> classify_membership,
# noisy -> unitarity_defect, cli -> dump_json).
TRACED = {
    "membership-grid": ("thermal.hull_membership", "geometry.classify_membership", "geometry.linprog",
                        "geometry.hull_vertex_indices", "thermal.enumerate_classical"),
    "realize-search": ("thermal.realize_interior", "thermal.enumerate_classical",
                       "geometry.hull_vertex_indices", "majorization.thermomajorizes",
                       "majorization.linprog", "thermal.synthesize_unitary"),
    "synth-roundtrip": ("noisy.horn_transition_unitary", "linalg.unitarity_defect",
                        "majorization.birkhoff_decompose", "majorization.schur_horn_unitary",
                        "thermal.decompose_channel_to_classical", "noisy.NoisyRealization"),
    "cli-cold": ("serialize.dump_json", "thermal.classical_reachable_set", "noisy.horn_transition_unitary"),
}


def worker(name, mode, *extra):
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", "7",
        "--seconds", "1", "--mode", mode, "--scale", "tiny", "--out-dir", OUT_DIR, *extra,
    ]
    done = subprocess.run(command, env=workloads.child_env(), cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{name} {mode}: worker failed\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def outcomes(result):
    """Timed operations plus the set-up outputs the oracle checked."""
    return {k: v + result["setup_outcomes"][k] for k, v in result["outcomes"].items()}


def check_benchmark_json(failures):
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != list(metrics.END_TO_END):
        failures.append(f"BENCHMARK.json end_to_end {e2e} != metrics.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != list(metrics.PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    with open(workloads.GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    for slot, variants in workloads.CLI_VARIANTS.items():
        for index, argv in enumerate(variants):
            golden = goldens.get(workloads.golden_key(slot, index))
            if golden is None or golden["argv"] != list(argv):
                failures.append(f"no golden for {slot} variant {index}")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    failures = []
    check_benchmark_json(failures)
    for name in workloads.WORKLOADS:
        clean = outcomes(worker(name, "run"))
        bad = clean["wrong"] + clean["error"] + (clean["miss"] if name != "realize-search" else 0)
        if bad:
            failures.append(f"{name}: clean tiny run failed its oracle: {clean}")
        if name == "realize-search" and not clean["miss"]:
            failures.append(f"{name}: the sampled-fallback miss did not show: {clean}")
        injected = outcomes(worker(name, "run", "--inject"))
        if not injected["wrong"]:
            failures.append(f"{name}: a corrupted first result went unnoticed: {injected}")
        traced = worker(name, "trace")
        layers = metrics.merge_layers(traced["setup_layers"], traced["rep_layers"][0])
        missing = [layer for layer in TRACED[name] if not layers.get(layer, {}).get("calls")]
        if missing:
            failures.append(f"{name}: traced run counted no calls to {missing}")
        if traced["leftover_wrappers"]:
            failures.append(f"{name}: wrappers left after tracing: {traced['leftover_wrappers']}")
        print(f"{name}: clean {clean}, injected {injected}, traced {len(layers)} layers", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
