"""thermohorn benchmark: four seeded closed-loop workloads, oracle-checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is membership-grid, realize-search, synth-roundtrip, cli-cold, or
``all`` for every workload in turn. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines above it give
each metric with its unit, the sample counts, the failure fraction and the
provenance; the full report and the spans go to ``.bench_out/``.

Operation times are CPU times scaled to a reference speed measured
between the operations (reference.py); set-up time and memory are not.
Every workload runs in fresh interpreters with BLAS capped at one thread:
``setup_s`` is the median over three of them (import thermohorn plus the
workload's fixed inputs), and the last one also runs the timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("membership-grid", "realize-search", "synth-roundtrip", "cli-cold")
SETUP_SAMPLES = 3
# Each workload must finish well inside the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _spawn(workloads, mode, name, args, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
        "--out-dir", OUT_DIR, "--spawned-at",
    ]
    command.append(repr(time.monotonic()))
    proc = subprocess.Popen(
        command, env=workloads.child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode}: no result within the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace")[-2000:]
        raise BenchError(f"{name} {mode}: worker exited with {proc.returncode}\n{tail}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def _provenance(worker_result, seed, blas_vars):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit or "unknown (not a git checkout)",
        **worker_result["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": dict.fromkeys(blas_vars, "1"),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def _largest(layers, cli, top=3):
    """The layers with the most self time (linprog: total time) in one phase."""
    times = {f"{name}.{'ms' if name.endswith('linprog') else 'self_ms'}":
             entry["ms" if name.endswith("linprog") else "self_ms"] for name, entry in layers.items()}
    times.update({f"cli.{key}": value for key, value in cli.items()})
    return sorted(times.items(), key=lambda item: -item[1])[:top]


def _counts(outcomes):
    attempted = sum(outcomes.values())
    return attempted, attempted - outcomes["ok"]


def run_workload(name, args):
    import metrics
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    cls = workloads.WORKLOADS[name]
    report = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        result = _spawn(workloads, "trace", name, args, deadline)
        values = metrics.per_layer(result)
        units = {n: u for n, u, _ in metrics.PER_LAYER}
        report.update(
            largest_self_ms={
                "operations": _largest(result["rep_layers"][0], result["rep_cli"][0]),
                "set-up": _largest(result["setup_layers"], result["setup_cli"]),
            },
            reps=result["reps"], unit_ops=result["unit_ops"], spans_file=result["spans_file"],
            overhead_fracs=result["overhead_fracs"], leftover_wrappers=result["leftover_wrappers"],
        )
        if result["leftover_wrappers"]:
            raise BenchError(f"tracing wrappers left in place: {result['leftover_wrappers']}")
    else:
        setups = [_spawn(workloads, "setup", name, args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = _spawn(workloads, "run", name, args, deadline)
        setups.append(result["setup_s"])
        values = metrics.end_to_end(result, setups, cls.tail_q)
        units = {n: u for n, u, _, _ in metrics.END_TO_END}
        lat = result["latencies"]
        by_slot = {}
        for slot, seconds in zip(result["slots"], lat):
            by_slot.setdefault(slot, []).append(seconds)
        wall = result["wall_latencies"]
        report.update(
            samples=len(lat),
            cpu_p50_ms=1e3 * metrics.nearest_rank(result["cpu_latencies"], 0.5),
            cpu_ops_per_s=result["outcomes"]["ok"] / result["busy_s"],
            scale_factor_p50=statistics.median(result["scale_factors"]),
            reference_samples=len(result["ref_seconds"]),
            wall_p50_ms=1e3 * metrics.nearest_rank(wall, 0.5),
            wall_ops_per_s=result["outcomes"]["ok"] / sum(wall),
            tail_percentile=100 * cls.tail_q,
            beyond_tail=sum(1 for x in lat if 1e3 * x > values["latency_tail_ms"]),
            setup_samples_s=setups,
            busy_s=result["busy_s"],
            slot_p50_ms={s: 1e3 * statistics.median(v) for s, v in by_slot.items()},
            slot_latencies_ms={s: [1e3 * x for x in v] for s, v in by_slot.items()},
            # Raw series, to check the reference scaling afterwards.
            series={key: result[key] for key in (
                "slots", "op_times", "cpu_latencies", "ref_times", "ref_seconds")},
        )
    outcomes = {k: v + result["setup_outcomes"][k] for k, v in result["outcomes"].items()}
    attempted, failed = _counts(outcomes)
    report.update(
        metrics={n: {"value": v, "unit": units[n]} for n, v in values.items()},
        outcomes=outcomes,
        fail_frac=failed / attempted,
        notes=result["notes"],
        provenance=_provenance(result, args.seed, workloads.BLAS_VARS),
    )
    correct = outcomes["wrong"] == 0 and outcomes["error"] == 0
    return report, {"correct": correct, "attempted": attempted, "failed": failed}


def _print_report(report):
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']:g}  "
          f"trace={report['trace']}")
    for name, metric in report["metrics"].items():
        extra = ""
        if name == "ops_per_s":
            extra = (f"  (unscaled CPU: {report['cpu_ops_per_s']:.6g}; "
                     f"wall clock: {report['wall_ops_per_s']:.6g})")
        elif name == "latency_p50_ms":
            extra = (f"  ({report['samples']} samples; unscaled CPU: {report['cpu_p50_ms']:.6g}; "
                     f"wall clock: {report['wall_p50_ms']:.6g})")
        elif name == "latency_tail_ms":
            extra = f"  (p{report['tail_percentile']:g}, {report['beyond_tail']} samples beyond)"
        elif name == "setup_s":
            extra = "  (median of " + ", ".join(f"{s:.3f}" for s in report["setup_samples_s"]) + ")"
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}{extra}")
    if "scale_factor_p50" in report:
        print(f"  {'reference speed scale (median)':48s} {report['scale_factor_p50']:14.6g} 1  "
              f"({report['reference_samples']} reference samples)")
    outcomes = report["outcomes"]
    attempted = sum(outcomes.values())
    print(f"  {'fail_frac':48s} {report['fail_frac']:14.6g} 1  ({attempted - outcomes['ok']} of "
          f"{attempted}: {outcomes['miss']} miss, {outcomes['wrong']} wrong, {outcomes['error']} error)")
    for phase, ranked in report.get("largest_self_ms", {}).items():
        print(f"  largest self time, {phase}: " + ", ".join(f"{n} {v:.1f} ms" for n, v in ranked))
    for note in report["notes"][:5]:
        print(f"    {note}")
    prov = report["provenance"]
    print("  provenance: " + ", ".join(f"{k}={prov[k]}" for k in (
        "commit", "python", "numpy", "scipy", "nproc", "seed")) + ", BLAS threads 1")


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thermohorn", "__init__.py")):
        print("perfbench: src/thermohorn not found next to perfbench/; run from a thermohorn checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "thermohorn"), HERE],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    names = NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report, counts = run_workload(name, args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        _print_report(report)
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        summary["correct"] = summary["correct"] and counts["correct"]
        summary["attempted"] += counts["attempted"]
        summary["failed"] += counts["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric_name, metric in report["metrics"].items():
            summary["metrics"][prefix + metric_name] = metric
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
