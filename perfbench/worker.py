"""One workload in a fresh interpreter; prints one JSON result line.

Started by run.py and selfcheck.py, never imported. Modes:

* ``setup`` -- import thermohorn and build the workload's fixed inputs, and
  report the time: one sample of setup_s;
* ``run``   -- set-up, then the closed loop for ``--seconds``, untraced,
  with reference samples between the calls (reference.py);
* ``trace`` -- set-up traced, then pairs of one untraced and one traced unit
  of work (the same operations) until ``--seconds`` have passed, for the
  per-layer numbers and the tracing overhead.
"""

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

OUTCOMES = ("ok", "miss", "wrong", "error")


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject", action="store_true", help="corrupt the first result (self-check)")
    parser.add_argument("--spawned-at", type=float, default=None, help="time.monotonic() at spawn")
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


class Loop:
    """Runs operations, times only the call, checks each result after it."""

    def __init__(self, workload, inject, tracer=None, sample_speed=False):
        self.wl = workload
        self.inject = inject
        self.tracer = tracer
        self.sample_speed = sample_speed  # interleave reference samples (reference.py)
        self.latencies = []  # CPU seconds per call
        self.wall = []  # wall-clock seconds per call
        self.op_times = []  # midpoint of each call, time.perf_counter()
        self.slots = []
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.notes = []
        self.ref_times = []  # midpoint of each reference sample
        self.ref_seconds = []  # its CPU seconds
        self._since_ref = math.inf  # CPU seconds of calls since the last sample

    def reference(self):
        t0 = time.perf_counter()
        self.ref_seconds.append(self.wl.reference_sample())
        self.ref_times.append((t0 + time.perf_counter()) / 2)
        self._since_ref = 0.0

    def one(self, slot, rng):
        op = self.wl.make(slot, rng)
        if self.sample_speed and self._since_ref >= self.wl.ref_every_s:
            self.reference()
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        c0 = self.wl.cpu_clock()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(op)
            raised = None
        except Exception as exc:  # a failed operation; the loop keeps going
            result, raised = None, exc
        wall = time.perf_counter() - t0
        elapsed = self.wl.cpu_clock() - c0
        if tracer is not None:
            tracer.active = False
        if raised is not None:
            outcome = "error"
            note = "".join(traceback.format_exception_only(type(raised), raised)).strip()
        else:
            if self.inject and not self.latencies:
                result = self.wl.corrupt(op, result)
            outcome, note = self.wl.check(op, result)
        self.latencies.append(elapsed)
        self.wall.append(wall)
        self.op_times.append(t0 + wall / 2)
        self._since_ref += elapsed
        self.slots.append(slot)
        self.outcomes[outcome] += 1
        if outcome != "ok" and len(self.notes) < 20:
            self.notes.append(f"{outcome}: {note}")
        return elapsed

    def cycles(self, rng, seconds=None, count=None):
        """Whole cycles: ``count`` of them, or up to the boundary nearest ``seconds``."""
        start = time.perf_counter()
        durations = []
        busy = 0.0
        while True:
            t0 = time.perf_counter()
            busy += sum(self.one(slot, rng) for slot in self.wl.slots())
            durations.append(time.perf_counter() - t0)
            if count is not None:
                if len(durations) >= count:
                    return busy
            elif time.perf_counter() - start + statistics.fmean(durations) / 2 >= seconds:
                if self.sample_speed:
                    self.reference()  # so the last calls have samples on both sides
                return busy

    def scaled_latencies(self):
        """Each call's CPU seconds at the reference speed, and the factors."""
        import reference

        factors = reference.scale_factors(
            self.op_times, self.ref_times, self.ref_seconds, self.wl.ref_nominal_s)
        return [lat * f for lat, f in zip(self.latencies, factors)], factors


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    in_process = args.workload != "cli-cold"
    th = None
    import_s = import_wall_s = 0.0
    if in_process:
        c0, w0 = time.process_time(), time.perf_counter()
        import thermohorn as th

        import_s, import_wall_s = time.process_time() - c0, time.perf_counter() - w0

    import numpy as np
    import scipy

    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace" and in_process:
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    spans_dir = os.path.join(args.out_dir, f"children-{os.getpid()}")
    if in_process:
        workload = cls(th, args.scale)
    else:
        if args.mode == "trace":
            os.makedirs(spans_dir, exist_ok=True)
        workload = cls(th, args.scale, traced=args.mode == "trace", spans_dir=spans_dir)

    c0 = workload.cpu_clock()
    workload.setup()
    setup_s = workload.cpu_clock() - c0 + import_s
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "scale": args.scale,
        "setup_s": setup_s,
        "import_s": import_s if in_process else None,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.mode != "setup":
        setup_checks = workload.prepare(np.random.default_rng([args.seed, 1])) or []
        if args.mode == "run":
            loop = Loop(workload, args.inject, sample_speed=True)
            busy = loop.cycles(np.random.default_rng([args.seed, 2]), seconds=args.seconds)
            scaled, factors = loop.scaled_latencies()
            result.update(
                latencies=scaled, cpu_latencies=loop.latencies, wall_latencies=loop.wall,
                op_times=loop.op_times, scale_factors=factors, ref_times=loop.ref_times,
                ref_seconds=loop.ref_seconds, slots=loop.slots, busy_s=busy,
                outcomes=loop.outcomes, notes=loop.notes,
            )
        else:
            if in_process:
                interp_s = _START - args.spawned_at if args.spawned_at is not None else 0.0
                setup_records = tracer.records()
                setup_cli = {"interp_ms": 1e3 * interp_s, "import_ms": 1e3 * import_wall_s, "main_self_ms": 0.0}
            else:
                setup_records = _child_records(workload, "setup")
                setup_cli = _cli_totals(setup_records)
            result.update(_trace(args, workload, tracer, setup_records, setup_cli))
        # Set-up outputs the oracle checked count as operations, not timed ones.
        result["setup_outcomes"] = dict.fromkeys(OUTCOMES, 0)
        for outcome, note in setup_checks:
            result["setup_outcomes"][outcome] += 1
            if outcome != "ok":
                result["notes"].append(f"{outcome}: set-up: {note}")
    if os.path.isdir(spans_dir):
        os.rmdir(spans_dir)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _trace(args, workload, tracer, setup_records, setup_cli):
    """Pairs of untraced and traced units until ``--seconds`` have passed."""
    import numpy as np

    import spans
    import workloads

    ops_rng = [args.seed, 2]
    loops = []
    if tracer is not None:
        # Warm-up: first calls pay lazy imports inside scipy; keep them out of the pairs.
        warm = Loop(workload, args.inject)
        warm.cycles(np.random.default_rng(ops_rng), count=workload.trace_cycles)
        loops.append(warm)
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        phase = f"rep{len(reps)}"
        order = ("plain", "traced") if len(reps) % 2 == 0 else ("traced", "plain")
        busy = {}
        for kind in order:
            if kind == "plain":
                if tracer is None:
                    workload.traced = False
                loop = Loop(workload, args.inject)
                busy[kind] = loop.cycles(np.random.default_rng(ops_rng), count=workload.trace_cycles)
            elif tracer is not None:
                tracer.phase, tracer.op = phase, 0
                first = len(tracer.spans)
                loop = traced = Loop(workload, args.inject, tracer)
                tracer.install()
                try:
                    busy[kind] = loop.cycles(np.random.default_rng(ops_rng), count=workload.trace_cycles)
                finally:
                    tracer.uninstall()
                records = tracer.records()[first:]
                cli = {"interp_ms": 0.0, "import_ms": 0.0, "main_self_ms": 0.0}
            else:
                workload.traced = True
                loop = traced = Loop(workload, args.inject)
                busy[kind] = loop.cycles(np.random.default_rng(ops_rng), count=workload.trace_cycles)
                records = _child_records(workload, phase)
                cli = _cli_totals(records)
            loops.append(loop)
        reps.append({"records": records, "cli": cli, "overhead": 1.0 - busy["plain"] / busy["traced"]})
    outcomes = dict.fromkeys(OUTCOMES, 0)
    notes = []
    for loop in loops:
        for key, value in loop.outcomes.items():
            outcomes[key] += value
        notes.extend(loop.notes[: 20 - len(notes)])
    path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    spans.write_spans(path, setup_records + [r for rep in reps for r in rep["records"]])
    return {
        "setup_layers": spans.summarize(setup_records),
        "setup_cli": setup_cli,
        "rep_layers": [spans.summarize(rep["records"]) for rep in reps],
        "rep_cli": [rep["cli"] for rep in reps],
        "overhead_fracs": [rep["overhead"] for rep in reps],
        "unit_ops": len(traced.latencies),
        "reps": len(reps),
        "outcomes": outcomes,
        "notes": notes,
        "spans_file": os.path.relpath(path, workloads.ROOT),
        "leftover_wrappers": spans.leftover_wrappers(),
    }


def _child_records(workload, phase):
    """Span records written by traced cli-cold children, tagged with op ids."""
    records = []
    for op_index, path, t0, t1 in workload.child_spans:
        with open(path, encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(path)
        for record in child["spans"]:
            record.update(op=op_index, phase=phase)
            records.append(record)
        records.append({
            "name": "cli.process", "op": op_index, "phase": phase, "parent": None,
            "start": t0, "end": t1, "self_s": 0.0, "attrs": {"import_s": child["import_s"]},
            "error": False,
        })
    workload.child_spans.clear()
    return records


def _cli_totals(records):
    """Interpreter start-up and exit, import, and cli.main self time, in ms.

    Interpreter time is the child's wall time minus its import and minus
    the cli.main span.
    """
    main_s = {}
    main_self = 0.0
    for record in records:
        if record["name"] == "cli.main":
            main_s[record["op"]] = record["end"] - record["start"]
            main_self += record["self_s"]
    interp = imp = 0.0
    for record in records:
        if record["name"] == "cli.process":
            import_s = record["attrs"]["import_s"]
            imp += import_s
            interp += record["end"] - record["start"] - import_s - main_s.get(record["op"], 0.0)
    return {"interp_ms": 1e3 * interp, "import_ms": 1e3 * imp, "main_self_ms": 1e3 * main_self}


if __name__ == "__main__":
    raise SystemExit(main())
