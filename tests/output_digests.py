"""SHA-256 digests of what the benchmark's operations return, for "same outputs" checks.

Draws each workload of ``perfbench/workloads.py`` at full scale exactly as
the benchmark worker does (set-up, ``prepare`` on the seed's stream 1, the
operations on its stream 2), for a fixed number of whole cycles instead of
a duration, and hashes what a change of algorithm could move:

* membership-grid: each verdict, and each witness's weights and items;
* realize-search: each found bath's dimension and unitary, or that none was;
* synth-roundtrip: each unitary and each Birkhoff term list;
* cli-cold: the stdout of every argv that ``perfbench/goldens.json`` pins,
  each in a fresh interpreter, and how many of them differ from the golden.

An operation that raises is hashed as its exception. Run it on two trees
and compare the lines; it changes no file::

    python tests/output_digests.py [--seed 1] [--cycles 20] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench goes first: its workloads import perfbench's own ``oracles``,
# not the tests' module of the same name next to this file.
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import thermohorn  # noqa: E402
import workloads  # noqa: E402


def _feed(digest, *parts):
    """Hash arrays by dtype, shape and bytes, everything else by ``repr``."""
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(repr((part.dtype.str, part.shape)).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())


def _membership(op, result, digest):
    comb = result.combination
    _feed(digest, result.classification)
    if comb is not None:
        _feed(digest, np.asarray(comb.weights), np.asarray(comb.items))


def _realize(op, result, digest):
    if result is None:
        _feed(digest, None)
    else:
        setup, unitary, _ = result
        _feed(digest, setup.dim_b, unitary)


def _synth(op, result, digest):
    kind = op[0]
    if kind == "horn":
        _feed(digest, result.bath_dim, result.unitary)
    elif kind == "birkhoff":
        _feed(digest, result.terms)
    elif kind == "roundtrip":
        _feed(digest, result[0], result[1] is None)
    else:
        _feed(digest, result)


OUTPUTS = {
    "membership-grid": _membership,
    "realize-search": _realize,
    "synth-roundtrip": _synth,
}


def operation_digest(name, seed, cycles):
    """(operation count, hex digest) of one in-process workload's seeded operations."""
    workload = workloads.WORKLOADS[name](thermohorn)
    workload.setup()
    workload.prepare(np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    digest = hashlib.sha256()
    count = 0
    for _ in range(cycles):
        for slot in workload.slots():
            op = workload.make(slot, rng)
            _feed(digest, slot)
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed operation is an output too
                _feed(digest, type(exc).__name__, str(exc))
            else:
                OUTPUTS[name](op, result, digest)
            count += 1
    return count, digest.hexdigest()


def cli_digest():
    """(argv count, hex digest, count differing from the goldens) over every golden argv."""
    with open(workloads.GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    digest = hashlib.sha256()
    differ = 0
    for key in sorted(goldens):
        argv = goldens[key]["argv"]
        done = subprocess.run(
            workloads.cli_command(argv), env=workloads.child_env(), cwd=ROOT,
            capture_output=True, timeout=120,
        )
        _feed(digest, key, done.returncode, done.stdout)
        differ += done.stdout.decode("utf-8", "replace") != goldens[key]["stdout"]
    return len(goldens), digest.hexdigest(), differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=20, help="whole cycles per in-process workload")
    parser.add_argument("--workload", action="extend", nargs="+", choices=[*OUTPUTS, "cli-cold"],
                        metavar="NAME", help="workloads to digest (repeatable); default: all four")
    args = parser.parse_args(argv)
    for name in dict.fromkeys(args.workload or [*OUTPUTS, "cli-cold"]):
        if name == "cli-cold":
            count, hexdigest, differ = cli_digest()
            print(f"cli-cold argv={count} differ_from_goldens={differ} sha256={hexdigest}")
        else:
            count, hexdigest = operation_digest(name, args.seed, args.cycles)
            print(f"{name} seed={args.seed} ops={count} sha256={hexdigest}")


if __name__ == "__main__":
    main()
