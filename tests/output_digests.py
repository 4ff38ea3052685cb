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

An operation that raises is hashed as its exception. Each line carries two
digests of the same outputs: ``sha256`` as returned, and
``zero_canonical_sha256`` with every float zero made ``+0.0`` (``a + 0.0``;
in cli-cold's stdout, every ``-0``/``-0.0`` number read unsigned). A change
that moves only the signs of zeros moves the first and keeps the second. Run
it on two trees and compare the lines; it changes no file::

    python tests/output_digests.py [--seed 1] [--cycles 20] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench goes first: its workloads import perfbench's own ``oracles``,
# not the tests' module of the same name next to this file.
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import thermohorn  # noqa: E402
import workloads  # noqa: E402


# The minus sign of a printed zero: ``-0``, ``-0.0``, ``-0.000e+00``, not ``-0.5``.
_SIGNED_ZERO = re.compile(rb"(?<![\w.])-(?=0(?:\.0*)?(?:[eE][-+]?\d+)?(?![\w.]))")


class _Digests:
    """Two SHA-256 digests of the same parts: as given, and with every zero unsigned."""

    def __init__(self):
        self.raw = hashlib.sha256()
        self.zero_canonical = hashlib.sha256()

    def line(self):
        return f"sha256={self.raw.hexdigest()} zero_canonical_sha256={self.zero_canonical.hexdigest()}"


def _feed(digests, *parts):
    """Hash arrays by dtype, shape and bytes, everything else by ``repr``.

    The zero-canonical digest hashes a float or complex array plus ``0.0``
    (``-0.0 + 0.0`` is ``+0.0``; no other value moves) and printed bytes
    without the minus sign of a zero.
    """
    for part in parts:
        if isinstance(part, np.ndarray):
            header = repr((part.dtype.str, part.shape)).encode()
            unsigned = part + 0.0 if part.dtype.kind in "fc" else part
            for digest, array in ((digests.raw, part), (digests.zero_canonical, unsigned)):
                digest.update(header)
                digest.update(np.ascontiguousarray(array).tobytes())
        else:
            unsigned = _SIGNED_ZERO.sub(b"", part) if isinstance(part, bytes) else part
            digests.raw.update(repr(part).encode())
            digests.zero_canonical.update(repr(unsigned).encode())


def _membership(op, result, digests):
    comb = result.combination
    _feed(digests, result.classification)
    if comb is not None:
        _feed(digests, np.asarray(comb.weights), np.asarray(comb.items))


def _realize(op, result, digests):
    if result is None:
        _feed(digests, None)
    else:
        setup, unitary, _ = result
        _feed(digests, setup.dim_b, unitary)


def _synth(op, result, digests):
    kind = op[0]
    if kind == "horn":
        _feed(digests, result.bath_dim, result.unitary)
    elif kind == "birkhoff":
        _feed(digests, result.terms)
    elif kind == "roundtrip":
        _feed(digests, result[0], result[1] is None)
    else:
        _feed(digests, result)


OUTPUTS = {
    "membership-grid": _membership,
    "realize-search": _realize,
    "synth-roundtrip": _synth,
}


def operation_digest(name, seed, cycles):
    """(operation count, :class:`_Digests`) of one in-process workload's seeded operations."""
    workload = workloads.WORKLOADS[name](thermohorn)
    workload.setup()
    workload.prepare(np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    digests = _Digests()
    count = 0
    for _ in range(cycles):
        for slot in workload.slots():
            op = workload.make(slot, rng)
            _feed(digests, slot)
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed operation is an output too
                _feed(digests, type(exc).__name__, str(exc))
            else:
                OUTPUTS[name](op, result, digests)
            count += 1
    return count, digests


def cli_digest():
    """(argv count, :class:`_Digests`, count differing from the goldens) over every golden argv."""
    with open(workloads.GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    digests = _Digests()
    differ = 0
    for key in sorted(goldens):
        argv = goldens[key]["argv"]
        done = subprocess.run(
            workloads.cli_command(argv), env=workloads.child_env(), cwd=ROOT,
            capture_output=True, timeout=120,
        )
        _feed(digests, key, done.returncode, done.stdout)
        differ += done.stdout.decode("utf-8", "replace") != goldens[key]["stdout"]
    return len(goldens), digests, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=20, help="whole cycles per in-process workload")
    parser.add_argument("--workload", action="extend", nargs="+", choices=[*OUTPUTS, "cli-cold"],
                        metavar="NAME", help="workloads to digest (repeatable); default: all four")
    args = parser.parse_args(argv)
    for name in dict.fromkeys(args.workload or [*OUTPUTS, "cli-cold"]):
        if name == "cli-cold":
            count, digests, differ = cli_digest()
            print(f"cli-cold argv={count} differ_from_goldens={differ} {digests.line()}")
        else:
            count, digests = operation_digest(name, args.seed, args.cycles)
            print(f"{name} seed={args.seed} ops={count} {digests.line()}")


if __name__ == "__main__":
    main()
