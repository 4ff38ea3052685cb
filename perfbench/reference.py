"""Fixed reference kernels that measure how fast the machine is right now.

On a shared virtual machine the same call can take 1.75 times longer from
one second to the next, because other guests load the same cores and
caches; in CPU time, too. Timed operations are therefore interleaved with
short slices of a reference kernel, and each operation's CPU time is
scaled by ``nominal / (median of the slices timed nearest to it)``. The
result reads as CPU time on a machine where one slice takes ``nominal``.

The kernels call no thermohorn code, so a change to thermohorn cannot move
them, and their inputs are fixed, not drawn from the workload seed. Each
workload uses the kernel whose speed followed its own operations most
closely, window by window, on a 2-vCPU Xeon virtual machine:

* ``lp`` -- one small HiGHS LP through ``scipy.optimize.linprog``, as in
  hull membership (membership-grid);
* ``search`` -- the same LP, six Qhull hulls of 400 points in 3-D and
  ``np.unique`` over 2000 rows, in about equal shares, as in the
  enumerate / dedup / hull / LP steps of a bath search (realize-search);
* ``dense`` -- QR, SVD and products of a 27x27 complex matrix, and numpy
  calls on 64-element arrays, as in the constructions (synth-roundtrip).

A kernel that streamed a few MB through numpy followed every workload
worse. cli-cold, whose operations are child interpreters, uses a child
interpreter that imports numpy and scipy.linalg instead (see
``workloads.CliCold``).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

# CPU seconds of one slice, about its median on the machine named above.
# Any constant would do: it only sets the scale of the reported times.
NOMINAL_S = {"lp": 0.0045, "search": 0.012, "dense": 0.0024}
# Samples, nearest in time, whose median scales one operation: mostly the
# one just before it and the one just after. The speed changes within a
# fraction of a second; over ten runs per workload, the nearest two
# followed it better than the nearest three or five.
NEAREST = 2
# CPU seconds of operations between two slices.
EVERY_S = 0.05


class Reference:
    def __init__(self, kernel):
        self.kernel = kernel
        self._work = {"lp": self._lp, "search": self._search, "dense": self._dense}[kernel]
        rng = np.random.default_rng(20160519)
        points = rng.random((120, 4))
        points /= points.sum(axis=1, keepdims=True)
        self._a_eq = np.vstack([points.T, np.ones(len(points))])
        self._b_eq = np.append(points[:30].mean(axis=0), 1.0)
        self._cost = np.zeros(len(points))
        self._square = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
        self._vector = rng.random(64)
        self._cloud = rng.random((400, 3))
        self._rows = rng.integers(0, 9, size=(2000, 4)) / 8.0

    def _lp(self):
        return linprog(self._cost, A_eq=self._a_eq, b_eq=self._b_eq, bounds=(0, None), method="highs").status

    def _search(self):
        total = self._lp()
        for _ in range(6):
            total += len(ConvexHull(self._cloud).vertices)
        return total + len(np.unique(self._rows, axis=0))

    def _dense(self):
        total = 0.0
        for _ in range(4):
            q, r = np.linalg.qr(self._square)
            total += abs(r[0, 0]) + np.linalg.svd(q @ self._square.conj().T, compute_uv=False)[0]
        for _ in range(100):
            x = np.sort(self._vector)
            total += np.cumsum(x)[-1] + np.abs(x).max()
        return total

    def slice(self):
        """CPU seconds of one slice of the kernel."""
        c0 = time.process_time()
        self._work()
        return time.process_time() - c0


def scale_factors(op_times, ref_times, ref_seconds, nominal_s):
    """``nominal_s`` / median of the NEAREST reference samples, per operation.

    ``op_times`` and ``ref_times`` say when each operation and each
    reference sample ran (midpoints, one clock); ``ref_seconds`` are the
    samples' CPU times. Every run takes a sample before its first operation
    and after its last.
    """
    ref_times = np.asarray(ref_times, dtype=np.float64)
    ref_seconds = np.asarray(ref_seconds, dtype=np.float64)
    factors = []
    for t in op_times:
        closest = np.argsort(np.abs(ref_times - t), kind="stable")[:NEAREST]
        factors.append(nominal_s / float(np.median(ref_seconds[closest])))
    return factors
