"""Independent checks for the benchmark's operations, in plain numpy.

None of these call thermohorn: majorization is a sorted prefix-sum test,
thermomajorization uses the dominance-curve characterization (not the
library's LP), and unitaries and channels are checked by direct matrix
arithmetic. The tolerances are the ones the acceptance suite states.
"""

from __future__ import annotations

import numpy as np

HORN_TOL = 1e-9  # acceptance 1: channel output error
BIRKHOFF_TOL = 1e-7  # reconstruction error of a Birkhoff decomposition
WEIGHT_SUM_TOL = 1e-9
ROUND_TRIP_TOL = 1e-7  # acceptance 8: decompose -> synthesize round trip
MARGINAL_TOL = 1e-8  # acceptance 4
UNITARY_TOL = 1e-9
MEMBERSHIP_TOL = 1e-8  # hull_membership default and the witness check


def majorizes(p, q, slack=1e-10):
    """Every prefix sum of sorted ``p`` dominates that of sorted ``q``."""
    cp = np.cumsum(np.sort(np.asarray(p, dtype=np.float64))[::-1])
    cq = np.cumsum(np.sort(np.asarray(q, dtype=np.float64))[::-1])
    return bool(np.all(cp >= cq - slack))


def _curve(p, gamma):
    order = np.argsort(-(p / gamma), kind="stable")
    x = np.concatenate([[0.0], np.cumsum(gamma[order])])
    y = np.concatenate([[0.0], np.cumsum(p[order])])
    return x, y


def thermo_gap(p, q, gamma):
    """Largest amount by which the curve of ``q`` rises above that of ``p``.

    ``p`` thermomajorizes ``q`` exactly when the gap is at most zero; both
    curves are concave and piecewise linear, so the elbows settle it.
    """
    p, q, gamma = (np.asarray(v, dtype=np.float64) for v in (p, q, gamma))
    xp, yp = _curve(p, gamma)
    xq, yq = _curve(q, gamma)
    ts = np.concatenate([xp, xq])
    return float(np.max(np.interp(ts, xq, yq) - np.interp(ts, xp, yp)))


def unitarity_defect(u):
    u = np.asarray(u, dtype=np.complex128)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def classical_marginal(u, joint, dim_a):
    """System marginal of ``|U|^2 @ joint`` for a diagonal joint input."""
    mixed = (np.abs(np.asarray(u)) ** 2) @ joint
    return mixed.reshape(dim_a, -1).sum(axis=1)


def partial_trace_b(mat, dim_a, dim_b):
    return np.trace(np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b), axis1=1, axis2=3)


def noisy_channel_diagonal(u, p):
    """Diagonal of ``Tr_B[U (diag(p) ⊗ I/n) U†]`` with an n-level bath."""
    n = len(p)
    joint = np.kron(np.asarray(p, dtype=np.float64), np.full(n, 1.0 / n))
    return classical_marginal(u, joint, n)


def block_leak(u, blocks):
    """Largest entry of ``U`` connecting two different energy blocks."""
    dim = np.asarray(u).shape[0]
    block_of = np.empty(dim, dtype=np.intp)
    for k, block in enumerate(blocks):
        block_of[list(block)] = k
    same = block_of[:, None] == block_of[None, :]
    off = np.abs(np.asarray(u))[~same]
    return float(off.max()) if off.size else 0.0


def birkhoff_error(terms, d):
    """(reconstruction error, weight-sum error, smallest weight, bad permutation)."""
    n = d.shape[0]
    out = np.zeros((n, n))
    cols = np.arange(n)
    total = 0.0
    smallest = np.inf
    bad = False
    for weight, perm in terms:
        perm = np.asarray(perm)
        bad = bad or sorted(perm.tolist()) != list(range(n))
        out[perm, cols] += weight
        total += weight
        smallest = min(smallest, weight)
    return float(np.max(np.abs(out - d))), abs(total - 1.0), smallest, bad
