"""Independent cross-check routes used by the tests.

The library decides thermomajorization with a feasibility LP; the oracle
here uses the piecewise-linear dominance-curve characterization instead, so
agreement between the two is a real consistency check rather than the same
code called twice. Likewise the reachable-set listing, built block by block
as a Minkowski sum, is checked against the marginals of every
energy-preserving permutation.
"""

import numpy as np

from thermohorn import enumerate_classical


def dominance_curve(p, gamma):
    """Cumulative p against cumulative gamma, steepest p/gamma ratio first.

    Returns the elbow coordinates (x, y) of the concave upper boundary,
    starting at (0, 0) and ending at (1, 1).
    """
    p = np.asarray(p, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    order = np.argsort(-(p / gamma), kind="stable")
    x = np.concatenate([[0.0], np.cumsum(gamma[order])])
    y = np.concatenate([[0.0], np.cumsum(p[order])])
    return x, y


def thermomajorizes_oracle(p, q, gamma, slack=1e-11):
    """True when the curve of p dominates the curve of q everywhere.

    Both curves are concave and piecewise linear, so dominance at the
    elbows of q settles dominance everywhere; the elbows of p are checked
    too, which is redundant but cheap.
    """
    xp, yp = dominance_curve(p, gamma)
    xq, yq = dominance_curve(q, gamma)
    for t in np.concatenate([xp, xq]):
        if float(np.interp(t, xq, yq)) > float(np.interp(t, xp, yp)) + slack:
            return False
    return True


def majorizes_oracle(p, q, slack=1e-11):
    """Majorization as thermomajorization with the uniform fixed point."""
    n = len(np.asarray(p))
    return thermomajorizes_oracle(p, q, np.full(n, 1.0 / n), slack)


def reachable_listing(p, setup):
    """Distinct marginals of all energy-preserving permutations, brute force.

    Keeps the first permutation producing each output (on the 1e-10 grid)
    and sorts the outputs lexicographically; returns (points, permutations).
    """
    perms = enumerate_classical(setup).permutations
    shuffled = np.zeros(perms.shape)
    shuffled[np.arange(len(perms))[:, None], perms] = setup.joint_input(p)
    raw = shuffled.reshape(len(perms), setup.dim_a, setup.dim_b).sum(axis=2)
    _, first = np.unique(np.round(raw, 10), axis=0, return_index=True)
    order = first[np.lexsort(np.round(raw[first], 10).T[::-1])]
    return raw[order], perms[order]
