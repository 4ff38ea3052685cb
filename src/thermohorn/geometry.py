"""Membership in the classical hull, and the Qhull vertex reference.

:func:`classify_membership` holds the package's one membership rule, over a
:class:`~thermohorn.thermal.ClassicalHull`: facet margins read off ``F``,
the hull's projection witness inside the facets, and one min-slack LP
(:func:`min_slack_combination`) for any other target, which only decides
whether the target is exterior and prices its distance. A target the LP
places within ``tol`` takes its witness from ``F`` as the bath search does:
the walk from the target's saturation into the hull.

:func:`hull_vertex_indices` finds the extreme points of a point cloud with
Qhull: the reference the closed form is checked against, called by no route
in the package. scipy is imported on first use: :func:`linprog` loads HiGHS
and :func:`hull_vertex_indices` loads Qhull.
"""

from __future__ import annotations

import numpy as np

from .config import INTERIOR_MARGIN, MEMBERSHIP_TOL, WITNESS_PRUNE_TOL

__all__ = [
    "affine_rank",
    "hull_vertex_indices",
    "min_slack_combination",
    "classify_membership",
]

#: A target's projection onto the hull's affine span is inside the facets
#: when it lies within this of the inner side of every facet; a flat span
#: may drop a direction for Qhull only if every point lies within this of
#: the rest.
FACET_TOL = 1e-12


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _affine_frame(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Points centred on the first one, and an orthonormal basis of their span.

    The basis rows are the right singular vectors whose singular values
    exceed ``tol`` times the largest one (times 1 if the largest is smaller).
    """
    centered = points - points[0]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(svals[0]) if svals.size else 0.0)
    return centered, vt[: int(np.sum(svals > tol * scale))]


def affine_rank(points: np.ndarray, tol: float = 1e-10) -> int:
    """Dimension of the affine span of a point cloud (rows are points)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] <= 1:
        return 0
    return _affine_frame(pts, tol)[1].shape[0]


def hull_vertex_indices(points: np.ndarray, tol: float = 1e-10) -> tuple[int, ...]:
    """Ascending indices of the extreme points of a (deduplicated) point cloud, by Qhull.

    Qhull runs in the cloud's affine span; rank 0 and 1 clouds give their
    first point and their two extremes. A projection Qhull refuses as flat
    loses its weakest direction, but only while every point lies within
    ``FACET_TOL`` of the rest of the span; any other refusal is raised.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 1:
        return (0,)
    centered, basis = _affine_frame(pts, tol)
    while basis.shape[0] >= 2:
        from scipy.spatial import ConvexHull, QhullError

        try:
            return tuple(sorted(int(v) for v in ConvexHull(centered @ basis.T).vertices))
        except QhullError:
            reduced = basis[:-1]
            off_span = centered - (centered @ reduced.T) @ reduced
            if float(np.linalg.norm(off_span, axis=1).max()) > FACET_TOL:
                raise
            basis = reduced
    if basis.shape[0] == 0:
        return (0,)
    coord = centered @ basis[0]
    return tuple(sorted({int(np.argmin(coord)), int(np.argmax(coord))}))


def min_slack_combination(target: np.ndarray, generators: np.ndarray) -> float:
    """Max-norm residual of the best convex combination of ``generators`` approximating ``target``.

    Minimizes ``s`` over weights ``lam >= 0`` with ``sum(lam) = 1`` and
    ``|lam @ generators - target| <= s``, by HiGHS at its own tolerances,
    and returns ``s*``.
    """
    gens = np.asarray(generators, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    k, d = gens.shape
    nvar = k + 1
    a_ub = np.zeros((2 * d, nvar))
    b_ub = np.zeros(2 * d)
    a_ub[:d, :k] = gens.T
    a_ub[:d, -1] = -1.0
    b_ub[:d] = tgt
    a_ub[d:, :k] = -gens.T
    a_ub[d:, -1] = -1.0
    b_ub[d:] = -tgt
    a_eq = np.zeros((1, nvar))
    a_eq[0, :k] = 1.0
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"membership LP did not solve cleanly: {res.message}")
    return float(res.fun)


def _rebuild_error(weights: np.ndarray, gens: np.ndarray, tgt: np.ndarray) -> float:
    return float(np.max(np.abs(weights @ gens - tgt)))


def _pruned(
    weights: np.ndarray, gens: np.ndarray, tgt: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """Witness without its terms below ``WITNESS_PRUNE_TOL``, and its rebuild error.

    The terms are dropped only if the renormalized rest still rebuilds
    ``tgt`` within ``tol``; otherwise every positive term is kept.
    """
    weights = np.clip(weights, 0.0, None)
    kept = np.where(weights >= WITNESS_PRUNE_TOL, weights, 0.0)
    kept /= kept.sum()
    err = _rebuild_error(kept, gens, tgt)
    if err <= tol:
        return kept, err
    weights = weights / weights.sum()
    return weights, _rebuild_error(weights, gens, tgt)


def classify_membership(
    target: np.ndarray, hull, tol: float = MEMBERSHIP_TOL
) -> tuple[str, float, np.ndarray | None]:
    """Classify ``target`` against a :class:`~thermohorn.thermal.ClassicalHull`.

    Returns ``(status, distance, weights)``: status is ``"interior"``
    (relative to the hull's affine span: a segment has an open interior),
    ``"boundary"`` or ``"exterior"``, and ``weights`` a convex witness over
    ``hull.vertices``, mixing at most rank+1 of them, that rebuilds the
    target within ``tol`` (None if exterior).

    A target that is not exterior is interior exactly when its projection
    onto the hull's affine span clears every facet by more than
    ``INTERIOR_MARGIN``; ``distance`` is that Euclidean margin, clipped at
    0. When the projection lies inside the facets, the witness is the
    hull's walk to that projection (:meth:`~ClassicalHull.witness`), and no
    LP runs. Every other target -- outside a facet, or with a witness that
    fails its rebuild -- solves one min-slack LP over ``hull.vertices`` in
    their order: above ``tol`` the target is exterior with the max-norm
    residual as ``distance``. Otherwise it is a band target, within ``tol``
    of the hull, and its witness is the walk from its saturation into the
    hull (:meth:`~ClassicalHull.band_witness`), the step
    ``thermal._greedy_unitary`` takes; a band witness that rounding leaves
    more than ``tol`` from the target makes it exterior at that miss. A
    hull of rank 0 is a point, inside which a target within ``tol``
    (max-norm) is interior, with that gap as ``distance``.
    """
    gens = hull.vertices
    tgt = np.asarray(target, dtype=np.float64)
    if hull.rank == 0:
        gap = float(np.max(np.abs(gens[0] - tgt)))
        if gap > tol:
            return "exterior", gap, None
        weights = np.zeros(gens.shape[0])
        weights[0] = 1.0
        return "interior", gap, weights
    slack = hull.excess(tgt)
    margin = max(0.0, -slack)
    status = "interior" if margin > INTERIOR_MARGIN else "boundary"
    if slack <= FACET_TOL:
        weights, err = _pruned(hull.witness(tgt), gens, tgt, tol)
        if err <= tol:
            return status, margin, weights
    residual = min_slack_combination(tgt, gens)
    if residual > tol:
        return "exterior", residual, None
    weights, err = _pruned(hull.band_witness(tgt), gens, tgt, tol)
    if err <= tol:
        return status, margin, weights
    return "exterior", err, None
