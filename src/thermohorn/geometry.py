"""Convex geometry for finite point clouds in the probability simplex.

:func:`classify_membership` holds the package's one membership rule over a
hull object offering ``vertices`` (one generator per row), ``rank`` (of
their affine span), ``excess(target)`` (the largest Euclidean distance by
which the target's projection onto that span crosses a facet; negative
inside) and ``witness(target)`` (convex weights over ``vertices``, at most
rank+1 nonzero, for a projection inside the facets; or None). The package's
hull is :class:`~thermohorn.thermal.ClassicalHull`, in closed form.

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

#: HiGHS's primal and dual feasibility tolerances for the re-solve of a
#: min-slack LP whose witness missed (its defaults are 1e-7, ten times the
#: default membership ``tol``).
TIGHT_LP_TOL = 1e-10

#: HiGHS's feasibility tolerance for the first solve of an LP (None: its own,
#: 1e-7) and for its one re-solve when the first witness fails its check.
FEASIBILITY_TOLS = (None, TIGHT_LP_TOL)


def highs_options(feasibility_tol: float | None) -> dict:
    """HiGHS options setting its primal and dual feasibility tolerances (None: its own)."""
    if feasibility_tol is None:
        return {}
    return {
        "primal_feasibility_tolerance": feasibility_tol,
        "dual_feasibility_tolerance": feasibility_tol,
    }


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


def min_slack_combination(
    target: np.ndarray, generators: np.ndarray, *, feasibility_tol: float | None = None
) -> tuple[float, np.ndarray]:
    """Best convex combination of ``generators`` approximating ``target``.

    Minimizes the max-norm residual ``s`` over weights ``lam >= 0`` with
    ``sum(lam) = 1``; returns ``(s*, lam*)``. ``feasibility_tol`` sets
    HiGHS's primal and dual feasibility tolerances (default: HiGHS's own).
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
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs",
        options=highs_options(feasibility_tol),
    )
    if not res.success:
        raise RuntimeError(f"membership LP did not solve cleanly: {res.message}")
    return float(res.fun), res.x[:k]


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
    """Classify ``target`` against a hull object (see the module docstring).

    Returns ``(status, distance, weights)``: status is ``"interior"``
    (relative to the hull's affine span: a segment has an open interior),
    ``"boundary"`` or ``"exterior"``, and ``weights`` a convex witness over
    ``hull.vertices`` rebuilding the target within ``tol`` (None if exterior).

    A target that is not exterior is interior exactly when its projection
    onto the hull's affine span clears every facet by more than
    ``INTERIOR_MARGIN``; ``distance`` is that Euclidean margin, clipped at
    0. When the projection lies inside the facets, the witness is the
    hull's own, mixing at most rank+1 vertices, and no LP runs. Every other
    target -- outside a facet, or with a witness that fails its rebuild --
    solves the min-slack LP over ``hull.vertices`` in their order: above
    ``tol`` the target is exterior with the max-norm residual as
    ``distance``, otherwise the LP supplies the witness. If that witness
    misses the target by more than ``tol``, the LP is solved again with
    HiGHS's feasibility tolerances at ``TIGHT_LP_TOL`` and the re-solve
    decides. A re-solve witness that still misses (a target whose distance
    lies within the solver's noise of ``tol``) makes the target exterior,
    with that witness's max-norm miss, above ``tol``, as ``distance``. A hull of
    rank 0 is a point, inside which a target within ``tol`` (max-norm) is
    interior, with that gap as ``distance``.
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
        weights = hull.witness(tgt)
        if weights is not None:
            weights, err = _pruned(weights, gens, tgt, tol)
            if err <= tol:
                return status, margin, weights
    for feasibility_tol in FEASIBILITY_TOLS:
        residual, weights = min_slack_combination(tgt, gens, feasibility_tol=feasibility_tol)
        if residual > tol:
            return "exterior", residual, None
        weights, err = _pruned(weights, gens, tgt, tol)
        if err <= tol:
            return status, margin, weights
    return "exterior", err, None
