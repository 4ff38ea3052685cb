"""Convex geometry for finite point clouds in the probability simplex.

Small, dense, low-dimensional problems only. Every routine works in the
cloud's own affine span, found by one centred SVD, and hulls are built by
Qhull in that span. When Qhull refuses a projection as flat, the weakest
span direction is dropped and the hull retried, but only while every point
lies within ``FACET_TOL`` of the reduced span; any other refusal is raised.

Membership goes through a :class:`Polytope`: the hull's facet equations in
its affine span (Qhull ``equations``; the two endpoints at rank 1) and a
lazily built Delaunay triangulation of its vertices. The facets alone give
the verdict for every target that is not exterior: it is interior exactly
when its projection onto the span clears every facet by more than
``INTERIOR_MARGIN``, and that margin (clipped at 0) is its distance. A
target whose projection lies inside the facets gets, as witness, the
barycentric combination of the at most rank+1 vertices of the Delaunay
simplex holding it, accepted only after it rebuilds the target within the
caller's tolerance. Every other target -- outside a facet, or with a
witness that fails the rebuild -- is decided by one linear program, the
min-slack combination, so an "exterior" verdict is always an LP
certificate and its distance the max-norm residual of the best convex
combination. HiGHS solves to a feasibility tolerance of 1e-7, so an LP
witness can miss a target just outside the hull by more than the caller's
tolerance; such an LP is solved once more at ``TIGHT_LP_TOL`` and decides
the target, and no witness that misses by more than the tolerance is ever
returned.

A :class:`Polytope` also bounds a target's Euclidean distance to the hull
from below, by its facet violation and its component off the span
(:meth:`Polytope.separation`); a bound above ``sqrt(dim)`` times a
tolerance proves the target exterior at that tolerance with no LP. The
bath search uses it to skip baths; :func:`classify_membership` still
solves the LP for exterior targets, so that its distance stays the
max-norm residual.

Classification is relative to the affine span of the cloud: a segment in a
2-simplex has two boundary points and an open-interval interior, matching
the relative-interior notion the thermal pipeline needs.

scipy is imported on first use, not with the package: :func:`linprog` and
:func:`ConvexHull` load HiGHS and Qhull on their first call, and the
Delaunay triangulation loads with the first one built. ``majorization``
solves its LP through this same :func:`linprog`. Both names are looked up
as module attributes at call time, so a caller may replace them.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = [
    "Polytope",
    "affine_rank",
    "hull_vertex_indices",
    "min_slack_combination",
    "classify_membership",
]

#: Margin below which an inside point counts as boundary.
INTERIOR_MARGIN = 1e-9

#: A target's projection onto the hull's affine span is inside the facets
#: when it lies within this of the inner side of every facet; a flat span
#: may drop a direction only if every point lies within this of the rest.
FACET_TOL = 1e-12

#: Witness weights below this are dropped when the renormalized witness
#: still rebuilds the target within the caller's tolerance.
WITNESS_PRUNE_TOL = 1e-9

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


def ConvexHull(points: np.ndarray):
    """``scipy.spatial.ConvexHull(points)``, imported on the first call."""
    from scipy.spatial import ConvexHull as qhull

    return qhull(points)


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


def _hull_frame(
    points: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, "scipy.spatial.ConvexHull | None"]:
    """Centred points, a basis of their span, and the hull of their projection.

    The hull is built at rank >= 2 and is None below. When Qhull refuses
    the projection, the weakest span direction is dropped and the hull
    retried; this is allowed only while every point lies within
    ``FACET_TOL`` of the reduced span, and the refusal is raised otherwise.
    """
    centered, basis = _affine_frame(points, tol)
    while basis.shape[0] >= 2:
        from scipy.spatial import QhullError

        try:
            return centered, basis, ConvexHull(centered @ basis.T)
        except QhullError:
            reduced = basis[:-1]
            off_span = centered - (centered @ reduced.T) @ reduced
            if float(np.linalg.norm(off_span, axis=1).max()) > FACET_TOL:
                raise
            basis = reduced
    return centered, basis, None


def hull_vertex_indices(points: np.ndarray, tol: float = 1e-10) -> tuple[int, ...]:
    """Indices of the extreme points of a (deduplicated) point cloud.

    Rank 0 and 1 clouds give their first point and their two extremes;
    flat clouds Qhull refuses are handled as in :func:`_hull_frame`.
    Indices are returned ascending.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 1:
        return (0,)
    centered, basis, hull = _hull_frame(pts, tol)
    if hull is not None:
        return tuple(sorted(int(v) for v in hull.vertices))
    if basis.shape[0] == 0:
        return (0,)
    coord = centered @ basis[0]
    return tuple(sorted({int(np.argmin(coord)), int(np.argmax(coord))}))


class Polytope:
    """``conv(vertices)`` as facet inequalities inside its affine span.

    ``origin + basis.T @ y`` parametrizes the span, and the hull is
    ``normals @ y + offsets <= 0`` there, with unit ``normals``; both are
    None when the span is a single point. A flat span that Qhull refuses
    loses its weakest direction (see :func:`_hull_frame`), so ``rank`` is
    the dimension the facets live in. ``vertices`` should be the extreme
    points, though extra generators do no harm.

    :meth:`separation` bounds a target's distance to the hull from below
    with no LP. Such a bound needs the room the vertices themselves take
    off the span (an SVD direction below the rank tolerance, or one dropped
    for Qhull) and beyond the facets (Qhull's rounding); both are measured
    once here.
    """

    def __init__(self, vertices: np.ndarray, tol: float = 1e-10):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        centered, self.basis, hull = _hull_frame(self.vertices, tol)
        self.origin = self.vertices[0]
        self.rank = self.basis.shape[0]
        self.projected = centered @ self.basis.T
        self.normals = self.offsets = None
        if hull is not None:
            self.normals, self.offsets = hull.equations[:, :-1], hull.equations[:, -1]
        elif self.rank == 1:
            coord = self.projected[:, 0]
            self.normals = np.array([[-1.0], [1.0]])
            self.offsets = np.array([coord.min(), -coord.max()])
        self._off_span = float(np.linalg.norm(centered - self.projected @ self.basis, axis=1).max())
        self._facet_excess = 0.0
        if self.normals is not None:
            excess = float(np.max(self.projected @ self.normals.T + self.offsets))
            self._facet_excess = max(0.0, excess)

    def separation(self, target: np.ndarray) -> float:
        """A lower bound on the Euclidean distance from ``target`` to the hull.

        ``sqrt(v² + |w|²)``, where ``v`` is the largest facet violation of
        the target's projection onto the span and ``w`` its component off
        the span, each less the room the vertices take (see the class
        docstring). Every hull point lies inside the facets and on the span
        up to that room, so no convex combination of the vertices comes
        closer; a value above ``sqrt(dim) * tol`` proves that the max-norm
        residual of every one exceeds ``tol``.
        """
        rel = np.asarray(target, dtype=np.float64) - self.origin
        y = self.basis @ rel
        off = float(np.linalg.norm(rel - y @ self.basis))
        violation = 0.0 if self.normals is None else float(np.max(self.normals @ y + self.offsets))
        return math.hypot(
            max(0.0, violation - self._facet_excess), max(0.0, off - self._off_span)
        )

    @cached_property
    def delaunay(self) -> "scipy.spatial.Delaunay | None":
        """Triangulation of the projected vertices (rank >= 2), or None if refused."""
        from scipy.spatial import Delaunay, QhullError

        try:
            return Delaunay(self.projected)
        except QhullError:
            return None

    def barycentric(self, y: np.ndarray) -> np.ndarray | None:
        """Weights over ``vertices`` for span coordinates ``y``, at most rank+1 nonzero.

        At rank 1 these are the two endpoints; above, the vertices of the
        Delaunay simplex whose smallest barycentric coordinate at ``y`` is
        largest. Slightly negative coordinates are clipped to zero.
        """
        weights = np.zeros(self.vertices.shape[0])
        if self.rank == 1:
            coord = self.projected[:, 0]
            lo, hi = int(np.argmin(coord)), int(np.argmax(coord))
            t = min(1.0, max(0.0, (y[0] - coord[lo]) / (coord[hi] - coord[lo])))
            weights[lo] = 1.0 - t
            weights[hi] = t
            return weights
        tri = self.delaunay
        if tri is None:
            return None
        transform = tri.transform
        coords = np.einsum("sij,sj->si", transform[:, : self.rank], y - transform[:, self.rank])
        bary = np.hstack([coords, 1.0 - coords.sum(axis=1, keepdims=True)])
        worst = np.nan_to_num(bary.min(axis=1), nan=-np.inf)
        best = int(np.argmax(worst))
        if not np.isfinite(worst[best]):
            return None
        weights[tri.simplices[best]] = np.clip(bary[best], 0.0, None)
        return weights / weights.sum()


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
    target: np.ndarray, hull: Polytope | np.ndarray, tol: float = 1e-8
) -> tuple[str, float, np.ndarray | None]:
    """Classify ``target`` against the convex hull of some generators.

    ``hull`` is a prebuilt :class:`Polytope` or an array of generators (one
    per row), which is wrapped in one. Returns ``(status, distance,
    weights)`` with status one of ``"interior"``, ``"boundary"``,
    ``"exterior"``; interiority means relative interior of the hull.
    ``weights`` is a convex witness over the generators that rebuilds the
    target within ``tol`` (None for exterior targets).

    A target that is not exterior is interior exactly when its projection
    onto the hull's affine span clears every facet by more than
    ``INTERIOR_MARGIN``; ``distance`` is that Euclidean margin, clipped at
    0. When the projection lies inside the facets, the witness mixes at
    most rank+1 vertices and no LP runs. Every other target -- outside a
    facet, or with a witness that fails its rebuild -- solves the min-slack
    LP: above ``tol`` the target is exterior with the max-norm residual as
    ``distance``, otherwise the LP supplies the witness. If that witness
    misses the target by more than ``tol``, the LP is solved again with
    HiGHS's feasibility tolerances at ``TIGHT_LP_TOL`` and the re-solve
    decides; a witness that still misses raises ``RuntimeError``. A hull
    of rank 0 is a point, inside which a target within ``tol`` (max-norm)
    is interior, with that gap as ``distance``.
    """
    poly = hull if isinstance(hull, Polytope) else Polytope(hull)
    gens = poly.vertices
    tgt = np.asarray(target, dtype=np.float64)
    if poly.normals is None:
        gap = float(np.max(np.abs(gens[0] - tgt)))
        if gap > tol:
            return "exterior", gap, None
        weights = np.zeros(gens.shape[0])
        weights[0] = 1.0
        return "interior", gap, weights
    y = poly.basis @ (tgt - poly.origin)
    slack = float(np.max(poly.normals @ y + poly.offsets))
    margin = max(0.0, -slack)
    status = "interior" if margin > INTERIOR_MARGIN else "boundary"
    if slack <= FACET_TOL:
        weights = poly.barycentric(y)
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
    raise RuntimeError(f"membership LP witness misses the target by {err} (tolerance {tol})")
