"""Convex geometry for finite point clouds in the probability simplex.

Small, dense, low-dimensional problems only. Every routine works in the
cloud's own affine span, found by one centred SVD. Vertices are found by an
incremental hull (Qhull) in that span, with a per-point LP redundancy
fallback for geometry Qhull refuses.

Membership goes through a :class:`Polytope`: the hull's facet equations in
its affine span (Qhull ``equations``; the two endpoints at rank 1) and a
lazily built Delaunay triangulation of its vertices. A target that lies on
the span and inside every facet is classified by that one matrix product;
its witness is the barycentric combination of the at most rank+1 vertices
of the Delaunay simplex holding it, and is accepted only after it rebuilds
the target within the caller's tolerance. Every other case -- targets the
facets do not place inside, hulls Qhull refuses, witnesses that fail the
rebuild -- is decided by linear programs, so an "exterior" verdict is always
an LP certificate.

Classification is relative to the affine span of the cloud: a segment in a
2-simplex has two boundary points and an open-interval interior, matching
the relative-interior notion the thermal pipeline needs. The reported
distance is, for exterior targets, the max-norm residual of the best convex
combination; for inside targets, the Euclidean margin to the nearest facet
within the span (facet route) or the LP positivity margin (LP route).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, Delaunay, QhullError

__all__ = [
    "Polytope",
    "affine_rank",
    "hull_vertex_indices",
    "min_slack_combination",
    "classify_membership",
]

#: Margin below which an inside point counts as boundary.
INTERIOR_MARGIN = 1e-9

#: A target is inside the facets when it lies within this of the hull's
#: affine span (Euclidean) and of the inner side of every facet.
FACET_TOL = 1e-12

#: Witness weights below this are dropped when the renormalized witness
#: still rebuilds the target within the caller's tolerance.
WITNESS_PRUNE_TOL = 1e-9


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


def _lp_is_redundant(index: int, pts: np.ndarray, tol: float) -> bool:
    others = np.delete(pts, index, axis=0)
    slack, _ = min_slack_combination(pts[index], others)
    return slack <= tol


def hull_vertex_indices(points: np.ndarray, tol: float = 1e-10) -> tuple[int, ...]:
    """Indices of the extreme points of a (deduplicated) point cloud.

    Degenerate clouds (rank 0 or 1, or Qhull rejections) are handled by
    direct extremes / LP redundancy removal. Indices are returned ascending.
    """
    pts = np.asarray(points, dtype=np.float64)
    k = pts.shape[0]
    if k == 1:
        return (0,)
    centered, basis = _affine_frame(pts, tol)
    rank = basis.shape[0]
    if rank == 0:
        return (0,)
    if rank == 1:
        coord = centered @ basis[0]
        return tuple(sorted({int(np.argmin(coord)), int(np.argmax(coord))}))
    try:
        hull = ConvexHull(centered @ basis.T)
        return tuple(sorted(int(v) for v in hull.vertices))
    except QhullError:
        verts = [i for i in range(k) if not _lp_is_redundant(i, pts, tol)]
        return tuple(verts)


class Polytope:
    """``conv(vertices)`` as facet inequalities inside its affine span.

    ``origin + basis.T @ y`` parametrizes the span, and the hull is
    ``normals @ y + offsets <= 0`` there, with unit ``normals``. ``normals``
    is None when the span is a single point or Qhull refuses the hull; such
    a polytope is classified by linear programming alone. ``vertices``
    should be the extreme points, though extra generators do no harm.
    """

    def __init__(self, vertices: np.ndarray, tol: float = 1e-10):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        centered, self.basis = _affine_frame(self.vertices, tol)
        self.origin = self.vertices[0]
        self.rank = self.basis.shape[0]
        self.projected = centered @ self.basis.T
        self.normals = self.offsets = None
        if self.rank == 1:
            coord = self.projected[:, 0]
            self.normals = np.array([[-1.0], [1.0]])
            self.offsets = np.array([coord.min(), -coord.max()])
        elif self.rank >= 2:
            try:
                equations = ConvexHull(self.projected).equations
            except QhullError:
                return
            self.normals, self.offsets = equations[:, :-1], equations[:, -1]

    @cached_property
    def delaunay(self) -> Delaunay | None:
        """Triangulation of the projected vertices (rank >= 2), or None if refused."""
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
    target: np.ndarray, generators: np.ndarray
) -> tuple[float, np.ndarray]:
    """Best convex combination of ``generators`` approximating ``target``.

    Minimizes the max-norm residual ``s`` over weights ``lam >= 0`` with
    ``sum(lam) = 1``; returns ``(s*, lam*)``.
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
    return float(res.fun), res.x[:k]


def _positivity_margin(
    target: np.ndarray, generators: np.ndarray, feas_tol: float
) -> tuple[float, np.ndarray] | None:
    """Maximize ``t`` with ``lam_i >= t`` over representations of ``target``.

    A polytope point lies in the relative interior iff it is a strictly
    positive convex combination of all the extreme points, so ``t* > 0``
    separates interior from boundary. Feasibility of the representation is
    relaxed to ``feas_tol`` per coordinate to absorb floating-point error.
    """
    gens = np.asarray(generators, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    k, d = gens.shape
    nvar = k + 1  # weights, then t
    rows = []
    rhs = []
    for c in range(d):
        row = np.zeros(nvar)
        row[:k] = gens[:, c]
        rows.append(row)
        rhs.append(tgt[c] + feas_tol)
        rows.append(-row)
        rhs.append(-(tgt[c] - feas_tol))
    for i in range(k):  # t - lam_i <= 0
        row = np.zeros(nvar)
        row[i] = -1.0
        row[-1] = 1.0
        rows.append(row)
        rhs.append(0.0)
    a_eq = np.zeros((1, nvar))
    a_eq[0, :k] = 1.0
    cost = np.zeros(nvar)
    cost[-1] = -1.0  # maximize t
    res = linprog(
        cost, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs",
    )
    if not res.success:
        return None
    return float(res.x[-1]), res.x[:k]


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


def _facet_classification(
    poly: Polytope, tgt: np.ndarray, tol: float
) -> tuple[str, float, np.ndarray] | None:
    """Classify a target the facets place inside; None defers to the LPs."""
    if poly.normals is None:
        return None
    shifted = tgt - poly.origin
    y = poly.basis @ shifted
    if np.linalg.norm(shifted - y @ poly.basis) > FACET_TOL:
        return None
    slack = float(np.max(poly.normals @ y + poly.offsets))
    if slack > FACET_TOL:
        return None
    weights = poly.barycentric(y)
    if weights is None:
        return None
    weights, err = _pruned(weights, poly.vertices, tgt, tol)
    if err > tol:
        return None
    margin = max(0.0, -slack)
    return ("interior" if margin > INTERIOR_MARGIN else "boundary"), margin, weights


def _lp_classification(
    tgt: np.ndarray, gens: np.ndarray, tol: float
) -> tuple[str, float, np.ndarray | None]:
    """Classify by the min-slack LP, then the positivity-margin LP."""
    slack, weights = min_slack_combination(tgt, gens)
    if slack > tol:
        return "exterior", slack, None
    # Tighten the representation tolerance to just above the achieved slack,
    # so near-vertex targets cannot buy a fake positive margin out of it.
    feas = max(1.01 * slack, 1e-12)
    margin = _positivity_margin(tgt, gens, feas)
    if margin is None:
        return "boundary", 0.0, _pruned(weights, gens, tgt, tol)[0]
    t_star, pos_weights = margin
    status = "interior" if t_star > INTERIOR_MARGIN else "boundary"
    return status, t_star, _pruned(pos_weights, gens, tgt, tol)[0]


def classify_membership(
    target: np.ndarray, hull: Polytope | np.ndarray, tol: float = 1e-8
) -> tuple[str, float, np.ndarray | None]:
    """Classify ``target`` against the convex hull of some generators.

    ``hull`` is a prebuilt :class:`Polytope` or an array of generators (one
    per row), which is wrapped in one. Returns ``(status, distance,
    weights)`` with status one of ``"interior"``, ``"boundary"``,
    ``"exterior"``; interiority means relative interior of the hull.
    ``weights`` is a convex witness over the generators that rebuilds the
    target within ``tol`` (None for exterior targets). Targets the facets
    place inside get at most rank+1 nonzero weights and, as ``distance``,
    their Euclidean margin to the nearest facet; all others are decided by
    LP, with ``distance`` the max-norm residual (exterior) or the
    positivity margin (inside).
    """
    poly = hull if isinstance(hull, Polytope) else Polytope(hull)
    gens = poly.vertices
    tgt = np.asarray(target, dtype=np.float64)
    if gens.shape[0] == 1:
        gap = float(np.max(np.abs(gens[0] - tgt)))
        if gap <= tol:
            return "interior", gap, np.array([1.0])
        return "exterior", gap, None
    found = _facet_classification(poly, tgt, tol)
    if found is not None:
        return found
    return _lp_classification(tgt, gens, tol)
