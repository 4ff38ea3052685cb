"""Independent cross-check routes used by the tests.

The library decides thermomajorization on thermo-Lorenz curves; the
oracles here are the same characterization written out separately
(checked at the elbows of both curves, with plain stable ordering) and the
min-residual feasibility LP over Gibbs-preserving stochastic maps, so
agreement is a real consistency check rather than the same code called
twice. Likewise the reachable-set listing, built block by block
as a Minkowski sum, is checked against the marginals of every
energy-preserving permutation, and the gadget unitaries, built from index
images, against dense sums of Kronecker products. The closed-form
classical hull is checked against :class:`Polytope`, the hull of its
vertices as Qhull's facet equations with a Delaunay witness, its vertices
against :func:`hull_vertex_indices`, Qhull's extreme points of the listing, and
membership verdicts against a positivity-margin LP and against
:func:`classify_membership_reference`, the rule for a hull with no ``F``:
a min-slack LP whose weights are the witness, re-solved at tight solver
tolerances when that witness misses. Its ``F`` reads
through cached frames and level sets against :class:`PerCallHull`, which
builds every table for the one hull, and its span, read off the atoms of
``F``'s separators, against that class's SVD of their indicators. The bath search is
checked against a walk that asks that rule about every bath's greedy
sum, pruned to its Qhull vertices after every block; the iterative
and vectorized internals against the plain recursive and looped forms they
replace, and the Birkhoff chain's repaired matching against a chain that
recomputes its support at every step. ``build_setup``'s integer keys are
checked against grouping joint states on their summed ``EnergyLabel``, and
Gibbs vectors read off integer labels against the ``Fraction`` formula. The
Schur-Horn chain and the unitaries ``synthesize_unitary`` assembles from it
are checked, bit for bit, against the chain that rescans the whole
diagonal at every step, and the block data a hull keeps for the rotations
against a loop over the blocks. ``decompose_channel_to_classical``, which checks
all blocks at once, is checked against ``birkhoff_decompose`` called block
by block, and a product mixture's joint output against the block-by-block,
term-by-term sum and against its expansion into joint permutations, which
lives here only. The greedy step's mixture, summed over the inputs a hull
keeps placed by each order, is checked against scattering the joint input
by each order's permutation and adding it in. ``probability_vector`` is checked against its body as first
written, through numpy's function wrappers. The seeded random bistochastic
matrices and block unitaries the tests feed in are drawn here too.
"""

import itertools
import math
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.spatial
from scipy.optimize import linprog

from thermohorn import (
    ConvexCombination,
    EnergyLabel,
    Hamiltonian,
    PreconditionError,
    birkhoff_decompose,
    build_setup,
    cyclic_shift,
    energy_preservation_defect,
    enumerate_classical,
    probability_vector,
)
from thermohorn.config import (
    BIRKHOFF_ZERO_TOL,
    BISTOCHASTIC_ENTRY_TOL,
    BISTOCHASTIC_SUM_TOL,
    DECOMPOSITION_TOL,
    DEDUP_DECIMALS,
    DEDUP_TOL,
    FACET_TOL,
    INTERIOR_MARGIN,
    MEMBERSHIP_TOL,
    PROBABILITY_SUM_TOL_PER_ENTRY,
    PROBABILITY_TOL,
    SEPARATOR_TOL,
    WALK_DIRECTION_TOL,
)
from thermohorn.energy import _multiset_permutations
from thermohorn.linalg import permutation_matrix, require_unitary
from thermohorn.noisy import haar_unitary
from thermohorn.thermal import ReachableSet, _BathLadder, _first_distinct, _marginal_outputs, _pruned


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


def lorenz_margin(p, q, gamma):
    """Smallest height of p's dominance curve above q's, over the elbows of both."""
    xp, yp = dominance_curve(p, gamma)
    xq, yq = dominance_curve(q, gamma)
    at = np.concatenate([xp, xq])
    return float(np.min(np.interp(at, xp, yp) - np.interp(at, xq, yq)))


def thermomajorization_residual(p, q, gamma):
    """``min ||D p - q||_inf`` over column-stochastic ``D`` with ``D gamma = gamma``, by LP."""
    p, q, gamma = (np.asarray(v, dtype=np.float64) for v in (p, q, gamma))
    n = p.size
    nvar = n * n + 1  # D row-major, then the residual s
    a_eq = np.zeros((2 * n, nvar))
    for j in range(n):
        a_eq[j, j : n * n : n] = 1.0
    for i in range(n):
        a_eq[n + i, i * n : (i + 1) * n] = gamma
    a_ub = np.zeros((2 * n, nvar))
    for i in range(n):
        a_ub[i, i * n : (i + 1) * n] = p
        a_ub[n + i, i * n : (i + 1) * n] = -p
    a_ub[:, -1] = -1.0
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.concatenate([q, -q]), A_eq=a_eq,
        b_eq=np.concatenate([np.ones(n), gamma]), bounds=(0, None), method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def _affine_frame(points, tol):
    """Points centred on the first one, and an orthonormal basis of their span.

    The basis rows are the right singular vectors whose singular values
    exceed ``tol`` times the largest one (times 1 if the largest is smaller).
    """
    centered = points - points[0]
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(svals[0]) if svals.size else 0.0)
    return centered, vt[: int(np.sum(svals > tol * scale))]


def affine_rank(points, tol=1e-10):
    """Dimension of the affine span of a point cloud (rows are points)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] <= 1:
        return 0
    return _affine_frame(pts, tol)[1].shape[0]


def _hull_frame(points, tol):
    """Centred points, a basis of their span, and Qhull's hull of their projection.

    The hull is built at rank >= 2 and is None below. When Qhull refuses
    the projection, the weakest span direction is dropped and the hull
    retried; this is allowed only while every point lies within
    ``FACET_TOL`` of the reduced span, and the refusal is raised otherwise.
    """
    centered, basis = _affine_frame(points, tol)
    while basis.shape[0] >= 2:
        try:
            return centered, basis, scipy.spatial.ConvexHull(centered @ basis.T)
        except scipy.spatial.QhullError:
            reduced = basis[:-1]
            off_span = centered - (centered @ reduced.T) @ reduced
            if float(np.linalg.norm(off_span, axis=1).max()) > FACET_TOL:
                raise
            basis = reduced
    return centered, basis, None


def hull_vertex_indices(points, tol=1e-10):
    """Ascending indices of the extreme points of a (deduplicated) point cloud, by Qhull.

    Qhull runs in the cloud's affine span (:func:`_hull_frame`); rank 0 and
    1 clouds give their first point and their two extremes.
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
    """``conv(vertices)`` as Qhull's facet inequalities inside its affine span.

    ``origin + basis.T @ y`` parametrizes the span, and the hull is
    ``normals @ y + offsets <= 0`` there, with unit ``normals``; both are
    None when the span is a single point. A flat span that Qhull refuses
    loses its weakest direction (see :func:`_hull_frame`), so ``rank`` is
    the dimension the facets live in. It offers what
    :func:`classify_membership_reference` reads: ``excess`` from the facets
    and, as ``witness``, the Delaunay simplex holding the target.

    :meth:`separation` bounds a target's distance to the hull from below
    with no LP. Such a bound needs the room the vertices themselves take
    off the span (an SVD direction below the rank tolerance, or one dropped
    for Qhull) and beyond the facets (Qhull's rounding); both are measured
    once here.
    """

    def __init__(self, vertices, tol=1e-10):
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

    def excess(self, target):
        """Largest signed facet distance of the target's projection (negative inside)."""
        y = self.basis @ (np.asarray(target, dtype=np.float64) - self.origin)
        return float(np.max(self.normals @ y + self.offsets))

    def witness(self, target):
        return self.barycentric(self.basis @ (np.asarray(target, dtype=np.float64) - self.origin))

    def separation(self, target):
        """A lower bound on the Euclidean distance from ``target`` to the hull.

        ``sqrt(v² + |w|²)``, where ``v`` is the largest facet violation of
        the target's projection onto the span and ``w`` its component off
        the span, each less the room the vertices take (see the class
        docstring).
        """
        rel = np.asarray(target, dtype=np.float64) - self.origin
        y = self.basis @ rel
        off = float(np.linalg.norm(rel - y @ self.basis))
        violation = 0.0 if self.normals is None else float(np.max(self.normals @ y + self.offsets))
        return math.hypot(
            max(0.0, violation - self._facet_excess), max(0.0, off - self._off_span)
        )

    @cached_property
    def delaunay(self):
        """Triangulation of the projected vertices (rank >= 2), or None if refused."""
        try:
            return scipy.spatial.Delaunay(self.projected)
        except scipy.spatial.QhullError:
            return None

    def barycentric(self, y):
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


#: HiGHS's primal and dual feasibility tolerances for the re-solve of a
#: min-slack LP whose witness missed (its defaults are 1e-7, ten times the
#: default membership ``tol``).
TIGHT_LP_TOL = 1e-10


def min_slack_lp(target, generators, feasibility_tol=None):
    """``(s*, lam*)``: the best convex combination of ``generators`` approximating ``target``.

    Minimizes the max-norm residual ``s`` over weights ``lam >= 0`` with
    ``sum(lam) = 1``. ``feasibility_tol`` sets HiGHS's primal and dual
    feasibility tolerances (None: HiGHS's own, 1e-7).
    """
    gens = np.asarray(generators, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    k, d = gens.shape
    nvar = k + 1
    a_ub = np.zeros((2 * d, nvar))
    a_ub[:d, :k] = gens.T
    a_ub[d:, :k] = -gens.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, nvar))
    a_eq[0, :k] = 1.0
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    options = {}
    if feasibility_tol is not None:
        options = {"primal_feasibility_tolerance": feasibility_tol,
                   "dual_feasibility_tolerance": feasibility_tol}
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.concatenate([tgt, -tgt]), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs", options=options,
    )
    if not res.success:
        raise RuntimeError(f"membership LP did not solve cleanly: {res.message}")
    return float(res.fun), res.x[:k]


def classify_membership_reference(target, hull, tol=MEMBERSHIP_TOL):
    """The membership rule over any hull object with no ``F``, such as :class:`Polytope`.

    The hull offers ``vertices``, ``rank``, ``excess`` and ``witness`` (a
    projection witness, or None); the return is ``(status, distance,
    weights)``: the verdict and distance as ``thermohorn.hull_membership``
    defines them, and a witness over ``hull.vertices`` (None if exterior).
    Inside the facets the hull's witness decides with no LP, as there. Every
    other target solves the min-slack LP, whose residual above ``tol`` makes
    it exterior and whose weights are otherwise the witness. A witness that misses by more than
    ``tol`` is solved for again at ``TIGHT_LP_TOL``, and a re-solve witness
    that still misses (a target within the solver's noise of ``tol``)
    makes the target exterior at that miss.
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
    for feasibility_tol in (None, TIGHT_LP_TOL):
        residual, weights = min_slack_lp(tgt, gens, feasibility_tol)
        if residual > tol:
            return "exterior", residual, None
        weights, err = _pruned(weights, gens, tgt, tol)
        if err <= tol:
            return status, margin, weights
    return "exterior", err, None


def greedy_block_targets(block, v, dim_b):
    """In-block permutations whose contributions include every extreme one.

    For each order of the system labels present, the block's entries of the
    joint input ``v``, largest first, fill the labels' slots in that order
    (each label's slots ascending); at most L! rows for L labels present.
    """
    slots = {}
    for idx in block:
        slots.setdefault(idx // dim_b, []).append(idx)
    heaviest_first = np.argsort(-v[list(block)], kind="stable")
    rows = np.empty((math.factorial(len(slots)), len(block)), dtype=np.int64)
    for r, order in enumerate(itertools.permutations(slots)):
        rows[r, heaviest_first] = [idx for lab in order for idx in slots[lab]]
    return rows


def greedy_reachable_set(p, setup):
    """Hull vertices of the classical outputs: sums of greedy block orderings.

    The vertices of a Minkowski sum are sums of the summands' vertices, so
    the partial sums are pruned to their Qhull vertices after every block;
    each point's representative is its greedy assignment, and its hull is
    the :class:`Polytope` of the points.
    """
    p = np.asarray(p, dtype=np.float64)
    v = setup.joint_input(p)
    dim_a, dim_b = setup.dim_a, setup.dim_b
    partial = np.zeros((1, dim_a))
    reps = np.arange(setup.dim_joint)[None, :]
    for block in setup.blocks:
        targets = greedy_block_targets(block, v, dim_b)
        gains = np.stack([(targets // dim_b == a) @ v[list(block)] for a in range(dim_a)], axis=1)
        sums = (partial[:, None, :] + gains[None, :, :]).reshape(-1, dim_a)
        keep = _first_distinct(sums)
        keep = keep[list(hull_vertex_indices(sums[keep], tol=DEDUP_TOL))]
        extended = np.repeat(reps, len(targets), axis=0)
        extended[:, list(block)] = np.tile(targets, (len(reps), 1))
        partial, reps = sums[keep], extended[keep]
    points = _marginal_outputs(reps, v, dim_a, dim_b)
    verts = hull_vertex_indices(points, tol=DEDUP_TOL)
    return ReachableSet(points, verts, setup, p, reps, Polytope(points[list(verts)], DEDUP_TOL))


def subset_table(setup, v):
    """``F`` of every subset of levels, every index table rebuilt from ``setup`` for this call.

    Per block, the sum of its ``k`` largest entries of the joint input
    ``v``, ``k`` the block's number of slots with system label in ``S``:
    the per-call tabulation that the hull's cached frame replaced.
    """
    n = setup.dim_a
    block_of = setup.block_of()
    labels = np.arange(setup.dim_joint) // setup.dim_b
    heaviest = np.lexsort((-v, block_of))
    masks = np.arange(1 << n)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    nblocks = len(setup.blocks)
    sizes = np.bincount(block_of, minlength=nblocks)
    counts = np.zeros((nblocks, n), dtype=np.int64)
    np.add.at(counts, (block_of, labels), 1)
    sorted_block = block_of[heaviest]
    rank_in_block = np.arange(setup.dim_joint) - (np.cumsum(sizes) - sizes)[sorted_block]
    top = np.zeros((nblocks, int(sizes.max()) + 1))
    top[sorted_block, rank_in_block + 1] = v[heaviest]
    top = np.cumsum(top, axis=1)
    taken = members.astype(np.int64) @ counts.T
    return top[np.arange(nblocks), taken].sum(axis=1)


class PerCallHull:
    """The classical hull's ``F`` reads with every table built for this hull alone.

    ``table`` is :func:`subset_table`; the subset masks, their sizes, the
    chain's mask order and each level's holding sets are formed here, and
    ``basis`` is a fresh SVD of the separators' indicators. ``distance``,
    ``saturate`` and ``walk`` follow :class:`~thermohorn.thermal.ClassicalHull`'s
    formulas step for step, so their results must agree to the bit.
    """

    def __init__(self, p, setup):
        n = setup.dim_a
        self.n = n
        self.table = subset_table(setup, setup.joint_input(p))
        masks = np.arange(1 << n)
        self.members = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
        self.separators = np.abs(self.table + self.table[::-1] - self.table[-1]) <= SEPARATOR_TOL
        self.vectors = {}

    def distance(self, target):
        gap = self.members @ np.asarray(target, dtype=np.float64) - self.table
        size = self.members.sum(axis=1)
        below = gap[1:] / size[1:]
        above = (gap[:-1] - gap[-1]) / (self.n - size[:-1])
        return max(0.0, float(below.max()), float(above.max()))

    def saturate(self, q, d):
        if d == 0:
            return q
        y = q - d
        slack = self.table - self.members @ y
        for a in range(self.n):
            holding = self.members[:, a] > 0
            rise = min(2 * d, float(slack[holding].min()))
            y[a] += rise
            slack[holding] -= rise
        return y

    @cached_property
    def basis(self):
        separators = self.members[self.separators]
        _, values, rows = np.linalg.svd(separators)
        cut = values.max() * (max(separators.shape) * np.finfo(values.dtype).eps)
        return rows[int(np.count_nonzero(values > cut)) :]

    def walk(self, x):
        slack = self.table - self.members @ x
        terms = []
        remaining = 1.0
        for _ in range(self.basis.shape[0]):
            order, vertex = self._chain(slack * remaining)
            direction = x - vertex
            rise = self.members @ direction
            limits = rise * remaining > WALK_DIRECTION_TOL
            if not limits.any():
                break
            t = float((slack[limits].clip(0.0) / rise[limits]).min())
            terms.append((remaining * t / (1.0 + t), order, vertex))
            remaining /= 1.0 + t
            x = x + t * direction
            slack = slack - t * rise
        else:
            order, vertex = self._chain(slack * remaining)
        terms.append((remaining, order, vertex))
        return terms

    def _chain(self, slack):
        tight = ((slack <= SEPARATOR_TOL) | self.separators).tolist()
        chain = 0
        order = []
        for mask in sorted(range(1 << self.n), key=int.bit_count):
            if tight[mask] and mask & chain == chain and mask != chain:
                order += [a for a in range(self.n) if (mask & ~chain) >> a & 1]
                chain = mask
        order = tuple(order)
        if order not in self.vectors:
            vertex, prefix = np.empty(len(order)), 0
            for a in order:
                vertex[a] = self.table[prefix | 1 << a] - self.table[prefix]
                prefix |= 1 << a
            self.vectors[order] = vertex
        return order, self.vectors[order]


def realize_reference(p, ham_a, p_prime, bath_family, budget, tol=1e-8):
    """The first bath of the family whose greedy hull holds the target, or None.

    Asks :func:`classify_membership_reference` about every bath's
    Qhull-pruned greedy sum, with no shortcut. The baths come from a fresh
    ladder, not the cached one.
    """
    target = probability_vector(p_prime)
    for ladder_setup in _BathLadder(ham_a, bath_family).upto(budget):
        ham_b = ladder_setup.ham_b
        rset = greedy_reachable_set(p, build_setup(ham_a, ham_b))
        if classify_membership_reference(target, rset.polytope, tol)[0] != "exterior":
            return ham_b
    return None


def majorizes_oracle(p, q, slack=1e-11):
    """Majorization as thermomajorization with the uniform fixed point."""
    n = len(np.asarray(p))
    return thermomajorizes_oracle(p, q, np.full(n, 1.0 / n), slack)


def distinct_rows_reference(points):
    """``(first, group)`` of the rows of ``points`` on the dedup grid, by ``np.unique(..., axis=0)``.

    The form the listing's dedups and the vertex pick used before
    ``thermal._distinct_rows``: a sort of a structured view of the rows.
    """
    _, first, group = np.unique(
        np.round(points, DEDUP_DECIMALS), axis=0, return_index=True, return_inverse=True
    )
    return first, group.ravel()


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


def conditional_shift(powers, bath_dim):
    """Dense ``sum_i |i><i| ⊗ pi^(powers[i])``, summed term by term."""
    n = len(powers)
    u = np.zeros((n * bath_dim, n * bath_dim), dtype=np.complex128)
    for i, power in enumerate(powers):
        proj = np.zeros((n, n), dtype=np.complex128)
        proj[i, i] = 1.0
        u += np.kron(proj, cyclic_shift(bath_dim, power))
    return u


def witness_unitary(n):
    """Dense ``1 ⊗ (1 - |0><0|) + pi ⊗ |0><0|``: shift the system when the bath is in 0."""
    pick_first = np.zeros((n, n), dtype=np.complex128)
    pick_first[0, 0] = 1.0
    rest = np.eye(n, dtype=np.complex128) - pick_first
    return np.kron(np.eye(n, dtype=np.complex128), rest) + np.kron(cyclic_shift(n), pick_first)


def shares_one_support_column(d, zero_tol=1e-12):
    """Pair-by-pair search for two rows whose supports overlap in exactly one column."""
    support = np.asarray(d, dtype=np.float64) > zero_tol
    n = support.shape[0]
    return any(
        int(np.sum(support[i] & support[k])) == 1 for i in range(n) for k in range(i + 1, n)
    )


def probability_vector_reference(entries, *, tol=PROBABILITY_TOL):
    """``probability_vector`` as first written, with ``np.all``, ``np.min`` and ``np.clip``."""
    vec = np.asarray(entries, dtype=np.float64)
    if vec.ndim != 1:
        raise PreconditionError("not-a-vector", f"expected 1-d array, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise PreconditionError("non-finite", "vector contains NaN or Inf entries")
    if np.min(vec, initial=0.0) < -tol:
        raise PreconditionError("negative-probability", f"entry {np.min(vec)} below -{tol}")
    total = float(vec.sum())
    if abs(total - 1.0) > max(tol, PROBABILITY_SUM_TOL_PER_ENTRY * vec.size):
        raise PreconditionError("not-normalized", f"entries sum to {total}, expected 1")
    return np.clip(vec, 0.0, None)


def bit_equal(a, b):
    """Equal entries and equal sign bits of the real and imaginary parts (-0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def positivity_margin(target, generators, feas_tol):
    """Maximize ``t`` with ``lam_i >= t`` over representations of ``target``.

    A polytope point lies in the relative interior iff it is a strictly
    positive convex combination of all the extreme points, so ``t* > 0``
    separates interior from boundary. Feasibility of the representation is
    relaxed to ``feas_tol`` per coordinate. HiGHS solves to a primal
    feasibility tolerance of 1e-7, so a margin of a few 1e-9 is noise: the
    LP can report it at a hull vertex. Returns ``(t*, weights)`` or None.
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
    # HiGHS's presolve has declared a strictly interior point of a triangle
    # in R^4 infeasible; the solve itself finds its margin.
    res = linprog(
        cost, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs", options={"presolve": False},
    )
    if not res.success:
        return None
    return float(res.x[-1]), res.x[:k]


def augment_recursive(masks, row_match, start, _free_rows=None):
    """``majorization._augment`` as Kuhn's recursive search; bit ``i`` of ``masks[j]`` is edge (i, j).

    Each column takes the lowest unseen support row that is free, if it has
    one; otherwise it tries its unseen support rows in ascending order,
    each handing the search on to the column it is matched to. Free rows
    are read off ``row_match`` alone: the fourth argument, ``_augment``'s
    free-row bits, is accepted and ignored. Returns the rows matched to a
    new column in path order, the free row last ([] when there is no
    augmenting path), as ``_augment`` does.
    """
    n = len(row_match)
    seen = [False] * n
    path = []

    def try_column(j):
        free = [i for i in range(n) if masks[j] >> i & 1 and not seen[i] and row_match[i] == -1]
        for i in free[:1] or range(n):
            if masks[j] >> i & 1 and not seen[i]:
                seen[i] = True
                if row_match[i] == -1 or try_column(row_match[i]):
                    row_match[i] = j
                    path.append(i)
                    return True
        return False

    try_column(start)
    return path[::-1]


def birkhoff_chain_reference(d, zero_tol=BIRKHOFF_ZERO_TOL, require_bistochastic=True):
    """``birkhoff_decompose(d, require_bistochastic, zero_tol=zero_tol).terms``, or its error code.

    The same greedy chain, with the support recomputed as ``residual >
    zero_tol`` over the whole residual at every step: matched edges that
    left it are dropped, and every free column is matched again, in
    ascending order, by the recursive augmenting search, which takes a
    column's lowest free support row when it has one. A chain longer
    than the Marcus-Ree bound gives ``"term-bound"``.
    """
    mat = np.asarray(d, dtype=np.float64)
    n = mat.shape[0]
    if mat.min() < -BISTOCHASTIC_ENTRY_TOL:
        return "negative-entry"
    sums = np.concatenate([mat.sum(axis=0), mat.sum(axis=1)])
    if require_bistochastic and np.abs(sums - 1.0).max() > BISTOCHASTIC_SUM_TOL:
        return "not-bistochastic"
    residual = np.clip(mat, 0.0, None)
    residual[residual < zero_tol] = 0.0
    row_match = [-1] * n
    raw = []
    while (residual > zero_tol).any():
        support = residual > zero_tol
        masks = [sum(1 << int(i) for i in np.flatnonzero(support[:, j])) for j in range(n)]
        row_match = [j if j != -1 and support[i, j] else -1 for i, j in enumerate(row_match)]
        free = [j for j in range(n) if j not in row_match]
        if not all(augment_recursive(masks, row_match, j) for j in free):
            if residual.max() <= DECOMPOSITION_TOL:
                break
            return "matching-failure"
        perm = [row_match.index(j) for j in range(n)]
        weight = min(float(residual[perm[j], j]) for j in range(n))
        for j in range(n):
            residual[perm[j], j] -= weight
        residual[residual < zero_tol] = 0.0
        raw.append((weight, tuple(perm)))
    if not raw:
        return "empty-matrix"
    if len(raw) > (n - 1) ** 2 + 1:
        return "term-bound"
    total = sum(w for w, _ in raw)
    terms = tuple((w / total, perm) for w, perm in raw if w / total > 0.0)
    rebuilt = np.zeros((n, n))
    for w, perm in terms:
        rebuilt[list(perm), range(n)] += w
    if np.abs(rebuilt - mat).max() > DECOMPOSITION_TOL:
        return "reconstruction-failure"
    return terms


def block_class_targets(block, dim_b):
    """Per-arrangement slot matching: the k-th claim on label l takes its k-th slot."""
    labels = [idx // dim_b for idx in block]
    slots = {}
    for idx in block:
        slots.setdefault(idx // dim_b, []).append(idx)
    rows = []
    for arrangement in _multiset_permutations(labels):
        cursor = dict.fromkeys(slots, 0)
        images = []
        for lab in arrangement:
            images.append(slots[lab][cursor[lab]])
            cursor[lab] += 1
        rows.append(images)
    return np.array(rows, dtype=np.int64)


def label_blocks(ham_a, ham_b):
    """Energy blocks grouped on each joint state's summed ``EnergyLabel``.

    One exact ``Fraction`` label per joint state; blocks ordered by their
    smallest joint index, indices ascending.
    """
    groups = {}
    for a, la in enumerate(ham_a.levels):
        for b, lb in enumerate(ham_b.levels):
            groups.setdefault(la + lb, []).append(a * ham_b.dim + b)
    return tuple(sorted((tuple(sorted(idx)) for idx in groups.values()), key=lambda b: b[0]))


def _reference_chain(lam, mu):
    """The Schur-Horn rotation chain as first written: every step rescans the whole diagonal.

    Inputs are probability vectors of one size, ``lam`` majorizing ``mu``,
    settled at 1e-13 and accepted at 1e-9; the result is not checked.
    Returns the complex core, rows in ``mu``'s stable descending order and
    columns in ``lam``'s, and those two orders.
    """
    lam = np.asarray(lam, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    n = lam.size
    idx_l = np.argsort(-lam, kind="stable")
    idx_m = np.argsort(-mu, kind="stable")
    x = lam[idx_l].astype(np.float64).copy()
    target = mu[idx_m]
    core = np.eye(n, dtype=np.complex128)
    for _ in range(n):
        diff = x - target
        over = np.nonzero(diff > 1e-13)[0]
        if over.size == 0:
            break
        i = int(over[0])
        under = np.nonzero(diff < -1e-13)[0]
        under = under[under > i]
        if under.size == 0:
            if float(np.max(np.abs(diff))) < 1e-9:
                break
            raise RuntimeError("rotation chain lost its pairing invariant")
        j = int(under[0])
        delta = min(x[i] - target[i], target[j] - x[j])
        c2 = (x[i] - delta - x[j]) / (x[i] - x[j])
        c = math.sqrt(c2)
        s = math.sqrt(max(0.0, 1.0 - c2))
        rows = core[[i, j], :].copy()
        core[i, :] = c * rows[0] - s * rows[1]
        core[j, :] = s * rows[0] + c * rows[1]
        x[i] -= delta
        x[j] += delta
    return core, idx_l, idx_m


def schur_horn_reference(lam, mu):
    """:func:`_reference_chain`'s core placed by index: its entry ``(a, k)`` at ``(idx_m[a], idx_l[k])``.

    No product is formed, so each entry is the chain's own value, zero
    signs included, whichever BLAS kernel is loaded.
    """
    core, idx_l, idx_m = _reference_chain(lam, mu)
    out = np.zeros_like(core)
    out[np.ix_(idx_m, idx_l)] = core
    return out


def schur_horn_product_reference(lam, mu):
    """:func:`_reference_chain`'s core placed as first written, ``P_mᵀ · core · P_l``.

    A value oracle: every product entry is one core entry plus exact zeros,
    so the values equal :func:`schur_horn_reference`'s, but the signs of its
    zero entries come from the loaded BLAS kernel.
    """
    core, idx_l, idx_m = _reference_chain(lam, mu)
    n = len(idx_l)
    sort_l = np.zeros((n, n), dtype=np.complex128)
    sort_l[np.arange(n), idx_l] = 1.0
    sort_m = np.zeros((n, n), dtype=np.complex128)
    sort_m[np.arange(n), idx_m] = 1.0
    return sort_m.conj().T @ core @ sort_l


def synthesize_reference(p, target, setup):
    """``synthesize_unitary``'s unitary assembled block by block from :func:`schur_horn_reference`.

    The mixed diagonal is summed term by term in the target's order; an
    empty or one-slot block gets the identity.
    """
    v = setup.joint_input(p)
    if hasattr(target, "mixed_joint_output"):
        mixed = target.mixed_joint_output(v)
    else:
        mixed = np.zeros_like(v)
        for w, perm in zip(target.weights, target.items):
            shuffled = np.zeros_like(v)
            shuffled[np.asarray(perm)] = v
            mixed += w * shuffled
    u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
    for block in setup.blocks:
        idx = np.asarray(block)
        mass = float(v[idx].sum())
        if mass <= 1e-300 or len(block) == 1:
            u[np.ix_(idx, idx)] = np.eye(len(block))
        else:
            u[np.ix_(idx, idx)] = schur_horn_reference(v[idx] / mass, mixed[idx] / mass)
    return u


def block_data_reference(setup, v):
    """Each rotated block's ``(block, mass, v[block] / mass)``, and the identity slots.

    A block is rotated when its mass exceeds 1e-300 and it has two slots or
    more; every slot of every other block is an identity slot.
    """
    rotated, identity = [], []
    for block in setup.blocks:
        lam = v[np.asarray(block)]
        mass = float(lam.sum())
        if mass <= 1e-300 or len(block) == 1:
            identity += block
        else:
            rotated.append((block, mass, lam / mass))
    return rotated, identity


def gibbs_reference(ham):
    """The Gibbs vector from each level's ``EnergyLabel.log_gibbs_weight`` (its ``Fraction`` components)."""
    logs = np.array([lv.log_gibbs_weight(ham.beta, ham.base_quantum) for lv in ham.levels])
    weights = np.exp(logs - logs.max())
    return weights / weights.sum()


def decompose_reference(u, setup, block_tol):
    """``decompose_channel_to_classical`` as per-block ``birkhoff_decompose`` calls.

    Returns ``(block_terms, worst reconstruction error)``, or the code of the
    first error: ``u`` unitary, the leak at most ``block_tol``, then each
    block's squared moduli decomposed in block order.
    """
    u = np.asarray(u, dtype=np.complex128)
    try:
        require_unitary(u)
        if energy_preservation_defect(u, setup) > block_tol:
            return "not-energy-preserving"
        groups, worst = [], 0.0
        for block in setup.blocks:
            sub = u[np.ix_(block, block)]
            deco = birkhoff_decompose((sub.real**2 + sub.imag**2).astype(np.float64))
            groups.append(deco.terms)
            worst = max(worst, deco.reconstruction_error)
    except PreconditionError as exc:
        return exc.code
    except RuntimeError:
        return "term-bound"
    return tuple(groups), worst


def greedy_mixture_reference(v, images, weights):
    """``sum_k weights[k] * v`` moved by ``images[k]``, as ``mixed[images[k]] += weights[k] * v`` from 0."""
    mixed = np.zeros(v.size)
    for weight, image in zip(weights, images):
        mixed[image] += weight * v
    return mixed


def scattered(v, image):
    """``v`` moved by the joint permutation ``image``: ``out[image] = v``."""
    out = np.empty(v.size)
    out[image] = v
    return out


def mixed_joint_reference(product, v):
    """``ProductConvexCombination.mixed_joint_output`` block by block, term by term."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros_like(v)
    for block, terms in zip(product.blocks, product.block_terms):
        idx = np.asarray(block)
        acc = np.zeros(len(block))
        for w, perm in terms:
            shuffled = np.zeros(len(block))
            shuffled[np.asarray(perm)] = v[idx]
            acc += w * shuffled
        out[idx] = acc
    return out


def expand_product(product, cap=10**5):
    """A ``ProductConvexCombination`` as one ``ConvexCombination`` of joint permutations.

    Term counts multiply across blocks, so a product of more than ``cap``
    terms is refused (``expansion-cap``).
    """
    if product.term_count > cap:
        raise PreconditionError(
            "expansion-cap", f"product has {product.term_count} terms, above the cap {cap}"
        )
    weights, perms = [], []
    for combo in itertools.product(*product.block_terms):
        joint = np.arange(product.dim_joint)
        for block, (_, local) in zip(product.blocks, combo):
            idx = np.asarray(block)
            joint[idx] = idx[np.asarray(local)]
        weights.append(math.prod(w for w, _ in combo))
        perms.append(tuple(int(j) for j in joint))
    return ConvexCombination(tuple(weights), tuple(perms))


def oscillator_bath_reference(ham_a, m):
    """The ``m``-level oscillator bath as ``Fraction`` labels: spacing the gcd of every system gap.

    The gcd of two fractions ``a`` and ``b`` is ``gcd(a.num * b.den,
    b.num * a.den) / (a.den * b.den)``; the bath's levels are
    ``EnergyLabel(spacing * k)`` for ``k < m``.
    """
    quanta = [lv.quantum_mult for lv in ham_a.levels]
    gaps = sorted({abs(a - b) for a in quanta for b in quanta if a != b})
    spacing = gaps[0]
    for gap in gaps[1:]:
        spacing = Fraction(
            math.gcd(spacing.numerator * gap.denominator, gap.numerator * spacing.denominator),
            spacing.denominator * gap.denominator,
        )
    levels = tuple(EnergyLabel(spacing * k) for k in range(m))
    return Hamiltonian(levels, ham_a.beta, ham_a.base_quantum)


def random_bistochastic(n, rng, terms=None):
    """Seeded random bistochastic matrix as a convex mix of random permutations."""
    k = terms if terms is not None else max(2, n)
    weights = rng.dirichlet(np.ones(k))
    out = np.zeros((n, n))
    for w in weights:
        out += w * permutation_matrix(rng.permutation(n)).real
    return out


def random_block_unitary(setup, rng):
    """Haar-random unitary on each energy block (energy-preserving by construction)."""
    u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
    for block in setup.blocks:
        idx = np.asarray(block)
        u[np.ix_(idx, idx)] = haar_unitary(len(block), rng)
    return u
