"""The min-slack LP, the Qhull reference and the generic membership rule, on point clouds.

The Qhull reference (:func:`oracles.hull_vertex_indices`) and the generic
rule live with the other oracles; the package's own min-slack LP is
``thermal._min_slack_combination``.

The package decides membership on its closed-form classical hull, which
reads ``F``. The oracle :class:`Polytope` (Qhull facets, Delaunay witness)
has no ``F``; the tests that place targets against it use
:func:`classify_membership_reference`, whose witness off the facets comes
from the LP, re-solved at ``TIGHT_LP_TOL`` when it misses. The tests here
check that reference, since the classical hull's tests lean on it.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    TIGHT_LP_TOL,
    Polytope,
    affine_rank,
    classify_membership_reference,
    hull_vertex_indices,
    min_slack_lp,
    positivity_margin,
)
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from thermohorn.config import INTERIOR_MARGIN
from thermohorn.thermal import _min_slack_combination

TOL = 1e-8
#: HiGHS solves to a primal feasibility tolerance of 1e-7, so an LP
#: positivity margin below this cannot tell a vertex from an interior point.
LP_NOISE = 1e-6


def test_affine_rank_of_simplex_corners():
    corners = np.eye(3)
    assert affine_rank(corners) == 2
    assert affine_rank(np.array([[0.5, 0.5, 0.0]])) == 0
    assert affine_rank(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1


def test_hull_vertices_of_square_with_interior_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    assert hull_vertex_indices(pts) == (0, 1, 2, 3)


def test_hull_vertices_of_collinear_points_are_endpoints():
    pts = np.array([[0.0, 0.0, 1.0], [0.25, 0.25, 0.5], [0.5, 0.5, 0.0]])
    assert hull_vertex_indices(pts) == (0, 2)


def test_hull_vertices_single_point():
    assert hull_vertex_indices(np.array([[0.2, 0.8]])) == (0,)


def test_min_slack_combination_exact_for_member():
    # The package's LP returns its residual alone; the oracle's, the same
    # LP, also its weights.
    gens = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _min_slack_combination(np.array([0.3, 0.7]), gens) < 1e-10
    assert abs(_min_slack_combination(np.array([0.3, 0.8]), gens) - 0.05) < 1e-10
    slack, weights = min_slack_lp(np.array([0.3, 0.7]), gens)
    assert slack < 1e-10
    assert np.abs(weights - np.array([0.3, 0.7])).max() < 1e-8


def _classify_counting_lps(target, hull):
    """``classify_membership_reference`` at ``TOL``, and the number of LPs it solved."""
    with mock.patch.object(oracles, "linprog", wraps=linprog) as lp:
        found = classify_membership_reference(target, hull, TOL)
    return found, lp.call_count


def _classify(target, gens, tol=1e-8):
    """``classify_membership_reference`` against the oracle polytope of ``gens``."""
    return classify_membership_reference(target, Polytope(gens), tol)


def test_classify_membership_triangle():
    # Targets the facets place inside solve no LP; every other one solves one.
    gens = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    poly = Polytope(gens)
    (status, margin, weights), calls = _classify_counting_lps(np.full(3, 1 / 3), poly)
    assert status == "interior" and calls == 0
    assert margin > 0.3
    assert np.abs(weights - 1 / 3).max() < 1e-8

    for target in (gens[0], np.array([0.5, 0.5, 0.0])):
        (status, _, _), calls = _classify_counting_lps(target, poly)
        assert status == "boundary" and calls == 0

    # Outside an edge by 2e-9, within tol: the LP supplies the witness.
    edge_normal = np.array([-0.5, -0.5, 1.0]) / np.linalg.norm([-0.5, -0.5, 1.0])
    target = np.array([0.5, 0.5, 0.0]) - 2e-9 * edge_normal
    (status, margin, weights), calls = _classify_counting_lps(target, poly)
    assert status == "boundary" and margin == 0.0 and calls == 1
    assert np.abs(weights @ gens - target).max() <= TOL

    (status, dist, weights), calls = _classify_counting_lps(np.array([1.2, -0.1, -0.1]), poly)
    assert status == "exterior" and calls == 1
    assert dist > 1e-8
    assert weights is None


def test_classify_membership_segment_interior():
    gens = np.array([[0.0, 1.0], [1.0, 0.0]])
    status, _, weights = _classify(np.array([0.5, 0.5]), gens)
    assert status == "interior"
    assert np.abs(weights - 0.5).max() < 1e-8
    status, _, _ = _classify(np.array([1.0, 0.0]), gens)
    assert status == "boundary"


def test_classify_membership_single_generator():
    gens = np.array([[0.25, 0.75]])
    status, gap, weights = _classify(np.array([0.25, 0.75]), gens)
    assert status == "interior" and gap < 1e-12 and weights[0] == 1.0
    status, gap, _ = _classify(np.array([0.3, 0.7]), gens)
    assert status == "exterior" and gap > 1e-8


def test_near_vertex_point_is_not_promoted_to_interior():
    gens = np.array([[0.0, 1.0], [1.0, 0.0]])
    status, _, _ = _classify(np.array([1e-11, 1.0 - 1e-11]), gens)
    assert status == "boundary"


def _lp_verdict(target, gens, tol=TOL, feasibility_tol=None):
    """Reference (classification, margin): the min-slack LP, then the positivity LP."""
    slack, _ = min_slack_lp(target, gens, feasibility_tol)
    if slack > tol:
        return "exterior", slack
    found = positivity_margin(target, gens, max(1.01 * slack, 1e-12))
    margin = 0.0 if found is None else found[0]
    return ("interior" if margin > INTERIOR_MARGIN else "boundary"), margin


def _local_points(kind, rank, extra, rng):
    """Points in R^rank: Gaussian, on the unit sphere, or a permutohedron."""
    if kind == "gaussian":
        return rng.normal(size=(rank + 1 + extra, rank))
    if kind == "sphere":
        pts = rng.normal(size=(rank + 1 + extra, rank))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    # Every rearrangement of one vector: co-spherical, like the hexagons of a
    # zero-Hamiltonian reachable set; ties on the 1/20 grid shrink it.
    base = rng.integers(0, 21, size=rank + 1) / 20
    perms = np.array(sorted(set(itertools.permutations(base))))
    centered = perms - perms.mean(axis=0)
    return centered @ np.linalg.svd(centered)[2][:rank].T


def _check_against_lp(poly, target, expected, on_span):
    """Compare one target's verdict with its construction, its route and the LP oracle.

    ``expected`` is the true verdict of a target whose projection lies
    inside the facets, which must be decided without an LP. The oracle
    judges ``on_span``, that projection: off the span by less than its 1e-7
    feasibility tolerance, HiGHS can neither place a target nor find it a
    positive representation. None marks a target outside a facet, which
    must solve one LP, or a second one at ``TIGHT_LP_TOL`` when the first
    one's witness misses; it is exterior exactly when the oracle at the
    same solver tolerance says so, or after two LPs whose witnesses both
    miss when the oracle's own ``TIGHT_LP_TOL`` witness misses too, and
    otherwise boundary with a witness that rebuilds it within ``TOL``.
    """
    gens = poly.vertices
    (status, distance, weights), calls = _classify_counting_lps(target, poly)
    if expected is None:
        assert calls in (1, 2)
        lp_status, _ = _lp_verdict(on_span, gens, feasibility_tol=TIGHT_LP_TOL if calls == 2 else None)
        if status == "exterior" and lp_status != "exterior":
            # The re-solve's witness missed: a target within the solver's
            # noise of TOL, which the oracle's own tight witness misses too.
            assert calls == 2 and distance > TOL
            _, oracle_weights = min_slack_lp(on_span, gens, TIGHT_LP_TOL)
            assert np.abs(oracle_weights @ gens - target).max() > TOL
        else:
            assert status == ("exterior" if lp_status == "exterior" else "boundary")
        if status != "exterior":
            assert np.abs(weights @ gens - target).max() <= TOL
        return
    lp_status, lp_margin = _lp_verdict(on_span, gens)
    assert calls == 0 and status == expected
    # At a vertex HiGHS can report a positivity margin of a few 1e-9.
    assert lp_status == status or (lp_status == "interior" and lp_margin < LP_NOISE)
    assert np.count_nonzero(weights) <= affine_rank(gens) + 1
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) < 1e-12
    assert np.abs(weights @ gens - target).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "sphere", "permutohedron"]),
    dim=st.integers(2, 5),
    rank=st.integers(1, 3),
    extra=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
# A facet point pushed 2 TOL outward whose LP witnesses, default and tight,
# both miss by just over TOL: exterior, not an error.
@example(kind="gaussian", dim=5, rank=2, extra=5, seed=2152)
def test_facet_route_agrees_with_lp_oracle(kind, dim, rank, extra, seed):
    assume(rank <= dim)
    rng = np.random.default_rng(seed)
    local = _local_points(kind, rank, extra, rng)
    frame = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
    pts = rng.normal(size=dim) + local @ frame.T
    verts = list(hull_vertex_indices(pts))
    assume(len(verts) >= 2)
    poly = Polytope(pts[verts])
    gens, k = poly.vertices, len(verts)
    targets = [(vertex, "boundary") for vertex in gens]
    for weights in 0.5 * rng.dirichlet(np.ones(k), size=3) + 0.5 / k:
        targets.append((weights @ gens, "interior"))
    # Facets found by Qhull in the local frame, independently of the
    # polytope's own projection: (point on the facet, unit outward normal).
    centered = local[verts] - local[verts][0]
    span = np.linalg.svd(centered)[2][: affine_rank(local[verts])]
    if span.shape[0] == 1:
        coord = centered @ span[0]
        lo, hi = int(np.argmin(coord)), int(np.argmax(coord))
        targets.append((0.5 * (gens[lo] + gens[hi]), "interior"))
        facets = [(gens[hi], frame @ span[0]), (gens[lo], -(frame @ span[0]))]
    else:
        hull = ConvexHull(centered @ span.T)
        facets = []
        for simplex, equation in zip(hull.simplices[:3], hull.equations[:3]):
            targets.append((gens[simplex[:2]].mean(axis=0), "boundary"))
            facets.append((gens[simplex].mean(axis=0), frame @ (span.T @ equation[:-1])))
    for on_facet, outward in facets:
        for push in (2 * TOL, 10 * TOL):
            targets.append((on_facet + push * outward, None))
    moved = []
    if dim > rank:  # off the affine span by less than tol: decided by the projection
        off_span = rng.normal(size=dim)
        off_span -= frame @ (frame.T @ off_span)
        off_span /= np.linalg.norm(off_span)
        moved.append((gens.mean(axis=0), 0.5 * TOL, "interior"))
        # A vertex moved off the span stays on the boundary, however far
        # inside the LP's feasibility tolerance the move is.
        for push in (2e-9, 5e-9):
            moved.extend((vertex, push, "boundary") for vertex in gens[:3])
    for target, expected in targets:
        _check_against_lp(poly, target, expected, target)
    for on_span, push, expected in moved:
        _check_against_lp(poly, on_span + push * off_span, expected, on_span)


def test_hull_qhull_refusal_drops_only_a_flat_direction():
    # A sliver 1e-15 thick: an SVD at rank tolerance 1e-16 counts two
    # dimensions, but Qhull finds the initial simplex flat. Every point lies
    # within FACET_TOL of the strongest direction, so the hull is a segment.
    gens = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15], [0.25, -5e-16]])
    poly = Polytope(gens, tol=1e-16)
    assert poly.rank == 1
    assert hull_vertex_indices(gens, tol=1e-16) == (0, 1)
    for target, verdict in (
        ([0.4, 0.0], "interior"),
        ([1.0, 0.0], "boundary"),
        ([1.5, 0.0], "exterior"),
        ([0.5, 0.1], "exterior"),
    ):
        target = np.array(target)
        status, _, weights = classify_membership_reference(target, poly, TOL)
        assert status == verdict == _lp_verdict(target, gens)[0]
        if weights is not None:
            assert np.abs(weights @ gens - target).max() <= TOL

    # A refusal on a cloud that is not flat is raised.
    def refuse(*args, **kwargs):
        raise QhullError("QH6154 initial simplex is flat")

    with mock.patch.object(scipy.spatial, "ConvexHull", refuse):
        with pytest.raises(QhullError):
            Polytope(np.eye(3))
        with pytest.raises(QhullError):
            hull_vertex_indices(np.eye(3))


def test_band_targets_never_get_a_witness_that_misses():
    # Targets 5e-9 to 1e-7 outside a facet: HiGHS's default feasibility
    # tolerance (1e-7) can call them non-exterior with an LP witness that
    # misses by more than TOL; such a target is re-solved at TIGHT_LP_TOL.
    rng = np.random.default_rng(7)
    resolved = 0
    for _ in range(40):
        dim = int(rng.integers(3, 6))
        pts = rng.normal(size=(dim + 1 + int(rng.integers(0, 6)), dim))
        poly = Polytope(pts[list(hull_vertex_indices(pts))])
        gens = poly.vertices
        hull = ConvexHull(gens)
        for simplex, equation in zip(hull.simplices[:4], hull.equations[:4]):
            for push in np.geomspace(5e-9, 1e-7, 4):
                target = gens[simplex].mean(axis=0) + push * equation[:-1]
                (status, distance, weights), calls = _classify_counting_lps(target, poly)
                assert calls in (1, 2)
                resolved += calls == 2
                if status == "exterior":
                    assert distance > TOL and weights is None
                else:
                    assert status == "boundary"
                    assert np.abs(weights @ gens - target).max() <= TOL
    assert resolved > 0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "sphere", "permutohedron", "sliver"]),
    dim=st.integers(2, 5),
    rank=st.integers(1, 3),
    extra=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_separation_is_a_lower_bound_that_certifies_exterior(kind, dim, rank, extra, seed):
    # Each target is a hull point moved by a known distance, so the bound
    # may not exceed that distance; wherever it exceeds sqrt(dim) * TOL, no
    # convex combination comes within TOL in max-norm, and the LP agrees.
    assume(rank <= dim)
    rng = np.random.default_rng(seed)
    if kind == "sliver":
        # A segment 1e-15 thick, as in the Qhull refusal test: the SVD at
        # rank tolerance 1e-16 keeps two directions (or more, from the
        # rounding of the embedding), and Qhull mostly refuses all but one.
        local = np.column_stack([rng.uniform(-1, 1, 3 + extra), rng.uniform(-1, 1, 3 + extra) * 1e-15])
        local[:2, 1] = (1e-15, -1e-15)
        span_tol = 1e-16
    else:
        local = _local_points(kind, rank, extra, rng)
        span_tol = 1e-10
    frame = np.linalg.qr(rng.normal(size=(dim, local.shape[1])))[0]
    pts = rng.normal(size=dim) + local @ frame.T
    # The sliver keeps every point, or the Qhull refusal would leave only
    # the two endpoints, whose span is exactly a line.
    verts = list(range(len(pts))) if kind == "sliver" else list(hull_vertex_indices(pts))
    assume(len(verts) >= 2)
    poly = Polytope(pts[verts], tol=span_tol)
    gens = poly.vertices
    if kind == "sliver":  # Qhull must have dropped a direction
        assume(poly.rank < affine_rank(gens, tol=span_tol))
    moved = []  # (target, its distance from a hull point)
    on_hull = list(gens[:3]) + [rng.dirichlet(np.ones(len(gens))) @ gens]
    for point in on_hull:
        for push in (TOL, 3 * np.sqrt(dim) * TOL, 1e-4):
            direction = rng.normal(size=dim)
            moved.append((point + push * direction / np.linalg.norm(direction), push))
    if poly.rank == 1:
        coord = (gens - poly.origin) @ poly.basis[0]
        ends = [(gens[np.argmax(coord)], poly.basis[0]), (gens[np.argmin(coord)], -poly.basis[0])]
    else:
        hull = ConvexHull(poly.projected)
        ends = [
            (gens[simplex].mean(axis=0), poly.basis.T @ equation[:-1])
            for simplex, equation in zip(hull.simplices[:3], hull.equations[:3])
        ]
    if poly.rank < dim:  # straight off the span from a vertex
        off_span = rng.normal(size=dim)
        off_span -= poly.basis.T @ (poly.basis @ off_span)
        ends += [(vertex, off_span / np.linalg.norm(off_span)) for vertex in gens[:2]]
    for on_facet, outward in ends:
        for push in (2 * TOL, 10 * TOL, 100 * TOL):
            target = on_facet + push * outward
            # Across a facet, or off the span, the bound is the push itself
            # up to rounding.
            assert poly.separation(target) >= push - 1e-13
            moved.append((target, push))
    reach = np.sqrt(dim) * TOL
    certified = 0
    for target, distance in moved:
        bound = poly.separation(target)
        assert 0.0 <= bound <= distance + 1e-13
        if bound > reach:
            certified += 1
            assert classify_membership_reference(target, poly, TOL)[0] == "exterior"
    assert certified > 0
