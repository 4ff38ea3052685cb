import contextlib
import functools
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermohorn import (
    ConvexCombination,
    Hamiltonian,
    PreconditionError,
    ProductConvexCombination,
    alpha_max_achievable,
    alpha_max_oscillator,
    build_setup,
    classical_reachable_set,
    d_alpha,
    decompose_channel_to_classical,
    energy_preservation_defect,
    enumerate_classical,
    gibbs_vector,
    hull_membership,
    oscillator_hamiltonian,
    p_star,
    qubit_gibbs,
    qubit_hamiltonian,
    realize_interior,
    synthesize_unitary,
    thermo_lorenz_dominates,
    thermal_decoherence_gadget,
    weight_hamiltonian,
    zero_hamiltonian,
)
from thermohorn import energy, linalg, majorization, thermal
from thermohorn.config import (
    BIRKHOFF_ZERO_TOL,
    BLOCK_LEAK_TOL,
    DEDUP_DECIMALS,
    DEDUP_TOL,
    FACET_TOL,
    HULL_LEVEL_CAP,
    SEPARATOR_TOL,
)
from thermohorn.linalg import permutation_matrix, probability_vector
from thermohorn.energy import (
    EnergyLabel,
    ThermalSetup,
    _block_class_targets,
    _level_sets,
    _multiset_permutations,
)
from thermohorn.majorization import linprog
from thermohorn.thermal import ClassicalHull, ReachableSet, _BathLadder

from oracles import (
    TIGHT_LP_TOL,
    PerCallHull,
    Polytope,
    bit_equal,
    block_class_targets,
    block_data_reference,
    classify_membership_reference,
    conditional_shift,
    decompose_reference,
    distinct_rows_reference,
    dominance_curve,
    expand_product,
    greedy_mixture_reference,
    hull_vertex_indices,
    min_slack_lp,
    mixed_joint_reference,
    random_block_unitary,
    reachable_listing,
    realize_reference,
    scattered,
    subset_table,
    synthesize_reference,
)


def _qubit_oscillator(m, beta_de=math.log(2.0)):
    return build_setup(
        qubit_hamiltonian(beta=beta_de), oscillator_hamiltonian(m, beta=beta_de)
    )


def _two_copy_preset():
    ham_a = weight_hamiltonian((5, 7, 8), beta=1.0)
    ham_b = Hamiltonian(tuple(a + b for a in ham_a.levels for b in ham_a.levels), 1.0, 1.0)
    return build_setup(ham_a, ham_b), np.array([0.65, 0.22, 0.13])


def _classical_marginal(setup, perm, p):
    v = setup.joint_input(p)
    shuffled = np.zeros_like(v)
    shuffled[np.asarray(perm)] = v
    return shuffled.reshape(setup.dim_a, setup.dim_b).sum(axis=1)


def test_enumeration_count_qubit_oscillator():
    for m in (2, 3, 5):
        enum = enumerate_classical(_qubit_oscillator(m))
        assert enum.total_count == 2 ** (m - 1)
        assert enum.permutations.shape == (2 ** (m - 1), 2 * m)
        assert enum.mode == "exhaustive"


def test_enumeration_modes_on_two_copy_preset():
    setup, p = _two_copy_preset()
    with pytest.raises(PreconditionError) as err:
        enumerate_classical(setup)
    assert err.value.code == "enumeration-cap"
    assert "33592320 permutations" in err.value.detail
    assert classical_reachable_set(p, setup).points.shape == (1344, 3)


@settings(max_examples=150, deadline=None)
@given(items=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=7))
def test_multiset_permutations_are_the_sorted_distinct_arrangements(items):
    expected = [list(row) for row in sorted(set(itertools.permutations(items)))]
    assert list(_multiset_permutations(items)) == expected


def test_block_class_targets_match_the_slot_loop():
    degenerate = Hamiltonian(tuple(EnergyLabel(k) for k in (0, 1, 1, 10)), 1.0, 1.0)
    for setup in (
        build_setup(zero_hamiltonian(3), zero_hamiltonian(3)),
        build_setup(degenerate, oscillator_hamiltonian(3, 1.0)),
        _qubit_oscillator(5),
        _two_copy_preset()[0],
    ):
        for block in setup.blocks:
            fast = _block_class_targets(block, setup.dim_b)
            loop = block_class_targets(block, setup.dim_b)
            assert fast.dtype == loop.dtype and np.array_equal(fast, loop)


@st.composite
def _small_setups(draw, max_system=3, max_bath=5):
    """System dim 2 to ``max_system``, bath dim 1 to ``max_bath``, quanta 0-2.

    At most 10^5 energy-preserving permutations.
    """
    beta = draw(st.sampled_from([0.5, 1.0, math.log(2.0)]))

    def hamiltonian(min_dim, max_dim):
        quanta = draw(st.lists(st.integers(0, 2), min_size=min_dim, max_size=max_dim))
        return Hamiltonian(tuple(EnergyLabel(q) for q in quanta), beta, 1.0)

    setup = build_setup(hamiltonian(2, max_system), hamiltonian(1, max_bath))
    assume(math.prod(math.factorial(len(b)) for b in setup.blocks) <= 10**5)
    n = setup.dim_a
    kind = draw(st.sampled_from(["weights", "zero-entry", "one-hot", "uniform"]))
    if kind == "one-hot":
        return setup, np.eye(n)[draw(st.integers(0, n - 1))]
    if kind == "uniform":
        return setup, np.full(n, 1.0 / n)
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), dtype=float)
    if kind == "zero-entry":
        weights[draw(st.integers(0, n - 1))] = 0.0
    return setup, weights / weights.sum()


@settings(max_examples=80, deadline=None)
@given(case=_small_setups())
def test_listing_matches_exhaustive_reference(case):
    setup, p = case
    rset = classical_reachable_set(p, setup)
    points, representatives = reachable_listing(p, setup)
    assert np.array_equal(rset.points, points)
    assert np.array_equal(rset.representatives, representatives)
    assert rset.hull_vertex_indices == hull_vertex_indices(points, tol=1e-10)


_GRID = 10.0 ** -DEDUP_DECIMALS


@st.composite
def _rows_to_dedup(draw):
    """Rows drawn from a few, with signed zeros and values equal only on the dedup grid.

    ``±_GRID / 4`` rounds to a signed zero, and ``±_GRID / 8`` added to a
    row's entries leaves them on its grid point.
    """
    width = draw(st.integers(1, 5))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 1e-3, _GRID / 4, -_GRID / 4, 3 * _GRID])
    pool = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    rows = np.array([pool[k] for k in picks])
    steps = st.sampled_from([0.0, _GRID / 8, -_GRID / 8])
    jitter = np.reshape(draw(st.lists(steps, min_size=rows.size, max_size=rows.size)), rows.shape)
    return np.where(jitter != 0.0, rows + jitter, rows)


def _assert_distinct_rows_match_np_unique(rows):
    first, group = thermal._distinct_rows(rows)
    expected_first, expected_group = distinct_rows_reference(rows)
    assert bit_equal(first, expected_first)
    assert bit_equal(group, expected_group)


@settings(max_examples=300, deadline=None)
@given(rows=_rows_to_dedup())
def test_distinct_rows_match_np_unique_bit_for_bit(rows):
    # The lexsort kernel the listing and the vertex pick share returns the
    # first indices, their lexicographic order and every row's group that
    # np.unique(axis=0) returns on the rounded rows: float equality, so
    # -0.0 and +0.0 are one value.
    _assert_distinct_rows_match_np_unique(rows)


def test_distinct_rows_match_np_unique_on_one_row_equal_rows_and_eight_level_greedy_tables():
    _assert_distinct_rows_match_np_unique(np.array([[0.25, -0.0, 1.0]]))
    _assert_distinct_rows_match_np_unique(np.full((7, 3), 0.5))
    _assert_distinct_rows_match_np_unique(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0 + _GRID / 8]]))
    # Every order's greedy vector at n = 8, as the vertex pick forms them:
    # all 40,320 distinct with one energy block, 128 and 96 distinct on an
    # oscillator and on a degenerate system.
    rng = np.random.default_rng(8)
    for ham_a, ham_b in (
        (zero_hamiltonian(8), zero_hamiltonian(2)),
        (oscillator_hamiltonian(8, 0.7), oscillator_hamiltonian(2, 0.7)),
        (weight_hamiltonian((1, 1, 1, 1, 2, 2, 3, 3), beta=1.0), zero_hamiltonian(2)),
    ):
        hull = ClassicalHull(rng.dirichlet(np.ones(8)), build_setup(ham_a, ham_b))
        orders = np.array(list(itertools.permutations(range(8))))
        gains = np.diff(hull.table[np.cumsum(1 << orders, axis=1)], axis=1, prepend=0.0)
        greedy = np.zeros(orders.shape)
        np.put_along_axis(greedy, orders, gains, axis=1)
        _assert_distinct_rows_match_np_unique(greedy)


@settings(max_examples=80, deadline=None)
@given(case=_small_setups())
def test_greedy_hull_is_the_listing_hull(case):
    # Each listing vertex must be a greedy vertex of the closed-form hull,
    # built without the listing, and no greedy vertex may lie outside the
    # listing hull; the walk from a greedy vertex rebuilds it, and each of
    # its orders' greedy permutations reproduces that order's vector.
    setup, p = case
    listing = classical_reachable_set(p, setup)
    greedy = ClassicalHull(p, setup)
    for vertex in listing.hull_vertices():
        assert np.abs(greedy.vertices - vertex).max(axis=1).min() < 1e-12
    for point in greedy.vertices:
        assert hull_membership(point, listing).classification != "exterior"
        terms = greedy._walk(point)
        assert np.abs(sum(w * vector for w, _, vector in terms) - point).max() < 1e-12
        for _, order, vector in terms:
            output = _classical_marginal(setup, greedy.permutation(order), p)
            assert np.abs(output - vector).max() < 1e-12


#: Systems of up to four levels, against baths of up to four levels or of one.
_hull_cases = st.one_of(
    _small_setups(max_system=4, max_bath=4), _small_setups(max_system=4, max_bath=1)
)


def _hull_targets(vertices, rng):
    """Vertices, midpoints of vertex pairs and Dirichlet mixtures of all of them."""
    pairs = [0.5 * (vertices[i] + vertices[j]) for i in range(len(vertices)) for j in range(i)]
    mixtures = rng.dirichlet(np.ones(len(vertices)), size=4) @ vertices
    return [*vertices, *pairs[:6], *mixtures]


@settings(max_examples=80, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_classical_hull_margins_match_the_qhull_oracle(case, seed):
    # The listing's hull decides every target inside it as the oracle
    # Polytope (Qhull facets, Delaunay witness) over the same vertices does,
    # with the same Euclidean margin.
    setup, p = case
    rset = classical_reachable_set(p, setup)
    hull = rset.polytope
    assert rset.hull_vertex_indices == hull_vertex_indices(rset.points, tol=1e-10)
    oracle = Polytope(rset.hull_vertices(), DEDUP_TOL)
    assert hull.rank == oracle.rank
    for target in _hull_targets(hull.vertices, np.random.default_rng(seed)):
        found = hull_membership(target, rset)
        expected, oracle_margin, _ = classify_membership_reference(target, oracle)
        assert found.classification == expected != "exterior"
        assert abs(found.distance - oracle_margin) <= 1e-12
        weights, items = np.array(found.combination.weights), np.array(found.combination.items)
        assert np.abs(weights @ items - target).max() <= 1e-8


@settings(max_examples=80, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_classical_hull_walk_mixes_at_most_rank_plus_one_greedy_permutations(case, seed):
    # Built without the listing: each walk witness has at most rank+1 terms
    # and rebuilds its target, and each order the walk takes gives a greedy
    # permutation that reproduces the vertex the order maps to.
    setup, p = case
    hull = ClassicalHull(p, setup)
    for target in _hull_targets(hull.vertices, np.random.default_rng(seed)):
        weights = hull.witness(target)
        assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) < 1e-12
        assert np.count_nonzero(weights) <= hull.rank + 1
        assert np.abs(weights @ hull.vertices - target).max() <= 1e-8
        for _, order, _ in hull._walk(target):
            output = _classical_marginal(setup, hull.permutation(order), p)
            assert np.abs(output - hull.vertices[hull._greedy.vertex_of[order]]).max() < 1e-12


@functools.cache
def _ladder_setups():
    """Every bath of the ladders the realize search cases walk, on their systems."""
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    w578 = _two_copy_preset()[0].ham_a
    return (
        *_BathLadder(qubit, "copies").upto(32),
        *_BathLadder(qubit, "oscillator").upto(6),
        *_BathLadder(w578, "copies").upto(27),
    )


@st.composite
def _ladder_cases(draw):
    setups = _ladder_setups()
    setup = setups[draw(st.integers(0, len(setups) - 1))]
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=setup.dim_a, max_size=setup.dim_a)), dtype=float)
    assume(weights.sum() > 0)
    return setup, weights / weights.sum()


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(_hull_cases, _ladder_cases()), seed=st.integers(0, 2**32 - 1))
def test_hull_span_is_read_off_the_atoms_of_the_separators(case, seed):
    # The atoms give the span an SVD of every separator's indicator gives:
    # the same rank, the same projector onto its directions, and a centre
    # on every separator's equation. rank, the facets, excess and the
    # witness's projection and walk never list the n! greedy orders.
    setup, p = case
    hull, reference = ClassicalHull(p, setup), PerCallHull(p, setup)
    rng = np.random.default_rng(seed)
    with mock.patch.object(ClassicalHull, "_pick_vertices", side_effect=AssertionError("n! walk")):
        assert hull.rank == reference.basis.shape[0]
        assert np.abs(hull._projector - reference.basis.T @ reference.basis).max() <= 1e-14
        separators = hull._separators
        assert np.abs(hull._members[separators] @ hull.origin - hull.table[separators]).max() <= 1e-15
        for q in rng.dirichlet(np.ones(setup.dim_a), size=3):
            y = hull._saturate(q, hull.distance(q))
            assert hull.excess(y) <= 1e-9
            x = hull.origin + hull._projector @ (y - hull.origin)
            terms = hull._walk(x)
            assert len(terms) <= hull.rank + 1
            assert np.abs(sum(w * vector for w, _, vector in terms) - y).max() <= 1e-8


def _placed_inputs_match(hull, v):
    """The hull holds at most rank+1 placed inputs, each ``v`` scattered by its order's permutation."""
    return len(hull._placed) <= hull.rank + 1 and all(
        not placed.flags.writeable and bit_equal(placed, scattered(v, hull.permutation(order)))
        for order, placed in hull._placed.items()
    )


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(_hull_cases, _ladder_cases()), seed=st.integers(0, 2**32 - 1))
def test_greedy_step_mixes_its_placed_inputs_as_the_scatter_add_does_to_the_bit(case, seed):
    # For hull points and band targets, the greedy step's mixture equals
    # scattering the joint input by each walked order's permutation and
    # adding it in, term by term, to the bit. The hull then keeps the input
    # placed by every order of that walk, read-only, and no more than
    # rank+1 of them.
    setup, p = case
    tol = 1e-8
    hull = ClassicalHull(p, setup)
    v = setup.joint_input(p)
    rng = np.random.default_rng(seed)
    targets = [*_hull_targets(hull.vertices, rng), *(q for q, _ in _band_targets(hull, rng, tol))]
    mixed = []
    with mock.patch.object(thermal, "_rotate_blocks", side_effect=lambda _, m, __: mixed.append(m) or (None, None)):
        for q in targets:
            d = hull.distance(q)
            assert d <= tol
            weights, orders, _ = zip(*hull._walk(hull._saturate(q, d)))
            count = len(mixed)
            _, built = thermal._greedy_unitary(hull, q, d, tol)
            if built is None:
                assert len(mixed) == count
                continue
            images = [hull.permutation(order) for order in orders]
            assert bit_equal(mixed[-1], greedy_mixture_reference(v, images, weights))
            assert set(orders) <= set(hull._placed)
            assert _placed_inputs_match(hull, v)
    assert mixed


@settings(max_examples=80, deadline=None)
@given(case=_small_setups())
def test_every_greedy_permutation_is_a_block_respecting_bijection(case):
    # realize_interior mixes these permutations without checking them, so
    # every order's permutation must be a bijection of the joint basis that
    # keeps each index in its energy block.
    setup, p = case
    hull = ClassicalHull(p, setup)
    block_of = setup.block_of()
    for order in itertools.permutations(range(setup.dim_a)):
        images = hull.permutation(order)
        assert sorted(images.tolist()) == list(range(setup.dim_joint))
        assert np.array_equal(block_of[images], block_of)


@settings(max_examples=40, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_classical_hull_distance_is_the_lp_residual_and_decides_exterior(case, seed):
    # Hull points, each also moved a known Euclidean length in a random
    # direction (off the simplex too), and vertices moved straight across a
    # facet. HiGHS meets its constraints only to its feasibility tolerance,
    # so the min-slack LP brackets the max-norm distance: its objective may
    # fall short of it, and its witness's true residual may exceed it. F's
    # distance lies in that bracket to 1e-12, and exceeds tol exactly where
    # hull_membership says exterior; a target within the LP's own
    # tolerance of that cut is one the LP cannot place, and is left out.
    # hull_membership reads the hull through a set whose points are its
    # vertices, and its state check is stubbed out: most targets here are
    # off the simplex, which it refuses on entry, but its rule takes any.
    setup, p = case
    hull = ClassicalHull(p, setup)
    rset = ReachableSet(hull.vertices, hull.vertex_indices, setup, p, None, hull)
    rng = np.random.default_rng(seed)
    n, tol = setup.dim_a, 1e-8
    targets = []
    for point in _hull_targets(hull.vertices, rng):
        targets.append(point)
        for push in (5e-9, 3e-8, 1e-4):
            direction = rng.normal(size=n)
            targets.append(point + push * direction / np.linalg.norm(direction))
    for normal in hull.normals[:3]:
        targets.append(hull.vertices[np.argmax(hull.vertices @ normal)] + 1e-6 * normal)
    for target in targets:
        distance = hull.distance(target)
        residual, weights = min_slack_lp(target, hull.vertices, TIGHT_LP_TOL)
        weights = weights.clip(0.0) / weights.clip(0.0).sum()
        achieved = np.abs(weights @ hull.vertices - target).max()
        assert residual - 1e-12 <= distance <= achieved + 1e-12
        if abs(distance - tol) > TIGHT_LP_TOL:
            with mock.patch.object(thermal, "probability_vector", np.asarray):
                exterior = hull_membership(target, rset, tol).classification == "exterior"
            assert (distance > tol) == exterior


def test_classical_hull_refuses_more_levels_than_its_cap():
    ham_a = zero_hamiltonian(HULL_LEVEL_CAP + 1)
    p = np.full(ham_a.dim, 1.0 / ham_a.dim)
    for call in (
        lambda: ClassicalHull(p, build_setup(ham_a, zero_hamiltonian(1))),
        lambda: realize_interior(p, ham_a, p, "copies", budget=1),
    ):
        with pytest.raises(PreconditionError) as err:
            call()
        assert err.value.code == "hull-level-cap"
    at_cap = build_setup(zero_hamiltonian(HULL_LEVEL_CAP), zero_hamiltonian(1))
    assert ClassicalHull(np.full(HULL_LEVEL_CAP, 1.0 / HULL_LEVEL_CAP), at_cap).rank == 0


def test_a_rank_zero_hull_past_the_cap_reads_its_rank_in_little_memory(monkeypatch):
    # On the trivial bath every one of the 4,096 sets of 12 levels
    # separates: the atoms are the levels, the rank is 0 and the centre is
    # p. An SVD of the separators' indicators with full matrices peaked at
    # 128 MB here.
    monkeypatch.setattr(thermal, "HULL_LEVEL_CAP", 12)
    monkeypatch.setattr(ClassicalHull, "_pick_vertices", mock.Mock(side_effect=AssertionError("n! walk")))
    setup = build_setup(oscillator_hamiltonian(12, 0.5), oscillator_hamiltonian(1, 0.5))
    p = np.random.default_rng(25).dirichlet(np.ones(12))
    hull = ClassicalHull(p, setup)
    tracemalloc.start()
    try:
        assert hull.rank == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert hull._separators.all() and np.array_equal(hull.origin, p)


def test_reachable_points_match_extraction_closed_form():
    p = np.array([0.0, 1.0])
    for m in (2, 3, 4, 6):
        rset = classical_reachable_set(p, _qubit_oscillator(m))
        best = rset.points[:, 0].max()
        x = 0.5
        assert best == pytest.approx((1 - x ** (m - 1)) / (1 - x**m), abs=1e-12)
        assert np.abs(rset.points[0] - p).max() < 1e-12


def test_reachable_representatives_reproduce_points():
    setup, p = _two_copy_preset()
    rset = classical_reachable_set(p, setup)
    for k in (0, len(rset.points) // 2, len(rset.points) - 1):
        again = _classical_marginal(setup, rset.representatives[k], p)
        assert np.abs(again - rset.points[k]).max() < 1e-12


def test_synthesize_single_permutation_is_permutation_matrix():
    setup = _qubit_oscillator(3)
    p = np.array([0.0, 1.0])
    enum = enumerate_classical(setup)
    perm = tuple(int(x) for x in enum.permutations[1])
    comb = ConvexCombination((1.0,), (perm,))
    u, gadget = synthesize_unitary(p, comb, setup)
    assert gadget is None
    assert np.abs(np.abs(u) ** 2 - np.eye(6)[:, list(perm)].T).max() < 1e-12
    assert energy_preservation_defect(u, setup) == 0.0


def test_synthesize_halfway_mixture_hits_target():
    setup = _qubit_oscillator(4)
    p = np.array([0.0, 1.0])
    rset = classical_reachable_set(p, setup)
    target = 0.5 * rset.points[0] + 0.5 * rset.points[-1]
    found = hull_membership(target, rset)
    assert found.classification in ("interior", "boundary")
    perms = tuple(tuple(int(x) for x in rset.representatives[k]) for k in found.vertex_indices)
    comb = ConvexCombination(found.combination.weights, perms)
    u, _ = synthesize_unitary(p, comb, setup)
    achieved = (np.abs(u) ** 2 @ setup.joint_input(p)).reshape(2, 4).sum(axis=1)
    assert np.abs(achieved - target).max() < 1e-8


def test_synthesize_rejects_block_crossing_permutation():
    setup = _qubit_oscillator(2)
    crossing = (1, 0, 2, 3)
    with pytest.raises(PreconditionError):
        synthesize_unitary(np.array([0.5, 0.5]), ConvexCombination((1.0,), (crossing,)), setup)


def test_synthesize_refuses_items_that_are_not_joint_permutations():
    # A repeated image used to fail inside the rotation chain, and an item of
    # another length inside numpy; both are refused up front.
    setup = _qubit_oscillator(2)
    p = np.array([0.5, 0.5])
    for items in (((0, 0, 2, 3),), ((0, 1, 2, 3), (0, 1, 2))):
        comb = ConvexCombination((1.0,) if len(items) == 1 else (0.5, 0.5), items)
        with pytest.raises(PreconditionError) as err:
            synthesize_unitary(p, comb, setup)
        assert err.value.code == "not-a-permutation"
        assert str(items[-1]) in err.value.detail


def test_synthesize_names_the_block_whose_rotation_is_not_unitary(monkeypatch):
    setup, p = _two_copy_preset()
    product = decompose_channel_to_classical(random_block_unitary(setup, np.random.default_rng(5)), setup)
    rotated = [b for b in setup.blocks if len(b) > 1]
    core = majorization._givens_core
    calls = []

    def nan_in_second(x, target):  # the chains run one block at a time, in block order
        calls.append(1)
        rows = core(x, target)
        return [[entry * np.nan for entry in row] for row in rows] if len(calls) == 2 else rows

    monkeypatch.setattr(majorization, "_givens_core", nan_in_second)
    with pytest.raises(RuntimeError) as err:
        synthesize_unitary(p, product, setup)
    assert str(err.value).startswith(f"rotation for block {rotated[1]} failed its check: not-unitary")


def test_synthesize_rotates_and_checks_each_block_size_once_on_the_two_copy_setup(monkeypatch):
    # The fig4 two-copy setup: the blocks of one size are rotated as one
    # stack of cores, built in one call for all of them, and checked in one.
    setup, p = _two_copy_preset()
    product = decompose_channel_to_classical(random_block_unitary(setup, np.random.default_rng(5)), setup)
    checked, built = [], []
    check, build = majorization._orthogonality_defects, majorization._rotation_stacks

    def counting_check(cores):
        checked.append(np.shape(cores))
        return check(cores)

    def counting_build(chains, mus, pairs):
        stacks, failure = build(chains, mus, pairs)
        built.append([cores.shape for cores, _, _ in stacks])
        return stacks, failure

    monkeypatch.setattr(majorization, "_orthogonality_defects", counting_check)
    monkeypatch.setattr(majorization, "_rotation_stacks", counting_build)
    u, _ = synthesize_unitary(p, product, setup)
    rotated = [len(b) for b in setup.blocks if len(b) > 1]
    stacks = sorted((rotated.count(n), n, n) for n in set(rotated))
    assert len(rotated) > len(stacks) > 1
    assert len(built) == 1 and sorted(built[0]) == sorted(checked) == stacks
    assert bit_equal(u, synthesize_reference(p, product, setup))


def test_synthesize_adds_gadget_for_degenerate_system():
    beta = 1.0
    ham_a = Hamiltonian((EnergyLabel(0), EnergyLabel(0), EnergyLabel(1)), beta, 1.0)
    setup = build_setup(ham_a, oscillator_hamiltonian(2, beta=beta))
    p = np.array([0.2, 0.3, 0.5])
    rset = classical_reachable_set(p, setup)
    found = hull_membership(rset.points.mean(axis=0), rset)
    perms = tuple(tuple(int(x) for x in rset.representatives[k]) for k in found.vertex_indices)
    comb = ConvexCombination(found.combination.weights, perms)
    _, gadget = synthesize_unitary(p, comb, setup)
    assert gadget is not None
    assert gadget.system_dim == 3 and gadget.bath_dim == 2


def test_decompose_recovers_blockwise_action():
    setup, p = _two_copy_preset()
    rng = np.random.default_rng(21)
    u = random_block_unitary(setup, rng)
    product = decompose_channel_to_classical(u, setup)
    v = setup.joint_input(p)
    direct = (np.abs(u) ** 2) @ v
    assert np.abs(product.mixed_joint_output(v) - direct).max() < 1e-10
    assert product.term_count >= 1


def test_decompose_rejects_block_leakage():
    setup = _qubit_oscillator(2)
    u = np.eye(4, dtype=complex)
    u[np.ix_((0, 1), (0, 1))] = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(PreconditionError) as err:
        decompose_channel_to_classical(u, setup)
    assert err.value.code == "not-energy-preserving"


def test_decompose_refuses_a_unitary_with_a_nan_entry():
    # One block, the identity but for a NaN: its defect is NaN, which used to
    # pass the unitarity check and decompose as the identity.
    setup = build_setup(zero_hamiltonian(2), zero_hamiltonian(2))
    u = np.eye(4, dtype=complex)
    u[0, 1] = np.nan
    with pytest.raises(PreconditionError) as err:
        decompose_channel_to_classical(u, setup)
    assert err.value.code == "not-unitary"


def test_decompose_synthesize_round_trip():
    setup, p = _two_copy_preset()
    rng = np.random.default_rng(33)
    for _ in range(5):
        u = random_block_unitary(setup, rng)
        product = decompose_channel_to_classical(u, setup)
        u2, gadget = synthesize_unitary(p, product, setup)
        assert gadget is None
        v = setup.joint_input(p)
        out1 = ((np.abs(u) ** 2) @ v).reshape(3, 9).sum(axis=1)
        out2 = ((np.abs(u2) ** 2) @ v).reshape(3, 9).sum(axis=1)
        assert np.abs(out1 - out2).max() < 1e-7


def _synthesis_setups():
    w578 = weight_hamiltonian((5, 7, 8), beta=1.0)
    return (
        _two_copy_preset()[0],
        build_setup(w578, w578),
        _qubit_oscillator(6),
        build_setup(qubit_hamiltonian(math.log(2.0)), _qubit_copies(4, math.log(2.0))[1]),
    )


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=3),
    product=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_synthesize_blocks_match_the_reference_chain_bit_for_bit(which, product, zeros, seed):
    # Every block's rotation, identity and zero entry, with the signs of the
    # zeros, as the checked schur_horn_unitary built them block by block.
    setup = _synthesis_setups()[which]
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(setup.dim_a))
    if zeros:  # empty blocks, and zero entries inside the others
        p[rng.permutation(setup.dim_a)[: setup.dim_a // 2]] = 0.0
        p /= p.sum()
    if product:
        target = decompose_channel_to_classical(random_block_unitary(setup, rng), setup)
    else:
        perms = []
        for _ in range(int(rng.integers(1, 5))):
            images = np.arange(setup.dim_joint)
            for block in setup.blocks:
                images[list(block)] = rng.permutation(block)
            perms.append(tuple(int(x) for x in images))
        target = ConvexCombination(tuple(rng.dirichlet(np.ones(len(perms)))), tuple(perms))
    u, _ = synthesize_unitary(p, target, setup)
    assert bit_equal(u, synthesize_reference(p, target, setup))


def test_realize_validates_its_states_once_however_far_it_searches(monkeypatch):
    # Two qubit targets: one needs the two-level copies bath, the other the
    # 32-level one, five baths and more synthesized blocks later.
    original = probability_vector
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermohorn" and getattr(module, "probability_vector", None) is original:
            monkeypatch.setattr(module, "probability_vector", counting)
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    counts = []
    for a, dim_b in ((0.2, 2), (0.425, 32)):
        calls.clear()
        setup, _, _ = realize_interior(np.array([1.0, 0.0]), qubit, np.array([1 - a, a]), "copies", 64)
        assert setup.dim_b == dim_b
        counts.append(len(calls))
    # p and the target on entry; the bath's hull and its unitary read the validated p.
    assert counts == [2, 2]


def _givens(n, a, b, sine):
    """The real rotation of sine ``sine`` in the ``(a, b)`` plane of ``n`` dimensions."""
    g = np.eye(n, dtype=np.complex128)
    g[a, a] = g[b, b] = math.sqrt(1.0 - sine * sine)
    g[a, b], g[b, a] = -sine, sine
    return g


# Sines whose squares lie on either side of BIRKHOFF_ZERO_TOL: half, just
# below, the two floats around sqrt(zero_tol) (squares 1 ulp below and 2
# ulps above it), just above and twice.
_CUT_SINES = (
    *(math.sqrt(BIRKHOFF_ZERO_TOL * f) for f in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0)),
    1e-5,
    float(np.nextafter(1e-5, 0.0)),
)


def _decompose_input(kind, setup, rng, k):
    """A unitary on the joint space; ``k`` picks its one free number."""
    if kind == "near-zero-tol":  # block permutations, each turned by a small rotation
        u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
        for block in setup.blocks:
            n = len(block)
            local = permutation_matrix(rng.permutation(n))
            if n > 1:
                a, b = (int(x) for x in rng.choice(n, 2, replace=False))
                local = local @ _givens(n, a, b, _CUT_SINES[k % len(_CUT_SINES)])
            u[np.ix_(block, block)] = local
        return u
    w = random_block_unitary(setup, rng)
    if kind == "leak":  # a rotation across two blocks: off-block entries near the leak tolerance
        first, second = (setup.blocks[j] for j in rng.choice(len(setup.blocks), 2, replace=False))
        a, b = int(rng.choice(first)), int(rng.choice(second))
        reach = max(np.abs(w[b, list(second)]).max(), np.abs(w[a, list(first)]).max())
        factor = (1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3)[k % 4]
        return _givens(setup.dim_joint, a, b, BLOCK_LEAK_TOL * factor / reach) @ w
    if kind == "scaled":  # unitary to about 2 * (1, 4, 8) * 1e-11: both sides of UNITARITY_TOL
        return w * (1.0 + (1e-11, 4e-11, 8e-11)[k % 3])
    return w


@settings(max_examples=80, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=4),
    kind=st.sampled_from(["haar", "near-zero-tol", "leak", "scaled"]),
    k=st.integers(min_value=0, max_value=11),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_decompose_equals_birkhoff_block_by_block(which, kind, k, seed):
    # One validation, one chain per block and one reconstruction check for
    # all blocks give the terms, the worst error (to the bit) and the error
    # code of birkhoff_decompose called block by block.
    setup = (*_synthesis_setups(), _qubit_oscillator(2))[which]
    u = _decompose_input(kind, setup, np.random.default_rng(seed), k)
    expected = decompose_reference(u, setup, BLOCK_LEAK_TOL)
    try:
        product = decompose_channel_to_classical(u, setup)
    except PreconditionError as exc:
        assert exc.code == expected
        return
    except RuntimeError:
        assert expected == "term-bound"
        return
    groups, worst = expected
    assert product.block_terms == groups
    assert product.reconstruction_error.hex() == worst.hex()


def test_decompose_leak_tolerance_is_named_and_its_keyword_takes_effect():
    setup = _qubit_oscillator(2)
    w = np.eye(4, dtype=np.complex128)
    for factor, tol, refused in ((1.5, None, True), (1.5, 2.0, False), (0.5, None, False), (0.5, 0.25, True)):
        u = _givens(4, 0, 1, BLOCK_LEAK_TOL * factor) @ w
        kwargs = {} if tol is None else {"block_tol": BLOCK_LEAK_TOL * tol}
        if refused:
            with pytest.raises(PreconditionError) as err:
                decompose_channel_to_classical(u, setup, **kwargs)
            assert err.value.code == "not-energy-preserving"
        else:
            decompose_channel_to_classical(u, setup, **kwargs)


def test_round_trip_checks_once_per_call_whatever_the_block_count(monkeypatch):
    original = linalg.unitarity_defect
    shapes = []

    def counting(mat):
        shapes.append(np.shape(mat))
        return original(mat)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermohorn" and getattr(module, "unitarity_defect", None) is original:
            monkeypatch.setattr(module, "unitarity_defect", counting)
    orthogonality = majorization._orthogonality_defects

    def counting_cores(cores):  # the rotations' stacked check, on the real cores
        shapes.append(np.shape(cores))
        return orthogonality(cores)

    monkeypatch.setattr(majorization, "_orthogonality_defects", counting_cores)
    rebuilt = []
    reconstruction = majorization._reconstruction_errors

    def recording(*args):
        rebuilt.append(len(args[0]))
        return reconstruction(*args)

    # The reconstruction check lives in majorization's blockwise Birkhoff runner.
    monkeypatch.setattr(majorization, "_reconstruction_errors", recording)
    rng = np.random.default_rng(12)
    for setup in (_qubit_oscillator(2), *_synthesis_setups()):
        p = rng.dirichlet(np.ones(setup.dim_a))
        shapes.clear()
        product = decompose_channel_to_classical(random_block_unitary(setup, rng), setup)
        # The input once, and one reconstruction check covering every block.
        assert shapes == [(setup.dim_joint, setup.dim_joint)]
        assert rebuilt == [len(setup.blocks)]
        shapes.clear()
        rebuilt.clear()
        synthesize_unitary(p, product, setup)
        # One stacked check per size of rotated block, none of the joint unitary.
        sizes = sorted({len(b) for b in setup.blocks if len(b) > 1})
        stacks = [(sum(len(b) == n for b in setup.blocks), n, n) for n in sizes]
        assert sorted(shapes, key=lambda shape: shape[1]) == stacks
        assert len(setup.blocks) > len(shapes)
        assert rebuilt == []


@settings(max_examples=40, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=3),
    decomposed=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_mixed_joint_output_is_the_term_by_term_sum_to_the_bit(which, decomposed, zeros, seed):
    setup = _synthesis_setups()[which]
    rng = np.random.default_rng(seed)
    if decomposed:
        product = decompose_channel_to_classical(random_block_unitary(setup, rng), setup)
    else:
        groups = []
        for block in setup.blocks:
            weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
            groups.append(tuple((float(w), tuple(int(x) for x in rng.permutation(len(block)))) for w in weights))
        product = ProductConvexCombination(setup.blocks, tuple(groups))
    v = rng.dirichlet(np.ones(setup.dim_joint))
    if zeros:
        v[rng.permutation(setup.dim_joint)[: setup.dim_joint // 2]] = 0.0
    assert bit_equal(product.mixed_joint_output(v), mixed_joint_reference(product, v))


def test_product_combination_expand_matches_factored_action():
    setup = _qubit_oscillator(3)
    rng = np.random.default_rng(40)
    u = random_block_unitary(setup, rng)
    product = decompose_channel_to_classical(u, setup)
    expanded = expand_product(product)
    v = setup.joint_input(np.array([0.4, 0.6]))
    mixed = np.zeros_like(v)
    for w, perm in zip(expanded.weights, expanded.items):
        shuffled = np.zeros_like(v)
        shuffled[list(perm)] = v
        mixed += w * shuffled
    assert np.abs(mixed - product.mixed_joint_output(v)).max() < 1e-12
    with pytest.raises(PreconditionError):
        expand_product(product, cap=1)


def test_thermal_decoherence_gadget_structure():
    beta = 1.0
    ham_a = Hamiltonian(
        (EnergyLabel(0), EnergyLabel(0), EnergyLabel(1), EnergyLabel(1)), beta, 1.0
    )
    gadget = thermal_decoherence_gadget(ham_a, (1, 3))
    assert gadget.system_dim == 4 and gadget.bath_dim == 3
    u = gadget.unitary
    eye = np.eye(3)
    shift = np.roll(eye, 1, axis=0)
    for i, power in ((0, 0), (1, 1), (2, 0), (3, 2)):
        block = u[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3]
        assert np.abs(block - np.linalg.matrix_power(shift, power)).max() == 0.0
    rng = np.random.default_rng(50)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = gadget.apply(rho)
    for i in (1, 3):
        for j in range(4):
            if i != j:
                assert abs(out[i, j]) < 1e-15 and abs(out[j, i]) < 1e-15
    assert abs(out[0, 2] - rho[0, 2]) < 1e-12
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    levels=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    data=st.data(),
)
def test_thermal_decoherence_gadget_matches_dense_formula(levels, data):
    ham_a = Hamiltonian(tuple(EnergyLabel(a) for a in levels), 1.0, 1.0)
    chosen = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=len(levels) - 1))))
    powers = [chosen.index(i) + 1 if i in chosen else 0 for i in range(len(levels))]
    gadget = thermal_decoherence_gadget(ham_a, chosen)
    assert gadget.bath_dim == len(chosen) + 1
    assert bit_equal(gadget.unitary, conditional_shift(powers, len(chosen) + 1))


def test_thermal_decoherence_gadget_defaults_to_degenerate_spaces():
    gadget = thermal_decoherence_gadget(zero_hamiltonian(4))
    assert gadget.bath_dim == 4
    gadget = thermal_decoherence_gadget(qubit_hamiltonian(beta=1.0))
    assert gadget.bath_dim == 1


def test_thermal_decoherence_gadget_rejects_bad_indices():
    with pytest.raises(PreconditionError):
        thermal_decoherence_gadget(zero_hamiltonian(3), (5,))


def test_membership_initial_state_is_member():
    setup = _qubit_oscillator(3)
    p = np.array([0.0, 1.0])
    rset = classical_reachable_set(p, setup)
    found = hull_membership(p, rset)
    assert found.classification in ("interior", "boundary")


def test_membership_thermal_state_is_interior():
    setup = _qubit_oscillator(3)
    rset = classical_reachable_set(np.array([0.0, 1.0]), setup)
    found = hull_membership(gibbs_vector(setup.ham_a), rset)
    assert found.classification == "interior"
    combo = found.combination
    mix = sum(w * pt for w, pt in zip(combo.weights, combo.items))
    assert np.abs(mix - gibbs_vector(setup.ham_a)).max() < 1e-8


def test_membership_extreme_cooling_point_is_exterior():
    beta_de = math.log(2.0)
    p = np.array([0.0, 1.0])
    star = p_star(p, qubit_gibbs(1.0, beta_de))
    for m in (2, 3, 5):
        rset = classical_reachable_set(p, _qubit_oscillator(m, beta_de))
        found = hull_membership(star, rset)
        assert found.classification == "exterior"
        assert found.combination is None


def test_hull_vertices_moved_off_the_span_stay_on_the_boundary():
    # The moves lie inside HiGHS's 1e-7 feasibility tolerance, where a
    # positivity-margin LP called 242 of these 480 targets interior.
    ham_a = Hamiltonian(tuple(EnergyLabel(k) for k in (0, 1, 1, 10)), 1.0, 1.0)
    setup = build_setup(ham_a, oscillator_hamiltonian(3, 1.0))
    rng = np.random.default_rng(3)
    verdicts = []
    for _ in range(40):
        p = rng.dirichlet(np.ones(4))
        rset = classical_reachable_set(p, setup)
        assert rset.polytope.rank == 2
        off_span = np.linalg.svd(np.vstack([PerCallHull(p, setup).basis, np.ones(4)]))[2][-1]
        for vertex in rset.hull_vertices():
            for push in (2e-9, 5e-9):
                verdicts.append(hull_membership(vertex + push * off_span, rset).classification)
    assert len(verdicts) == 480 and set(verdicts) == {"boundary"}


def test_membership_rejects_nonpositive_tolerance():
    setup = _qubit_oscillator(3)
    rset = classical_reachable_set(np.array([0.7, 0.3]), setup)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(PreconditionError) as err:
            hull_membership(np.array([0.7, 0.3]), rset, tol)
        assert err.value.code == "bad-tolerance"


def test_membership_dimension_check():
    setup = _qubit_oscillator(2)
    rset = classical_reachable_set(np.array([0.0, 1.0]), setup)
    with pytest.raises(PreconditionError):
        hull_membership(np.array([0.2, 0.3, 0.5]), rset)


def test_realize_identity_target_uses_trivial_bath():
    ham_a = qubit_hamiltonian(beta=1.0)
    p = np.array([0.3, 0.7])
    setup, u, gadget = realize_interior(p, ham_a, p, "copies", budget=4)
    assert setup.dim_b == 1
    assert np.abs(u - np.eye(2)).max() < 1e-12
    assert gadget is None


def test_realize_finds_expected_oscillator_size():
    beta_de = 0.2
    ham_a = qubit_hamiltonian(beta=1.0, base_quantum=beta_de)
    p = np.array([0.0, 1.0])
    alpha = 0.9 * alpha_max_oscillator(4, beta_de)
    assert alpha > alpha_max_oscillator(3, beta_de)
    target = d_alpha(alpha, qubit_gibbs(1.0, beta_de)) @ p
    result = realize_interior(p, ham_a, target, "oscillator", budget=8)
    assert result is not None
    setup, u, _ = result
    assert setup.dim_b == 4
    achieved = ((np.abs(u) ** 2) @ setup.joint_input(p)).reshape(2, 4).sum(axis=1)
    assert np.abs(achieved - target).max() < 1e-8


def test_realize_rejects_non_thermomajorized_target():
    ham_a = qubit_hamiltonian(beta=1.0)
    gamma = gibbs_vector(ham_a)
    with pytest.raises(PreconditionError):
        realize_interior(gamma, ham_a, np.array([0.05, 0.95]), "copies", budget=4)


def test_realize_extreme_point_exhausts_budget():
    beta_de = math.log(2.0)
    ham_a = qubit_hamiltonian(beta=1.0, base_quantum=beta_de)
    p = np.array([0.0, 1.0])
    star = p_star(p, qubit_gibbs(1.0, beta_de))
    assert realize_interior(p, ham_a, star, "oscillator", budget=5) is None


def _qubit_copies(k, beta):
    ham_a = qubit_hamiltonian(beta=beta)
    levels = (EnergyLabel(),)
    for _ in range(k):
        levels = tuple(a + b for a in levels for b in ham_a.levels)
    return ham_a, Hamiltonian(levels, beta, 1.0)


def test_realize_copies_reaches_the_bath_the_closed_form_allows():
    # Bath 32 has a 20-slot block with 184,756 label arrangements, too many
    # to list per bath; the greedy hull decides it exactly.
    ham_a, bath_16 = _qubit_copies(4, math.log(2.0))
    _, bath_32 = _qubit_copies(5, math.log(2.0))
    p, a = np.array([1.0, 0.0]), 0.425
    assert alpha_max_achievable(bath_16, 1) < a <= alpha_max_achievable(bath_32, 1)
    result = realize_interior(p, ham_a, np.array([1 - a, a]), "copies", budget=64)
    assert result is not None
    setup, u, _ = result
    assert setup.dim_b == 32
    achieved = ((np.abs(u) ** 2) @ setup.joint_input(p)).reshape(2, 32).sum(axis=1)
    assert np.abs(achieved - [1 - a, a]).max() < 1e-8


@contextlib.contextmanager
def _counting_lps():
    """Count the LPs solved through every thermohorn module that binds ``linprog``."""
    counter = mock.Mock(side_effect=linprog)
    holders = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "thermohorn" and getattr(module, "linprog", None) is linprog
    ]
    assert {m.__name__ for m in holders} >= {"thermohorn.majorization", "thermohorn.thermal"}
    with contextlib.ExitStack() as stack:
        for module in holders:
            stack.enter_context(mock.patch.object(module, "linprog", counter))
        yield counter


def _realize_search_cases():
    """``(p, ham_a, target, family, budget)`` like the benchmark's bath searches.

    A ground-state qubit (beta * gap = ln 2) against qubit copies up to 32
    and oscillators up to 6 levels, with targets spread between the
    closed-form thresholds of consecutive baths; and the (5, 7, 8) system
    against its copies, with targets near the edge of the two-copy hull
    that no smaller bath holds.
    """
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground = np.array([1.0, 0.0])
    ladders = {
        "copies": [_qubit_copies(k, math.log(2.0))[1] for k in range(6)],
        "oscillator": [oscillator_hamiltonian(m, math.log(2.0)) for m in range(1, 7)],
    }
    cases = []
    for family, baths in ladders.items():
        tops = [alpha_max_achievable(bath, 1) for bath in baths]
        for lo, hi in zip(tops, tops[1:]):
            if hi <= lo:
                continue
            for frac in (0.05, 0.5, 0.95):
                a = lo + frac * (hi - lo)
                cases.append((ground, qubit, np.array([1.0 - a, a]), family, baths[-1].dim))
    setup, p = _two_copy_preset()
    vertices = ClassicalHull(p, setup).vertices
    low = vertices[np.argsort(vertices[:, 0])[:2]]
    for mu in (0.2, 0.5, 0.8):
        target = 0.97 * (mu * low[0] + (1 - mu) * low[1]) + 0.03 * vertices.mean(axis=0)
        cases.append((p, setup.ham_a, target / target.sum(), "copies", 27))
    return cases


def test_realize_search_solves_no_lp_and_finds_the_reference_bath():
    # Baths whose hull misses the target are skipped on F's max-norm distance
    # and the target is checked up front on its thermo-Lorenz curves, so
    # none of these searches solves an LP; each stops at the first bath
    # that hull_membership, asked about every bath, finds holding it.
    found = set()
    for p, ham_a, target, family, budget in _realize_search_cases():
        bath = realize_reference(p, ham_a, target, family, budget)
        with _counting_lps() as lp:
            result = realize_interior(p, ham_a, target, family, budget)
        assert lp.call_count == 0
        assert bath is not None and result[0].ham_b == bath
        found.add((family, p.size, bath.dim))
    # The 4- and 16-dimensional copies baths reach no further than the bath before each.
    assert found == {("copies", 2, d) for d in (2, 8, 32)} | {
        ("oscillator", 2, m) for m in range(2, 7)
    } | {("copies", 3, 9)}


def test_realize_builds_vertices_only_for_the_bath_it_returns():
    # On a cleared ladder every bath is built as a ClassicalHull (each
    # tabulates its F table), and none lists its greedy vertices, goes to
    # hull_membership or builds a ReachableSet: the bath returned walks
    # to its witness from F, after up to five baths decided from F alone.
    # Searched again with the same p, the ladder's hulls are read back: no
    # bath is tabulated, listed or solved for.
    tried = []
    for p, ham_a, target, family, budget in _realize_search_cases():
        thermal._ladder.cache_clear()
        for cold in (True, False):
            with (
                mock.patch.object(ClassicalHull, "_tabulate", autospec=True,
                                  side_effect=ClassicalHull._tabulate) as built,
                mock.patch.object(ClassicalHull, "_pick_vertices", autospec=True,
                                  side_effect=ClassicalHull._pick_vertices) as listed,
                mock.patch.object(thermal, "hull_membership",
                                  side_effect=thermal.hull_membership) as classified,
                mock.patch.object(thermal, "ReachableSet", side_effect=thermal.ReachableSet) as sets,
                _counting_lps() as lp,
            ):
                assert realize_interior(p, ham_a, target, family, budget) is not None
            assert listed.call_count == classified.call_count == sets.call_count == lp.call_count == 0
            if cold:
                tried.append(built.call_count)
            else:
                assert built.call_count == 0
    assert max(tried) >= 6


def _band_targets(hull, rng, tol):
    """Greedy vertices pushed off the hull to a known F distance in (0, tol].

    A greedy vertex ``g`` fills some level ``a`` to ``F({a})``. Moving a mass
    ``s`` into ``a`` from the other levels, in proportion to their entries,
    puts ``{a}`` ``s`` past its bound while ``g`` stays within ``s``: the
    distance is ``s``.
    """
    singles = hull.table[1 << np.arange(hull.setup.dim_a)]
    targets = []
    for g in hull.vertices:
        a = int(np.argmin(singles - g))
        rest = g.sum() - g[a]
        if rest <= 0.0:
            continue
        s = rng.uniform(0.01, 0.99) * min(tol, rest)
        off = np.where(np.arange(g.size) == a, 0.0, g) / rest
        targets.append((g + s * (np.eye(g.size)[a] - off), s))
    return targets


@settings(max_examples=60, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_band_targets_saturate_into_the_hull_and_realize_within_tol(case, seed):
    # Targets outside the hull but within tol of it: saturation lands in the
    # base polytope within d of the target, the walk from there mixes at most
    # rank+1 greedy vectors that rebuild the target within tol, and the bath
    # search on the system's copies delivers the target within tol.
    setup, p = case
    rng = np.random.default_rng(seed)
    tol = 1e-8
    hull = ClassicalHull(p, setup)
    for q, s in _band_targets(hull, rng, tol):
        d = hull.distance(q)
        assert 0.0 < d <= tol and abs(d - s) <= 1e-15
        y = hull._saturate(q, d)
        assert (hull._members @ y - hull.table).max() <= SEPARATOR_TOL
        assert abs(y.sum() - hull.table[-1]) <= SEPARATOR_TOL
        assert np.abs(y - q).max() <= d + 1e-15
        terms = hull._walk(y)
        assert len(terms) <= hull.rank + 1
        assert np.abs(sum(w * vector for w, _, vector in terms) - q).max() <= tol
    ham_a = setup.ham_a
    *_, one_copy = _BathLadder(ham_a, "copies").upto(ham_a.dim)
    for q, _ in _band_targets(ClassicalHull(p, one_copy), rng, tol):
        found, u, _ = realize_interior(p, ham_a, q, "copies", ham_a.dim, tol=tol)
        achieved = (np.abs(u) ** 2 @ found.joint_input(p)).reshape(found.dim_a, -1).sum(axis=1)
        assert np.abs(achieved - q).max() <= tol


@settings(max_examples=60, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_band_targets_are_members_by_one_lp_and_the_walk_witness(case, seed):
    # Targets outside the hull but within tol of it, and others pushed up
    # to 3 tol out. One whose projection onto the span crosses a facet
    # solves one min-slack LP, which only rules out exterior: at HiGHS's own
    # tolerances it often reads 0 for a target 1-3 tol out. A target the LP
    # passes takes F's walk from its saturation as witness, and is exterior
    # at that witness's miss if it misses, else boundary at distance 0. A
    # target moved off the span whose projection the facets hold keeps the
    # projection's witness, and a hull of rank 0 decides by its gap, both
    # with no LP. The verdict is F's: exterior exactly when the distance
    # exceeds tol. Every witness mixes at most rank+1 listed vertices and
    # rebuilds the target within tol.
    setup, p = case
    rset = classical_reachable_set(p, setup)
    hull = rset.polytope
    rng = np.random.default_rng(seed)
    tol = 1e-8
    for q, _ in [*_band_targets(hull, rng, tol), *_band_targets(hull, rng, 3 * tol)]:
        with mock.patch.object(thermal, "_min_slack_combination",
                               side_effect=thermal._min_slack_combination) as lp:
            found = hull_membership(q, rset, tol)
        assert (found.classification == "exterior") == (hull.distance(q) > tol)
        assert lp.call_count <= 1
        if found.classification == "exterior":
            assert found.distance > tol and found.combination is None
            continue
        if hull.rank > 0 and hull.excess(q) > FACET_TOL:
            assert lp.call_count == 1
            assert found.classification == "boundary" and found.distance == 0.0
        weights = np.array(found.combination.weights)
        assert weights.min() > 0.0 and abs(weights.sum() - 1.0) < 1e-12
        assert len(weights) <= hull.rank + 1
        assert set(found.vertex_indices) <= set(rset.hull_vertex_indices)
        assert np.abs(weights @ rset.points[list(found.vertex_indices)] - q).max() <= tol


@settings(max_examples=80, deadline=None)
@given(case=_hull_cases, seed=st.integers(0, 2**32 - 1))
def test_hull_reads_from_its_cached_frame_match_the_per_call_reference_bit_for_bit(case, seed):
    # The hull reads its setup's frame and the level sets of its n from
    # caches; a hull that rebuilds every table for itself gives the same F
    # table, distances, saturations and walk terms to the bit, and the same
    # rank, on hull points, band targets and targets pushed off the hull.
    setup, p = case
    rng = np.random.default_rng(seed)
    hull, reference = ClassicalHull(p, setup), PerCallHull(p, setup)
    assert bit_equal(hull.table, reference.table)
    assert hull.rank == reference.basis.shape[0]
    band = [q for q, _ in _band_targets(hull, rng, 1e-8)]
    inside = _hull_targets(hull.vertices, rng)
    pushed = [q + 1e-4 * rng.normal(size=q.size) for q in inside[:4]]
    for q in [*inside, *band, *pushed]:
        d = hull.distance(q)
        assert d == reference.distance(q)
        y = hull._saturate(q.copy(), d)
        assert bit_equal(y, reference.saturate(q.copy(), d))
        if d <= 1e-8:
            for (w, order, g), (w_ref, order_ref, g_ref) in zip(
                hull._walk(y), reference.walk(y), strict=True
            ):
                assert w == w_ref and order == order_ref and bit_equal(g, g_ref)


def test_realize_stops_at_a_bath_that_holds_the_target_within_tol():
    # A target 0.5 tol (max-norm) past an oscillator bath's closed-form
    # threshold lies 0.5 tol (max-norm) from that hull, within the distance
    # cut: the bath is classified, not skipped, and hull_membership calls it
    # boundary. At 2 tol past, both agree the bath misses.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground = np.array([1.0, 0.0])
    for m in (2, 3, 5):
        top = alpha_max_achievable(oscillator_hamiltonian(m, math.log(2.0)), 1)
        for past, bath in ((0.5e-8, m), (2e-8, m + 1)):
            target = np.array([1.0 - top - past, top + past])
            assert realize_reference(ground, qubit, target, "oscillator", 8).dim == bath
            setup, _, _ = realize_interior(ground, qubit, target, "oscillator", 8)
            assert setup.dim_b == bath


def test_realize_searches_a_target_within_tol_of_a_thermomajorized_state():
    # The Gibbs state thermomajorizes only itself. A target 1e-9 (max-norm)
    # away is not thermomajorized, but lies within tol of the trivial
    # bath's one-point hull; the up-front curve check allows dim * tol, so
    # the search reaches that bath. At tol = 1e-10 the curves refuse it.
    for ham_a in (qubit_hamiltonian(beta=1.0), weight_hamiltonian((5, 7, 8), beta=0.7)):
        gamma = gibbs_vector(ham_a)
        target = gamma.copy()
        target[0] += 1e-9
        target[-1] -= 1e-9
        assert not thermo_lorenz_dominates(gamma, target, gamma)
        assert realize_reference(gamma, ham_a, target, "copies", 4).dim == 1
        with _counting_lps() as lp:
            setup, _, _ = realize_interior(gamma, ham_a, target, "copies", budget=4)
        assert lp.call_count == 0 and setup.dim_b == 1
        with pytest.raises(PreconditionError) as err:
            realize_interior(gamma, ham_a, target, "copies", budget=4, tol=1e-10)
        assert err.value.code == "not-thermomajorized"


def test_realize_refuses_an_unreachable_target_before_its_bath_family_or_system():
    # The thermo-Lorenz check runs before any ladder is made or walked: a
    # target no Gibbs-preserving map reaches is refused as such, where the
    # family or the system would be refused too, and a reachable target on
    # the same system meets that refusal.
    pure2, half = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    pure9, uniform9 = np.eye(9)[0], np.full(9, 1.0 / 9)
    assert 9 > HULL_LEVEL_CAP
    cases = [
        (zero_hamiltonian(2), "oscillator", half, pure2, "not-thermomajorized"),
        (zero_hamiltonian(2), "oscillator", pure2, half, "bad-bath-family"),
        (zero_hamiltonian(9), "copies", uniform9, pure9, "not-thermomajorized"),
        (zero_hamiltonian(9), "copies", pure9, uniform9, "hull-level-cap"),
    ]
    for ham_a, family, p, target, code in cases:
        for _ in range(2):
            with pytest.raises(PreconditionError) as err:
                realize_interior(p, ham_a, target, family, budget=4)
            assert err.value.code == code


def test_the_precheck_holds_one_curve_per_p_on_the_system_hamiltonian(monkeypatch):
    # Searches with p1 twice, then p2, then p2 on a fresh equal Hamiltonian.
    # Each decides its targets as thermo_lorenz_dominates does at slack
    # n * tol. p's padded curve is built once per Hamiltonian and p, and
    # held on the Hamiltonian read-only, keyed on p's bytes; a new p
    # replaces the record whole, and the fresh Hamiltonian builds its own.
    original = energy._padded_lorenz_curve
    built = []
    monkeypatch.setattr(energy, "_padded_lorenz_curve", lambda *args: built.append(1) or original(*args))
    tol = 1e-8
    ham, fresh = (weight_hamiltonian((5, 7, 8), beta=0.7) for _ in range(2))
    gamma = gibbs_vector(ham)
    p1, p2 = np.array([0.6, 0.3, 0.1]), np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(27)
    targets = [*rng.dirichlet(np.ones(3), size=8), *(0.5 * p + 0.5 * gamma for p in (p1, p2)), p1[::-1], p2[::-1]]
    verdicts, records = set(), []
    for ham_a, p, builds in ((ham, p1, 1), (ham, p1, 0), (ham, p2, 1), (fresh, p2, 1)):
        built.clear()
        for q in targets:
            expected = thermo_lorenz_dominates(p, q, gamma, slack=q.size * tol)
            try:
                realize_interior(p, ham_a, q, "copies", budget=1, tol=tol)
            except PreconditionError as err:
                assert err.code == "not-thermomajorized" and not expected
            else:
                assert expected
            verdicts.add(expected)
        assert len(built) == builds
        held = ham_a.__dict__["_held_curve"]
        x, y = dominance_curve(p, gamma)
        assert held.key == p.tobytes() and bit_equal(held.x, x) and bit_equal(held.y, y)
        for array in (held.x, held.y):
            with pytest.raises(ValueError):
                array[0] = 1.0
        records.append(held)
    assert verdicts == {True, False}
    assert records[0] is records[1] and records[2] is not records[1]
    assert ham.__dict__["_held_curve"] is records[2] and records[3] is not records[2]


def test_realize_refuses_a_bad_family_or_system_on_every_call():
    # The ladder checks its family when it is made and caches only what was
    # built, so a refusal repeats on every call rather than only the first.
    qubit = qubit_hamiltonian(beta=1.0)
    w578 = weight_hamiltonian((5, 7, 8), beta=1.0)
    wide = zero_hamiltonian(HULL_LEVEL_CAP + 1)
    cases = [
        (zero_hamiltonian(2), "oscillator", "bad-bath-family"),
        (w578, "oscillator", "bad-bath-family"),
        (qubit, "ladder", "bad-bath-family"),
        (wide, "copies", "hull-level-cap"),
    ]
    for ham_a, family, code in cases:
        gamma = gibbs_vector(ham_a)
        for _ in range(3):
            with pytest.raises(PreconditionError) as err:
                realize_interior(gamma, ham_a, gamma, family, budget=4)
            assert err.value.code == code


def test_realize_returns_a_setup_of_its_own_and_leaves_the_ladder_lean():
    # The setup returned shares the ladder's blocks but not its cached
    # tables: decomposing with it caches the block entries on it alone.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground, target = np.array([1.0, 0.0]), np.array([0.8, 0.2])
    thermal._ladder.cache_clear()
    first = realize_interior(ground, qubit, target, "copies", 64)
    again = realize_interior(ground, qubit, target, "copies", 64)
    ladder = next(s for s in thermal._ladder(qubit, "copies").upto(64) if s.dim_b == first[0].dim_b)
    assert first[0] == again[0] == ladder
    assert first[0] is not ladder and again[0] is not ladder and first[0] is not again[0]
    assert first[0].blocks is ladder.blocks
    decompose_channel_to_classical(first[1], first[0])
    assert "_block_entries" in first[0].__dict__
    assert "_block_entries" not in ladder.__dict__
    # The hulls were built on the ladder's setup: its frame stays there.
    assert "_hull_frame" in ladder.__dict__
    assert "_hull_frame" not in first[0].__dict__ and "_hull_frame" not in again[0].__dict__


def test_realize_returns_a_setup_holding_the_callers_own_system_hamiltonian():
    # The ladder is cached on the Hamiltonian's value, so a search with a
    # second, equal Hamiltonian reads the ladder the first one built; the
    # setup returned still holds the Hamiltonian each caller passed.
    first_ham, second_ham = (qubit_hamiltonian(beta=math.log(2.0)) for _ in range(2))
    assert first_ham == second_ham and first_ham is not second_ham
    ground, target = np.array([1.0, 0.0]), np.array([0.8, 0.2])
    thermal._ladder.cache_clear()
    first = realize_interior(ground, first_ham, target, "copies", 64)
    second = realize_interior(ground, second_ham, target, "copies", 64)
    assert thermal._ladder(second_ham, "copies").ham_a is first_ham
    assert first[0].ham_a is first_ham
    assert second[0].ham_a is second_ham


def test_realize_is_bit_identical_on_a_cold_and_a_warm_ladder():
    # Seeded targets for a ground-state qubit (both families) and the
    # (5, 7, 8) system (copies), with budgets interleaved 4 -> 64 -> 8: the
    # warm pass grows each ladder, then reads a prefix of it. Every call
    # finds the reference's first bath, and its unitary has the same bytes
    # as on a ladder cleared before the call.
    rng = np.random.default_rng(2017)
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground = np.array([1.0, 0.0])
    setup, p578 = _two_copy_preset()
    vertices = ClassicalHull(p578, setup).vertices
    low = vertices[np.argsort(vertices[:, 0])[:2]]
    cases = [(ground, qubit, np.array([1 - a, a]), "copies") for a in rng.uniform(0.05, 0.43, 3)]
    cases += [(ground, qubit, np.array([1 - a, a]), "oscillator") for a in rng.uniform(0.05, 0.46, 3)]
    for mu in rng.uniform(0.3, 0.7, 2):
        target = 0.97 * (mu * low[0] + (1 - mu) * low[1]) + 0.03 * vertices.mean(axis=0)
        cases.append((p578, setup.ham_a, target / target.sum(), "copies"))
    calls = [(budget, *case) for budget in (4, 64, 8) for case in cases]
    thermal._ladder.cache_clear()
    warm = [realize_interior(p, ham_a, target, family, budget) for budget, p, ham_a, target, family in calls]
    found = set()
    for (budget, p, ham_a, target, family), hot in zip(calls, warm):
        thermal._ladder.cache_clear()
        cold = realize_interior(p, ham_a, target, family, budget)
        bath = realize_reference(p, ham_a, target, family, budget)
        if bath is None:
            assert hot is None and cold is None
            continue
        assert hot[0].dim_b == cold[0].dim_b == bath.dim
        assert hot[1].tobytes() == cold[1].tobytes()
        found.add((p.size, family, budget, bath.dim))
    assert {budget for *_, budget, _ in found} == {4, 8, 64}
    assert (3, "copies", 64, 9) in found


def test_a_warm_ladder_builds_each_bath_frame_once():
    # Repeated searches that reach the 32-dimensional copies bath build the
    # hull frame of each bath they try once, on the ladder's setup, on the
    # first search; later searches read it.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground = np.array([1.0, 0.0])
    top16 = alpha_max_achievable(_qubit_copies(4, math.log(2.0))[1], 1)
    top32 = alpha_max_achievable(_qubit_copies(5, math.log(2.0))[1], 1)
    frame = ThermalSetup.__dict__["_hull_frame"]
    thermal._ladder.cache_clear()
    with mock.patch.object(frame, "func", side_effect=frame.func) as built:
        for a in np.linspace(top16, top32, 7)[1:-1]:
            setup, _, _ = realize_interior(ground, qubit, np.array([1 - a, a]), "copies", 64)
            assert setup.dim_b == 32
    built_on = [call.args[0] for call in built.call_args_list]
    ladder = list(thermal._ladder(qubit, "copies").upto(32))
    assert len(built_on) == len(ladder) and all(a is b for a, b in zip(built_on, ladder))


def test_every_cached_hull_table_is_read_only():
    # What hulls share (the frame, the level sets), a hull's atoms and what
    # a Hamiltonian keeps (its Gibbs vector) refuse writes; gibbs_vector
    # hands out a copy of its own.
    setup, p = _two_copy_preset()
    hull = ClassicalHull(p, setup)
    sets, frame = _level_sets(setup.dim_a), setup._hull_frame
    arrays = [
        sets.members, sets.below, sets.above, *sets.holding,
        frame.block_of, frame.labels, frame.slots, frame.taken,
        hull._atoms, setup.ham_a._gibbs, setup.gibbs_b(),
    ]
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    copy = gibbs_vector(setup.ham_a)
    copy[0] = 0.0
    assert setup.ham_a._gibbs[0] > 0.0 and gibbs_vector(setup.ham_a)[0] > 0.0


def test_threads_sharing_a_ladder_build_each_bath_once():
    # Rounds of six threads walking one fresh ladder at once, switching every
    # microsecond: each sees every bath once and in order, and the ladder
    # holds each once. Without the ladder's lock most rounds duplicate a bath.
    # Each thread also builds every bath's hull, whose frame the threads
    # share: every F table is the per-call reference's to the bit.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    dims = [1, 2, 4, 8, 16, 32, 64]
    p = np.array([0.7, 0.3])
    tables = [
        subset_table(s, s.joint_input(p)).tobytes() for s in _BathLadder(qubit, "copies").upto(64)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            ladder = _BathLadder(qubit, "copies")
            walks, hulls = [], []
            start = threading.Barrier(6, timeout=60)

            def walk():
                start.wait()
                setups = list(ladder.upto(64))
                walks.append([s.dim_b for s in setups])
                hulls.append([ClassicalHull(p, s).table.tobytes() for s in setups])

            threads = [threading.Thread(target=walk) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert walks == [dims] * len(threads)
            assert hulls == [tables] * len(threads)
            assert [s.dim_b for s in ladder.upto(64)] == dims
    finally:
        sys.setswitchinterval(interval)


def test_threads_realizing_on_one_ladder_return_the_cold_unitaries():
    # Six threads realize on the (5, 7, 8) system's copies ladder at once,
    # switching every microsecond: first all with one p, then each
    # alternating between two. Every call returns the bath and unitary bytes
    # of a cold single-threaded call, and no hull a step built on holds more
    # than rank+1 placed inputs, each its order's scattered joint input.
    setup, p1 = _two_copy_preset()
    ham_a = setup.ham_a
    p2 = np.array([0.2, 0.3, 0.5])
    cases = {0: [], 1: []}
    for k, p in enumerate((p1, p2)):
        # Near the edge of the two vertices lowest in each level: the walks
        # reach a different set of orders on the same bath's hull.
        vertices = ClassicalHull(p, setup).vertices
        for a, mu in ((0, 0.3), (1, 0.5), (2, 0.7)):
            low = vertices[np.argsort(vertices[:, a])[:2]]
            target = 0.97 * (mu * low[0] + (1 - mu) * low[1]) + 0.03 * vertices.mean(axis=0)
            cases[k].append((p, target / target.sum()))

    def outcome(result):
        return None if result is None else (result[0].dim_b, result[1].tobytes())

    cold = {}
    for p, target in cases[0] + cases[1]:
        thermal._ladder.cache_clear()
        cold[p.tobytes(), target.tobytes()] = outcome(realize_interior(p, ham_a, target, "copies", 27))
    assert sum(result is not None for result in cold.values()) >= 4
    original, stepped = thermal._greedy_unitary, []

    def step(hull, *args):
        stepped.append(hull)
        return original(hull, *args)

    thermal._ladder.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(thermal, "_greedy_unitary", side_effect=step):
            for alternating in (False, True):
                results, failures = [], []
                start = threading.Barrier(6, timeout=60)

                def search(k):
                    start.wait()
                    calls = [cases[(k + i) % 2 if alternating else 0][i % 3] for i in range(6)]
                    try:
                        for p, target in calls:
                            result = realize_interior(p, ham_a, target, "copies", 27)
                            results.append((outcome(result), cold[p.tobytes(), target.tobytes()]))
                    except Exception as exc:  # reported below, not lost in the thread
                        failures.append(exc)

                threads = [threading.Thread(target=search, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == [] and len(results) == 36
                assert all(warm == expected for warm, expected in results)
    finally:
        sys.setswitchinterval(interval)
    assert stepped
    for hull in {id(hull): hull for hull in stepped}.values():
        assert _placed_inputs_match(hull, hull._v)


def _block_data_matches(data, setup, v):
    """``data`` is the block-by-block reference's for the joint input ``v``.

    Its groups, read back in block order, hold each rotated block's
    indices, mass, and its normalized input's stable descending order, with
    the input's values and the block's indices in that order (together,
    the input itself); its pair order is block order.
    """
    rotated, identity = block_data_reference(setup, v)
    members = sorted(
        (position, g, r)
        for g, group in enumerate(data.groups)
        for r, position in enumerate(group.chains.positions)
    )
    groups = [data.groups[g] for _, g, _ in members]
    indices = [tuple(group.indices[r].tolist()) for group, (*_, r) in zip(groups, members)]
    masses = [float(group.masses[r, 0]) for group, (*_, r) in zip(groups, members)]
    return (
        [position for position, _, _ in members] == list(range(len(rotated)))
        and list(data.pairs) == [(g, r) for _, g, r in members]
        and indices == list(data.names) == [block for block, _, _ in rotated]
        and masses == [mass for _, mass, _ in rotated]
        and all(
            np.array_equal(group.chains.order[r], np.argsort(-ref, kind="stable"))
            and bit_equal(group.chains.descending[r], ref[np.argsort(-ref, kind="stable")])
            and group.columns[r].tolist() == [block[k] for k in np.argsort(-ref, kind="stable")]
            for group, (*_, r), (block, _, ref) in zip(groups, members, rotated, strict=True)
        )
        and data.identity.tolist() == identity
    )


def _held_hulls_match(ladder, p):
    """The ladder holds hulls for ``p`` alone.

    Each bath's F table is the per-call reference's, the stacked tables are
    those of the first baths in bath order, and every accepted bath's block
    data is that of ``p``'s joint input.
    """
    held = ladder._held
    setups = ladder._setups[: len(held.hulls)]
    references = [subset_table(s, s.joint_input(p)) for s in setups]
    return (
        held.key == p.tobytes()
        and bool(held.hulls)
        and bit_equal(held.tables, np.array(references[: len(held.tables)]))
        and all(
            hull.setup is s
            and bit_equal(hull.table, table)
            and (
                "_blocks" not in hull.__dict__
                or _block_data_matches(hull._blocks, s, s.joint_input(p))
            )
            for hull, s, table in zip(held.hulls, setups, references, strict=True)
        )
    )


def test_a_ladder_reuses_its_hulls_for_one_p_and_replaces_them_for_another():
    # Searches with p1, p2, p1 on one ladder, each made twice so that the
    # second decides the held baths off their stacked tables, then two
    # threads searching it at once with different p, switching every
    # microsecond. Every unitary has the bytes it has on a cleared ladder,
    # and the ladder holds the hulls of one p only, with their stacked
    # tables and the block data of the baths it accepted: those of the last
    # search to swap in a new set.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    gamma = gibbs_vector(qubit)
    p1, p2 = np.array([1.0, 0.0]), np.array([0.8, 0.2])
    cases = [
        (p1, np.array([0.7, 0.3])),
        (p2, 0.5 * p2 + 0.5 * gamma),
        (p1, np.array([0.6, 0.4])),
    ]
    cold = []
    for p, target in cases:
        thermal._ladder.cache_clear()
        setup, u, _ = realize_interior(p, qubit, target, "copies", 64)
        cold.append((setup.dim_b, u.tobytes()))
    thermal._ladder.cache_clear()
    ladder = thermal._ladder(qubit, "copies")
    for (p, target), (dim_b, u_bytes) in zip(cases, cold):
        for _ in range(2):
            setup, u, _ = realize_interior(p, qubit, target, "copies", 64)
            assert (setup.dim_b, u.tobytes()) == (dim_b, u_bytes)
            assert _held_hulls_match(ladder, p)
        held = ladder._held
        dims = [h.setup.dim_b for h in held.hulls]
        assert len(held.tables) == len(held.hulls) == dims.index(dim_b) + 1
        assert [h.setup.dim_b for h in held.hulls if "_blocks" in h.__dict__] == [dim_b]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            results = {0: [], 1: []}
            start = threading.Barrier(2, timeout=60)

            def search(k):
                start.wait()
                for _ in range(4):
                    p, target = cases[k]
                    setup, u, _ = realize_interior(p, qubit, target, "copies", 64)
                    results[k].append((setup.dim_b, u.tobytes()))

            threads = [threading.Thread(target=search, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {k: [cold[k]] * 4 for k in (0, 1)}
            assert _held_hulls_match(ladder, p1) or _held_hulls_match(ladder, p2)
    finally:
        sys.setswitchinterval(interval)


def test_stacked_distances_of_the_held_baths_match_each_hull_bit_for_bit():
    # A ladder holding every bath up to its budget decides them in one pass
    # over its stacked tables. For random states, hull points, band targets
    # and points pushed off the hulls, every distance it yields equals the
    # held hull's own and the per-call reference's, bit for bit.
    rng = np.random.default_rng(23)
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    setup, p578 = _two_copy_preset()
    cases = [
        (np.array([1.0, 0.0]), qubit, "copies", 64),
        (np.array([0.7, 0.3]), qubit, "oscillator", 12),
        (p578, setup.ham_a, "copies", 27),
    ]
    thermal._ladder.cache_clear()
    for p, ham_a, family, budget in cases:
        ladder = thermal._ladder(ham_a, family)
        far = np.full(p.size, 10.0)
        assert list(ladder.hulls(p, far, 1e-8, budget)) == []  # holds every bath
        held = ladder._held.hulls
        assert [h.setup for h in held] == list(ladder.upto(budget))
        references = [PerCallHull(p, hull.setup) for hull in held]
        targets = list(rng.dirichlet(np.ones(p.size), size=6))
        for hull in held[-3:]:
            inside = _hull_targets(hull.vertices, rng)[-3:]
            band = [q for q, _ in _band_targets(hull, rng, 1e-8)][:3]
            targets += [*inside, *band, *(q + 1e-4 * rng.normal(size=q.size) for q in inside)]
        for q in targets:
            decided = list(ladder.hulls(p, q, np.inf, budget))
            assert [h for _, h, _ in decided] == held
            for (_, hull, d), reference in zip(decided, references, strict=True):
                assert bit_equal(d, hull.distance(q)) and bit_equal(d, reference.distance(q))


def test_a_target_beyond_the_held_baths_finds_the_bath_of_a_cleared_ladder():
    # A first search holds the copies baths up to 8. A target of the same p
    # that only the 32-dimensional bath holds is decided on the held baths in
    # one pass, then the search builds the two baths after them: the same
    # bath and unitary bytes as on a cleared ladder, and no bath beyond it.
    qubit = qubit_hamiltonian(beta=math.log(2.0))
    ground = np.array([1.0, 0.0])
    top = {k: alpha_max_achievable(_qubit_copies(k, math.log(2.0))[1], 1) for k in (2, 3, 4, 5)}
    a_near, a_far = np.mean([top[2], top[3]]), np.mean([top[4], top[5]])
    near, far = np.array([1 - a_near, a_near]), np.array([1 - a_far, a_far])
    thermal._ladder.cache_clear()
    cold = realize_interior(ground, qubit, far, "copies", 64)
    thermal._ladder.cache_clear()
    ladder = thermal._ladder(qubit, "copies")
    assert realize_interior(ground, qubit, near, "copies", 64)[0].dim_b == 8
    assert [h.setup.dim_b for h in ladder._held.hulls] == [1, 2, 4, 8]
    warm = realize_interior(ground, qubit, far, "copies", 64)
    assert warm[0].dim_b == cold[0].dim_b == 32
    assert warm[1].tobytes() == cold[1].tobytes()
    assert [h.setup.dim_b for h in ladder._held.hulls] == [1, 2, 4, 8, 16, 32]
    assert [s.dim_b for s in ladder._setups] == [1, 2, 4, 8, 16, 32]


def test_first_realize_on_a_near_tie_system_warns_as_its_bath_is_built():
    # With beta = ln 2 the system's levels (0, 1) and (1, 2) both sit at
    # energy 0. build_setup warns when the ladder first builds the trivial
    # bath's setup; a later search reads that setup from the ladder.
    ham_a = Hamiltonian((EnergyLabel(0), EnergyLabel(1, 2)), math.log(2.0))
    gamma = gibbs_vector(ham_a)
    thermal._ladder.cache_clear()
    for expected in (1, 0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup, _, _ = realize_interior(gamma, ham_a, gamma, "copies", budget=4)
        assert setup.dim_b == 1
        assert [str(w.message) for w in caught] == [
            f"distinct energy labels {EnergyLabel(0, 1)} and {EnergyLabel(1, 2)} evaluate within "
            "1e-12 of each other; keeping them in separate blocks"
        ] * expected


def test_realize_rejects_bad_targets_and_tolerances_without_an_lp():
    ham_a = qubit_hamiltonian(beta=1.0)
    gamma = gibbs_vector(ham_a)
    with _counting_lps() as lp:
        with pytest.raises(PreconditionError) as err:
            realize_interior(gamma, ham_a, np.array([0.05, 0.95]), "copies", budget=4)
        assert err.value.code == "not-thermomajorized"
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(PreconditionError) as err:
                realize_interior(gamma, ham_a, gamma, "copies", budget=4, tol=tol)
            assert err.value.code == "bad-tolerance"
    assert lp.call_count == 0


def test_greedy_hull_decides_six_copy_bath_exactly():
    ham_a, ham_b = _qubit_copies(6, math.log(2.0))
    setup = build_setup(ham_a, ham_b)
    assert setup.dim_joint == 128 and max(setup.block_sizes()) == 35
    start = time.perf_counter()
    hull = ClassicalHull(np.array([1.0, 0.0]), setup)
    elapsed = time.perf_counter() - start
    assert hull.vertices[:, 1].max() == pytest.approx(alpha_max_achievable(ham_b, 1), abs=1e-12)
    assert hull.vertices[:, 1].min() == 0.0
    assert elapsed < 0.5


def test_random_block_unitary_preserves_energy():
    setup, _ = _two_copy_preset()
    u = random_block_unitary(setup, np.random.default_rng(60))
    assert energy_preservation_defect(u, setup) == 0.0
    assert np.abs(u @ u.conj().T - np.eye(27)).max() < 1e-12


def test_product_combination_validation():
    with pytest.raises(PreconditionError):
        ProductConvexCombination(((0, 1),), (((0.5, (0, 1)),),))
    for terms in (((1.0, (0, 0)),), ((1.0, (0, 1, 2)),), ((1.1, (0, 1)), (-0.1, (1, 0)))):
        with pytest.raises(PreconditionError) as err:
            ProductConvexCombination(((0, 1),), (terms,))
        assert err.value.code == "bad-combination"
    # Blocks of different sizes are checked together: a one-slot block's
    # image must be 0, not a position only the wider block has.
    blocks = ((0,), (1, 2, 3))
    wide = ((0.5, (2, 0, 1)), (0.5, (0, 1, 2)))
    assert ProductConvexCombination(blocks, (((1.0, (0,)),), wide)).term_count == 2
    with pytest.raises(PreconditionError) as err:
        ProductConvexCombination(blocks, (((1.0, (1,)),), wide))
    assert err.value.code == "bad-combination"
