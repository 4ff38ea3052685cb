from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    augment_recursive,
    birkhoff_chain_reference,
    bit_equal,
    lorenz_margin,
    majorizes_oracle,
    random_bistochastic,
    random_block_unitary,
    schur_horn_product_reference,
    schur_horn_reference,
    thermomajorization_residual,
    thermomajorizes_oracle,
)
from thermohorn import linalg, majorization, thermal
from thermohorn import (
    Hamiltonian,
    PreconditionError,
    ProductConvexCombination,
    birkhoff_decompose,
    build_setup,
    decompose_channel_to_classical,
    first_failing_prefix,
    gibbs_vector,
    haar_unitary,
    hadamard_square,
    majorizes,
    permutation_matrix,
    schur_horn_unitary,
    stochastic_matrix,
    thermo_lorenz_dominates,
    thermomajorizes,
    weight_hamiltonian,
)
from thermohorn.config import MAJORIZATION_SLACK, STOCHASTIC_COL_TOL, THERMO_WITNESS_TOL
from thermohorn.energy import EnergyLabel

#: Curve margins within this of zero are the boundary band, where the LP's
#: verdict at its 1e-8 residual tolerance and HiGHS's 1e-7 feasibility
#: tolerance need not match the curves' at their 1e-10 slack.
LP_BAND = 1e-6
#: The LP is compared only where every nonzero entry of gamma and p is at
#: least this, far above HiGHS's 1e-9 cut for small coefficients.
LP_COEFFICIENT_FLOOR = 1e-6


def _rational_simplex(dim, denominator=12):
    """All lattice points k/denominator on the dim-simplex, as a strategy."""
    return st.lists(
        st.integers(min_value=0, max_value=denominator), min_size=dim, max_size=dim
    ).filter(lambda ks: sum(ks) > 0).map(
        lambda ks: np.array(ks, dtype=np.float64) / sum(ks)
    )


def test_majorizes_basic_chain():
    assert majorizes([1.0, 0.0], [0.7, 0.3])
    assert majorizes([0.7, 0.3], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [0.7, 0.3])
    assert majorizes([0.5, 0.5], [0.5, 0.5])


def test_majorizes_is_permutation_invariant():
    assert majorizes([0.1, 0.6, 0.3], [0.3, 0.3, 0.4])
    assert majorizes([0.6, 0.3, 0.1], [0.4, 0.3, 0.3])


def test_first_failing_prefix_reports_one_based_index():
    assert first_failing_prefix([1.0, 0.0], [0.5, 0.5]) is None
    assert first_failing_prefix([0.5, 0.5], [0.7, 0.3]) == 1
    assert first_failing_prefix([0.5, 0.3, 0.2], [0.5, 0.4, 0.1]) == 2


@settings(max_examples=80, deadline=None)
@given(p=_rational_simplex(4), q=_rational_simplex(4))
def test_majorizes_agrees_with_curve_oracle(p, q):
    assert majorizes(p, q) == majorizes_oracle(p, q)


@settings(max_examples=60, deadline=None)
@given(p=_rational_simplex(4), seed=st.integers(min_value=0, max_value=10**6))
def test_mixing_with_bistochastic_is_always_majorized(p, seed):
    d = random_bistochastic(4, np.random.default_rng(seed))
    assert majorizes(p, d @ p)


def test_thermomajorizes_returns_valid_witness():
    gamma = np.array([2 / 3, 1 / 3])
    p = np.array([0.0, 1.0])
    q = np.array([0.9, 0.1])
    d = thermomajorizes(p, q, gamma)
    assert d is not None
    assert np.abs(d @ gamma - gamma).max() < 1e-8
    assert np.abs(d @ p - q).max() < 1e-8
    stochastic_matrix(d)


def test_thermomajorizes_handles_full_ground_pump():
    gamma = np.array([2 / 3, 1 / 3])
    d = thermomajorizes([0.0, 1.0], [1.0, 0.0], gamma)
    assert d is not None
    assert np.abs(d @ gamma - gamma).max() < 1e-8
    assert np.abs(d[:, 1] - np.array([1.0, 0.0])).max() < 1e-8


def test_thermomajorizes_infeasible_returns_none():
    gamma = np.array([2 / 3, 1 / 3])
    assert thermomajorizes(gamma, [1.0, 0.0], gamma) is None
    assert thermomajorizes([0.8, 0.2], [0.95, 0.05], gamma) is None


def test_thermomajorizes_rejects_zero_gamma_entry():
    with pytest.raises(PreconditionError):
        thermomajorizes([0.5, 0.5], [0.5, 0.5], [1.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(
    p=_rational_simplex(3),
    q=_rational_simplex(3),
    g=st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=3),
)
def test_thermomajorizes_agrees_with_curve_oracle(p, q, g):
    gamma = np.array(g, dtype=np.float64) / sum(g)
    feasible = thermomajorizes(p, q, gamma) is not None
    assert feasible == thermomajorizes_oracle(p, q, gamma)


def _gamma_and_state(draw, n, rng):
    """A Gibbs vector (random, uniform, or at the 700 log-weight edge) and a state ``p``.

    ``p`` is random, has zero entries, or has two entries tied in ``p / gamma``.
    """
    gamma_kind = draw(st.sampled_from(["dirichlet", "uniform", "edge"]))
    if gamma_kind == "uniform":
        gamma = np.full(n, 1.0 / n)
    elif gamma_kind == "edge":
        gamma = _edge_gibbs(n, rng)
    else:
        gamma = rng.dirichlet(np.ones(n))
    p = rng.dirichlet(np.ones(n))
    p_kind = draw(st.sampled_from(["dirichlet", "zeros", "ties"]))
    if p_kind == "zeros":
        p[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    elif p_kind == "ties":
        i, j = rng.choice(n, size=2, replace=False)
        p[j] = p[i] * gamma[j] / gamma[i]
    return gamma, p / p.sum()


def _edge_gibbs(n, rng):
    """A Gibbs vector whose levels span 699.9 in log-weight (just inside ``gibbs_vector``'s limit)."""
    tenths = [0, 6999] + [int(t) for t in rng.integers(0, 7000, size=n - 2)]
    levels = tuple(EnergyLabel(Fraction(t, 10)) for t in rng.permutation(tenths))
    return gibbs_vector(Hamiltonian(levels, 1.0, 1.0))


#: How far, in units of 1e-7, a boundary target is pushed across the edge.
_PUSHES = [-100, -10, -3, -1, 0, 1, 3, 10, 100]


@st.composite
def _thermo_boundary_cases(draw):
    """``(p, q, gamma)`` with ``q`` pushed ``k * 1e-7`` across the edge of what ``p`` reaches.

    ``gamma`` and ``p`` come from :func:`_gamma_and_state`. The boundary
    target mixes ``gamma`` with a state ``r``: the mixtures grow along the
    thermomajorization order as the weight of ``r`` grows, so bisection
    finds where ``p`` stops reaching them, and ``k`` moves that weight.
    """
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma, p = _gamma_and_state(draw, n, rng)
    r = 0.5 * np.eye(n)[rng.integers(n)] + 0.5 * rng.dirichlet(np.ones(n))
    q = _pushed_boundary_target(
        p, gamma, lambda t: (1.0 - t) * gamma + t * r, draw(st.sampled_from(_PUSHES))
    )
    assume(q is not None)
    return p, q, gamma


@st.composite
def _witness_cases(draw):
    """``(p, q, gamma)`` for the constructive witness, ``q`` with zero entries too.

    As :func:`_thermo_boundary_cases`, for ``n`` from 1, with ``r`` zero
    on a random set of entries; where there is no pushed target (``p``
    reaches ``r`` itself, or the push leaves the simplex), ``q`` is ``r``.
    At ``n = 1`` every vector is ``[1]``.
    """
    n = draw(st.integers(1, 6))
    if n == 1:
        return np.ones(1), np.ones(1), np.ones(1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma, p = _gamma_and_state(draw, n, rng)
    r = rng.dirichlet(np.ones(n))
    r[rng.choice(n, size=int(rng.integers(0, n)), replace=False)] = 0.0
    r /= r.sum()
    q = _pushed_boundary_target(
        p, gamma, lambda t: (1.0 - t) * gamma + t * r, draw(st.sampled_from(_PUSHES))
    )
    return p, r if q is None else q, gamma


def _pushed_boundary_target(p, gamma, path, k):
    """The last state ``path(t)`` that ``p`` reaches, with ``t`` moved by ``k * 1e-7``.

    ``path`` must rise along the thermomajorization order from a state
    ``p`` reaches at ``t = 0``. None when ``p`` also reaches ``path(1)``,
    or the moved state has a negative entry.
    """
    if lorenz_margin(p, path(1.0), gamma) >= 0.0:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lorenz_margin(p, path(mid), gamma) >= 0.0 else (lo, mid)
    q = path(lo + k * 1e-7)
    return q / q.sum() if q.min() >= 0.0 else None


def _thermomajorizes_without_lp(p, q, gamma):
    """:func:`thermomajorizes`, asserting that it solves no LP."""
    with mock.patch.object(majorization, "linprog", wraps=majorization.linprog) as lp:
        witness = thermomajorizes(p, q, gamma)
    assert lp.call_count == 0
    return witness


def _assert_witness(witness, p, q, gamma):
    """``witness`` is stochastic, ``D p = q`` and ``D gamma = gamma`` (relative to gamma)."""
    assert witness.min() >= 0.0
    assert np.abs(witness @ p - q).max() <= THERMO_WITNESS_TOL
    assert np.all(np.abs(witness @ gamma - gamma) <= THERMO_WITNESS_TOL * gamma)
    assert np.abs(witness.sum(axis=0) - 1.0).max() <= STOCHASTIC_COL_TOL


@settings(max_examples=150, deadline=None)
@given(case=_thermo_boundary_cases())
def test_thermo_lorenz_verdict_agrees_with_oracle_and_lp(case):
    p, q, gamma = case
    verdict = thermo_lorenz_dominates(p, q, gamma)
    assert verdict == thermomajorizes_oracle(p, q, gamma, MAJORIZATION_SLACK)
    n = p.size
    assert thermo_lorenz_dominates(p, q, np.full(n, 1.0 / n)) == majorizes(p, q)
    witness = _thermomajorizes_without_lp(p, q, gamma)
    assert (witness is not None) == verdict
    if verdict:
        _assert_witness(witness, p, q, gamma)
    # HiGHS drops constraint coefficients below 1e-9, which makes the LP
    # answer a different question once gamma or p has entries that small.
    smallest = min(gamma.min(), p[p > 0].min())
    if abs(lorenz_margin(p, q, gamma)) <= LP_BAND or smallest < LP_COEFFICIENT_FLOOR:
        return
    assert verdict == (thermomajorization_residual(p, q, gamma) <= THERMO_WITNESS_TOL)


@settings(max_examples=200, deadline=None)
@given(case=_witness_cases())
def test_thermomajorizes_builds_a_witness_for_every_accepted_pair(case):
    p, q, gamma = case
    witness = _thermomajorizes_without_lp(p, q, gamma)
    assert (witness is not None) == thermo_lorenz_dominates(p, q, gamma)
    if witness is not None:
        _assert_witness(witness, p, q, gamma)


def test_thermomajorizes_builds_witnesses_at_the_boundary():
    # Just inside the boundary: each target moves mass from the lowest to
    # the highest q/gamma entry of a mixture of p and gamma, to 1e-9, 1e-8
    # and 1e-7 of the edge. An LP at HiGHS's 1e-7 feasibility tolerance
    # missed some of these; the curves' witness meets them to rounding.
    rng = np.random.default_rng(11)
    built = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p, gamma = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        start = (lam := rng.uniform()) * p + (1.0 - lam) * gamma
        order = np.argsort(-(start / gamma))
        move = start[order[-1]] * (np.eye(n)[order[0]] - np.eye(n)[order[-1]])
        for k in (-0.01, -0.1, -1.0):
            q = _pushed_boundary_target(p, gamma, lambda t: start + t * move, k)
            if q is None:
                continue
            witness = _thermomajorizes_without_lp(p, q, gamma)
            _assert_witness(witness, p, q, gamma)
            assert np.abs(witness @ p - q).max() <= MAJORIZATION_SLACK
            built += 1
    assert built > 100


def test_thermomajorizes_fixes_gamma_at_the_700_log_weight_edge():
    # Gibbs vectors spanning 699.9 in log-weight, q a mixture of p and
    # gamma: an LP witness missed D gamma = gamma on every such pair, by
    # up to 1e282 relative, since HiGHS drops coefficients below 1e-9.
    rng = np.random.default_rng(700)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        gamma = _edge_gibbs(n, rng)
        p = rng.dirichlet(np.ones(n))
        q = (lam := rng.uniform()) * p + (1.0 - lam) * gamma
        witness = _thermomajorizes_without_lp(p, q, gamma)
        _assert_witness(witness, p, q, gamma)
        assert np.max(np.abs(witness @ gamma - gamma) / gamma) <= 1e-12


def test_birkhoff_decomposes_known_circulant():
    d = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.2, 0.5, 0.3]])
    deco = birkhoff_decompose(d)
    assert abs(sum(w for w, _ in deco.terms) - 1.0) < 1e-9
    assert len(deco.terms) <= 5
    assert np.abs(deco.to_matrix() - d).max() < 1e-7


def test_convex_permutation_decomposition_validation():
    for terms, code in (
        (((0.5, (0, 1)), (0.5, (1, 1))), "not-a-permutation"),
        (((0.5, (0, 1)), (0.5, (1, 0, 2))), "not-a-permutation"),
        (((1.5, (0, 1)), (-0.5, (1, 0))), "negative-weight"),
        (((0.5, (0, 1)), (0.4, (1, 0))), "weights-not-normalized"),
    ):
        with pytest.raises(PreconditionError) as err:
            majorization.ConvexPermutationDecomposition(terms)
        assert err.value.code == code


def test_birkhoff_rejects_non_bistochastic():
    with pytest.raises(PreconditionError):
        birkhoff_decompose(np.array([[0.9, 0.0], [0.1, 1.0]]))


def test_birkhoff_random_matrices_reconstruct_within_term_bound():
    rng = np.random.default_rng(5)
    matrices = [random_bistochastic(int(rng.integers(2, 7)), rng) for _ in range(40)]
    matrices += [random_bistochastic(n, rng) for n in (8, 12, 16, 20, 25, 30)]
    # A dense 30x30 support: the greedy chain meets the bound of 842 terms.
    matrices.append(random_bistochastic(30, rng, 900))
    for d in matrices:
        n = d.shape[0]
        deco = birkhoff_decompose(d)
        assert len(deco.terms) <= (n - 1) ** 2 + 1
        assert np.abs(deco.to_matrix() - d).max() < 1e-7
        assert deco.reconstruction_error == np.abs(deco.to_matrix() - d).max()
        # The iterative augmenting search explores in the recursive order.
        with mock.patch.object(majorization, "_augment", augment_recursive):
            assert birkhoff_decompose(d).terms == deco.terms


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10**6),
    big=st.integers(min_value=1, max_value=8),
    small=st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=8),
)
def test_birkhoff_weights_near_zero_tol(n, seed, big, small):
    # Permutations weighted 0.5 to 2 zero_tol leave entries on either side of
    # the cut, so the thresholded residual can lose its perfect matching.
    zero_tol = 1e-10
    rng = np.random.default_rng(seed)
    tiny = zero_tol * np.array(small)
    weights = np.concatenate([rng.dirichlet(np.ones(big)) * (1.0 - tiny.sum()), tiny])
    d = sum(w * permutation_matrix(rng.permutation(n)).real for w in weights)
    deco = birkhoff_decompose(d, zero_tol=zero_tol)
    assert np.abs(deco.to_matrix() - d).max() <= 1e-7
    assert min(w for w, _ in deco.terms) >= 0.0
    assert len(deco.terms) <= (n - 1) ** 2 + 1


def _birkhoff_family(family, n, rng):
    """An input matrix, its ``zero_tol`` and whether it must be bistochastic."""
    if family == "mixture":  # 1 to 3n random permutations
        weights = rng.dirichlet(np.ones(int(rng.integers(1, 3 * n + 1))))
        return sum(w * permutation_matrix(rng.permutation(n)).real for w in weights), 1e-10, True
    if family == "haar":  # unistochastic: full support
        u = haar_unitary(n, rng)
        return u.real**2 + u.imag**2, 1e-10, True
    if family == "near-zero-tol":  # as in test_birkhoff_weights_near_zero_tol
        tiny = 1e-10 * rng.uniform(0.5, 2.0, size=int(rng.integers(1, 9)))
        big = rng.dirichlet(np.ones(int(rng.integers(1, 9)))) * (1.0 - tiny.sum())
        weights = np.concatenate([big, tiny])
        return sum(w * permutation_matrix(rng.permutation(n)).real for w in weights), 1e-10, True
    if family == "on-zero-tol":
        # Weights are whole multiples of a power-of-two zero_tol, so every
        # sum and difference is exact: weights of 1 and 2 units leave
        # entries that land exactly on zero_tol and just above it.
        unit = 2.0**-33
        small = rng.integers(1, 3, size=int(rng.integers(1, 2 * n + 1)))
        big = np.floor(rng.dirichlet(np.ones(int(rng.integers(1, n + 1)))) * (2**33 - small.sum()))
        big[0] += 2**33 - small.sum() - big.sum()
        weights = np.concatenate([big, small]) * unit
        return sum(w * permutation_matrix(rng.permutation(n)).real for w in weights), unit, True
    # "perturbed": a mixture with mass added off its support, not bistochastic,
    # so the chain can end on a residual with no perfect matching.
    d = sum(w * permutation_matrix(rng.permutation(n)).real for w in rng.dirichlet(np.ones(n)))
    spots = rng.integers(0, n, size=(int(rng.integers(1, n + 1)), 2))
    d[spots[:, 0], spots[:, 1]] += rng.uniform(0.0, 0.2, size=len(spots))
    return d, 1e-10, False


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["mixture", "haar", "near-zero-tol", "on-zero-tol", "perturbed"]),
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_birkhoff_chain_equals_a_chain_that_recomputes_its_support(family, n, seed):
    # The library keeps one matching and repairs only the columns a step
    # freed; the reference recomputes residual > zero_tol at every step.
    rng = np.random.default_rng(seed)
    if family in ("near-zero-tol", "on-zero-tol"):
        n = 2 + n % 11  # small sizes, where tiny weights meet more often
    d, zero_tol, bistochastic = _birkhoff_family(family, n, rng)
    expected = birkhoff_chain_reference(d, zero_tol, bistochastic)
    try:
        deco = birkhoff_decompose(d, bistochastic, zero_tol=zero_tol)
    except PreconditionError as exc:
        assert exc.code == expected
        return
    except RuntimeError:
        assert expected == "term-bound"
        return
    assert deco.terms == expected
    assert len(deco.terms) <= (n - 1) ** 2 + 1
    assert deco.reconstruction_error == np.abs(deco.to_matrix() - d).max() <= 1e-7


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=10**6),
    degree=st.floats(min_value=0.0, max_value=4.0),
    unmatched=st.integers(min_value=0, max_value=69),
)
def test_augment_equals_the_recursive_search(n, seed, degree, unmatched):
    # Random supports up to 70 rows (masks past 64 bits), about ``degree``
    # rows a column, and a random matching inside them that leaves
    # 1 + unmatched % n columns free: few free rows make long searches.
    rng = np.random.default_rng(seed)
    support = rng.random((n, n)) < degree / n
    k = n - 1 - unmatched % n
    rows, cols = rng.permutation(n)[:k], rng.permutation(n)[: k + 1]
    support[rows, cols[:k]] = True
    masks = [int(sum(1 << int(i) for i in np.flatnonzero(support[:, j]))) for j in range(n)]
    before = [-1] * n
    for i, j in zip(rows.tolist(), cols[:k].tolist()):
        before[i] = j
    free_rows = sum(1 << i for i, j in enumerate(before) if j == -1)
    start = int(cols[k])
    row_match, oracle_match = list(before), list(before)
    path = majorization._augment(masks, row_match, start, free_rows)
    expected = augment_recursive(masks, oracle_match, start)
    assert path == expected
    assert row_match == oracle_match
    if not expected:
        assert row_match == before
        return
    assert sorted(path) == [i for i in range(n) if row_match[i] != before[i]]
    assert all(masks[row_match[i]] >> i & 1 for i in path)
    assert before[path[-1]] == -1


def test_birkhoff_matching_depth_is_not_bounded_by_the_recursion_limit():
    # Matching the shifted identity walks one augmenting path through
    # every column: past 1000 levels for a recursive search.
    eye = np.eye(1100)
    d = 0.5 * eye + 0.5 * np.roll(eye, 1, axis=0)
    deco = birkhoff_decompose(d)
    assert [w for w, _ in deco.terms] == [0.5, 0.5]
    assert np.array_equal(deco.to_matrix(), d)


def test_schur_horn_frozen_pair():
    v = schur_horn_unitary([0.7, 0.3], [0.5, 0.5])
    assert np.abs(hadamard_square(v) @ np.array([0.7, 0.3]) - 0.5).max() < 1e-12


def test_schur_horn_reaches_uniform_from_pure():
    v = schur_horn_unitary([1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3])
    out = hadamard_square(v) @ np.array([1.0, 0.0, 0.0])
    assert np.abs(out - 1 / 3).max() < 1e-12


def test_schur_horn_handles_unsorted_inputs():
    lam = np.array([0.1, 0.5, 0.4])
    mu = np.array([0.3, 0.2, 0.5])
    v = schur_horn_unitary(lam, mu)
    assert np.abs(hadamard_square(v) @ lam - mu).max() < 1e-9


def test_schur_horn_equal_multisets_give_permutation():
    lam = np.array([0.5, 0.2, 0.3])
    mu = np.array([0.2, 0.3, 0.5])
    v = schur_horn_unitary(lam, mu)
    assert np.allclose(np.abs(v) ** 2, np.abs(v) ** 2 > 0.5, atol=1e-12)
    assert np.abs(hadamard_square(v) @ lam - mu).max() < 1e-12


def test_schur_horn_rejects_non_majorized_and_names_prefix():
    with pytest.raises(PreconditionError) as err:
        schur_horn_unitary([0.5, 0.5], [0.7, 0.3])
    assert "prefix 1" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(["dirichlet", "ties", "zeros"]),
)
def test_schur_horn_random_majorized_pairs(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    if kind == "dirichlet":
        lam = rng.dirichlet(np.ones(n))
    else:  # entries on a 1/k grid repeat, and with "zeros" some vanish
        counts = rng.integers(0 if kind == "zeros" else 1, 3, size=n)
        counts[int(rng.integers(n))] += 1
        lam = counts / counts.sum()
    mus = [random_bistochastic(n, rng) @ lam]
    if kind != "dirichlet":
        mus.append(lam[rng.permutation(n)])
    for mu in mus:
        v = schur_horn_unitary(lam, mu)
        assert np.abs(v @ v.conj().T - np.eye(n)).max() < 1e-9
        assert np.abs(hadamard_square(v) @ lam - mu).max() < 1e-9


def _schur_horn_pair(n, kind, rng):
    """A majorized pair: generic, with repeated entries, with zeros, equal multisets or a uniform target."""
    if kind == "generic":
        lam = rng.dirichlet(np.ones(n))
    else:  # entries on a 1/k grid repeat, and for some kinds vanish
        counts = rng.integers(0 if kind != "degenerate" else 1, 4, size=n)
        counts[int(rng.integers(n))] += 1
        lam = counts / counts.sum()
    if kind == "permuted":
        return lam, lam[rng.permutation(n)]
    if kind == "uniform":
        return lam, np.full(n, 1.0 / n)
    mu = random_bistochastic(n, rng, int(rng.integers(1, 4))) @ lam
    if kind == "degenerate":  # average runs of a random order: ties in mu too
        order = rng.permutation(n)
        for run in np.array_split(order, max(1, n // 3)):
            mu[run] = mu[run].mean()
    return lam, mu


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    kind=st.sampled_from(["generic", "degenerate", "zeros", "permuted", "uniform"]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_schur_horn_matches_the_reference_chain_bit_for_bit(n, kind, seed):
    # Values and the signs of zero entries: the rotation chain that tracks
    # its next pair by two moving indices builds what the chain that rescans
    # the diagonal every step built.
    lam, mu = _schur_horn_pair(n, kind, np.random.default_rng(seed))
    assert bit_equal(schur_horn_unitary(lam, mu), schur_horn_reference(lam, mu))


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.sampled_from(["generic", "degenerate", "zeros", "permuted", "uniform"]),
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_stacked_schur_horn_blocks_match_the_reference_chain_bit_for_bit(shapes, seed):
    # Pairs of mixed sizes in a shuffled order: each size is rotated as one
    # stack, yet every rotation has the bits, zero signs included, of the
    # reference chain run on its pair alone.
    rng = np.random.default_rng(seed)
    pairs = [majorization._majorized_pair(*_schur_horn_pair(n, kind, rng)) for n, kind in shapes]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    rotations = majorization._schur_horn_blocks(pairs)
    assert len(rotations) == len(pairs)
    for (lam, mu), v in zip(pairs, rotations):
        assert bit_equal(v, schur_horn_reference(lam, mu))


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.sampled_from(["generic", "degenerate", "zeros", "permuted", "uniform"]),
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_rotations_placed_by_index_equal_the_product_form(shapes, seed):
    # Each core is scattered into place, not multiplied by two sorting
    # permutations: every product entry is one core entry plus exact zeros,
    # so the values are the product's, and every imaginary part is +0.0.
    rng = np.random.default_rng(seed)
    pairs = [majorization._majorized_pair(*_schur_horn_pair(n, kind, rng)) for n, kind in shapes]
    rotations = majorization._schur_horn_blocks(pairs)
    for (lam, mu), v in zip(pairs, rotations):
        for rotation in (v, schur_horn_unitary(lam, mu), majorization._schur_horn_chain(lam, mu)):
            assert np.array_equal(rotation, schur_horn_product_reference(lam, mu))
            assert not np.signbit(rotation.imag).any()


def test_schur_horn_checks_its_inputs_and_result_once(monkeypatch):
    calls = []
    # The result is checked by the blockwise runner in majorization, which
    # reads the orthogonality defects once, on a stack of one core.
    for module, name in ((majorization, "probability_vector"), (majorization, "_orthogonality_defects")):
        original = getattr(module, name)

        def counting(*args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    schur_horn_unitary([0.6, 0.3, 0.1], [0.4, 0.35, 0.25])
    assert sorted(calls) == ["_orthogonality_defects", "probability_vector", "probability_vector"]


def test_birkhoff_chain_and_its_blocks_skip_the_permutation_check(monkeypatch):
    # The chain reads each permutation off a perfect matching, so neither
    # birkhoff_decompose nor decompose_channel_to_classical checks one; the
    # public constructors still refuse a non-permutation from outside.
    checked = []

    def counting(perms, n):
        checked.append(len(perms))
        return linalg.first_non_permutation(perms, n)

    monkeypatch.setattr(majorization, "first_non_permutation", counting)
    monkeypatch.setattr(thermal, "first_non_permutation", counting)
    rng = np.random.default_rng(3)
    d = random_bistochastic(12, rng)
    deco = birkhoff_decompose(d)
    w578 = weight_hamiltonian((5, 7, 8), beta=1.0)
    setup = build_setup(w578, w578)
    product = decompose_channel_to_classical(random_block_unitary(setup, rng), setup)
    assert checked == []
    assert np.abs(deco.to_matrix() - d).max() <= 1e-7
    assert len(product.block_terms) == len(setup.blocks)
    for call, code in (
        (lambda: majorization.ConvexPermutationDecomposition(((1.0, (0, 0)),)), "not-a-permutation"),
        (lambda: ProductConvexCombination(((0, 1),), (((1.0, (1, 1)),),)), "bad-combination"),
    ):
        with pytest.raises(PreconditionError) as err:
            call()
        assert err.value.code == code
    assert checked == [1, 1]


def test_birkhoff_refuses_an_empty_matrix():
    with pytest.raises(PreconditionError) as err:
        birkhoff_decompose(np.zeros((0, 0)))
    assert err.value.code == "empty-matrix"


@pytest.mark.parametrize("require_bistochastic", [True, False])
def test_birkhoff_refuses_a_nan_entry_as_non_finite(require_bistochastic):
    # NaN fails every comparison the input check makes, so it was read as
    # outside the support and the chain refused the rest as matching-failure.
    d = np.full((3, 3), 1 / 3)
    d[1, 2] = np.nan
    with pytest.raises(PreconditionError) as err:
        birkhoff_decompose(d, require_bistochastic)
    assert err.value.code == "non-finite"


def test_schur_horn_refuses_a_nan_rotation(monkeypatch):
    lam, mu = [0.6, 0.3, 0.1], [0.4, 0.35, 0.25]
    monkeypatch.setattr(majorization, "_givens_core", lambda x, target: [[np.nan] * 3] * 3)
    with pytest.raises(PreconditionError) as err:
        schur_horn_unitary(lam, mu)
    assert err.value.code == "not-unitary"


def test_schur_horn_blocks_report_the_first_pair_to_fail(monkeypatch):
    # Pairs of sizes 2, 3, 2, 3: the stacks are checked by size, yet the
    # first failing pair in order is reported, with its own error, and a
    # chain that raises comes after the failing checks before it.
    rng = np.random.default_rng(8)
    pairs = []
    for n in (2, 3, 2, 3):
        lam = rng.dirichlet(np.ones(n))
        pairs.append((lam, random_bistochastic(n, rng) @ lam))
    chain = majorization._schur_horn_chain
    rotations = majorization._schur_horn_blocks(pairs)
    for (lam, mu), v in zip(pairs, rotations):
        assert bit_equal(v, chain(lam, mu))
    core = majorization._givens_core

    def faulty(faults):
        calls = iter(range(len(pairs)))  # the chains run one pair at a time, in pair order

        def run(x, target):
            fault = faults.get(next(calls))
            if fault == "raise":
                raise RuntimeError("rotation chain lost its pairing invariant")
            rows = core(x, target)
            if fault == "scaled":
                return [[entry * (1 + 1e-6) for entry in row] for row in rows]
            return rows[::-1] if fault == "flipped" else rows
        return run

    for faults, blocks, error, message in (
        ({1: "scaled", 2: "flipped"}, None, PreconditionError, "not-unitary"),
        ({1: "flipped", 2: "scaled"}, None, RuntimeError, "missed its target"),
        ({3: "flipped", 1: "scaled"}, None, PreconditionError, "not-unitary"),
        ({3: "scaled"}, "abcd", RuntimeError, "rotation for block d failed its check: not-unitary"),
        ({2: "raise", 1: "scaled"}, "abcd", RuntimeError, "rotation for block b"),
        ({2: "raise", 3: "scaled"}, "abcd", RuntimeError, "pairing invariant"),
    ):
        monkeypatch.setattr(majorization, "_givens_core", faulty(faults))
        with pytest.raises(error, match=message):
            majorization._schur_horn_blocks(pairs, blocks)
