import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermohorn import (
    EnergyLabel,
    Hamiltonian,
    PreconditionError,
    build_setup,
    classical_reachable_set,
    gibbs_vector,
    oscillator_hamiltonian,
    qubit_hamiltonian,
    trivial_hamiltonian,
    weight_hamiltonian,
    zero_hamiltonian,
)
from thermohorn import energy
from thermohorn.thermal import _BathLadder

from oracles import bit_equal, gibbs_reference, label_blocks, oscillator_bath_reference


def test_energy_label_addition_is_exact():
    a = EnergyLabel(Fraction(1, 3), Fraction(2))
    b = EnergyLabel(Fraction(1, 6), Fraction(3, 2))
    c = a + b
    assert c.quantum_mult == Fraction(1, 2)
    assert c.weight_factor == Fraction(3)


def test_energy_label_rejects_nonpositive_weight():
    with pytest.raises(PreconditionError):
        EnergyLabel(0, 0)


def test_energy_value_combines_quantum_and_weight():
    label = EnergyLabel(2, Fraction(1, 2))
    beta = math.log(2.0)
    assert label.energy(beta, 1.5) == pytest.approx(3.0 + 1.0)


def test_gibbs_vector_qubit():
    ham = qubit_hamiltonian(beta=math.log(2.0))
    assert np.abs(gibbs_vector(ham) - np.array([2 / 3, 1 / 3])).max() < 1e-15


def test_gibbs_vector_oscillator():
    ham = oscillator_hamiltonian(3, beta=math.log(2.0))
    assert np.abs(gibbs_vector(ham) - np.array([4 / 7, 2 / 7, 1 / 7])).max() < 1e-15


def test_gibbs_vector_weight_labels():
    ham = weight_hamiltonian((5, 7, 8), beta=1.0)
    assert np.abs(gibbs_vector(ham) - np.array([0.25, 0.35, 0.40])).max() < 1e-15


def test_gibbs_vector_rejects_overflow_spread():
    ham = Hamiltonian((EnergyLabel(0), EnergyLabel(10**4)), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        gibbs_vector(ham)
    # At the 700 log-weight edge: just under it every occupation stays positive.
    under = Hamiltonian((EnergyLabel(0), EnergyLabel(1), EnergyLabel(Fraction(6999, 10))), 1.0, 1.0)
    assert gibbs_vector(under).min() > 0.0
    over = Hamiltonian((EnergyLabel(0), EnergyLabel(1), EnergyLabel(Fraction(7001, 10))), 1.0, 1.0)
    with pytest.raises(PreconditionError):
        gibbs_vector(over)


def test_free_energy_matches_log_partition():
    ham = oscillator_hamiltonian(4, beta=0.7, base_quantum=1.3)
    z = np.exp(-0.7 * 1.3 * np.arange(4)).sum()
    assert ham.free_energy() == pytest.approx(-math.log(z) / 0.7)


def test_build_setup_qubit_oscillator_blocks():
    ham_a = qubit_hamiltonian(beta=1.0)
    ham_b = oscillator_hamiltonian(3, beta=1.0)
    setup = build_setup(ham_a, ham_b)
    assert setup.blocks == ((0,), (1, 3), (2, 4), (5,))
    assert setup.block_sizes() == (1, 2, 2, 1)


def test_build_setup_rejects_mismatched_ensembles():
    with pytest.raises(PreconditionError):
        build_setup(qubit_hamiltonian(beta=1.0), oscillator_hamiltonian(3, beta=2.0))
    with pytest.raises(PreconditionError):
        build_setup(
            qubit_hamiltonian(beta=1.0, base_quantum=1.0),
            oscillator_hamiltonian(3, beta=1.0, base_quantum=2.0),
        )


def test_build_setup_warns_on_near_coincident_distinct_labels():
    beta = math.log(2.0)
    levels = (EnergyLabel(0), EnergyLabel(1), EnergyLabel(0, Fraction(1, 2)))
    ham_a = Hamiltonian(levels, beta, 1.0)
    with pytest.warns(UserWarning):
        setup = build_setup(ham_a, trivial_hamiltonian(beta))
    assert len(setup.blocks) == 3


def _copies(ham, k):
    levels = (EnergyLabel(),)
    for _ in range(k):
        levels = tuple(a + b for a in levels for b in ham.levels)
    return Hamiltonian(levels, ham.beta, ham.base_quantum)


_MIXED = Hamiltonian(
    tuple(EnergyLabel(q, w) for q, w in [("1/3", 1), ("1/2", "2/3"), ("5/6", 1), ("1/2", 1)]), 0.7
)
_CANCELLING = Hamiltonian(tuple(EnergyLabel(0, w) for w in ("3/2", 1, "2/3", "9/4")), 0.7)


@pytest.mark.parametrize(
    "ham_a, ham_b",
    [
        (_MIXED, Hamiltonian(tuple(EnergyLabel(q) for q in ("1/4", "1/6", "7/12", "1/12")), 0.7)),
        (_MIXED, _CANCELLING),
        (_CANCELLING, _CANCELLING),
        (_MIXED, _copies(_MIXED, 2)),
        (qubit_hamiltonian(0.7, 2), oscillator_hamiltonian(7, 0.7)),
        (weight_hamiltonian((5, 7, 8), 1.0), _copies(weight_hamiltonian((5, 7, 8), 1.0), 3)),
        (oscillator_hamiltonian(3, 0.7), _copies(oscillator_hamiltonian(3, 0.7), 4)),
    ],
    ids=["mixed-denominators", "cancelling-weights", "cancelling-squared", "mixed-copies",
         "qubit-oscillator", "w578-copies", "qutrit-copies"],
)
def test_build_setup_integer_keys_match_label_grouping(ham_a, ham_b):
    # Joint states share a block exactly when their summed EnergyLabels are
    # equal: weights (2/3)(3/2) and 1 * 1 meet, quanta 1/3 + 7/12 and
    # 5/6 + 1/12 meet.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        setup = build_setup(ham_a, ham_b)
    assert setup.blocks == label_blocks(ham_a, ham_b)


def test_build_setup_integer_keys_still_warn_on_a_near_tie():
    # 4/3 quanta and 1/3 quanta at weight 1/2 are distinct labels whose
    # energies agree at beta = ln 2; against a half-quantum ladder each pair
    # of shifted copies ties again, and every pair stays in its own block.
    beta = math.log(2.0)
    ham_a = Hamiltonian((EnergyLabel("4/3"), EnergyLabel("1/3", "1/2")), beta)
    ham_b = Hamiltonian(tuple(EnergyLabel(Fraction(k, 2)) for k in range(3)), beta)
    with pytest.warns(UserWarning, match="evaluate within 1e-12"):
        setup = build_setup(ham_a, ham_b)
    assert setup.blocks == label_blocks(ham_a, ham_b) == ((0,), (1,), (2,), (3,), (4,), (5,))


def test_setup_computes_its_per_setup_facts_once_and_read_only():
    setup = build_setup(zero_hamiltonian(3), zero_hamiltonian(3))
    for method in (setup.gibbs_b, setup.block_of, lambda: setup.class_targets(0)):
        first = method()
        assert method() is first and not first.flags.writeable
    with mock.patch.object(energy, "_block_class_targets", wraps=energy._block_class_targets) as made:
        for _ in range(3):
            assert setup.class_targets(0).shape == (1680, 9)
    assert made.call_count == 0
    fresh = build_setup(zero_hamiltonian(3), zero_hamiltonian(3))
    with mock.patch.object(energy, "_block_class_targets", wraps=energy._block_class_targets) as made:
        for p in ([0.5, 0.3, 0.2], [0.6, 0.2, 0.2]):
            classical_reachable_set(np.array(p), fresh)
    assert made.call_count == 1


# With beta = ln 2 a weight factor 2^-k shifts a level by exactly k quanta in
# real arithmetic, so these labels are distinct but often tie in floats.
_NEAR_TIE_LEVELS = st.builds(
    EnergyLabel,
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 4)]),
)


@settings(max_examples=100, deadline=None)
@given(
    levels_a=st.lists(_NEAR_TIE_LEVELS, min_size=1, max_size=4),
    levels_b=st.lists(_NEAR_TIE_LEVELS, min_size=1, max_size=4),
    beta=st.sampled_from([math.log(2.0), 0.7]),
)
def test_build_setup_near_tie_labels(levels_a, levels_b, beta):
    ham_a = Hamiltonian(tuple(levels_a), beta, 1.0)
    ham_b = Hamiltonian(tuple(levels_b), beta, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setup = build_setup(ham_a, ham_b)
    joint = [la + lb for la in levels_a for lb in levels_b]
    assert sorted(i for block in setup.blocks for i in block) == list(range(setup.dim_joint))
    block_labels = [{joint[i] for i in block} for block in setup.blocks]
    assert all(len(labels) == 1 for labels in block_labels)
    distinct = [labels.pop() for labels in block_labels]
    assert len(set(distinct)) == len(distinct)  # so near-tie labels stay apart
    energies = [label.energy(beta, 1.0) for label in distinct]
    near_tie = any(
        abs(e1 - e2) < 1e-12 for e1, e2 in itertools.combinations(energies, 2)
    )
    assert any(issubclass(w.category, UserWarning) for w in caught) == near_tie


def test_two_thermal_copies_block_structure():
    ham_a = weight_hamiltonian((5, 7, 8), beta=1.0)
    ham_b = Hamiltonian(
        tuple(a + b for a in ham_a.levels for b in ham_a.levels), 1.0, 1.0
    )
    setup = build_setup(ham_a, ham_b)
    sizes = sorted(setup.block_sizes())
    assert sizes == [1, 1, 1, 3, 3, 3, 3, 3, 3, 6]
    assert math.prod(math.factorial(s) for s in sizes) == 33592320


def test_joint_input_is_kronecker_product():
    ham_a = qubit_hamiltonian(beta=1.0)
    ham_b = oscillator_hamiltonian(2, beta=1.0)
    setup = build_setup(ham_a, ham_b)
    p = np.array([0.3, 0.7])
    assert np.allclose(setup.joint_input(p), np.kron(p, gibbs_vector(ham_b)))


def test_zero_hamiltonian_gives_single_block():
    setup = build_setup(zero_hamiltonian(3), zero_hamiltonian(3))
    assert setup.blocks == (tuple(range(9)),)
    assert np.allclose(setup.gibbs_b(), np.full(3, 1 / 3))


def test_block_of_lookup_matches_blocks():
    setup = build_setup(qubit_hamiltonian(beta=1.0), oscillator_hamiltonian(4, beta=1.0))
    lookup = setup.block_of()
    for b, block in enumerate(setup.blocks):
        for idx in block:
            assert lookup[idx] == b


def _baths(ham_a, family, budget):
    """The family's bath Hamiltonians up to dimension ``budget``, from a fresh ladder.

    The ladder builds each bath's setup, and so its near-tie warnings; the
    tests that read them build their own setups.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [setup.ham_b for setup in _BathLadder(ham_a, family).upto(budget)]


# Mixed denominators in both components; weight products that cancel.
_MIXED_SYSTEM = Hamiltonian(
    (EnergyLabel("1/2", "2/3"), EnergyLabel("1/3", "3/2"), EnergyLabel("4/3")), 0.9, 1.3
)


@pytest.mark.parametrize(
    "ham_a",
    [qubit_hamiltonian(beta=math.log(2.0)), weight_hamiltonian((5, 7, 8), beta=1.0), _MIXED_SYSTEM],
    ids=["qubit", "w578", "mixed"],
)
def test_copies_baths_extend_integer_labels_as_label_sums(ham_a):
    # Each copies bath is the previous one's integer labels joined with the
    # system's: no EnergyLabel is added, and the levels, blocks, Gibbs vector
    # (to the bit) and near-tie warnings are those of the summed labels.
    with mock.patch.object(EnergyLabel, "__add__", side_effect=AssertionError) as added:
        baths = _baths(ham_a, "copies", 81)
    assert added.call_count == 0
    levels = (EnergyLabel(),)
    for ham_b in baths:
        summed = Hamiltonian(levels, ham_a.beta, ham_a.base_quantum)
        assert ham_b.levels == summed.levels
        assert bit_equal(gibbs_vector(ham_b), gibbs_reference(summed))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup = build_setup(ham_a, ham_b)
            reference = build_setup(ham_a, summed)
        messages = [str(w.message) for w in caught]
        assert messages[: len(messages) // 2] == messages[len(messages) // 2 :]
        assert setup.blocks == reference.blocks == label_blocks(ham_a, summed)
        assert bit_equal(setup.gibbs_b(), reference.gibbs_b())
        levels = tuple(a + b for a in levels for b in ham_a.levels)
    assert len(baths) == 1 + int(math.log(81, ham_a.dim) + 1e-9)


@pytest.mark.parametrize(
    "ham_a",
    [
        qubit_hamiltonian(beta=math.log(2.0)),
        qubit_hamiltonian(0.7, Fraction(1, 2)),
        Hamiltonian((EnergyLabel(0), EnergyLabel("2/3"), EnergyLabel(2)), 0.8),
        Hamiltonian((EnergyLabel("1/2"), EnergyLabel("3/2"), EnergyLabel("7/2")), 0.9, 1.5),
        Hamiltonian((EnergyLabel("1/3"), EnergyLabel("1/2"), EnergyLabel("5/6")), 1.1),
    ],
    ids=["qubit", "half-quantum", "two-thirds", "offset-halves", "sixths"],
)
def test_oscillator_baths_on_integer_labels_match_the_fraction_gcd_ladder(ham_a):
    # Each oscillator bath is built on the system's integer labels, spaced
    # by the gcd of their differences: the levels, the Gibbs vector (to the
    # bit) and the blocks of the ladder spaced by the gcd of the Fraction
    # gaps. "offset-halves" keeps the system's denominator 2 for a spacing
    # of 1, over which the bath's own labels would need no denominator.
    baths = _baths(ham_a, "oscillator", 12)
    assert [ham_b.dim for ham_b in baths] == list(range(1, 13))
    for m, ham_b in enumerate(baths, start=1):
        reference = oscillator_bath_reference(ham_a, m)
        assert ham_b.levels == reference.levels
        assert bit_equal(gibbs_vector(ham_b), gibbs_vector(reference))
        assert bit_equal(gibbs_vector(ham_b), gibbs_reference(reference))
        setup, expected = build_setup(ham_a, ham_b), build_setup(ham_a, reference)
        assert setup.blocks == expected.blocks == label_blocks(ham_a, reference)
        assert bit_equal(setup.gibbs_b(), expected.gibbs_b())


def test_copies_baths_keep_the_near_tie_warnings():
    # With beta = ln 2 the weight factor 2 lowers a level by one quantum:
    # the labels (0, 1), (1, 2) and (2, 4) all sit at energy 0.
    ham_a = Hamiltonian((EnergyLabel(0), EnergyLabel(1, 2)), math.log(2.0))
    *_, two_copies = _baths(ham_a, "copies", 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_setup(ham_a, two_copies)
    assert [str(w.message) for w in caught] == [
        f"distinct energy labels {l1} and {l2} evaluate within 1e-12 of each other; "
        "keeping them in separate blocks"
        for l1, l2 in (
            (EnergyLabel(0, 1), EnergyLabel(1, 2)),
            (EnergyLabel(1, 2), EnergyLabel(2, 4)),
            (EnergyLabel(2, 4), EnergyLabel(3, 8)),
        )
    ]


@settings(max_examples=150, deadline=None)
@given(
    levels=st.lists(
        st.builds(
            EnergyLabel,
            st.fractions(min_value=-50, max_value=50, max_denominator=10**20),
            st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**20),
        ),
        min_size=1,
        max_size=6,
    ),
    beta=st.sampled_from([math.log(2.0), 0.7, 1e-3]),
    quantum=st.sampled_from([1.0, 0.37]),
)
def test_gibbs_vector_from_integer_labels_is_the_label_formula_to_the_bit(levels, beta, quantum):
    ham = Hamiltonian(tuple(levels), beta, quantum)
    try:
        expected = gibbs_reference(ham)
    except (ValueError, OverflowError):
        return
    spread = np.ptp([lv.log_gibbs_weight(beta, quantum) for lv in levels])
    if spread > 700:
        with pytest.raises(PreconditionError):
            gibbs_vector(ham)
        return
    assert bit_equal(gibbs_vector(ham), expected)
