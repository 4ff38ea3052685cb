import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermohorn import (
    EnergyLabel,
    Hamiltonian,
    PreconditionError,
    build_setup,
    gibbs_vector,
    oscillator_hamiltonian,
    qubit_hamiltonian,
    trivial_hamiltonian,
    weight_hamiltonian,
    zero_hamiltonian,
)


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
