import sys

import numpy as np
import pytest
from scipy.stats import unitary_group

from thermohorn import (
    EnergyLabel,
    Hamiltonian,
    NoisyRealization,
    PreconditionError,
    decoherence_gadget,
    haar_unitary,
    horn_transition_unitary,
    marginal_transition_unitary,
    max_output_rank_bound,
    noisy_not_unistochastic_witness,
    spectrum_sorted,
    support_pattern_obstructs_unistochasticity,
    thermal_decoherence_gadget,
)
from thermohorn import linalg, noisy
from thermohorn.config import REALIZATION_TOL
from thermohorn.linalg import apply_channel, partial_trace_b

from oracles import bit_equal, conditional_shift, shares_one_support_column, witness_unitary


def _random_density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_realization_validates_unitary():
    with pytest.raises(PreconditionError):
        NoisyRealization(2, 2, np.ones((4, 4), dtype=complex))


def test_realization_checks_the_whole_declared_output():
    # The Hadamard carries (1, 0) to |+><+|: right diagonal, off-diagonals 1/2.
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(PreconditionError) as excinfo:
        NoisyRealization(2, 1, hadamard, input_state=(1, 0), output_state=(0.5, 0.5))
    assert excinfo.value.code == "realization-mismatch"


@pytest.mark.parametrize("n", range(3, 7))
def test_witness_unitary_matches_dense_formula(n):
    _, realization = noisy_not_unistochastic_witness(n)
    assert bit_equal(realization.unitary, witness_unitary(n))


def test_horn_checks_its_rotation_not_the_joint_unitary(monkeypatch):
    original = linalg.unitarity_defect
    shapes = []

    def counting(mat):
        shapes.append(np.shape(mat))
        return original(mat)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermohorn" and getattr(module, "unitarity_defect", None) is original:
            monkeypatch.setattr(module, "unitarity_defect", counting)
    checked = []

    def recording(mat):
        checked.append(mat)
        linalg.require_unitary(mat)

    monkeypatch.setattr(noisy, "require_unitary", recording)
    p = np.random.default_rng(6).dirichlet(np.ones(6))
    realization = horn_transition_unitary(p, np.full(6, 1 / 6))
    assert len(checked) == 1 and checked[0] is realization.rotation
    # V is checked once, by the realization; no 36 × 36 matrix is checked.
    assert shapes == [(6, 6)]


def test_horn_validates_its_states_once(monkeypatch):
    # p and p' once each, as schur_horn_unitary validates them; the
    # realization checks its output from the validated p.
    original = linalg.probability_vector
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thermohorn" and getattr(module, "probability_vector", None) is original:
            monkeypatch.setattr(module, "probability_vector", counting)
    for n in (2, 5):
        calls.clear()
        p = np.random.default_rng(n).dirichlet(np.ones(n))
        realization = horn_transition_unitary(p, np.full(n, 1 / n))
        assert len(calls) == 2
        assert realization.residual <= REALIZATION_TOL
    # A declared pair handed to the constructor is still validated there.
    calls.clear()
    NoisyRealization(2, 2, None, input_state=[0.5, 0.5], output_state=[0.5, 0.5], shift_powers=(0, 1))
    assert len(calls) == 1


def test_horn_rejects_a_unitary_rotation_that_misses_the_target(monkeypatch):
    p = np.random.default_rng(6).dirichlet(np.ones(4))
    monkeypatch.setattr(noisy, "_schur_horn_chain", lambda a, b: np.eye(len(a), dtype=complex))
    with pytest.raises(PreconditionError) as excinfo:
        horn_transition_unitary(p, np.full(4, 1 / 4))
    assert excinfo.value.code == "realization-mismatch"


def test_horn_rejects_a_rotation_that_is_not_unitary(monkeypatch):
    p = np.random.default_rng(6).dirichlet(np.ones(4))
    good = noisy._schur_horn_chain
    monkeypatch.setattr(noisy, "_schur_horn_chain", lambda a, b: good(a, b) * (1 + 1e-6))
    with pytest.raises(PreconditionError) as excinfo:
        horn_transition_unitary(p, np.full(4, 1 / 4))
    assert excinfo.value.code == "not-unitary"


def test_realization_refuses_a_unitary_with_a_nan_entry():
    u = np.eye(4, dtype=complex)
    u[0, 1] = np.nan
    with pytest.raises(PreconditionError) as excinfo:
        NoisyRealization(2, 2, u)
    assert excinfo.value.code == "not-unitary"


def test_factored_realization_rejects_bad_shift_data():
    for kwargs, code in (
        (dict(unitary=np.eye(4)), "conflicting-unitary"),
        (dict(unitary=None, shift_powers=(0, 1, 2)), "bad-shift-powers"),
        (dict(unitary=None, shift_powers=(0.0, 1.0)), "bad-shift-powers"),
        (dict(unitary=None, shift_powers=(0, 1), rotation=np.eye(3)), "dimension-mismatch"),
    ):
        kwargs.setdefault("shift_powers", (0, 1))
        with pytest.raises(PreconditionError) as excinfo:
            NoisyRealization(2, 2, **kwargs)
        assert excinfo.value.code == code


def test_factored_realization_refuses_an_oversized_joint_space():
    # 33 × 33 joint states: the (n m)² entries exceed linalg.MAX_TOTAL_DIM.
    with pytest.raises(PreconditionError) as excinfo:
        decoherence_gadget(33)
    assert excinfo.value.code == "dimension-overflow"
    with pytest.raises(PreconditionError) as excinfo:
        horn_transition_unitary(np.eye(33)[0], np.full(33, 1 / 33))
    assert excinfo.value.code == "dimension-overflow"


def _horn_input(n, kind, rng):
    """A classical state of one of four kinds, and a majorized target."""
    if kind == "dirichlet":
        p = rng.dirichlet(np.ones(n))
    elif kind == "one-hot":
        p = np.zeros(n)
        p[rng.integers(n)] = 1.0
    elif kind == "ties":
        p = rng.integers(1, 4, size=n).astype(float)
        p /= p.sum()
    else:  # zero entries
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
        p[rng.integers(n)] += 0.5
        p /= p.sum()
    mix = sum(w * np.eye(n)[rng.permutation(n)] for w in rng.dirichlet(np.ones(3)))
    return p, mix @ p


@pytest.mark.parametrize("n", range(2, 25))
def test_horn_unitary_is_the_dense_product_up_to_signed_zeros(n):
    rng = np.random.default_rng(n)
    p, q = _horn_input(n, ("dirichlet", "one-hot", "ties", "zeros")[n % 4], rng)
    realization = horn_transition_unitary(p, q)
    product = conditional_shift(range(n), n) @ np.kron(realization.rotation, np.eye(n))
    # The BLAS product leaves -0.0 in some zero entries, depending on its
    # kernel; the factored form writes +0.0 for every zero entry.
    assert bit_equal(realization.unitary, product + 0.0)
    assert 0.0 <= realization.residual <= REALIZATION_TOL


def _realizations(rng):
    """Factored realizations of every kind: Horn, decoherence, thermal gadget."""
    for n in (1, 2, 3, 5, 8):
        p, q = _horn_input(max(n, 2), "dirichlet", rng)
        yield horn_transition_unitary(p, q)
        yield decoherence_gadget(n)
        levels = rng.integers(0, 3, size=n)
        yield thermal_decoherence_gadget(
            Hamiltonian(tuple(EnergyLabel(int(x)) for x in levels), 1.0, 1.0),
            np.flatnonzero(rng.random(n) < 0.5),
        )


def test_factored_apply_matches_the_dense_channel():
    rng = np.random.default_rng(21)
    for realization in _realizations(rng):
        for _ in range(3):
            rho = _random_density(realization.system_dim, rng)
            dense = apply_channel(realization.unitary, rho, realization.bath_state())
            assert np.abs(realization.apply(rho) - dense).max() <= 1e-13


@pytest.mark.parametrize("n", range(1, 11))
def test_decoherence_gadget_matches_dense_formula(n):
    gadget = decoherence_gadget(n)
    assert bit_equal(gadget.unitary, conditional_shift(range(n), n))
    assert gadget.rotation is None and gadget.residual is None


def test_decoherence_gadget_kills_all_coherences_exactly():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        gadget = decoherence_gadget(n)
        assert gadget.bath_dim == n
        rho = _random_density(n, rng)
        out = gadget.apply(rho)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() == 0.0
        assert not np.any(np.signbit(off.real) | np.signbit(off.imag))
        assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-12


def test_horn_transition_hits_irrational_target_exactly():
    target = np.array([2**-0.5, 1 - 2**-0.5])
    realization = horn_transition_unitary([1.0, 0.0], target)
    assert realization.bath_dim == 2
    out = realization.apply_classical(np.array([1.0, 0.0]))
    assert np.abs(out - target).max() < 1e-12


def test_horn_transition_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        weights = rng.dirichlet(np.ones(3))
        perms = [rng.permutation(n) for _ in range(3)]
        q = sum(w * p[np.argsort(perm)] for w, perm in zip(weights, perms))
        realization = horn_transition_unitary(p, q)
        assert realization.bath_dim == n
        assert np.abs(realization.apply_classical(p) - q).max() < 1e-9


def test_horn_transition_rejects_non_majorized():
    with pytest.raises(PreconditionError):
        horn_transition_unitary([0.5, 0.5], [0.8, 0.2])


def test_horn_transition_error_codes_come_from_schur_horn():
    # Majorization and sizes are checked once, as schur_horn_unitary checks them.
    for p, q, code in (
        ([0.5, 0.5], [0.8, 0.2], "majorization-failure"),
        ([0.5, 0.3, 0.2], [0.4, 0.35, 0.25, 0.0], "dimension-mismatch"),
        ([0.5, 0.3, 0.2], [0.6, 0.4], "dimension-mismatch"),
    ):
        with pytest.raises(PreconditionError) as err:
            horn_transition_unitary(p, q)
        assert err.value.code == code


def _feasible_marginal_instance(dim_a, dim_b, rng):
    rho = _random_density(dim_a * dim_b, rng)
    lam, _ = spectrum_sorted(rho)
    blocked = lam.reshape(dim_a, dim_b).sum(axis=1)
    mix = np.zeros(dim_a)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        perm = rng.permutation(dim_a)
        shuffled = np.zeros(dim_a)
        shuffled[perm] = blocked
        mix += w * shuffled
    basis = haar_unitary(dim_a, rng)
    sigma = basis @ np.diag(mix).astype(complex) @ basis.conj().T
    return rho, sigma


def test_marginal_transition_achieves_target():
    rng = np.random.default_rng(8)
    for dim_a, dim_b in ((2, 2), (2, 4), (3, 3), (3, 5)):
        rho, sigma = _feasible_marginal_instance(dim_a, dim_b, rng)
        u = marginal_transition_unitary(rho, sigma, dim_a, dim_b)
        out = partial_trace_b(u @ rho @ u.conj().T, dim_a, dim_b)
        assert np.abs(out - sigma).max() < 1e-8


def test_marginal_transition_verifies_its_result(monkeypatch):
    # Every spectrum majorizes the maximally mixed target, which the identity
    # rotation misses unless the block sums are already uniform.
    rho = _random_density(6, np.random.default_rng(8))
    sigma = np.eye(2, dtype=complex) / 2
    monkeypatch.setattr(
        "thermohorn.noisy.schur_horn_unitary", lambda p, q: np.eye(len(p), dtype=complex)
    )
    with pytest.raises(RuntimeError, match="missed its target"):
        marginal_transition_unitary(rho, sigma, 2, 3)


def test_marginal_transition_rejects_dim_order():
    rng = np.random.default_rng(9)
    rho = _random_density(6, rng)
    sigma = _random_density(3, rng)
    with pytest.raises(PreconditionError):
        marginal_transition_unitary(rho, sigma, 3, 2)


def test_marginal_transition_rejects_infeasible_spectrum():
    rho = np.eye(4, dtype=complex) / 4
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError):
        marginal_transition_unitary(rho, sigma, 2, 2)


def test_marginal_transition_refusal_names_the_failing_prefix(monkeypatch):
    # Majorization is checked once, by schur_horn_unitary, which names the
    # first sorted prefix of the block-summed spectrum that falls short.
    calls = []
    checked = noisy.schur_horn_unitary

    def recording(lam, mu):
        calls.append(1)
        return checked(lam, mu)

    monkeypatch.setattr(noisy, "schur_horn_unitary", recording)
    rho = np.eye(4, dtype=complex) / 4
    sigma = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError) as err:
        marginal_transition_unitary(rho, sigma, 2, 2)
    assert err.value.code == "majorization-failure"
    assert "prefix 1: sum 0.5 of sorted lam is below 1.0 of sorted mu" in str(err.value)
    assert calls == [1]


def test_marginal_feasibility_is_necessary_on_random_channels():
    from thermohorn.majorization import majorizes

    rng = np.random.default_rng(10)
    for _ in range(200):
        dim_a, dim_b = 2, int(rng.integers(2, 5))
        rho = _random_density(dim_a * dim_b, rng)
        u = haar_unitary(dim_a * dim_b, rng)
        sigma = partial_trace_b(u @ rho @ u.conj().T, dim_a, dim_b)
        lam, _ = spectrum_sorted(rho)
        blocked = lam.reshape(dim_a, dim_b).sum(axis=1)
        spec_sigma, _ = spectrum_sorted(sigma / np.trace(sigma).real)
        assert majorizes(blocked, spec_sigma, slack=1e-8)


def test_support_pattern_certificate():
    d3, _ = noisy_not_unistochastic_witness(3)
    assert support_pattern_obstructs_unistochasticity(d3)
    assert not support_pattern_obstructs_unistochasticity(np.full((3, 3), 1 / 3))
    rotation = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert not support_pattern_obstructs_unistochasticity(rotation)


def test_support_pattern_certificate_matches_pairwise_search():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        mat = rng.random((n, n)) * (rng.random((n, n)) < rng.random())
        expected = shares_one_support_column(mat)
        assert support_pattern_obstructs_unistochasticity(mat) is expected


def test_noisy_witness_realizes_its_matrix():
    for n in (3, 4, 5):
        d, realization = noisy_not_unistochastic_witness(n)
        assert realization.system_dim == n and realization.bath_dim == n
        for j in range(n):
            basis = np.zeros(n)
            basis[j] = 1.0
            out = realization.apply_classical(basis)
            assert np.abs(out - d[:, j]).max() < 1e-12


def test_noisy_witness_channel_formula():
    n = 4
    _, realization = noisy_not_unistochastic_witness(n)
    rng = np.random.default_rng(12)
    rho = _random_density(n, rng)
    shift = np.roll(np.eye(n), 1, axis=0).astype(complex)
    expected = ((n - 1) * rho + shift @ rho @ shift.conj().T) / n
    assert np.abs(realization.apply(rho) - expected).max() < 1e-12


def test_noisy_witness_rejects_small_dims():
    with pytest.raises(PreconditionError):
        noisy_not_unistochastic_witness(2)


def test_output_rank_never_exceeds_bath_squared():
    assert max_output_rank_bound(4, 2, trials=50, seed=1) <= 4
    assert max_output_rank_bound(5, 2, trials=50, seed=2) <= 4


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 9, 16, 27, 40])
def test_haar_unitary_reproduces_scipy_draws(dim):
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = haar_unitary(dim, rng)
        ref = unitary_group.rvs(dim, random_state=ref_rng)
        assert np.array_equal(u, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
