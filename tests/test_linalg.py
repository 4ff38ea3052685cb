import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermohorn import (
    PreconditionError,
    apply_channel,
    complex_matrix,
    cyclic_shift,
    density_matrix,
    diag_embedding,
    diagonal_split,
    hadamard_square,
    partial_trace_b,
    permutation_matrix,
    probability_vector,
    spectrum_sorted,
    tensor,
    unitarity_defect,
)
from thermohorn.linalg import first_non_permutation, require_unitary

from oracles import bit_equal, probability_vector_reference


def _haar(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_probability_vector_accepts_and_normalizes_tiny_negatives():
    p = probability_vector([1.0, -1e-12, 1e-12])
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-9


def test_probability_vector_rejects_bad_sum_and_large_negative():
    with pytest.raises(PreconditionError):
        probability_vector([0.5, 0.6])
    with pytest.raises(PreconditionError):
        probability_vector([1.1, -0.1])


def _outcome(validate, entries):
    """The validated array, or the error's code and message."""
    try:
        return validate(entries)
    except PreconditionError as exc:
        return exc.code, str(exc)


_EDGES = [0.0, -0.0, -1e-10, -1e-11, -5e-324, 1e-300]
_ENTRY = st.one_of(
    st.sampled_from([*_EDGES, np.nan, np.inf, -np.inf]),
    st.floats(-2e-10, 0.0),
    st.floats(-1.0, 1.0),
)
# Entries of a state: what the check clamps to zero, or a small weight.
_STATE_ENTRY = st.one_of(st.sampled_from(_EDGES), st.floats(-1e-10, 0.0), st.floats(0.0, 0.2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_probability_vector_matches_its_first_form_bit_for_bit(data):
    # Arrays bit-equal (-0.0 and entries in [-tol, 0) included) to the body
    # as first written; NaN, inf, 2-D, negative and off-sum inputs raise the
    # same error with the same message.
    shape = data.draw(st.sampled_from(["state", "state", "as-drawn", "2-d"]))
    entries = data.draw(st.lists(_STATE_ENTRY if shape == "state" else _ENTRY, max_size=8))
    vec = np.array(entries, dtype=np.float64)
    if shape == "state" and vec.size:
        vec[-1] = 1.0 - vec[:-1].sum()  # the other entries, -0.0 included, stay as drawn
    elif shape == "2-d":
        vec = vec.reshape(1, -1)
    got, want = _outcome(probability_vector, vec), _outcome(probability_vector_reference, vec)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert bit_equal(got, want) and got is not vec


def test_density_matrix_rejects_non_hermitian_and_non_psd():
    with pytest.raises(PreconditionError):
        density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(PreconditionError):
        density_matrix(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))


def test_permutation_matrix_maps_columns_to_rows():
    m = permutation_matrix([2, 0, 1])
    v = np.array([10.0, 20.0, 30.0])
    assert np.allclose(m.real @ v, [20.0, 30.0, 10.0])


def test_cyclic_shift_tensor_identity_swaps_blocks():
    m = tensor(cyclic_shift(2), np.eye(2, dtype=complex)).real
    expect = np.zeros((4, 4))
    expect[2, 0] = expect[3, 1] = expect[0, 2] = expect[1, 3] = 1.0
    assert np.array_equal(m, expect)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace_b(rho, 2, 2), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_state_recovers_first_factor():
    rng = np.random.default_rng(3)
    a = density_matrix(np.diag([0.6, 0.4]).astype(complex))
    u = _haar(3, rng)
    b = density_matrix(u @ np.diag([0.5, 0.3, 0.2]).astype(complex) @ u.conj().T)
    assert np.allclose(partial_trace_b(tensor(a, b), 2, 3), a, atol=1e-12)


def test_hadamard_square_dft3_is_flat():
    omega = np.exp(2j * np.pi / 3)
    u = np.array([[omega ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3.0)
    assert np.allclose(hadamard_square(u), np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_hadamard_square_rotation():
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    assert np.allclose(hadamard_square(u), [[c**2, s**2], [s**2, c**2]], atol=1e-15)


def test_hadamard_square_rejects_non_unitary():
    with pytest.raises(PreconditionError):
        hadamard_square(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_hadamard_square_matches_channel_diagonal():
    rng = np.random.default_rng(7)
    u = _haar(4, rng)
    p = rng.dirichlet(np.ones(4))
    direct = np.real(np.diag(u @ np.diag(p).astype(complex) @ u.conj().T))
    assert np.allclose(hadamard_square(u) @ p, direct, atol=1e-12)


def test_apply_channel_with_identity_is_identity():
    rng = np.random.default_rng(11)
    u = _haar(2, rng)
    rho = density_matrix(u @ np.diag([0.7, 0.3]).astype(complex) @ u.conj().T)
    sigma = np.eye(3, dtype=complex) / 3
    out = apply_channel(np.eye(6, dtype=complex), rho, sigma)
    assert np.allclose(out, rho, atol=1e-12)


def test_apply_channel_rejects_non_unitary():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(PreconditionError):
        apply_channel(np.ones((4, 4), dtype=complex), rho, rho)


def test_diagonal_split():
    mat = complex_matrix([[1.0, 2.0j], [-2.0j, 3.0]])
    diag, off = diagonal_split(mat)
    assert np.allclose(diag, [1.0, 3.0])
    assert off[0, 0] == 0 and off[1, 1] == 0
    assert np.allclose(off + np.diag(diag), mat)


def test_spectrum_sorted_descending_and_reconstructs():
    rng = np.random.default_rng(19)
    u = _haar(4, rng)
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    rho = density_matrix(u @ np.diag(lam).astype(complex) @ u.conj().T)
    spec, v = spectrum_sorted(rho)
    assert np.all(np.diff(spec) <= 1e-12)
    assert np.allclose(spec, lam, atol=1e-10)
    assert np.allclose(v.conj().T @ rho @ v, np.diag(spec), atol=1e-8)


def test_spectrum_sorted_on_maximally_mixed_returns_identity_basis():
    rho = np.eye(3, dtype=complex) / 3
    spec, v = spectrum_sorted(rho)
    assert np.allclose(spec, [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(v, np.eye(3), atol=0)


def test_spectrum_sorted_deterministic_under_degeneracy():
    rng = np.random.default_rng(23)
    u = _haar(4, rng)
    lam = np.array([0.35, 0.35, 0.2, 0.1])
    rho = density_matrix(u @ np.diag(lam).astype(complex) @ u.conj().T)
    _, v1 = spectrum_sorted(rho)
    _, v2 = spectrum_sorted(rho.copy())
    assert np.array_equal(v1, v2)


def test_diag_embedding_and_unitarity_defect():
    assert np.allclose(diag_embedding(np.array([0.9, 0.1])), np.diag([0.9, 0.1]))
    assert unitarity_defect(np.eye(5, dtype=complex)) == 0.0
    assert unitarity_defect(2 * np.eye(2, dtype=complex)) == pytest.approx(3.0)
    # A stack gives one defect per member, each as the member alone gives it.
    stack = np.stack([np.eye(2), 2 * np.eye(2), _haar(2, np.random.default_rng(1))]).astype(complex)
    assert unitarity_defect(stack).tolist() == [unitarity_defect(member) for member in stack]


def test_require_unitary_refuses_a_nan_defect():
    # NaN > UNITARITY_TOL is false: the check is written so that NaN fails it.
    u = np.eye(4, dtype=complex)
    u[0, 1] = np.nan
    assert np.isnan(unitarity_defect(u))
    for check in (require_unitary, hadamard_square):
        with pytest.raises(PreconditionError) as err:
            check(u)
        assert err.value.code == "not-unitary"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    rows=st.lists(st.lists(st.integers(-1, 5), min_size=0, max_size=6), min_size=1, max_size=6),
    data=st.data(),
)
def test_first_non_permutation_matches_the_sorted_loop(n, rows, data):
    # Mostly true permutations, with some drawn rows (ragged, repeated or
    # out of range) mixed in; the stacked check names the first row of
    # another length, else the first row the sorted loop rejects.
    rng = np.random.default_rng(n)
    perms = [tuple(int(x) for x in rng.permutation(n)) for _ in rows]
    for k, row in enumerate(rows):
        if data.draw(st.booleans()):
            perms[k] = tuple(row)
    ragged = next((k for k, perm in enumerate(perms) if len(perm) != n), None)
    looped = next((k for k, perm in enumerate(perms) if sorted(perm) != list(range(n))), None)
    assert first_non_permutation(perms, n) == (looped if ragged is None else ragged)
