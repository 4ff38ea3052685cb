"""Dense complex linear algebra substrate.

Conventions used throughout the package:

* the joint basis of a bipartite space is lexicographic, ``|a, b> = |a> ⊗ |b>``
  with flat index ``a * dim_b + b``;
* a permutation ``sigma`` is stored as a tuple of images, and its matrix
  ``P`` satisfies ``P[sigma[j], j] = 1``, so ``P`` maps ``|j>`` to
  ``|sigma[j]>`` and acts on probability vectors by ``(P v)[sigma[j]] = v[j]``;
* ``ComplexMatrix``, ``DensityMatrix``, ``ProbabilityVector`` and
  ``RealMatrix`` are numpy arrays validated by the constructor functions of
  the same (snake_case) names.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .config import (
    CHANNEL_OUTPUT_TOL,
    DENSITY_HERMITICITY_TOL,
    DENSITY_PSD_TOL,
    DENSITY_TRACE_TOL,
    EIGEN_TIE_TOL,
    EIGEN_TOL,
    PHASE_PIVOT_FLOOR,
    PROBABILITY_SUM_TOL_PER_ENTRY,
    PROBABILITY_TOL,
    SPECTRUM_TOL,
    UNITARITY_TOL,
)
from .errors import PreconditionError

ComplexMatrix = npt.NDArray[np.complex128]
RealMatrix = npt.NDArray[np.float64]
ProbabilityVector = npt.NDArray[np.float64]
DensityMatrix = ComplexMatrix

#: Refuse to build joint spaces larger than this many basis states.
MAX_TOTAL_DIM = 2**20


def complex_matrix(entries) -> ComplexMatrix:
    """Validate and return a 2-d complex matrix with finite entries."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2:
        raise PreconditionError("not-a-matrix", f"expected 2-d array, got shape {mat.shape}")
    if mat.size > MAX_TOTAL_DIM:
        raise PreconditionError(
            "dimension-overflow", f"matrix with {mat.size} entries exceeds the {MAX_TOTAL_DIM} cap"
        )
    if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
        raise PreconditionError("non-finite", "matrix contains NaN or Inf entries")
    return mat


def is_square(mat: ComplexMatrix) -> bool:
    return mat.ndim == 2 and mat.shape[0] == mat.shape[1]


def unitarity_defect(mat: ComplexMatrix) -> float | np.ndarray:
    """Max-norm of ``U† U − I``; 0 for an exact unitary.

    For a stack of matrices, shape ``(k, n, n)``, an array of the ``k``
    members' defects, computed in one stacked product.
    """
    eye = np.eye(mat.shape[-1])
    defect = np.abs(mat.conj().swapaxes(-1, -2) @ mat - eye).max(axis=(-2, -1))
    return float(defect) if np.ndim(mat) == 2 else defect


def require_unitary(mat: ComplexMatrix) -> None:
    """Raise ``not-unitary`` unless ``mat`` is unitary to ``UNITARITY_TOL`` (a NaN defect is not)."""
    defect = unitarity_defect(mat)
    if not defect <= UNITARITY_TOL:
        raise PreconditionError("not-unitary", f"max-norm of U†U − I is {defect}")


def probability_vector(entries, *, tol: float = PROBABILITY_TOL) -> ProbabilityVector:
    """Validate a classical state: nonnegative entries summing to 1.

    Entries in ``[-tol, 0)`` are clamped to zero (floating-point hygiene);
    anything more negative, or a total off unity by more than ``tol``,
    is rejected.
    """
    vec = np.asarray(entries, dtype=np.float64)
    if vec.ndim != 1:
        raise PreconditionError("not-a-vector", f"expected 1-d array, got shape {vec.shape}")
    # ndarray methods and np.maximum: the results of np.all, np.min and
    # np.clip without their wrappers' dispatch (a few µs per call).
    if not np.isfinite(vec).all():
        raise PreconditionError("non-finite", "vector contains NaN or Inf entries")
    if vec.min(initial=0.0) < -tol:
        raise PreconditionError("negative-probability", f"entry {vec.min()} below -{tol}")
    total = float(vec.sum())
    if abs(total - 1.0) > max(tol, PROBABILITY_SUM_TOL_PER_ENTRY * vec.size):
        raise PreconditionError("not-normalized", f"entries sum to {total}, expected 1")
    return np.maximum(vec, 0.0)


def density_matrix(
    entries,
    *,
    herm_tol: float = DENSITY_HERMITICITY_TOL,
    trace_tol: float = DENSITY_TRACE_TOL,
    psd_tol: float = DENSITY_PSD_TOL,
) -> DensityMatrix:
    """Validate a density matrix: Hermitian, unit trace, PSD up to ``psd_tol``."""
    rho = complex_matrix(entries)
    if not is_square(rho):
        raise PreconditionError("not-square", f"density matrix must be square, got {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > herm_tol:
        raise PreconditionError("not-hermitian", f"Hermiticity defect {herm} exceeds {herm_tol}")
    rho = (rho + rho.conj().T) / 2.0
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise PreconditionError("not-unit-trace", f"trace {tr} is not 1 within {trace_tol}")
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    if min_eig < -psd_tol:
        raise PreconditionError("not-psd", f"minimal eigenvalue {min_eig} below -{psd_tol}")
    return rho


def diag_embedding(p: ProbabilityVector) -> DensityMatrix:
    """The diagonal density matrix carrying a classical state."""
    return np.diag(np.asarray(p, dtype=np.complex128))


def permutation_matrix(perm: Sequence[int], *, dtype=np.complex128) -> ComplexMatrix:
    """Matrix of a permutation given as a tuple of images.

    ``P[perm[j], j] = 1``, so ``P @ e_j = e_perm[j]``.
    """
    n = len(perm)
    images = np.asarray(perm, dtype=np.intp)
    if sorted(images.tolist()) != list(range(n)):
        raise PreconditionError("not-a-permutation", f"{tuple(perm)} is not a bijection on 0..{n - 1}")
    mat = np.zeros((n, n), dtype=dtype)
    mat[images, np.arange(n)] = 1
    return mat


def first_non_permutation(perms: Sequence[Sequence[int]], n: int) -> int | None:
    """Index of a row of ``perms`` that is not a bijection on ``0..n-1``, or None.

    The first row of another length, else the first bad one of the images
    stacked into one array and sorted row by row at once.
    """
    if set(map(len, perms)) != {n}:
        return next((k for k, perm in enumerate(perms) if len(perm) != n), None)
    flat = np.fromiter(itertools.chain.from_iterable(perms), dtype=np.int64, count=len(perms) * n)
    wrong = np.sort(flat.reshape(-1, n), axis=1) != np.arange(n)
    return int(wrong.any(axis=1).argmax()) if wrong.any() else None


def _prechecked(cls, *values):
    """The frozen dataclass ``cls`` holding ``values``, with its ``__post_init__`` skipped.

    For a value the package built valid by construction, so that a fact is
    not checked twice: a Birkhoff chain reads each permutation off a perfect
    matching, so it is a bijection, and normalizes its positive weights; an
    energy label formed from integer labels holds exact fractions and a
    positive weight. Outside callers go through ``cls(...)``, which checks.
    """
    obj = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values, strict=True):
        object.__setattr__(obj, field.name, value)
    return obj


def cyclic_shift(n: int, power: int = 1) -> ComplexMatrix:
    """Cyclic shift ``pi^power`` with ``pi |i> = |i+1 mod n>``.

    Integer powers (negative allowed) are exact permutation matrices; a power
    that is 0 mod n is the identity, and no smaller power has a fixed point,
    which is what makes the shift usable as a phase register in the
    decoherence constructions.
    """
    if n < 1:
        raise PreconditionError("bad-dimension", f"need n >= 1, got {n}")
    images = [(i + power) % n for i in range(n)]
    return permutation_matrix(images)


def tensor(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product in the lexicographic basis ``|a, b> = |a> ⊗ |b>``."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.size * b.size > MAX_TOTAL_DIM:
        raise PreconditionError(
            "dimension-overflow",
            f"tensor product would have {a.size * b.size} entries, above the {MAX_TOTAL_DIM} cap",
        )
    return np.kron(a, b)


def partial_trace_b(mat: ComplexMatrix, dim_a: int, dim_b: int) -> ComplexMatrix:
    """Trace out the second factor of a ``dim_a * dim_b`` square matrix."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (dim_a * dim_b, dim_a * dim_b):
        raise PreconditionError(
            "dimension-mismatch",
            f"expected a {dim_a * dim_b}-square matrix for dims ({dim_a}, {dim_b}), got {mat.shape}",
        )
    return np.trace(mat.reshape(dim_a, dim_b, dim_a, dim_b), axis1=1, axis2=3)


def apply_channel(u: ComplexMatrix, rho_a: DensityMatrix, sigma_b: DensityMatrix) -> DensityMatrix:
    """Apply ``rho_a -> Tr_B[U (rho_a ⊗ sigma_b) U†]``.

    ``u`` must be unitary on the joint space to ``UNITARITY_TOL``; the defect
    is reported on failure. The output is validated as a density matrix to
    ``CHANNEL_OUTPUT_TOL``.
    """
    u = np.asarray(u, dtype=np.complex128)
    rho_a = density_matrix(rho_a)
    sigma_b = density_matrix(sigma_b)
    dim_a, dim_b = rho_a.shape[0], sigma_b.shape[0]
    if u.shape != (dim_a * dim_b, dim_a * dim_b):
        raise PreconditionError(
            "dimension-mismatch",
            f"unitary shape {u.shape} does not match joint dimension {dim_a * dim_b}",
        )
    require_unitary(u)
    return channel_output(u, rho_a, sigma_b)


def channel_output(u: ComplexMatrix, rho_a: DensityMatrix, sigma_b: DensityMatrix) -> DensityMatrix:
    """Unchecked kernel of :func:`apply_channel`: the caller vouches for ``u`` and the states."""
    joint = tensor(rho_a, sigma_b)
    out = partial_trace_b(u @ joint @ u.conj().T, rho_a.shape[0], sigma_b.shape[0])
    return channel_state(out)


def channel_state(out: ComplexMatrix) -> DensityMatrix:
    """Validate a channel output as a density matrix to ``CHANNEL_OUTPUT_TOL``."""
    tol = CHANNEL_OUTPUT_TOL
    return density_matrix(out, herm_tol=tol, trace_tol=tol, psd_tol=tol)


def hadamard_square(u: ComplexMatrix) -> RealMatrix:
    """Entrywise squared moduli ``D_ij = |U_ij|²`` of a unitary.

    The result is bistochastic, and ``diag(U p̂ U†) = D p`` for every
    classical state ``p``: conjugating a diagonal matrix and reading the
    diagonal is exactly this linear map.
    """
    u = np.asarray(u, dtype=np.complex128)
    require_unitary(u)
    return (u.real**2 + u.imag**2).astype(np.float64)


def diagonal_split(mat: ComplexMatrix) -> tuple[npt.NDArray[np.complex128], ComplexMatrix]:
    """Split a square matrix as ``diag(d) + Omega`` with ``diag(Omega) = 0`` exactly."""
    mat = np.asarray(mat, dtype=np.complex128)
    if not is_square(mat):
        raise PreconditionError("not-square", f"expected square matrix, got {mat.shape}")
    d = np.diag(mat).copy()
    omega = mat - np.diag(d)
    np.fill_diagonal(omega, 0.0)
    return d, omega


def _canonical_phase(col: npt.NDArray[np.complex128]) -> npt.NDArray[np.complex128]:
    """Rotate a vector's global phase so its largest-modulus entry is real positive."""
    idx = int(np.argmax(np.abs(col)))
    pivot = col[idx]
    if abs(pivot) < PHASE_PIVOT_FLOOR:
        return col
    return col * (abs(pivot) / pivot)


def spectrum_sorted(rho: DensityMatrix) -> tuple[ProbabilityVector, ComplexMatrix]:
    """Non-increasing spectrum and a diagonalizing unitary.

    Returns ``(lam, V)`` with ``V† rho V = diag(lam)`` (equivalently
    ``rho = V diag(lam) V†``) and ``lam`` sorted non-increasingly.

    Determinism: exactly diagonal inputs return the sorting permutation
    itself (identity on degenerate runs, so ``I/n`` maps to ``V = I``); for
    general inputs, eigenvectors within a degenerate cluster are
    phase-canonicalized and ordered lexicographically.
    """
    rho = density_matrix(rho)
    dim = rho.shape[0]
    _, offdiag = diagonal_split(rho)
    if np.count_nonzero(offdiag) == 0:
        values = np.real(np.diag(rho))
        order = np.argsort(-values, kind="stable")
        # V with columns e_{order[k]}: V† rho V = diag sorted.
        return probability_vector(values[order]), permutation_matrix(order)
    try:
        values, vectors = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError("eigensolver-failure", str(exc)) from exc
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    # Deterministic representatives inside degenerate clusters.
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and values[start] - values[stop] <= EIGEN_TIE_TOL:
            stop += 1
        if stop - start > 1:
            cols = [_canonical_phase(vectors[:, k]) for k in range(start, stop)]
            keys = [
                (
                    tuple(np.round(np.abs(c), 9)),
                    tuple(np.round(c.real, 9)),
                    tuple(np.round(c.imag, 9)),
                )
                for c in cols
            ]
            for offset, k in enumerate(sorted(range(len(cols)), key=keys.__getitem__)):
                vectors[:, start + offset] = cols[k]
        else:
            vectors[:, start] = _canonical_phase(vectors[:, start])
        start = stop
    residual = float(np.max(np.abs(vectors @ np.diag(values) @ vectors.conj().T - rho)))
    if residual > EIGEN_TOL:
        raise PreconditionError(
            "eigensolver-failure", f"reconstruction residual {residual} exceeds {EIGEN_TOL}"
        )
    lam = probability_vector(np.clip(values, 0.0, None), tol=SPECTRUM_TOL)
    return lam, vectors
