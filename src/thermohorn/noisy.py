"""Noisy operations: channels ``rho -> Tr_B[U (rho ⊗ I/m) U†]``.

The maximally mixed bath is the zero-Hamiltonian limit of a thermal bath,
and with it two exact constructions become available:

* a *decoherence gadget*: conditioning distinct powers of the cyclic shift
  on the system basis kills all off-diagonals of the system state exactly,
  because ``tr(pi^s) = 0`` for every power that is not a multiple of the
  bath dimension;
* a *transition unitary*: any majorized target diagonal is reached by first
  rotating the diagonal where it belongs (Schur-Horn) and then decohering.

Both are held factored as ``U = W_k (V ⊗ 1)``, a conditional shift after a
system rotation ``V`` (the identity for the gadget); see
:class:`NoisyRealization`. Only ``V`` is checked unitary, to
``UNITARITY_TOL``, never the ``(n m)²`` product, the channel is applied as
"decohere ``V rho V†``", and declared outputs are checked to
``REALIZATION_TOL``.

Also here: the same-trick construction solving the one-sided quantum
marginal problem (system no larger than bath), an explicit bistochastic
matrix realizable by a noisy operation but by no single unitary's
entrywise square, and a randomized check of the output-rank ceiling ``m²``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MARGINAL_TOL, OUTPUT_RANK_CUT, REALIZATION_TOL, SUPPORT_ZERO_TOL
from .errors import PreconditionError
from .linalg import (
    MAX_TOTAL_DIM,
    ComplexMatrix,
    DensityMatrix,
    ProbabilityVector,
    apply_channel,
    channel_output,
    channel_state,
    cyclic_shift,
    density_matrix,
    diag_embedding,
    partial_trace_b,
    permutation_matrix,
    probability_vector,
    require_unitary,
    spectrum_sorted,
    tensor,
)
from .majorization import (
    StochasticMatrix,
    _majorized_pair,
    _schur_horn_chain,
    schur_horn_unitary,
    stochastic_matrix,
)

__all__ = [
    "NoisyRealization",
    "decoherence_gadget",
    "horn_transition_unitary",
    "marginal_transition_unitary",
    "noisy_not_unistochastic_witness",
    "support_pattern_obstructs_unistochasticity",
    "max_output_rank_bound",
    "haar_unitary",
]


def haar_unitary(dim: int, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-distributed random unitary (dim 1 is a random phase).

    QR of a complex Ginibre matrix with the phases of ``diag(R)`` moved into
    ``Q`` (Mezzadri, Notices AMS 54, 2007), drawing from ``rng`` in the same
    order as ``scipy.stats.unitary_group``, so seeded draws agree with it.
    """
    if dim == 1:
        return np.array([[np.exp(2j * np.pi * rng.random())]])
    z = (1 / np.sqrt(2.0)) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class NoisyRealization:
    """A unitary on system ⊗ bath together with the maximally mixed bath.

    The unitary is given in one of two forms.

    * *Dense*: ``unitary`` is an ``(n m) × (n m)`` matrix, checked unitary
      to ``UNITARITY_TOL``; ``apply`` traces out the bath of
      ``U (rho ⊗ 1/m) U†``.
    * *Factored*: ``unitary`` is None and ``U = W_k (V ⊗ 1)`` with the
      conditional shift ``W_k = sum_i |i><i| ⊗ pi^(k_i)`` (``k`` =
      ``shift_powers``) and the system rotation ``V`` = ``rotation`` (None
      for the identity). Only ``V`` is checked unitary, to
      ``UNITARITY_TOL``, and the shift images ``(i, b) -> (i, b + k_i mod
      m)`` are checked to be a bijection; the ``(n m)²`` product ``U†U`` is
      never formed. The channel is the exact identity ``Tr_B[W_k (X ⊗ 1/m)
      W_k†] = X ∘ [k_i ≡ k_j mod m]`` with ``X = V rho V†``, which costs
      ``O(n³)``. ``unitary`` is then filled with the dense matrix, built
      as the rows of ``V ⊗ 1`` moved by the shift (no matrix product);
      its zero entries are all +0.0.

    Every channel output is validated as a density matrix to
    ``CHANNEL_OUTPUT_TOL``. When ``input_state``/``output_state`` are
    declared, construction verifies that the channel carries the one to
    the other: the whole output matrix, off-diagonals included, must match
    ``diag(output_state)`` entrywise to ``REALIZATION_TOL``. The achieved
    max-norm miss is kept as ``residual`` (None with no declared states).
    """

    system_dim: int
    bath_dim: int
    unitary: ComplexMatrix | None
    input_state: ProbabilityVector | None = None
    output_state: ProbabilityVector | None = None
    rotation: ComplexMatrix | None = None
    shift_powers: tuple[int, ...] | None = None
    residual: float | None = field(default=None, init=False)

    def __post_init__(self):
        n, m = self.system_dim, self.bath_dim
        if self.shift_powers is None:
            u = np.asarray(self.unitary, dtype=np.complex128)
            if u.shape != (n * m, n * m):
                raise PreconditionError(
                    "dimension-mismatch", f"unitary shape {u.shape}, expected {(n * m, n * m)}"
                )
            require_unitary(u)
        else:
            if self.unitary is not None:
                raise PreconditionError(
                    "conflicting-unitary", "give a dense unitary or shift powers, not both"
                )
            powers = np.asarray(self.shift_powers)
            if powers.shape != (n,) or powers.dtype.kind not in "iu" or m < 1:
                raise PreconditionError(
                    "bad-shift-powers",
                    f"need {n} integer shift powers on a bath of dim >= 1, "
                    f"got {self.shift_powers!r} with bath dim {m}",
                )
            object.__setattr__(self, "shift_powers", tuple(int(k) for k in powers))
            if self.rotation is not None:
                v = np.asarray(self.rotation, dtype=np.complex128)
                if v.shape != (n, n):
                    raise PreconditionError(
                        "dimension-mismatch", f"rotation shape {v.shape}, expected {(n, n)}"
                    )
                require_unitary(v)
                object.__setattr__(self, "rotation", v)
            u = self._dense_shifted()
        object.__setattr__(self, "unitary", u)
        if self.input_state is not None and self.output_state is not None:
            self._check_declared(probability_vector(self.input_state))

    def _declared(self, p: ProbabilityVector, p_prime: ProbabilityVector) -> NoisyRealization:
        """This realization with the validated states ``p -> p_prime`` declared and checked."""
        object.__setattr__(self, "input_state", p)
        object.__setattr__(self, "output_state", p_prime)
        self._check_declared(p)
        return self

    def _check_declared(self, p: ProbabilityVector) -> None:
        """Keep as ``residual`` how far ``p``'s output misses ``output_state``.

        A miss above ``REALIZATION_TOL`` is refused (``realization-mismatch``).
        """
        achieved = self._output(diag_embedding(p))
        err = float(np.max(np.abs(achieved - diag_embedding(self.output_state))))
        object.__setattr__(self, "residual", err)
        if err > REALIZATION_TOL:
            raise PreconditionError(
                "realization-mismatch",
                f"declared output missed by {err} (tolerance {REALIZATION_TOL})",
            )

    def _dense_shifted(self) -> ComplexMatrix:
        """``W_k (V ⊗ 1)`` with ``U[(i, b + k_i), (j, b)] = V[i, j]``, after the bijection check."""
        n, m = self.system_dim, self.bath_dim
        if (n * m) ** 2 > MAX_TOTAL_DIM:
            raise PreconditionError(
                "dimension-overflow",
                f"joint unitary would have {(n * m) ** 2} entries, above the {MAX_TOTAL_DIM} cap",
            )
        powers = np.asarray(self.shift_powers, dtype=np.intp)[:, None]
        images = np.arange(n)[:, None] * m + (np.arange(m) + powers) % m
        if np.any(np.bincount(images.ravel(), minlength=n * m) != 1):
            raise PreconditionError("not-a-permutation", "shift images are not a bijection")
        u = np.zeros((n * m, n * m), dtype=np.complex128)
        if self.rotation is None:
            u[images.ravel(), np.arange(n * m)] = 1
            return u
        # + 0.0 makes a -0.0 entry of V +0.0, like every other zero.
        u[images[:, None, :], np.arange(n * m).reshape(1, n, m)] = (self.rotation + 0.0)[:, :, None]
        return u

    def _output(self, rho: DensityMatrix) -> DensityMatrix:
        """Channel output for a validated system state."""
        if self.shift_powers is None:
            return channel_output(self.unitary, rho, self.bath_state())
        x = rho if self.rotation is None else self.rotation @ rho @ self.rotation.conj().T
        k = np.asarray(self.shift_powers) % self.bath_dim
        return channel_state(np.where(k[:, None] == k[None, :], x, 0.0))

    def bath_state(self) -> DensityMatrix:
        return np.eye(self.bath_dim, dtype=np.complex128) / self.bath_dim

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Channel action ``Tr_B[U (rho ⊗ I/m) U†]``."""
        if self.shift_powers is None:
            return apply_channel(self.unitary, rho, self.bath_state())
        rho = density_matrix(rho)
        if rho.shape[0] != self.system_dim:
            raise PreconditionError(
                "dimension-mismatch",
                f"state of dim {rho.shape[0]} for a system of dim {self.system_dim}",
            )
        return self._output(rho)

    def apply_classical(self, p) -> ProbabilityVector:
        """Diagonal-to-diagonal action on a classical state."""
        out = self.apply(diag_embedding(probability_vector(p)))
        return probability_vector(np.real(np.diag(out)), tol=REALIZATION_TOL)


def decoherence_gadget(n: int) -> NoisyRealization:
    """Conditional-shift unitary whose channel zeroes all off-diagonals.

    ``W = sum_k |k><k| ⊗ pi^k`` on an ``n``-dimensional bath. Off-diagonal
    ``(i, j)`` of the system picks up a factor ``tr(pi^(i-j))/n``, which
    vanishes exactly for ``i != j``; diagonals are untouched. ``n = 1`` is
    the trivial identity channel.
    """
    if n < 1:
        raise PreconditionError("bad-dimension", f"need n >= 1, got {n}")
    return NoisyRealization(n, n, None, shift_powers=range(n))


def horn_transition_unitary(p, p_prime) -> NoisyRealization:
    """Noisy realization of any majorized diagonal transition, bath size n.

    ``U = W (V ⊗ 1)`` where ``V`` rotates ``diag(p)`` so its diagonal reads
    ``p'`` and ``W`` is the decoherence gadget; the channel then maps the
    diagonal state ``p`` exactly to the diagonal state ``p'``. Irrational
    targets are reached to floating-point accuracy — something no finite
    uniform-bath permutation family can do, since those only produce
    rational outputs from rational inputs.

    Each fact is checked once. The inputs are validated as for
    :func:`~thermohorn.majorization.schur_horn_unitary`, which refuses a
    target of another size (``dimension-mismatch``) or one ``p`` does not
    majorize (``majorization-failure``); ``V`` is then the rotation chain's
    unchecked result. The realization is held factored (see
    :class:`NoisyRealization`), which checks ``V`` unitary to
    ``UNITARITY_TOL`` and the declared output ``decohere(V diag(p) V†)``
    against ``diag(p')`` to ``REALIZATION_TOL``, so the ``n² × n²`` matrix
    is built but never multiplied; ``p``, validated here, is not validated
    again there.
    """
    p, p_prime = _majorized_pair(p, p_prime)
    n = p.size
    v = _schur_horn_chain(p, p_prime)
    return NoisyRealization(n, n, None, rotation=v, shift_powers=range(n))._declared(p, p_prime)


def marginal_transition_unitary(
    rho_ab: DensityMatrix, sigma_a: DensityMatrix, dim_a: int, dim_b: int
) -> ComplexMatrix:
    """Joint unitary whose B-marginal trace carries ``rho_ab`` onto ``sigma_a``.

    Feasible (for ``dim_a <= dim_b``) exactly when the block-summed sorted
    spectrum of ``rho_ab`` majorizes the spectrum of ``sigma_a``; otherwise
    :func:`~thermohorn.majorization.schur_horn_unitary` refuses the pair
    with ``majorization-failure``, naming the first failing prefix ("prefix
    k: sum ... of sorted lam is below ... of sorted mu", ``lam`` the
    block-summed spectrum and ``mu`` the target's). The core
    construction on diagonal representatives is

        ``U_0 = sum_ij u_ij |i><j| ⊗ pi^(j-i)``,

    with ``u`` a Schur-Horn unitary for the majorization above: the shift
    powers make every cross term traceless (this is where ``dim_a <= dim_b``
    is needed), so the B-trace of ``U_0 λ̂ U_0†`` is ``diag(|u|² t)``.
    Diagonalizing unitaries of ``rho_ab`` and ``sigma_a`` are composed in to
    handle general inputs. The result is checked before it is returned: it
    must be unitary to ``UNITARITY_TOL`` and carry ``rho_ab`` to within
    ``MARGINAL_TOL`` of ``sigma_a`` (max-norm); a miss raises ``RuntimeError``.
    """
    if dim_a > dim_b:
        raise PreconditionError(
            "dimension-order",
            f"construction requires system dim <= bath dim, got {dim_a} > {dim_b}",
        )
    rho_ab = density_matrix(rho_ab)
    sigma_a = density_matrix(sigma_a)
    if rho_ab.shape[0] != dim_a * dim_b or sigma_a.shape[0] != dim_a:
        raise PreconditionError(
            "dimension-mismatch",
            f"shapes {rho_ab.shape}, {sigma_a.shape} do not match dims ({dim_a}, {dim_b})",
        )
    lam, v_rho = spectrum_sorted(rho_ab)
    blocked = lam.reshape(dim_a, dim_b).sum(axis=1)
    spec_sigma, v_sigma = spectrum_sorted(sigma_a)
    u_small = schur_horn_unitary(blocked, spec_sigma)
    i, j, b = np.ogrid[:dim_a, :dim_a, :dim_b]
    core = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    core[i * dim_b + (b + j - i) % dim_b, j * dim_b + b] = u_small[:, :, None]
    # + 0.0 turns a -0.0 entry of u_small into +0.0, as summing did.
    full = tensor(v_sigma, np.eye(dim_b, dtype=np.complex128)) @ (core + 0.0) @ v_rho.conj().T
    require_unitary(full)
    out = partial_trace_b(full @ rho_ab @ full.conj().T, dim_a, dim_b)
    err = float(np.max(np.abs(out - sigma_a)))
    if err > MARGINAL_TOL:
        raise RuntimeError(f"marginal transition missed its target by {err}")
    return full


def support_pattern_obstructs_unistochasticity(d, *, zero_tol: float = SUPPORT_ZERO_TOL) -> bool:
    """Certificate: some row pair shares exactly one support column.

    If rows ``i`` and ``k`` of a bistochastic ``D`` overlap in exactly one
    column ``j`` (both entries nonzero), any unitary with ``|U|² = D`` would
    need rows ``i`` and ``k`` orthogonal while their inner product has
    modulus ``sqrt(D_ij D_kj) > 0`` — impossible. True means certified
    non-unistochastic; False is inconclusive.
    """
    support = (np.asarray(d, dtype=np.float64) > zero_tol).astype(np.int64)
    return bool(np.any(np.triu(support @ support.T, 1) == 1))


def noisy_not_unistochastic_witness(n: int) -> tuple[StochasticMatrix, NoisyRealization]:
    """A bistochastic matrix realizable noisily but not unistochastically.

    ``D = (1 - 1/n) I + (1/n) pi`` for ``n >= 3``: the unitary that applies
    the shift exactly when the bath sits in its first basis state realizes
    ``p -> D p`` with bath size ``n``, while consecutive rows of ``D`` share
    exactly one support column, triggering the orthogonality obstruction.
    For ``n = 2`` every bistochastic matrix is an entrywise unitary square,
    so no witness exists.
    """
    if n < 3:
        raise PreconditionError(
            "bad-dimension",
            f"witness needs n >= 3 (at n = 2 the bistochastic and unistochastic sets coincide), got {n}",
        )
    shift = cyclic_shift(n).real
    d = stochastic_matrix((1.0 - 1.0 / n) * np.eye(n) + (1.0 / n) * shift)
    # (i, 0) -> (i + 1 mod n, 0); every (i, b) with b > 0 stays put.
    images = [((i + 1) % n) * n if b == 0 else i * n + b for i in range(n) for b in range(n)]
    realization = NoisyRealization(n, n, permutation_matrix(images))
    if not support_pattern_obstructs_unistochasticity(d):
        raise RuntimeError("witness construction lost its support certificate")
    return d, realization


def max_output_rank_bound(n: int, m: int, trials: int, *, seed: int = 0) -> int:
    """Empirical max output rank over random pure inputs; asserts rank <= m².

    Samples Haar unitaries on system ⊗ bath and Haar pure system states,
    computes ``Tr_B[U(|psi><psi| ⊗ I/m)U†]`` and counts eigenvalues above
    ``OUTPUT_RANK_CUT``. Each joint basis image has Schmidt rank at most
    ``m``, and the mixture runs over ``m`` bath states, so ``m²`` bounds the
    rank; any sample violating the bound raises.
    """
    if trials < 1:
        raise PreconditionError("bad-trials", f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    bath = np.eye(m, dtype=np.complex128) / m
    best = 0
    for _ in range(trials):
        u = haar_unitary(n * m, rng)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        psi = np.outer(amps, amps.conj())
        out = apply_channel(u, psi, bath)
        rank = int(np.sum(np.linalg.eigvalsh(out) > OUTPUT_RANK_CUT))
        if rank > m * m:
            raise RuntimeError(
                f"sampled output rank {rank} exceeds the proven ceiling {m * m}"
            )
        best = max(best, rank)
    return best
