"""Closed-form qubit transitions with finite baths, and cooling limits.

Every Gibbs-preserving stochastic map on a qubit is

    ``D_alpha = [[1 - a, a*g1/g2], [a, 1 - a*g1/g2]]``,  0 <= a <= g2/g1,

a one-parameter family; the endpoint ``a = g2/g1 = exp(-beta*dE)`` sends any
state to the extreme point ``p* = (1 - x p1, x p1)``. Finite baths cannot
reach that endpoint: for a bath with top-level degeneracy ``g_max`` and
top-level thermal occupation ``gamma_max``, every energy-preserving unitary
obeys ``a <= x (1 - g_max gamma_max)``, strictly below ``x``. The exact
classical/quantum ceiling is

    ``a_achievable = sum over levels E with E - dE in the spectrum of
      min(g_E, g_{E-dE}) * exp(-beta E)/Z``,

which meets the bound exactly when the spectrum is closed under adding
``dE`` (below the top) and degeneracies never decrease going up. For the
``m``-level equally spaced ladder the ceiling has the closed form
``alpha_max = 1 - (1 - e^{-b})/(1 - e^{-mb})`` with ``b = beta*dE``, and
converting the best reachable state to a temperature yields the
unattainability-type bound chain implemented in :func:`third_law_bounds`.

Temperatures are in energy units (k_B = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import (
    ALPHA_RANGE_SLACK,
    FREE_ENERGY_SLACK,
    GIBBS_RATIO_TOL,
    OCCUPATION_SLACK,
    SUMMARY_BETA_TOL,
)
from .energy import EnergyLabel, Hamiltonian, oscillator_hamiltonian
from .errors import PreconditionError
from .linalg import ProbabilityVector, probability_vector
from .majorization import StochasticMatrix, stochastic_matrix

__all__ = [
    "QubitGibbs",
    "BathSpectrumSummary",
    "qubit_gibbs",
    "d_alpha",
    "d_alpha_fractions",
    "p_star",
    "alpha_max_oscillator",
    "bath_spectrum_summary",
    "oscillator_summary",
    "alpha_bound_general",
    "alpha_max_achievable",
    "extract_alpha",
    "third_law_bounds",
    "oscillator_final_temperature",
    "final_temperature",
]


@dataclass(frozen=True)
class QubitGibbs:
    """Qubit thermal data: splitting, inverse temperature, Gibbs vector."""

    delta_e: float
    beta: float
    gamma: ProbabilityVector

    def __post_init__(self):
        if not (math.isfinite(self.delta_e) and self.delta_e > 0):
            raise PreconditionError("bad-gap", f"delta_e must be positive, got {self.delta_e}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise PreconditionError("bad-beta", f"beta must be positive, got {self.beta}")
        gamma = probability_vector(self.gamma)
        if gamma.size != 2 or gamma[1] <= 0 or gamma[0] < gamma[1]:
            raise PreconditionError(
                "bad-gibbs", f"need gamma_1 >= gamma_2 > 0 summing to 1, got {gamma}"
            )
        ratio = gamma[1] / gamma[0]
        expected = math.exp(-self.beta * self.delta_e)
        if abs(ratio - expected) > GIBBS_RATIO_TOL:
            raise PreconditionError(
                "bad-gibbs",
                f"gamma_2/gamma_1 = {ratio} does not match exp(-beta*dE) = {expected}",
            )
        object.__setattr__(self, "gamma", gamma)

    @property
    def boltzmann_ratio(self) -> float:
        """x = gamma_2 / gamma_1 = exp(-beta * delta_e)."""
        return float(self.gamma[1] / self.gamma[0])


def qubit_gibbs(beta: float, delta_e: float) -> QubitGibbs:
    """Build the qubit Gibbs data from beta and the level splitting."""
    if not (math.isfinite(beta) and beta > 0):
        raise PreconditionError("bad-beta", f"beta must be positive, got {beta}")
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise PreconditionError("bad-gap", f"delta_e must be positive, got {delta_e}")
    x = math.exp(-beta * delta_e)
    return QubitGibbs(delta_e, beta, np.array([1.0, x]) / (1.0 + x))


def d_alpha(alpha: float, qg: QubitGibbs) -> StochasticMatrix:
    """The Gibbs-preserving stochastic map at parameter ``alpha``.

    ``alpha = 0`` is the identity; ``alpha = gamma_2`` thermalizes
    completely; the maximal ``alpha = gamma_2/gamma_1`` produces ``p*``.
    """
    x = qg.boltzmann_ratio
    if not (-ALPHA_RANGE_SLACK <= alpha <= x + ALPHA_RANGE_SLACK):
        raise PreconditionError(
            "alpha-out-of-range", f"need 0 <= alpha <= gamma_2/gamma_1 = {x}, got {alpha}"
        )
    alpha = min(max(alpha, 0.0), x)
    return stochastic_matrix([[1.0 - alpha, alpha / x], [alpha, 1.0 - alpha / x]])


def d_alpha_fractions(alpha: Fraction, gamma1: Fraction, gamma2: Fraction) -> tuple:
    """Exact-rational ``D_alpha``; preserves the Gibbs vector exactly.

    All three arguments must be Fractions with ``gamma1 + gamma2 = 1`` and
    ``0 <= alpha <= gamma2/gamma1``.
    """
    if gamma1 + gamma2 != 1 or gamma2 <= 0 or gamma1 < gamma2:
        raise PreconditionError("bad-gibbs", "need gamma1 >= gamma2 > 0 summing to 1")
    if not 0 <= alpha <= gamma2 / gamma1:
        raise PreconditionError(
            "alpha-out-of-range", f"need 0 <= alpha <= gamma_2/gamma_1, got {alpha}"
        )
    ratio = gamma1 / gamma2
    return ((1 - alpha, alpha * ratio), (alpha, 1 - alpha * ratio))


def p_star(p, qg: QubitGibbs) -> ProbabilityVector:
    """The extreme reachable state ``(1 - x p1, x p1)`` at maximal alpha."""
    p = probability_vector(p)
    if p.size != 2:
        raise PreconditionError("dimension-mismatch", f"need a qubit state, got dim {p.size}")
    x = qg.boltzmann_ratio
    return probability_vector([1.0 - x * p[0], x * p[0]])


def alpha_max_oscillator(m: int, beta_delta_e: float) -> float:
    """Ceiling on ``alpha`` with an ``m``-level equally spaced bath.

    ``1 - (1 - e^{-b})/(1 - e^{-mb})``; strictly increasing in ``m`` with
    limit ``e^{-b}``.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise PreconditionError("bad-bath-size", f"need an integer m >= 2, got {m!r}")
    if not (math.isfinite(beta_delta_e) and beta_delta_e > 0):
        raise PreconditionError("bad-beta", f"need beta*delta_e > 0, got {beta_delta_e}")
    return 1.0 - math.expm1(-beta_delta_e) / math.expm1(-m * beta_delta_e)


@dataclass(frozen=True)
class BathSpectrumSummary:
    """Spectral facts about a bath that control qubit transitions.

    ``matching_closure``: every level except the highest has a partner one
    qubit splitting above it. ``degeneracy_monotone``: degeneracies never
    decrease moving up by one splitting (whenever the partner exists). The
    finite-bath bound is tight exactly when both hold.
    """

    dim: int
    e_min: float
    e_max: float
    g_max: int
    gamma_max: float
    free_energy: float
    matching_closure: bool
    degeneracy_monotone: bool
    beta: float

    def __post_init__(self):
        # gamma_max may underflow to exactly 0.0 for very cold or very tall
        # baths; the extraction bound then degrades to the trivial ceiling,
        # which is still valid, so 0.0 is allowed here.
        if not 0.0 <= self.gamma_max <= 1.0 + OCCUPATION_SLACK:
            raise PreconditionError("bad-occupation", f"gamma_max {self.gamma_max} outside [0, 1]")
        if self.free_energy > self.e_min + FREE_ENERGY_SLACK:
            raise PreconditionError(
                "bad-free-energy", f"free energy {self.free_energy} exceeds E_min {self.e_min}"
            )
        if self.g_max < 1:
            raise PreconditionError("bad-degeneracy", f"g_max must be >= 1, got {self.g_max}")


def bath_spectrum_summary(ham_b: Hamiltonian, delta_quanta) -> BathSpectrumSummary:
    """Summarize a bath spectrum relative to a qubit splitting.

    ``delta_quanta`` is the qubit gap in units of the Hamiltonian's base
    quantum, as an exact rational; closure and monotonicity are evaluated on
    exact labels, not floats.
    """
    gap = EnergyLabel(Fraction(delta_quanta))
    if gap.quantum_mult <= 0:
        raise PreconditionError("bad-gap", f"qubit splitting must be positive, got {delta_quanta}")
    degs = ham_b.degeneracies()
    energies = {label: label.energy(ham_b.beta, ham_b.base_quantum) for label in degs}
    top = max(energies, key=lambda lv: (energies[lv], lv))
    log_z = ham_b.log_partition()
    gamma_max = math.exp(top.log_gibbs_weight(ham_b.beta, ham_b.base_quantum) - log_z)
    closure = all(label + gap in degs for label in degs if label != top)
    monotone = all(
        degs[label] <= degs[label + gap]
        for label in degs
        if label != top and label + gap in degs
    )
    evals = ham_b.energies()
    return BathSpectrumSummary(
        dim=ham_b.dim,
        e_min=float(evals.min()),
        e_max=float(evals.max()),
        g_max=degs[top],
        gamma_max=gamma_max,
        free_energy=ham_b.free_energy(),
        matching_closure=closure,
        degeneracy_monotone=monotone,
        beta=ham_b.beta,
    )


def oscillator_summary(m: int, beta: float, delta_e: float = 1.0) -> BathSpectrumSummary:
    """Summary of the m-level ladder with spacing equal to the qubit gap."""
    return bath_spectrum_summary(oscillator_hamiltonian(m, beta, delta_e), 1)


def alpha_bound_general(summary: BathSpectrumSummary, qg: QubitGibbs) -> tuple[float, bool]:
    """Universal finite-bath ceiling on ``alpha`` and its tightness flag.

    ``bound = exp(-beta dE) (1 - g_max gamma_max)`` — strictly below the
    ``p*`` value ``exp(-beta dE)`` for every finite bath, which is why ``p*``
    is never reached exactly. Tight iff closure and monotonicity both hold.
    """
    if abs(summary.beta - qg.beta) > SUMMARY_BETA_TOL * max(1.0, qg.beta):
        raise PreconditionError(
            "mismatched-ensembles",
            f"summary built at beta {summary.beta}, qubit at beta {qg.beta}",
        )
    bound = math.exp(-qg.beta * qg.delta_e) * (1.0 - summary.g_max * summary.gamma_max)
    return bound, bool(summary.matching_closure and summary.degeneracy_monotone)


def alpha_max_achievable(ham_b: Hamiltonian, delta_quanta) -> float:
    """Exact maximal ``alpha`` over all energy-preserving dynamics.

    Per joint energy block, at most ``min(g_E, g_{E - dE})`` ground-sector
    basis states (each carrying occupation ``e^{-beta E}/Z``) can be routed
    into the excited sector; summing over blocks gives the ceiling, attained
    by a single permutation that performs every such swap at once.
    """
    gap = EnergyLabel(Fraction(delta_quanta))
    if gap.quantum_mult <= 0:
        raise PreconditionError("bad-gap", f"qubit splitting must be positive, got {delta_quanta}")
    degs = ham_b.degeneracies()
    log_z = ham_b.log_partition()
    total = 0.0
    for label, g_here in degs.items():
        lower = EnergyLabel(label.quantum_mult - gap.quantum_mult, label.weight_factor)
        if lower in degs:
            occupation = math.exp(label.log_gibbs_weight(ham_b.beta, ham_b.base_quantum) - log_z)
            total += min(g_here, degs[lower]) * occupation
    return total


def extract_alpha(p_prime) -> float:
    """Read off ``alpha`` from the image of the ground state (1, 0)."""
    p_prime = probability_vector(p_prime)
    if p_prime.size != 2:
        raise PreconditionError("dimension-mismatch", f"need a qubit state, got dim {p_prime.size}")
    return float(p_prime[1])


def third_law_bounds(temperature: float, delta_e: float, summary: BathSpectrumSummary) -> tuple[float, float]:
    """Lower bounds on the final qubit temperature with a given bath.

    Returns ``(T dE / (E_max - F_B), T dE / (E_max - E_min + T ln n))``;
    the first is always at least the second (``Z <= n exp(-beta E_min)``).
    A one-level bath supports no transition at all: both are ``+inf``.
    Temperatures in energy units, k_B = 1.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise PreconditionError("bad-temperature", f"need T > 0, got {temperature}")
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise PreconditionError("bad-gap", f"need delta_e > 0, got {delta_e}")
    if abs(summary.beta * temperature - 1.0) > SUMMARY_BETA_TOL:
        raise PreconditionError(
            "mismatched-ensembles",
            f"summary built at beta {summary.beta}, inconsistent with T {temperature}",
        )
    if summary.dim == 1:
        return math.inf, math.inf
    fine = temperature * delta_e / (summary.e_max - summary.free_energy)
    coarse = temperature * delta_e / (summary.e_max - summary.e_min + temperature * math.log(summary.dim))
    return fine, coarse


def oscillator_final_temperature(m: int, beta: float, delta_e: float) -> float:
    """Lowest exactly reachable temperature with the m-level ladder.

    Closed form ``exp(beta' dE) = (e^{m b} - e^{b}) / (e^{b} - 1)`` with
    ``b = beta dE``, equal to converting ``alpha_max`` through
    ``beta' = -(1/dE) ln(e^{-b}/alpha - 1)``; for large ``m`` this behaves
    like ``T/m``. Evaluated in log space so large ``m b`` cannot overflow.
    """
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise PreconditionError("bad-bath-size", f"need an integer m >= 2, got {m!r}")
    if not (math.isfinite(beta) and beta > 0 and math.isfinite(delta_e) and delta_e > 0):
        raise PreconditionError("bad-beta", f"need beta > 0 and delta_e > 0, got {beta}, {delta_e}")
    b = beta * delta_e
    a = m * b
    log_numerator = a + math.log1p(-math.exp(b - a))
    if b <= 30.0:
        log_denominator = math.log(math.expm1(b))
    else:
        log_denominator = b + math.log1p(-math.exp(-b))
    beta_prime_de = log_numerator - log_denominator
    return delta_e / beta_prime_de


def final_temperature(p_prime, delta_e: float) -> float:
    """Temperature of a qubit state, rejecting population inversion.

    ``T' = dE / ln(p1/p2)``; a vanishing excited population is absolute
    zero, equal populations are infinite temperature.
    """
    p_prime = probability_vector(p_prime)
    if p_prime.size != 2:
        raise PreconditionError("dimension-mismatch", f"need a qubit state, got dim {p_prime.size}")
    if not (math.isfinite(delta_e) and delta_e > 0):
        raise PreconditionError("bad-gap", f"need delta_e > 0, got {delta_e}")
    if p_prime[1] > p_prime[0]:
        raise PreconditionError(
            "population-inversion",
            f"state {p_prime} has p_2 > p_1 and no non-negative temperature",
        )
    if p_prime[1] <= 0.0:
        return 0.0
    if p_prime[1] == p_prime[0]:
        return math.inf
    return delta_e / math.log(p_prime[0] / p_prime[1])
