"""Exact energy bookkeeping and thermal setups.

Energy-preserving dynamics hinge on knowing *exactly* which joint basis
states share a total energy: a single misgrouped level silently changes the
reachable set. Levels therefore carry an exact label instead of a float,

    energy = quantum_mult * base_quantum  -  ln(weight_factor) / beta,

with ``quantum_mult`` and ``weight_factor`` rational. Addition of labels is
componentwise ``(a1 + a2, w1 * w2)``, and two labels are equal-energy only
when both components match exactly. The weight component exists so Gibbs
vectors with rational entries (e.g. (5, 7, 8)/20) can be declared exactly
even though the corresponding energies are irrational.

Floats enter only when evaluating Gibbs weights or reporting energies.
Both work on integers: each Hamiltonian's quantum multiples and weight
factors are put over one common denominator, once per Hamiltonian, so a
level's label is an integer pair and :func:`build_setup` forms no
``Fraction`` per joint state. A Hamiltonian built from such integer labels
(a bath extended by one more factor, say) keeps them.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .config import ENSEMBLE_MATCH_TOL, GIBBS_LOG_SPREAD_CAP, HULL_LEVEL_CAP, NEAR_TIE_ENERGY_TOL
from .errors import PreconditionError
from .linalg import ProbabilityVector, _prechecked, probability_vector

__all__ = [
    "EnergyLabel",
    "Hamiltonian",
    "ThermalSetup",
    "build_setup",
    "gibbs_vector",
    "oscillator_hamiltonian",
    "weight_hamiltonian",
    "zero_hamiltonian",
    "qubit_hamiltonian",
    "trivial_hamiltonian",
]

RationalLike = Fraction | int | str


def _fraction(value: RationalLike, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise PreconditionError("bad-rational", f"{what} {value!r} is not a rational") from exc


@dataclass(frozen=True, order=True)
class EnergyLabel:
    """Exact energy label: rational quantum multiple plus rational weight factor."""

    quantum_mult: Fraction = Fraction(0)
    weight_factor: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "quantum_mult", _fraction(self.quantum_mult, "quantum_mult"))
        object.__setattr__(self, "weight_factor", _fraction(self.weight_factor, "weight_factor"))
        if self.weight_factor <= 0:
            raise PreconditionError(
                "bad-weight-factor", f"weight factor must be positive, got {self.weight_factor}"
            )

    def __add__(self, other: "EnergyLabel") -> "EnergyLabel":
        return EnergyLabel(
            self.quantum_mult + other.quantum_mult,
            self.weight_factor * other.weight_factor,
        )

    def energy(self, beta: float, base_quantum: float) -> float:
        """Real energy value; the weight factor contributes ``-ln(w)/beta``."""
        return float(self.quantum_mult) * base_quantum - math.log(self.weight_factor) / beta

    def log_gibbs_weight(self, beta: float, base_quantum: float) -> float:
        """ln of the unnormalized Gibbs weight ``exp(-beta * energy)``."""
        return -beta * float(self.quantum_mult) * base_quantum + math.log(self.weight_factor)


@dataclass(frozen=True)
class Hamiltonian:
    """Diagonal Hamiltonian: one exact label per basis state, plus beta and the quantum.

    Equal and hashed on its fields, as a frozen dataclass is. What is read
    off the levels on every search is computed once per Hamiltonian, on
    first use: the hash, the integer labels, the Gibbs vector (read-only)
    and the degenerate index set.
    """

    levels: tuple[EnergyLabel, ...]
    beta: float
    base_quantum: float = 1.0

    def __post_init__(self):
        if not self.levels:
            raise PreconditionError("empty-hamiltonian", "need at least one level")
        object.__setattr__(self, "levels", tuple(self.levels))
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise PreconditionError("bad-beta", f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.base_quantum) and self.base_quantum > 0):
            raise PreconditionError(
                "bad-quantum", f"base quantum must be positive and finite, got {self.base_quantum}"
            )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The frozen dataclass's hash of the fields, each ``Fraction`` hashed once."""
        return hash((self.levels, self.beta, self.base_quantum))

    @property
    def dim(self) -> int:
        return len(self.levels)

    def energies(self) -> np.ndarray:
        return np.array([lv.energy(self.beta, self.base_quantum) for lv in self.levels])

    def degeneracies(self) -> dict[EnergyLabel, int]:
        """Exact level -> multiplicity map."""
        out: dict[EnergyLabel, int] = {}
        for lv in self.levels:
            out[lv] = out.get(lv, 0) + 1
        return out

    def log_partition(self) -> float:
        logs = [lv.log_gibbs_weight(self.beta, self.base_quantum) for lv in self.levels]
        peak = max(logs)
        return peak + math.log(sum(math.exp(val - peak) for val in logs))

    def free_energy(self) -> float:
        """Helmholtz free energy ``-ln(Z) / beta`` (k_B = 1)."""
        return -self.log_partition() / self.beta

    @cached_property
    def _labels(self) -> _IntegerLabels:
        """The levels as integers over common denominators, computed once."""
        return _integer_labels(self.levels)

    @cached_property
    def _gibbs(self) -> ProbabilityVector:
        """:func:`gibbs_vector`, computed once and read-only."""
        return _read_only(_gibbs_weights(self))

    @cached_property
    def _degenerate_indices(self) -> tuple[int, ...]:
        """All-but-first index of every degenerate eigenspace."""
        seen: set[EnergyLabel] = set()
        extra = []
        for i, label in enumerate(self.levels):
            if label in seen:
                extra.append(i)
            else:
                seen.add(label)
        return tuple(extra)

    @classmethod
    def _from_labels(cls, labels: _IntegerLabels, beta: float, base_quantum: float) -> Hamiltonian:
        """The Hamiltonian with these integer labels, which it keeps.

        One :class:`EnergyLabel` is made per distinct label and shared by
        the levels that carry it.
        """
        keys = list(zip(labels.quanta, labels.weights))
        # Exact fractions with a positive weight: nothing for __post_init__ to check.
        exact = {
            (q, w): _prechecked(EnergyLabel, Fraction(q, labels.q_den), Fraction(w, labels.w_den))
            for q, w in dict.fromkeys(keys)
        }
        return cls._labelled(tuple(map(exact.__getitem__, keys)), labels, beta, base_quantum)

    @classmethod
    def _labelled(
        cls, levels: tuple[EnergyLabel, ...], labels: _IntegerLabels, beta: float, base_quantum: float
    ) -> Hamiltonian:
        """The Hamiltonian with these levels, keeping ``labels``, the same levels as integers."""
        ham = cls(levels, beta, base_quantum)
        ham.__dict__["_labels"] = labels  # the cached property's slot
        return ham


class _IntegerLabels(NamedTuple):
    """Level ``i``: quantum multiple ``quanta[i] / q_den``, weight factor ``weights[i] / w_den``."""

    q_den: int
    w_den: int
    quanta: list[int]
    weights: list[int]


def _integer_labels(levels: tuple[EnergyLabel, ...]) -> _IntegerLabels:
    """Common denominators of the quantum multiples and of the weight factors,
    and each level's numerators over them."""
    quanta = [lv.quantum_mult for lv in levels]
    weights = [lv.weight_factor for lv in levels]
    q_den = math.lcm(*(q.denominator for q in quanta))
    w_den = math.lcm(*(w.denominator for w in weights))
    return _IntegerLabels(
        q_den,
        w_den,
        [q.numerator * (q_den // q.denominator) for q in quanta],
        [w.numerator * (w_den // w.denominator) for w in weights],
    )


def _joint_labels(a: _IntegerLabels, b: _IntegerLabels) -> _IntegerLabels:
    """Labels of the product basis ``|i, j>`` (flat index ``i * len(b) + j``): each ``a[i] + b[j]``.

    The sum of two labels adds their quantum multiples and multiplies their
    weight factors; over the product denominators both are integer
    operations. Two joint states share a label exactly when their integer
    pairs are equal.
    """
    quanta_b = [q * a.q_den for q in b.quanta]
    return _IntegerLabels(
        a.q_den * b.q_den,
        a.w_den * b.w_den,
        [q_a * b.q_den + q_b for q_a in a.quanta for q_b in quanta_b],
        [w_a * w_b for w_a in a.weights for w_b in b.weights],
    )


def gibbs_vector(ham: Hamiltonian) -> ProbabilityVector:
    """Thermal state ``exp(-beta E_i) / Z`` of a Hamiltonian.

    Each level's log-weight is :meth:`EnergyLabel.log_gibbs_weight`, read
    off the Hamiltonian's integer labels: an integer ratio rounds as its
    ``Fraction`` does, so the values are the same to the bit. Rejects
    spectra whose log-weights span more than ``GIBBS_LOG_SPREAD_CAP`` — the
    smaller weights would underflow to exact zero and strict positivity
    (which the thermomajorization machinery relies on) would be lost. The
    result is positive and normalized by construction. The Hamiltonian
    keeps the vector; each call returns a copy of its own.
    """
    return ham._gibbs.copy()


def _gibbs_weights(ham: Hamiltonian) -> np.ndarray:
    labels = ham._labels
    beta, quantum, q_den, w_den = ham.beta, ham.base_quantum, labels.q_den, labels.w_den
    logs = np.array(
        [
            -beta * (q / q_den) * quantum + math.log(w / w_den)
            for q, w in zip(labels.quanta, labels.weights)
        ]
    )
    spread = float(logs.max() - logs.min())
    if spread > GIBBS_LOG_SPREAD_CAP:
        raise PreconditionError(
            "gibbs-overflow",
            f"beta*energy range {spread} spans more than {GIBBS_LOG_SPREAD_CAP} in log-weight; "
            "the smallest occupation would underflow to zero",
        )
    weights = np.exp(logs - logs.max())
    return weights / weights.sum()


def oscillator_hamiltonian(m: int, beta: float, base_quantum: float = 1.0) -> Hamiltonian:
    """Truncated equally spaced ladder: levels ``0, 1, ..., m-1`` quanta."""
    if m < 1:
        raise PreconditionError("bad-dimension", f"need at least one level, got {m}")
    return Hamiltonian(tuple(EnergyLabel(Fraction(k)) for k in range(m)), beta, base_quantum)


def qubit_hamiltonian(beta: float, delta_quanta: RationalLike = 1, base_quantum: float = 1.0) -> Hamiltonian:
    """Two levels split by ``delta_quanta`` quanta (``ΔE = delta_quanta * base_quantum``)."""
    gap = _fraction(delta_quanta, "delta_quanta")
    if gap <= 0:
        raise PreconditionError("bad-gap", f"level splitting must be positive, got {gap}")
    return Hamiltonian((EnergyLabel(Fraction(0)), EnergyLabel(gap)), beta, base_quantum)


def weight_hamiltonian(weights: Iterable[RationalLike], beta: float, base_quantum: float = 1.0) -> Hamiltonian:
    """Levels declared by exact unnormalized Gibbs weights.

    ``weight_hamiltonian((5, 7, 8), beta)`` has Gibbs vector (5, 7, 8)/20 at
    every temperature; the energies shift with beta but the block structure
    (products of weights) does not.
    """
    levels = tuple(EnergyLabel(Fraction(0), _fraction(w, "weight")) for w in weights)
    return Hamiltonian(levels, beta, base_quantum)


def zero_hamiltonian(dim: int, beta: float = 1.0, base_quantum: float = 1.0) -> Hamiltonian:
    """Fully degenerate Hamiltonian (all levels at zero); Gibbs state is uniform."""
    if dim < 1:
        raise PreconditionError("bad-dimension", f"need dim >= 1, got {dim}")
    return Hamiltonian(tuple(EnergyLabel() for _ in range(dim)), beta, base_quantum)


def trivial_hamiltonian(beta: float, base_quantum: float = 1.0) -> Hamiltonian:
    """One-dimensional bath: no levels to exchange energy with."""
    return zero_hamiltonian(1, beta, base_quantum)


def _multiset_permutations(items):
    """Yield the distinct arrangements of ``items`` in lexicographic order.

    Classic next-permutation walk from the sorted arrangement: find the
    rightmost ascent ``i``, swap ``seq[i]`` with the rightmost larger entry,
    and reverse the tail. Repeated items never produce duplicate rows.
    """
    seq = sorted(items)
    while True:
        yield list(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def _block_class_targets(block: tuple[int, ...], dim_b: int) -> np.ndarray:
    """One representative permutation per distinct position -> system-label map.

    Two in-block permutations move the same input weight to the same system
    level for *every* input exactly when they agree on which system label
    each position is sent to; enumerating label arrangements (multiset
    permutations) therefore covers every distinct output with no sampling
    loss. Representative: positions claiming label ``l`` are matched, in
    ascending order, to the block's label-``l`` slots in ascending order.
    """
    labels = np.array([idx // dim_b for idx in block], dtype=np.int64)
    arrangements = np.array(list(_multiset_permutations(labels.tolist())), dtype=np.int64)
    slots = np.asarray(block, dtype=np.int64)
    images = np.empty_like(arrangements)
    for lab in np.unique(labels):
        claims = arrangements == lab
        nth = np.cumsum(claims, axis=1) - 1
        images[claims] = slots[labels == lab][nth[claims]]
    return images


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _LevelSets(NamedTuple):
    """The ``2^n`` subsets ``S`` of ``n`` system levels, as bit masks, for the classical hull."""

    members: np.ndarray  # (2^n, n): 1.0 where level a is in S
    below: np.ndarray  # |S| for every S but the empty set, as floats
    above: np.ndarray  # n - |S| for every S but the full set, as floats
    by_size: tuple[int, ...]  # the masks by size, ascending within a size
    levels_of: tuple[tuple[int, ...], ...]  # each mask's levels, ascending
    holding: tuple[np.ndarray, ...]  # per level: which masks hold it


@functools.lru_cache(maxsize=HULL_LEVEL_CAP)
def _level_sets(n: int) -> _LevelSets:
    """:class:`_LevelSets` for ``n`` levels, built once per ``n`` and read-only."""
    masks = np.arange(1 << n)
    members = _read_only(((masks[:, None] >> np.arange(n)) & 1).astype(np.float64))
    size = members.sum(axis=1)
    return _LevelSets(
        members,
        _read_only(size[1:]),
        _read_only(n - size[:-1]),
        tuple(sorted(range(1 << n), key=int.bit_count)),
        tuple(tuple(a for a in range(n) if mask >> a & 1) for mask in range(1 << n)),
        tuple(_read_only(members[:, a] > 0) for a in range(n)),
    )


class _HullFrame(NamedTuple):
    """What a classical hull on a setup reads that does not depend on the state.

    ``F(S)`` sums, per block, the block's largest ``k`` entries, ``k`` its
    number of slots with system label in ``S``. Per state, the hull sorts
    each block's entries heaviest first, scatters them into ``slots`` of a
    ``shape`` table of zeros (row: block, column: rank in block + 1), takes
    prefix sums along the rows and gathers ``taken``.
    """

    block_of: np.ndarray  # joint index -> block
    labels: np.ndarray  # joint index -> system level
    slots: np.ndarray  # flat cell of each entry, block after block, heaviest first
    shape: tuple[int, int]  # (blocks, largest block + 1)
    taken: np.ndarray  # (2^n, blocks): the flat cell F(S) reads in each block


@dataclass(frozen=True)
class ThermalSetup:
    """System + bath Hamiltonians with the exact total-energy block partition.

    ``blocks`` partitions the joint basis ``{0 .. dim_a*dim_b - 1}``; two
    joint states share a block iff their label sums are exactly equal.
    Blocks are ordered by their smallest joint index, indices ascending
    within each block. The block lookup, each block's label arrangements,
    the joint indices of every block's entries and the classical hull's
    frame are computed once per setup, on first use, and handed out
    read-only; the bath's Gibbs vector is its Hamiltonian's.
    """

    ham_a: Hamiltonian
    ham_b: Hamiltonian
    blocks: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def dim_a(self) -> int:
        return self.ham_a.dim

    @property
    def dim_b(self) -> int:
        return self.ham_b.dim

    @property
    def dim_joint(self) -> int:
        return self.dim_a * self.dim_b

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self) -> np.ndarray:
        """Joint index -> block index lookup."""
        return self._block_of

    @cached_property
    def _block_of(self) -> np.ndarray:
        out = np.empty(self.dim_joint, dtype=np.intp)
        for k, block in enumerate(self.blocks):
            out[list(block)] = k
        return _read_only(out)

    def gibbs_b(self) -> ProbabilityVector:
        return self.ham_b._gibbs

    @cached_property
    def _block_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint row and column of every block's entries: row-major, block after block."""
        sizes = np.array(self.block_sizes())
        joint = np.fromiter(itertools.chain.from_iterable(self.blocks), np.intp, self.dim_joint)
        start = np.repeat(np.cumsum(sizes) - sizes, sizes**2)  # the entry's block within joint
        size = np.repeat(sizes, sizes**2)
        local = np.arange(size.size) - np.repeat(np.cumsum(sizes**2) - sizes**2, sizes**2)
        return _read_only(joint[start + local // size]), _read_only(joint[start + local % size])

    @cached_property
    def _hull_frame(self) -> _HullFrame:
        """The :class:`_HullFrame` of this setup; for at most ``HULL_LEVEL_CAP`` levels."""
        block_of = self._block_of
        labels = _read_only(np.arange(self.dim_joint) // self.dim_b)
        sizes = np.array(self.block_sizes())
        width = int(sizes.max()) + 1
        sorted_block = np.repeat(np.arange(sizes.size), sizes)
        rank = np.arange(self.dim_joint) - (np.cumsum(sizes) - sizes)[sorted_block]
        counts = np.zeros((sizes.size, self.dim_a), dtype=np.int64)
        np.add.at(counts, (block_of, labels), 1)
        taken = _level_sets(self.dim_a).members.astype(np.int64) @ counts.T
        return _HullFrame(
            block_of,
            labels,
            _read_only(sorted_block * width + rank + 1),
            (sizes.size, width),
            _read_only(taken + np.arange(sizes.size) * width),
        )

    def class_targets(self, k: int) -> np.ndarray:
        """Block ``k``'s label arrangements as joint images, one per row (``_block_class_targets``)."""
        if k not in self._class_targets:
            self._class_targets[k] = _read_only(_block_class_targets(self.blocks[k], self.dim_b))
        return self._class_targets[k]

    @cached_property
    def _class_targets(self) -> dict[int, np.ndarray]:
        return {}

    def joint_input(self, p) -> np.ndarray:
        """Diagonal of the joint input ``p ⊗ gamma_B`` (unnormalized per block)."""
        return self._joint(self._state(p))

    def _state(self, p) -> ProbabilityVector:
        """``p`` validated as a state of the system."""
        p = probability_vector(p)
        if p.size != self.dim_a:
            raise PreconditionError(
                "dimension-mismatch", f"state dim {p.size} does not match system dim {self.dim_a}"
            )
        return p

    def _joint(self, p: ProbabilityVector) -> np.ndarray:
        """:meth:`joint_input` of a state its caller has validated for this system."""
        return np.outer(p, self.gibbs_b()).ravel()


def build_setup(ham_a: Hamiltonian, ham_b: Hamiltonian) -> ThermalSetup:
    """Group the joint basis into exact equal-total-energy blocks.

    A joint state's label is keyed by two integers, its quantum multiple
    and its weight factor each over the product of the two Hamiltonians'
    common denominators (:func:`_joint_labels` of their integer labels).
    Emits a warning when two *distinct* labels evaluate to energies closer
    than ``NEAR_TIE_ENERGY_TOL`` — they stay in separate blocks (labels are
    authoritative); such a coincidence usually means the declared
    Hamiltonians encode one physical level two different ways. Each block's
    energy is :meth:`EnergyLabel.energy` of its label, read off the keys:
    an integer ratio rounds as its ``Fraction`` does.
    """
    if (
        abs(ham_a.beta - ham_b.beta) > ENSEMBLE_MATCH_TOL
        or abs(ham_a.base_quantum - ham_b.base_quantum) > ENSEMBLE_MATCH_TOL
    ):
        raise PreconditionError(
            "mismatched-ensembles",
            "system and bath must share beta and the base quantum "
            f"(got beta {ham_a.beta}/{ham_b.beta}, quantum {ham_a.base_quantum}/{ham_b.base_quantum})",
        )
    joint = _joint_labels(ham_a._labels, ham_b._labels)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, key in enumerate(zip(joint.quanta, joint.weights)):
        groups.setdefault(key, []).append(index)
    # Joint indices arrive ascending, so each group is sorted and the groups
    # come in order of their smallest index.
    blocks = tuple(map(tuple, groups.values()))
    q_den, w_den = joint.q_den, joint.w_den
    beta, quantum = ham_a.beta, ham_a.base_quantum
    values = sorted((q / q_den * quantum - math.log(w / w_den) / beta, q, w) for q, w in groups)
    for (e1, *key1), (e2, *key2) in zip(values, values[1:]):
        if abs(e2 - e1) < NEAR_TIE_ENERGY_TOL:
            l1, l2 = (EnergyLabel(Fraction(q, q_den), Fraction(w, w_den)) for q, w in (key1, key2))
            warnings.warn(
                f"distinct energy labels {l1} and {l2} evaluate within {NEAR_TIE_ENERGY_TOL} "
                "of each other; keeping them in separate blocks",
                stacklevel=2,
            )
    return ThermalSetup(ham_a, ham_b, blocks)
