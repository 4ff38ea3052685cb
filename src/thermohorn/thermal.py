"""Finite-bath thermal operations for general (diagonal) systems.

Energy preservation forces every allowed unitary to be block-diagonal over
the exact total-energy blocks of system ⊗ bath. Within the classical
(permutation) subset this makes the reachable set finite; allowing arbitrary
block unitaries fills in exactly the convex hull:

* *reach*: the marginal map acts block by block, so the classical outputs
  of ``p ⊗ gamma_B`` are a Minkowski sum over energy blocks of each block's
  contributions. ``classical_reachable_set`` lists every distinct output
  (one system-label arrangement per block, deduplicated after each block);
  the bath search keeps only each block's greedy beta-orderings (input
  weights, largest first, filling the system labels in every order), whose
  sum has the same hull (Lostaglio, Alhambra & Perry, Quantum 2, 52 (2018));
* *synthesize*: for a convex mixture of classical outcomes, build per-block
  Schur-Horn rotations carrying the joint diagonal to the mixed one — a
  single exactly energy-preserving unitary, plus (for degenerate system
  Hamiltonians) a small decoherence bath that removes the leftover
  coherences inside degenerate eigenspaces;
* *decompose*: conversely, read any energy-preserving unitary as per-block
  bistochastic matrices, Birkhoff-decompose each block, and keep the product
  form (expanding the product is exponential and almost never needed);
* *membership / realize*: classification against the hull's facets (one
  linear program for each target the facets do not place inside), and a
  search over growing bath families for an explicit finite-bath
  realization of a thermomajorized target. The search solves no LP to
  reject: the target is checked on its thermo-Lorenz curves, and a bath
  whose hull's facets and span keep it farther than ``sqrt(dim) * tol``
  away is skipped; only the remaining baths are classified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .config import DEDUP_TOL, ENUMERATION_CAP, MIXTURE_NORM_TOL, MIXTURE_WEIGHT_FLOOR
from .energy import (
    EnergyLabel,
    Hamiltonian,
    ThermalSetup,
    build_setup,
    gibbs_vector,
    trivial_hamiltonian,
)
from .errors import PreconditionError
from .geometry import Polytope, classify_membership, hull_vertex_indices
from .linalg import ComplexMatrix, ProbabilityVector, probability_vector, require_unitary
from .majorization import birkhoff_decompose, schur_horn_unitary, thermo_lorenz_dominates
from .noisy import NoisyRealization, haar_unitary

__all__ = [
    "ConvexCombination",
    "ProductConvexCombination",
    "ClassicalEnumeration",
    "ReachableSet",
    "MembershipResult",
    "enumerate_classical",
    "classical_reachable_set",
    "synthesize_unitary",
    "decompose_channel_to_classical",
    "thermal_decoherence_gadget",
    "hull_membership",
    "realize_interior",
    "random_block_unitary",
    "energy_preservation_defect",
]


@dataclass(frozen=True)
class ConvexCombination:
    """Weights summing to one over arbitrary items (permutations or points)."""

    weights: tuple[float, ...]
    items: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.items) or not self.items:
            raise PreconditionError(
                "bad-combination", f"{len(self.weights)} weights for {len(self.items)} items"
            )
        if min(self.weights) < -1e-12:
            raise PreconditionError("negative-weight", f"weight {min(self.weights)} below 0")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise PreconditionError("weights-not-normalized", f"weights sum to {total}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class ProductConvexCombination:
    """Blockwise-factored convex combination of energy-preserving permutations.

    ``block_terms[i]`` lists ``(weight, local_images)`` for block ``i``, with
    local images indexing positions inside ``blocks[i]``. The represented
    mixture is the product over blocks — term counts multiply, so keep the
    factored form unless the expansion is genuinely small.
    ``reconstruction_error`` is the worst max-norm by which a block's mixture
    missed its bistochastic matrix (None when not decomposed from one).
    """

    blocks: tuple[tuple[int, ...], ...]
    block_terms: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]
    reconstruction_error: float | None = None

    def __post_init__(self):
        if len(self.blocks) != len(self.block_terms):
            raise PreconditionError(
                "bad-combination",
                f"{len(self.block_terms)} term groups for {len(self.blocks)} blocks",
            )
        for block, terms in zip(self.blocks, self.block_terms):
            if not terms:
                raise PreconditionError("bad-combination", f"block {block} has no terms")
            total = sum(w for w, _ in terms)
            if abs(total - 1.0) > MIXTURE_NORM_TOL:
                raise PreconditionError(
                    "weights-not-normalized", f"block {block} weights sum to {total}"
                )
            for w, perm in terms:
                if w < -MIXTURE_WEIGHT_FLOOR or sorted(perm) != list(range(len(block))):
                    raise PreconditionError(
                        "bad-combination", f"invalid term ({w}, {perm}) on block of size {len(block)}"
                    )

    @property
    def dim_joint(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def term_count(self) -> int:
        return math.prod(len(t) for t in self.block_terms)

    def mixed_joint_output(self, v: np.ndarray) -> np.ndarray:
        """Apply the mixture to a joint diagonal; linear, so blockwise."""
        out = np.zeros_like(np.asarray(v, dtype=np.float64))
        for block, terms in zip(self.blocks, self.block_terms):
            idx = np.asarray(block)
            local = np.asarray(v, dtype=np.float64)[idx]
            acc = np.zeros(len(block))
            for w, perm in terms:
                shuffled = np.zeros(len(block))
                shuffled[np.asarray(perm)] = local
                acc += w * shuffled
            out[idx] = acc
        return out

    def expand(self, cap: int = 10**5) -> ConvexCombination:
        """Materialize the product mixture as joint permutations."""
        count = self.term_count
        if count > cap:
            raise PreconditionError(
                "expansion-cap", f"product has {count} terms, above the cap {cap}"
            )
        n = self.dim_joint
        weights = []
        perms = []
        for combo in itertools.product(*self.block_terms):
            w = math.prod(t[0] for t in combo)
            joint = np.arange(n)
            for block, (_, local) in zip(self.blocks, combo):
                idx = np.asarray(block)
                joint[idx] = idx[np.asarray(local)]
            weights.append(w)
            perms.append(tuple(int(j) for j in joint))
        return ConvexCombination(tuple(weights), tuple(perms))


@dataclass(frozen=True)
class ClassicalEnumeration:
    """Every energy-preserving permutation of the joint basis, one per row."""

    permutations: np.ndarray  # (count, dim_joint) images
    total_count: int  # exact number of energy-preserving permutations

    @property
    def mode(self) -> str:
        """Always ``"exhaustive"``; the benchmark's span recorder reads it."""
        return "exhaustive"


def _block_system_labels(block: tuple[int, ...], dim_b: int) -> list[int]:
    return [idx // dim_b for idx in block]


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
    labels = np.array(_block_system_labels(block, dim_b), dtype=np.int64)
    arrangements = np.array(list(_multiset_permutations(labels.tolist())), dtype=np.int64)
    slots = np.asarray(block, dtype=np.int64)
    images = np.empty_like(arrangements)
    for lab in np.unique(labels):
        claims = arrangements == lab
        nth = np.cumsum(claims, axis=1) - 1
        images[claims] = slots[labels == lab][nth[claims]]
    return images


def _assemble_joint(setup: ThermalSetup, per_block: list[np.ndarray]) -> np.ndarray:
    sizes = [t.shape[0] for t in per_block]
    count = math.prod(sizes)
    digits = np.empty((count, len(sizes)), dtype=np.int64)
    rem = np.arange(count, dtype=np.int64)
    for pos in range(len(sizes) - 1, -1, -1):
        digits[:, pos] = rem % sizes[pos]
        rem //= sizes[pos]
    perms = np.empty((count, setup.dim_joint), dtype=np.int64)
    for bi, (block, targets) in enumerate(zip(setup.blocks, per_block)):
        perms[:, list(block)] = targets[digits[:, bi]]
    return perms


def enumerate_classical(setup: ThermalSetup, cap: int = ENUMERATION_CAP) -> ClassicalEnumeration:
    """All ``prod |block|!`` energy-preserving permutations, refused above ``cap``.

    Rows run over each block's ``itertools.permutations`` order, the last
    block fastest. This brute-force walk is the reference that the
    reachable-set constructions are checked against, not a route to them.
    """
    total = math.prod(math.factorial(len(b)) for b in setup.blocks)
    if total > cap:
        raise PreconditionError("enumeration-cap", f"{total} permutations exceed the cap {cap}")
    per_block = [np.array(list(itertools.permutations(b)), dtype=np.int64) for b in setup.blocks]
    return ClassicalEnumeration(_assemble_joint(setup, per_block), total)


@dataclass(frozen=True)
class ReachableSet:
    """Exact classical outputs, one representative each, and their hull vertices.

    ``representatives[k]`` is an energy-preserving permutation producing
    ``points[k]`` exactly. :func:`classical_reachable_set` lists every
    distinct output, sorted lexicographically on the 1e-10 dedup grid, so
    equal inputs give byte-equal outputs; the set :func:`realize_interior`
    searches keeps only the hull candidates.
    """

    points: np.ndarray  # (count, dim_a)
    hull_vertex_indices: tuple[int, ...]
    setup: ThermalSetup
    initial: ProbabilityVector
    representatives: np.ndarray  # (count, dim_joint)

    def hull_vertices(self) -> np.ndarray:
        return self.points[list(self.hull_vertex_indices)]

    @cached_property
    def polytope(self) -> Polytope:
        """Facet form of the hull, built on the first membership query and kept."""
        return Polytope(self.hull_vertices(), DEDUP_TOL)


def _marginal_outputs(
    perms: np.ndarray, v: np.ndarray, dim_a: int, dim_b: int, chunk: int = 1 << 15
) -> np.ndarray:
    count = perms.shape[0]
    out = np.empty((count, dim_a))
    for start in range(0, count, chunk):
        part = perms[start : start + chunk]
        shuffled = np.zeros((part.shape[0], dim_a * dim_b))
        shuffled[np.arange(part.shape[0])[:, None], part] = v[None, :]
        out[start : start + chunk] = shuffled.reshape(-1, dim_a, dim_b).sum(axis=2)
    return out


def _first_distinct(points: np.ndarray) -> np.ndarray:
    """Ascending indices of each point's first occurrence on the dedup grid."""
    _, keep = np.unique(np.round(points, 10), axis=0, return_index=True)
    return np.sort(keep)


def _hull_candidates(points: np.ndarray) -> np.ndarray:
    """Ascending indices of the distinct points that are hull vertices."""
    keep = _first_distinct(points)
    return keep[list(hull_vertex_indices(points[keep], tol=DEDUP_TOL))]


def _blockwise_sum(setup: ThermalSetup, v: np.ndarray, candidates, prune) -> np.ndarray:
    """Joint representatives of a Minkowski sum of per-block contributions.

    ``candidates(block, running)`` gives in-block permutations as rows of
    joint-index images, ``running`` being the number of partial outputs
    they will be added to; a row contributes the input weight it sends to
    each system level. Every partial output is extended by every row, in
    (partial output, row) order, and ``prune`` picks the ascending indices
    of the sums to keep. Only back-pointers are kept along the way; the
    joint permutation behind each final sum is rebuilt at the end.
    """
    dim_a, dim_b = setup.dim_a, setup.dim_b
    partial = np.zeros((1, dim_a))
    steps = []
    for block in setup.blocks:
        targets = candidates(block, len(partial))
        labels = targets // dim_b
        weights = v[list(block)]
        gains = np.stack([(labels == a) @ weights for a in range(dim_a)], axis=1)
        sums = (partial[:, None, :] + gains[None, :, :]).reshape(-1, dim_a)
        keep = prune(sums)
        steps.append((block, targets, keep // len(targets), keep % len(targets)))
        partial = sums[keep]
    reps = np.empty((len(partial), setup.dim_joint), dtype=np.int64)
    state = np.arange(len(partial))
    for block, targets, parent, row in reversed(steps):
        reps[:, list(block)] = targets[row[state]]
        state = parent[state]
    return reps


def classical_reachable_set(
    p, setup: ThermalSetup, *, cap: int = ENUMERATION_CAP, mode: str = "reduced"
) -> ReachableSet:
    """Every distinct classical output from ``p`` with this setup, plus their hull.

    Each block contributes one row per arrangement of its system labels;
    the partial outputs are deduplicated after every block, each keeping
    its first (partial output, arrangement) pair, so ``representatives[k]``
    is the lexicographically first energy-preserving permutation producing
    ``points[k]``. ``cap`` bounds the rows formed in any one block step;
    ``mode`` accepts only ``"reduced"``.
    """
    if mode != "reduced":
        raise PreconditionError("bad-mode", f"unknown enumeration mode {mode!r}")
    p = probability_vector(p)
    v = setup.joint_input(p)

    def arrangements(block, running):
        labels = _block_system_labels(block, setup.dim_b)
        count = math.factorial(len(labels))
        for lab in set(labels):
            count //= math.factorial(labels.count(lab))
        if running * count > cap:
            raise PreconditionError(
                "enumeration-cap",
                f"{running * count} candidate outputs in one block step exceed the cap {cap}",
            )
        return _block_class_targets(block, setup.dim_b)

    reps = _blockwise_sum(setup, v, arrangements, _first_distinct)
    raw = _marginal_outputs(reps, v, setup.dim_a, setup.dim_b)
    keep = _first_distinct(raw)
    order = keep[np.lexsort(np.round(raw[keep], 10).T[::-1])]
    points = raw[order]
    verts = hull_vertex_indices(points, tol=DEDUP_TOL)
    return ReachableSet(points, verts, setup, p, reps[order])


def _greedy_block_targets(block: tuple[int, ...], v: np.ndarray, dim_b: int) -> np.ndarray:
    """In-block permutations whose contributions include every extreme one.

    For each order of the system labels present, the block's entries of the
    joint input ``v``, largest first, fill the labels' slots in that order
    (each label's slots ascending). A linear functional of the contribution
    is maximized by filling labels in descending order of their
    coefficients, so these at most L! rows (L labels present) cover every
    vertex of the block's contribution hull.
    """
    slots: dict[int, list[int]] = {}
    for idx in block:
        slots.setdefault(idx // dim_b, []).append(idx)
    heaviest_first = np.argsort(-v[list(block)], kind="stable")
    rows = np.empty((math.factorial(len(slots)), len(block)), dtype=np.int64)
    for r, order in enumerate(itertools.permutations(slots)):
        rows[r, heaviest_first] = [idx for lab in order for idx in slots[lab]]
    return rows


def _greedy_reachable_set(p: ProbabilityVector, setup: ThermalSetup) -> ReachableSet:
    """Hull candidates of the classical outputs: sums of greedy block orderings.

    The vertices of a Minkowski sum are sums of the summands' vertices, so
    pruning to hull vertices after every block loses nothing; each point's
    representative is its greedy assignment.
    """
    v = setup.joint_input(p)

    def greedy(block, _running):
        return _greedy_block_targets(block, v, setup.dim_b)

    reps = _blockwise_sum(setup, v, greedy, _hull_candidates)
    points = _marginal_outputs(reps, v, setup.dim_a, setup.dim_b)
    return ReachableSet(points, hull_vertex_indices(points, tol=DEDUP_TOL), setup, p, reps)


def energy_preservation_defect(u: ComplexMatrix, setup: ThermalSetup) -> float:
    """Largest unitary entry connecting two different energy blocks."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (setup.dim_joint, setup.dim_joint):
        raise PreconditionError(
            "dimension-mismatch", f"unitary shape {u.shape}, joint dim {setup.dim_joint}"
        )
    block_of = setup.block_of()
    same = block_of[:, None] == block_of[None, :]
    off = np.abs(u)[~same]
    return float(off.max()) if off.size else 0.0


def _is_block_respecting(perm: np.ndarray, block_of: np.ndarray) -> bool:
    return bool(np.all(block_of[np.asarray(perm)] == block_of))


def synthesize_unitary(
    p,
    target: ConvexCombination | ProductConvexCombination,
    setup: ThermalSetup,
) -> tuple[ComplexMatrix, NoisyRealization | None]:
    """One energy-preserving unitary realizing a classical mixture exactly.

    The mixed joint diagonal is, per block, a convex mixture of permutations
    of the input diagonal — majorized by it — so a per-block Schur-Horn
    rotation reaches it exactly, and the direct sum commutes with the total
    Hamiltonian by construction. For degenerate system Hamiltonians the
    returned gadget (an extra bath of dimension 1 + sum(d_i - 1)) removes
    the coherences that survive inside degenerate eigenspaces; otherwise the
    gadget slot is None and the channel output is already diagonal.
    """
    p = probability_vector(p)
    v = setup.joint_input(p)
    block_of = setup.block_of()
    if isinstance(target, ProductConvexCombination):
        if target.blocks != setup.blocks:
            raise PreconditionError(
                "block-mismatch", "product combination was built for different blocks"
            )
        mixed = target.mixed_joint_output(v)
    else:
        mixed = np.zeros_like(v)
        for w, perm in zip(target.weights, target.items):
            arr = np.asarray(perm)
            if not _is_block_respecting(arr, block_of):
                raise PreconditionError(
                    "not-block-respecting",
                    f"permutation {tuple(int(x) for x in arr)} moves weight across energy blocks",
                )
            shuffled = np.zeros_like(v)
            shuffled[arr] = v
            mixed += w * shuffled

    u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
    for block in setup.blocks:
        idx = np.asarray(block)
        lam = v[idx]
        mu = mixed[idx]
        mass = float(lam.sum())
        if mass <= 1e-300 or len(block) == 1:
            u[np.ix_(idx, idx)] = np.eye(len(block))
            continue
        try:
            u[np.ix_(idx, idx)] = schur_horn_unitary(lam / mass, mu / mass)
        except PreconditionError as exc:
            raise RuntimeError(
                f"mixture is not majorized inside block {block}, which a convex "
                f"combination of in-block permutations cannot produce: {exc}"
            ) from exc

    gadget = None
    degenerate = _degenerate_index_set(setup.ham_a)
    if degenerate:
        gadget = thermal_decoherence_gadget(setup.ham_a, degenerate)
    return u, gadget


def _degenerate_index_set(ham_a: Hamiltonian) -> tuple[int, ...]:
    """All-but-first index of every degenerate eigenspace of the system."""
    seen: dict[EnergyLabel, int] = {}
    extra = []
    for i, label in enumerate(ham_a.levels):
        if label in seen:
            extra.append(i)
        else:
            seen[label] = i
    return tuple(extra)


def decompose_channel_to_classical(
    u: ComplexMatrix, setup: ThermalSetup, *, block_tol: float = 1e-9
) -> ProductConvexCombination:
    """Read an energy-preserving unitary as a mixture of classical permutations.

    Per block, the unitary acts by the bistochastic matrix of its squared
    moduli on the joint diagonal; Birkhoff decomposition of each block and
    product weights across blocks reproduce the channel's classical output
    exactly (to float). Off-block leakage above ``block_tol`` is rejected.
    The result keeps the worst block's reconstruction error, each block
    checked against ``DECOMPOSITION_TOL``.
    """
    u = np.asarray(u, dtype=np.complex128)
    require_unitary(u)
    leak = energy_preservation_defect(u, setup)
    if leak > block_tol:
        raise PreconditionError(
            "not-energy-preserving", f"off-block mass {leak} exceeds {block_tol}"
        )
    groups = []
    worst = 0.0
    for block in setup.blocks:
        idx = np.asarray(block)
        sub = u[np.ix_(idx, idx)]
        d = (sub.real**2 + sub.imag**2).astype(np.float64)
        deco = birkhoff_decompose(d)
        groups.append(deco.terms)
        worst = max(worst, deco.reconstruction_error)
    return ProductConvexCombination(setup.blocks, tuple(groups), worst)


def thermal_decoherence_gadget(ham_a: Hamiltonian, indices=None) -> NoisyRealization:
    """Small-bath channel that decoheres chosen system levels exactly.

    ``U = sum_{i not in S} |i><i| ⊗ 1 + sum_j |s_j><s_j| ⊗ pi^j`` on a bath
    of dimension ``|S| + 1`` with a fully degenerate bath Hamiltonian (its
    Gibbs state is maximally mixed). Off-diagonals in rows/columns of ``S``
    pick up a factor ``tr(pi^(j-k))/(|S|+1) = 0``; every diagonal and every
    off-diagonal among the untouched levels survives unchanged; the unitary
    commutes with the system Hamiltonian by construction. With ``indices``
    omitted, all-but-one index of each degenerate eigenspace is decohered
    (a non-degenerate system yields the trivial one-dimensional bath). The
    realization is held factored, with no rotation (see
    :class:`~thermohorn.noisy.NoisyRealization`).
    """
    n = ham_a.dim
    if indices is None:
        chosen = _degenerate_index_set(ham_a)
    else:
        chosen = tuple(sorted(set(int(i) for i in indices)))
    if chosen and (chosen[0] < 0 or chosen[-1] >= n):
        raise PreconditionError(
            "index-out-of-range", f"indices {chosen} not within 0..{n - 1}"
        )
    dim_c = len(chosen) + 1
    powers = [chosen.index(i) + 1 if i in chosen else 0 for i in range(n)]
    return NoisyRealization(n, dim_c, None, shift_powers=powers)


@dataclass(frozen=True)
class MembershipResult:
    """Classification of a target against conv(T_C), with a witness mixture."""

    classification: str  # "interior" | "boundary" | "exterior"
    distance: float
    combination: ConvexCombination | None  # over hull-vertex points
    vertex_indices: tuple[int, ...]  # indices into the reachable set's points


def hull_membership(p_prime, rset: ReachableSet, tol: float = 1e-8) -> MembershipResult:
    """Membership of a state in the hull of the classical reachable set.

    Interior/boundary is relative to the hull's own affine span (a segment
    has an open interior), and is read off the set's cached
    :class:`Polytope`: a target that is not exterior is interior exactly
    when its projection onto the span clears every facet by more than
    ``geometry.INTERIOR_MARGIN``, and ``distance`` is that Euclidean margin
    (0 on the boundary). A target whose projection lies inside the facets
    gets a witness mixing at most rank+1 hull vertices and solves no LP;
    every other target solves one min-slack LP, which decides exterior
    targets (``distance`` is then the max-norm residual of the best convex
    combination) and supplies the witness of the rest. Witness terms below
    ``geometry.WITNESS_PRUNE_TOL`` are dropped when the rest still rebuilds
    the target within ``tol``.
    """
    if not tol > 0:
        raise PreconditionError("bad-tolerance", f"need tol > 0, got {tol}")
    p_prime = probability_vector(p_prime)
    if p_prime.size != rset.setup.dim_a:
        raise PreconditionError(
            "dimension-mismatch",
            f"target dim {p_prime.size} does not match system dim {rset.setup.dim_a}",
        )
    verts = rset.hull_vertex_indices
    status, dist, weights = classify_membership(p_prime, rset.polytope, tol)
    if weights is None:
        return MembershipResult(status, dist, None, ())
    keep = [k for k, w in enumerate(weights) if w > 0]
    comb = ConvexCombination(
        tuple(float(weights[k]) for k in keep),
        tuple(rset.points[verts[k]] for k in keep),
    )
    return MembershipResult(status, dist, comb, tuple(verts[k] for k in keep))


def _tensor_power_levels(levels: tuple[EnergyLabel, ...], k: int) -> tuple[EnergyLabel, ...]:
    out = (EnergyLabel(),)
    for _ in range(k):
        out = tuple(a + b for a in out for b in levels)
    return out


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _bath_family(ham_a: Hamiltonian, family: str, budget: int):
    """Yield bath Hamiltonians of increasing dimension, starting trivial."""
    if family == "copies":
        k = 0
        while ham_a.dim**k <= budget:
            if k == 0:
                yield trivial_hamiltonian(ham_a.beta, ham_a.base_quantum)
            else:
                yield Hamiltonian(_tensor_power_levels(ham_a.levels, k), ham_a.beta, ham_a.base_quantum)
            k += 1
        return
    if family == "oscillator":
        if any(lv.weight_factor != 1 for lv in ham_a.levels):
            raise PreconditionError(
                "bad-bath-family",
                "oscillator family needs pure quantum-multiple system levels",
            )
        gaps = sorted(
            {
                abs(l2.quantum_mult - l1.quantum_mult)
                for l1 in ham_a.levels
                for l2 in ham_a.levels
                if l2.quantum_mult != l1.quantum_mult
            }
        )
        if not gaps:
            raise PreconditionError(
                "bad-bath-family", "oscillator family needs a non-degenerate system spectrum"
            )
        spacing = reduce(_fraction_gcd, gaps)
        for m in range(1, budget + 1):
            yield Hamiltonian(
                tuple(EnergyLabel(spacing * j) for j in range(m)), ham_a.beta, ham_a.base_quantum
            )
        return
    raise PreconditionError("bad-bath-family", f"unknown bath family {family!r}")


def realize_interior(
    p,
    ham_a: Hamiltonian,
    p_prime,
    bath_family: str = "copies",
    budget: int = 256,
    *,
    tol: float = 1e-8,
) -> tuple[ThermalSetup, ComplexMatrix, NoisyRealization | None] | None:
    """Search growing baths for an exact realization of a feasible target.

    The target must lie within max-norm ``tol`` of a state thermomajorized
    by ``p``, or no bath's hull (a set of such states) holds it within
    ``tol``; this is checked up front on the thermo-Lorenz curves at slack
    ``dim * tol`` (:func:`~thermohorn.majorization.thermo_lorenz_dominates`),
    with no LP.
    Bath families: ``copies`` walks k-fold tensor powers of the system
    Hamiltonian, ``oscillator`` walks equally spaced truncations with the
    gcd of the system gaps as spacing; both start at the trivial
    one-dimensional bath and stop at dimension ``budget``. Each bath is
    decided on its exact classical hull, built from greedy block orderings.
    A bath whose :meth:`~thermohorn.geometry.Polytope.separation` from the
    target exceeds ``sqrt(dim) * tol`` cannot hold it within ``tol`` and is
    skipped with no LP; every other bath goes to :func:`hull_membership`.
    Returns ``(setup, unitary, gadget)`` for the first bath whose hull holds
    the target, and None when no bath of the family up to ``budget`` does
    — which proves nothing about larger baths.
    """
    p = probability_vector(p)
    p_prime = probability_vector(p_prime)
    if not tol > 0:
        raise PreconditionError("bad-tolerance", f"need tol > 0, got {tol}")
    if not thermo_lorenz_dominates(p, p_prime, gibbs_vector(ham_a), slack=p_prime.size * tol):
        raise PreconditionError(
            "not-thermomajorized",
            "target is not reachable by any Gibbs-preserving stochastic map",
        )
    reach = math.sqrt(p_prime.size) * tol
    for ham_b in _bath_family(ham_a, bath_family, budget):
        setup = build_setup(ham_a, ham_b)
        rset = _greedy_reachable_set(p, setup)
        if rset.polytope.separation(p_prime) > reach:
            continue
        found = hull_membership(p_prime, rset, tol)
        if found.classification == "exterior":
            continue
        perms = tuple(
            tuple(int(x) for x in rset.representatives[k]) for k in found.vertex_indices
        )
        comb = ConvexCombination(found.combination.weights, perms)
        unitary, gadget = synthesize_unitary(p, comb, setup)
        return setup, unitary, gadget
    return None


def random_block_unitary(setup: ThermalSetup, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-random unitary on each energy block (energy-preserving by construction)."""
    u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
    for block in setup.blocks:
        idx = np.asarray(block)
        u[np.ix_(idx, idx)] = haar_unitary(len(block), rng)
    return u
