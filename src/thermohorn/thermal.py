"""Finite-bath thermal operations for general (diagonal) systems.

Energy preservation forces every allowed unitary to be block-diagonal over
the exact total-energy blocks of system ⊗ bath. Within the classical
(permutation) subset this makes the reachable set finite; allowing arbitrary
block unitaries fills in exactly the convex hull:

* *reach*: the classical outputs of ``p ⊗ gamma_B`` are a Minkowski sum
  over energy blocks; ``classical_reachable_set`` lists every distinct one.
  :class:`ClassicalHull` gives their hull in closed form, with no listing
  and no Qhull: span off ``F``'s separators, facets, and the vertices (all
  ``n!`` greedy beta-orderings; Lostaglio, Alhambra & Perry, Quantum 2, 52 (2018));
* *synthesize*: for a convex mixture of classical outcomes, build per-block
  Schur-Horn rotations carrying the joint diagonal to the mixed one — a
  single exactly energy-preserving unitary, plus (for degenerate system
  Hamiltonians) a small decoherence bath that removes the leftover
  coherences inside degenerate eigenspaces;
* *decompose*: conversely, read any energy-preserving unitary as per-block
  bistochastic matrices, Birkhoff-decompose each block, and keep the product
  form (expanding the product is exponential);
* *membership / realize*: classification against the hull's facets (an LP
  only for a target they do not place inside), and a search over growing
  bath families for a finite-bath realization of a thermomajorized target
  that builds every bath from ``F`` alone: its exact max-norm distance
  (:meth:`ClassicalHull.distance`) decides the bath, and one step, the
  ``synthesize`` subcommand's too, mixes the permutations of the greedy
  orders walked to the witness (``_greedy_unitary``), with no listing and no
  scipy. The states are validated once, on entry; the baths' hulls and the
  witness read the validated arrays. Each family's baths are built once per
  system and kept for later searches, each with the frame its hulls read,
  and with its hull for the last ``p`` searched; a search decides the baths
  held for its ``p`` in one pass over their stacked ``F`` tables, and a
  bath's hull keeps the block data of its rotations once a search accepts
  the bath.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import (
    BIRKHOFF_ZERO_TOL,
    BLOCK_LEAK_TOL,
    DEDUP_DECIMALS,
    DEDUP_TOL,
    EMPTY_BLOCK_MASS,
    ENUMERATION_CAP,
    HULL_LEVEL_CAP,
    MEMBERSHIP_TOL,
    MIXTURE_NORM_TOL,
    MIXTURE_WEIGHT_FLOOR,
    SEPARATOR_TOL,
    VANISHING_NORMAL_TOL,
    WALK_DIRECTION_TOL,
)
from .energy import (
    EnergyLabel,
    Hamiltonian,
    ThermalSetup,
    _IntegerLabels,
    _LevelSets,
    _joint_labels,
    _level_sets,
    _read_only,
    build_setup,
)
from .errors import PreconditionError
from .geometry import classify_membership
from .linalg import (
    ComplexMatrix,
    ProbabilityVector,
    first_non_permutation,
    _prechecked,
    probability_vector,
    require_unitary,
)
from .majorization import (
    _birkhoff_blocks,
    _check_thermo_shapes,
    _ChainInputs,
    _chain_groups,
    _lorenz_dominates,
    _schur_horn_stacks,
    _term_entries,
)
from .noisy import NoisyRealization, haar_unitary

__all__ = [
    "ConvexCombination",
    "ProductConvexCombination",
    "ClassicalEnumeration",
    "ClassicalHull",
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
        if min(self.weights) < -MIXTURE_WEIGHT_FLOOR:
            raise PreconditionError("negative-weight", f"weight {min(self.weights)} below 0")
        total = float(sum(self.weights))
        if abs(total - 1.0) > MIXTURE_NORM_TOL:
            raise PreconditionError("weights-not-normalized", f"weights sum to {total}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class ProductConvexCombination:
    """Blockwise-factored convex combination of energy-preserving permutations.

    ``block_terms[i]`` lists ``(weight, local_images)`` for block ``i``, with
    local images indexing positions inside ``blocks[i]``. The represented
    mixture is the product over blocks; term counts multiply, so it stays
    factored.
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
        width = max(map(len, self.blocks), default=0)
        padded = []  # each term's images, then the positions its block lacks up to width
        for block, terms in zip(self.blocks, self.block_terms):
            if not terms:
                raise PreconditionError("bad-combination", f"block {block} has no terms")
            weights, perms = zip(*terms)
            total = sum(weights)
            if abs(total - 1.0) > MIXTURE_NORM_TOL:
                raise PreconditionError(
                    "weights-not-normalized", f"block {block} weights sum to {total}"
                )
            if min(weights) < -MIXTURE_WEIGHT_FLOOR:
                raise PreconditionError("bad-combination", f"negative weight in block {block}")
            tail = tuple(range(len(block), width))
            padded += [tuple(perm) + tail for perm in perms]
        bad = first_non_permutation(padded, width)
        if bad is not None:
            perm = [perm for terms in self.block_terms for _, perm in terms][bad]
            raise PreconditionError("bad-combination", f"{perm} is not a permutation of its block")

    @property
    def dim_joint(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def term_count(self) -> int:
        return math.prod(len(t) for t in self.block_terms)

    def mixed_joint_output(self, v: np.ndarray) -> np.ndarray:
        """Apply the mixture to a joint diagonal; linear, so blockwise.

        One sum over every term's entries, block by block in term order:
        term ``(w, images)`` of a block moves ``w * v[block[j]]`` to
        ``block[images[j]]``, and each entry is summed from 0 in term order.
        """
        v = np.asarray(v, dtype=np.float64)
        sizes = [len(block) for block in self.blocks]
        group, cols, rows, weights = _term_entries(self.block_terms, sizes)
        joint = np.fromiter(itertools.chain.from_iterable(self.blocks), np.intp, sum(sizes))
        start = (np.cumsum(sizes) - sizes)[group]
        return np.bincount(joint[start + rows], weights * v[joint[start + cols]], v.size)


@dataclass(frozen=True)
class ClassicalEnumeration:
    """Every energy-preserving permutation of the joint basis, one per row."""

    permutations: np.ndarray  # (count, dim_joint) images
    total_count: int  # exact number of energy-preserving permutations

    @property
    def mode(self) -> str:
        """Always ``"exhaustive"``; the benchmark's span recorder reads it."""
        return "exhaustive"


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
    """Exact classical outputs, one representative each, and their hull.

    ``representatives[k]`` is an energy-preserving permutation producing
    ``points[k]``. :func:`classical_reachable_set` lists every distinct
    output, sorted lexicographically on the ``DEDUP_DECIMALS`` grid, so
    equal inputs give byte-equal outputs; :func:`realize_interior` builds
    none. ``polytope`` is the hull membership queries read, its vertices at
    ``hull_vertex_indices``.
    """

    points: np.ndarray  # (count, dim_a)
    hull_vertex_indices: tuple[int, ...]
    setup: ThermalSetup
    initial: ProbabilityVector
    representatives: np.ndarray  # (count, dim_joint)
    polytope: ClassicalHull

    def hull_vertices(self) -> np.ndarray:
        return self.points[list(self.hull_vertex_indices)]


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
    _, keep = np.unique(np.round(points, DEDUP_DECIMALS), axis=0, return_index=True)
    return np.sort(keep)


class _GreedyVertices(NamedTuple):
    vertices: np.ndarray
    vertex_indices: tuple[int, ...]
    vertex_of: dict[tuple[int, ...], int]  # every order -> the index of its vertex


class ClassicalHull:
    """conv(T_C), the hull of the classical outputs of ``p ⊗ gamma_B``, in closed form.

    ``F(S)``, for a set ``S`` of system levels, sums over the energy blocks
    the block's ``k`` largest joint-input entries, ``k`` being its number of
    slots with system label in ``S``. The hull, a Minkowski sum of the
    blocks' permutohedra pushed forward to the labels, is the base polytope
    ``{y : y(N) = F(N), y(S) <= F(S)}``; its vertices are the greedy vectors
    (Edmonds, 1970), each level getting ``F`` of the prefix of an order
    ending at it less ``F`` of the one before: the outputs of the greedy
    beta-ordering permutations (:meth:`permutation`).

    Built for at most ``HULL_LEVEL_CAP`` levels. Construction tabulates only
    ``table[S]``, ``F`` of every bit mask ``S`` (per-block sorted prefix
    sums), which is all :meth:`distance` reads: one sort, one scatter, one
    prefix sum and one gather, through the setup's cached frame
    (``ThermalSetup._hull_frame``: block lookup, joint labels, table cells).
    The subset masks, their sizes and the walk's mask order are shared by
    every hull with ``n`` levels (``energy._level_sets``), read-only. The
    rest is built on first use. The affine span is ``{y : y(c) = F(c)}``
    over the atoms ``c``, the least separators (``F(S) + F(N∖S) = F(N)``)
    holding each level (Fujishige, *Submodular Functions and Optimization*,
    2nd ed., 2005, §3): ``rank`` is ``n`` less their number, ``origin``
    their centre ``F(c) / |c|``, and ``_projector`` is ``I`` less the
    per-atom averaging. The facets are ``normals @ (y - origin) <=
    offsets``, one per ``S`` whose indicator keeps a projection onto the
    span, scaled to unit length. Only ``vertices`` (the distinct greedy
    vectors; given ``points``, a listing of every output, each vertex is the
    listed point within ``DEDUP_TOL`` of it, at ``vertex_indices``) and the
    vertex of each order, which :meth:`witness` weighs its walk by, walk all
    ``n!`` orders. The hull keeps its joint input, and, once
    :func:`_greedy_unitary` builds on it, that input's block data for the
    rotations (``_blocks``, a :class:`_BlockData`: the rotated blocks
    grouped by size, with each group's indices, masses, normalized inputs
    and the input side of their chains stacked), O(joint dims) like
    ``_heaviest``.
    """

    def __init__(self, p, setup: ThermalSetup, points: np.ndarray | None = None):
        self._tabulate(setup, setup.joint_input(p), points)

    @classmethod
    def _of_joint(
        cls, setup: ThermalSetup, v: np.ndarray, points: np.ndarray | None = None
    ) -> ClassicalHull:
        """The hull for the joint input ``v``, which its caller formed from a validated state."""
        hull = cls.__new__(cls)
        hull._tabulate(setup, v, points)
        return hull

    def _tabulate(self, setup: ThermalSetup, v: np.ndarray, points: np.ndarray | None) -> None:
        n = setup.dim_a
        if n > HULL_LEVEL_CAP:
            raise PreconditionError(
                "hull-level-cap", f"{n} system levels exceed the cap {HULL_LEVEL_CAP}"
            )
        self.setup = setup
        self._points = points
        self._v = v
        frame = setup._hull_frame
        self._sets = _level_sets(n)
        self._members = self._sets.members
        # Joint indices block by block, heaviest input entry first.
        self._heaviest = np.lexsort((-v, frame.block_of))
        top = np.zeros(frame.shape[0] * frame.shape[1])
        top[frame.slots] = v[self._heaviest]
        top = np.cumsum(top.reshape(frame.shape), axis=1)  # top[b, k]: the k largest entries of block b
        self.table = np.take(top, frame.taken).sum(axis=1)  # F of every subset
        self._vectors: dict[tuple[int, ...], np.ndarray] = {}  # greedy vector of each order walked

    def distance(self, target) -> float:
        """Max-norm distance from ``target`` to the hull, read off ``F`` alone.

        For a target summing to ``F(N)`` it is ``max_S (q(S) - F(S)) /
        min(|S|, n - |S|)`` over the proper nonempty ``S``, clipped at 0: the
        box of half-width ``d`` around ``q`` meets the base polytope exactly
        when ``q(S) - d|S| <= F(S)`` and ``q(S) + d|S| >= F(N) - F(N∖S)`` for
        every ``S`` (Edmonds, 1970). A target off that sum pays its gap ``e =
        q(N) - F(N)`` as ``max_S (q(S) - F(S)) / |S|`` over ``S ≠ ∅`` and
        ``max_S (q(S) - F(S) - e) / (n - |S|)`` over ``S ≠ N``; for one level
        that is ``|e|``. No vertex, span or LP is needed.
        """
        target = np.asarray(target, dtype=np.float64)
        return max(0.0, float(_worst_gaps(self._sets, self.table, target)))

    @cached_property
    def _blocks(self) -> _BlockData:
        """The joint input's blocks as :func:`_rotate_blocks` reads them, built on first use."""
        return _block_data(self._v, self.setup)

    def _pick_vertices(self, points: np.ndarray | None) -> _GreedyVertices:
        """The distinct greedy vectors of all orders, and which order gives which."""
        all_orders = np.array(list(itertools.permutations(range(self.setup.dim_a))), dtype=np.int64)
        prefixes = np.cumsum(1 << all_orders, axis=1)
        gains = np.diff(self.table[prefixes], axis=1, prepend=0.0)
        greedy = np.zeros(all_orders.shape)
        np.put_along_axis(greedy, all_orders, gains, axis=1)
        rounded = np.round(greedy, DEDUP_DECIMALS)
        _, first, inverse = np.unique(rounded, axis=0, return_index=True, return_inverse=True)
        if points is None:
            by_first = np.argsort(first)
            vertex_of_order = np.argsort(by_first)[inverse.ravel()]
            vertices = greedy[first[by_first]]
            vertex_indices = tuple(range(len(first)))
        else:
            nearest = np.array([np.abs(points - g).max(axis=1).argmin() for g in greedy[first]])
            miss = np.abs(points[nearest] - greedy[first]).max()
            if miss >= DEDUP_TOL:
                raise RuntimeError(f"a greedy vertex lies {miss} from every listed point")
            listed, position = np.unique(nearest, return_inverse=True)
            vertex_of_order = position.ravel()[inverse.ravel()]
            vertices = points[listed]
            vertex_indices = tuple(int(k) for k in listed)
        vertex_of = dict(zip(map(tuple, all_orders.tolist()), vertex_of_order.tolist()))
        return _GreedyVertices(vertices, vertex_indices, vertex_of)

    @cached_property
    def _greedy(self) -> _GreedyVertices:
        return self._pick_vertices(self._points)

    @cached_property
    def vertices(self) -> np.ndarray:
        return self._greedy.vertices

    @cached_property
    def vertex_indices(self) -> tuple[int, ...]:
        return self._greedy.vertex_indices

    @cached_property
    def _separators(self) -> np.ndarray:
        return np.abs(self.table + self.table[::-1] - self.table[-1]) <= SEPARATOR_TOL

    @cached_property
    def _atoms(self) -> np.ndarray:
        """Each level's atom, the AND of the separator masks holding it; they partition the levels."""
        separators = np.flatnonzero(self._separators)
        holding = self._members[separators].T  # [a, k]: the k-th separator holds level a
        return _read_only(np.bitwise_and.reduce(np.where(holding, separators, -1), axis=1))

    @cached_property
    def rank(self) -> int:
        return self.setup.dim_a - len(set(self._atoms.tolist()))

    @cached_property
    def origin(self) -> np.ndarray:
        return self.table[self._atoms] / self._members[self._atoms].sum(axis=1)

    @cached_property
    def _projector(self) -> np.ndarray:
        same = self._atoms[:, None] == self._atoms
        return np.eye(len(same)) - same / same.sum(axis=1)

    @cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray]:
        projected = self._members @ self._projector
        length = np.linalg.norm(projected, axis=1)
        facet = length > VANISHING_NORMAL_TOL
        normals = projected[facet] / length[facet, None]
        offsets = (self.table[facet] - self._members[facet] @ self.origin) / length[facet]
        return normals, offsets

    @cached_property
    def normals(self) -> np.ndarray:
        return self._facets[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        return self._facets[1]

    def excess(self, target: np.ndarray) -> float:
        """Largest distance by which the target's projection crosses a facet (negative inside)."""
        return float((self.normals @ (target - self.origin) - self.offsets).max(initial=-np.inf))

    def witness(self, target: np.ndarray) -> np.ndarray:
        """Weights over ``vertices``, at most ``rank + 1`` nonzero, rebuilding the projected target."""
        x = self.origin + self._projector @ (np.asarray(target, dtype=np.float64) - self.origin)
        weights = np.zeros(len(self.vertices))
        for weight, order, _ in self._walk(x):
            weights[self._greedy.vertex_of[order]] += weight
        return weights

    def _walk(self, x: np.ndarray) -> list[tuple[float, tuple[int, ...], np.ndarray]]:
        """``(weight, order, greedy vector)`` terms, at most ``rank + 1``, mixing to ``x``.

        A Carathéodory walk from ``x`` in the hull: the greedy vertex ``g``
        of a maximal chain of tight sets lies on the least face holding
        ``x``; moving from ``g`` through ``x`` until a new set is tight
        splits ``x`` between ``g`` and a point on a smaller face, at most
        ``rank`` times, or until no set's sum rises by more than
        ``WALK_DIRECTION_TOL``. Slacks and rises at a point holding mass
        ``m`` are weighed by ``m``, as its rounding grows by ``1/m``.
        """
        slack = self.table - self._members @ x
        terms = []
        remaining = 1.0
        for _ in range(self.rank):
            order, vertex = self._chain(slack * remaining)
            direction = x - vertex
            rise = self._members @ direction
            limits = rise * remaining > WALK_DIRECTION_TOL
            if not limits.any():
                break
            t = float((slack[limits].clip(0.0) / rise[limits]).min())
            terms.append((remaining * t / (1.0 + t), order, vertex))
            remaining /= 1.0 + t
            x = x + t * direction
            slack = slack - t * rise
        else:
            order, vertex = self._chain(slack * remaining)
        terms.append((remaining, order, vertex))
        return terms

    def _chain(self, slack: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """Order of a maximal chain of tight sets, and its greedy vector.

        Tight: the separators, and every set with slack <= SEPARATOR_TOL. The
        vector is read off ``table`` along the order's prefixes, once per
        order the hull's walks reach.
        """
        tight = ((slack <= SEPARATOR_TOL) | self._separators).tolist()
        chain = 0
        order = []
        for mask in self._sets.by_size:
            if tight[mask] and mask & chain == chain and mask != chain:
                order += self._sets.levels_of[mask & ~chain]
                chain = mask
        order = tuple(order)
        if order not in self._vectors:
            vertex, prefix = np.empty(len(order)), 0
            for a in order:
                vertex[a] = self.table[prefix | 1 << a] - self.table[prefix]
                prefix |= 1 << a
            self._vectors[order] = vertex
        return order, self._vectors[order]

    def _saturate(self, q: np.ndarray, d: float) -> np.ndarray:
        """A point of the hull within max-norm ``d`` of ``q``, for ``d = distance(q)``.

        From ``q - d`` each level in turn rises by ``2d`` or by the least
        slack of a set holding it, whichever is less. ``q - d`` keeps every
        ``y(S) <= F(S)``, and the saturation ends at ``y(N) = F(N)`` because
        the box of half-width ``d`` meets the hull (Fujishige, *Submodular
        Functions and Optimization*, 2nd ed., 2005, §3). ``d = 0``: ``q``.
        """
        if d == 0:
            return q
        y = q - d
        slack = self.table - self._members @ y
        for a, holding in enumerate(self._sets.holding):
            rise = min(2 * d, float(slack[holding].min()))
            y[a] += rise
            slack[holding] -= rise
        return y

    def permutation(self, order) -> np.ndarray:
        """Joint images of the greedy beta-ordering permutation for ``order`` of the levels."""
        level_rank = np.empty(len(order), dtype=np.int64)
        level_rank[np.asarray(order)] = np.arange(len(order))
        frame = self.setup._hull_frame
        slots = np.lexsort((level_rank[frame.labels], frame.block_of))
        images = np.empty(self.setup.dim_joint, dtype=np.int64)
        images[self._heaviest] = slots
        return images


def _worst_gaps(sets: _LevelSets, tables: np.ndarray, target: np.ndarray) -> np.ndarray:
    """:meth:`ClassicalHull.distance` before its clip at 0, per ``F`` table over ``sets``.

    ``tables`` is one table or a stack of them, one per row; one product
    ``members @ target`` serves every row. The larger of the two maxima is one
    reduction over the terms' elementwise maximum.
    """
    gap = sets.members @ target - tables
    below = gap[..., 1:] / sets.below
    above = (gap[..., :-1] - gap[..., -1:]) / sets.above
    return np.maximum(below, above).max(axis=-1)


def classical_reachable_set(
    p, setup: ThermalSetup, *, cap: int = ENUMERATION_CAP, mode: str = "reduced"
) -> ReachableSet:
    """Every distinct classical output from ``p`` with this setup, plus their hull.

    Each block contributes one row per arrangement of its system labels;
    every partial output is extended by every row and the sums are
    deduplicated, each keeping its first (partial output, arrangement) pair,
    so ``representatives[k]`` is the lexicographically first
    energy-preserving permutation producing ``points[k]``; only
    back-pointers are kept until the end. The hull is the
    :class:`ClassicalHull` on these points. ``cap`` bounds the rows formed in
    any one block step; ``mode`` accepts only ``"reduced"``.
    """
    if mode != "reduced":
        raise PreconditionError("bad-mode", f"unknown enumeration mode {mode!r}")
    p = setup._state(p)
    v = setup._joint(p)
    dim_a, dim_b = setup.dim_a, setup.dim_b
    partial = np.zeros((1, dim_a))
    steps = []
    for k, block in enumerate(setup.blocks):
        labels = [idx // dim_b for idx in block]
        count = math.factorial(len(labels))
        for lab in set(labels):
            count //= math.factorial(labels.count(lab))
        if len(partial) * count > cap:
            raise PreconditionError(
                "enumeration-cap",
                f"{len(partial) * count} candidate outputs in one block step exceed the cap {cap}",
            )
        targets = setup.class_targets(k)
        gains = np.stack([(targets // dim_b == a) @ v[list(block)] for a in range(dim_a)], axis=1)
        sums = (partial[:, None, :] + gains[None, :, :]).reshape(-1, dim_a)
        keep = _first_distinct(sums)
        steps.append((block, targets, keep // len(targets), keep % len(targets)))
        partial = sums[keep]
    reps = np.empty((len(partial), setup.dim_joint), dtype=np.int64)
    state = np.arange(len(partial))
    for block, targets, parent, row in reversed(steps):
        reps[:, list(block)] = targets[row[state]]
        state = parent[state]
    raw = _marginal_outputs(reps, v, dim_a, dim_b)
    keep = _first_distinct(raw)
    order = keep[np.lexsort(np.round(raw[keep], DEDUP_DECIMALS).T[::-1])]
    points = raw[order]
    hull = ClassicalHull._of_joint(setup, v, points)
    return ReachableSet(points, hull.vertex_indices, setup, p, reps[order], hull)


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

    Each fact is checked once per call: ``p`` on entry; a
    :class:`ConvexCombination`'s items as permutations of the joint basis
    (``not-a-permutation``) that respect the blocks
    (``not-block-respecting``); and every block's rotation by
    :func:`~thermohorn.majorization._schur_horn_stacks`, which reports a
    rotation that is not unitary as a ``RuntimeError`` naming its block.
    The mixed diagonal is :meth:`ProductConvexCombination.mixed_joint_output`,
    a :class:`ConvexCombination` being its one-block case. The
    majorization inside a block holds by construction and is not checked
    beforehand; a mixture that breaks it (weights that do not sum to 1,
    say) fails the rotation or its check with ``RuntimeError``. A dense
    unitary that cannot be allocated is refused (``unitary-too-large``).
    :func:`_greedy_unitary`, whose greedy permutations need none of these
    input checks, goes straight to the rotations (``_rotate_blocks``).
    """
    v = setup.joint_input(p)
    n = setup.dim_joint
    if isinstance(target, ProductConvexCombination):
        if target.blocks != setup.blocks:
            raise PreconditionError(
                "block-mismatch", "product combination was built for different blocks"
            )
    else:
        bad = first_non_permutation(target.items, n)
        if bad is not None:
            raise PreconditionError(
                "not-a-permutation",
                f"{target.items[bad]} is not a bijection on 0..{n - 1}",
            )
        perms = np.asarray(target.items)
        block_of = setup.block_of()
        respecting = (block_of[perms] == block_of).all(axis=1)
        if not respecting.all():
            bad = perms[int(respecting.argmin())]
            raise PreconditionError(
                "not-block-respecting",
                f"permutation {tuple(int(x) for x in bad)} moves weight across energy blocks",
            )
        # The mixture as a product combination with one block, the whole joint space.
        terms = tuple(zip(target.weights, target.items))
        target = _prechecked(ProductConvexCombination, (tuple(range(n)),), (terms,), None)
    return _rotate_blocks(_block_data(v, setup), target.mixed_joint_output(v), setup)


class _BlockGroup(NamedTuple):
    """The rotated blocks of one size, stacked in block order."""

    indices: np.ndarray  # (B, n): each block's joint indices
    masses: np.ndarray  # (B, 1): each block's input mass
    chains: _ChainInputs  # each block's input over its mass, its order and sorted values


class _BlockData(NamedTuple):
    """A joint input's energy blocks as :func:`_rotate_blocks` reads them.

    The rotated blocks are those with mass above ``EMPTY_BLOCK_MASS`` and
    at least two slots; every other slot gets the identity. They are
    grouped by size (:class:`_BlockGroup`), each group holding the stacks
    its rotations read: joint indices, masses, and the input side of every
    chain (each normalized input, its stable descending order and its
    values in that order; :class:`~thermohorn.majorization._ChainInputs`).
    ``names`` are the rotated blocks in block order, as errors name them.
    O(joint dims) in all: no per-block matrix is kept. Nothing writes to
    these arrays.
    """

    groups: tuple[_BlockGroup, ...]
    names: tuple[tuple[int, ...], ...]  # each rotated block, in block order
    identity: np.ndarray  # the joint index of every slot not rotated


def _block_data(v: np.ndarray, setup: ThermalSetup) -> _BlockData:
    """:class:`_BlockData` of the joint diagonal ``v`` on ``setup``'s blocks."""
    names, masses, lams, identity = [], [], [], []
    for block in setup.blocks:
        lam = v[np.asarray(block)]
        mass = float(lam.sum())
        if mass <= EMPTY_BLOCK_MASS or len(block) == 1:
            identity += block
        else:
            names.append(block)
            masses.append(mass)
            lams.append(lam / mass)
    groups = tuple(
        _BlockGroup(
            np.array([names[k] for k in chains.positions], dtype=np.intp),
            np.array([[masses[k]] for k in chains.positions]),
            chains,
        )
        for chains in _chain_groups(lams)
    )
    identity = np.array(identity, dtype=np.intp)
    return _BlockData(groups, tuple(names), identity)


def _rotate_blocks(
    data: _BlockData, mixed: np.ndarray, setup: ThermalSetup
) -> tuple[ComplexMatrix, NoisyRealization | None]:
    """:func:`synthesize_unitary`'s rotations from the joint diagonal of ``data`` to ``mixed``.

    Per call, each group of blocks of one size forms its targets in one
    gather, ``mixed[indices] / masses``; the input side is ``data``, which
    :class:`ClassicalHull` keeps for the bath it was built on.
    :func:`~thermohorn.majorization._schur_horn_stacks` rotates the group
    as one stack and checks every member, and the stack is scattered into
    the unitary at once, so the numpy calls scale with the number of block
    sizes, not of blocks. Nothing about the caller's mixture is checked
    here: each block of ``mixed`` is taken to be a mixture of permutations
    of that block of the input. A dense unitary that cannot be allocated
    (``MemoryError``) is refused as ``unitary-too-large``.
    """
    n = setup.dim_joint
    try:
        u = np.zeros((n, n), dtype=np.complex128)
    except MemoryError as exc:
        raise PreconditionError(
            "unitary-too-large",
            f"cannot allocate the dense {n}x{n} complex unitary ({n * n * 16 / 2**30:.3g} GiB)",
        ) from exc
    u[data.identity, data.identity] = 1.0
    groups = data.groups
    mus = [mixed[group.indices] / group.masses for group in groups]
    stacks = _schur_horn_stacks([group.chains for group in groups], mus, data.names)
    for group, stack in zip(groups, stacks):
        u[group.indices[:, :, None], group.indices[:, None, :]] = stack

    gadget = None
    degenerate = setup.ham_a._degenerate_indices
    if degenerate:
        gadget = thermal_decoherence_gadget(setup.ham_a, degenerate)
    return u, gadget


def decompose_channel_to_classical(
    u: ComplexMatrix, setup: ThermalSetup, *, block_tol: float = BLOCK_LEAK_TOL
) -> ProductConvexCombination:
    """Read an energy-preserving unitary as a mixture of classical permutations.

    Per block, the unitary acts by the bistochastic matrix of its squared
    moduli on the joint diagonal; Birkhoff decomposition of each block and
    product weights across blocks reproduce the channel's classical output
    exactly (to float). Off-block leakage above ``block_tol`` is rejected.

    Each check runs once per call, over all blocks: ``u`` unitary to
    ``UNITARITY_TOL`` (a NaN defect is not), the leak, and then
    :func:`~thermohorn.majorization._birkhoff_blocks` on the blocks' squared
    moduli: :func:`~thermohorn.majorization.birkhoff_decompose`'s input
    check, one Birkhoff chain per block (a one-slot block is its one term)
    and one reconstruction check of every block's terms against
    ``DECOMPOSITION_TOL``, a failure reported as ``birkhoff_decompose``
    reports it for the first block to fail. The result keeps the worst
    block's reconstruction error; its permutations, each a Birkhoff
    chain's, are not checked again by :class:`ProductConvexCombination`.
    """
    u = np.asarray(u, dtype=np.complex128)
    require_unitary(u)
    leak = energy_preservation_defect(u, setup)
    if leak > block_tol:
        raise PreconditionError(
            "not-energy-preserving", f"off-block mass {leak} exceeds {block_tol}"
        )
    rows, cols = setup._block_entries
    sub = u[rows, cols]  # each block's entries, row-major, one block after another
    groups, worst = _birkhoff_blocks(
        sub.real**2 + sub.imag**2, setup.block_sizes(), BIRKHOFF_ZERO_TOL, True
    )
    # Each block's terms come from a Birkhoff chain: nothing left to check.
    return _prechecked(ProductConvexCombination, setup.blocks, tuple(groups), worst)


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
        chosen = ham_a._degenerate_indices
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


def hull_membership(p_prime, rset: ReachableSet, tol: float = MEMBERSHIP_TOL) -> MembershipResult:
    """Membership of a state in the hull of the classical reachable set.

    Decided by :func:`~thermohorn.geometry.classify_membership` on the set's
    hull: interior/boundary from the facet margin (relative to the hull's
    affine span), the greedy walk as witness inside the facets, and one
    min-slack LP for every other target, whose max-norm residual is the
    ``distance`` of an exterior one. Witness terms below
    ``WITNESS_PRUNE_TOL`` go when the rest still rebuilds the target.
    :func:`realize_interior` and ``synthesize`` do not come here: they decide
    a bath from ``F`` and walk to its witness (:func:`_greedy_unitary`).
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


class _HeldHulls:
    """The hulls of one validated ``p`` on a ladder, keyed on ``p``'s bytes.

    ``hulls[k]`` is the hull of the ladder's ``k``-th bath. ``tables``
    stacks their ``F`` tables, one row each, ``(len(tables), 2^n)``: a
    search that finds the list longer than the stack restacks it. Both
    change under the ladder's lock only; the list grows one bath at a time
    and in order, and the stack is replaced, never written.
    """

    __slots__ = ("key", "hulls", "tables")

    def __init__(self, key: bytes):
        self.key = key
        self.hulls: list[ClassicalHull] = []
        self.tables = np.empty(0)


class _BathLadder:
    """One bath family's setups for one system, built bath by bath as far as asked.

    The baths grow from the trivial one-dimensional bath. Each is built on
    integer labels over the system's denominators and keeps them (the keys
    ``build_setup`` groups on), so neither its blocks nor its Gibbs vector
    form a ``Fraction`` per level. Each copies bath is the previous one
    times one more copy of the system: its labels are the previous bath's
    joined with the system's (:func:`~thermohorn.energy._joint_labels`).
    Each oscillator bath is the previous one plus one level, spaced by the
    gcd of the system's integer quanta differences.

    The family is checked on construction (``bad-bath-family``). The ladder
    holds only finished setups, each extended from the last one's labels
    under a lock, so a build that raises, or a walk left unfinished, leaves
    it as it was. Each setup keeps what searches read off it: its bath's
    Gibbs vector and, once a search has built a hull on it, its block
    lookup and hull frame (``ThermalSetup._hull_frame``).

    The ladder also keeps a record of the last validated ``p`` it was
    searched with, keyed on ``p``'s bytes (:class:`_HeldHulls`): one
    :class:`ClassicalHull` per bath that a search with that ``p`` reached
    (:meth:`hulls`), and their ``F`` tables stacked, one row per bath, so
    that a search decides every held bath in one pass. Each hull keeps its
    joint input, its heaviest-first joint order, its ``F`` table and what
    it caches as walks read it (separators, atoms, the greedy vector of
    each order walked), and, for a bath a search accepted, the block
    data its rotations read (:class:`_BlockData`: per block size, the
    stacked indices, masses and normalized inputs, and each input's
    descending order and sorted values). A search with another
    ``p`` replaces the whole record, so the ladder holds the hulls of one
    ``p``. All of it is O(joint dims) per bath; nothing joint-sized per
    order, such as :meth:`ClassicalHull.permutation`, and no matrix per
    block is kept.
    """

    def __init__(self, ham_a: Hamiltonian, family: str):
        system = ham_a._labels
        if family == "oscillator":
            if any(lv.weight_factor != 1 for lv in ham_a.levels):
                raise PreconditionError(
                    "bad-bath-family",
                    "oscillator family needs pure quantum-multiple system levels",
                )
            self._spacing = math.gcd(*(q - system.quanta[0] for q in system.quanta))
            if not self._spacing:
                raise PreconditionError(
                    "bad-bath-family", "oscillator family needs a non-degenerate system spectrum"
                )
        elif family != "copies":
            raise PreconditionError("bad-bath-family", f"unknown bath family {family!r}")
        self.ham_a, self.family = ham_a, family
        self._setups: list[ThermalSetup] = []
        self._held = _HeldHulls(b"")
        self._lock = threading.Lock()

    def upto(self, budget: int, start: int = 0):
        """Yield the setups of the baths of dimension at most ``budget``, smallest first.

        ``start`` skips the first baths, which the ladder must hold already.
        """
        for k in itertools.count(start):
            with self._lock:
                if k == len(self._setups):
                    if self._next_dim() > budget:
                        return
                    self._setups.append(build_setup(self.ham_a, self._next_bath()))
                setup = self._setups[k]
            if setup.dim_b > budget:
                return
            yield setup

    def hulls(self, p: ProbabilityVector, target: np.ndarray, tol: float, budget: int):
        """Yield ``(setup, hull, d)`` for :meth:`upto`'s baths within ``tol`` of ``target``.

        Each hull is that of the validated ``p``, and ``d`` its
        :meth:`~ClassicalHull.distance` from ``target``. The hulls of the last
        ``p`` searched are kept, one per bath, keyed on ``p``'s bytes, with
        their ``F`` tables stacked (:class:`_HeldHulls`). The baths held
        when the search starts are decided in one pass over that stack
        (:func:`_worst_gaps`, which each hull's own distance reads too); the
        search goes straight to each one within ``tol``. Past them it builds
        and decides one hull per bath, as far as the caller reads. A search
        with another ``p`` swaps in an empty record under the ladder's lock.
        A search reads its record without the lock and appends each hull it
        builds under it, so a record only grows, one bath at a time and in
        order, and holds hulls of its own ``p`` alone; a record that a later
        search has swapped out stays the first search's own. Hulls are built
        outside the lock.
        """
        key = p.tobytes()
        with self._lock:
            if self._held.key != key:
                self._held = _HeldHulls(key)
            held = self._held
            hulls = held.hulls
            if len(held.tables) < len(hulls):
                held.tables = np.array([hull.table for hull in hulls])
            tables = held.tables
        if len(tables):
            worst = _worst_gaps(hulls[0]._sets, tables, target)
            for k in np.flatnonzero(~(np.maximum(worst, 0.0) > tol)).tolist():
                setup = hulls[k].setup
                if setup.dim_b > budget:
                    return
                yield setup, hulls[k], max(0.0, float(worst[k]))
        for k, setup in enumerate(self.upto(budget, len(tables)), len(tables)):
            if k < len(hulls):
                hull = hulls[k]
            else:
                hull = ClassicalHull._of_joint(setup, setup._joint(p))
                with self._lock:
                    if k == len(hulls):
                        hulls.append(hull)
            d = hull.distance(target)
            if not d > tol:
                yield setup, hull, d

    def _next_dim(self) -> int:
        if not self._setups:
            return 1
        last = self._setups[-1].dim_b
        return last * self.ham_a.dim if self.family == "copies" else last + 1

    def _next_bath(self) -> Hamiltonian:
        ham_a = self.ham_a
        beta, quantum, system = ham_a.beta, ham_a.base_quantum, ham_a._labels
        last = self._setups[-1].ham_b if self._setups else None
        if self.family == "copies":
            if last is None:
                return Hamiltonian._from_labels(_IntegerLabels(1, 1, [0], [1]), beta, quantum)
            return Hamiltonian._from_labels(_joint_labels(last._labels, system), beta, quantum)
        m = 1 if last is None else last.dim + 1
        # The previous bath's levels plus one: one new EnergyLabel per bath, not per level.
        levels = (() if last is None else last.levels) + (
            EnergyLabel(Fraction(self._spacing * (m - 1), system.q_den)),
        )
        labels = _IntegerLabels(system.q_den, 1, [self._spacing * k for k in range(m)], [1] * m)
        return Hamiltonian._labelled(levels, labels, beta, quantum)


# The ladders of the last 8 (system, family) pairs searched, each holding
# every setup some search has reached with its Gibbs vector, block lookup
# and hull frame (two joint-sized index arrays more), and the hulls of one p
# (a joint-sized index array and the joint input each, their F tables
# stacked, and the block data of each bath accepted, four joint-sized
# arrays grouped by block size): 149 kB after a qutrit's copies search to
# 729 joint dimensions, 29 MB after one decides the bath of 177,147
# (tracemalloc; the block data 35 kB and 5.7 MB of it).
_ladder = functools.lru_cache(maxsize=8)(_BathLadder)


def realize_interior(
    p,
    ham_a: Hamiltonian,
    p_prime,
    bath_family: str = "copies",
    budget: int = 256,
    *,
    tol: float = MEMBERSHIP_TOL,
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
    one-dimensional bath and stop at dimension ``budget``.

    Baths are built once per (system, family) on a ladder cached for the
    last 8 ``(ham_a, bath_family)`` pairs searched (:class:`_BathLadder`),
    which grows bath by bath only as far as some call's ``budget`` has
    walked, so ``build_setup``'s near-tie warning fires only for the first
    search to reach a bath. The ladder keeps each bath's hull for the last
    ``p`` searched (:meth:`_BathLadder.hulls`): a search that repeats ``p``
    decides every held bath in one pass over their ``F`` tables, forms no
    joint input, and rebuilds no block data for a bath accepted before. What
    depends on the target is built per call: the distances, and the
    accepted bath's step (:func:`_greedy_unitary`).

    Every bath is decided from its :class:`ClassicalHull`'s ``F`` table
    alone, with no vertex list and no LP: one whose exact max-norm
    :meth:`~ClassicalHull.distance` exceeds ``tol`` is skipped, and each of
    the rest in turn is tried by :func:`_greedy_unitary`, which builds
    nothing for a witness that rounding carries past ``tol``; the search
    then moves on to the next bath within ``tol``. Returns ``(setup,
    unitary, gadget)`` for the first bath that step builds on, and None
    when no bath of the family up to ``budget`` holds the target — which
    proves nothing about larger baths.

    ``p`` and ``p_prime`` are validated once, on entry, with their sizes;
    the pre-check, every bath's hull and the witness read the validated
    arrays. The setup returned is the caller's own: it holds the caller's
    ``ham_a`` and shares the ladder's blocks, not what the ladder's setup
    caches (its hull frame included).
    """
    p = probability_vector(p)
    p_prime = probability_vector(p_prime)
    if not tol > 0:
        raise PreconditionError("bad-tolerance", f"need tol > 0, got {tol}")
    gamma = ham_a._gibbs
    _check_thermo_shapes(p, p_prime, gamma)
    if not _lorenz_dominates(p, p_prime, gamma, p_prime.size * tol):
        raise PreconditionError(
            "not-thermomajorized",
            "target is not reachable by any Gibbs-preserving stochastic map",
        )
    for setup, hull, d in _ladder(ham_a, bath_family).hulls(p, p_prime, tol, budget):
        _, built = _greedy_unitary(hull, p_prime, d, tol)
        if built is not None:
            # A setup of the caller's own, so that what it caches stays out of the ladder.
            return (ThermalSetup(ham_a, setup.ham_b, setup.blocks), *built)
    return None


def _greedy_unitary(
    hull: ClassicalHull, target: ProbabilityVector, d: float, tol: float
) -> tuple[float, tuple[ComplexMatrix, NoisyRealization | None] | None]:
    """The witness's max-norm miss of ``target`` and, within ``tol``, ``(unitary, gadget)``.

    The one step from a hull target to a unitary, for :func:`realize_interior`
    and the ``synthesize`` subcommand; ``d <= tol`` is the validated
    target's :meth:`~ClassicalHull.distance`. :meth:`~ClassicalHull._saturate`
    and :meth:`~ClassicalHull._walk` give at most rank+1 greedy orders; a
    witness that rounding carries past ``tol`` builds nothing (None).
    Otherwise the orders' permutations (:meth:`~ClassicalHull.permutation`),
    energy-preserving bijections by construction and not checked again, mix
    the hull's joint input, and :func:`_rotate_blocks` rotates each block of
    the input to the mixture and checks the rotation.
    """
    weights, orders, vertices = zip(*hull._walk(hull._saturate(target, d)))
    miss = float(np.abs(np.array(weights) @ np.array(vertices) - target).max())
    if miss > tol:
        return miss, None
    # The mixture is summed from 0 in term order, as
    # ProductConvexCombination.mixed_joint_output sums it.
    v = hull._v
    mixed = np.zeros(v.size)
    for weight, order in zip(weights, orders):
        mixed[hull.permutation(order)] += weight * v
    return miss, _rotate_blocks(hull._blocks, mixed, hull.setup)


def random_block_unitary(setup: ThermalSetup, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-random unitary on each energy block (energy-preserving by construction)."""
    u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
    for block in setup.blocks:
        idx = np.asarray(block)
        u[np.ix_(idx, idx)] = haar_unitary(len(block), rng)
    return u
