"""Majorization and thermomajorization: tests, witnesses, constructions.

``p`` majorizes ``q`` when every prefix sum of the non-increasingly sorted
``p`` dominates the corresponding prefix sum of sorted ``q``. The
Hardy-Littlewood-Polya theorem makes this equivalent to ``q = D p`` for some
bistochastic ``D``; thermomajorization replaces "bistochastic" by "stochastic
and fixing a given Gibbs vector". It is decided by thermo-Lorenz curves
(Horodecki & Oppenheim, Nat. Commun. 4, 2059 (2013)), and the witness ``D``
for a pair they accept is built from the same two curves: no LP.

The constructive side: :func:`schur_horn_unitary` builds a unitary whose
conjugation carries one diagonal to another prescribed majorized diagonal
(a chain of at most ``n - 1`` planar rotations), and
:func:`birkhoff_decompose` peels a bistochastic matrix into a convex
combination of permutations along a greedy chain of perfect matchings: one
matching, repaired by an augmenting path for each entry a step zeroes, whose
search takes a free row as soon as a column reaches one. Each
construction has one blockwise runner, :func:`_birkhoff_blocks` and
:func:`_schur_horn_stacks`, that checks every fact once for a list of
blocks: the two public functions are its one-block case, and
:mod:`~thermohorn.thermal`'s decompose and synthesize its every-block case.
The Schur-Horn runner takes the blocks grouped by size: each chain's
Givens steps run on Python floats, one block at a time, and each group's
checks run once, on its real ``(B, n, n)`` stack of cores, so its numpy
calls scale with the number of block sizes, not of blocks. A checked core
is placed by index, never by a product, so every entry of a rotation is the
chain's own float64 value, whichever BLAS kernel is loaded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (
    BIRKHOFF_ZERO_TOL,
    BISTOCHASTIC_ENTRY_TOL,
    BISTOCHASTIC_SUM_TOL,
    DECOMPOSITION_TOL,
    MAJORIZATION_SLACK,
    MIXTURE_NORM_TOL,
    MIXTURE_WEIGHT_FLOOR,
    SCHUR_HORN_SETTLE_TOL,
    SCHUR_HORN_TOL,
    STOCHASTIC_COL_TOL,
    STOCHASTIC_ENTRY_TOL,
    THERMO_WITNESS_TOL,
    UNITARITY_TOL,
)
from .errors import PreconditionError
from .geometry import linprog  # noqa: F401  (unused; perfbench's tracer wraps majorization.linprog)
from .linalg import (
    ComplexMatrix,
    ProbabilityVector,
    RealMatrix,
    first_non_permutation,
    permutation_matrix,
    _prechecked,
    probability_vector,
)

__all__ = [
    "StochasticMatrix",
    "ConvexPermutationDecomposition",
    "stochastic_matrix",
    "majorizes",
    "thermo_lorenz_dominates",
    "thermomajorizes",
    "birkhoff_decompose",
    "schur_horn_unitary",
]

StochasticMatrix = RealMatrix


def stochastic_matrix(
    entries, *, col_tol: float = STOCHASTIC_COL_TOL, entry_tol: float = STOCHASTIC_ENTRY_TOL
) -> StochasticMatrix:
    """Validate a column-stochastic matrix.

    Columns must sum to 1 within ``col_tol``; entries in ``[-entry_tol, 0)``
    are clamped to zero, anything more negative is rejected.
    """
    mat = np.asarray(entries, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PreconditionError("not-square", f"expected square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise PreconditionError("non-finite", "matrix contains NaN or Inf entries")
    if float(mat.min()) < -entry_tol:
        raise PreconditionError("negative-entry", f"entry {mat.min()} below -{entry_tol}")
    sums = mat.sum(axis=0)
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > col_tol:
        raise PreconditionError("not-stochastic", f"column sums off by {worst}, tolerance {col_tol}")
    return np.clip(mat, 0.0, None)


@dataclass(frozen=True)
class ConvexPermutationDecomposition:
    """Convex combination of permutations, ``sum_k w_k P_{sigma_k}``.

    Each term is ``(weight, images)`` where ``images[j]`` is the image of
    basis index ``j`` (see :func:`thermohorn.linalg.permutation_matrix`).
    ``reconstruction_error`` is the max-norm by which the mixture missed the
    matrix it was decomposed from (None when it was not decomposed from one).
    """

    terms: tuple[tuple[float, tuple[int, ...]], ...]
    reconstruction_error: float | None = None

    def __post_init__(self):
        if not self.terms:
            raise PreconditionError("empty-decomposition", "need at least one term")
        weights, perms = zip(*self.terms)
        if min(weights) < -MIXTURE_WEIGHT_FLOOR:
            raise PreconditionError("negative-weight", f"weight {min(weights)} below 0")
        dim = len(perms[0])
        bad = first_non_permutation(perms, dim)
        if bad is not None:
            raise PreconditionError(
                "not-a-permutation", f"{perms[bad]} is not a bijection on 0..{dim - 1}"
            )
        total = sum(weights)
        if abs(total - 1.0) > MIXTURE_NORM_TOL:
            raise PreconditionError("weights-not-normalized", f"weights sum to {total}")

    @property
    def dim(self) -> int:
        return len(self.terms[0][1])

    def to_matrix(self) -> RealMatrix:
        """Reassemble the bistochastic matrix ``sum_k w_k P_k``."""
        return _mixtures([self.terms], [self.dim]).reshape(self.dim, self.dim)


def _sorted_prefix_sums(vec: ProbabilityVector) -> np.ndarray:
    return np.cumsum(np.sort(np.asarray(vec, dtype=np.float64))[::-1])


def majorizes(p, q, *, slack: float = MAJORIZATION_SLACK) -> bool:
    """Whether every sorted prefix sum of ``p`` dominates that of ``q``.

    Comparison allows a numerical slack of ``-slack`` per prefix.
    """
    p = probability_vector(p)
    q = probability_vector(q)
    if p.size != q.size:
        raise PreconditionError("dimension-mismatch", f"dims {p.size} and {q.size} differ")
    return bool(np.all(_sorted_prefix_sums(p) >= _sorted_prefix_sums(q) - slack))


def first_failing_prefix(p, q, *, slack: float = MAJORIZATION_SLACK) -> int | None:
    """1-based index of the first violated prefix-sum inequality, or None."""
    gaps = _sorted_prefix_sums(probability_vector(p)) - _sorted_prefix_sums(probability_vector(q))
    bad = np.nonzero(gaps < -slack)[0]
    return int(bad[0]) + 1 if bad.size else None


def _beta_order(vec: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Indices by decreasing ``vec / gamma`` (beta-ordering).

    Ties in the ratio are broken by the larger entry first, so that for a
    uniform ``gamma`` the curve's ordinates are exactly the sorted prefix sums.
    """
    return np.lexsort((-vec, -(vec / gamma)))


def _thermo_lorenz_curve(vec: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elbows of the thermo-Lorenz curve: cumulative gamma and vec in beta-order."""
    order = _beta_order(vec, gamma)
    return np.cumsum(gamma[order]), np.cumsum(vec[order])


def _thermo_inputs(p, q, gamma) -> tuple[ProbabilityVector, ProbabilityVector, ProbabilityVector]:
    p, q, gamma = probability_vector(p), probability_vector(q), probability_vector(gamma)
    _check_thermo_shapes(p, q, gamma)
    return p, q, gamma


def _check_thermo_shapes(p: ProbabilityVector, q: ProbabilityVector, gamma: ProbabilityVector):
    """Refuse validated vectors of different sizes, or a Gibbs vector with a zero entry."""
    if q.size != p.size or gamma.size != p.size:
        raise PreconditionError(
            "dimension-mismatch", f"dims {p.size}, {q.size}, {gamma.size} must agree"
        )
    if float(gamma.min()) <= 0.0:
        raise PreconditionError("gamma-zero-entry", "Gibbs vector must be strictly positive")


def thermo_lorenz_dominates(p, q, gamma, *, slack: float = MAJORIZATION_SLACK) -> bool:
    """Whether ``p`` thermomajorizes ``q`` relative to the Gibbs vector ``gamma``.

    Each vector's thermo-Lorenz curve joins the points (cumulative
    ``gamma``, cumulative vector) taken in decreasing order of the ratio
    ``vector / gamma`` (beta-ordering); it is concave and piecewise linear.
    ``p`` thermomajorizes ``q`` exactly when its curve lies on or above that
    of ``q`` (Horodecki & Oppenheim, Nat. Commun. 4, 2059 (2013)), which
    is settled at the elbows of ``q``'s curve; each may exceed ``p``'s curve
    by ``slack``. A ``q`` within max-norm ``tol`` of a state ``p``
    thermomajorizes passes at ``slack = n * tol``. O(n log n), no LP. For a
    uniform ``gamma`` this is :func:`majorizes`.
    """
    return _lorenz_dominates(*_thermo_inputs(p, q, gamma), slack)


def _lorenz_dominates(p, q, gamma, slack: float) -> bool:
    return _curve_dominates(*_padded_lorenz_curve(p, gamma), q, gamma, slack)


def _padded_lorenz_curve(vec: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The curve's elbows from the origin: ``(0, cumsum gamma[order])`` and ``(0, cumsum vec[order])``."""
    x, y = _thermo_lorenz_curve(vec, gamma)
    return np.concatenate([[0.0], x]), np.concatenate([[0.0], y])


def _curve_dominates(x: np.ndarray, y: np.ndarray, q, gamma, slack: float) -> bool:
    """Whether the padded curve ``(x, y)`` lies above ``q``'s, less ``slack``, at ``q``'s elbows.

    Only ``q``'s curve is built, so a caller holding ``p``'s padded curve
    (:meth:`~thermohorn.energy.Hamiltonian._lorenz_curve`) gets
    :func:`_lorenz_dominates`'s verdict from the same arrays.
    """
    xq, yq = _thermo_lorenz_curve(q, gamma)
    return bool(np.all(np.interp(xq, x, y) >= yq - slack))


def thermomajorizes(p, q, gamma) -> StochasticMatrix | None:
    """A stochastic ``D`` with ``D p = q`` and ``D gamma = gamma``, or None if there is none.

    The verdict is :func:`thermo_lorenz_dominates` at its default slack. ``D``
    is built from the two beta-ordered curves with no LP (Shiraishi, J. Phys.
    A 53, 425301 (2020)): :func:`_lorenz_cells` cuts the gamma axis at both
    curves' elbows, :func:`_cell_transport` moves mass between the cells, and
    ``D[i, j]`` collects the cells of ``q``'s level ``i`` fed by ``p``'s level
    ``j``. It must meet ``D p = q`` (max-norm) and ``D gamma = gamma``
    (relative to gamma) within ``THERMO_WITNESS_TOL``, and pass
    :func:`stochastic_matrix`; else ``RuntimeError``.
    """
    p, q, gamma = _thermo_inputs(p, q, gamma)
    if not _lorenz_dominates(p, q, gamma, MAJORIZATION_SLACK):
        return None
    q_level, p_level, width = _lorenz_cells(_beta_order(p, gamma), _beta_order(q, gamma), gamma)
    mixing = _cell_transport(width, p[p_level] / gamma[p_level], q[q_level] / gamma[q_level])
    witness = np.zeros((p.size, p.size))
    np.add.at(witness, (q_level[:, None], p_level), width[:, None] * mixing)
    try:
        witness = stochastic_matrix(witness / gamma)
    except PreconditionError as exc:
        raise RuntimeError(f"thermomajorization witness is not stochastic: {exc}") from exc
    miss = float(np.max(np.abs(witness @ p - q)))
    drift = float(np.max(np.abs(witness @ gamma - gamma) / gamma))
    if not max(miss, drift) <= THERMO_WITNESS_TOL:
        raise RuntimeError(
            f"witness misses Dp=q by {miss}, Dgamma=gamma by {drift} relative (tolerance {THERMO_WITNESS_TOL})"
        )
    return witness


def _lorenz_cells(p_order, q_order, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the gamma axis at both curves' elbows: each cell's q level, p level and width.

    Walks the two beta-orders north-west-corner style: a cell pairs the
    current level of each, as wide as the smaller of their remaining gamma,
    which both then lose; at most ``2n - 1`` cells. The remainders are exact
    integers (counted in the finest binary unit of ``gamma``'s entries), so
    both orders end together and a 1e-304 entry keeps its width next to a 1.
    """
    exact = [g.as_integer_ratio() for g in gamma.tolist()]
    unit = max(den for _, den in exact)
    left = [num * (unit // den) for num, den in exact]
    cells = []
    i = j = 0
    left_q, left_p = left[q_order[0]], left[p_order[0]]
    while True:
        width = min(left_q, left_p)
        cells.append((q_order[i], p_order[j], width / unit))
        left_q -= width
        left_p -= width
        if left_q == 0:
            i += 1
            if i == len(q_order):
                return tuple(np.array(column) for column in zip(*cells))
            left_q = left[q_order[i]]
        if left_p == 0:
            j += 1
            left_p = left[p_order[j]]


def _cell_transport(width, have, want) -> np.ndarray:
    """Row-stochastic ``C`` with ``C have = want`` and ``sum_k width_k C[k, l] = width_l``.

    ``have`` (overwritten) and ``want`` are densities on the cells of :func:`_lorenz_cells`,
    ``want`` non-increasing, ``have``'s running mass above ``want``'s. A cell
    below its target takes from the last cell before it above its own by a
    width-weighted average of their rows, which puts whichever runs out first
    exactly on target: at most ``2(K - 1)`` moves. A deficit with no excess
    before it lies within the verdict's slack and is left.
    """
    mixing = np.eye(width.size)
    excess = []
    for k in range(width.size):
        while have[k] < want[k] and excess:
            l = excess[-1]
            gap = have[l] - have[k]
            s, t = (have[l] - want[l]) / gap, (want[k] - have[k]) / gap
            spent = s * width[l] <= t * width[k]  # l runs out before k is met
            if spent:
                t = s * width[l] / width[k]
            else:
                s = t * width[k] / width[l]
            mix = np.array([[1.0 - s, s], [t, 1.0 - t]])
            mixing[[l, k]] = mix @ mixing[[l, k]]
            have[[l, k]] = mix @ have[[l, k]]
            if spent:
                have[l] = want[l]
                excess.pop()
            else:  # rounding must not turn l's excess into a deficit
                have[k], have[l] = want[k], max(have[l], want[l])
        if have[k] > want[k]:
            excess.append(k)
    return mixing


def _augment(masks: list[int], row_match: list[int], start: int, free_rows: int) -> list[int]:
    """Match the free column ``start`` along an augmenting path; return the path's rows.

    ``masks[j]`` holds column ``j``'s support rows as bits, ``row_match``
    the column each row is matched to (-1 when free) and ``free_rows`` the
    free rows as bits; a found path is flipped into ``row_match`` in place,
    and its rows, which are exactly the rows whose column changed, are
    returned, the free row it ends on last (an empty list when there is no
    path). ``free_rows`` is left to the caller. Kuhn's depth-first search
    with an explicit stack and MC21's look-ahead (Duff, ACM TOMS 7, 1981):
    a column that reaches a free row takes the lowest one and ends the
    search; any other column takes the lowest support row this search has
    not yet seen, which is matched and hands the search on to its column.
    A row the search has seen is never free, so the look-ahead needs no
    ``unseen`` mask. By Berge's theorem a failure means the support admits
    no perfect matching.
    """
    unseen = -1  # every row, as bits; a row's bit is cleared when the search sees it
    cols = [start]  # the columns on the search path
    path: list[int] = []  # the row taken from each column but the last
    col = start
    ends = masks[col] & free_rows
    while not ends:
        rows = masks[col] & unseen
        if rows:
            bit = rows & -rows
            unseen ^= bit
            i = bit.bit_length() - 1
            path.append(i)
            col = row_match[i]
            cols.append(col)
            ends = masks[col] & free_rows
        else:
            cols.pop()
            if not cols:
                return []
            path.pop()
            col = cols[-1]
    path.append((ends & -ends).bit_length() - 1)
    for row, col in zip(path, cols):
        row_match[row] = col
    return path


def _term_entries(groups, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every entry ``(images[j], j)`` of every term of every group, in term order.

    ``groups[g]`` is a sequence of ``(weight, images)`` terms on ``sizes[g]``
    basis states. Returns, one element per entry, the entry's group, its
    column ``j``, its row ``images[j]`` and its term's weight.
    """
    term_group = np.repeat(np.arange(len(groups)), [len(terms) for terms in groups])
    term_size = np.asarray(sizes, dtype=np.intp)[term_group]
    total = int(term_size.sum())
    entry_term = np.repeat(np.arange(term_group.size), term_size)
    cols = np.arange(total) - (np.cumsum(term_size) - term_size)[entry_term]
    rows = np.fromiter(
        itertools.chain.from_iterable(perm for terms in groups for _, perm in terms), np.intp, total
    )
    weights = np.fromiter((w for terms in groups for w, _ in terms), np.float64, term_group.size)
    return term_group[entry_term], cols, rows, weights[entry_term]


def _mixtures(groups, sizes) -> np.ndarray:
    """Each group's ``sum_k w_k P_k``, row-major, one after another.

    Each entry is summed from 0 in term order.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    offsets = np.cumsum(sizes**2) - sizes**2
    group, cols, rows, weights = _term_entries(groups, sizes)
    flat = offsets[group] + rows * sizes[group] + cols
    return np.bincount(flat, weights, int((sizes**2).sum()))


def _reconstruction_errors(groups, sizes, flat: np.ndarray) -> np.ndarray:
    """Per group, the max-norm by which its mixture misses its matrix, all in one sum.

    ``flat`` holds the groups' matrices row-major, one after another, as
    :func:`_mixtures` lays out their mixtures (entries past the last group's
    are not read).
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    mixtures = _mixtures(groups, sizes)
    miss = np.abs(mixtures - flat[: mixtures.size])
    return np.maximum.reduceat(miss, np.cumsum(sizes**2) - sizes**2)


def birkhoff_decompose(
    d, require_bistochastic: bool = True, *, zero_tol: float = BIRKHOFF_ZERO_TOL
) -> ConvexPermutationDecomposition:
    """Peel a bistochastic matrix into a convex combination of permutations.

    Greedy: take a permutation inside the support (entries above
    ``zero_tol``), subtract its minimum entry, repeat; entries below
    ``zero_tol`` are set to 0. One column -> row matching serves the whole
    chain: a step changes only the entries of the permutation it used, so
    every other matched edge stays in the support, and only the columns whose
    matched entry fell to ``zero_tol`` or below are matched again, each by
    one augmenting path from the previous matching. The path is found by a
    depth-first search over lowest rows first that stops at the first
    column reaching a free row (the lowest such row). The cut can leave a
    residual of a few ``zero_tol`` whose support admits no perfect matching:
    it is dropped when no entry exceeds ``DECOMPOSITION_TOL``, which also
    bounds the reconstruction error checked at the end (and kept as
    ``reconstruction_error``). Weights are normalized at the end. Each step
    zeroes at least one entry and so lowers the dimension of the Birkhoff
    face holding the residual, which bounds the chain by ``(n-1)^2 + 1``
    terms (Marcus-Ree); a longer chain raises ``RuntimeError``.

    Where each check lives: the shape here, the rest in
    :func:`_birkhoff_blocks` on this one block (the input, then the chain's
    matching, residual and term bound, then the reconstruction). Each
    permutation is read off a perfect matching, so the result skips
    :class:`ConvexPermutationDecomposition`'s check of them.
    """
    mat = np.asarray(d, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise PreconditionError("not-square", f"expected square matrix, got shape {mat.shape}")
    if not mat.size:
        raise PreconditionError("empty-matrix", "input has no mass to decompose")
    groups, err = _birkhoff_blocks(mat.ravel(), [mat.shape[0]], zero_tol, require_bistochastic)
    return _prechecked(ConvexPermutationDecomposition, groups[0], err)


def _birkhoff_blocks(flat: np.ndarray, sizes, zero_tol: float, require_bistochastic: bool):
    """Birkhoff-decompose square blocks, each check once for all of them.

    ``flat`` holds the blocks' matrices row-major, one after another,
    ``sizes[k]`` rows for block ``k``. The input of every block is checked
    at once: finite (``non-finite``), no entry below
    ``-BISTOCHASTIC_ENTRY_TOL`` (``negative-entry``) and, if
    ``require_bistochastic``, every row and column sum within
    ``BISTOCHASTIC_SUM_TOL`` of 1 (``not-bistochastic``). Each block then
    runs :func:`_birkhoff_chain`, and one sum checks every block's terms
    against ``DECOMPOSITION_TOL`` (``reconstruction-failure``). A failure is
    raised as :func:`birkhoff_decompose` raises it for the first block to
    fail, that block alone: blocks after it are not decomposed, and a block
    before it that misses its reconstruction is reported first. Every
    comparison fails on NaN.

    Returns each block's terms and the worst block's reconstruction error.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    offsets = np.cumsum(sizes**2) - sizes**2
    refused, failure = _refused_input(flat, sizes, offsets, require_bistochastic)
    groups = []
    for start, n in zip(offsets[:refused].tolist(), sizes[:refused].tolist()):
        try:
            groups.append(_birkhoff_chain(flat[start : start + n * n].reshape(n, n), zero_tol))
        except (PreconditionError, RuntimeError) as exc:
            failure = exc  # raised once the blocks before it are checked
            break
    errors = _reconstruction_errors(groups, sizes[: len(groups)], flat)
    held = errors <= DECOMPOSITION_TOL
    if not held.all():
        raise PreconditionError(
            "reconstruction-failure",
            f"residual mass left behind: reconstruction error {float(errors[held.argmin()])}",
        )
    if failure is not None:
        raise failure
    return groups, float(errors.max())


@functools.lru_cache(maxsize=16)
def _sum_indices(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where row and column sums start, square blocks laid out as in ``_birkhoff_blocks``.

    Each block's first row (and column), each row's start in the layout, and
    each entry's column, all counted over every block; built once per
    ``sizes`` and never written to.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    first = np.cumsum(sizes) - sizes
    length = np.repeat(sizes, sizes)  # of each row
    row_start = np.cumsum(length) - length
    col = np.arange(int(length.sum())) - np.repeat(row_start - np.repeat(first, sizes), length)
    for index in (first, row_start, col):
        index.flags.writeable = False
    return first, row_start, col


def _refused_input(flat, sizes, offsets, require_bistochastic) -> tuple[int, PreconditionError | None]:
    """The first block :func:`_birkhoff_blocks` refuses as input and its error, else ``len(sizes)``, None."""
    lowest = np.minimum.reduceat(flat, offsets)
    finite = np.logical_and.reduceat(np.isfinite(flat), offsets)
    refused = ~finite | ~(lowest >= -BISTOCHASTIC_ENTRY_TOL)
    if require_bistochastic:
        first, row_start, col = _sum_indices(tuple(sizes.tolist()))
        row_err = np.maximum.reduceat(np.abs(np.add.reduceat(flat, row_start) - 1.0), first)
        col_err = np.maximum.reduceat(np.abs(np.bincount(col, flat, row_start.size) - 1.0), first)
        refused |= ~(np.maximum(row_err, col_err) <= BISTOCHASTIC_SUM_TOL)
    if not refused.any():
        return sizes.size, None
    k = int(refused.argmax())
    if not finite[k]:
        return k, PreconditionError("non-finite", "matrix contains NaN or Inf entries")
    if not lowest[k] >= -BISTOCHASTIC_ENTRY_TOL:
        return k, PreconditionError("negative-entry", f"entry {lowest[k]} is negative")
    return k, PreconditionError(
        "not-bistochastic",
        f"row sums off by {row_err[k]}, column sums off by {col_err[k]} "
        f"(tolerance {BISTOCHASTIC_SUM_TOL})",
    )


def _birkhoff_chain(mat: np.ndarray, zero_tol: float) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """The normalized terms of :func:`birkhoff_decompose`'s greedy chain on a checked square matrix.

    The matching is kept both ways, column -> row (``perm``) and row ->
    column (``row_match``), its free rows as the bits of ``free_rows``, and
    the matched entries as ``cur``: a step takes ``min(cur)``, subtracts it
    from ``cur`` and frees the columns at or below ``zero_tol`` and their
    rows, and each augmenting path takes the free row it ends on. A
    residual entry is written back to ``columns`` only when its column
    leaves the support or an augmenting path moves the column to another
    row, and all of them before the left-behind residual is read. Raises
    ``matching-failure``, ``empty-matrix``, or ``RuntimeError`` above the
    Marcus-Ree bound. A single entry above ``zero_tol`` is its own one
    term, with no chain.
    """
    n = mat.shape[0]
    if n == 1 and mat[0, 0] > zero_tol:
        return ((1.0, (0,)),)  # the chain's one term, w / w
    residual = np.clip(mat, 0.0, None)
    residual[residual < zero_tol] = 0.0
    support = residual > zero_tol
    in_support = int(np.count_nonzero(support))
    packed = np.packbits(support.T, axis=1, bitorder="little")
    masks = [int.from_bytes(col.tobytes(), "little") for col in packed]
    columns = residual.T.tolist()  # columns[j][i] is entry (i, j), unless (i, j) is matched
    row_match = [-1] * n
    free_rows = (1 << n) - 1  # the rows row_match leaves free, as bits
    perm = [-1] * n
    cur = [0.0] * n  # cur[j] is entry (perm[j], j)
    free_cols: list[int] | range = range(n)
    raw_terms: list[tuple[float, tuple[int, ...]]] = []
    while in_support:
        stuck = False
        for start in free_cols:
            path = _augment(masks, row_match, start, free_rows)
            if not path:
                stuck = True
                break
            free_rows ^= 1 << path[-1]
            for i in path:  # each row's new column; that column's old row gets its entry back
                j = row_match[i]
                if perm[j] != -1:
                    columns[j][perm[j]] = cur[j]
                perm[j] = i
                cur[j] = columns[j][i]
        if stuck:
            for j, i in enumerate(perm):
                if i != -1:
                    columns[j][i] = cur[j]
            if max(map(max, columns)) <= DECOMPOSITION_TOL:
                break  # left behind; the reconstruction check bounds it
            raise PreconditionError(
                "matching-failure",
                f"support of residual mass {sum(map(sum, columns))} admits no perfect matching",
            )
        weight = min(cur)
        raw_terms.append((weight, tuple(perm)))
        cur = [c - weight for c in cur]
        free_cols = [j for j, c in enumerate(cur) if c <= zero_tol]
        for j in free_cols:  # leaves the support
            i = perm[j]
            masks[j] &= ~(1 << i)
            free_rows |= 1 << i
            row_match[i] = perm[j] = -1
            columns[j][i] = 0.0 if cur[j] < zero_tol else cur[j]
        in_support -= len(free_cols)
    if not raw_terms:
        raise PreconditionError("empty-matrix", "input has no mass to decompose")

    bound = (n - 1) ** 2 + 1
    if len(raw_terms) > bound:
        raise RuntimeError(f"greedy chain took {len(raw_terms)} terms, above the bound {bound}")

    total = sum(w for w, _ in raw_terms)
    return tuple((w / total, perm) for w, perm in raw_terms if w / total > 0.0)


def schur_horn_unitary(lam, mu) -> ComplexMatrix:
    """A unitary ``V`` with ``diag(V diag(lam) V†) = mu``, checked.

    Validates ``lam`` and ``mu`` as probability vectors of one size, with
    ``lam`` majorizing ``mu`` (``dimension-mismatch``,
    ``majorization-failure`` naming the first failing prefix), and hands
    the pair to :func:`_schur_horn_blocks`, which runs the rotation chain
    and checks its result once: unitary to ``UNITARITY_TOL``
    (``not-unitary``) and carrying ``lam`` to ``mu`` within
    ``SCHUR_HORN_TOL`` (max-norm; a miss raises ``RuntimeError``).
    :func:`~thermohorn.noisy.horn_transition_unitary` builds the same
    rotation unchecked (:func:`_schur_horn_chain`) and leaves both checks
    to :class:`~thermohorn.noisy.NoisyRealization`.
    """
    return _schur_horn_blocks([_majorized_pair(lam, mu)])[0]


class _ChainInputs(NamedTuple):
    """The input side of the Schur-Horn chains of one size, stacked in pair order.

    Nothing writes to these arrays; :class:`~thermohorn.thermal.ClassicalHull`
    keeps them for the bath it was built on.
    """

    order: np.ndarray  # (B, n): each input's stable descending order
    descending: np.ndarray  # (B, n): each input's values in that order
    positions: tuple[int, ...]  # each member's place among all the pairs rotated, ascending


def _chain_groups(lams) -> list[_ChainInputs]:
    """The inputs ``lams`` grouped by size, each group's :class:`_ChainInputs` in input order."""
    by_size: dict[int, list[int]] = {}
    for k, lam in enumerate(lams):
        by_size.setdefault(len(lam), []).append(k)
    groups = []
    for positions in by_size.values():
        stack = np.array([lams[k] for k in positions])
        order = (-stack).argsort(axis=1, kind="stable")
        descending = np.take_along_axis(stack, order, axis=1)
        groups.append(_ChainInputs(order, descending, tuple(positions)))
    return groups


def _pair_order(chains) -> tuple[tuple[int, int], ...]:
    """``(group, member)`` of every pair of ``chains``, in pair order: the order the chains run in."""
    located = {p: (g, r) for g, chain in enumerate(chains) for r, p in enumerate(chain.positions)}
    return tuple(located[p] for p in sorted(located))


def _schur_horn_blocks(pairs, blocks=None) -> list[ComplexMatrix]:
    """The Schur-Horn rotation of each validated ``(lam, mu)`` pair, checked once, in pair order.

    The pairs are grouped by size, each group stacked, and handed to
    :func:`_schur_horn_stacks`, which rotates each group as one stack and
    checks every member: unitary to ``UNITARITY_TOL`` and on target within
    ``SCHUR_HORN_TOL``. The first pair to fail in pair order is the one
    reported; a chain that raises is reported after any failing rotation
    before it, and the pairs after it are not rotated. ``blocks``, when
    given, names each pair's energy block in its errors. Each checked
    core is placed by :func:`_placed`.
    """
    chains = _chain_groups([lam for lam, _ in pairs])
    mus = [np.array([pairs[k][1] for k in chain.positions]) for chain in chains]
    rotations = [None] * len(pairs)
    stacks = _schur_horn_stacks(chains, mus, _pair_order(chains), blocks)
    for chain, (cores, order) in zip(chains, stacks):
        for k, v in zip(chain.positions, _placed(cores, order, chain.order)):
            rotations[k] = v
    return rotations


def _schur_horn_stacks(chains, mus, pairs, blocks=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every group's real Schur-Horn cores and target orders, checked.

    ``chains[g]`` is a group's :class:`_ChainInputs`, ``mus[g]`` its
    ``(B, n)`` targets, each majorized by its input, and ``pairs`` the
    ``(group, member)`` of every pair in pair order (:func:`_pair_order`).
    :func:`_rotation_stacks` builds the cores. A group's core ``C`` is its
    rotation with rows in the target's descending order and columns in the
    input's: the rotation's entry at ``(order[a], chain.order[k])`` is
    ``C[a, k]``; for equal multisets ``C`` is the identity and the rotation
    the permutation aligning ``lam`` with ``mu``. Each group returns
    ``(C, order)``, a float64 ``(B, n, n)`` stack and the ``(B, n)`` stable
    descending orders of its targets.

    Each stack is checked in one pass, per member, on exactly the entries
    that will be placed: orthogonal to ``UNITARITY_TOL``
    (:func:`_orthogonality_defects`; a permutation of the rows and columns
    leaves ``max|CᵀC − I|`` as it is), and carrying ``lam`` to ``mu``
    within ``SCHUR_HORN_TOL`` (max-norm of ``(C∘C) @ descending`` less the
    targets gathered by ``order``), each comparison failing on NaN. The
    first pair to fail, in pair order, is reported as
    :func:`schur_horn_unitary` reports it alone (``not-unitary``, or
    ``RuntimeError`` for a missed target); a chain that raises is reported
    after any failing rotation before it, and the pairs after it are not
    rotated. ``blocks``, when given, names each pair's energy block, in
    pair order: a rotation that is not unitary is then an internal fault, a
    ``RuntimeError`` naming its block.
    """
    stacks, failure = _rotation_stacks(chains, mus, pairs)
    first = None  # (position, defect, miss) of the first pair to fail
    for (cores, _, targets), chain in zip(stacks, chains):
        m = len(cores)
        if not m:
            continue
        defects = _orthogonality_defects(cores)
        achieved = np.matmul(cores * cores, chain.descending[:m, :, None])[..., 0]
        misses = np.abs(achieved - targets[:m]).max(axis=1)
        passed = (defects <= UNITARITY_TOL) & (misses <= SCHUR_HORN_TOL)
        if not passed.all():
            r = int(passed.argmin())
            if first is None or chain.positions[r] < first[0]:
                first = (chain.positions[r], float(defects[r]), float(misses[r]))
    if first is not None:
        k, defect, miss = first
        if not defect <= UNITARITY_TOL:
            exc = PreconditionError("not-unitary", f"max-norm of U†U − I is {defect}")
            if blocks is None:
                raise exc
            raise RuntimeError(f"rotation for block {blocks[k]} failed its check: {exc}") from exc
        raise RuntimeError(f"rotation chain missed its target by {miss}")
    if failure is not None:
        raise failure
    return [(cores, order) for cores, order, _ in stacks]


def _orthogonality_defects(cores: np.ndarray) -> np.ndarray:
    """Max-norm of ``Cᵀ C − I`` of each member of a real ``(B, n, n)`` stack; NaN stays NaN."""
    gram = cores.swapaxes(-1, -2) @ cores
    return np.abs(gram - _real_eye(cores.shape[-1])).max(axis=(-2, -1))


def _rotation_stacks(chains, mus, pairs) -> tuple[list[tuple[np.ndarray, ...]], RuntimeError | None]:
    """Each group's ``(cores, order, targets)``, unchecked, and the error of a chain that raised (or None).

    ``order`` is each target's stable descending order and ``targets`` its
    values in that order. The chains run one pair at a time in pair order
    (:func:`_givens_core`), so one that raises stops the pairs after it:
    each stack of cores then holds its members before that pair. The cores
    are the chains' rows of Python floats as one float64 stack: no product,
    so every entry, zero signs included, is the chain's own IEEE value.
    """
    orders = [(-mu).argsort(axis=1, kind="stable") for mu in mus]
    targets = [mu[np.arange(len(mu))[:, None], order] for mu, order in zip(mus, orders)]
    rows = [target.tolist() for target in targets]
    inputs = [chain.descending.tolist() for chain in chains]
    cores = [[] for _ in chains]
    failure = None
    for g, r in pairs:
        try:
            cores[g].append(_givens_core(inputs[g][r], rows[g][r]))
        except RuntimeError as exc:
            failure = exc  # raised once the rotations before it are checked
            break
    stacks = []
    for chain, core, order, target in zip(chains, cores, orders, targets):
        n = chain.order.shape[1]
        stacks.append((np.array(core, dtype=np.float64).reshape(-1, n, n), order, target))
    return stacks, failure


def _placed(cores: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The complex ``(B, n, n)`` stack with ``cores[b, a, k]`` at ``(rows[b, a], columns[b, k])``.

    A scatter, not a product: each entry is the core's own float64 value,
    with a ``+0.0`` imaginary part.
    """
    out = np.zeros(cores.shape, dtype=np.complex128)
    out[np.arange(len(cores))[:, None, None], rows[:, :, None], columns[:, None, :]] = cores
    return out


def _schur_horn_chain(lam: ProbabilityVector, mu: ProbabilityVector) -> ComplexMatrix:
    """One validated pair's rotation, unchecked: the one-pair case of :func:`_rotation_stacks`, placed."""
    chains = _chain_groups([lam])
    stacks, failure = _rotation_stacks(chains, [mu[None]], ((0, 0),))
    if failure is not None:
        raise failure
    cores, order, _ = stacks[0]
    return _placed(cores, order, chains[0].order)[0]


def _majorized_pair(lam, mu) -> tuple[ProbabilityVector, ProbabilityVector]:
    """``lam`` and ``mu`` validated: probability vectors of one size, ``lam`` majorizing ``mu``."""
    lam = probability_vector(lam)
    mu = probability_vector(mu)
    if mu.size != lam.size:
        raise PreconditionError("dimension-mismatch", f"dims {lam.size} and {mu.size} differ")
    plex = _sorted_prefix_sums(lam)
    qlex = _sorted_prefix_sums(mu)
    bad = np.nonzero(plex - qlex < -MAJORIZATION_SLACK)[0]
    if bad.size:
        k = int(bad[0])
        raise PreconditionError(
            "majorization-failure",
            f"prefix {k + 1}: sum {plex[k]} of sorted lam is below {qlex[k]} of sorted mu",
        )
    return lam, mu


# The identities of the last 8 block sizes rotated: for blocks of up to n
# slots, 16 n² bytes each.
@functools.lru_cache(maxsize=8)
def _unit_rows(n: int) -> tuple[tuple[float, ...], ...]:
    """The rows of the ``n x n`` identity, as Python floats."""
    zero, one = 0.0, 1.0
    return tuple(tuple(one if k == m else zero for m in range(n)) for k in range(n))


@functools.lru_cache(maxsize=8)
def _real_eye(n: int) -> np.ndarray:
    """The float64 ``n x n`` identity, read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _givens_core(x: list[float], target: list[float]) -> list[list[float]]:
    """The real rotation chain carrying descending ``x`` to descending ``target``, as rows.

    Repeatedly pick the first index ``i`` still above its target and the
    first later index ``j`` below its target, and rotate in the ``(i, j)``
    plane so one of them lands exactly on target (entries within
    ``SCHUR_HORN_SETTLE_TOL`` count as on target). Indices already on
    target are never revisited, so off-diagonal elements generated along
    the way never re-enter the diagonal bookkeeping and at most ``n - 1``
    rotations are needed. Every rotation is a real Givens rotation (Chan &
    Li, J. Math. Anal. Appl. 91, 1983), applied to two rows of Python
    floats: the same IEEE products and sums, zero signs included, as the
    float64 row updates of a numpy matrix. ``x`` is consumed.
    """
    n = len(x)
    core = list(_unit_rows(n))  # a rotation replaces its two rows, never writes one
    # An entry is over, settled or under its target. A rotation settles i or
    # j and moves the other toward its target, so no entry ever becomes over
    # or under again: the first over entry i and the first under entry j
    # after it only move right, and each is found by scanning on.
    i = j = 0
    for _ in range(n):
        while i < n and not x[i] - target[i] > SCHUR_HORN_SETTLE_TOL:
            i += 1
        if i == n:
            break
        j = max(j, i + 1)
        while j < n and not x[j] - target[j] < -SCHUR_HORN_SETTLE_TOL:
            j += 1
        if j == n:
            if max(abs(a - b) for a, b in zip(x, target)) < SCHUR_HORN_TOL:
                break
            raise RuntimeError(
                "rotation chain lost its pairing invariant; inputs may be inconsistent"
            )
        delta = min(x[i] - target[i], target[j] - x[j])
        c2 = (x[i] - delta - x[j]) / (x[i] - x[j])
        c = math.sqrt(c2)
        s = math.sqrt(max(0.0, 1.0 - c2))
        row_i, row_j = core[i], core[j]
        core[i] = [c * a - s * b for a, b in zip(row_i, row_j)]
        core[j] = [s * a + c * b for a, b in zip(row_i, row_j)]
        x[i] -= delta
        x[j] += delta
    return core


def random_bistochastic(n: int, rng: np.random.Generator, terms: int | None = None) -> RealMatrix:
    """Seeded random bistochastic matrix as a convex mix of random permutations."""
    k = terms if terms is not None else max(2, n)
    weights = rng.dirichlet(np.ones(k))
    out = np.zeros((n, n))
    for w in weights:
        out += w * permutation_matrix(rng.permutation(n)).real
    return out
