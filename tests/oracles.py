"""Independent cross-check routes used by the tests.

The library decides thermomajorization on thermo-Lorenz curves; the
oracles here are the same characterization written out separately
(checked at the elbows of both curves, with plain stable ordering) and the
min-residual feasibility LP over Gibbs-preserving stochastic maps, so
agreement is a real consistency check rather than the same code called
twice. Likewise the reachable-set listing, built block by block
as a Minkowski sum, is checked against the marginals of every
energy-preserving permutation, and the gadget unitaries, built from index
images, against dense sums of Kronecker products. Membership verdicts,
decided by facet margins, are checked against a positivity-margin LP, the
bath search against a walk that asks ``hull_membership`` about every bath,
the iterative and vectorized internals against the plain recursive and
looped forms they replace, and the Birkhoff chain's repaired matching
against a chain that recomputes its support at every step.
"""

import numpy as np
from scipy.optimize import linprog

from thermohorn import build_setup, cyclic_shift, enumerate_classical, hull_membership
from thermohorn.config import (
    BIRKHOFF_ZERO_TOL,
    BISTOCHASTIC_ENTRY_TOL,
    BISTOCHASTIC_SUM_TOL,
    DECOMPOSITION_TOL,
)
from thermohorn.thermal import _bath_family, _greedy_reachable_set, _multiset_permutations


def dominance_curve(p, gamma):
    """Cumulative p against cumulative gamma, steepest p/gamma ratio first.

    Returns the elbow coordinates (x, y) of the concave upper boundary,
    starting at (0, 0) and ending at (1, 1).
    """
    p = np.asarray(p, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    order = np.argsort(-(p / gamma), kind="stable")
    x = np.concatenate([[0.0], np.cumsum(gamma[order])])
    y = np.concatenate([[0.0], np.cumsum(p[order])])
    return x, y


def thermomajorizes_oracle(p, q, gamma, slack=1e-11):
    """True when the curve of p dominates the curve of q everywhere.

    Both curves are concave and piecewise linear, so dominance at the
    elbows of q settles dominance everywhere; the elbows of p are checked
    too, which is redundant but cheap.
    """
    xp, yp = dominance_curve(p, gamma)
    xq, yq = dominance_curve(q, gamma)
    for t in np.concatenate([xp, xq]):
        if float(np.interp(t, xq, yq)) > float(np.interp(t, xp, yp)) + slack:
            return False
    return True


def lorenz_margin(p, q, gamma):
    """Smallest height of p's dominance curve above q's, over the elbows of both."""
    xp, yp = dominance_curve(p, gamma)
    xq, yq = dominance_curve(q, gamma)
    at = np.concatenate([xp, xq])
    return float(np.min(np.interp(at, xp, yp) - np.interp(at, xq, yq)))


def thermomajorization_residual(p, q, gamma):
    """``min ||D p - q||_inf`` over column-stochastic ``D`` with ``D gamma = gamma``, by LP."""
    p, q, gamma = (np.asarray(v, dtype=np.float64) for v in (p, q, gamma))
    n = p.size
    nvar = n * n + 1  # D row-major, then the residual s
    a_eq = np.zeros((2 * n, nvar))
    for j in range(n):
        a_eq[j, j : n * n : n] = 1.0
    for i in range(n):
        a_eq[n + i, i * n : (i + 1) * n] = gamma
    a_ub = np.zeros((2 * n, nvar))
    for i in range(n):
        a_ub[i, i * n : (i + 1) * n] = p
        a_ub[n + i, i * n : (i + 1) * n] = -p
    a_ub[:, -1] = -1.0
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.concatenate([q, -q]), A_eq=a_eq,
        b_eq=np.concatenate([np.ones(n), gamma]), bounds=(0, None), method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def realize_reference(p, ham_a, p_prime, bath_family, budget, tol=1e-8):
    """The first bath of the family whose greedy hull holds the target, or None.

    Asks ``hull_membership`` about every bath, with no shortcut.
    """
    for ham_b in _bath_family(ham_a, bath_family, budget):
        rset = _greedy_reachable_set(np.asarray(p, dtype=np.float64), build_setup(ham_a, ham_b))
        if hull_membership(p_prime, rset, tol).classification != "exterior":
            return ham_b
    return None


def majorizes_oracle(p, q, slack=1e-11):
    """Majorization as thermomajorization with the uniform fixed point."""
    n = len(np.asarray(p))
    return thermomajorizes_oracle(p, q, np.full(n, 1.0 / n), slack)


def reachable_listing(p, setup):
    """Distinct marginals of all energy-preserving permutations, brute force.

    Keeps the first permutation producing each output (on the 1e-10 grid)
    and sorts the outputs lexicographically; returns (points, permutations).
    """
    perms = enumerate_classical(setup).permutations
    shuffled = np.zeros(perms.shape)
    shuffled[np.arange(len(perms))[:, None], perms] = setup.joint_input(p)
    raw = shuffled.reshape(len(perms), setup.dim_a, setup.dim_b).sum(axis=2)
    _, first = np.unique(np.round(raw, 10), axis=0, return_index=True)
    order = first[np.lexsort(np.round(raw[first], 10).T[::-1])]
    return raw[order], perms[order]


def conditional_shift(powers, bath_dim):
    """Dense ``sum_i |i><i| ⊗ pi^(powers[i])``, summed term by term."""
    n = len(powers)
    u = np.zeros((n * bath_dim, n * bath_dim), dtype=np.complex128)
    for i, power in enumerate(powers):
        proj = np.zeros((n, n), dtype=np.complex128)
        proj[i, i] = 1.0
        u += np.kron(proj, cyclic_shift(bath_dim, power))
    return u


def witness_unitary(n):
    """Dense ``1 ⊗ (1 - |0><0|) + pi ⊗ |0><0|``: shift the system when the bath is in 0."""
    pick_first = np.zeros((n, n), dtype=np.complex128)
    pick_first[0, 0] = 1.0
    rest = np.eye(n, dtype=np.complex128) - pick_first
    return np.kron(np.eye(n, dtype=np.complex128), rest) + np.kron(cyclic_shift(n), pick_first)


def shares_one_support_column(d, zero_tol=1e-12):
    """Pair-by-pair search for two rows whose supports overlap in exactly one column."""
    support = np.asarray(d, dtype=np.float64) > zero_tol
    n = support.shape[0]
    return any(
        int(np.sum(support[i] & support[k])) == 1 for i in range(n) for k in range(i + 1, n)
    )


def bit_equal(a, b):
    """Equal entries and equal sign bits of the real and imaginary parts (-0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def positivity_margin(target, generators, feas_tol):
    """Maximize ``t`` with ``lam_i >= t`` over representations of ``target``.

    A polytope point lies in the relative interior iff it is a strictly
    positive convex combination of all the extreme points, so ``t* > 0``
    separates interior from boundary. Feasibility of the representation is
    relaxed to ``feas_tol`` per coordinate. HiGHS solves to a primal
    feasibility tolerance of 1e-7, so a margin of a few 1e-9 is noise: the
    LP can report it at a hull vertex. Returns ``(t*, weights)`` or None.
    """
    gens = np.asarray(generators, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    k, d = gens.shape
    nvar = k + 1  # weights, then t
    rows = []
    rhs = []
    for c in range(d):
        row = np.zeros(nvar)
        row[:k] = gens[:, c]
        rows.append(row)
        rhs.append(tgt[c] + feas_tol)
        rows.append(-row)
        rhs.append(-(tgt[c] - feas_tol))
    for i in range(k):  # t - lam_i <= 0
        row = np.zeros(nvar)
        row[i] = -1.0
        row[-1] = 1.0
        rows.append(row)
        rhs.append(0.0)
    a_eq = np.zeros((1, nvar))
    a_eq[0, :k] = 1.0
    cost = np.zeros(nvar)
    cost[-1] = -1.0  # maximize t
    # HiGHS's presolve has declared a strictly interior point of a triangle
    # in R^4 infeasible; the solve itself finds its margin.
    res = linprog(
        cost, A_ub=np.array(rows), b_ub=np.array(rhs), A_eq=a_eq, b_eq=[1.0],
        bounds=(0, None), method="highs", options={"presolve": False},
    )
    if not res.success:
        return None
    return float(res.x[-1]), res.x[:k]


def augment_recursive(masks, row_match, start):
    """``majorization._augment`` as Kuhn's recursive search; bit ``i`` of ``masks[j]`` is edge (i, j)."""

    def try_column(j, seen):
        for i in range(len(row_match)):
            if masks[j] >> i & 1 and not seen[i]:
                seen[i] = True
                if row_match[i] == -1 or try_column(row_match[i], seen):
                    row_match[i] = j
                    return True
        return False

    return try_column(start, [False] * len(row_match))


def birkhoff_chain_reference(d, zero_tol=BIRKHOFF_ZERO_TOL, require_bistochastic=True):
    """``birkhoff_decompose(d, require_bistochastic, zero_tol=zero_tol).terms``, or its error code.

    The same greedy chain, with the support recomputed as ``residual >
    zero_tol`` over the whole residual at every step: matched edges that
    left it are dropped, and every free column is matched again, in
    ascending order, by the recursive augmenting search. A chain longer
    than the Marcus-Ree bound gives ``"term-bound"``.
    """
    mat = np.asarray(d, dtype=np.float64)
    n = mat.shape[0]
    if mat.min() < -BISTOCHASTIC_ENTRY_TOL:
        return "negative-entry"
    sums = np.concatenate([mat.sum(axis=0), mat.sum(axis=1)])
    if require_bistochastic and np.abs(sums - 1.0).max() > BISTOCHASTIC_SUM_TOL:
        return "not-bistochastic"
    residual = np.clip(mat, 0.0, None)
    residual[residual < zero_tol] = 0.0
    row_match = [-1] * n
    raw = []
    while (residual > zero_tol).any():
        support = residual > zero_tol
        masks = [sum(1 << int(i) for i in np.flatnonzero(support[:, j])) for j in range(n)]
        row_match = [j if j != -1 and support[i, j] else -1 for i, j in enumerate(row_match)]
        free = [j for j in range(n) if j not in row_match]
        if not all(augment_recursive(masks, row_match, j) for j in free):
            if residual.max() <= DECOMPOSITION_TOL:
                break
            return "matching-failure"
        perm = [row_match.index(j) for j in range(n)]
        weight = min(float(residual[perm[j], j]) for j in range(n))
        for j in range(n):
            residual[perm[j], j] -= weight
        residual[residual < zero_tol] = 0.0
        raw.append((weight, tuple(perm)))
    if not raw:
        return "empty-matrix"
    if len(raw) > (n - 1) ** 2 + 1:
        return "term-bound"
    total = sum(w for w, _ in raw)
    terms = tuple((w / total, perm) for w, perm in raw if w / total > 0.0)
    rebuilt = np.zeros((n, n))
    for w, perm in terms:
        rebuilt[list(perm), range(n)] += w
    if np.abs(rebuilt - mat).max() > DECOMPOSITION_TOL:
        return "reconstruction-failure"
    return terms


def block_class_targets(block, dim_b):
    """Per-arrangement slot matching: the k-th claim on label l takes its k-th slot."""
    labels = [idx // dim_b for idx in block]
    slots = {}
    for idx in block:
        slots.setdefault(idx // dim_b, []).append(idx)
    rows = []
    for arrangement in _multiset_permutations(labels):
        cursor = dict.fromkeys(slots, 0)
        images = []
        for lab in arrangement:
            images.append(slots[lab][cursor[lab]])
            cursor[lab] += 1
        rows.append(images)
    return np.array(rows, dtype=np.int64)
