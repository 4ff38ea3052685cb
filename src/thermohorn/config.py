"""Shared numeric tolerances and enumeration limits.

These constants encode how the package separates genuine structure from
floating-point noise; changing them ad hoc would silently change which
states count as reachable. The membership LP runs at HiGHS's own
tolerances.
"""

from __future__ import annotations

#: Residual tolerance for eigendecompositions.
EIGEN_TOL = 1e-8

#: A probability vector may hold entries down to ``-this`` (rounding noise,
#: clamped to 0), and its total may miss 1 by this or by
#: ``PROBABILITY_SUM_TOL_PER_ENTRY`` times its length, whichever is more.
PROBABILITY_TOL = 1e-10

#: The rounding each entry may add to a probability vector's total.
PROBABILITY_SUM_TOL_PER_ENTRY = 1e-12

#: A density matrix is Hermitian when the max-norm of ``rho − rho†`` is at
#: most this, of unit trace when its trace misses 1 by at most this, and
#: PSD when no eigenvalue lies below ``-this`` (the three defaults of
#: ``linalg.density_matrix``).
DENSITY_HERMITICITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-10

#: An eigenvector whose largest entry has modulus below this keeps its phase:
#: there is no pivot to make real.
PHASE_PIVOT_FLOOR = 1e-300

#: Sorted eigenvalues within this of each other form one degenerate cluster,
#: whose eigenvectors are put in a canonical order.
EIGEN_TIE_TOL = 1e-10

#: A spectrum read off an eigensolver is a probability vector to this.
SPECTRUM_TOL = 1e-8

#: Default max-norm tolerance of hull membership: a target within this of
#: the hull counts as reached (``hull_membership``, ``realize_interior``
#: and the CLI's ``--tol``).
MEMBERSHIP_TOL = 1e-8

#: A Gibbs vector refuses a spectrum whose log-weights span more than this:
#: ``exp(-this)`` is near the smallest normal double, so a wider span would
#: underflow an occupation to 0.
GIBBS_LOG_SPREAD_CAP = 700

#: A system and a bath describe one ensemble when their inverse temperatures
#: and base quanta agree within this.
ENSEMBLE_MATCH_TOL = 1e-12

#: Two distinct exact energy labels whose energies evaluate closer than this
#: draw a warning: they stay in separate blocks, but probably encode one
#: physical level two different ways.
NEAR_TIE_ENERGY_TOL = 1e-12

#: A matrix is unitary when the max-norm of ``U†U − I`` is at most this.
UNITARITY_TOL = 1e-10

#: A channel output is a density matrix when it is Hermitian, of unit trace
#: and PSD to this (max-norm defect, trace error, smallest eigenvalue).
CHANNEL_OUTPUT_TOL = 1e-9

#: A noisy realization's achieved output matches its declared diagonal
#: state when the max-norm of their difference is at most this; a classical
#: output read off a channel is a probability vector to this.
REALIZATION_TOL = 1e-9

#: A marginal transition unitary must carry the joint state to within this
#: (max-norm) of the target marginal.
MARGINAL_TOL = 1e-8

#: ``p`` majorizes ``q`` when no sorted prefix sum of ``p`` falls more than
#: this below that of ``q``.
MAJORIZATION_SLACK = 1e-10

#: The Schur-Horn rotation chain treats a diagonal entry within this of its
#: target as settled and never pairs it again.
SCHUR_HORN_SETTLE_TOL = 1e-13

#: The chain may stop with every entry within this of its target, and its
#: rotation must carry ``lam`` to ``mu`` within this (max-norm).
SCHUR_HORN_TOL = 1e-9

#: An energy block holding at most this much input mass gets the identity:
#: there is no weight to move, and normalizing it would divide by ~0.
EMPTY_BLOCK_MASS = 1e-300

#: A thermomajorization witness ``D``, built from the two thermo-Lorenz
#: curves, must meet ``D p = q`` within this (max-norm) and ``D gamma = gamma``
#: within this relative to each gamma entry.
THERMO_WITNESS_TOL = 1e-8

#: A convex permutation decomposition must rebuild its bistochastic matrix
#: to this (max-norm); a residual no larger, whose support admits no perfect
#: matching, is left behind rather than refused.
DECOMPOSITION_TOL = 1e-7

#: Birkhoff decomposition refuses an entry below ``-this`` as negative; one
#: in ``[-this, 0)`` is rounding noise, clipped to 0.
BISTOCHASTIC_ENTRY_TOL = 1e-9

#: ``decompose_channel_to_classical`` (its ``block_tol`` default) reads a
#: unitary as energy-preserving when no entry connecting two energy blocks
#: exceeds this in modulus: below it the leak is rounding, above it the
#: unitary moves weight between energies.
BLOCK_LEAK_TOL = 1e-9

#: A matrix is bistochastic when every row and column sums to 1 within this.
BISTOCHASTIC_SUM_TOL = 1e-8

#: The greedy Birkhoff chain's default cut: a residual entry at most this is
#: outside the support, and one below it is set to 0.
BIRKHOFF_ZERO_TOL = 1e-10

#: A mixture of permutations refuses a weight below ``-this``.
MIXTURE_WEIGHT_FLOOR = 1e-12

#: A mixture of permutations refuses weights whose sum misses 1 by more
#: than this.
MIXTURE_NORM_TOL = 1e-9

#: Two reachable-set points closer than this in max-norm are one point.
DEDUP_TOL = 1e-10

#: Reachable-set points are deduplicated and sorted on the grid of this
#: many decimals, ``DEDUP_TOL``'s spacing.
DEDUP_DECIMALS = 10

#: The reachable-set listing refuses a block step forming more candidate
#: outputs than this; the brute-force enumeration, more permutations.
ENUMERATION_CAP = 10**6

#: The classical hull tabulates ``F`` over all ``2^n`` subsets of the
#: ``n`` system levels and its ``n!`` greedy orders; more levels are refused.
HULL_LEVEL_CAP = 8

#: ``S`` is tight at a hull point ``y`` when ``F(S) - y(S)`` is at most this;
#: a separator (``F(S) + F(N∖S) = F(N)`` within it) is tight everywhere and
#: cuts down the hull's affine span.
SEPARATOR_TOL = 1e-12

#: Margin below which an inside point counts as boundary.
INTERIOR_MARGIN = 1e-9

#: A target's projection onto the hull's affine span is inside the facets
#: when it lies within this of the inner side of every facet. The tests'
#: Qhull reference drops a flat span direction only within this, too.
FACET_TOL = 1e-12

#: Witness weights below this are dropped when the renormalized witness
#: still rebuilds the target within the caller's tolerance.
WITNESS_PRUNE_TOL = 1e-9

#: A subset whose indicator, projected onto the span, is shorter than this
#: gives no facet (its inequality is one of the span's equations).
VANISHING_NORMAL_TOL = 1e-9

#: The greedy walk stops at its vertex when no subset's sum rises by more
#: than this along the move away from it.
WALK_DIRECTION_TOL = 1e-12

#: ``stochastic_matrix`` (its default) accepts columns summing to 1 within
#: this.
STOCHASTIC_COL_TOL = 1e-9

#: ``stochastic_matrix`` (its default) clamps entries in ``[-this, 0)`` to 0
#: and refuses anything more negative.
STOCHASTIC_ENTRY_TOL = 1e-12

#: Qubit Gibbs data are consistent when ``gamma_2 / gamma_1`` misses
#: ``exp(-beta * delta_e)`` by at most this.
GIBBS_RATIO_TOL = 1e-12

#: ``d_alpha`` accepts ``alpha`` up to this outside ``[0, gamma_2/gamma_1]``
#: (rounding of a computed endpoint) and clamps it into the range.
ALPHA_RANGE_SLACK = 1e-12

#: A bath summary's largest occupation may exceed 1 by this (rounding).
OCCUPATION_SLACK = 1e-12

#: A bath summary's free energy may exceed its lowest energy by this: it
#: never does exactly, so a larger excess is refused as inconsistent.
FREE_ENERGY_SLACK = 1e-9

#: A bath summary and a qubit, or a temperature, describe one ensemble when
#: their inverse temperatures agree to this (relative to ``max(1, beta)``
#: for a qubit, as ``beta * T`` against 1 for a temperature).
SUMMARY_BETA_TOL = 1e-9

#: ``support_pattern_obstructs_unistochasticity`` (its default) counts an
#: entry above this as part of the support.
SUPPORT_ZERO_TOL = 1e-12

#: ``max_output_rank_bound`` counts an output eigenvalue above this toward
#: the rank; below it is rounding of a zero.
OUTPUT_RANK_CUT = 1e-9
