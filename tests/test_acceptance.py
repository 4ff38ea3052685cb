"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single ``[acceptance NN]`` line (visible with ``-s`` or in
failure output) and enforces the stated tolerance with plain asserts. Run the
whole file to audit the package against its headline claims.
"""

import math
import time
from collections import defaultdict

import numpy as np

from thermohorn import (
    ConvexCombination,
    Hamiltonian,
    alpha_bound_general,
    alpha_max_oscillator,
    bath_spectrum_summary,
    build_setup,
    classical_reachable_set,
    decoherence_gadget,
    decompose_channel_to_classical,
    enumerate_classical,
    hadamard_square,
    horn_transition_unitary,
    hull_membership,
    majorizes,
    marginal_transition_unitary,
    max_output_rank_bound,
    noisy_not_unistochastic_witness,
    oscillator_final_temperature,
    oscillator_hamiltonian,
    oscillator_summary,
    partial_trace_b,
    qubit_gibbs,
    qubit_hamiltonian,
    support_pattern_obstructs_unistochasticity,
    synthesize_unitary,
    thermal_decoherence_gadget,
    third_law_bounds,
    weight_hamiltonian,
    zero_hamiltonian,
)
from thermohorn.energy import EnergyLabel

from oracles import random_bistochastic, random_block_unitary

LN2 = math.log(2.0)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {name}: {status}{suffix}")
    assert ok, f"acceptance {number}: {name} {detail}"


def _haar(dim, rng):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def _random_density(dim, rng, rank=None):
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _fig4_setup():
    ham_a = weight_hamiltonian((5, 7, 8), beta=1.0)
    ham_b = Hamiltonian(tuple(a + b for a in ham_a.levels for b in ham_a.levels), 1.0, 1.0)
    return build_setup(ham_a, ham_b), np.array([0.65, 0.22, 0.13])


IRREGULAR_BATHS = [
    (Hamiltonian((EnergyLabel(0), EnergyLabel(1), EnergyLabel(1)), LN2, 1.0), True),
    (Hamiltonian((EnergyLabel(0), EnergyLabel(0), EnergyLabel(1)), LN2, 1.0), False),
    (Hamiltonian((EnergyLabel(0), EnergyLabel(1), EnergyLabel(3)), LN2, 1.0), False),
]


def test_acceptance_01_majorization_transitions_with_system_sized_bath():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(500):
            p = rng.dirichlet(np.ones(n))
            q = random_bistochastic(n, rng) @ p
            realization = horn_transition_unitary(p, q)
            assert realization.bath_dim == n
            worst = max(worst, float(np.abs(realization.apply_classical(p) - q).max()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "majorization transitions, bath dim n, error < 1e-9",
        worst < 1e-9 and elapsed < 30.0,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_02_irrational_target_beyond_uniform_bath_permutations():
    start = time.perf_counter()
    p = np.array([1.0, 0.0])
    target = np.array([1 / math.sqrt(2), 1 - 1 / math.sqrt(2)])
    realization = horn_transition_unitary(p, target)
    quantum_error = float(np.abs(realization.apply_classical(p) - target).max())
    best_classical = math.inf
    for m in range(1, 7):
        setup = build_setup(zero_hamiltonian(2), zero_hamiltonian(m))
        rset = classical_reachable_set(p, setup, mode="reduced")
        best_classical = min(
            best_classical, float(np.abs(rset.points - target).max(axis=1).min())
        )
    elapsed = time.perf_counter() - start
    floor = 1 / math.sqrt(2) - 2 / 3
    ok = (
        realization.bath_dim == 2
        and quantum_error < 1e-12
        and abs(best_classical - floor) < 1e-12
        and best_classical > 1 / 72
        and elapsed < 5.0
    )
    _report(
        2,
        "irrational target: quantum exact, classical gap stays open",
        ok,
        f"quantum {quantum_error:.1e}, classical gap {best_classical:.6f}, {elapsed:.1f}s",
    )


def test_acceptance_03_entrywise_square_gives_the_classical_action():
    rng = np.random.default_rng(3)
    worst_diag = 0.0
    worst_sums = 0.0
    dims = list(range(2, 13))
    for k in range(10_000):
        dim = dims[k % len(dims)]
        u = _haar(dim, rng)
        p = rng.dirichlet(np.ones(dim))
        rho = (u * p) @ u.conj().T
        d = hadamard_square(u)
        worst_diag = max(worst_diag, float(np.abs(np.diag(rho).real - d @ p).max()))
        worst_sums = max(
            worst_sums,
            float(np.abs(d.sum(axis=0) - 1.0).max()),
            float(np.abs(d.sum(axis=1) - 1.0).max()),
        )
    ok = worst_diag < 1e-9 and worst_sums < 1e-9
    _report(
        3,
        "channel diagonal equals entrywise-squared unitary, bistochastic",
        ok,
        f"diag {worst_diag:.2e}, sums {worst_sums:.2e}, 10^4 unitaries",
    )


def test_acceptance_04_marginal_construction_and_its_converse():
    rng = np.random.default_rng(4)
    combos = [(a, b) for a in (2, 3) for b in range(a, 6)]
    worst = 0.0
    for k in range(200):
        dim_a, dim_b = combos[k % len(combos)]
        rho = _random_density(dim_a * dim_b, rng)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        blocked = lam.reshape(dim_a, dim_b).sum(axis=1)
        mixed = np.zeros(dim_a)
        for w in rng.dirichlet(np.ones(4)):
            mixed += w * rng.permutation(blocked)
        basis = _haar(dim_a, rng)
        sigma = (basis * mixed) @ basis.conj().T
        u = marginal_transition_unitary(rho, sigma, dim_a, dim_b)
        achieved = partial_trace_b(u @ rho @ u.conj().T, dim_a, dim_b)
        worst = max(worst, float(np.abs(achieved - sigma).max()))
    counterexamples = 0
    for k in range(10_000):
        dim_a, dim_b = combos[k % len(combos)]
        rho = _random_density(dim_a * dim_b, rng)
        u = _haar(dim_a * dim_b, rng)
        sigma = partial_trace_b(u @ rho @ u.conj().T, dim_a, dim_b)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        blocked = np.sort(lam.reshape(dim_a, dim_b).sum(axis=1))[::-1]
        spec = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        if float(np.min(np.cumsum(blocked) - np.cumsum(spec))) < -1e-8:
            counterexamples += 1
    ok = worst < 1e-8 and counterexamples == 0
    _report(
        4,
        "marginal transitions exact; blocked-spectrum condition never violated",
        ok,
        f"200 instances, max error {worst:.2e}; {counterexamples} counterexamples in 10^4",
    )


def test_acceptance_05_extraction_maximum_matches_brute_force():
    worst = 0.0
    unique_everywhere = True
    for m in range(2, 8):
        for bde in (0.2, LN2, 1.5):
            x = math.exp(-bde)
            closed = 1.0 - (1.0 - x) / (1.0 - x**m)
            setup = build_setup(qubit_hamiltonian(beta=bde), oscillator_hamiltonian(m, bde))
            enum = enumerate_classical(setup)
            assert enum.total_count == 2 ** (m - 1)
            v = setup.joint_input(np.array([1.0, 0.0]))
            best, best_rows = -1.0, []
            for row in enum.permutations:
                shuffled = np.zeros_like(v)
                shuffled[row] = v
                alpha = float(shuffled.reshape(2, m).sum(axis=1)[1])
                if alpha > best + 1e-14:
                    best, best_rows = alpha, [row]
                elif alpha > best - 1e-14:
                    best_rows.append(row)
            worst = max(worst, abs(best - closed), abs(best - alpha_max_oscillator(m, bde)))
            expected = np.arange(2 * m)
            for e in range(1, m):
                expected[e], expected[m + e - 1] = m + e - 1, e
            if len(best_rows) != 1 or not np.array_equal(best_rows[0], expected):
                unique_everywhere = False
    ok = worst < 1e-12 and unique_everywhere
    _report(
        5,
        "qubit extraction: brute force equals closed form, unique maximizer",
        ok,
        f"max deviation {worst:.2e}, m up to 7",
    )


def test_acceptance_06_extraction_ceiling_never_exceeded():
    rng = np.random.default_rng(6)
    qg = qubit_gibbs(LN2, 1.0)
    setups = [(oscillator_hamiltonian(m, LN2), True) for m in range(2, 6)]
    setups += IRREGULAR_BATHS
    worst_excess = -math.inf
    tightness_ok = True
    for ham_b, expected_tight in setups:
        summary = bath_spectrum_summary(ham_b, 1)
        bound, tight = alpha_bound_general(summary, qg)
        if tight is not expected_tight:
            tightness_ok = False
        setup = build_setup(qubit_hamiltonian(beta=LN2), ham_b)
        v = setup.joint_input(np.array([1.0, 0.0]))
        for _ in range(1000):
            u = random_block_unitary(setup, rng)
            alpha = float(((np.abs(u) ** 2) @ v).reshape(2, setup.dim_b).sum(axis=1)[1])
            worst_excess = max(worst_excess, alpha - bound)
    ok = worst_excess <= 1e-9 and tightness_ok
    _report(
        6,
        "random energy-preserving unitaries respect the extraction ceiling",
        ok,
        f"worst alpha - bound = {worst_excess:.2e} over 7000 samples",
    )


def test_acceptance_07_cooling_bound_chain_and_large_bath_limit():
    chain_ok = True
    for m in range(2, 51):
        for temperature in (0.1, 1.0, 10.0):
            for delta_e in (0.5, 1.0, 2.0):
                beta = 1.0 / temperature
                summary = oscillator_summary(m, beta, delta_e)
                fine, coarse = third_law_bounds(temperature, delta_e, summary)
                t_osc = oscillator_final_temperature(m, beta, delta_e)
                # the T' >= fine gap shrinks below one ulp once (m-1)*beta*dE
                # exceeds ~36, so the comparison allows relative float noise
                if t_osc < fine * (1.0 - 1e-12) or fine < coarse * (1.0 - 1e-12):
                    chain_ok = False
    worst_ratio = 0.0
    for temperature, delta_e in ((0.1, 0.5), (0.1, 1.0), (0.1, 2.0), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0)):
        t_prime = oscillator_final_temperature(100, 1.0 / temperature, delta_e)
        worst_ratio = max(worst_ratio, abs(t_prime / (temperature / 100.0) - 1.0))
    ok = chain_ok and worst_ratio <= 0.05
    _report(
        7,
        "final-temperature chain holds; T' tracks T/m at m=100",
        ok,
        f"441 chain points, worst |T'/(T/m) - 1| = {worst_ratio:.3f} at beta*dE >= 0.5",
    )


def test_acceptance_08_quantum_reachability_round_trip():
    setup, p = _fig4_setup()
    rset = classical_reachable_set(p, setup)
    rng = np.random.default_rng(8)
    v = setup.joint_input(p)
    worst_round_trip = 0.0
    all_inside = True
    for _ in range(100):
        u = random_block_unitary(setup, rng)
        direct = ((np.abs(u) ** 2) @ v).reshape(3, setup.dim_b).sum(axis=1)
        if hull_membership(direct, rset, 1e-8).classification == "exterior":
            all_inside = False
        product = decompose_channel_to_classical(u, setup)
        u2, gadget = synthesize_unitary(p, product, setup)
        assert gadget is None
        redone = ((np.abs(u2) ** 2) @ v).reshape(3, setup.dim_b).sum(axis=1)
        worst_round_trip = max(worst_round_trip, float(np.abs(redone - direct).max()))
    vertices = rset.hull_vertices()
    worst_target = 0.0
    for _ in range(100):
        weights = rng.dirichlet(np.ones(len(vertices)))
        target = weights @ vertices
        found = hull_membership(target, rset, 1e-8)
        assert found.classification != "exterior"
        perms = tuple(tuple(int(x) for x in rset.representatives[k]) for k in found.vertex_indices)
        comb = ConvexCombination(found.combination.weights, perms)
        u3, gadget = synthesize_unitary(p, comb, setup)
        assert gadget is None
        achieved = ((np.abs(u3) ** 2) @ v).reshape(3, setup.dim_b).sum(axis=1)
        worst_target = max(worst_target, float(np.abs(achieved - target).max()))
    ok = worst_round_trip < 1e-7 and all_inside and worst_target < 1e-8
    _report(
        8,
        "decompose/synthesize round trip; quantum outputs stay in the hull",
        ok,
        f"round trip {worst_round_trip:.2e}, targets {worst_target:.2e}, 27-dim joint space",
    )


def test_acceptance_09_decoherence_gadgets_are_exact():
    rng = np.random.default_rng(9)
    worst_off = 0.0
    worst_diag = 0.0
    for n in range(2, 7):
        gadget = decoherence_gadget(n)
        assert gadget.bath_dim == n
        for _ in range(20):
            rho = _random_density(n, rng)
            out = gadget.apply(rho)
            off = out - np.diag(np.diag(out))
            worst_off = max(worst_off, float(np.abs(off).max()))
            worst_diag = max(worst_diag, float(np.abs(np.diag(out) - np.diag(rho)).max()))
    hams = [
        zero_hamiltonian(3),
        Hamiltonian((EnergyLabel(0), EnergyLabel(1), EnergyLabel(1)), 1.0, 1.0),
        Hamiltonian(tuple(EnergyLabel(a) for a in (0, 0, 1, 1, 1, 2)), 1.0, 1.0),
        qubit_hamiltonian(beta=1.0),
    ]
    worst_thermal = 0.0
    dims_ok = True
    for ham in hams:
        groups = defaultdict(list)
        for idx, level in enumerate(ham.levels):
            groups[level].append(idx)
        coherence_killed = {i for members in groups.values() for i in members[1:]}
        expected_dim = 1 + sum(len(members) - 1 for members in groups.values())
        gadget = thermal_decoherence_gadget(ham)
        if gadget.bath_dim != expected_dim:
            dims_ok = False
        n = ham.dim
        for _ in range(20):
            rho = _random_density(n, rng)
            out = gadget.apply(rho)
            for i in range(n):
                for k in range(n):
                    if i == k:
                        err = abs(out[i, i] - rho[i, i])
                    elif i in coherence_killed or k in coherence_killed:
                        err = abs(out[i, k])
                    else:
                        err = abs(out[i, k] - rho[i, k])
                    worst_thermal = max(worst_thermal, float(err))
    ok = worst_off < 1e-12 and worst_diag < 1e-12 and worst_thermal < 1e-12 and dims_ok
    _report(
        9,
        "decoherence gadgets: exact zeroing, exact preservation, minimal baths",
        ok,
        f"full {worst_off:.1e}, diag {worst_diag:.1e}, selective {worst_thermal:.1e}",
    )


def test_acceptance_10_bistochastic_witness_and_output_rank_ceiling():
    worst = 0.0
    for n in (3, 4, 5):
        d, realization = noisy_not_unistochastic_witness(n)
        assert support_pattern_obstructs_unistochasticity(d)
        for j in range(n):
            basis = np.zeros(n)
            basis[j] = 1.0
            worst = max(worst, float(np.abs(realization.apply_classical(basis) - d[:, j]).max()))
    ranks = {}
    for n, m in ((4, 2), (9, 2), (9, 3)):
        ranks[(n, m)] = max_output_rank_bound(n, m, 1000, seed=10)
        assert ranks[(n, m)] <= m * m
    ok = worst < 1e-12
    _report(
        10,
        "non-unistochastic witness realized; output rank never beats bath^2",
        ok,
        f"witness error {worst:.1e}; observed ranks {sorted(ranks.items())}",
    )


def test_acceptance_11_zero_hamiltonian_hull_equals_majorization_order():
    setup = build_setup(zero_hamiltonian(3), zero_hamiltonian(3))
    steps = 20
    targets = [
        np.array([i, j, steps - i - j]) / steps
        for i in range(steps + 1)
        for j in range(steps + 1 - i)
    ]
    starts = sorted(
        {tuple(sorted((i, j, steps - i - j), reverse=True)) for i in range(steps + 1) for j in range(steps + 1 - i)},
        reverse=True,
    )
    disagreements = 0
    for start in starts:
        p = np.array(start) / steps
        rset = classical_reachable_set(p, setup, mode="reduced")
        for q in targets:
            inside = hull_membership(q, rset, 1e-8).classification != "exterior"
            if inside != majorizes(p, q):
                disagreements += 1
    ok = disagreements == 0
    _report(
        11,
        "zero-Hamiltonian hull membership equals majorization order",
        ok,
        f"{len(starts)} starts x {len(targets)} targets, {disagreements} disagreements",
    )
