"""The four benchmark workloads: inputs, timed calls and oracle checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked. Operations come
in fixed cycles of slots; the seed draws each slot's data, never the slot
order, so every seed exercises the same mix and runs stay comparable. A run
stops at the cycle boundary nearest to the requested duration.

Phases, and which of them are timed:

* ``setup``  -- the program's own set-up (reachable sets, Hamiltonians);
  timed as part of ``setup_s`` together with ``import thermohorn``.
* ``prepare`` -- the benchmark's bookkeeping (which grid pairs majorize,
  expected bath sizes); not timed.
* ``make``   -- draw one operation's inputs from the seed; not timed.
* ``run``    -- the call into thermohorn; this alone is timed.
* ``check``  -- the oracle; not timed. Returns ``"ok"``, ``"miss"`` (no
  result although one exists), ``"wrong"`` (a result the oracle rejects)
  or ``"error"`` (the call raised).

thermohorn is passed in rather than imported here, so that the worker can
time its import.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
import types

import numpy as np

import oracles
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
LN2 = math.log(2.0)

FIG4_P = np.array([0.65, 0.22, 0.13])
FIG4_GAMMA = np.array([5.0, 7.0, 8.0]) / 20.0

# Hull vertices of the (5, 7, 8) system with two thermal copies as bath,
# starting from FIG4_P. Every vertex of the one-copy hull has p_1 >= 0.25,
# so targets built near the first two vertices (p_1 < 0.25) need the
# two-copy bath, which costs a 65,610-row reduced enumeration.
TWO_COPY_VERTICES = np.array([
    [0.239375, 0.291625, 0.469],
    [0.239375, 0.4615, 0.299125],
    [0.364125, 0.166875, 0.469],
    [0.4085, 0.4615, 0.13],
    [0.65, 0.166875, 0.183125],
    [0.65, 0.22, 0.13],
])


def haar_unitary(dim, rng):
    """Haar unitary: QR of a complex Ginibre matrix with the phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def bistochastic(n, rng):
    """Convex mix of n random permutation matrices."""
    out = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(n)):
        out[rng.permutation(n), np.arange(n)] += w
    return out


def density(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def gibbs(ham):
    logs = -ham.beta * ham.energies()
    w = np.exp(logs - logs.max())
    return w / w.sum()


class Workload:
    name = ""
    cycle: tuple = ()
    tiny_cycle: tuple = ()
    # Tail percentile, fixed per workload: it sits inside one slot group of
    # the sorted cycle, so the reading does not flip between two slots as the
    # number of cycles changes, and at the default run length at least ten
    # samples lie beyond it (except on cli-cold; see README).
    tail_q: float
    # Cycles in one traced unit of work.
    trace_cycles = 1
    # The machine's current speed (reference.py): the kernel, a sample's
    # nominal CPU seconds and the operations' CPU seconds between two
    # samples.
    ref_kernel = "lp"
    ref_every_s = reference.EVERY_S

    @property
    def ref_nominal_s(self):
        return reference.NOMINAL_S[self.ref_kernel]

    def __init__(self, th, scale="full"):
        self.th = th
        self.scale = scale
        self._reference = None

    def slots(self):
        return self.tiny_cycle if self.scale == "tiny" else self.cycle

    @staticmethod
    def cpu_clock():
        """CPU seconds of the process doing the work: this one."""
        return time.process_time()

    def reference_sample(self):
        """CPU seconds of one reference sample, taken between operations."""
        if self._reference is None:
            self._reference = reference.Reference(self.ref_kernel)
            self._reference.slice()  # the first call pays scipy's lazy imports
        return self._reference.slice()

    def setup(self):
        """Program work before the loop; timed as part of setup_s."""

    def prepare(self, rng):
        """Benchmark bookkeeping before the loop; not timed.

        May return (outcome, note) pairs for set-up outputs the oracle checked.
        """
        return []

    def corrupt(self, op, result):
        """A deliberately wrong version of ``result`` (self-check only)."""
        raise NotImplementedError


class MembershipGrid(Workload):
    """One ``hull_membership`` query per operation against prebuilt sets.

    Grid: the dimension-3 zero-Hamiltonian setup of acceptance test 11
    (every start on the 1/20 grid, mode "reduced"); oracle is majorization.
    fig4: the 27-dimensional preset; Dirichlet mixtures of its hull vertices
    must be non-exterior with a witness that reproduces them, and targets
    that fail thermomajorization must be exterior.
    """

    name = "membership-grid"
    # Exterior queries solve one LP, inside queries two. Per-call times vary
    # by about 25 % on a shared 2-vCPU virtual machine, so the median is only
    # steady near the middle of one group: 2 of 16 queries are exterior, which
    # puts it at the 2-LP group's 43rd percentile.
    cycle = (
        "grid_in", "grid_in", "fig4_in", "grid_in", "grid_in", "grid_out", "grid_in", "grid_in",
        "fig4_in", "grid_in", "grid_in", "fig4_out", "grid_in", "grid_in", "fig4_in", "grid_in",
    )
    tiny_cycle = cycle
    # p99 here reads machine stalls (about 20 ms against a 6 ms median) and
    # varied by 70 % between runs on that machine, p95 by 20 %; p90 stays
    # inside the 2-LP group.
    tail_q = 0.9
    trace_cycles = 32

    def setup(self):
        th = self.th
        steps = 6 if self.scale == "tiny" else 20
        self.steps = steps
        grid = th.build_setup(th.zero_hamiltonian(3), th.zero_hamiltonian(3))
        self.starts = sorted(
            {tuple(sorted((i, j, steps - i - j), reverse=True))
             for i in range(steps + 1) for j in range(steps + 1 - i)},
            reverse=True,
        )
        self.grid_sets = [
            th.classical_reachable_set(np.array(s) / steps, grid, mode="reduced") for s in self.starts
        ]
        ham_a = th.weight_hamiltonian((5, 7, 8), beta=1.0)
        ham_b = th.Hamiltonian(tuple(a + b for a in ham_a.levels for b in ham_a.levels), 1.0, 1.0)
        self.fig4 = th.classical_reachable_set(FIG4_P, th.build_setup(ham_a, ham_b))

    def prepare(self, rng):
        steps = self.steps
        self.targets = [
            np.array([i, j, steps - i - j]) / steps
            for i in range(steps + 1) for j in range(steps + 1 - i)
        ]
        self.pairs = {True: [], False: []}
        for si, start in enumerate(self.starts):
            p = np.array(start) / steps
            for ti, q in enumerate(self.targets):
                self.pairs[oracles.majorizes(p, q)].append((si, ti))
        self.fig4_vertices = self.fig4.hull_vertices()

    def make(self, slot, rng):
        if slot in ("grid_in", "grid_out"):
            pool = self.pairs[slot == "grid_in"]
            si, ti = pool[int(rng.integers(len(pool)))]
            return (slot, self.grid_sets[si], self.targets[ti])
        if slot == "fig4_in":
            weights = rng.dirichlet(np.ones(len(self.fig4_vertices)))
            return (slot, self.fig4, weights @ self.fig4_vertices)
        while True:
            q = rng.dirichlet(np.ones(3))
            if oracles.thermo_gap(FIG4_P, q, FIG4_GAMMA) > 1e-3:
                return (slot, self.fig4, q)

    def run(self, op):
        _, rset, target = op
        return self.th.hull_membership(target, rset, oracles.MEMBERSHIP_TOL)

    def check(self, op, result):
        slot, _, target = op
        inside = result.classification != "exterior"
        if slot in ("grid_in", "fig4_in") and not inside:
            return "wrong", f"{slot}: {target.tolist()} classified exterior"
        if slot in ("grid_out", "fig4_out") and inside:
            return "wrong", f"{slot}: {target.tolist()} classified {result.classification}"
        if slot == "fig4_in":
            comb = result.combination
            weights = np.array(comb.weights)
            rebuilt = weights @ np.array(comb.items)
            err = float(np.max(np.abs(rebuilt - target)))
            if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-9 or err > oracles.MEMBERSHIP_TOL:
                return "wrong", f"fig4 witness misses its target by {err:.2e}"
        return "ok", ""

    def corrupt(self, op, result):
        flipped = "interior" if result.classification == "exterior" else "exterior"
        return types.SimpleNamespace(classification=flipped, combination=result.combination)


def _copies_levels(th, ham, k):
    levels = (th.EnergyLabel(),)
    for _ in range(k):
        levels = tuple(a + b for a in levels for b in ham.levels)
    return th.Hamiltonian(levels, ham.beta, ham.base_quantum)


class RealizeSearch(Workload):
    """One ``realize_interior`` call per operation; build-heavy, query-light.

    A qubit in its ground state against the copies and oscillator families
    (beta * gap = ln 2), with targets whose first sufficient bath follows
    from the closed form ``alpha_max_achievable``; ranges keep every target
    at least 0.002 away from the thresholds. The ``copies_32`` slot needs
    the 32-dimensional copies bath, which the search only reaches through
    seeded sampling: today it returns None there, and the oracle counts that
    as a failed operation (a miss). The (5, 7, 8) system against copies
    needs the two-copy bath.
    """

    name = "realize-search"
    # Eight slots faster than osc_6 (one small bath after another), six
    # osc_6, six on the two-copy bath and one each of the two slow ones. The
    # median (11 / 22) falls in the middle of the osc_6 group, the tail
    # (17.5 / 22) in the middle of the w578_9 group, so neither reads the
    # edge of a group, and each group holds six calls a cycle, enough for
    # its middle to be steady. The cheap slots cost about 5 % of a cycle.
    cycle = (
        "copies_2", "osc_3", "osc_6", "w578_9", "copies_8", "osc_4", "osc_6", "w578_9",
        "osc_3", "osc_6", "w578_9", "copies_2", "osc_4", "osc_6", "copies_32", "w578_9",
        "osc_3", "osc_6", "w578_9", "osc_4", "osc_6", "w578_9",
    )
    tiny_cycle = ("copies_2", "osc_4", "copies_32")
    ref_kernel = "search"
    ref_every_s = 0.1  # a slice takes about 12 ms
    tail_q = 17.5 / 22
    budgets = {"copies": 64, "oscillator": 12, "w578": 27}
    ranges = {
        "copies_2": (0.05, 0.30),
        "copies_8": (0.345, 0.395),
        "copies_32": (0.415, 0.435),
        "osc_3": (0.345, 0.415),
        "osc_4": (0.44, 0.46),
        "osc_6": (0.486, 0.490),
    }

    def setup(self):
        th = self.th
        self.qubit = th.qubit_hamiltonian(beta=LN2)
        self.w578 = th.weight_hamiltonian((5, 7, 8), beta=1.0)

    def prepare(self, rng):
        th = self.th
        self.alpha = {"copies": [], "oscillator": []}
        k = 0
        while 2**k <= self.budgets["copies"]:
            bath = _copies_levels(th, self.qubit, k)
            self.alpha["copies"].append((bath.dim, th.alpha_max_achievable(bath, 1)))
            k += 1
        for m in range(1, self.budgets["oscillator"] + 1):
            bath = th.oscillator_hamiltonian(m, LN2)
            self.alpha["oscillator"].append((m, th.alpha_max_achievable(bath, 1)))

    def expected_dim(self, family, a):
        return next((d for d, top in self.alpha[family] if top >= a), None)

    def make(self, slot, rng):
        if slot == "w578_9":
            lam = rng.uniform(0.965, 0.975)
            mu = rng.uniform(0.3, 0.7)
            edge = mu * TWO_COPY_VERTICES[0] + (1 - mu) * TWO_COPY_VERTICES[1]
            target = lam * edge + (1 - lam) * TWO_COPY_VERTICES.mean(axis=0)
            return (slot, self.w578, FIG4_P, target / target.sum(), "copies", self.budgets["w578"], None)
        lo, hi = self.ranges[slot]
        a = rng.uniform(lo, hi)
        family = "copies" if slot.startswith("copies") else "oscillator"
        expected = self.expected_dim(family, a)
        return (slot, self.qubit, np.array([1.0, 0.0]), np.array([1.0 - a, a]), family,
                self.budgets[family], expected)

    def run(self, op):
        _, ham, p, target, family, budget, _ = op
        return self.th.realize_interior(p, ham, target, family, budget, tol=oracles.MEMBERSHIP_TOL)

    def check(self, op, result):
        slot, _, p, target, _, budget, expected = op
        if result is None:
            return "miss", f"{slot}: no realization of a={target[-1]:.4f} within bath {budget}" + (
                f" (closed form: bath {expected} suffices)" if expected else "")
        setup, u, _ = result
        if expected is not None and setup.dim_b != expected:
            return "wrong", f"{slot}: found at bath {setup.dim_b}, closed form says {expected}"
        defect = oracles.unitarity_defect(u)
        leak = self.th.energy_preservation_defect(u, setup)
        joint = np.kron(p, gibbs(setup.ham_b))
        err = float(np.max(np.abs(oracles.classical_marginal(u, joint, setup.dim_a) - target)))
        if defect > oracles.UNITARY_TOL or leak > 1e-9 or err > oracles.MEMBERSHIP_TOL:
            return "wrong", f"{slot}: unitarity {defect:.1e}, leak {leak:.1e}, target error {err:.1e}"
        return "ok", ""

    def corrupt(self, op, result):
        if result is None:
            return result
        setup, u, gadget = result
        bad = u.copy()
        bad[:, [0, 1]] = bad[:, [1, 0]]
        return setup, bad * 1.001, gadget


class SynthRoundtrip(Workload):
    """The constructive path: no enumeration and no hull LP.

    Horn transition unitaries for n up to 24, Birkhoff decompositions up to
    30x30, decompose -> synthesize round trips on Haar block unitaries, and
    marginal transition unitaries. Inputs are drawn with numpy here, not with
    thermohorn's own samplers, so a change to those samplers cannot change
    the inputs.
    """

    name = "synth-roundtrip"
    # Ten slots are faster and eleven slower than the eight fig4 round
    # trips, so the median falls inside the fig4 round trips whatever the
    # cycle count. Their cost varies with the drawn unitary, so the group is
    # large enough for its middle to be steady; eight of them add about 3 %
    # to a cycle. Horn at n = 24 varies by up to 40 % with its inputs, so it
    # runs twice a cycle, and the tail sits between its two calls.
    cycle = (
        "horn:2", "birkhoff:4", "marginal:2x2", "roundtrip:fig4", "horn:4", "birkhoff:8",
        "roundtrip:fig4", "horn:8", "birkhoff:12", "roundtrip:fig4", "marginal:3x3", "horn:12",
        "roundtrip:fig4", "horn:24", "roundtrip:qubit-osc6", "birkhoff:16", "roundtrip:fig4",
        "horn:16", "roundtrip:fig4", "birkhoff:20", "horn:20", "roundtrip:fig4",
        "roundtrip:w578-copy", "marginal:4x6", "birkhoff:24", "horn:12", "roundtrip:fig4",
        "horn:24", "birkhoff:30",
    )
    tiny_cycle = ("horn:2", "birkhoff:4", "roundtrip:qubit-osc6", "marginal:2x2", "horn:8")
    ref_kernel = "dense"
    tail_q = 27 / 29  # the middle of the second-slowest slot group (horn:24)

    def setup(self):
        th = self.th
        w578 = th.weight_hamiltonian((5, 7, 8), beta=1.0)
        two = th.Hamiltonian(tuple(a + b for a in w578.levels for b in w578.levels), 1.0, 1.0)
        self.setups = {
            "fig4": (th.build_setup(w578, two), FIG4_P),
            "qubit-osc6": (
                th.build_setup(th.qubit_hamiltonian(LN2), th.oscillator_hamiltonian(6, LN2)),
                np.array([0.3, 0.7]),
            ),
            "w578-copy": (th.build_setup(w578, w578), FIG4_P),
        }

    def make(self, slot, rng):
        kind, size = slot.split(":")
        if kind == "horn":
            n = int(size)
            p = rng.dirichlet(np.ones(n))
            return (kind, p, bistochastic(n, rng) @ p)
        if kind == "birkhoff":
            return (kind, bistochastic(int(size), rng))
        if kind == "roundtrip":
            setup, p = self.setups[size]
            u = np.zeros((setup.dim_joint, setup.dim_joint), dtype=np.complex128)
            for block in setup.blocks:
                idx = np.asarray(block)
                u[np.ix_(idx, idx)] = haar_unitary(len(block), rng)
            return (kind, setup, p, u)
        da, db = (int(x) for x in size.split("x"))
        rho = density(da * db, rng)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        blocked = lam.reshape(da, db).sum(axis=1)
        mixed = sum(w * rng.permutation(blocked) for w in rng.dirichlet(np.ones(4)))
        basis = haar_unitary(da, rng)
        return (kind, rho, (basis * mixed) @ basis.conj().T, da, db)

    def run(self, op):
        th = self.th
        kind = op[0]
        if kind == "horn":
            return th.horn_transition_unitary(op[1], op[2])
        if kind == "birkhoff":
            return th.birkhoff_decompose(op[1])
        if kind == "roundtrip":
            _, setup, p, u = op
            return th.synthesize_unitary(p, th.decompose_channel_to_classical(u, setup), setup)
        return th.marginal_transition_unitary(*op[1:])

    def check(self, op, result):
        kind = op[0]
        if kind == "horn":
            _, p, q = op
            u = result.unitary
            err = float(np.max(np.abs(oracles.noisy_channel_diagonal(u, p) - q)))
            defect = oracles.unitarity_defect(u)
            if err > oracles.HORN_TOL or defect > oracles.UNITARY_TOL or result.bath_dim != len(p):
                return "wrong", f"horn n={len(p)}: output error {err:.1e}, unitarity {defect:.1e}"
        elif kind == "birkhoff":
            d = op[1]
            n = d.shape[0]
            err, sum_err, smallest, bad = oracles.birkhoff_error(result.terms, d)
            if (err > oracles.BIRKHOFF_TOL or sum_err > oracles.WEIGHT_SUM_TOL or smallest < -1e-12
                    or bad or len(result.terms) > (n - 1) ** 2 + 1):
                return "wrong", f"birkhoff n={n}: reconstruction {err:.1e}, {len(result.terms)} terms"
        elif kind == "roundtrip":
            _, setup, p, u = op
            u2, gadget = result
            joint = np.kron(p, gibbs(setup.ham_b))
            err = float(np.max(np.abs(
                oracles.classical_marginal(u2, joint, setup.dim_a)
                - oracles.classical_marginal(u, joint, setup.dim_a))))
            defect = oracles.unitarity_defect(u2)
            leak = oracles.block_leak(u2, setup.blocks)
            if err > oracles.ROUND_TRIP_TOL or defect > oracles.UNITARY_TOL or leak > 1e-12 or gadget is not None:
                return "wrong", f"round trip dim {setup.dim_joint}: error {err:.1e}, unitarity {defect:.1e}"
        else:
            _, rho, sigma, da, db = op
            achieved = oracles.partial_trace_b(result @ rho @ result.conj().T, da, db)
            err = float(np.max(np.abs(achieved - sigma)))
            defect = oracles.unitarity_defect(result)
            if err > oracles.MARGINAL_TOL or defect > oracles.UNITARY_TOL:
                return "wrong", f"marginal {da}x{db}: error {err:.1e}, unitarity {defect:.1e}"
        return "ok", ""

    def corrupt(self, op, result):
        if op[0] == "horn":
            return types.SimpleNamespace(unitary=result.unitary[::-1], bath_dim=result.bath_dim)
        return result


# Fixed argument variants per cli-cold slot; goldens.json holds the seed
# commit's stdout for each. `membership` is left out on purpose: a change of
# membership algorithm may legitimately change its `distance` field.
DECOHERE_HAMS = (
    '{"beta": 1.0, "quantum": 1.0, "levels": [{"a": 0}, {"a": 1}, {"a": 1}]}',
    '{"beta": 0.5, "quantum": 1.0, "levels": [{"a": 0}, {"a": 0}, {"a": 1}, {"a": 1}, {"a": 1}, {"a": 2}]}',
    '{"beta": 1.0, "quantum": 1.0, "levels": [{"a": 0}, {"a": "1/2"}, {"a": "1/2"}, {"a": 1}]}',
)
CLI_VARIANTS = {
    "majorize": (
        ("majorize", "--p", "0.7,0.3", "--q", "0.5,0.5"),
        ("majorize", "--p", "0.5,0.3,0.2", "--q", "0.4,0.4,0.2"),
        ("majorize", "--p", "0.4,0.4,0.2", "--q", "0.5,0.3,0.2"),
        ("majorize", "--p", "0.6,0.2,0.1,0.1", "--q", "0.3,0.3,0.2,0.2"),
        ("majorize", "--p", "2/3,1/6,1/6", "--q", "1/2,1/3,1/6"),
    ),
    "qubit-alpha": (
        ("qubit-alpha", "--m", "3", "--beta-de", "ln2"),
        ("qubit-alpha", "--m", "10", "--beta-de", "0.5"),
        ("qubit-alpha", "--m", "50", "--beta-de", "2.0"),
        ("qubit-alpha", "--m", "7", "--beta-de", "1.3"),
    ),
    "third-law": (
        ("third-law", "--temperature", "1.0", "--delta-e", "1.0", "--m", "10"),
        ("third-law", "--temperature", "0.5", "--delta-e", "2.0", "--m", "100"),
        ("third-law", "--temperature", "2.0", "--delta-e", "0.7", "--m", "4"),
    ),
    "horn": (
        ("horn", "--p", "0.5,0.3,0.2", "--target", "0.4,0.35,0.25"),
        ("horn", "--p", "0.7,0.3", "--target", "0.6,0.4"),
        ("horn", "--p", "0.4,0.3,0.2,0.1", "--target", "0.3,0.3,0.2,0.2"),
        ("horn", "--p", "1,0", "--target", "0.75,0.25"),
    ),
    "decohere": tuple(("decohere", "--ham-a", ham) for ham in DECOHERE_HAMS)
    + (("decohere", "--ham-a", DECOHERE_HAMS[1], "--indices", "0,3"),),
    "fig4-json": (("fig4", "--preset", "paper", "--format", "json"),),
    "fig4-csv": (("fig4", "--preset", "paper", "--format", "csv"),),
}
HELP_ARGV = ("--help",)
# cli-cold's reference sample: a child interpreter that imports numpy and
# scipy.linalg, which calls no thermohorn code.
REFERENCE_ARGV = ("-c", "import numpy, scipy.linalg")


def child_env():
    """Environment for every child interpreter: BLAS capped at one thread."""
    env = dict(os.environ)
    env.pop("THERMO_HORN_TOL", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cli_command(argv, spans_path=None):
    if spans_path is None:
        return [sys.executable, "-m", "thermohorn.cli", *argv]
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv]


def golden_key(slot, index):
    return f"{slot}/{index}"


class CliCold(Workload):
    """Each operation is one subcommand in a fresh interpreter.

    Import dominates here. The oracle compares stdout byte for byte with the
    seed commit's output and requires exit code 0. Set-up is one cold
    ``--help``, so import cost shows in setup_s as on the other workloads.
    """

    name = "cli-cold"
    cycle = ("majorize", "qubit-alpha", "fig4-json", "third-law", "horn", "decohere", "fig4-csv")
    tiny_cycle = ("majorize", "horn", "fig4-json")
    tail_q = 0.786  # the middle of the sixth of seven slot groups
    # One reference child before every operation and after the last; about
    # its median CPU time on the machine the benchmark was written on.
    ref_kernel = None
    ref_nominal_s = 0.45
    ref_every_s = 0.0

    def __init__(self, th, scale="full", traced=False, spans_dir=None):
        super().__init__(th, scale)
        self.traced = traced
        self.spans_dir = spans_dir
        self.child_spans = []  # (op index, spans file, start, end) of traced children
        self.calls = 0
        with open(GOLDENS, encoding="utf-8") as handle:
            self.goldens = json.load(handle)

    @staticmethod
    def cpu_clock():
        """CPU seconds of the finished child interpreters."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def _call(self, argv):
        path = None
        if self.traced:
            path = os.path.join(self.spans_dir, f"cli-{self.calls}.json")
        t0 = time.perf_counter()
        done = subprocess.run(
            cli_command(argv, path), env=child_env(), cwd=ROOT, capture_output=True, timeout=120
        )
        if path is not None:
            self.child_spans.append((self.calls, path, t0, time.perf_counter()))
        self.calls += 1
        return done

    def reference_sample(self):
        c0 = self.cpu_clock()
        done = subprocess.run(
            [sys.executable, *REFERENCE_ARGV], env=child_env(), cwd=ROOT, capture_output=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"reference child exited with {done.returncode}: {done.stderr[-300:]!r}")
        return self.cpu_clock() - c0

    def setup(self):
        self.help = self._call(HELP_ARGV)

    def prepare(self, rng):
        return [self._compare(self.help, "help", HELP_ARGV)]

    def make(self, slot, rng):
        index = int(rng.integers(len(CLI_VARIANTS[slot])))
        return (slot, index, CLI_VARIANTS[slot][index])

    def run(self, op):
        return self._call(op[2])

    def _compare(self, result, key, argv):
        golden = self.goldens[key]
        if list(golden["argv"]) != list(argv):
            return "wrong", f"{key}: golden was recorded for {golden['argv']}"
        if result.returncode != 0:
            return "wrong", f"{key}: exit code {result.returncode}: {result.stderr[-300:]!r}"
        if result.stdout.decode("utf-8", "replace") != golden["stdout"]:
            return "wrong", f"{key}: stdout differs from the golden ({len(result.stdout)} bytes)"
        return "ok", ""

    def check(self, op, result):
        slot, index, argv = op
        return self._compare(result, golden_key(slot, index), argv)

    def corrupt(self, op, result):
        self.goldens[golden_key(op[0], op[1])]["stdout"] += " "
        return result


WORKLOADS = {w.name: w for w in (MembershipGrid, RealizeSearch, SynthRoundtrip, CliCold)}
