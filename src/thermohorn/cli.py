"""Command-line surface: every pipeline as a batch command with JSON/CSV output.

Exit codes: 0 success, 2 precondition violation (error JSON on stdout),
1 internal fault, 64 unknown subcommand, 65 malformed JSON input.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .config import (
    DECOMPOSITION_TOL,
    ENUMERATION_CAP,
    INTERIOR_MARGIN,
    MARGINAL_TOL,
    MEMBERSHIP_TOL,
    THERMO_WITNESS_TOL,
    WITNESS_PRUNE_TOL,
)
from .energy import Hamiltonian, ThermalSetup, build_setup, weight_hamiltonian
from .errors import PreconditionError
from .linalg import partial_trace_b
from .majorization import majorizes, thermomajorizes
from .noisy import (
    horn_transition_unitary,
    marginal_transition_unitary,
    noisy_not_unistochastic_witness,
)
from .qubit import (
    alpha_bound_general,
    alpha_max_achievable,
    alpha_max_oscillator,
    bath_spectrum_summary,
    d_alpha,
    final_temperature,
    oscillator_final_temperature,
    oscillator_summary,
    qubit_gibbs,
    third_law_bounds,
)
from .serialize import (
    dump_json,
    format_float,
    hamiltonian_from_json,
    hamiltonian_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_vector,
    real_rows,
    realization_to_json,
)
from .thermal import (
    ClassicalHull,
    ReachableSet,
    _greedy_unitary,
    classical_reachable_set,
    decompose_channel_to_classical,
    hull_membership,
    realize_interior,
    thermal_decoherence_gadget,
)

PROG = "thermo-horn"

# The last sentence is stale: no environment variable changes a tolerance.
# The text is kept because the benchmark's cli-cold workload compares
# `--help` stdout byte for byte with perfbench/goldens.json.
_USAGE = """usage: thermo-horn <subcommand> [options]

subcommands:
  majorize        check p >- q (sorted prefix-sum dominance)
  thermomajorize  check Dp=q, Dgamma=gamma feasibility; print a witness D
  horn            unitary + bath (dim n, maximally mixed) for p >- p'
  marginal        unitary carrying a joint state to a prescribed marginal
  noisy-witness   bistochastic-but-not-unistochastic noisy channel at dim n
  setup           energy blocks of a system + bath Hamiltonian pair
  reachable       classical reachable set and its hull (CSV or JSON)
  synthesize      energy-preserving unitary hitting a hull member exactly
  decompose       energy-preserving unitary -> blockwise permutation mixture
  decohere        small-bath gadget that removes chosen coherences
  membership      interior/boundary/exterior of a target in the hull
  realize         search growing baths for an exact realization
  qubit-alpha     extraction bounds alpha for a qubit against a bath
  third-law       final-temperature lower bounds for qubit cooling
  fig3            CSV of (m, alpha_max, p'_1, p'_2) for oscillator baths
  fig4            three-level reachable-set preset as JSON or CSV

`thermo-horn <subcommand> --help` documents flags and output schema.
Floats print with 12 significant digits; THERMO_HORN_TOL overrides the
default tolerance 1e-9.
"""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as precondition errors (exit 2)."""

    def error(self, message):
        raise PreconditionError("usage", message)


def _parser(name: str, description: str) -> _Parser:
    return _Parser(prog=f"{PROG} {name}", description=description, add_help=True)


def _json_argument(text: str):
    """Inline JSON if the token looks like JSON, else a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    try:
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise PreconditionError("missing-file", f"cannot read {text!r}: {exc}") from exc


def _beta_de(token: str) -> float:
    if token.strip() == "ln2":
        return math.log(2.0)
    try:
        value = float(token)
    except ValueError as exc:
        raise PreconditionError("bad-number", f"cannot parse {token!r} (use a float or 'ln2')") from exc
    if not (value > 0 and math.isfinite(value)):
        raise PreconditionError("bad-number", f"beta*deltaE must be positive, got {value}")
    return value


def _real_list(vec) -> list[float]:
    return real_rows(np.asarray(vec, dtype=np.float64).reshape(1, -1))[0]


def _finite_or_inf(value: float):
    return "inf" if math.isinf(value) else _real_list([value])[0]


def _reachable_csv(rset: ReachableSet) -> str:
    n = rset.setup.dim_a
    header = ",".join([f"p_{i + 1}" for i in range(n)] + ["is_hull_vertex"])
    hull = set(rset.hull_vertex_indices)
    lines = [header]
    for k, row in enumerate(rset.points):
        lines.append(",".join([format_float(x) for x in row] + ["1" if k in hull else "0"]))
    return "\n".join(lines) + "\n"


def _reachable_json(rset: ReachableSet) -> str:
    return dump_json(
        {
            "points": real_rows(rset.points),
            "hull_vertices": real_rows(rset.hull_vertices()),
            "mode": "reduced",  # the listing's only mode; the key stays in the schema
        }
    )


def _add_cap_flag(parser: _Parser):
    parser.add_argument(
        "--cap",
        type=int,
        default=ENUMERATION_CAP,
        help="most candidate outputs the listing may form for one energy block (default 10^6)",
    )


def _setup_from_args(args) -> ThermalSetup:
    ham_a = hamiltonian_from_json(_json_argument(args.ham_a))
    ham_b = hamiltonian_from_json(_json_argument(args.ham_b))
    return build_setup(ham_a, ham_b)


def _cmd_majorize(argv) -> str:
    parser = _parser("majorize", "Output: {\"majorizes\": bool}.")
    parser.add_argument("--p", required=True)
    parser.add_argument("--q", required=True)
    args = parser.parse_args(argv)
    return dump_json({"majorizes": majorizes(parse_vector(args.p), parse_vector(args.q))})


def _cmd_thermomajorize(argv) -> str:
    parser = _parser(
        "thermomajorize",
        "Output: {\"thermomajorizes\": true, \"D\", \"residual\", \"tol\"}, D a "
        "column-stochastic witness built from the two thermo-Lorenz curves, with "
        "Dgamma=gamma and Dp missing q by residual <= tol (max-norm); or "
        "{\"thermomajorizes\": false, \"D\": null}.",
    )
    parser.add_argument("--p", required=True)
    parser.add_argument("--q", required=True)
    parser.add_argument("--gamma", required=True)
    args = parser.parse_args(argv)
    p, q = parse_vector(args.p), parse_vector(args.q)
    witness = thermomajorizes(p, q, parse_vector(args.gamma))
    if witness is None:
        return dump_json({"thermomajorizes": False, "D": None})
    return dump_json(
        {
            "thermomajorizes": True,
            "D": real_rows(witness),
            "residual": _real_list([np.abs(witness @ p - q).max()])[0],
            "tol": THERMO_WITNESS_TOL,
        }
    )


def _cmd_horn(argv) -> str:
    parser = _parser(
        "horn",
        "Unitary on system x bath (bath dim n, maximally mixed) sending diag(p) "
        "to diag(target); requires p >- target. Output: {\"n\", \"m\", \"U\"}.",
    )
    parser.add_argument("--p", required=True)
    parser.add_argument("--target", required=True)
    args = parser.parse_args(argv)
    realization = horn_transition_unitary(parse_vector(args.p), parse_vector(args.target))
    return dump_json(realization_to_json(realization))


def _cmd_marginal(argv) -> str:
    parser = _parser(
        "marginal",
        "Unitary with Tr_B(U rho U+) = sigma, for dimA <= dimB. Matrix arguments "
        "are matrix JSON, inline or a file path. Output: {\"n\", \"m\", \"U\", "
        "\"residual\", \"tol\"}, Tr_B(U rho U+) missing sigma by residual <= tol "
        "(max-norm over entries).",
    )
    parser.add_argument("--rho", required=True, help="joint density matrix (dimA*dimB)")
    parser.add_argument("--sigma", required=True, help="target system density matrix")
    parser.add_argument("--dim-a", type=int, required=True)
    parser.add_argument("--dim-b", type=int, required=True)
    args = parser.parse_args(argv)
    rho = matrix_from_json(_json_argument(args.rho))
    sigma = matrix_from_json(_json_argument(args.sigma))
    unitary = marginal_transition_unitary(rho, sigma, args.dim_a, args.dim_b)
    achieved = partial_trace_b(unitary @ rho @ unitary.conj().T, args.dim_a, args.dim_b)
    return dump_json(
        {
            "n": args.dim_a,
            "m": args.dim_b,
            "U": matrix_to_json(unitary),
            "residual": _real_list([np.abs(achieved - sigma).max()])[0],
            "tol": MARGINAL_TOL,
        }
    )


def _cmd_noisy_witness(argv) -> str:
    parser = _parser(
        "noisy-witness",
        "Bistochastic matrix realized by a noisy channel yet not unistochastic "
        "(support-pattern certificate), n >= 3. Output: {\"n\", \"m\", \"D\", \"U\", "
        "\"obstructed\"}.",
    )
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
    witness, realization = noisy_not_unistochastic_witness(args.n)
    return dump_json(
        {
            "n": realization.system_dim,
            "m": realization.bath_dim,
            "D": real_rows(witness),
            "U": matrix_to_json(realization.unitary),
            "obstructed": True,
        }
    )


def _cmd_setup(argv) -> str:
    parser = _parser(
        "setup",
        "Energy blocks of system + bath. Output: {\"dim_a\", \"dim_b\", \"dim_joint\", "
        "\"blocks\", \"permutation_count\"}.",
    )
    parser.add_argument("--ham-a", required=True, help="Hamiltonian JSON, inline or path")
    parser.add_argument("--ham-b", required=True)
    args = parser.parse_args(argv)
    setup = _setup_from_args(args)
    count = math.prod(math.factorial(len(b)) for b in setup.blocks)
    return dump_json(
        {
            "dim_a": setup.dim_a,
            "dim_b": setup.dim_b,
            "dim_joint": setup.dim_joint,
            "blocks": [list(b) for b in setup.blocks],
            "permutation_count": count,
        }
    )


def _cmd_reachable(argv) -> str:
    parser = _parser(
        "reachable",
        "Classical reachable set from p. CSV columns: p_1..p_n,is_hull_vertex "
        "(sorted rows); JSON: {\"points\", \"hull_vertices\", \"mode\"}.",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--ham-b", required=True)
    parser.add_argument("--p", required=True)
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    _add_cap_flag(parser)
    args = parser.parse_args(argv)
    setup = _setup_from_args(args)
    rset = classical_reachable_set(parse_vector(args.p), setup, cap=args.cap)
    return _reachable_csv(rset) if args.format == "csv" else _reachable_json(rset)


def _realization(setup: ThermalSetup, p, target, unitary, gadget, tol: float) -> dict:
    """What realize and synthesize print of a unitary: U, gadget, achieved, residual, tol."""
    mixed = np.abs(unitary) ** 2 @ setup.joint_input(p)
    achieved = mixed.reshape(setup.dim_a, setup.dim_b).sum(axis=1)
    return {
        "U": matrix_to_json(unitary),
        "gadget": None if gadget is None else realization_to_json(gadget),
        "achieved": _real_list(achieved),
        "residual": _real_list([np.abs(achieved - target).max()])[0],
        "tol": tol,
    }


def _cmd_synthesize(argv) -> str:
    parser = _parser(
        "synthesize",
        "Energy-preserving unitary carrying p to a target within max-norm --tol of the "
        "classical reachable set's hull, mixing greedy beta-ordering permutations. Output: "
        "{\"U\", \"gadget\", \"classification\", \"achieved\", \"residual\", \"tol\"}, "
        "achieved missing the target by residual <= tol (max-norm); interior when the "
        f"target clears every facet by more than {INTERIOR_MARGIN:g}, else boundary. A "
        "farther target is not-reachable, its exact max-norm distance in the detail.",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--ham-b", required=True)
    parser.add_argument("--p", required=True)
    parser.add_argument("--target", required=True)
    parser.add_argument("--tol", type=float, default=MEMBERSHIP_TOL)
    args = parser.parse_args(argv)
    setup = _setup_from_args(args)
    p = parse_vector(args.p)
    hull = ClassicalHull(p, setup)
    if not args.tol > 0:
        raise PreconditionError("bad-tolerance", f"need tol > 0, got {args.tol}")
    target = setup._state(parse_vector(args.target))
    d = hull.distance(target)
    if d > args.tol:
        raise PreconditionError("not-reachable", f"target sits {d} outside the classical hull")
    miss, built = _greedy_unitary(hull, target, d, args.tol)
    if built is None:
        raise RuntimeError(f"greedy witness misses the target by {miss} (tolerance {args.tol})")
    payload = _realization(setup, p, target, *built, args.tol)
    payload["classification"] = "interior" if -hull.excess(target) > INTERIOR_MARGIN else "boundary"
    return dump_json(payload)


def _cmd_decompose(argv) -> str:
    parser = _parser(
        "decompose",
        "Blockwise Birkhoff decomposition of an energy-preserving unitary. Output: "
        "{\"blocks\", \"terms\": [[{\"w\", \"perm\"}...]...], \"term_count\", "
        "\"reconstruction_error\", \"tol\"} with in-block permutations; the worst "
        "block's mixture rebuilds its squared moduli to reconstruction_error <= tol.",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--ham-b", required=True)
    parser.add_argument("--u", required=True, help="unitary as matrix JSON, inline or path")
    args = parser.parse_args(argv)
    setup = _setup_from_args(args)
    unitary = matrix_from_json(_json_argument(args.u))
    product = decompose_channel_to_classical(unitary, setup)
    terms = [
        [{"w": _real_list([w])[0], "perm": [int(x) for x in perm]} for w, perm in group]
        for group in product.block_terms
    ]
    return dump_json(
        {
            "blocks": [list(b) for b in product.blocks],
            "terms": terms,
            "term_count": product.term_count,
            "reconstruction_error": _real_list([product.reconstruction_error])[0],
            "tol": DECOMPOSITION_TOL,
        }
    )


def _cmd_decohere(argv) -> str:
    parser = _parser(
        "decohere",
        "Gadget bath + unitary that zeroes coherences at the given system indices "
        "(default: all-but-one index of each degenerate eigenspace). Output: "
        "{\"n\", \"m\", \"U\"}.",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--indices", default=None, help="comma-separated system indices")
    args = parser.parse_args(argv)
    ham_a = hamiltonian_from_json(_json_argument(args.ham_a))
    indices = None
    if args.indices is not None:
        try:
            indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
        except ValueError as exc:
            raise PreconditionError("bad-indices", f"cannot parse {args.indices!r}") from exc
    gadget = thermal_decoherence_gadget(ham_a, indices)
    return dump_json(realization_to_json(gadget))


def _cmd_membership(argv) -> str:
    parser = _parser(
        "membership",
        "Classify a target against the hull of the classical reachable set. Output: "
        "{\"classification\", \"distance\", \"weights\", \"vertex_indices\", \"mode\"}. "
        "distance: for exterior targets the max-norm residual of the best convex "
        "combination (LP); for the rest the Euclidean margin of the target's "
        "projection onto the hull's affine span to the nearest hull facet, "
        f"interior when above {INTERIOR_MARGIN:g}, else boundary with distance 0. "
        "weights: a convex witness over hull vertices; when the projection lies "
        "inside the facets, a greedy walk mixing at most rank+1 of them, and only "
        f"otherwise the LP's; terms below {WITNESS_PRUNE_TOL:g} are dropped when "
        "the rest still rebuilds the target within --tol.",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--ham-b", required=True)
    parser.add_argument("--p", required=True)
    parser.add_argument("--target", required=True)
    parser.add_argument("--tol", type=float, default=MEMBERSHIP_TOL)
    _add_cap_flag(parser)
    args = parser.parse_args(argv)
    setup = _setup_from_args(args)
    rset = classical_reachable_set(parse_vector(args.p), setup, cap=args.cap)
    found = hull_membership(parse_vector(args.target), rset, args.tol)
    return dump_json(
        {
            "classification": found.classification,
            "distance": _real_list([found.distance])[0],
            "weights": None if found.combination is None else _real_list(found.combination.weights),
            "vertex_indices": list(found.vertex_indices) or None,
            "mode": "reduced",
        }
    )


def _cmd_realize(argv) -> str:
    parser = _parser(
        "realize",
        "Search growing baths (families: copies, oscillator) for an exact "
        "finite-bath realization of a thermomajorized target. Output on success: "
        "{\"found\": true, \"bath\", \"U\", \"gadget\", \"achieved\", \"residual\", \"tol\"}, "
        "the achieved marginal missing the target by residual <= tol (max-norm); on "
        "budget exhaustion: {\"found\": false} (exit 0; proves nothing).",
    )
    parser.add_argument("--ham-a", required=True)
    parser.add_argument("--p", required=True)
    parser.add_argument("--target", required=True)
    parser.add_argument("--bath-family", default="copies", choices=["copies", "oscillator"])
    parser.add_argument("--budget", type=int, default=256, help="largest bath dimension tried")
    parser.add_argument("--tol", type=float, default=MEMBERSHIP_TOL)
    args = parser.parse_args(argv)
    ham_a = hamiltonian_from_json(_json_argument(args.ham_a))
    p = parse_vector(args.p)
    target = parse_vector(args.target)
    result = realize_interior(p, ham_a, target, args.bath_family, args.budget, tol=args.tol)
    if result is None:
        return dump_json({"found": False})
    setup, unitary, gadget = result
    payload = _realization(setup, p, target, unitary, gadget, args.tol)
    return dump_json({"found": True, "bath": hamiltonian_to_json(setup.ham_b), **payload})


def _cmd_qubit_alpha(argv) -> str:
    parser = _parser(
        "qubit-alpha",
        "Extraction bound and achievable alpha for a qubit against an oscillator "
        "(--m with --beta-de) or an explicit bath (--ham-b, optional --delta-quanta). "
        "Output: {\"beta_de\", \"alpha_max\", \"bound\", \"tight\", \"p_prime\", "
        "\"final_temperature\"} plus \"m\" or \"bath_dim\".",
    )
    parser.add_argument("--beta-de", default=None, help="beta*deltaE; accepts 'ln2'")
    parser.add_argument("--m", type=int, default=None, help="oscillator bath dimension")
    parser.add_argument("--ham-b", default=None, help="bath Hamiltonian JSON")
    parser.add_argument("--delta-quanta", default="1", help="qubit gap in bath quanta, 'p/q'")
    args = parser.parse_args(argv)
    if (args.m is None) == (args.ham_b is None):
        raise PreconditionError("usage", "pass exactly one of --m and --ham-b")
    if args.m is not None:
        if args.beta_de is None:
            raise PreconditionError("usage", "--m needs --beta-de")
        bde = _beta_de(args.beta_de)
        qg = qubit_gibbs(1.0, bde)
        summary = oscillator_summary(args.m, 1.0, bde)
        achievable = alpha_max_oscillator(args.m, bde)
        extra = {"m": args.m}
    else:
        if args.beta_de is not None:
            raise PreconditionError("usage", "--ham-b takes beta from the Hamiltonian JSON")
        ham_b = hamiltonian_from_json(_json_argument(args.ham_b))
        quanta = Fraction(args.delta_quanta)
        delta_e = float(quanta) * ham_b.base_quantum
        bde = ham_b.beta * delta_e
        qg = qubit_gibbs(ham_b.beta, delta_e)
        summary = bath_spectrum_summary(ham_b, quanta)
        achievable = alpha_max_achievable(ham_b, quanta)
        extra = {"bath_dim": ham_b.dim}
    bound, tight = alpha_bound_general(summary, qg)
    p_prime = d_alpha(achievable, qg) @ np.array([0.0, 1.0])
    try:
        final = _real_list([final_temperature(p_prime, qg.delta_e)])[0]
    except PreconditionError:
        final = None
    payload = {
        "beta_de": _real_list([bde])[0],
        "alpha_max": _real_list([achievable])[0],
        "bound": _real_list([bound])[0],
        "tight": tight,
        "p_prime": _real_list(p_prime),
        "final_temperature": final,
    }
    payload.update(extra)
    return dump_json(payload)


def _cmd_third_law(argv) -> str:
    parser = _parser(
        "third-law",
        "Final-temperature lower bounds for qubit cooling: fine uses the bath free "
        "energy, coarse only (dim, e_min, e_max). Output: {\"fine\", \"coarse\", "
        "\"oscillator_temperature\"}; infinities print as \"inf\".",
    )
    parser.add_argument("--temperature", type=float, required=True)
    parser.add_argument("--delta-e", type=float, required=True)
    parser.add_argument("--m", type=int, default=None, help="oscillator bath dimension")
    parser.add_argument("--ham-b", default=None, help="bath Hamiltonian JSON (beta must be 1/T)")
    parser.add_argument("--delta-quanta", default="1")
    args = parser.parse_args(argv)
    if (args.m is None) == (args.ham_b is None):
        raise PreconditionError("usage", "pass exactly one of --m and --ham-b")
    if args.temperature <= 0 or args.delta_e <= 0:
        raise PreconditionError("bad-number", "temperature and delta-e must be positive")
    beta = 1.0 / args.temperature
    osc_temp = None
    if args.m is not None:
        summary = oscillator_summary(args.m, beta, args.delta_e)
        osc_temp = _finite_or_inf(oscillator_final_temperature(args.m, beta, args.delta_e))
    else:
        ham_b = hamiltonian_from_json(_json_argument(args.ham_b))
        summary = bath_spectrum_summary(ham_b, Fraction(args.delta_quanta))
    fine, coarse = third_law_bounds(args.temperature, args.delta_e, summary)
    return dump_json(
        {
            "fine": _finite_or_inf(fine),
            "coarse": _finite_or_inf(coarse),
            "oscillator_temperature": osc_temp,
        }
    )


def _cmd_fig3(argv) -> str:
    parser = _parser(
        "fig3",
        "CSV rows (m, alpha_max, p_prime_1, p_prime_2) for oscillator baths "
        "m=2..m-max, starting from the excited state (0, 1).",
    )
    parser.add_argument("--beta-de", required=True, help="beta*deltaE; accepts 'ln2'")
    parser.add_argument("--m-max", type=int, default=10)
    args = parser.parse_args(argv)
    if args.m_max < 2:
        raise PreconditionError("bad-number", f"m-max must be >= 2, got {args.m_max}")
    bde = _beta_de(args.beta_de)
    qg = qubit_gibbs(1.0, bde)
    excited = np.array([0.0, 1.0])
    lines = ["m,alpha_max,p_prime_1,p_prime_2"]
    for m in range(2, args.m_max + 1):
        alpha = alpha_max_oscillator(m, bde)
        p_prime = d_alpha(alpha, qg) @ excited
        lines.append(
            ",".join([str(m), format_float(alpha), format_float(p_prime[0]), format_float(p_prime[1])])
        )
    return "\n".join(lines) + "\n"


def _fig4_setup() -> tuple[ThermalSetup, np.ndarray]:
    ham_a = weight_hamiltonian((5, 7, 8), beta=1.0)
    levels_b = tuple(a + b for a in ham_a.levels for b in ham_a.levels)
    ham_b = Hamiltonian(levels_b, 1.0, 1.0)
    return build_setup(ham_a, ham_b), np.array([0.65, 0.22, 0.13])


def _cmd_fig4(argv) -> str:
    parser = _parser(
        "fig4",
        "Three-level reachable-set preset: p=(0.65,0.22,0.13), Gibbs (0.25,0.35,0.40), "
        "bath = two thermal copies (27-dim joint space). Output: JSON {\"points\", "
        "\"hull_vertices\", \"mode\"} or the reachable CSV.",
    )
    parser.add_argument("--preset", default="paper", choices=["paper"])
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    args = parser.parse_args(argv)
    setup, p = _fig4_setup()
    rset = classical_reachable_set(p, setup)
    return _reachable_json(rset) if args.format == "json" else _reachable_csv(rset)


_HANDLERS = {
    "majorize": _cmd_majorize,
    "thermomajorize": _cmd_thermomajorize,
    "horn": _cmd_horn,
    "marginal": _cmd_marginal,
    "noisy-witness": _cmd_noisy_witness,
    "setup": _cmd_setup,
    "reachable": _cmd_reachable,
    "synthesize": _cmd_synthesize,
    "decompose": _cmd_decompose,
    "decohere": _cmd_decohere,
    "membership": _cmd_membership,
    "realize": _cmd_realize,
    "qubit-alpha": _cmd_qubit_alpha,
    "third-law": _cmd_third_law,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0 if argv else 64
    name = argv[0]
    handler = _HANDLERS.get(name)
    if handler is None:
        sys.stdout.write(dump_json({"error": "unknown-subcommand", "detail": name}))
        return 64
    try:
        sys.stdout.write(handler(argv[1:]))
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except PreconditionError as exc:
        sys.stdout.write(dump_json({"error": exc.code, "detail": exc.detail}))
        return 2
    except json.JSONDecodeError as exc:
        sys.stdout.write(dump_json({"error": "malformed-json", "detail": str(exc)}))
        return 65
    except Exception as exc:  # pragma: no cover - internal faults
        sys.stdout.write(dump_json({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
