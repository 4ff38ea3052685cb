import itertools
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermohorn
from thermohorn import (
    alpha_max_oscillator,
    build_setup,
    d_alpha,
    oscillator_hamiltonian,
    qubit_gibbs,
    random_block_unitary,
)
from thermohorn import cli, thermal
from thermohorn.cli import main
from thermohorn.config import (
    DECOMPOSITION_TOL,
    INTERIOR_MARGIN,
    MARGINAL_TOL,
    MEMBERSHIP_TOL,
    THERMO_WITNESS_TOL,
    WITNESS_PRUNE_TOL,
)
from thermohorn.linalg import partial_trace_b
from thermohorn.serialize import format_float, matrix_from_json, matrix_to_json, realization_from_json
from thermohorn.thermal import ClassicalHull

LN2 = math.log(2.0)
GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"
REALIZE_GOLDENS = Path(__file__).resolve().parent / "realize_goldens.json"


def _osc_json(m, beta):
    return json.dumps({"beta": beta, "quantum": 1.0, "levels": [{"a": k} for k in range(m)]})


QUBIT = _osc_json(2, LN2)
OSC2 = QUBIT
OSC3 = _osc_json(3, LN2)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_no_arguments_prints_usage(capsys):
    code, out = _run(capsys)
    assert code == 64
    assert "thermo-horn" in out and "majorize" in out and "fig4" in out
    code, out = _run(capsys, "-h")
    assert code == 0


def test_unknown_subcommand(capsys):
    code, out = _run(capsys, "frobnicate")
    assert code == 64
    assert json.loads(out)["error"] == "unknown-subcommand"


def test_majorize_exact_output(capsys):
    code, out = _run(capsys, "majorize", "--p", "0.7,0.3", "--q", "0.5,0.5")
    assert code == 0
    assert out == '{"majorizes": true}\n'
    code, out = _run(capsys, "majorize", "--p", "0.5,0.5", "--q", "0.7,0.3")
    assert code == 0
    assert out == '{"majorizes": false}\n'
    code, out = _run(capsys, "majorize", "--p", "2/3,1/3", "--q", "1/2,1/2")
    assert out == '{"majorizes": true}\n'


def test_usage_error_exits_2(capsys):
    code, out = _run(capsys, "majorize", "--p", "0.5,0.5")
    assert code == 2
    assert json.loads(out)["error"] == "usage"


def test_thermomajorize_emits_checkable_witness(capsys):
    code, out = _run(
        capsys, "thermomajorize", "--p", "0,1", "--q", "1/2,1/2", "--gamma", "2/3,1/3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["thermomajorizes"] is True
    d = np.array(payload["D"])
    gamma = np.array([2 / 3, 1 / 3])
    assert np.abs(d.sum(axis=0) - 1.0).max() < 1e-9
    assert np.abs(d @ gamma - gamma).max() < 1e-9
    residual = np.abs(d @ np.array([0.0, 1.0]) - np.array([0.5, 0.5])).max()
    assert residual < 1e-9
    assert payload["tol"] == THERMO_WITNESS_TOL
    assert abs(payload["residual"] - residual) <= 1e-12 and payload["residual"] <= payload["tol"]
    code, out = _run(
        capsys, "thermomajorize", "--p", "2/3,1/3", "--q", "1/2,1/2", "--gamma", "2/3,1/3"
    )
    assert code == 0
    assert json.loads(out) == {"thermomajorizes": False, "D": None}


def test_horn_emits_working_realization(capsys):
    code, out = _run(capsys, "horn", "--p", "0.8,0.2", "--target", "0.6,0.4")
    assert code == 0
    realization = realization_from_json(json.loads(out))
    assert realization.system_dim == 2 and realization.bath_dim == 2
    v = np.kron([0.8, 0.2], [0.5, 0.5])
    achieved = (np.abs(realization.unitary) ** 2 @ v).reshape(2, 2).sum(axis=1)
    assert np.abs(achieved - [0.6, 0.4]).max() < 1e-9


def test_marginal_reports_its_residual_against_its_tolerance(capsys):
    # A pure product state whose system marginal is carried to a mixed one:
    # the printed residual is the max-norm miss of Tr_B(U rho U+) against
    # sigma, recomputed from the printed (12-digit) unitary, and lies below
    # the printed tolerance.
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    sigma = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
    rho_json, sigma_json = (json.dumps(matrix_to_json(m)) for m in (rho, sigma))
    argv = ("marginal", "--rho", rho_json, "--sigma", sigma_json, "--dim-a", "2", "--dim-b", "2")
    code, out = _run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "m", "U", "residual", "tol"}
    assert payload["tol"] == MARGINAL_TOL and 0.0 <= payload["residual"] <= MARGINAL_TOL
    u = matrix_from_json(payload["U"])
    achieved = partial_trace_b(u @ rho @ u.conj().T, 2, 2)
    assert abs(np.abs(achieved - sigma).max() - payload["residual"]) <= 1e-11
    assert _run(capsys, *argv) == (0, out)


def test_horn_rejects_non_majorized_target(capsys):
    code, out = _run(capsys, "horn", "--p", "0.6,0.4", "--target", "0.8,0.2")
    assert code == 2
    assert "error" in json.loads(out)


def test_malformed_json_exits_65(capsys):
    code, out = _run(
        capsys, "decohere", "--ham-a", '{"beta": 1.0, "levels": [{"a": 0}'
    )
    assert code == 65
    assert json.loads(out)["error"] == "malformed-json"


def test_missing_file_exits_2(capsys):
    code, out = _run(capsys, "decohere", "--ham-a", "/no/such/file.json")
    assert code == 2
    assert json.loads(out)["error"] == "missing-file"


def test_setup_reports_blocks(capsys):
    code, out = _run(capsys, "setup", "--ham-a", QUBIT, "--ham-b", OSC3)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_a"] == 2 and payload["dim_b"] == 3 and payload["dim_joint"] == 6
    assert payload["blocks"] == [[0], [1, 3], [2, 4], [5]]
    assert payload["permutation_count"] == 4


def test_reachable_csv_rows_and_determinism(capsys):
    args = ("reachable", "--ham-a", QUBIT, "--ham-b", OSC2, "--p", "1,0")
    code, first = _run(capsys, *args)
    assert code == 0
    assert first.splitlines() == [
        "p_1,p_2,is_hull_vertex",
        "0.666666666667,0.333333333333,1",
        "1,0,1",
    ]
    code, second = _run(capsys, *args)
    assert second == first


def test_reachable_json_structure(capsys):
    code, out = _run(
        capsys, "reachable", "--ham-a", QUBIT, "--ham-b", OSC2, "--p", "1,0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "reduced"
    assert len(payload["points"]) == 2 and len(payload["hull_vertices"]) == 2


def test_membership_classifications(capsys):
    base = ("membership", "--ham-a", QUBIT, "--ham-b", OSC2, "--p", "0,1")
    code, out = _run(capsys, *base, "--target", "1/3,2/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "interior"
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
    code, out = _run(capsys, *base, "--target", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "exterior"
    assert payload["weights"] is None and payload["distance"] > 0.01


def test_membership_vertex_target_has_a_single_term_witness(capsys):
    code, out = _run(
        capsys, "membership", "--ham-a", QUBIT, "--ham-b", QUBIT,
        "--p", "0.7,0.3", "--target", "0.7,0.3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "boundary"
    assert payload["weights"] == [1.0]
    assert len(payload["vertex_indices"]) == 1


def test_synthesize_vertex_target(capsys):
    code, out = _run(
        capsys, "synthesize", "--ham-a", QUBIT, "--ham-b", OSC2,
        "--p", "1,0", "--target", "2/3,1/3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "boundary"
    assert payload["gadget"] is None
    assert np.abs(np.array(payload["achieved"]) - [2 / 3, 1 / 3]).max() < 1e-9


def test_synthesize_rejects_nonpositive_tolerance(capsys):
    code, out = _run(
        capsys, "synthesize", "--ham-a", QUBIT, "--ham-b", OSC3,
        "--p", "0.7,0.3", "--target", "0.7,0.3", "--tol", "-1",
    )
    assert code == 2
    assert json.loads(out)["error"] == "bad-tolerance"


def test_removed_enumeration_flags_exit_2(capsys):
    base = ("--ham-a", QUBIT, "--p", "0.7,0.3")
    for argv in (
        ("reachable", "--ham-b", OSC3, *base, "--mode", "exhaustive"),
        ("membership", "--ham-b", OSC3, *base, "--target", "0.7,0.3", "--samples", "10"),
        ("synthesize", "--ham-b", OSC3, *base, "--target", "0.7,0.3", "--seed", "1"),
        ("synthesize", "--ham-b", OSC3, *base, "--target", "0.7,0.3", "--cap", "10"),
        ("realize", *base, "--target", "0.7,0.3", "--seed", "1"),
    ):
        code, out = _run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "usage"


def test_synthesize_rejects_exterior_target(capsys):
    # The detail carries the target's exact max-norm distance to the hull:
    # (0, 1) from the qubit's one-copy hull, whose nearest point is the
    # vertex (2/3, 1/3).
    code, out = _run(
        capsys, "synthesize", "--ham-a", QUBIT, "--ham-b", OSC2,
        "--p", "1,0", "--target", "0,1",
    )
    assert code == 2
    refused = json.loads(out)
    assert refused["error"] == "not-reachable"
    sits, distance, rest = refused["detail"].split(" ", 3)[1:]
    assert (sits, rest) == ("sits", "outside the classical hull")
    assert float(distance) == pytest.approx(2 / 3, abs=1e-15)


QUTRIT_013 = json.dumps({"beta": 0.7, "quantum": 1.0, "levels": [{"a": a} for a in (0, 1, 3)]})


@pytest.mark.parametrize(
    "ham_a, p, target, family",
    [
        (None, None, None, None),  # the w578-copies golden
        (QUTRIT_013, "0.2,0.3,0.5", "0.35,0.3,0.35", "copies"),
        (OSC3, "1,0,0", "0.7,0.2,0.1", "oscillator"),
    ],
    ids=["w578-copies", "qutrit-013-copies", "osc3-oscillator"],
)
def test_synthesize_matches_realize_on_the_bath_realize_found(capsys, ham_a, p, target, family):
    # realize and synthesize build their unitary by one step, so on the bath
    # realize found synthesize prints the same U, gadget, achieved, residual
    # and tol. The printed bath rounds beta to 12 digits: it is given the
    # system's own beta, which ln 2 needs.
    if ham_a is None:
        with open(REALIZE_GOLDENS, encoding="utf-8") as handle:
            argv = json.load(handle)["w578-copies"]["argv"]
    else:
        argv = ["realize", "--ham-a", ham_a, "--p", p, "--target", target, "--bath-family", family]
    options = dict(zip(argv[1::2], argv[2::2]))
    code, out = _run(capsys, *argv)
    assert code == 0
    realized = json.loads(out)
    assert realized["found"]
    bath = realized["bath"] | {"beta": json.loads(options["--ham-a"])["beta"]}
    code, out = _run(
        capsys, "synthesize", "--ham-a", options["--ham-a"], "--ham-b", json.dumps(bath),
        "--p", options["--p"], "--target", options["--target"],
    )
    assert code == 0
    synthesized = json.loads(out)
    keys = ["U", "gadget", "achieved", "residual", "tol"]
    assert {k: synthesized[k] for k in keys} == {k: realized[k] for k in keys}
    assert synthesized["residual"] <= synthesized["tol"] == MEMBERSHIP_TOL
    assert set(synthesized) == {*keys, "classification"}


def test_synthesize_prints_no_unitary_for_a_witness_that_misses(capsys, monkeypatch):
    # A witness that rounding carries past tol builds no unitary: synthesize
    # names the miss as an internal fault (exit 1).
    monkeypatch.setattr(cli, "_greedy_unitary", lambda hull, target, d, tol: (2.5e-8, None))
    code, out = _run(
        capsys, "synthesize", "--ham-a", QUBIT, "--ham-b", OSC2,
        "--p", "1,0", "--target", "2/3,1/3",
    )
    assert code == 1
    assert json.loads(out) == {
        "error": "internal",
        "detail": "RuntimeError: greedy witness misses the target by 2.5e-08 (tolerance 1e-08)",
    }


def test_synthesize_builds_on_a_bath_the_listing_refuses(capsys):
    # Three copies of the (0, 1, 3) qutrit give 81 joint dims, where one
    # energy block alone would list 8,168,160 candidate outputs. synthesize
    # lists nothing: it decides the bath from F and mixes greedy orders.
    bath = [sum(levels) for levels in itertools.product((0, 1, 3), repeat=3)]
    code, out = _run(
        capsys, "synthesize", "--ham-a", QUTRIT_013,
        "--ham-b", json.dumps({"beta": 0.7, "quantum": 1.0, "levels": [{"a": a} for a in bath]}),
        "--p", "0.2,0.3,0.5", "--target", "0.35,0.3,0.35",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["U"]["rows"] == 81
    assert payload["residual"] <= payload["tol"] == MEMBERSHIP_TOL
    assert payload["classification"] == "interior"


def test_synthesize_classifies_an_eight_level_target_without_listing_orders(capsys, monkeypatch):
    # The facet margin reads the hull's span off F's separators, so
    # classifying a target of an 8-level system lists none of its 8! orders.
    # The target mixes the greedy vectors of twelve random orders.
    p = np.random.default_rng(8).dirichlet(np.ones(8))
    hull = ClassicalHull(p, build_setup(oscillator_hamiltonian(8, 0.5), oscillator_hamiltonian(2, 0.5)))
    rng = np.random.default_rng(9)
    vectors = []
    for _ in range(12):
        vector, prefix = np.empty(8), 0
        for a in rng.permutation(8):
            vector[a] = hull.table[prefix | 1 << a] - hull.table[prefix]
            prefix |= 1 << a
        vectors.append(vector)
    target = rng.dirichlet(np.ones(12)) @ vectors

    def refuse(*args):
        raise AssertionError("the n! walk")

    monkeypatch.setattr(ClassicalHull, "_pick_vertices", refuse)
    code, out = _run(
        capsys, "synthesize", "--ham-a", _osc_json(8, 0.5), "--ham-b", _osc_json(2, 0.5),
        "--p", ",".join(map(repr, p.tolist())), "--target", ",".join(map(repr, target.tolist())),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "interior"
    assert payload["U"]["rows"] == 16
    assert payload["residual"] <= payload["tol"] == MEMBERSHIP_TOL


#: The swap of a qubit and a two-level oscillator, as ``--u`` JSON.
SWAP_U = json.dumps({
    "rows": 4,
    "cols": 4,
    "entries": [
        [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
        [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
        [0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
        [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
    ],
})


def _u_json(u):
    """``u`` as ``--u`` JSON, every entry written in full."""
    rows, cols = u.shape
    entries = [[z.real, z.imag] for z in u.ravel().tolist()]
    return json.dumps({"rows": rows, "cols": cols, "entries": entries})


def _qutrit_pair_unitary():
    """Qutrit against qutrit: a rotation on the first pair, the 3x3 Fourier matrix on the middle block.

    The blocks have sizes 1, 2, 3, 2 and 1.
    """
    u = np.eye(9, dtype=np.complex128)
    c, s = math.cos(0.3), math.sin(0.3)
    u[np.ix_([1, 3], [1, 3])] = [[c, -s], [s, c]]
    middle = [2, 4, 6]
    u[np.ix_(middle, middle)] = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / math.sqrt(3)
    return u


def test_decompose_swap_permutation(capsys):
    code, out = _run(capsys, "decompose", "--ham-a", QUBIT, "--ham-b", OSC2, "--u", SWAP_U)
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[0], [1, 2], [3]]
    assert payload["term_count"] == 1
    middle = payload["terms"][1]
    assert len(middle) == 1
    assert middle[0]["perm"] == [1, 0]
    assert middle[0]["w"] == pytest.approx(1.0, abs=1e-12)
    assert payload["reconstruction_error"] == 0.0
    assert payload["tol"] == DECOMPOSITION_TOL


def test_decompose_reports_the_worst_block_reconstruction_error(capsys):
    # The rotation and the Fourier matrix give blocks of two and three terms.
    u = _qutrit_pair_unitary()
    code, out = _run(capsys, "decompose", "--ham-a", OSC3, "--ham-b", OSC3, "--u", _u_json(u))
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[0], [1, 3], [2, 4, 6], [5, 7], [8]]
    assert [len(group) for group in payload["terms"]] == [1, 2, 3, 1, 1]
    assert payload["term_count"] == 6
    worst = 0.0
    for block, group in zip(payload["blocks"], payload["terms"]):
        rebuilt = np.zeros((len(block), len(block)))
        for term in group:
            rebuilt[term["perm"], range(len(block))] += term["w"]
        sub = u[np.ix_(block, block)]
        worst = max(worst, float(np.abs(rebuilt - np.abs(sub) ** 2).max()))
    assert 0.0 < payload["reconstruction_error"] <= payload["tol"] == DECOMPOSITION_TOL
    # The printed weights carry 12 significant digits.
    assert payload["reconstruction_error"] == pytest.approx(worst, abs=1e-12)


def test_decohere_gadget_dimensions(capsys):
    code, out = _run(capsys, "decohere", "--ham-a", QUBIT)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["m"] == 1
    degenerate = json.dumps(
        {"beta": 1.0, "quantum": 1.0, "levels": [{"a": 0}, {"a": 1}, {"a": 1}]}
    )
    code, out = _run(capsys, "decohere", "--ham-a", degenerate)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 2
    realization_from_json(payload)


def test_realize_identity_target_uses_trivial_bath(capsys):
    code, out = _run(
        capsys, "realize", "--ham-a", QUBIT, "--p", "0.6,0.4", "--target", "0.6,0.4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert len(payload["bath"]["levels"]) == 1
    assert np.abs(np.array(payload["achieved"]) - [0.6, 0.4]).max() < 1e-9


def test_realize_rejects_non_thermomajorized_target(capsys):
    code, out = _run(
        capsys, "realize", "--ham-a", QUBIT, "--p", "2/3,1/3", "--target", "0.5,0.5"
    )
    assert code == 2
    assert json.loads(out)["error"] == "not-thermomajorized"


def test_realize_reports_an_unallocatable_unitary_as_a_refusal(capsys, monkeypatch):
    # The dense unitary's allocation is made to fail, as it does for a bath
    # of 177,147 joint dimensions: exit 2 with a named error, not exit 1.
    class Refusing:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(shape, dtype=float):
            if np.ndim(shape) and np.dtype(dtype) == np.complex128:
                raise MemoryError(f"Unable to allocate a complex array with shape {shape}")
            return np.zeros(shape, dtype)

    monkeypatch.setattr(thermal, "np", Refusing())
    code, out = _run(
        capsys, "realize", "--ham-a", QUBIT, "--p", "1,0", "--target", "0.7,0.3"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "unitary-too-large" and "4x4" in payload["detail"]


def test_qubit_alpha_oscillator_route(capsys):
    code, out = _run(capsys, "qubit-alpha", "--m", "3", "--beta-de", "ln2")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3
    assert payload["alpha_max"] == pytest.approx(3 / 7, abs=1e-11)
    assert payload["bound"] == pytest.approx(3 / 7, abs=1e-11)
    assert payload["tight"] is True
    assert np.abs(np.array(payload["p_prime"]) - [6 / 7, 1 / 7]).max() < 1e-9
    assert payload["final_temperature"] == pytest.approx(LN2 / math.log(6.0), abs=1e-9)


def test_qubit_alpha_explicit_bath_agrees_with_oscillator(capsys):
    code, osc = _run(capsys, "qubit-alpha", "--m", "3", "--beta-de", "ln2")
    code2, explicit = _run(capsys, "qubit-alpha", "--ham-b", OSC3)
    assert code == 0 and code2 == 0
    a, b = json.loads(osc), json.loads(explicit)
    assert b["bath_dim"] == 3
    for key in ("alpha_max", "bound", "tight", "beta_de", "p_prime"):
        assert a[key] == b[key]


def test_qubit_alpha_rejects_ambiguous_bath(capsys):
    code, out = _run(capsys, "qubit-alpha", "--m", "3", "--ham-b", OSC3)
    assert code == 2
    code, out = _run(capsys, "qubit-alpha", "--m", "3")
    assert code == 2
    code, out = _run(capsys, "qubit-alpha", "--ham-b", OSC3, "--beta-de", "1.0")
    assert code == 2


def test_third_law_oscillator_bounds(capsys):
    code, out = _run(
        capsys, "third-law", "--temperature", "1.0", "--delta-e", "1.0", "--m", "3"
    )
    assert code == 0
    payload = json.loads(out)
    z = 1 + math.exp(-1.0) + math.exp(-2.0)
    assert payload["fine"] == pytest.approx(1.0 / (2.0 + math.log(z)), abs=1e-9)
    assert payload["coarse"] == pytest.approx(1.0 / (2.0 + math.log(3.0)), abs=1e-9)
    assert payload["oscillator_temperature"] > payload["fine"] > payload["coarse"]


def test_third_law_trivial_bath_prints_inf(capsys):
    one_level = json.dumps({"beta": 1.0, "quantum": 1.0, "levels": [{"a": 0}]})
    code, out = _run(
        capsys, "third-law", "--temperature", "1.0", "--delta-e", "1.0",
        "--ham-b", one_level,
    )
    assert code == 0
    assert json.loads(out) == {"fine": "inf", "coarse": "inf", "oscillator_temperature": None}


def test_fig3_matches_closed_forms(capsys):
    code, out = _run(capsys, "fig3", "--beta-de", "ln2", "--m-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,alpha_max,p_prime_1,p_prime_2"
    qg = qubit_gibbs(1.0, LN2)
    excited = np.array([0.0, 1.0])
    for m, line in zip(range(2, 6), lines[1:]):
        alpha = alpha_max_oscillator(m, LN2)
        p_prime = d_alpha(alpha, qg) @ excited
        expected = ",".join(
            [str(m), format_float(alpha), format_float(p_prime[0]), format_float(p_prime[1])]
        )
        assert line == expected
    assert lines[1].startswith("2,0.333333333333,")


def test_fig4_preset_summary(capsys):
    code, out = _run(capsys, "fig4", "--preset", "paper")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "reduced"
    assert len(payload["points"]) == 1344
    assert len(payload["hull_vertices"]) == 6


def test_fig4_matches_benchmark_goldens(capsys):
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    keys = [k for k in goldens if k.split("/")[0] in ("fig4-json", "fig4-csv", "horn", "decohere")]
    assert len(keys) == 10
    for key in keys:
        golden = goldens[key]
        code, out = _run(capsys, *golden["argv"])
        assert code == 0
        assert out == golden["stdout"], key


def test_realize_matches_its_goldens(capsys):
    # A ground-state qubit against qubit copies (8-level bath) and an
    # oscillator (4 levels), the (5, 7, 8) system against its two-copy bath,
    # and a target no oscillator within budget reaches: stdout byte for byte,
    # as recorded when every bath was still classified by its facets, plus
    # the residual and tol keys. qubit-copies-32 (recorded before the block
    # data moved onto the hull) reaches the 32-level copies bath, whose
    # rotated blocks have three sizes (6, 15, 20). A found realization misses
    # by at most tol.
    with open(REALIZE_GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    assert sorted(goldens) == [
        "not-found",
        "qubit-copies",
        "qubit-copies-32",
        "qubit-oscillator",
        "w578-copies",
    ]
    for key, golden in goldens.items():
        code, out = _run(capsys, *golden["argv"])
        assert code == 0
        assert out == golden["stdout"], key
        found = json.loads(out)
        if found["found"]:
            assert found["residual"] <= found["tol"] == MEMBERSHIP_TOL, key


def _openblas_picks_its_kernel_at_run_time():
    """numpy's BLAS is an x86-64 OpenBLAS built with ``DYNAMIC_ARCH``, so ``OPENBLAS_CORETYPE`` picks its kernel."""
    if platform.machine() != "x86_64":
        return False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


def _stdout_under_each_kernel(argv, key):
    """``thermo-horn argv``'s stdout under the default OpenBLAS kernel, then under Prescott."""
    src = str(Path(thermohorn.__file__).resolve().parents[1])
    stdouts = []
    for kernel in (None, "Prescott"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        done = subprocess.run(
            [sys.executable, "-m", "thermohorn.cli", *argv], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, (key, kernel, done.stderr)
        stdouts.append(done.stdout)
    return stdouts


@pytest.mark.skipif(
    not _openblas_picks_its_kernel_at_run_time(), reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH"
)
def test_realize_stdout_is_the_same_bytes_under_the_baseline_openblas_kernel():
    # Each rotation is placed into the unitary by index, not by a BLAS
    # product, so no kernel's zero signs reach stdout: the default kernel
    # and Prescott, the baseline x86-64 kernel, print the same bytes for
    # every golden argv.
    with open(REALIZE_GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    for key, golden in goldens.items():
        default, prescott = _stdout_under_each_kernel(golden["argv"], key)
        assert default == prescott, key


@pytest.mark.skipif(
    not _openblas_picks_its_kernel_at_run_time(), reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH"
)
def test_decompose_stdout_is_the_same_bytes_under_the_baseline_openblas_kernel():
    # The Birkhoff chain runs on Python floats and its check on one
    # bincount sum, so no BLAS kernel reaches decompose's stdout: the two
    # matrices above and a seeded Haar block unitary on two 4-level
    # oscillators print the same bytes under the default kernel and Prescott.
    osc4 = _osc_json(4, LN2)
    setup = build_setup(oscillator_hamiltonian(4, LN2), oscillator_hamiltonian(4, LN2))
    haar = random_block_unitary(setup, np.random.default_rng(7))
    argvs = {
        "swap": ["--ham-a", QUBIT, "--ham-b", OSC2, "--u", SWAP_U],
        "qutrit-pair": ["--ham-a", OSC3, "--ham-b", OSC3, "--u", _u_json(_qutrit_pair_unitary())],
        "haar-osc4": ["--ham-a", osc4, "--ham-b", osc4, "--u", _u_json(haar)],
    }
    for key, argv in argvs.items():
        default, prescott = _stdout_under_each_kernel(["decompose", *argv], key)
        assert default == prescott, key


def test_membership_help_prints_its_tolerances_from_their_names(capsys, monkeypatch):
    for margin, prune in ((INTERIOR_MARGIN, WITNESS_PRUNE_TOL), (3.5e-7, 2.5e-6)):
        monkeypatch.setattr(cli, "INTERIOR_MARGIN", margin)
        monkeypatch.setattr(cli, "WITNESS_PRUNE_TOL", prune)
        code, out = _run(capsys, "membership", "--help")
        text = " ".join(out.split())
        assert code == 0
        assert f"interior when above {margin:g}," in text
        assert f"terms below {prune:g} are dropped" in text


def test_import_and_help_load_neither_sympy_nor_scipy_stats():
    probe = (
        "import sys, contextlib, io\n"
        "import thermohorn\n"
        "from thermohorn.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['--help'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'"
        " or m == 'scipy.stats' or m.startswith('scipy.stats.')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_scipy_optimize_and_spatial_load_only_on_first_lp_or_hull(capsys):
    # One interpreter runs the commands in turn and lists, after each, the
    # deferred scipy packages loaded so far. Every hull comes in closed form,
    # so no subcommand loads scipy.spatial. A thermomajorize, whether it
    # prints false or a witness, a realize, a synthesize, and a membership
    # target the facets place inside solve no LP; the exterior membership
    # target, last, does, and scipy.optimize imports scipy.spatial itself.
    # realize-band's and synthesize-band's target lies 5e-9 (max-norm)
    # outside the one-copy hull, within tol: it is realized on that
    # two-level bath by saturation and the walk, no LP. synthesize-exterior
    # is refused (exit 2) on F's distance, with no LP either.
    qutrit = ("--ham-a", OSC3, "--ham-b", OSC3, "--p", "0.5,0.3,0.2")
    band = f"{2 / 3 - 5e-9!r},{1 / 3 + 5e-9!r}"
    steps = [
        ("import", None),
        ("help", ["--help"]),
        ("majorize", ["majorize", "--p", "0.7,0.3", "--q", "0.5,0.5"]),
        ("horn", ["horn", "--p", "0.5,0.3,0.2", "--target", "0.4,0.35,0.25"]),
        ("decohere", ["decohere", "--ham-a", OSC3]),
        ("qubit-alpha", ["qubit-alpha", "--m", "3", "--beta-de", "ln2"]),
        ("third-law", ["third-law", "--temperature", "1.0", "--delta-e", "1.0", "--m", "10"]),
        ("thermomajorize-false", ["thermomajorize", "--p", "2/3,1/3", "--q", "1/2,1/2", "--gamma", "2/3,1/3"]),
        ("thermomajorize", ["thermomajorize", "--p", "0,1", "--q", "1/2,1/2", "--gamma", "2/3,1/3"]),
        ("realize-qubit", ["realize", "--ham-a", QUBIT, "--p", "1,0", "--target", "0.6,0.4"]),
        ("realize-qutrit", ["realize", "--ham-a", OSC3, "--p", "1,0,0", "--target", "0.7,0.2,0.1"]),
        ("realize-band", ["realize", "--ham-a", QUBIT, "--p", "1,0", "--target", band]),
        ("fig4", ["fig4", "--preset", "paper", "--format", "csv"]),
        ("reachable-qutrit", ["reachable", *qutrit]),
        ("synthesize-qutrit", ["synthesize", *qutrit, "--target", "0.53,0.3,0.17"]),
        ("synthesize-band", ["synthesize", "--ham-a", QUBIT, "--ham-b", QUBIT, "--p", "1,0", "--target", band]),
        ("synthesize-exterior", ["synthesize", "--ham-a", QUBIT, "--ham-b", QUBIT, "--p", "1,0", "--target", "0,1"]),
        ("membership-inside", ["membership", *qutrit, "--target", "0.53,0.3,0.17"]),
        ("membership-exterior", ["membership", *qutrit, "--target", "1,0,0"]),
    ]
    codes = {"synthesize-exterior": 2}
    probe = (
        "import sys, contextlib, io, json\n"
        "import thermohorn\n"
        "from thermohorn.cli import main\n"
        f"for name, argv in {steps!r}:\n"
        "    if argv is not None:\n"
        "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"            assert main(argv) == {codes!r}.get(name, 0), name\n"
        "        if name == 'synthesize-exterior':\n"
        "            assert json.loads(out.getvalue())['error'] == 'not-reachable'\n"
        "    print(json.dumps([name, sorted(m for m in ('scipy.optimize', 'scipy.spatial')"
        " if m in sys.modules)]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = dict(json.loads(line) for line in out.stdout.splitlines())
    lp = ["scipy.optimize", "scipy.spatial"]
    assert loaded == {name: [] for name, _ in steps[:-1]} | {"membership-exterior": lp}
    code, out = _run(capsys, *dict(steps)["realize-band"])
    assert code == 0 and len(json.loads(out)["bath"]["levels"]) == 2


@pytest.mark.parametrize(
    "argv, deferred, loads",
    [
        (["fig4", "--preset", "paper", "--format", "csv"], "scipy.spatial", False),
        (
            ["membership", "--ham-a", QUBIT, "--ham-b", OSC2, "--p", "0,1", "--target", "1,0"],
            "scipy.optimize",
            True,
        ),
        (
            ["thermomajorize", "--p", "0,1", "--q", "1/2,1/2", "--gamma", "2/3,1/3"],
            "scipy.optimize",
            False,
        ),
    ],
    ids=["fig4-first-hull", "membership-first-geometry-lp", "thermomajorize-first-majorization-lp"],
)
def test_first_hull_or_lp_in_a_fresh_interpreter_matches_in_process(capsys, argv, deferred, loads):
    # In-process, the test modules have loaded scipy already; a fresh
    # interpreter runs the deferred import inside the command itself, or,
    # for fig4's closed-form hulls and thermomajorize's curves, never runs it.
    probe = (
        "import sys\n"
        "from thermohorn.cli import main\n"
        f"assert {deferred!r} not in sys.modules\n"
        f"code = main({argv!r})\n"
        f"assert ({deferred!r} in sys.modules) == {loads!r}\n"
        "sys.exit(code)"
    )
    cold = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert cold.returncode == 0, cold.stderr
    code, out = _run(capsys, *argv)
    assert code == 0
    assert cold.stdout == out
