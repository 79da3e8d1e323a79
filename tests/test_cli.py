"""Command-line front end: golden JSON payloads, exit codes, output modes.

Golden files live in tests/golden/ and were produced by the commands listed
in GOLDEN_CASES with --json --deterministic; the comparison is byte-for-byte.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rigidity.cli as cli
import rigidity.families as families
import rigidity.grading as grading
import rigidity.oracle as oracle
import rigidity.poly as poly
from rigidity.cli import main
from rigidity.derivation import NilpotencyReport
from rigidity.parsing import MAX_EXPONENT, format_poly

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (
        "classify_rigid_case1.json",
        ["classify", "--relation", "X^2*Y^3 - Z^5"],
    ),
    (
        "classify_unknown_leftover.json",
        ["classify", "--relation", "X^6*Y^3 + Z^2 + T^4"],
    ),
    (
        "classify_notrigid_fermat3.json",
        ["classify", "--relation", "X + Y^2 + Z^3"],
    ),
    (
        "verify_freudenburg_a2_d3.json",
        [
            "verify-derivation",
            "--relation", "X^2*Y^2 + Z^2 + T^3",
            "--image", "Y=3*T^2",
            "--image", "Z=-3i*X*T^2",
            "--image", "T=-2*X^2*Y + 2i*X*Z",
        ],
    ),
    (
        "verify_ill_defined.json",
        ["verify-derivation", "--relation", "X*Y - Z^2", "--image", "X=1"],
    ),
    (
        "verify_zero_images.json",
        ["verify-derivation", "--relation", "X*Y - Z^2"],
    ),
    (
        "gr_inhomogeneous_square.json",
        ["gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--weights", "1,0"],
    ),
    (
        "gr_equal_weights.json",
        ["gr", "--relation", "X*Y - Z^2", "--weights", "2,2,2"],
    ),
    (
        "gr_weighted_homogeneous.json",
        ["gr", "--relation", "X^2*Y^2 + Z^2 + T^3", "--weights", "6,0,6,4"],
    ),
    (
        "mason_quadratic_triple.json",
        ["mason", "--polys", "S^2-1;-S^2;1"],
    ),
    (
        "obstruct_double_equality.json",
        ["obstruct", "--pattern", "doublemason", "--params", "a=3,b=2,c=3,d=6"],
    ),
    (
        "param_verify_quartic_family.json",
        [
            "param-verify",
            "--relation", "X^3*Y + Z^3*Y + Z^4",
            "--sub", "X=S*(S^3+1)", "--sub", "Y=-1", "--sub", "Z=S^3+1",
        ],
    ),
    (
        "search_found_gaussian_pair.json",
        [
            "search", "--relation", "X^2 + Y^2", "--vars", "X,Y",
            "--max-deg", "1,1", "--coeff-window", "1", "--gaussian",
        ],
    ),
    (
        "search_none_unit_target.json",
        [
            "search", "--relation", "F^2 + H^3", "--vars", "F,H",
            "--constraint", "unit", "--max-deg", "3,2",
        ],
    ),
]


@pytest.mark.parametrize(
    "golden_name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES]
)
def test_golden_json_outputs_are_byte_stable(golden_name, argv, capsys):
    code = main(argv + ["--json", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / golden_name).read_text()


@pytest.mark.parametrize(
    "golden_name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES]
)
def test_json_payloads_match_the_schema(golden_name, argv):
    payload = json.loads((GOLDEN_DIR / golden_name).read_text())
    assert payload["schema_version"] == "1"
    assert payload["command"] == argv[0]
    assert ("result" in payload) != ("error" in payload)
    assert "elapsed_ms" not in payload  # deterministic mode


def test_repeated_runs_are_identical(capsys):
    argv = ["classify", "--relation", "X^2*Y^3 - Z^5", "--json", "--deterministic"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_timing_appears_only_without_deterministic(capsys):
    assert main(["mason", "--polys", "S;S;-2*S", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload["elapsed_ms"], float)
    assert payload["elapsed_ms"] >= 0


# ---------------------------------------------------------------------------
# exit codes


def test_parse_error_in_relation_exits_1(capsys):
    code = main(["classify", "--relation", "X ++ Y", "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["error"]["type"] == "ParseError"
    assert "column" in payload["error"]["message"]


@pytest.mark.parametrize(
    "relation, column",
    [
        ("X^\u00b2 + Y^2 + Z^3", 3),  # superscript two
        ("X^2 + Y^2 + Z^\u0663", 15),  # Arabic-Indic three
        ("X^2 + Y^2 + " + "7" * 5000 + "*Z^3", 13),  # past the int() digit limit
    ],
    ids=["superscript-digit", "arabic-indic-digit", "overlong-literal"],
)
def test_non_ascii_digit_or_overlong_literal_is_a_parse_error(relation, column, capsys):
    code = main(["classify", "--relation", relation, "--json", "--deterministic"])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].endswith(f"(line 1, column {column})")


def test_coefficients_past_the_str_digit_limit_are_printed(capsys):
    code = main(["param-verify", "--relation", "X^10000", "--vars", "X",
                 "--sub", "X=10*S", "--json", "--deterministic"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["residual"] == "1" + "0" * 10000 + "*S^10000"
    big = "1" + "0" * 2999
    code = main(["classify", "--relation", f"{big}*{big}*X^2 + Y^2 + Z^3",
                 "--json", "--deterministic"])
    assert code == 0
    notes = json.loads(capsys.readouterr().out)["result"]["notes"]
    assert notes[0].startswith("term coefficients (1" + "0" * 5998 + ",")


@pytest.mark.parametrize(
    "pattern,params",
    [("minimason", "a=2,a=1,b=3"), ("ex1", "d1=2,D1=3,d2=5,d3=7")],
)
def test_repeated_obstruction_parameter_exits_1(pattern, params, capsys):
    code = main(["obstruct", "--pattern", pattern, "--params", params,
                 "--json", "--deterministic"])
    assert code == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert "given twice" in error["message"]


def test_unknown_obstruction_pattern_exits_1(capsys):
    code = main(
        ["obstruct", "--pattern", "nosuch", "--params", "a=1", "--json", "--deterministic"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"]["type"] == "ValueError"


def test_wrong_obstruction_parameters_exit_1(capsys):
    code = main(
        ["obstruct", "--pattern", "minimason", "--params", "x=2", "--json", "--deterministic"]
    )
    assert code == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert "takes parameters" in message


@pytest.mark.parametrize("command", ["classify", "verify-derivation", "gr", "param-verify", "search"])
def test_missing_required_flag_exits_1(command, capsys):
    code = main([command])
    captured = capsys.readouterr()
    assert code == 1
    assert "--relation" in captured.err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_params_value_exits_1(capsys):
    code = main(["obstruct", "--pattern", "minimason", "--params", "a=two,b=3"])
    assert code == 1
    assert "not an integer" in capsys.readouterr().err


def test_malformed_poly_list_exits_1(capsys):
    assert main(["mason", "--polys", "S;;1"]) == 1
    assert "--polys" in capsys.readouterr().err


def test_repeated_vars_exit_1(capsys):
    code = main(["classify", "--relation", "X + Y", "--vars", "X,X"])
    assert code == 1
    assert "repeated" in capsys.readouterr().err


def test_image_for_unknown_generator_exits_1(capsys):
    code = main(
        ["verify-derivation", "--relation", "X*Y - Z^2", "--image", "W=1"]
    )
    assert code == 1
    assert "not one of" in capsys.readouterr().err


def test_max_deg_arity_mismatch_exits_1(capsys):
    code = main(["search", "--relation", "X^2 + Y^2", "--max-deg", "1,1,1"])
    assert code == 1
    assert "--max-deg" in capsys.readouterr().err


def test_ill_defined_derivation_is_a_result_not_an_error(capsys):
    # structured outcome, not a failure: exit 0 with well_defined false
    code = main(
        ["verify-derivation", "--relation", "X*Y - Z^2", "--image", "X=1",
         "--json", "--deterministic"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["well_defined"] is False


def test_corrupt_witness_reverification_exits_2(monkeypatch, capsys):
    def refuse(derivation, bound):
        return NilpotencyReport(
            status="inconclusive",
            certificate=None,
            steps_per_generator=None,
            bound_used=bound,
            detail="forced for the exit-code test",
        )

    # The catalog certifies each witness once, in families; a refused
    # certification must surface as an internal-invariant error.
    monkeypatch.setattr(families, "probe_nilpotency", refuse)
    code = main(["classify", "--relation", "X + Y^2 + Z^3", "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"]["type"] == "internal_invariant"
    assert "failed nilpotency certification" in payload["error"]["message"]


def test_search_decides_hits_by_substitution(monkeypatch, capsys):
    # X^2 + Y^2 has a hit at 21 leaves; when the exact substitution refuses
    # every leaf that passes the integer-point filter, no hit is reported.
    seen = []

    def refuse(problem, candidates):
        seen.append(candidates)
        return oracle.ParametrizationCheck(ok=False, residual=candidates[0])

    monkeypatch.setattr(oracle, "verify_parametrization", refuse)
    code = main(
        ["search", "--relation", "X^2 + Y^2", "--max-deg", "1,1",
         "--coeff-window", "1", "--gaussian", "--json", "--deterministic"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["status"] == "NoneWithinBounds"
    assert result["candidates"] is None
    assert result["examined"] > 21
    assert seen


def test_inexact_gcd_division_exits_2(monkeypatch, capsys):
    # A first remainder that is not a chain member makes a later exact
    # division fail: the kernel raises instead of truncating.
    monkeypatch.setattr(poly, "_prem", lambda a, b: [(1, 0), (1, 0)])
    code = main(["mason", "--polys", "2*S^2 + 1;S^3 - 2*S^2;-S^3 - 1", "--json", "--deterministic"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"]["type"] == "internal_invariant"
    assert "is not divisible by" in payload["error"]["message"]


def test_homogenized_derivation_losing_every_image_exits_2(monkeypatch, capsys):
    # The check must hold under ``python -O`` too, so it is no assert.
    real = grading.make_derivation

    def zeroed(presentation, images):
        return real(presentation, [poly.Polynomial.zero(presentation.variables)] * len(images))

    monkeypatch.setattr(grading, "make_derivation", zeroed)
    code = main(
        ["verify-derivation", "--relation", "X*Y - Z^2", "--image", "Y=2*Z", "--image", "Z=X",
         "--weights", "1,1,1", "--json", "--deterministic"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {
        "type": "internal_invariant",
        "message": "homogenized derivation lost all images",
    }


@pytest.mark.parametrize("as_json", [True, False])
def test_unexpected_handler_exception_exits_2(monkeypatch, capsys, as_json):
    def broken(*args, **kwargs):
        raise KeyError("no such slot")

    monkeypatch.setattr(cli, "bounded_search", broken)
    argv = ["search", "--relation", "X^2 + Y^2", "--max-deg", "1,1"]
    code = main(argv + (["--json", "--deterministic"] if as_json else []))
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.out + captured.err
    if as_json:
        payload = json.loads(captured.out)
        assert payload["command"] == "search"
        assert payload["error"]["type"] == "internal_invariant"
        assert payload["error"]["message"].startswith("KeyError: 'no such slot' (")
        assert "in broken)" in payload["error"]["message"]
    else:
        assert captured.out == ""
        assert "KeyError" in captured.err


# ---------------------------------------------------------------------------
# default variable inference


def test_zero_exponent_three_term_rows_match_the_library(capsys):
    # Criterion 01's rows with an exponent 0: the catalog constructor and
    # `classify` on the same relation publish one descriptor and witness.
    rows = [(a, b, c) for a in range(9) for b in range(9) for c in range(9) if 0 in (a, b, c)]
    for a, b, c in rows[1:]:  # rows[0] = (0, 0, 0), the zero relation 1 - 1
        code = main(["classify", "--relation", f"X^{a}*Y^{b} - Z^{c}", "--vars", "X,Y,Z",
                     "--json", "--deterministic"])
        assert code == 0, (a, b, c)
        result = json.loads(capsys.readouterr().out)["result"]
        desc = families.three_term_xy(a, b, c)
        verdict = families.classify(desc)
        assert result["family"] == {
            "kind": desc.kind, "exponents": list(desc.exponents),
            "variables": list(desc.variables), "roles": list(desc.roles),
        }, (a, b, c)
        assert result["status"] == verdict.status, (a, b, c)
        assert result["witness"] == {
            v: format_poly(img.rep) for v, img in zip(desc.variables, verdict.witness.images)
        }, (a, b, c)
        assert result["witness_steps"] == list(verdict.witness_report.steps_per_generator)


def test_variables_default_to_the_xyzt_prefix(capsys):
    # mentioning T pulls in all four names, in canonical order
    code = main(
        ["gr", "--relation", "X*T - Z^2", "--weights", "1,1,1,1",
         "--json", "--deterministic"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["variables"] == ["X", "Y", "Z", "T"]


def test_names_outside_the_default_prefix_need_vars(capsys):
    code = main(["classify", "--relation", "W^2 + X"])
    assert code == 1
    assert "pass --vars" in capsys.readouterr().err


def test_refused_name_is_the_first_in_text_order():
    # The names are met as W, V, U; the message must not depend on hash order.
    argv = ["classify", "--relation", "W^2 + V + U", "--json", "--deterministic"]
    outputs = {_run_cli(argv, PYTHONHASHSEED=str(seed)).stdout for seed in range(1, 7)}
    assert len(outputs) == 1
    assert "variable 'W' is outside" in outputs.pop().decode()


def test_explicit_vars_override_inference(capsys):
    code = main(
        ["param-verify", "--relation", "U^2 + V^2", "--vars", "U,V",
         "--constraint", "unit", "--sub", "U=S", "--sub", "V=i*S",
         "--json", "--deterministic"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # the value is identically zero, which a unit target rejects
    assert result["residual"] == "0"
    assert result["ok"] is False


# ---------------------------------------------------------------------------
# human-readable mode


def test_human_output_lists_verdict_fields(capsys):
    code = main(["classify", "--relation", "X^2*Y^3 - Z^5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "status: Rigid" in captured.out
    assert "citation: Theorem case1" in captured.out
    assert "schema_version" not in captured.out


def test_human_output_prints_witness_images(capsys):
    assert main(["classify", "--relation", "X + Y^2 + Z^3"]) == 0
    out = capsys.readouterr().out
    assert "status: NotRigid" in out
    assert "X: -2*Y" in out
    assert "Y: 1" in out


def test_human_mason_lists_each_root_count(capsys):
    assert main(["mason", "--polys", "S^2-1;-S^2;1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("distinct_roots_each:")
    assert lines[start + 1:start + 5] == ["  - 2", "  - 1", "  - 0", "distinct_roots_product: 3"]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["classify", "--relation", "X^2 + Y^2 + Z^3"],
            [
                "family:",
                "  kind: Fermat3",
                "  exponents:",
                "    - 2",
                "    - 2",
                "    - 3",
                "  variables:",
                "    - X",
                "    - Y",
                "    - Z",
                "  roles:",
                "    - X",
                "    - Y",
                "    - Z",
                "status: NotRigid",
                "citation: derived witness: two quadratic slots factor as X*Y after a linear"
                " change of variables",
                "notes:",
                "  - two smallest exponents are 2",
                "witness:",
                "  X: -3/2*Z^2",
                "  Y: -3/2i*Z^2",
                "  Z: X + i*Y",
                "witness_steps:",
                "  - 4",
                "  - 4",
                "  - 2",
            ],
        ),
        (
            [
                "verify-derivation", "--relation", "X*Y - Z^2",
                "--image", "Y=2*Z", "--image", "Z=X", "--weights", "1,1,1",
            ],
            [
                "well_defined: true",
                "nonzero: true",
                "probe:",
                "  status: certified",
                "  certificate: iteration",
                "  steps_per_generator:",
                "    - 1",
                "    - 3",
                "    - 2",
                "  bound_used: 64",
                "  detail: ",
                "negative_grading:",
                "  status: inconclusive",
                "  certificate: none",
                "  steps_per_generator: none",
                "  bound_used: 0",
                "  detail: maximal degree jump is 0, not negative",
                "  weights:",
                "    - 1",
                "    - 1",
                "    - 1",
                "  degree_drop: 0",
                "degree_jump: 0",
            ],
        ),
        (
            ["gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--weights", "1,0"],
            [
                "relation: X^2 - Y",
                "weights:",
                "  - 1",
                "  - 0",
                "top_part: X^2",
                "homogeneous: false",
                "variables:",
                "  - X",
                "  - Y",
            ],
        ),
    ],
    ids=["classify", "verify-derivation", "gr"],
)
def test_human_output_prints_each_sequence_entry_on_its_line(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_human_errors_go_to_stderr(capsys):
    code = main(["obstruct", "--pattern", "nosuch", "--params", "a=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "message:" in captured.err


# ---------------------------------------------------------------------------
# usage errors, nesting depth and a closed stdout


@pytest.mark.parametrize("depth,code", [(99, 0), (100, 0), (101, 1), (3000, 1)])
def test_nesting_depth_limit_through_main(depth, code, capsys):
    text = "(" * depth + "X" + ")" * depth + " + Y^2 + Z^3"
    argv = ["classify", "--relation", text, "--vars", "X,Y,Z", "--json", "--deterministic"]
    assert main(argv) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "classify"
    if code == 0:
        flat = ["classify", "--relation", "X + Y^2 + Z^3", "--vars", "X,Y,Z", "--json"]
        main(flat + ["--deterministic"])
        assert payload == json.loads(capsys.readouterr().out)
    else:
        assert payload["error"]["type"] == "ParseError"
        assert "nested deeper than 100" in payload["error"]["message"]
        assert "(line 1, column 101)" in payload["error"]["message"]


@pytest.mark.parametrize(
    "argv,command,needle",
    [
        (["gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--json"], "gr", "--weights"),
        (["gr", "--relation", "X", "--weights", "1", "--bogus", "--json"], "gr", "--bogus"),
        (["frobnicate", "--json"], None, "frobnicate"),
        (["--json"], None, "command"),
        (["classify", "--rel", "X", "--json"], "classify", "--relation"),
    ],
)
def test_usage_errors_keep_the_json_contract(argv, command, needle, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert set(payload) == {"schema_version", "command", "error"}
    assert payload["schema_version"] == "1"
    assert payload["command"] == command
    assert payload["error"]["type"] == "CliInputError"
    assert needle in payload["error"]["message"]


def test_abbreviated_flags_are_refused(capsys):
    assert main(["classify", "--relation", "X", "--js"]) == 1
    assert "unrecognized arguments: --js" in capsys.readouterr().err


def test_negative_list_is_a_flag_value(capsys):
    base = ["gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--json", "--deterministic"]
    assert main(base + ["--weights", "-1,0"]) == 0
    spaced = capsys.readouterr().out
    assert main(base + ["--weights=-1,0"]) == 0
    assert spaced == capsys.readouterr().out
    assert json.loads(spaced)["result"]["weights"] == [-1, 0]


WEIGHT_LENGTH = "weight vector length does not match the variable count"
POSITIVE = "negative-grading certification needs strictly positive weights"
# D(Y) = 2*Z, D(Z) = -X^2 on X^2*Y + Z^2; the probe certifies it in (1, 3, 2) steps.
VERIFY_WEIGHTS = [
    "verify-derivation", "--relation", "X^2*Y + Z^2", "--vars", "X,Y,Z",
    "--image", "Y=2*Z", "--image", "Z=-X^2",
]
PROBE = {
    "status": "certified",
    "certificate": "iteration",
    "steps_per_generator": [1, 3, 2],
    "bound_used": 64,
    "detail": "",
}


def _inapplicable(detail):
    return {"status": "inapplicable", "detail": detail}


def _graded(status, detail, weights, drop):
    return {
        "status": status,
        "certificate": "negative_grading" if status == "certified" else None,
        "steps_per_generator": None,
        "bound_used": 0,
        "detail": detail,
        "weights": weights,
        "degree_drop": drop,
    }


def test_gr_refuses_a_wrong_length_weight_vector(capsys):
    argv = ["gr", "--relation", "X^2 + Y^3", "--weights", "3", "--json", "--deterministic"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": "1",
        "command": "gr",
        "error": {"type": "ValueError", "message": WEIGHT_LENGTH},
    }


@pytest.mark.parametrize(
    "weights, negative_grading, jump",
    [
        ("1,1", _inapplicable(WEIGHT_LENGTH), WEIGHT_LENGTH),
        ("1,0,1", _inapplicable(POSITIVE), 1),
        ("-1,4,1", _inapplicable(POSITIVE), "degree jumps need nonnegative weights"),
        (
            "1,1,1",
            _inapplicable("the relation is not homogeneous for these weights"),
            "coset degrees are not certified exact for this graded relation",
        ),
        (
            "1,4,3",
            _graded("certified", "every image drops the grading by at least 1", [1, 4, 3], -1),
            -1,
        ),
        (
            "2,2,3",
            _graded("inconclusive", "maximal degree jump is 1, not negative", [2, 2, 3], 1),
            1,
        ),
    ],
    ids=["wrong-length", "zero", "negative", "inhomogeneous", "certified", "inconclusive"],
)
def test_verify_derivation_weight_payloads(weights, negative_grading, jump, capsys):
    argv = VERIFY_WEIGHTS + [f"--weights={weights}", "--json", "--deterministic"]
    assert main(argv) == 0
    result = {
        "well_defined": True,
        "nonzero": True,
        "probe": PROBE,
        "negative_grading": negative_grading,
        "degree_jump": jump,
    }
    if isinstance(jump, str):
        result.update(degree_jump=None, degree_jump_detail=jump)
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": "1",
        "command": "verify-derivation",
        "result": result,
    }


def test_verify_zero_derivation_with_weights(capsys):
    argv = VERIFY_WEIGHTS[:5] + ["--weights", "1,4,3", "--json", "--deterministic"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "well_defined": True,
        "nonzero": False,
        "probe": {**PROBE, "steps_per_generator": [1, 1, 1]},
        "negative_grading": {
            **_graded("certified", "zero derivation", [1, 4, 3], None),
            "steps_per_generator": [0, 0, 0],
        },
        "degree_jump": None,
        "degree_jump_detail": "the zero derivation has no degree jump",
    }


def _run_cli(argv, stdout=subprocess.PIPE, **environ) -> subprocess.CompletedProcess:
    """``rigidity argv`` in a fresh interpreter, with ``environ`` added."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from rigidity.cli import main; sys.exit(main())", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env={**env, **environ}, timeout=120,
    )


def test_closed_stdout_exits_quietly():
    # No process holds the read end, so the first write fails with EPIPE.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(["classify", "--relation", "X^2*Y + Z^2"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# exponent cap


def test_exponent_at_the_cap_parses(capsys):
    argv = ["gr", "--relation", f"X^{MAX_EXPONENT} - Y", "--vars", "X,Y", "--weights", "1,0"]
    assert MAX_EXPONENT == 10_000
    assert main(argv + ["--json", "--deterministic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["top_part"] == f"X^{MAX_EXPONENT}"


def test_mason_counts_product_roots_at_the_cap(capsys):
    # N((S^10000 + 1) * S^10000 * 1) = 10000 + 1, counted from the entries
    # without differentiating the degree-20000 product.
    argv = ["mason", "--polys", f"S^{MAX_EXPONENT}+1;-S^{MAX_EXPONENT};-1", "--json"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["distinct_roots_product"] == MAX_EXPONENT + 1
    assert result["distinct_roots_each"] == [MAX_EXPONENT, 1, 0]


@pytest.mark.parametrize(
    "argv,column",
    [
        (["classify", "--relation", "X^{e} + Y^2 + Z^3"], 3),
        (["verify-derivation", "--relation", "X*Y - Z^{e}"], 9),
        (["verify-derivation", "--relation", "X*Y - Z^2", "--image", "X=Y^{e}"], 3),
        (["gr", "--relation", "X - Y^{e}", "--vars", "X,Y", "--weights", "1,1"], 7),
        (["mason", "--polys", "S^{e};-S^{e}"], 3),
        (["mason", "--polys", "S;-S^{e}"], 4),
        (["param-verify", "--relation", "X^{e} - Y", "--vars", "X,Y"], 3),
        (["param-verify", "--relation", "X - Y", "--vars", "X,Y", "--sub", "X=S^{e}"], 3),
        (["search", "--relation", "X^{e} + Y^2", "--max-deg", "1,1"], 3),
    ],
)
@pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 10**11])
def test_exponent_above_the_cap_is_an_input_error(argv, column, exponent, capsys):
    argv = [arg.replace("{e}", str(exponent)) for arg in argv]
    assert main(argv + ["--json", "--deterministic"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == argv[0]
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["message"] == (
        f"exponent {exponent} exceeds the limit {MAX_EXPONENT} (line 1, column {column})"
    )


# ---------------------------------------------------------------------------
# the zero-target obstruction certificates hold for coprime entries only


def test_doublemason_shape_has_a_non_coprime_solution(capsys):
    argv = ["search", "--relation", "X^3*Y^3 + 1/2*Z^3 - 3/2*T^3",
            "--max-deg", "1,1,1,1", "--coeff-window", "1", "--json", "--deterministic"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "Found"
    assert result["candidates"] == {"X": "-S - 1", "Y": "-1", "Z": "S + 1", "T": "S + 1"}
    assert main(["obstruct", "--pattern", "doublemason", "--params", "a=3,b=3,c=3,d=3",
                 "--json", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["status"] == "Obstructed"


def test_ex1_shape_has_a_non_coprime_solution(capsys):
    argv = ["param-verify", "--relation", "X^2 + Y^3 + Z^7",
            "--sub", "X=3*S^21", "--sub", "Y=-2*S^14", "--sub", "Z=-S^6", "--json", "--deterministic"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {
        "constraint": "zero", "ok": True, "residual": "0",
    }
    assert main(["obstruct", "--pattern", "ex1", "--params", "d1=2,d2=3,d3=7",
                 "--json", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["status"] == "Obstructed"


@pytest.mark.parametrize(
    "pattern, params, scope",
    [
        ("ex1", "d1=2,d2=3,d3=7", "pairwise coprime entries, not all constant"),
        ("doublemason", "a=1,b=1,c=1,d=1", "pairwise coprime entries, not all constant"),
        ("twistedmason", "a=2,b=2,c=2", None),
        ("extendedminimason", "a=1,b=1,degq=3", None),
    ],
)
def test_obstruct_payload_names_the_scope_of_the_certificate(pattern, params, scope, capsys):
    # A zero target needs coprime entries; a nonzero-constant target makes
    # any common factor a unit, so its certificate carries no scope.
    assert main(["obstruct", "--pattern", pattern, "--params", params,
                 "--json", "--deterministic"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["rule"] == pattern
    assert result["scope"] == scope


# ---------------------------------------------------------------------------
# any text in a polynomial, pattern, parameter or weight slot


SLOT = object()
FUZZ_TEMPLATES = [
    ("classify", "--relation", SLOT),
    ("gr", "--relation", SLOT, "--weights", "1,2,3"),
    ("gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--weights", SLOT),
    ("mason", "--polys", SLOT),
    ("obstruct", "--pattern", SLOT, "--params", "a=2,b=3"),
    ("obstruct", "--pattern", "minimason", "--params", SLOT),
    ("verify-derivation", "--relation", SLOT),
    ("verify-derivation", "--relation", "X*Y - Z^2", "--image", SLOT),
]
GRAMMAR = "XYZTS i0123456789^*+-/(),;=."
# Well-formed polynomial text too, so that some runs get past the parser;
# exponents stay small to keep each command fast.
TERMS = st.builds(
    lambda coefficient, powers: coefficient + ("*".join(powers) or "1"),
    st.sampled_from(["", "2*", "1/2*", "i*", "(1+2i)*", "5/3*"]),
    st.lists(st.builds("{}^{}".format, st.sampled_from("XYZS"), st.integers(0, 9)), max_size=3),
)
SIGNED_TERMS = st.builds("{}{}".format, st.sampled_from([" + ", " - "]), TERMS)
POLYNOMIALS = st.builds(
    "{}{}".format, TERMS, st.lists(SIGNED_TERMS, max_size=3).map("".join)
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(FUZZ_TEMPLATES),
    st.one_of(
        st.text(alphabet=GRAMMAR, max_size=24),
        st.text(max_size=24),
        POLYNOMIALS,
        st.lists(POLYNOMIALS, min_size=2, max_size=3).map(";".join),
    ),
)
def test_any_text_gives_a_json_payload_and_exit_0_or_1(template, text):
    argv = [text if part is SLOT else part for part in template]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--json", "--deterministic"])
    assert code in (0, 1), (argv, out.getvalue(), err.getvalue())
    payload = json.loads(out.getvalue())
    assert payload["schema_version"] == "1"
    assert ("result" in payload) != ("error" in payload), payload
