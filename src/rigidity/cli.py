"""Command-line front end.

Subcommands wrap the library: ``classify``, ``verify-derivation``, ``gr``,
``mason``, ``obstruct``, ``param-verify``, ``search``.  Output is
human-readable by default; ``--json`` emits a versioned payload with
``schema_version``, ``command`` and either ``result`` or ``error``.
``--deterministic`` suppresses timing so JSON output is byte-stable.

Exit codes: 0 success, 1 usage or input error, 2 violated internal invariant
or any other unexpected exception (the last should never happen).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time
from typing import Optional, Sequence

from .derivation import (
    DEFAULT_PROBE_BOUND,
    Derivation,
    IllDefinedDerivationError,
    NilpotencyReport,
    certify_by_negative_grading,
    make_derivation,
    probe_nilpotency,
)
from .families import classify, recognize_family
from .grading import derivation_degree_jump, gr_presentation
from .mason import mason_check, obstruction_check
from .oracle import (
    DEFAULT_WINDOW,
    HOMOGENEOUS_ZERO,
    UNIT_TARGET,
    ParametrizationProblem,
    bounded_search,
    verify_parametrization,
)
from .parsing import MAX_EXPONENT, _tokenize, check_variables, format_poly, parse_poly
from .poly import InternalInvariantError, Polynomial
from .quotient import RingPresentation

SCHEMA_VERSION = "1"
DEFAULT_VARIABLES = ("X", "Y", "Z", "T")


class CliInputError(Exception):
    """Bad flags or bad input text; reported on exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    commands: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        # A flag is spelled in full: an abbreviation such as ``--js`` would
        # slip past the ``--json`` test in ``main``.
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # No flag starts with a minus and a digit, so such a word is a value,
        # for example the weight list in ``--weights -1,0``.
        self._negative_number_matcher = re.compile(r"^-\d")

    # argparse exits with status 2 on usage errors; 2 is reserved here for
    # internal invariant violations, so route usage problems through our own
    # error type instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliInputError(message)


def _split_csv(text: str, flag: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise CliInputError(f"{flag} expects a comma-separated list, got {text!r}")
    return items


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(piece) for piece in _split_csv(text, flag)]
    except ValueError as exc:
        raise CliInputError(f"{flag}: {exc}") from None


def _infer_variables(relation_text: str) -> tuple[str, ...]:
    """Default variable list: the X,Y,Z,T prefix covering every name used;
    the first other name, in text order, is refused."""
    arity = 1
    for kind, name, _ in _tokenize(relation_text):
        if kind != "name" or name == "i":
            continue
        if name not in DEFAULT_VARIABLES:
            raise CliInputError(f"variable {name!r} is outside the default X,Y,Z,T; pass --vars")
        arity = max(arity, DEFAULT_VARIABLES.index(name) + 1)
    return DEFAULT_VARIABLES[:arity]


def _parse(text: str, variables: Sequence[str]) -> Polynomial:
    """Every polynomial given on the command line, with its exponents capped."""
    return parse_poly(text, variables, max_exponent=MAX_EXPONENT)


def _relation(args: argparse.Namespace) -> tuple[tuple[str, ...], Polynomial]:
    """The variables (``--vars``, or inferred) and the parsed ``--relation``."""
    if args.vars is None:
        variables = _infer_variables(args.relation)
    else:
        variables = tuple(_split_csv(args.vars, "--vars"))
        if len(set(variables)) != len(variables):
            raise CliInputError(f"--vars has repeated names: {args.vars!r}")
    return variables, _parse(args.relation, variables)


def _assigned(
    pairs: Optional[Sequence[str]], variables: tuple[str, ...], target: tuple[str, ...], flag: str
) -> list[Polynomial]:
    """One polynomial in ``target`` per variable: its ``VAR=POLY`` pair
    under ``flag``, or zero."""
    texts: dict[str, str] = {}
    for pair in pairs or ():
        name, eq, text = pair.partition("=")
        name = name.strip()
        if not eq or not name:
            raise CliInputError(f"{flag} expects VAR=POLY, got {pair!r}")
        if name not in variables:
            raise CliInputError(f"{flag}: {name!r} is not one of {', '.join(variables)}")
        if name in texts:
            raise CliInputError(f"{flag}: duplicate assignment for {name!r}")
        texts[name] = text
    return [
        _parse(texts[v], target) if v in texts else Polynomial.zero(target) for v in variables
    ]


def _probe_payload(report: NilpotencyReport) -> dict:
    payload = {
        "status": report.status,
        "certificate": report.certificate,
        "steps_per_generator": report.steps_per_generator,
        "bound_used": report.bound_used,
        "detail": report.detail,
    }
    if report.weights is not None:
        payload["weights"] = report.weights
        payload["degree_drop"] = report.degree_drop
    return payload


def _witness_payload(witness: Derivation) -> dict[str, str]:
    return {
        var: format_poly(image.rep)
        for var, image in zip(witness.presentation.variables, witness.images)
    }


def cmd_classify(args: argparse.Namespace) -> dict:
    variables, relation = _relation(args)
    descriptor = recognize_family(relation)
    verdict = classify(descriptor)
    result = {
        "family": {
            "kind": descriptor.kind,
            "exponents": descriptor.exponents,
            "variables": descriptor.variables,
            "roles": descriptor.roles,
        },
        "status": verdict.status,
        "citation": verdict.citation,
        "notes": verdict.notes,
        "witness": None,
    }
    if verdict.witness is not None:
        result["witness"] = _witness_payload(verdict.witness)
        if verdict.witness_report is not None:
            result["witness_steps"] = verdict.witness_report.steps_per_generator
    return result


def cmd_verify_derivation(args: argparse.Namespace) -> dict:
    variables, relation = _relation(args)
    presentation = RingPresentation(variables, relation)
    images = _assigned(args.image, variables, variables, "--image")
    try:
        derivation = make_derivation(presentation, images)
    except IllDefinedDerivationError as exc:
        return {"well_defined": False, "detail": str(exc)}
    result = {
        "well_defined": True,
        "nonzero": not derivation.is_zero,
        "probe": _probe_payload(probe_nilpotency(derivation, bound=args.probe_bound)),
    }
    if args.weights is not None:
        weights = _parse_int_list(args.weights, "--weights")
        try:
            result["negative_grading"] = _probe_payload(
                certify_by_negative_grading(derivation, weights)
            )
        except ValueError as exc:
            result["negative_grading"] = {"status": "inapplicable", "detail": str(exc)}
        try:
            result["degree_jump"] = derivation_degree_jump(derivation, weights).jump
        except ValueError as exc:
            result["degree_jump"] = None
            result["degree_jump_detail"] = str(exc)
    return result


def cmd_gr(args: argparse.Namespace) -> dict:
    variables, relation = _relation(args)
    presentation = RingPresentation(variables, relation)
    weights = _parse_int_list(args.weights, "--weights")
    graded = gr_presentation(presentation, weights)
    top = graded.quotient.relation
    return {
        "relation": format_poly(relation),
        "weights": graded.weights,
        "top_part": format_poly(top),
        "homogeneous": top == relation,
        "variables": variables,
    }


def cmd_mason(args: argparse.Namespace) -> dict:
    pieces = [piece.strip() for piece in args.polys.split(";")]
    if any(not piece for piece in pieces):
        raise CliInputError(f"--polys expects 'p1;p2;...', got {args.polys!r}")
    polys = [_parse(piece, (args.var,)) for piece in pieces]
    return dataclasses.asdict(mason_check(polys))


def cmd_obstruct(args: argparse.Namespace) -> dict:
    params: dict[str, int] = {}
    for piece in _split_csv(args.params, "--params"):
        name, eq, value = piece.partition("=")
        if not eq:
            raise CliInputError(f"--params expects k=v pairs, got {piece!r}")
        name = name.strip()
        if name.lower() in map(str.lower, params):
            raise CliInputError(f"--params: {name!r} is given twice")
        try:
            params[name] = int(value)
        except ValueError:
            raise CliInputError(f"--params: {value!r} is not an integer") from None
    return dataclasses.asdict(obstruction_check(args.pattern, params))


def cmd_param_verify(args: argparse.Namespace) -> dict:
    variables, relation = _relation(args)
    problem = ParametrizationProblem(relation, args.constraint)
    check_variables((args.param_var,))
    candidates = _assigned(args.sub, variables, (args.param_var,), "--sub")
    check = verify_parametrization(problem, candidates)
    return {
        "constraint": args.constraint,
        "ok": check.ok,
        "residual": format_poly(check.residual),
    }


def cmd_search(args: argparse.Namespace) -> dict:
    variables, relation = _relation(args)
    bounds = _parse_int_list(args.max_deg, "--max-deg")
    if len(bounds) != len(variables):
        raise CliInputError(
            f"--max-deg needs {len(variables)} entries for {', '.join(variables)}"
        )
    problem = ParametrizationProblem(relation, args.constraint, tuple(bounds))
    check_variables((args.param_var,))
    outcome = bounded_search(
        problem,
        coefficient_window=args.coeff_window,
        gaussian=args.gaussian,
        variable=args.param_var,
    )
    result = {
        "status": outcome.status,
        "examined": outcome.examined,
        "candidates": None,
    }
    if outcome.candidates is not None:
        result["candidates"] = {
            var: format_poly(p) for var, p in zip(variables, outcome.candidates)
        }
    return result


def _human_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_human_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(_human_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[]"
    if isinstance(value, dict):
        return "{}"
    return str(value)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="rigidity", description=__doc__)
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON payload")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="omit timing so the output is byte-stable",
    )
    relation = _ArgumentParser(add_help=False)
    relation.add_argument("--relation", required=True)
    relation.add_argument("--vars", default=None, help="comma-separated variable names")
    target = _ArgumentParser(add_help=False)
    target.add_argument("--constraint", choices=(HOMOGENEOUS_ZERO, UNIT_TARGET), default=HOMOGENEOUS_ZERO)
    target.add_argument("--param-var", default="S")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common, relation], help="classify a hypersurface relation")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "verify-derivation", parents=[common, relation], help="check generator images for a quotient"
    )
    p.add_argument("--image", action="append", metavar="VAR=POLY")
    p.add_argument("--probe-bound", type=int, default=DEFAULT_PROBE_BOUND)
    p.add_argument("--weights", default=None, help="comma-separated integer weights")
    p.set_defaults(handler=cmd_verify_derivation)

    p = sub.add_parser("gr", parents=[common, relation], help="top part and graded presentation")
    p.add_argument("--weights", required=True)
    p.set_defaults(handler=cmd_gr)

    p = sub.add_parser("mason", parents=[common], help="degree bounds for a zero-sum tuple")
    p.add_argument("--polys", required=True, help="semicolon-separated polynomials")
    p.add_argument("--var", default="S")
    p.set_defaults(handler=cmd_mason)

    p = sub.add_parser("obstruct", parents=[common], help="closed-form obstruction patterns")
    p.add_argument("--pattern", required=True)
    p.add_argument("--params", required=True, help="comma-separated k=v integers")
    p.set_defaults(handler=cmd_obstruct)

    p = sub.add_parser(
        "param-verify", parents=[common, relation, target], help="check a candidate parametrization"
    )
    p.add_argument("--sub", action="append", metavar="VAR=POLY")
    p.set_defaults(handler=cmd_param_verify)

    p = sub.add_parser(
        "search", parents=[common, relation, target], help="bounded search for parametrizations"
    )
    p.add_argument("--max-deg", required=True, help="comma-separated degree bounds")
    p.add_argument("--coeff-window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--gaussian", action="store_true")
    p.set_defaults(handler=cmd_search)

    parser.commands = tuple(sub.choices)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _ArgumentParser:
    # parse_args leaves the parser unchanged, so one instance serves every call.
    return build_parser()


def _emit(payload: dict, as_json: bool, stream) -> None:
    if as_json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(_human_lines(payload.get("result", payload.get("error"))))
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``).  Point the stream at devnull so
        # that the interpreter's last flush cannot fail again; the exit code
        # still reports the command's outcome.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _fault_message(exc: Exception) -> str:
    """The message of an invariant failure; any other exception also names
    its type and the innermost frame, in place of a traceback."""
    if isinstance(exc, InternalInvariantError):
        return str(exc)
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
    return f"{type(exc).__name__}: {exc} ({where})"


def _error_payload(command: Optional[str], kind: str, message: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": {"type": kind, "message": message},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except CliInputError as exc:
        if not any(arg == "--json" or arg.startswith("--json=") for arg in argv):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        command = argv[0] if argv and argv[0] in parser.commands else None
        _emit(_error_payload(command, type(exc).__name__, str(exc)), True, sys.stdout)
        return 1
    as_json = args.json
    started = time.perf_counter()
    try:
        result = args.handler(args)
    except (CliInputError, ValueError, ArithmeticError) as exc:
        payload = _error_payload(args.command, type(exc).__name__, str(exc))
        _emit(payload, as_json, sys.stderr if not as_json else sys.stdout)
        return 1
    except Exception as exc:  # InternalInvariantError or a fault in the program
        payload = _error_payload(args.command, "internal_invariant", _fault_message(exc))
        _emit(payload, as_json, sys.stderr if not as_json else sys.stdout)
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "result": result,
    }
    if as_json and not args.deterministic:
        payload["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    _emit(payload, as_json, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
