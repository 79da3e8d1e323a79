"""Self-test of the benchmark's output checks.

Each checker must accept the program's real output and reject a corrupted
copy of it, so the checks are not vacuous.  Run with either of

    python3 perfbench/selftest/test_checkers.py
    python3 -m pytest perfbench/selftest
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

SEED = 7


def pick(workload: str, accept) -> workloads.Op:
    return next(op for op in workloads.build(workload, SEED) if accept(op))


def real(op: workloads.Op) -> Outcome:
    outcome, _ = run.call(run.fresh_cli().main, op.full_argv)
    assert checks.check(op, outcome) is None, checks.check(op, outcome)
    return outcome


def corrupt(outcome: Outcome, edit) -> Outcome:
    payload = json.loads(outcome.out)
    edit(payload["result"])
    return Outcome(outcome.code, json.dumps(payload), outcome.error)


def rejected(op: workloads.Op, outcome: Outcome, edit) -> bool:
    return checks.check(op, corrupt(outcome, edit)) is not None


def _bump(key: str, index: int = 0, by: int = 1):
    def edit(result):
        result[key][index] += by

    return edit


def test_witness_step_count_off_by_one():
    for workload, accept in (
        ("witness_certify", lambda op: op.spec["size"] <= 12),  # closed form and iteration
        ("witness_certify", lambda op: op.spec["size"] > checks.ITERATE_MAX_EXPONENT),  # closed form
        ("catalog_sweep", lambda op: op.spec.get("family") == "three_term" and min(op.spec["exps"]) < 2),
    ):
        op = pick(workload, accept)
        outcome = real(op)
        assert rejected(op, outcome, _bump("witness_steps", 0, 1)), op.argv
        assert rejected(op, outcome, _bump("witness_steps", -1, -1)), op.argv


def test_status_flipped():
    rigid = pick("catalog_sweep", lambda op: op.spec.get("family") == "three_term" and min(op.spec["exps"]) >= 2)
    not_rigid = pick("catalog_sweep", lambda op: op.spec.get("family") == "fermat3" and 1 in op.spec["exps"])
    assert rejected(rigid, real(rigid), lambda r: r.update(status="NotRigid"))
    assert rejected(not_rigid, real(not_rigid), lambda r: r.update(status="Rigid"))


def test_witness_that_does_not_descend():
    op = pick("catalog_sweep", lambda op: op.spec.get("family") == "fermat3" and 1 in op.spec["exps"])
    outcome = real(op)

    def edit(result):
        name = next(v for v, image in result["witness"].items() if image != "0")
        result["witness"][name] = f"2*({result['witness'][name]})"

    assert rejected(op, outcome, edit)


def test_wrong_distinct_root_count():
    op = pick("mason_roots", lambda op: True)
    outcome = real(op)
    assert rejected(op, outcome, _bump("distinct_roots_each", 1, 1))
    assert rejected(op, outcome, lambda r: r.update(distinct_roots_product=r["distinct_roots_product"] - 1))


def test_wrong_examined():
    op = pick("search_sweep", lambda op: op.spec["pattern"] == "twistedmason" and op.spec["bounds"] == (2, 1, 1))
    outcome = real(op)
    assert rejected(op, outcome, lambda r: r.update(examined=r["examined"] + 1))


def test_search_hit_that_does_not_satisfy_its_relation():
    op = pick("search_sweep", lambda op: op.spec["pattern"] == "circle")
    outcome = real(op)
    # X = Y = the found X stays inside bounds and window but X^2 + X^2 != 0.
    assert rejected(op, outcome, lambda r: r["candidates"].update(Y=r["candidates"]["X"]))


def _more_probe_steps(result):
    result["probe"]["steps_per_generator"][1] += 1


def test_other_commands_reject_wrong_answers():
    cases = (
        ("gr", lambda op: True, lambda r: r.update(homogeneous=not r["homogeneous"])),
        ("obstruct", lambda op: True,
         lambda r: r.update(status="NotObstructed" if r["status"] == "Obstructed" else "Obstructed")),
        ("param_verify", lambda op: True, lambda r: r.update(ok=not r["ok"])),
        ("verify_derivation", lambda op: op.spec["degree_jump"] == 8, _more_probe_steps),
    )
    for kind, accept, edit in cases:
        op = pick("catalog_sweep", lambda op, k=kind: op.check == k and accept(op))
        assert rejected(op, real(op), edit), kind


def test_known_fault_and_exit_codes():
    nested = pick("catalog_sweep", lambda op: op.known_fault)
    assert checks.check(nested, Outcome(None, "", "RecursionError")) is not None
    error = json.dumps({"schema_version": "1", "command": "classify",
                        "error": {"type": "ParseError", "message": "nesting too deep"}})
    assert checks.check(nested, Outcome(1, error, None)) is None
    assert checks.check(nested, Outcome(2, error, None)) is not None
    bad = pick("catalog_sweep", lambda op: op.check == "error")
    assert checks.check(bad, Outcome(0, real(bad).out, None)) is not None


def test_closed_forms_match_sympy_iteration():
    for op in workloads.build("witness_certify", SEED):
        if op.spec["size"] > 12:
            continue
        payload = json.loads(real(op).out)
        names = op.spec["vars"]
        f = checks.to_poly(op.spec["relation"], names)
        images = [checks.to_poly(payload["result"]["witness"][v], names) for v in names]
        assert checks.iterate_steps(f, images, 64) == checks.closed_form_steps(op.spec), op.argv


def test_tracer_restores_every_attribute():
    from tracer import Tracer

    cli = run.fresh_cli()
    poly = sys.modules["rigidity.poly"]
    originals = (cli.main, poly.Polynomial.__dict__["__mul__"], poly.gcd_univariate,
                 sys.modules["rigidity.mason"].gcd_univariate)
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["rigidity.mason"].gcd_univariate is not originals[3]
        op = pick("mason_roots", lambda op: True)
        outcome, _ = run.call(cli.main, op.full_argv)
    finally:
        assert tracer.uninstall() == []
    assert checks.check(op, outcome) is None
    restored = (cli.main, poly.Polynomial.__dict__["__mul__"], poly.gcd_univariate,
                sys.modules["rigidity.mason"].gcd_univariate)
    assert all(a is b for a, b in zip(originals, restored))
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["poly.gcd_univariate.calls"] > 0
    assert metrics["mason.distinct_root_count.calls"] == 4


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
