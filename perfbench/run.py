"""Benchmark for the ``rigidity`` command-line tool.

Each operation is one in-process call of ``rigidity.cli.main(argv)`` with
``--json --deterministic``; the loop is closed, with one client in one
process and no threads.  Outputs are checked against independent
computations after the timed loop (``checks.py``).

    python3 perfbench/run.py                      # every workload, one table
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` one round runs
untraced and then traced, and the object holds the per-layer metrics.
Records with the Python version, git revision and CPU count go to
``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (sibling module; needs no third-party code)
from workloads import Outcome  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 100


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------


def fresh_cli():
    """Import rigidity.cli from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "rigidity" or n.startswith("rigidity.")]:
        del sys.modules[name]
    cli = importlib.import_module("rigidity.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"rigidity was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, repeats: int):
    """Import the CLI and build the round, ``repeats`` times; the set-up
    time is the median."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        cli = fresh_cli()
        ops = workloads.build(workload, seed)
        times.append(time.perf_counter() - start)
    return cli, ops, statistics.median(times)


def call(main, argv: list[str]) -> tuple[Outcome, float]:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            error = type(exc).__name__
        elapsed = time.perf_counter() - start
    return Outcome(code, out.getvalue(), error), elapsed


def one_round(main, ops) -> tuple[list[Outcome], list[float], float]:
    outcomes, latencies = [], []
    start = time.perf_counter()
    for op in ops:
        outcome, elapsed = call(main, op.full_argv)
        outcomes.append(outcome)
        latencies.append(elapsed)
    return outcomes, latencies, time.perf_counter() - start


def timed_rounds(main, ops, seconds: float):
    """Whole rounds until ``seconds`` have passed and MIN_OPS ran.  Later
    rounds must reproduce the first round's outputs exactly."""
    first, latencies, elapsed = one_round(main, ops)
    rounds, mismatches = 1, [0] * len(ops)
    while elapsed < seconds or rounds * len(ops) < MIN_OPS:
        outcomes, lat, took = one_round(main, ops)
        latencies += lat
        elapsed += took
        rounds += 1
        for i, (a, b) in enumerate(zip(first, outcomes)):
            mismatches[i] += a != b
    return first, rounds, elapsed, latencies, mismatches


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def verdicts(ops, outcomes, rounds: int, mismatches: list[int]):
    """(failed operations, whether the run is correct, failure reasons)."""
    import checks  # sympy is imported only now, after the timed loop

    failed, correct, reasons = 0, True, []
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        reason = checks.check(op, outcome)
        if reason is None and mismatches[i]:
            reason = f"output changed between rounds ({mismatches[i]} times)"
            failed += mismatches[i]
        elif reason is not None:
            failed += rounds
        if reason is not None:
            correct = correct and op.known_fault
            label = "known fault" if op.known_fault else "FAILED"
            reasons.append(f"{label}: {' '.join(op.argv)[:160]}: {reason}")
    return failed, correct, reasons


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float):
    cli, ops, setup_s = setup(workload, seed, SETUP_REPEATS)
    outcomes, rounds, elapsed, latencies, mismatches = timed_rounds(cli.main, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = rounds * len(ops)
    failed, correct, reasons = verdicts(ops, outcomes, rounds, mismatches)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / elapsed,
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"rounds": rounds, "ops_per_round": len(ops), "loop_s": elapsed}
    return correct, attempted, failed, metrics, reasons, info


def run_traced(workload: str, seed: int):
    from tracer import Tracer

    cli, ops, _ = setup(workload, seed, 1)
    plain, _, plain_s = one_round(cli.main, ops)
    tracer = Tracer()
    try:
        tracer.install()
        traced, _, traced_s = one_round(cli.main, ops)
    finally:
        not_restored = tracer.uninstall()
    mismatches = [int(a != b) for a, b in zip(plain, traced)]
    failed, correct, reasons = verdicts(ops, traced, 2, mismatches)
    if not_restored:
        correct = False
        reasons.append(f"FAILED: attributes not restored: {', '.join(not_restored)}")
    for target in tracer.missing:
        reasons.append(f"note: entry point {target} not found; its metrics read 0")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - plain_s
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "environment": environment(), **tracer.span_record()}
    (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps(record))
    info = {"rounds": 2, "ops_per_round": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
            "spans": len(tracer.spans)}
    return correct, 2 * len(ops), failed, metrics, reasons, info


def run_one(bench: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    if trace:
        correct, attempted, failed, values, reasons, info = run_traced(workload, seed)
        wanted = bench["per_layer"]
    else:
        correct, attempted, failed, values, reasons, info = run_untraced(workload, seed, seconds)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for reason in reasons[:20]:
        print(reason, file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), **info,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "problems": reasons}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{workload}_seed{seed}_trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# {json.dumps(record['environment'])} {json.dumps(info)}")
    print(f"{workload}: attempted {attempted}, failed {failed}, correct {correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(bench: dict, seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for w in bench["workloads"]:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{w['name']}  attempted={result['attempted']} failed={result['failed']}"
              f" correct={str(result['correct']).lower()}")
        for name, m in result["metrics"].items():
            print(f"    {name:32s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rigidity" / "cli.py").is_file():
        print(f"error: no program sources at {SRC / 'rigidity'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(bench, args.seed, args.seconds, args.trace)
    return run_one(bench, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
