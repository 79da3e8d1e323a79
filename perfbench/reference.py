"""Reference figures for README.md: the ROADMAP's baselines on this machine.

    python3 perfbench/reference.py

Prints a GaussianRational multiply on real and on Gaussian operands next to
a bare Fraction multiply (best of five timeit repeats), the criterion-05
loop of the acceptance suite (1000 coprime zero-sum triples through
mason_check, generated exactly as the test does), and
``classify --relation "X^2+Y^2+Z^200"`` through cli.main (median of three),
with the environment record of run.py.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import timeit
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)


def per_call_us(stmt: str, names: dict, number: int = 200_000) -> float:
    return min(timeit.repeat(stmt, globals=names, number=number, repeat=5)) / number * 1e6


def criterion_05_seconds() -> float:
    """The first loop of test_criterion_05, with the test helpers' generator."""
    from rigidity import GaussianRational, Polynomial, gcd_univariate, mason_check

    rng = random.Random(20260814)

    def part() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3)))

    def scalar() -> GaussianRational:
        re = part()
        im = part() if rng.random() < 0.4 else Fraction(0)
        return GaussianRational(re, im)

    def poly() -> Polynomial:
        while True:
            p = Polynomial.zero(("S",))
            for _ in range(rng.randint(0, 4)):
                p = p + Polynomial.monomial(("S",), (rng.randint(0, 10),), scalar())
            if not p.is_zero:
                return p

    start = time.perf_counter()
    trials = 0
    while trials < 1000:
        p, q = poly(), poly()
        r = -p - q
        if r.is_zero or (p.is_constant and q.is_constant):
            continue
        if not gcd_univariate(p, q).is_constant:
            continue
        report = mason_check([p, q, r])
        assert report.hypotheses_ok and report.holds_product and report.holds_sum
        trials += 1
    return time.perf_counter() - start


def main() -> None:
    cli = run.fresh_cli()
    from rigidity.gauss import GaussianRational

    real = {"a": GaussianRational(Fraction(3, 7)), "b": GaussianRational(Fraction(-5, 11))}
    gaussian = {"a": GaussianRational(Fraction(3, 7), Fraction(2, 5)),
                "b": GaussianRational(Fraction(-5, 11), Fraction(1, 3))}
    fractions = {"a": Fraction(3, 7), "b": Fraction(-5, 11)}
    z200 = []
    for _ in range(3):
        outcome, seconds = run.call(cli.main, ["classify", "--relation", "X^2+Y^2+Z^200",
                                               "--json", "--deterministic"])
        assert outcome.code == 0, outcome
        z200.append(seconds)
    figures = {
        "gauss_mul_real_us": per_call_us("a * b", real),
        "gauss_mul_gaussian_us": per_call_us("a * b", gaussian),
        "fraction_mul_us": per_call_us("a * b", fractions),
        "criterion_05_loop_s": criterion_05_seconds(),
        "classify_z200_s": statistics.median(z200),
        "environment": run.environment(),
    }
    print(json.dumps(figures, indent=1))


if __name__ == "__main__":
    main()
