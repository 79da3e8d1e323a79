import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
import sympy

from rigidity import (
    Polynomial,
    check_double_mason,
    check_extended_mini_mason,
    check_fermat_sum,
    check_mini_mason,
    check_twisted_mason,
    distinct_root_count,
    gens,
    mason_check,
    obstruction_check,
)
from rigidity.gauss import gq
import rigidity.mason as mason_module
import rigidity.poly as poly_module
from rigidity.mason import MAX_TUPLE_LENGTH
from rigidity.poly import NotUnivariateError

from helpers import nonzero_random_poly, to_sympy

S, = gens("S")
ONE = Polynomial.constant(("S",), 1)


def linear_product(roots_with_multiplicity):
    p = ONE
    for root, mult in roots_with_multiplicity:
        p = p * (S - root) ** mult
    return p


# ---------------------------------------------------------------------------
# distinct root counts
# ---------------------------------------------------------------------------


def test_distinct_root_count_examples():
    assert distinct_root_count(S**2 * (S - 1) ** 3) == 2
    assert distinct_root_count(S**3 - 3 * S + 2) == 2  # (S-1)^2 (S+2)
    assert distinct_root_count(ONE * 7) == 0
    assert distinct_root_count(S) == 1


def test_distinct_root_count_errors():
    with pytest.raises(ValueError):
        distinct_root_count(Polynomial.zero(("S",)))
    X, Y = gens("X", "Y")
    with pytest.raises(NotUnivariateError):
        distinct_root_count(X * Y)


def test_distinct_root_count_fifty_known_factorizations():
    """50 deterministic products of linear factors with known root sets."""
    rng = random.Random(1105)
    cases = 0
    while cases < 50:
        k = rng.randint(1, 5)
        roots = rng.sample(range(-8, 9), k)
        factors = [(r, rng.randint(1, 3)) for r in roots]
        p = linear_product(factors)
        assert distinct_root_count(p) == len(roots)
        cases += 1


def test_distinct_root_count_multiplicity_blind():
    assert distinct_root_count((S - 3) ** 7) == 1
    assert distinct_root_count((S - 3) * (S + 3)) == 2


# ---------------------------------------------------------------------------
# mason_check
# ---------------------------------------------------------------------------


def test_mason_check_unit_tail_example():
    report = mason_check([S**2 - 1, -(S**2), ONE])
    assert report.hypotheses_ok and report.violation is None
    assert report.max_degree == 2
    assert report.distinct_roots_product == 3
    assert report.bound_product == 3
    assert report.bound_sum == 3
    assert report.holds_product and report.holds_sum
    assert not report.all_constant


def test_mason_check_shared_factor_detected():
    report = mason_check([S, S, -2 * S])
    assert not report.hypotheses_ok
    assert "gcd" in report.violation
    assert "(1, 2, 3)" in report.violation


def test_mason_check_linear_example():
    report = mason_check([S + 1, -S, -ONE])
    assert report.hypotheses_ok
    assert report.max_degree == 1
    assert report.bound_product == 2
    assert report.holds_product and report.holds_sum


def test_mason_check_structural_errors():
    with pytest.raises(ValueError):
        mason_check([S, -S])
    with pytest.raises(ValueError):
        mason_check([S, -S, Polynomial.zero(("S",))])
    with pytest.raises(ValueError):
        mason_check([S, S, S])  # sum is 3S, not zero
    too_many = [S] * (MAX_TUPLE_LENGTH) + [-MAX_TUPLE_LENGTH * S]
    with pytest.raises(ValueError):
        mason_check(too_many)
    X, Y = gens("X", "Y")
    for mixed in ([X, -X + 1, Y, -Y - 1], [X, Y, -X - Y]):
        with pytest.raises(NotUnivariateError):
            mason_check(mixed)


def test_mason_check_all_constant_flag():
    report = mason_check([ONE, ONE, -2 * ONE])
    assert report.all_constant
    assert report.max_degree == 0


def test_mason_check_proper_subset_violation():
    # (S, -S, S^2, -S^2): the pair (1,2) sums to zero with gcd S
    report = mason_check([S, -S, S**2, -(S**2)])
    assert not report.hypotheses_ok
    assert "(1, 2)" in report.violation


def test_mason_check_gcd_fold_stops_at_a_constant(monkeypatch):
    calls = []
    real_gcd = mason_module._gcd_pairs

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(mason_module, "_gcd_pairs", counting_gcd)
    # A coprime triple: one gcd for the only zero-sum subset, one per entry's
    # root count, and one per later entry in the product-root fold, whose
    # gcds are constant and so cost no root count of their own.
    report = mason_check([S**3 + 2, -(S**3) + S, -S - 2])
    assert report.hypotheses_ok
    assert len(calls) == 1 + 3 + 2
    calls.clear()
    # gcd(S, S^2) = S is not constant, so the hypothesis fold goes on to the
    # third entry.  Both product-fold gcds are S, and each costs one more
    # call for its own root count.
    report = mason_check([S, S**2, -S - S**2])
    assert report.violation == "zero-sum subset (1, 2, 3) has nonconstant gcd of degree 1"
    assert len(calls) == 2 + 3 + 2 * 2


def _shared_factor_tuple(rng):
    """A zero-sum tuple of length 3 to 5 whose entries are scalar multiples
    of products of one or two factors from a pool of three, some squared,
    so that entries share factors; the last entry closes the sum."""
    pool = [nonzero_random_poly(rng, ("S",), max_terms=3, max_exp=2, span=3) for _ in range(3)]
    entries = []
    for _ in range(rng.randint(2, 4)):
        f = nonzero_random_poly(rng, ("S",), max_terms=1, max_exp=0, span=3)
        for base in rng.sample(pool, rng.randint(1, 2)):
            f = f * base ** rng.randint(1, 2)
        entries.append(f)
    last = -entries[0]
    for f in entries[1:]:
        last = last - f
    return entries + [last]


def _sympy_violation(polys):
    """The violation mason_check should report, from sympy over QQ_I: the
    first zero-sum subset, by size and then in order, with a nonconstant gcd."""
    for size in range(2, len(polys) + 1):
        for idx in combinations(range(len(polys)), size):
            if sum(polys[i] for i in idx).is_zero:
                g = reduce(sympy.Poly.gcd, [polys[i] for i in idx])
                if g.degree() > 0:
                    return (
                        f"zero-sum subset {tuple(i + 1 for i in idx)} has "
                        f"nonconstant gcd of degree {g.degree()}"
                    )
    return None


def test_product_root_count_on_tuples_with_shared_and_repeated_factors():
    rng = random.Random(2024)
    sym = sympy.Symbol("S")
    checked = violations = 0
    while checked < 60:
        fs = _shared_factor_tuple(rng)
        if fs[-1].is_zero:
            continue
        report = mason_check(fs)
        product = fs[0]
        for f in fs[1:]:
            product = product * f
        assert report.distinct_roots_product == distinct_root_count(product), fs
        square_free = sympy.Poly(to_sympy(product), sym, domain="QQ_I").sqf_part()
        assert report.distinct_roots_product == square_free.degree(), fs
        # Every other report field, against sympy on the entries themselves.
        polys = [sympy.Poly(to_sympy(f), sym, domain="QQ_I") for f in fs]
        assert report.distinct_roots_each == tuple(p.sqf_part().degree() for p in polys), fs
        assert report.max_degree == max(p.degree() for p in polys), fs
        assert report.violation == _sympy_violation(polys), fs
        violations += not report.hypotheses_ok
        checked += 1
    # Tuples on both sides of the Mason-Stothers hypotheses were checked.
    assert 10 <= violations <= 50


def test_coprime_triples_skip_the_subresultant_prs(monkeypatch):
    calls = []
    real_prs = poly_module._subresultant_prs

    def counting_prs(p, q):
        calls.append((p, q))
        return real_prs(p, q)

    monkeypatch.setattr(poly_module, "_subresultant_prs", counting_prs)
    # Shaped like the benchmark's mason triples: p and q have three terms,
    # p a constant term, over Q and over Q(i).  Every gcd mason_check asks
    # for is 1, and the modular certificate answers each one.
    for p, q in [
        (3 * S**9 - S**4 + gq(Fraction(5, 2)), -2 * S**8 + 4 * S**3 - S),
        (
            gq(1, 2) * S**6 + gq(3, -1) * S**2 - gq(0, 2),
            gq(-2, 1) * S**5 + gq(Fraction(1, 2)) * S**3 + gq(0, 3) * S,
        ),
    ]:
        report = mason_check([p, q, -p - q])
        assert report.hypotheses_ok and not report.all_constant
        assert calls == []
    # A tuple whose entries share a factor still reaches the PRS, the one
    # kernel that computes a nonconstant gcd.
    rng = random.Random(2024)
    while True:
        fs = _shared_factor_tuple(rng)
        if not fs[-1].is_zero and not mason_check(fs).hypotheses_ok:
            break
        calls.clear()
    assert calls


def test_mason_inequalities_hold_on_random_coprime_triples():
    rng = random.Random(777)
    trials = 0
    while trials < 300:
        p = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=6)
        q = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=6)
        r = -p - q
        if r.is_zero:
            continue
        report = mason_check([p, q, r])
        if not report.hypotheses_ok or report.all_constant:
            continue
        assert report.holds_product, (p, q)
        assert report.holds_sum, (p, q)
        trials += 1


# ---------------------------------------------------------------------------
# closed-form obstruction certificates
# ---------------------------------------------------------------------------


def test_mini_mason_rule():
    assert check_mini_mason(2, 2).obstructed
    assert check_mini_mason(5, 3).obstructed
    assert not check_mini_mason(1, 9).obstructed
    with pytest.raises(ValueError):
        check_mini_mason(0, 2)


def test_mini_mason_randomized_soundness():
    """f^a + g^b with a,b >= 2 never lands in the nonzero constants unless
    both inputs are constant."""
    rng = random.Random(424242)
    for _ in range(1000):
        f = nonzero_random_poly(rng, ("S",), max_terms=3, max_exp=4)
        g = nonzero_random_poly(rng, ("S",), max_terms=3, max_exp=4)
        if f.is_constant and g.is_constant:
            continue
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        value = f**a + g**b
        assert not (value.is_constant and not value.is_zero), (f, g, a, b)


def test_twisted_mason_randomized_soundness():
    rng = random.Random(97)
    for _ in range(1000):
        f = nonzero_random_poly(rng, ("S",), max_terms=2, max_exp=3)
        g = nonzero_random_poly(rng, ("S",), max_terms=2, max_exp=3)
        h = nonzero_random_poly(rng, ("S",), max_terms=2, max_exp=3)
        if f.is_constant and g.is_constant and h.is_constant:
            continue
        a, b, c = (rng.randint(2, 3) for _ in range(3))
        value = f**a * g**b + h**c
        assert not (value.is_constant and not value.is_zero), (f, g, h, a, b, c)


def test_extended_mini_mason_boundary():
    assert check_extended_mini_mason(3, 3, 3).obstructed  # 4 <= 4
    assert not check_extended_mini_mason(3, 3, 4).obstructed  # 5 > 4
    with pytest.raises(ValueError):
        check_extended_mini_mason(2, 2, -1)


def test_extended_with_constant_q_agrees_with_mini():
    for a in range(1, 10):
        for b in range(2, 10):
            assert (
                check_extended_mini_mason(a, b, 0).status
                == check_mini_mason(a, b).status
            )


def test_twisted_mason_rule():
    assert check_twisted_mason(2, 2, 2).obstructed
    assert not check_twisted_mason(1, 2, 2).obstructed
    assert not check_twisted_mason(2, 2, 1).obstructed


def test_double_mason_rule():
    verdict = check_double_mason(3, 2, 3, 6)
    assert verdict.obstructed
    assert "1/2 + 1/3 + 1/6" in verdict.detail
    # swaps a,b so that a >= b before applying the reciprocal test
    assert check_double_mason(2, 3, 3, 6).status == verdict.status
    assert not check_double_mason(2, 2, 3, 3).obstructed  # 1/2+1/3+1/3 > 1


def test_fermat_sum_rule():
    assert check_fermat_sum((2, 3, 7)).obstructed  # 41/42 <= 1
    assert not check_fermat_sum((2, 3, 5)).obstructed  # 31/30 > 1
    assert check_fermat_sum((1, 3, 3)).status == "HypothesisNotMet"
    assert check_fermat_sum((2, 4, 6)).status == "HypothesisNotMet"  # gcd 2
    assert check_fermat_sum((3, 3, 4, 4)).obstructed is (
        Fraction(1, 3) * 2 + Fraction(1, 4) * 2 <= Fraction(1, 2)
    )
    with pytest.raises(ValueError):
        check_fermat_sum((2, 3))


def test_obstruction_check_dispatch():
    assert obstruction_check("doublemason", {"a": 3, "b": 2, "c": 3, "d": 6}).obstructed
    assert obstruction_check("mini-mason", {"a": 2, "b": 2}).obstructed
    assert obstruction_check("ex1", {"d1": 2, "d2": 3, "d3": 7}).obstructed
    with pytest.raises(ValueError):
        obstruction_check("nosuch", {"a": 1})
    with pytest.raises(ValueError):
        obstruction_check("minimason", {"a": 2})
    with pytest.raises(ValueError):
        obstruction_check("ex1", {"a": 2, "b": 3})


def test_obstruction_check_rejects_keys_equal_after_lowercasing():
    with pytest.raises(ValueError, match="lowercasing"):
        obstruction_check("ex1", {"d1": 2, "D1": 3, "d2": 5, "d3": 7})
    with pytest.raises(ValueError, match="lowercasing"):
        obstruction_check("minimason", {"a": 2, "A": 1, "b": 3})


def test_not_obstructed_detail_shows_failed_inequality():
    verdict = check_extended_mini_mason(3, 3, 4)
    assert "5" in verdict.detail and "4" in verdict.detail
