import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from rigidity import (
    InternalInvariantError,
    Polynomial,
    UnknownVariableError,
    VariableMismatchError,
    gcd_univariate,
    gens,
)
from rigidity.gauss import gq
import rigidity.poly as poly_module
from rigidity.poly import MINUS_INF, grlex_key, monomial_divides

from helpers import nonzero_random_poly, random_poly, to_sympy

XYZ = ("X", "Y", "Z")
X, Y, Z = gens(*XYZ)


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------


def test_zero_and_constant():
    zero = Polynomial.zero(XYZ)
    assert zero.is_zero and zero.total_degree() == MINUS_INF
    three = Polynomial.constant(XYZ, 3)
    assert three.is_constant and three.constant_value() == gq(3)
    assert not three.is_zero


def test_variable_and_monomial():
    assert X.degree_in("X") == 1 and X.degree_in("Y") == 0
    m = Polynomial.monomial(XYZ, (2, 0, 1), gq(0, 1))
    assert m.terms == {(2, 0, 1): gq(0, 1)}
    assert m.total_degree() == 3
    with pytest.raises(UnknownVariableError):
        Polynomial.variable(XYZ, "W")


def test_constructor_validation():
    with pytest.raises(ValueError, match="duplicate variable names"):
        Polynomial(("X", "X"))
    with pytest.raises(ValueError, match="does not match"):
        Polynomial(XYZ, {(1, 0): 1})
    for bad in ((-1,), (1.0,), ("a",), (None,)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Polynomial(("X",), {bad: 1})


def test_monomial_with_zero_coefficient_is_zero():
    assert Polynomial.monomial(XYZ, (1, 1, 1), 0).is_zero


def test_occurring_variables():
    f = X**2 + Z
    assert f.occurring_variables() == ("X", "Z")
    assert Polynomial.constant(XYZ, 5).occurring_variables() == ()


def test_grlex_leading_term():
    # total degree first, then lexicographic on the exponent vector
    f = X * Y * Z + X**2 * Y + Z**3 + X
    exps, _ = f.leading_term()
    assert exps == (2, 1, 0)
    assert grlex_key((1, 1, 1)) < grlex_key((2, 1, 0))


def test_mixed_ring_operations_rejected():
    S, = gens("S")
    with pytest.raises(VariableMismatchError):
        X + S
    with pytest.raises(VariableMismatchError):
        X * S


# ---------------------------------------------------------------------------
# ring axioms on bulk random samples, cross-checked against sympy
# ---------------------------------------------------------------------------


def test_ring_axioms_bulk():
    rng = random.Random(20260814)
    for _ in range(1000):
        f = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        g = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        h = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Polynomial.zero(XYZ) == f
        assert f * Polynomial.constant(XYZ, 1) == f
        assert f - f == Polynomial.zero(XYZ)


def test_arithmetic_matches_sympy():
    rng = random.Random(99)
    for _ in range(60):
        f = random_poly(rng, XYZ, max_terms=4, max_exp=4)
        g = random_poly(rng, XYZ, max_terms=4, max_exp=4)
        assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))
        assert to_sympy(f + g) == to_sympy(f) + to_sympy(g)
        assert to_sympy(f**2) == sympy.expand(to_sympy(f) ** 2)


def test_scalar_coercion():
    assert X + 1 == X + Polynomial.constant(XYZ, 1)
    assert 2 * X == X * 2
    assert -X + 1 == -(X - 1)
    assert X * Fraction(1, 2) + X * Fraction(1, 2) == X


@given(st.integers(0, 6), st.integers(0, 6))
def test_power_adds_exponents(a, b):
    assert X**a * X**b == X ** (a + b)


# ---------------------------------------------------------------------------
# division with remainder
# ---------------------------------------------------------------------------


def test_div_rem_identity_and_remainder_freeness():
    rng = random.Random(4242)
    for _ in range(300):
        g = nonzero_random_poly(rng, XYZ, max_terms=3, max_exp=3)
        f = random_poly(rng, XYZ, max_terms=5, max_exp=4)
        q, r = f.div_rem(g)
        assert f == q * g + r
        lead, _ = g.leading_term()
        assert all(not monomial_divides(lead, exps) for exps in r.terms)


def test_div_rem_examples():
    f = X**2 * Y - Z**2
    q, r = f.div_rem(X * Y - Z)
    assert f == q * (X * Y - Z) + r
    q, r = (X**2 - 1).div_rem(X - 1)
    assert q == X + 1 and r.is_zero


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        X.div_rem(Polynomial.zero(XYZ))


def test_divides_and_exact_division():
    f = (X + Y) * (X - Y) * Z
    assert (X + Y).divides(f)
    assert f.div_rem(X + Y) == ((X - Y) * Z, Polynomial.zero(XYZ))
    assert not (X + Z**2).divides(f)
    assert not f.div_rem(X + Z**2)[1].is_zero


def test_exact_division_round_trip_bulk():
    rng = random.Random(77)
    for _ in range(200):
        a = nonzero_random_poly(rng, XYZ, max_terms=3, max_exp=2)
        b = nonzero_random_poly(rng, XYZ, max_terms=3, max_exp=2)
        assert (a * b).div_rem(b) == (a, Polynomial.zero(XYZ))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_diff_basic():
    f = X**3 * Y - 2 * Z
    assert f.diff("X") == 3 * X**2 * Y
    assert f.diff("Y") == X**3
    assert f.diff("Z") == Polynomial.constant(XYZ, -2)
    with pytest.raises(UnknownVariableError):
        f.diff("W")


def test_diff_leibniz_bulk():
    rng = random.Random(31337)
    for _ in range(300):
        f = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        g = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        for v in XYZ:
            assert (f * g).diff(v) == f.diff(v) * g + f * g.diff(v)


def test_diff_matches_sympy():
    rng = random.Random(5)
    sx = sympy.Symbol("X")
    for _ in range(50):
        f = random_poly(rng, XYZ, max_terms=5, max_exp=4)
        assert to_sympy(f.diff("X")) == sympy.expand(sympy.diff(to_sympy(f), sx))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_into_other_ring():
    S, = gens("S")
    f = X**2 + Y
    image = f.substitute({"X": S + 1, "Y": -S})
    assert image == S**2 + S + 1


def test_substitute_requires_every_occurring_variable():
    f = X + Y
    S, = gens("S")
    with pytest.raises(UnknownVariableError):
        f.substitute({"X": S})
    # Z does not occur, so its image is not needed
    assert f.substitute({"X": S, "Y": S}) == 2 * S
    # over the polynomial's own variables, one without an image stays itself
    assert f.substitute({"X": Y - Z}) == 2 * Y - Z
    with pytest.raises(VariableMismatchError):
        f.substitute({"X": Y, "Y": S})


def test_substitute_nothing_is_the_identity():
    f = X**2 * Y - gq(1, 3) * Z + 1
    assert f.substitute({}) == f
    assert Polynomial.zero(XYZ).substitute({}) == Polynomial.zero(XYZ)


def test_substitute_matches_sympy():
    """Full substitution into ("S", "T") and partial substitution in the own
    ring with one or two images, against sympy's simultaneous subs."""
    rng = random.Random(2027)
    for _ in range(60):
        f = random_poly(rng, XYZ, max_terms=5, max_exp=3)
        full = {v: random_poly(rng, ("S", "T"), max_terms=3, max_exp=2) for v in XYZ}
        partial = {v: random_poly(rng, XYZ, max_terms=3, max_exp=2) for v in rng.sample(XYZ, rng.randint(1, 2))}
        for images, target in ((full, ("S", "T")), (partial, XYZ)):
            value = f.substitute(images)
            symbols = {sympy.Symbol(v): to_sympy(img) for v, img in images.items()}
            assert value.variables == target
            assert to_sympy(value) == sympy.expand(to_sympy(f).subs(symbols, simultaneous=True))


def test_substitute_is_ring_homomorphism():
    rng = random.Random(808)
    S, T = gens("S", "T")
    for _ in range(100):
        f = random_poly(rng, XYZ, max_terms=3, max_exp=3)
        g = random_poly(rng, XYZ, max_terms=3, max_exp=3)
        images = {
            "X": random_poly(rng, ("S", "T"), max_terms=2, max_exp=2),
            "Y": random_poly(rng, ("S", "T"), max_terms=2, max_exp=2),
            "Z": random_poly(rng, ("S", "T"), max_terms=2, max_exp=2),
        }
        assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


# ---------------------------------------------------------------------------
# weighted degrees and top parts
# ---------------------------------------------------------------------------


def test_weighted_degree():
    f = X**2 * Y - Z
    assert f.weighted_degree((1, 1, 1)) == 3
    assert f.weighted_degree((0, 0, 5)) == 5
    assert Polynomial.zero(XYZ).weighted_degree((1, 1, 1)) == MINUS_INF


def test_top_part_keeps_every_maximal_term():
    f = Polynomial.variable(("X", "Y"), "X") ** 2 - Polynomial.variable(("X", "Y"), "Y")
    assert f.top_part((1, 0)) == Polynomial.variable(("X", "Y"), "X") ** 2
    # both terms weigh 2 under (1, 2): the top part is the whole polynomial
    assert f.top_part((1, 2)) == f


def test_top_part_is_homogeneous_bulk():
    rng = random.Random(54321)
    for _ in range(200):
        f = nonzero_random_poly(rng, XYZ, max_terms=5, max_exp=4)
        weights = tuple(rng.randint(-2, 4) for _ in XYZ)
        top = f.top_part(weights)
        degrees = {sum(w * e for w, e in zip(weights, exps)) for exps in top.terms}
        assert len(degrees) == 1
        assert degrees.pop() == f.weighted_degree(weights)


def test_weight_vector_arity_checked():
    with pytest.raises(ValueError):
        (X + Y).weighted_degree((1, 2))


# ---------------------------------------------------------------------------
# univariate helpers
# ---------------------------------------------------------------------------


def test_univariate_profile():
    S, = gens("S")
    var, coeffs = (S**2 - 1).univariate_profile()
    assert var == "S"
    assert coeffs == [gq(-1), gq(0), gq(1)]
    var, coeffs = Polynomial.constant(("S",), 4).univariate_profile()
    assert var is None
    assert coeffs == [gq(4)]


def test_gcd_fixture():
    S, = gens("S")
    g = gcd_univariate(S**3 - 3 * S + 2, 3 * S**2 - 3)
    assert g == S - 1  # monic by contract


def test_gcd_of_coprime_is_one():
    S, = gens("S")
    assert gcd_univariate(S**2 + 1, S - 1) == Polynomial.constant(("S",), 1)


def test_gcd_matches_sympy_bulk():
    rng = random.Random(2718)
    S, = gens("S")
    sym = sympy.Symbol("S")
    for _ in range(120):
        p = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=5, imaginary=False)
        q = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=5, imaginary=False)
        ours = gcd_univariate(p, q)
        theirs = sympy.gcd(
            sympy.Poly(to_sympy(p), sym), sympy.Poly(to_sympy(q), sym)
        ).monic()
        assert sympy.expand(to_sympy(ours) - theirs.as_expr()) == 0


def test_gcd_recovers_common_factor():
    rng = random.Random(11)
    for _ in range(80):
        common = nonzero_random_poly(rng, ("S",), max_terms=3, max_exp=3)
        a = nonzero_random_poly(rng, ("S",), max_terms=2, max_exp=2)
        b = nonzero_random_poly(rng, ("S",), max_terms=2, max_exp=2)
        g = gcd_univariate(common * a, common * b)
        # the planted factor divides the gcd, and the gcd divides both inputs
        assert common.divides(g)
        assert g.divides(common * a) and g.divides(common * b)


def _sympy_monic_gcd(p: Polynomial, q: Polynomial):
    sym = sympy.Symbol("S")
    g = sympy.gcd(
        sympy.Poly(to_sympy(p), sym, domain="QQ_I"),
        sympy.Poly(to_sympy(q), sym, domain="QQ_I"),
    )
    return g.monic().as_expr()


def test_gcd_matches_sympy_over_gaussian_rationals():
    # Gaussian coefficients with denominators 2 and 3, planted common
    # factors, products up to degree ~40, and (h, h') pairs with repeated
    # roots as distinct_root_count builds them.
    rng = random.Random(1967)
    S, = gens("S")
    for trial in range(90):
        common = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=rng.randint(0, 14))
        a = nonzero_random_poly(rng, ("S",), max_terms=5, max_exp=rng.randint(0, 25))
        if trial % 3 == 0:
            p = common ** 2 * a
            q = p.diff("S")
        else:
            b = nonzero_random_poly(rng, ("S",), max_terms=5, max_exp=rng.randint(0, 25))
            p, q = common * a, common * b
        ours = gcd_univariate(p, q)
        assert ours.is_zero or ours.leading_term()[1] == gq(1)
        assert sympy.expand(to_sympy(ours) - _sympy_monic_gcd(p, q)) == 0, (p, q)
        assert gcd_univariate(q, p) == ours


def test_gcd_with_zero_and_constant_arguments():
    S, = gens("S")
    zero = Polynomial.zero(("S",))
    one = Polynomial.constant(("S",), 1)
    q = gq(2, 3) * S**3 + gq(Fraction(1, 2)) * S - gq(0, 5)
    monic_q = q * gq(2, 3).inverse()
    assert gcd_univariate(zero, q) == monic_q
    assert gcd_univariate(q, zero) == monic_q
    assert gcd_univariate(zero, zero).is_zero
    assert gcd_univariate(zero, Polynomial.constant(("S",), gq(0, Fraction(-2, 3)))) == one
    assert gcd_univariate(Polynomial.constant(("S",), gq(Fraction(1, 3), 4)), q) == one
    assert gcd_univariate(q, Polynomial.constant(("S",), 7)) == one
    assert gcd_univariate(Polynomial.constant(("S",), 2), one) == one


def test_gcd_chain_across_degree_gaps_matches_sympy(monkeypatch):
    # Remainders that drop two or more degrees send the kernel through
    # Lazard's similar member and Ducos's reduction loop; equal input
    # degrees start the chain with a gap of 0.  Every member computed must
    # be the subresultant sympy computes, up to sign: a wrong step either
    # raises on an inexact division or leaves other members.
    S, = gens("S")
    sym = sympy.Symbol("S")
    gaps, members = [], []
    real_similar = poly_module._similar_regular
    real_next = poly_module._next_subresultant
    real_prem = poly_module._prem

    def similar(b, s, delta):
        gaps.append(delta)
        return real_similar(b, s, delta)

    def next_member(a, b, c, s):
        members.append(real_next(a, b, c, s))
        return members[-1]

    def prem(a, b):
        members.append(real_prem(a, b))
        return members[-1]

    monkeypatch.setattr(poly_module, "_similar_regular", similar)
    monkeypatch.setattr(poly_module, "_next_subresultant", next_member)
    monkeypatch.setattr(poly_module, "_prem", prem)
    common = S - gq(2, 1)
    cases = [
        (gq(3) * S**6 + S + gq(0, 2), gq(5) * S**3 + gq(4, -2)),
        (S**12 + gq(2) * S + 1, gq(1, 1) * S**7 - gq(0, 3) * S + 2),
        (gq(2) * S**15 - S**3 + gq(1, 1), S**11 + gq(0, 2) * S**2 - 1),
        (S**5 + gq(2) * S**4 + S, S**5 - gq(0, 1) * S**3 + gq(3)),
    ]
    seen = []
    for a, b in cases:
        gaps.clear()
        members.clear()
        p, q = common * a, common * b
        assert gcd_univariate(p, q) == common
        chain = sympy.subresultants(
            sympy.Poly(to_sympy(p), sym, domain="ZZ_I"),
            sympy.Poly(to_sympy(q), sym, domain="ZZ_I"),
        )
        assert members[-1] == [] and len(members) == len(chain) - 1
        for member, theirs in zip(members, chain[2:]):
            ours = sum((re + sympy.I * im) * sym**e for e, (re, im) in enumerate(member))
            theirs = theirs.as_expr()
            assert sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0
        seen += gaps
    assert max(seen) == 5 and 2 in seen


def test_gcd_after_a_large_degree_gap_keeps_numbers_small(monkeypatch):
    # The root count of mason "S^200 + 2*S + 1;-S^200 - S;-S - 1" meets a
    # chain step from degree 200 to 6.  The pseudo-remainder of that step multiplies by lc^195 and made
    # divisors of about 361,000 bits; the chain members themselves need
    # under 7,000.
    largest = []
    real_divide = poly_module._divide_exact

    def divide(coeffs, y):
        largest.append(max(abs(y[0]), abs(y[1])).bit_length())
        return real_divide(coeffs, y)

    monkeypatch.setattr(poly_module, "_divide_exact", divide)
    S, = gens("S")
    h = (S**200 + 2 * S + 1) * (S**200 + S) * (S + 1)
    assert gcd_univariate(h, h.diff("S")) == (S + 1) ** 2
    assert max(largest) < 10_000


def test_pseudo_remainder_matches_sympy_prem():
    # The kernel defers the lc(b) scaling of each coefficient until a step
    # touches it; sympy's prem over ZZ_I scales the whole remainder at every
    # step.  Odd trials are sparse dividends; even ones are c*S^k*b + r0 with
    # deg r0 well below k, so the first step drops the degree by several.
    rng = random.Random(1005)
    sym = sympy.Symbol("S")

    def gint(span=9):
        return (rng.randint(-span, span), rng.randint(-span, span))

    def to_poly(pairs):
        return sympy.Poly([sympy.ZZ_I(re, im) for re, im in reversed(pairs)], sym, domain="ZZ_I")

    for trial in range(48):
        m = 1 + trial % 3
        gap = rng.choice([0, 1, 2, 5, 17, 60, 150, 300])
        b = [gint() for _ in range(m)] + [rng.choice([(1, 0), (-1, 0), (0, 1), (3, -2), gint()])]
        b[-1] = b[-1] if b[-1] != (0, 0) else (2, 1)
        if trial % 2:
            a = [gint() if rng.random() < 0.3 else (0, 0) for _ in range(m + gap)] + [gint()]
            a[-1] = a[-1] if a[-1] != (0, 0) else (1, 1)
        else:
            a = [(0, 0)] * gap + [poly_module.gaussian_mul(x, (5, -3)) for x in b]
            for i in range(rng.randint(0, max(0, gap + m - 3)) + 1):
                re, im = gint()
                a[i] = (a[i][0] + re, a[i][1] + im)
        ours = poly_module._prem(a, b)
        assert not ours or ours[-1] != (0, 0)
        assert to_poly(ours) == to_poly(a).prem(to_poly(b)), (trial, a, b)


def test_gaussian_pow_matches_repeated_multiplication():
    for z in [(0, 0), (1, 0), (0, 1), (2, -3), (-5, 7)]:
        power = (1, 0)
        for e in range(20):
            assert poly_module.gaussian_pow(z, e) == power
            power = poly_module.gaussian_mul(power, z)


def test_gcd_exact_division_refuses_a_remainder():
    assert poly_module._divide_exact([(5, 0), (0, 10)], (2, 1)) == [(2, -1), (2, 4)]
    with pytest.raises(InternalInvariantError):
        poly_module._divide_exact([(1, 0)], (1, 1))
    with pytest.raises(InternalInvariantError):
        poly_module._divide_exact([(4, 0), (3, 0)], (2, 0))


def test_the_modular_certificate_agrees_with_the_prs_and_sympy(monkeypatch):
    # Pairs over Q and Q(i) with denominators, times a content that is a
    # unit, an integer, a Gaussian integer or a fraction, and in one pair
    # of ten also p; q has a constant term, so S rarely divides both.  Half
    # of the pairs share a random factor.  The certified gcd must equal the
    # gcd the PRS alone computes and the one sympy computes.
    rng = random.Random(1_000_000_009)
    contents = [gq(1), gq(6), gq(2, 2), gq(3, -4), gq(0, Fraction(5, 3))]
    pairs = []
    for trial in range(200):
        imaginary = trial % 2 == 0
        p = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=9, imaginary=imaginary)
        q = nonzero_random_poly(rng, ("S",), max_terms=4, max_exp=9, imaginary=imaginary)
        q = q + nonzero_random_poly(rng, ("S",), max_terms=1, max_exp=0, imaginary=imaginary)
        if trial % 4 >= 2:
            common = nonzero_random_poly(rng, ("S",), max_terms=3, max_exp=4, imaginary=imaginary)
            p, q = common * p, common * q
        if trial % 10 == 9:
            p = p * poly_module._P
        pairs.append((p * rng.choice(contents), q * rng.choice(contents)))
    answers = []
    real_certificate = poly_module._coprime_mod_p

    def recording(a, b):
        answers.append(real_certificate(a, b))
        return answers[-1]

    monkeypatch.setattr(poly_module, "_coprime_mod_p", recording)
    certified = [gcd_univariate(p, q) for p, q in pairs]
    monkeypatch.setattr(poly_module, "_coprime_mod_p", lambda a, b: False)
    for (p, q), ours in zip(pairs, certified):
        assert gcd_univariate(p, q) == ours, (p, q)
        assert sympy.expand(to_sympy(ours) - _sympy_monic_gcd(p, q)) == 0, (p, q)
    # Both answers of the certificate and both kinds of gcd were seen.
    assert answers.count(True) >= 60 and answers.count(False) >= 60
    assert sum(not g.is_constant for g in certified) >= 60


def _gaussian_gcd(x, y):
    """A gcd in Z[i] by Euclid's algorithm with rounded quotients."""
    while y != (0, 0):
        (a, b), (c, d) = x, y
        n = c * c + d * d
        q_re = (2 * (a * c + b * d) + n) // (2 * n)
        q_im = (2 * (b * c - a * d) + n) // (2 * n)
        x, y = y, (a - q_re * c + q_im * d, b - q_re * d - q_im * c)
    return x


def test_pairs_the_certificate_cannot_vouch_for_reach_the_prs(monkeypatch):
    p, r = poly_module._P, poly_module._SQRT_M1
    assert sympy.isprime(p) and r * r % p == p - 1
    # The Gaussian prime above p that i -> r sends to 0.
    pi_re, pi_im = _gaussian_gcd((p, 0), (r, -1))
    assert pi_re * pi_re + pi_im * pi_im == p and (pi_re + r * pi_im) % p == 0
    S, = gens("S")
    one = Polynomial.constant(("S",), 1)
    calls = []
    real_prs = poly_module._subresultant_prs

    def counting_prs(a, b):
        calls.append((a, b))
        return real_prs(a, b)

    monkeypatch.setattr(poly_module, "_subresultant_prs", counting_prs)
    for f, g in [
        (S, S - p),  # coprime over Q(i), equal modulo p
        (S, S - gq(pi_re, pi_im)),  # equal under i -> r
        (p * S + 1, S),  # the leading coefficient vanishes modulo p
    ]:
        calls.clear()
        assert gcd_univariate(f, g) == one
        assert len(calls) == 1, (f, g)
    calls.clear()
    assert gcd_univariate(S, S - 1) == one
    assert calls == []
