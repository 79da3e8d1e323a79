import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rigidity import GaussianRational
from rigidity.gauss import I, ONE, ZERO, decimal, gq

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, fractions, fractions)


def test_construction_normalizes_to_fractions():
    a = GaussianRational(2, Fraction(1, 2))
    assert a.re == 2 and a.im == Fraction(1, 2)
    assert isinstance(a.re, Fraction) and isinstance(a.im, Fraction)


def test_constants():
    assert ZERO.is_zero and not ONE.is_zero
    assert I * I == -ONE
    assert ONE.is_real and not I.is_real


def test_str_forms():
    assert str(gq(3)) == "3"
    assert str(gq(0, 1)) == "1i"
    assert str(gq(0, Fraction(3, 2))) == "3/2i"
    assert str(gq(1, 2)) == "(1+2i)"
    assert str(gq(-1, -1)) == "(-1-1i)"


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert ONE / a == a.inverse()


def test_division_matches_complex_floats():
    rng = random.Random(7)
    for _ in range(200):
        a = gq(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-9, 9))
        b = gq(rng.randint(-9, 9), Fraction(rng.randint(-9, 9)))
        if b.is_zero:
            continue
        q = a / b
        approx = complex(a.re, a.im) / complex(b.re, b.im)
        assert abs(complex(q.re, q.im) - approx) < 1e-9


def test_coerce():
    assert GaussianRational.coerce(3) == gq(3)
    assert GaussianRational.coerce(Fraction(1, 2)) == gq(Fraction(1, 2))
    assert GaussianRational.coerce(gq(1, 1)) == gq(1, 1)


# ---------------------------------------------------------------------------
# the normalized int triple, against a reference on pairs of Fractions


def ref(a):
    return (a.re, a.im)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def assert_triple(a):
    assert type(a.re_num) is int and type(a.im_num) is int and type(a.den) is int
    assert a.den > 0
    assert math.gcd(a.re_num, a.im_num, a.den) == 1
    if not a.re_num and not a.im_num:
        assert a.den == 1


operands = st.one_of(scalars, st.integers(-30, 30), fractions)


@given(scalars, operands)
def test_operations_match_the_fraction_pair_reference(a, other):
    x = ref(a)
    y = ref(GaussianRational.coerce(other))
    results = [
        (a + other, (x[0] + y[0], x[1] + y[1])),
        (other + a, (x[0] + y[0], x[1] + y[1])),
        (a - other, (x[0] - y[0], x[1] - y[1])),
        (a * other, ref_mul(x, y)),
        (other * a, ref_mul(x, y)),
        (-a, (-x[0], -x[1])),
    ]
    if any(y):
        results.append((a / other, ref_mul(x, ref_inverse(y))))
    if any(x):
        results.append((GaussianRational.coerce(other) / a, ref_mul(y, ref_inverse(x))))
        results.append((a.inverse(), ref_inverse(x)))
    for got, want in results:
        assert type(got) is GaussianRational
        assert_triple(got)
        assert ref(got) == want


@given(fractions, fractions)
def test_construction_gives_the_normalized_triple(re, im):
    a = GaussianRational(re, im)
    assert_triple(a)
    assert (a.re, a.im) == (re, im)
    assert type(a.re) is Fraction and type(a.im) is Fraction


def test_zero_is_one_triple():
    for zero in (ZERO, gq(), gq(0, 0), gq(3) - gq(3), gq(1, 1) * 0, GaussianRational.coerce(0)):
        assert (zero.re_num, zero.im_num, zero.den) == (0, 0, 1)
        assert zero.is_zero and not zero


@given(scalars, scalars)
def test_equal_values_hash_equal(a, b):
    assert (a == b) == (ref(a) == ref(b))
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a * ONE) == hash(a)


def test_equality_is_only_with_scalars():
    assert not (gq(1) == 1)
    assert gq(1) != 1
    assert not (gq(Fraction(1, 2)) == Fraction(1, 2))
    assert not (gq(1) == (1, 0, 1))
    assert gq(1).__eq__(1) is NotImplemented


def test_scalars_are_immutable():
    a = gq(1, 2)
    for name in ("re_num", "im_num", "den", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    assert (a.re_num, a.im_num, a.den) == (1, 2, 1)


def test_constructor_rejects_other_types():
    for bad in (1.5, "1", None, gq(1), complex(1, 1)):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)


def test_int_factor_sharing_the_denominator():
    # gcd(n, den) alone normalizes n * (a + b*i) / den
    assert gq(Fraction(1, 6)) * 4 == gq(Fraction(2, 3))
    assert 4 * gq(Fraction(1, 6), Fraction(5, 6)) == gq(Fraction(2, 3), Fraction(10, 3))
    assert_triple(gq(Fraction(1, 6)) * 4)
    for product in (gq(Fraction(1, 6), 7) * 0, 0 * gq(Fraction(5, 3))):
        assert product == ZERO
        assert (product.re_num, product.im_num, product.den) == (0, 0, 1)


def test_pickle_round_trip():
    a = gq(Fraction(-3, 4), Fraction(5, 6))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and type(b) is GaussianRational
    assert_triple(b)


@pytest.mark.parametrize("length", [1, 4300, 4301, 9000, 20000])
def test_decimal_prints_ints_past_the_str_digit_limit(length):
    rng = random.Random(length)
    text = str(rng.randint(1, 9)) + "".join(
        str(rng.randint(0, 9)) for _ in range(length - 1)
    )
    n = 0
    for start in range(0, length, 1000):  # int() refuses long text too
        chunk = text[start:start + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    assert decimal(n) == text
    assert decimal(-n) == "-" + text
    assert decimal(Fraction(-1, n)) == "-1/" + text
    assert decimal(Fraction(-3, 4)) == str(Fraction(-3, 4))
