import random
from fractions import Fraction

import pytest

from rigidity import ParseError, Polynomial, format_poly, gens, parse_poly
from rigidity.parsing import MAX_NESTING
from rigidity.gauss import gq

from helpers import random_poly

XYZ = ("X", "Y", "Z")


def roundtrip(p):
    return parse_poly(format_poly(p), p.variables)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_forms():
    X, Y, Z = gens(*XYZ)
    assert parse_poly("X^2*Y - Z", XYZ) == X**2 * Y - Z
    assert parse_poly("-X + 3", XYZ) == -X + 3
    assert parse_poly("3/2*X", XYZ) == Fraction(3, 2) * X
    assert parse_poly("i*X", XYZ) == gq(0, 1) * X
    assert parse_poly("3/2i", XYZ) == Polynomial.constant(XYZ, gq(0, Fraction(3, 2)))
    assert parse_poly("2i*Y", XYZ) == gq(0, 2) * Y
    assert parse_poly("0", XYZ).is_zero


def test_parse_parentheses_and_signs():
    X, Y, Z = gens(*XYZ)
    assert parse_poly("(X + Y)*(X - Y)", XYZ) == X**2 - Y**2
    assert parse_poly("-(X - Y)", XYZ) == Y - X
    assert parse_poly("(1 + 2i)*Z", XYZ) == gq(1, 2) * Z
    # a sign is part of the expression head, not a unary operator
    with pytest.raises(ParseError):
        parse_poly("X - -Y", XYZ)
    assert parse_poly("X - (-Y)", XYZ) == X + Y


def test_parse_whitespace_insensitive():
    a = parse_poly("X^2*Y-3/2*Z^3+i*T", ("X", "Y", "Z", "T"))
    b = parse_poly("  X^2 * Y - 3/2 * Z^3\n\t+ i * T ", ("X", "Y", "Z", "T"))
    assert a == b


def test_parse_exponent_cap():
    parse_poly("X^8", XYZ, max_exponent=8)
    with pytest.raises(ParseError) as info:
        parse_poly("X^9", XYZ, max_exponent=8)
    assert "exceeds the limit" in str(info.value)


def test_reserved_imaginary_name():
    with pytest.raises(ValueError):
        parse_poly("i + 1", ("i", "X"))


# ---------------------------------------------------------------------------
# error positions
# ---------------------------------------------------------------------------


def test_error_position_double_caret():
    with pytest.raises(ParseError) as info:
        parse_poly("X^^2", XYZ)
    err = info.value
    assert err.line == 1 and err.column == 3
    assert "natural-number exponent" in err.message


def test_error_position_unknown_variable():
    with pytest.raises(ParseError) as info:
        parse_poly("X + W^2", XYZ)
    assert info.value.column == 5
    assert "unknown variable 'W'" in info.value.message


def test_error_position_second_line():
    with pytest.raises(ParseError) as info:
        parse_poly("X +\n  $", XYZ)
    assert info.value.line == 2
    assert info.value.column == 3
    assert "unexpected character" in info.value.message


def test_error_trailing_input():
    with pytest.raises(ParseError) as info:
        parse_poly("X + Y)", XYZ)
    assert "trailing" in info.value.message
    assert info.value.column == 6


def test_error_zero_denominator():
    with pytest.raises(ParseError) as info:
        parse_poly("1/0*X", XYZ)
    assert "zero denominator" in info.value.message


def test_error_dangling_operator():
    with pytest.raises(ParseError) as info:
        parse_poly("X + ", XYZ)
    assert "end of input" in str(info.value)


def test_error_unclosed_parenthesis():
    with pytest.raises(ParseError):
        parse_poly("(X + Y", XYZ)


def nested(depth, inner="X"):
    return "(" * depth + inner + ")" * depth


def test_nesting_up_to_the_limit_parses():
    X, Y = gens("X", "Y")
    assert parse_poly(nested(MAX_NESTING - 1) + " + Y", ("X", "Y")) == X + Y
    assert parse_poly(nested(MAX_NESTING, "X - Y"), ("X", "Y")) == X - Y


def test_nesting_past_the_limit_names_the_opening_parenthesis():
    text = "Y + " + nested(MAX_NESTING + 1)
    with pytest.raises(ParseError) as info:
        parse_poly(text, ("X", "Y"))
    # the first parenthesis past the limit is the 101st, at column 5 + 100
    assert (info.value.line, info.value.column) == (1, 5 + MAX_NESTING)
    assert f"deeper than {MAX_NESTING}" in info.value.message
    with pytest.raises(ParseError) as info:
        parse_poly("X +\n" + nested(3000), ("X",))
    assert (info.value.line, info.value.column) == (2, 1 + MAX_NESTING)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2X", XYZ)
    with pytest.raises(ParseError):
        parse_poly("X Y", XYZ)


def test_exponent_applies_to_variables_only():
    with pytest.raises(ParseError):
        parse_poly("(X + 1)^2", XYZ)
    with pytest.raises(ParseError):
        parse_poly("2^3", XYZ)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_format_fixed_examples():
    X, Y, Z = gens(*XYZ)
    assert format_poly(Polynomial.zero(XYZ)) == "0"
    assert format_poly(X**2 * Y - Fraction(3, 2) * Z**3) == "X^2*Y - 3/2*Z^3"
    assert format_poly(-X) == "-X"
    assert format_poly(X - Y) == "X - Y"
    assert format_poly(gq(0, 1) * X) == "i*X"
    assert format_poly(gq(0, -3) * X) == "-3i*X"
    assert format_poly(gq(1, 2) * X) == "(1+2i)*X"
    assert format_poly(gq(-1, -2) * X) == "-(1+2i)*X"
    assert format_poly(gq(-1, 2) * X) == "-(1-2i)*X"
    assert format_poly(Polynomial.constant(XYZ, gq(0, 1))) == "i"
    assert format_poly(Polynomial.constant(XYZ, -1)) == "-1"


def test_format_orders_grlex_descending():
    X, Y, Z = gens(*XYZ)
    p = X + Y**3 + X * Y * Z + Z**2
    assert format_poly(p) == "X*Y*Z + Y^3 + Z^2 + X"


def test_roundtrip_bulk():
    rng = random.Random(271828)
    for _ in range(1000):
        p = random_poly(rng, ("X", "Y", "Z"), max_terms=6, max_exp=5)
        assert roundtrip(p) == p


def test_roundtrip_single_variable_and_four_variables():
    rng = random.Random(16180)
    for _ in range(200):
        p = random_poly(rng, ("S",), max_terms=4, max_exp=7)
        assert roundtrip(p) == p
        q = random_poly(rng, ("X", "Y", "Z", "T"), max_terms=5, max_exp=3)
        assert roundtrip(q) == q


def test_formatting_is_injective_on_sample():
    rng = random.Random(9241)
    seen = {}
    for _ in range(500):
        p = random_poly(rng, ("X", "Y"), max_terms=4, max_exp=4)
        text = format_poly(p)
        if text in seen:
            assert seen[text] == p
        seen[text] = p
    # canonical text is also stable under reparsing and reformatting
    for text, p in list(seen.items())[:50]:
        assert format_poly(parse_poly(text, ("X", "Y"))) == text
