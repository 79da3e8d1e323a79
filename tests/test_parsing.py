import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rigidity import ParseError, Polynomial, format_poly, gens, parse_poly
from rigidity.parsing import MAX_NESTING, _tokenize, check_variables
from rigidity.gauss import gq

from helpers import random_poly, reference_parse

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


@pytest.mark.parametrize("name", ["", "2", "a b", " X", "X^2", "S-1", "X,Y", "\u00b2X"])
def test_a_declared_variable_must_be_one_name_of_the_grammar(name):
    with pytest.raises(ValueError, match="is not a variable name"):
        parse_poly("1", ("X", name))


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("Xy_9\u00b2\u0663\u00e9 ^-i\n"), max_size=4))
def test_a_declared_variable_is_what_the_tokenizer_reads_as_one_name(name):
    try:
        tokens = _tokenize(name)
    except ParseError:
        tokens = []
    one_name = len(tokens) == 2 and tokens[0][:2] == ("name", name) and name != "i"
    try:
        check_variables((name,))
    except ValueError:
        assert not one_name
    else:
        assert one_name


def test_duplicate_variable_names_are_rejected():
    with pytest.raises(ValueError, match="duplicate variable names"):
        parse_poly("X + 1", ("X", "X"))


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


def test_non_ascii_digits_are_unexpected_characters():
    # Both pass str.isdigit; int() reads the Arabic-Indic three as 3 and
    # rejects the superscript two.
    for text, column, char in (("X^\u00b2 + Y^2 + Z^3", 3, "\u00b2"), ("Z^\u0663", 3, "\u0663")):
        with pytest.raises(ParseError) as info:
            parse_poly(text, XYZ)
        assert (info.value.line, info.value.column) == (1, column)
        assert info.value.message == f"unexpected character {char!r}"


def _int_conversion_reason(digits):
    with pytest.raises(ValueError) as info:
        int(digits)
    return str(info.value)


@pytest.mark.parametrize(
    "template, column",
    [("X^2 + Y^2 + {}*Z^3", 13), ("X +\n  1/{}*Y", 5), ("Y + X^{}", 7)],
    ids=["coefficient", "denominator", "exponent"],
)
def test_overlong_integer_literal_is_a_parse_error_at_the_literal(template, column):
    digits = "7" * 5000
    with pytest.raises(ParseError) as info:
        parse_poly(template.format(digits), XYZ)
    line = template.count("\n") + 1
    assert (info.value.line, info.value.column) == (line, column)
    assert info.value.message == f"integer literal too long: {_int_conversion_reason(digits)}"


def test_cancelled_monomial_reenters_at_the_end():
    # the order of Polynomial.__add__: a cancelled term is deleted, and the
    # next term with that monomial is appended after the others
    p = parse_poly("X - X + Y + X", XYZ)
    assert list(p.terms) == [(0, 1, 0), (1, 0, 0)]
    q = parse_poly("2*X*(Y - Z) + 2*X*Z - 1 + X*Z", XYZ)
    assert list(q.terms) == [(1, 1, 0), (0, 0, 0), (1, 0, 1)]


# ---------------------------------------------------------------------------
# differential test against the reference parser


def _coefficients():
    fraction = st.one_of(st.just(""), st.integers(1, 6).map("/{}".format))
    imaginary = st.sampled_from(["", "", "", "i"])
    return st.tuples(st.integers(0, 12).map(str), fraction, imaginary).map("".join)


def _powers():
    exponent = st.one_of(st.just(""), st.integers(0, 12).map("^{}".format))
    return st.tuples(st.sampled_from(XYZ), exponent).map("".join)


# Short terms drawn again and again, so that monomials cancel and come back.
_REPEATED_TERMS = ("X", "Y", "X*Y", "2*X", "i*Y", "1", "1/2*Z^2")


def _expressions(depth=0):
    factors = [_coefficients(), st.just("i"), _powers()]
    if depth < 4:
        factors.append(_expressions(depth + 1).map("({})".format))
    term = st.lists(st.one_of(factors), min_size=1, max_size=3).map("*".join)
    terms = st.lists(st.one_of(term, st.sampled_from(_REPEATED_TERMS)), min_size=1, max_size=4)
    signs = st.lists(st.sampled_from([" + ", " - ", "+", "-"]), min_size=4, max_size=4)
    head = st.sampled_from(["", "", "-", "+"])
    return st.tuples(head, terms, signs).map(
        lambda t: t[0] + t[1][0] + "".join(s + x for s, x in zip(t[2], t[1][1:]))
    )


@st.composite
def _mutated(draw):
    """A well-formed text with one character deleted, inserted or doubled."""
    text = draw(_expressions())
    k = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(["delete", "insert", "double"]))
    if edit == "delete":
        return text[:k] + text[k + 1 :]
    if edit == "double":
        return text[:k] + text[k] + text[k:]
    return text[:k] + draw(st.sampled_from(list("+-*/^()i0W $\n"))) + text[k:]


def _outcome(parse, text, max_exponent):
    try:
        p = parse(text, XYZ, max_exponent)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.column
    return p.variables, list(p.terms.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(_expressions(), _mutated()), st.sampled_from([None, 8]))
def test_parser_matches_the_reference_parser(text, max_exponent):
    # same terms in the same insertion order, or the same error at the same place
    expected = _outcome(reference_parse, text, max_exponent)
    assert _outcome(parse_poly, text, max_exponent) == expected


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
