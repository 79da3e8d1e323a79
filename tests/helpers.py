"""Shared generators and converters for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Optional, Sequence

import sympy

from rigidity import GaussianRational, ParametrizationProblem, Polynomial, SearchOutcome
from rigidity.parsing import MAX_NESTING, ParseError


def random_scalar(rng: random.Random, span: int = 6, imaginary: bool = True) -> GaussianRational:
    """A small random Gaussian rational, biased toward integers."""
    def part() -> Fraction:
        num = rng.randint(-span, span)
        den = rng.choice((1, 1, 1, 2, 3))
        return Fraction(num, den)

    re = part()
    im = part() if imaginary and rng.random() < 0.4 else Fraction(0)
    return GaussianRational(re, im)


def random_poly(
    rng: random.Random,
    variables: tuple[str, ...],
    max_terms: int = 5,
    max_exp: int = 4,
    span: int = 6,
    imaginary: bool = True,
) -> Polynomial:
    """A random sparse polynomial (possibly zero)."""
    result = Polynomial.zero(variables)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        result = result + Polynomial.monomial(
            variables, exps, random_scalar(rng, span, imaginary)
        )
    return result


def nonzero_random_poly(rng: random.Random, variables: tuple[str, ...], **kw) -> Polynomial:
    while True:
        p = random_poly(rng, variables, **kw)
        if not p.is_zero:
            return p


_SYMPY_I = sympy.I


def to_sympy(p: Polynomial):
    """Exact sympy expression for cross-checking arithmetic."""
    syms = sympy.symbols(p.variables) if p.variables else ()
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff.re.numerator, coeff.re.denominator) + _SYMPY_I * sympy.Rational(
            coeff.im.numerator, coeff.im.denominator
        )
        for sym, e in zip(syms, exps):
            term *= sym**e
        total += term
    return sympy.expand(total)


# ---------------------------------------------------------------------------
# reference bounded search: dense coefficient products at every leaf
# ---------------------------------------------------------------------------


def _gmul(p, q):
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        if a == 0 and b == 0:
            continue
        for j, (c, d) in enumerate(q):
            if c == 0 and d == 0:
                continue
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _gpow(p, e, cache):
    if e in cache:
        return cache[e]
    result = _gmul(_gpow(p, e - 1, cache), p)
    cache[e] = result
    return result


def reference_search(
    problem: ParametrizationProblem,
    *,
    coefficient_window: int,
    gaussian: bool = False,
    variable: str = "S",
) -> SearchOutcome:
    """`bounded_search` by dense coefficient vectors: the same enumeration
    order and domain, with every leaf's substituted relation multiplied out
    in full.  No ceiling and no re-verification."""
    bounds = problem.degree_bounds
    if gaussian:
        values = [
            (re, im)
            for re in range(-coefficient_window, coefficient_window + 1)
            for im in range(-coefficient_window, coefficient_window + 1)
        ]
    else:
        values = [(re, 0) for re in range(-coefficient_window, coefficient_window + 1)]
    allow_constant = all(d == 0 for d in bounds)
    relation = problem.relation
    n = len(relation.variables)
    scale = lcm(
        *(
            part.denominator
            for coeff in relation.terms.values()
            for part in (coeff.re, coeff.im)
        )
    )
    term_list = [
        (exps, [(int(coeff.re * scale), int(coeff.im * scale))])
        for exps, coeff in relation.terms.items()
    ]
    want_zero = problem.constraint == "zero"
    chosen = [()] * n
    examined = 0

    def leaf_ok(partials):
        width = max(len(p) for p in partials)
        total_re = [0] * width
        total_im = [0] * width
        for p in partials:
            for k, (re, im) in enumerate(p):
                total_re[k] += re
                total_im[k] += im
        if any(total_re[k] or total_im[k] for k in range(1, width)):
            return False
        if want_zero:
            return total_re[0] == 0 and total_im[0] == 0
        return total_re[0] != 0 or total_im[0] != 0

    def recurse(i, partials, nonconstant_seen):
        nonlocal examined
        if i == n:
            examined += 1
            if not nonconstant_seen and not allow_constant:
                return False
            return leaf_ok(partials)
        for vector in product(values, repeat=bounds[i] + 1):
            if all(c == (0, 0) for c in vector):
                continue
            cand = list(vector)
            powers = {0: [(1, 0)], 1: cand}
            next_partials = []
            for (exps, _), partial in zip(term_list, partials):
                e = exps[i]
                next_partials.append(
                    partial if e == 0 else _gmul(partial, _gpow(cand, e, powers))
                )
            chosen[i] = vector
            nonconstant = not all(c == (0, 0) for c in vector[1:])
            if recurse(i + 1, next_partials, nonconstant_seen or nonconstant):
                return True
        return False

    if recurse(0, [coeff_poly for _, coeff_poly in term_list], False):
        found = tuple(
            Polynomial(
                (variable,),
                {
                    (degree,): GaussianRational(re, im)
                    for degree, (re, im) in enumerate(vec)
                    if re or im
                },
            )
            for vec in chosen
        )
        return SearchOutcome(status="Found", candidates=found, examined=examined)
    return SearchOutcome(status="NoneWithinBounds", candidates=None, examined=examined)


# ---------------------------------------------------------------------------
# reference parser: every literal a Polynomial, combined by Polynomial * and +
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    line: int
    column: int


def _reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    index = 0
    while index < len(text):
        ch = text[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch in " \t\r":
            column += 1
            index += 1
            continue
        start_col = column
        if ch.isdigit():
            end = index
            while end < len(text) and text[end].isdigit():
                end += 1
            tokens.append(_Token("int", text[index:end], line, start_col))
            column += end - index
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(_Token("name", text[index:end], line, start_col))
            column += end - index
            index = end
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, start_col))
            column += 1
            index += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _ReferenceParser:
    def __init__(
        self,
        tokens: list[_Token],
        variables: tuple[str, ...],
        max_exponent: Optional[int],
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.max_exponent = max_exponent
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token) -> ParseError:
        if token.kind == "end":
            return ParseError(f"{message} at end of input", token.line, token.column)
        return ParseError(f"{message}, found {token.text!r}", token.line, token.column)

    def parse_expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
        result = self.parse_term() * sign
        while self.peek().kind in "+-":
            op = self.advance()
            term = self.parse_term()
            result = result + term if op.kind == "+" else result - term
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        token = self.peek()
        if token.kind == "int":
            return Polynomial.constant(self.variables, self.parse_coefficient())
        if token.kind == "name":
            if token.text == "i":
                self.advance()
                return Polynomial.constant(self.variables, GaussianRational(0, 1))
            return self.parse_variable()
        if token.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    token.line,
                    token.column,
                )
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            closing = self.peek()
            if closing.kind != ")":
                raise self.fail("expected ')'", closing)
            self.advance()
            self.depth -= 1
            return inner
        raise self.fail("expected a coefficient, variable or '('", token)

    def parse_coefficient(self) -> GaussianRational:
        numerator = int(self.advance().text)
        value = Fraction(numerator)
        if self.peek().kind == "/":
            self.advance()
            denom_token = self.peek()
            if denom_token.kind != "int":
                raise self.fail("expected a positive integer denominator", denom_token)
            self.advance()
            denominator = int(denom_token.text)
            if denominator == 0:
                raise ParseError(
                    "zero denominator", denom_token.line, denom_token.column
                )
            value = Fraction(numerator, denominator)
        if self.peek().kind == "name" and self.peek().text == "i":
            self.advance()
            return GaussianRational(0, value)
        return GaussianRational(value)

    def parse_variable(self) -> Polynomial:
        token = self.advance()
        if token.text not in self.variables:
            raise ParseError(
                f"unknown variable {token.text!r}", token.line, token.column
            )
        exponent = 1
        if self.peek().kind == "^":
            self.advance()
            exp_token = self.peek()
            if exp_token.kind != "int":
                raise self.fail("expected a natural-number exponent", exp_token)
            self.advance()
            exponent = int(exp_token.text)
            if self.max_exponent is not None and exponent > self.max_exponent:
                raise ParseError(
                    f"exponent {exponent} exceeds the limit {self.max_exponent}",
                    exp_token.line,
                    exp_token.column,
                )
        return Polynomial.variable(self.variables, token.text) ** exponent


def reference_parse(
    text: str,
    variables: Sequence[str],
    max_exponent: Optional[int] = None,
) -> Polynomial:
    """The parser as it was before terms were built directly: every factor a
    Polynomial, combined with Polynomial arithmetic.  Same contract as
    :func:`rigidity.parse_poly`.

    Raises :class:`ParseError` with position information on any syntax
    problem or unknown variable; raises ValueError if the declared variables
    themselves are invalid (``i`` is reserved).
    """
    variables = tuple(variables)
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    parser = _ReferenceParser(_reference_tokenize(text), variables, max_exponent)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise parser.fail("unexpected trailing input", trailing)
    return result
