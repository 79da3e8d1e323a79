"""Parsing and pretty-printing of polynomial expressions.

This is the package's single external text format.  The grammar is small and
explicit — no implicit multiplication, ``i`` is a reserved token for the
imaginary unit, exponents apply to variables only:

    expr        := ('+'|'-')? term (('+'|'-') term)*
    term        := factor ('*' factor)*
    factor      := coefficient | variable ('^' natural)? | '(' expr ')'
    coefficient := rational 'i'? | 'i'
    rational    := integer ('/' positive-integer)?

Parentheses nest at most :data:`MAX_NESTING` deep; deeper input is a
:class:`ParseError` at the first parenthesis past the limit.  The command
line also caps exponents at :data:`MAX_EXPONENT`.

:func:`format_poly` emits a canonical form (graded-lex descending, fixed
coefficient spelling) that parses back to the same polynomial, and distinct
polynomials format to distinct strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .gauss import GaussianRational
from .poly import Polynomial

#: Deepest parenthesis nesting the parser accepts.  The parser recurses a few
#: frames per level, so this keeps it well under the interpreter's limit.
MAX_NESTING = 100

#: Largest exponent the command line accepts (``parse_poly(max_exponent=)``).
#: Univariate kernels allocate ``degree + 1`` dense slots, so an unbounded
#: exponent would be an unbounded allocation.
MAX_EXPONENT = 10_000


class ParseError(ValueError):
    """Syntax or validity error, with 1-based line/column of the offender."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | one of "+-*/^()" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("int", text[index:end], line, start_col))
            column += end - index
            index = end
            continue
        if ch.isalpha() or ch == "_":
            end = index
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            tokens.append(Token("name", text[index:end], line, start_col))
            column += end - index
            index = end
            continue
        if ch in "+-*/^()":
            tokens.append(Token(ch, ch, line, start_col))
            column += 1
            index += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        variables: tuple[str, ...],
        max_exponent: Optional[int],
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.max_exponent = max_exponent
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: Token) -> ParseError:
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


def parse_poly(
    text: str,
    variables: Sequence[str],
    max_exponent: Optional[int] = None,
) -> Polynomial:
    """Parse ``text`` into an exact polynomial over the declared variables.

    Raises :class:`ParseError` with position information on any syntax
    problem or unknown variable; raises ValueError if the declared variables
    themselves are invalid (``i`` is reserved).
    """
    variables = tuple(variables)
    if "i" in variables:
        raise ValueError("'i' is reserved for the imaginary unit")
    parser = _Parser(_tokenize(text), variables, max_exponent)
    result = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise parser.fail("unexpected trailing input", trailing)
    return result


def _format_magnitude(value: Fraction, imaginary: bool) -> str:
    if imaginary:
        return "i" if value == 1 else f"{value}i"
    return str(value)


def _format_coefficient(coeff: GaussianRational, has_monomial: bool) -> tuple[str, str]:
    """Return (sign, body) where sign is '+' or '-'.

    Real and purely imaginary coefficients carry their sign out front and drop
    a magnitude of 1 when a monomial follows; mixed coefficients are always
    parenthesized with a positive real part inside.
    """
    if coeff.is_real:
        sign = "-" if coeff.re < 0 else "+"
        magnitude = abs(coeff.re)
        if has_monomial and magnitude == 1:
            return sign, ""
        return sign, _format_magnitude(magnitude, imaginary=False)
    if not coeff.re:
        sign = "-" if coeff.im < 0 else "+"
        return sign, _format_magnitude(abs(coeff.im), imaginary=True)
    sign = "-" if coeff.re < 0 else "+"
    inner = coeff if coeff.re > 0 else -coeff
    im_sign = "+" if inner.im > 0 else "-"
    body = (
        f"({inner.re}{im_sign}{_format_magnitude(abs(inner.im), imaginary=True)})"
    )
    return sign, body


def format_poly(p: Polynomial) -> str:
    """Canonical text form: graded-lex descending, explicit '*', '^'."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for position, (exps, coeff) in enumerate(p.sorted_terms()):
        monomial = "*".join(
            f"{v}^{e}" if e > 1 else v
            for v, e in zip(p.variables, exps)
            if e
        )
        sign, body = _format_coefficient(coeff, has_monomial=bool(monomial))
        if body and monomial:
            chunk = f"{body}*{monomial}"
        else:
            chunk = body or monomial
        if position == 0:
            pieces.append(chunk if sign == "+" else f"-{chunk}")
        else:
            pieces.append(f" {sign} {chunk}")
    return "".join(pieces)
