"""Parsing and pretty-printing of polynomial expressions.

This is the package's single external text format.  The grammar is small and
explicit — no implicit multiplication, ``i`` is a reserved token for the
imaginary unit, exponents apply to variables only:

    expr        := ('+'|'-')? term (('+'|'-') term)*
    term        := factor ('*' factor)*
    factor      := coefficient | variable ('^' natural)? | '(' expr ')'
    coefficient := rational 'i'? | 'i'
    rational    := integer ('/' positive-integer)?

A name is a letter or ``_`` followed by letters, digits or ``_``, and each
declared variable must be one name other than ``i``.  The digits of a number
are ASCII ``0-9``.  Parentheses nest at most :data:`MAX_NESTING` deep; deeper
input is a :class:`ParseError` at the first parenthesis past the limit.  The
command line also caps exponents at :data:`MAX_EXPONENT`.  An integer literal
longer than the interpreter converts is a :class:`ParseError` at the literal.

:func:`parse_poly` builds the term dict directly: a term is one coefficient
and one exponent vector, and only a parenthesised factor is multiplied as a
:class:`Polynomial`.  Terms merge by the rule of ``Polynomial.__add__`` (a
coefficient that cancels is deleted; a later term with that monomial goes to
the end), so ``p.terms`` has the insertion order that adding the terms as
polynomials gives, and callers that iterate it see the same order.

:func:`format_poly` emits a canonical form (graded-lex descending, fixed
coefficient spelling) that parses back to the same polynomial, and distinct
polynomials format to distinct strings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from .gauss import ONE, I, GaussianRational, decimal
from .poly import ExponentVector, Polynomial

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


#: One match per token: an ASCII integer, a name, an operator, a run of
#: whitespace (skipped), or any other character (an error).  ``\w`` is exactly
#: ``str.isalnum`` plus ``_``; a name must start with a letter or ``_``.
_TOKEN = re.compile(r"([0-9]+)|(\w+)|([-+*/^()])|[ \t\r\n]+|(.)", re.DOTALL)

#: ``(kind, text, offset)``; kind is "int", "name", the operator, or "end".
Token = tuple[str, str, int]


def _error(message: str, text: str, offset: int) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group is None:
            continue
        word = match.group(group)
        if group == 1:
            tokens.append(("int", word, match.start()))
        elif group == 3:
            tokens.append((word, word, match.start()))
        elif group == 2 and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("name", word, match.start()))
        else:
            raise _error(f"unexpected character {word[0]!r}", text, match.start())
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...], max_exponent: Optional[int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = self.depth = 0
        self.variables = variables
        self.index = {name: k for k, name in enumerate(variables)}
        self.max_exponent = max_exponent

    def fail(self, message: str, token: Token) -> ParseError:
        kind, text, offset = token
        if kind == "end":
            return _error(f"{message} at end of input", self.text, offset)
        return _error(f"{message}, found {text!r}", self.text, offset)

    def integer(self, token: Token) -> int:
        try:
            return int(token[1])
        except ValueError as exc:  # more digits than the interpreter converts
            raise _error(f"integer literal too long: {exc}", self.text, token[2]) from None

    def parse_expr(self) -> dict[ExponentVector, GaussianRational]:
        tokens = self.tokens
        negate = tokens[self.pos][0] == "-"
        if negate or tokens[self.pos][0] == "+":
            self.pos += 1
        terms = self.parse_term()
        if negate:
            terms = {e: -c for e, c in terms.items()}
        while tokens[self.pos][0] in ("+", "-"):
            negate = tokens[self.pos][0] == "-"
            self.pos += 1
            for exps, c in self.parse_term().items():
                if negate:
                    c = -c
                existing = terms.get(exps)
                total = c if existing is None else existing + c
                if total:
                    terms[exps] = total
                else:
                    del terms[exps]
        return terms

    def parse_term(self) -> dict[ExponentVector, GaussianRational]:
        tokens = self.tokens
        coeff, exps = ONE, [0] * len(self.variables)
        product: Optional[Polynomial] = None  # the parenthesised factors
        while True:
            token = tokens[self.pos]
            kind = token[0]
            if kind == "int":
                coeff = coeff * self.parse_coefficient()
            elif kind == "name" and token[1] == "i":
                self.pos += 1
                coeff = coeff * I
            elif kind == "name":
                self.pos += 1
                k = self.index.get(token[1])
                if k is None:
                    raise _error(f"unknown variable {token[1]!r}", self.text, token[2])
                exps[k] += self.parse_exponent()
            elif kind == "(":
                if self.depth == MAX_NESTING:
                    message = f"parentheses nested deeper than {MAX_NESTING} levels"
                    raise _error(message, self.text, token[2])
                self.pos += 1
                self.depth += 1
                inner = Polynomial._raw(self.variables, self.parse_expr())
                if tokens[self.pos][0] != ")":
                    raise self.fail("expected ')'", tokens[self.pos])
                self.pos += 1
                self.depth -= 1
                product = inner if product is None else product * inner
            else:
                raise self.fail("expected a coefficient, variable or '('", token)
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if not coeff:
            return {}
        if product is None:
            return {tuple(exps): coeff}
        return {tuple(map(add, e, exps)): c * coeff for e, c in product.terms.items()}

    def parse_coefficient(self) -> GaussianRational:
        tokens = self.tokens
        value = self.integer(tokens[self.pos])
        self.pos += 1
        if tokens[self.pos][0] == "/":
            self.pos += 1
            token = tokens[self.pos]
            if token[0] != "int":
                raise self.fail("expected a positive integer denominator", token)
            self.pos += 1
            denominator = self.integer(token)
            if denominator == 0:
                raise _error("zero denominator", self.text, token[2])
            value = Fraction(value, denominator)
        if tokens[self.pos][0] == "name" and tokens[self.pos][1] == "i":
            self.pos += 1
            return GaussianRational(0, value)
        return GaussianRational.coerce(value)

    def parse_exponent(self) -> int:
        if self.tokens[self.pos][0] != "^":
            return 1
        self.pos += 1
        token = self.tokens[self.pos]
        if token[0] != "int":
            raise self.fail("expected a natural-number exponent", token)
        self.pos += 1
        exponent = self.integer(token)
        if self.max_exponent is not None and exponent > self.max_exponent:
            message = f"exponent {exponent} exceeds the limit {self.max_exponent}"
            raise _error(message, self.text, token[2])
        return exponent


#: A word that :func:`_tokenize` reads as one name when it starts with a
#: letter or ``_``.
_WORD = re.compile(r"\w+")


def check_variables(variables: Sequence[str]) -> tuple[str, ...]:
    """The declared variables as a tuple, or ValueError unless the grammar
    reads each of them as exactly one name other than ``i``."""
    variables = tuple(variables)
    for name in variables:
        if name == "i":
            raise ValueError("'i' is reserved for the imaginary unit")
        if not (_WORD.fullmatch(name) and (name[0].isalpha() or name[0] == "_")):
            raise ValueError(f"{name!r} is not a variable name")
    return variables


def parse_poly(
    text: str,
    variables: Sequence[str],
    max_exponent: Optional[int] = None,
) -> Polynomial:
    """Parse ``text`` into an exact polynomial over the declared variables.

    Raises :class:`ParseError` with position information on any syntax
    problem or unknown variable; raises ValueError if the declared variables
    themselves are invalid (each is one name of the grammar other than the
    reserved ``i``, and names are distinct).
    """
    variables = check_variables(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables!r}")
    parser = _Parser(text, variables, max_exponent)
    terms = parser.parse_expr()
    trailing = parser.tokens[parser.pos]
    if trailing[0] != "end":
        raise parser.fail("unexpected trailing input", trailing)
    return Polynomial._raw(variables, terms)


def _format_magnitude(value: Fraction, imaginary: bool) -> str:
    if imaginary:
        return "i" if value == 1 else f"{decimal(value)}i"
    return decimal(value)


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
        f"({decimal(inner.re)}{im_sign}{_format_magnitude(abs(inner.im), imaginary=True)})"
    )
    return sign, body


def format_poly(p: Polynomial) -> str:
    """Canonical text form: graded-lex descending, explicit '*', '^'.

    Every coefficient is printed in full; the text parses back only when each
    literal in it fits the parser's limit on integer literal length.
    """
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
