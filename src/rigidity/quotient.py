"""Hypersurface quotient rings C[X1..Xn]/(f) with canonical representatives.

Every residue class is stored by its normal form: the remainder of division
by the single defining relation under the graded-lex order.  Equality and
ideal membership therefore reduce to comparisons of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .gauss import GaussianRational, ScalarLike
from .poly import Polynomial, monomial_divides


class PresentationMismatchError(ValueError):
    """Raised when elements of different quotient rings are combined."""


@dataclass(frozen=True)
class RingPresentation:
    """The data of a quotient C[variables]/(relation).

    The relation must be a nonzero, nonconstant polynomial over exactly the
    declared variables.
    """

    variables: tuple[str, ...]
    relation: Polynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if self.relation.variables != self.variables:
            raise ValueError(
                f"relation variables {self.relation.variables!r} != {self.variables!r}"
            )
        if self.relation.is_zero:
            raise ValueError("the defining relation must be nonzero")
        if self.relation.is_constant:
            raise ValueError("the defining relation must not be a constant")

    # -- element constructors ------------------------------------------

    def normal_form(self, value: Union[RingElement, Polynomial, ScalarLike]) -> RingElement:
        """The class of value in this ring: the class itself when it already
        lives here, else the normal form of a polynomial or scalar lift."""
        if isinstance(value, RingElement):
            if value.presentation != self:
                raise PresentationMismatchError("elements live in different quotient rings")
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            value = Polynomial.constant(self.variables, value)
        elif not isinstance(value, Polynomial):
            raise TypeError(f"cannot interpret {value!r} as a ring element")
        _, remainder = value.div_rem(self.relation)
        return RingElement(self, remainder)

    def generator(self, name: str) -> RingElement:
        return self.normal_form(Polynomial.variable(self.variables, name))

    def generators(self) -> tuple[RingElement, ...]:
        return tuple(self.generator(v) for v in self.variables)


@dataclass(frozen=True)
class RingElement:
    """A residue class, held as its canonical graded-lex remainder."""

    presentation: RingPresentation
    rep: Polynomial

    def __post_init__(self) -> None:
        lead_exps, _ = self.presentation.relation.leading_term()
        for exps in self.rep.terms:
            if monomial_divides(lead_exps, exps):
                raise ValueError(
                    "representative is not in normal form; build elements via normal_form()"
                )

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __mul__(self, other: Union[RingElement, Polynomial, ScalarLike]) -> RingElement:
        other = self.presentation.normal_form(other)
        return self.presentation.normal_form(self.rep * other.rep)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RingElement({self.rep!r} mod {self.presentation.relation!r})"


def member(g: Union[Polynomial, RingElement], presentation: RingPresentation) -> bool:
    """Whether g lies in the principal ideal generated by the relation."""
    lift = g.rep if isinstance(g, RingElement) else g
    if lift.variables != presentation.variables:
        raise PresentationMismatchError("polynomial and presentation variables differ")
    return presentation.relation.divides(lift)
