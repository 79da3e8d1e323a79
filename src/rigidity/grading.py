"""Weight filtrations on hypersurface rings and their associated graded data.

A weight vector w turns C[X1..Xn]/(f) into a filtered ring; the associated
graded ring is again a hypersurface ring, presented by the top w-degree part
f-hat of f.  This module materializes that presentation, computes coset
degrees by greedy top-part reduction, and homogenizes derivations.

Polynomial validates a weight vector (one integer per variable) whenever a
top part or weighted degree is taken, so each function here adds only its
own sign rule; f is w-homogeneous exactly when f.top_part(w) == f.

The exactness flag on coset degrees is pattern-based: it is set when f-hat
belongs to one of the shapes known to be irreducible over Q(i) (affine-linear;
a two-term binomial with disjoint supports and coprime exponents; a sum of
three or more terms with pairwise disjoint nonempty supports).  When the flag
is set, the induced degree is a genuine degree function and the greedy value
is the true coset minimum; otherwise the value is only an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .derivation import Derivation, make_derivation
from .poly import MINUS_INF, InternalInvariantError, Polynomial, WeightVector
from .quotient import RingElement, RingPresentation


class DegenerateGradingError(ValueError):
    """The top part of the relation is constant, so no graded presentation exists."""


class InexactDegreeError(ValueError):
    """A required coset degree is only an upper bound for these weights."""


@dataclass(frozen=True)
class GradedPresentation:
    weights: tuple[int, ...]
    quotient: RingPresentation

    @property
    def gr_relation(self) -> Polynomial:
        return self.quotient.relation


def gr_presentation(
    presentation: RingPresentation, weights: WeightVector
) -> GradedPresentation:
    """Present the associated graded ring as C[X1..Xn]/(top part of f)."""
    weights = tuple(weights)
    hat = presentation.relation.top_part(weights)
    if hat.is_constant:
        raise DegenerateGradingError(
            "top part of the relation is constant for these weights"
        )
    return GradedPresentation(weights, RingPresentation(presentation.variables, hat))


def pattern_irreducible(p: Polynomial) -> bool:
    """Whether p matches a shape known to be irreducible over Q(i).

    Recognized shapes: total degree one; two terms with disjoint supports
    whose exponents have gcd 1; three or more terms with pairwise disjoint
    nonempty supports.  Returning False makes no claim either way.
    """
    if p.is_zero or p.is_constant:
        return False
    if p.total_degree() == 1:
        return True
    supports = []
    seen: set[int] = set()
    for exps in p.terms:
        support = frozenset(i for i, e in enumerate(exps) if e)
        if support & seen:
            return False
        seen.update(support)
        supports.append(support)
    if len(supports) == 2:
        return gcd(*(e for exps in p.terms for e in exps)) == 1
    if len(supports) >= 3:
        return all(supports)
    return False


@dataclass(frozen=True)
class CosetDegree:
    """Weighted degree of a residue class, with the representative attaining it.

    value is the weighted degree of `reduced` (MINUS_INF for the zero class);
    when exact is False the value is an upper bound on the coset minimum.
    """

    value: int | float
    exact: bool
    reduced: Polynomial


def coset_degree(element: RingElement, weights: WeightVector) -> CosetDegree:
    """Greedy top-part reduction of the canonical representative.

    While the top part of the representative is an exact multiple of the top
    part of the relation, subtract the matching multiple of the relation;
    each step strictly lowers the weighted degree, so with nonnegative
    weights the loop terminates.
    """
    relation = element.presentation.relation
    hat = relation.top_part(weights)
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative here")
    if element.is_zero:
        return CosetDegree(MINUS_INF, True, element.rep)
    rep = element.rep
    while True:
        q, remainder = rep.top_part(weights).div_rem(hat)
        if not remainder.is_zero:
            break
        rep = rep - q * relation
    return CosetDegree(rep.weighted_degree(weights), pattern_irreducible(hat), rep)


@dataclass(frozen=True)
class DegreeJump:
    """The degree jump d of a derivation and its homogenization.

    d = max over generators x_i with D(x_i) != 0 of deg(D(x_i)) - deg(x_i).
    gr_derivation sends x_i to the top class of D(x_i) when that generator
    attains the jump, and to zero otherwise.
    """

    jump: int
    graded: GradedPresentation
    gr_derivation: Derivation


def derivation_degree_jump(derivation: Derivation, weights: WeightVector) -> DegreeJump:
    """Homogenize a nonzero derivation along a weight filtration.

    Requires every needed coset degree to be exact (pattern-irreducible top
    relation); refuses with InexactDegreeError otherwise rather than using
    upper bounds.
    """
    if derivation.is_zero:
        raise ValueError("the zero derivation has no degree jump")
    presentation = derivation.presentation
    graded = gr_presentation(presentation, weights)
    weights = graded.weights
    if any(w < 0 for w in weights):
        raise ValueError("degree jumps need nonnegative weights")
    if not pattern_irreducible(graded.gr_relation):
        raise InexactDegreeError(
            "coset degrees are not certified exact for this graded relation"
        )
    jumps: list[tuple[int, int, Polynomial]] = []
    for i, (gen, img) in enumerate(zip(presentation.generators(), derivation.images)):
        if img.is_zero:
            continue
        gen_degree = coset_degree(gen, weights)
        img_degree = coset_degree(img, weights)
        jumps.append((i, img_degree.value - gen_degree.value, img_degree.reduced))
    d = max(jump for _, jump, _ in jumps)
    images: list[RingElement | Polynomial] = [
        Polynomial.zero(presentation.variables) for _ in presentation.variables
    ]
    for i, jump, reduced in jumps:
        if jump == d:
            images[i] = graded.quotient.normal_form(reduced.top_part(weights))
    gr_derivation = make_derivation(graded.quotient, images)
    if gr_derivation.is_zero:
        raise InternalInvariantError("homogenized derivation lost all images")
    return DegreeJump(jump=d, graded=graded, gr_derivation=gr_derivation)
