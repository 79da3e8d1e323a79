"""Derivations on hypersurface quotient rings, and nilpotency certificates.

A derivation is determined by the images of the ring generators.  The images
define a well-posed derivation on C[X1..Xn]/(f) exactly when

    sum_i images[i] * d f / d X_i  lies in (f),

which is checked at construction time.  Nilpotency of a derivation (the
"locally nilpotent" property on generators) is only ever *certified*, either
by bounded iteration or by a strictly negative grading jump; a failed probe
is reported as inconclusive, never as a disproof.

The iteration runs over the Gaussian integers Z[i]: each iterate is kept up
to a nonzero scalar factor, as (re, im) int pairs with cleared denominators,
and reduced by pseudo-division by the relation.  This is sound because the
normal form modulo one relation is linear: a nonzero multiple of it is zero
exactly when it is, and has the same terms, so the step counts and the term
ceiling read as they would over Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, sub
from typing import Optional, Sequence, Union

from .gauss import ScalarLike
from .poly import GaussianInt, InternalInvariantError, Polynomial, UnknownVariableError, _integral
from .quotient import PresentationMismatchError, RingElement, RingPresentation

DEFAULT_PROBE_BOUND = 64
DEFAULT_TERM_CEILING = 100_000


class IllDefinedDerivationError(ValueError):
    """The proposed generator images do not descend to the quotient ring."""


@dataclass(frozen=True)
class Derivation:
    presentation: RingPresentation
    images: tuple[RingElement, ...]

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def image_of(self, name: str) -> RingElement:
        if name not in self.presentation.variables:
            raise UnknownVariableError(f"no generator named {name!r}")
        return self.images[self.presentation.variables.index(name)]

    def __call__(self, element: RingElement) -> RingElement:
        return apply(self, element)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{v} -> {img.rep!r}" for v, img in zip(self.presentation.variables, self.images)
        )
        return f"Derivation({pairs})"


def make_derivation(
    presentation: RingPresentation,
    images: Sequence[Union[RingElement, Polynomial, ScalarLike]],
) -> Derivation:
    """Build a derivation from generator images, checking well-definedness."""
    if len(images) != len(presentation.variables):
        raise ValueError(
            f"expected {len(presentation.variables)} images, got {len(images)}"
        )
    elements = tuple(presentation.normal_form(img) for img in images)
    relation = presentation.relation
    if not relation.divides(_lift_apply([img.rep for img in elements], relation)):
        raise IllDefinedDerivationError(
            "images do not define a derivation: D(relation) is not in the ideal"
        )
    return Derivation(presentation, elements)


def apply(derivation: Derivation, element: RingElement) -> RingElement:
    """Apply the derivation to a residue class (via its canonical lift)."""
    if element.presentation != derivation.presentation:
        raise PresentationMismatchError("element lives in a different quotient ring")
    images = [img.rep for img in derivation.images]
    return derivation.presentation.normal_form(_lift_apply(images, element.rep))


def _lift_apply(images: Sequence[Polynomial], p: Polynomial) -> Polynomial:
    """sum_i images[i] * dp/dx_i, not reduced by the relation."""
    out = Polynomial.zero(p.variables)
    for name, img in zip(p.variables, images):
        if img:
            partial = p.diff(name)
            if partial:
                out = out + img * partial
    return out


@dataclass(frozen=True)
class NilpotencyReport:
    """Outcome of a nilpotency probe.

    status is "certified" or "inconclusive"; a certificate is either
    "iteration" (steps_per_generator[i] applications send generator i to 0)
    or "negative_grading" (every image strictly drops a positive grading).
    Inconclusive means the probe budget ran out - it is never a disproof.
    """

    status: str
    certificate: str | None
    steps_per_generator: tuple[int, ...] | None
    bound_used: int
    detail: str = ""
    weights: tuple[int, ...] | None = None
    degree_drop: int | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# A probe iterate: exponent tuples to nonzero (re, im) int pairs.  The
# helpers below build no Polynomial and no GaussianRational.
_Pairs = dict[tuple[int, ...], GaussianInt]


def _integral_terms(p: Polynomial) -> _Pairs:
    """The terms of p times the lcm of its coefficient denominators."""
    return dict(zip(p.terms, _integral(list(p.terms.values()))))


def _integral_images(images: Sequence[Polynomial]) -> list[tuple[int, list]]:
    """The nonzero images D(x_k) times one common denominator, as pairs
    (k, terms) with each term (exponents minus the unit vector of k, (re, im))."""
    found = [(k, img.terms) for k, img in enumerate(images) if img]
    pairs = iter(_integral([c for _, terms in found for c in terms.values()]))
    images = []
    for k, terms in found:
        shifted = []
        for exps in terms:
            lowered = list(exps)
            lowered[k] -= 1
            shifted.append((tuple(lowered), next(pairs)))
        images.append((k, shifted))
    return images


def _kernel_coordinate(g: Polynomial) -> tuple[int, Polynomial]:
    """(v, phi(x_v)) for the first variable x_v, v its index, in which g has
    a nonzero constant partial c, so g = c*x_v + h with h free of x_v, and
    phi: x_v -> (y_v - h)/c; y_v keeps the name of x_v, and phi(g) = y_v."""
    slopes = [g.diff(name) for name in g.variables]
    k = next((k for k, slope in enumerate(slopes) if slope and slope.is_constant), None)
    if k is None:
        raise InternalInvariantError(
            f"kernel element {g!r} has no coordinate with a nonzero constant coefficient"
        )
    inverse = slopes[k].constant_value().inverse()
    # phi(x_v) has the terms of g: 1/c at x_v and -h_e/c elsewhere.
    return k, Polynomial._raw(
        g.variables, {e: inverse if e[k] else -coeff * inverse for e, coeff in g.terms.items()}
    )


def _integral_relation(relation: Polynomial) -> tuple[tuple[int, ...], int, list]:
    """The relation with cleared denominators, times the conjugate of its
    leading coefficient lc: (lead exponents, the leading coefficient
    |lc|^2 > 0, the other terms as (exponents minus the lead exponents,
    (re, im)))."""
    lead, _ = relation.leading_term()
    terms = _integral_terms(relation)
    a, b = terms.pop(lead)
    tail = [
        (tuple(map(sub, exps, lead)), (a * re + b * im, a * im - b * re))
        for exps, (re, im) in terms.items()
    ]
    return lead, a * a + b * b, tail


def _apply_pairs(current: _Pairs, images: list) -> _Pairs:
    """D applied to an iterate: sum over terms c*x^e and images D(x_k) of
    e_k*c*x^(e - e_k)*D(x_k), accumulated in one dict."""
    out: _Pairs = {}
    get = out.get
    for exps, (c_re, c_im) in current.items():
        for k, shifted in images:
            e = exps[k]
            if not e:
                continue
            m_re, m_im = e * c_re, e * c_im
            for step, (d_re, d_im) in shifted:
                target = tuple(map(add, exps, step))
                old = get(target)
                if old is None:
                    out[target] = (m_re * d_re - m_im * d_im, m_re * d_im + m_im * d_re)
                else:
                    out[target] = (
                        old[0] + m_re * d_re - m_im * d_im,
                        old[1] + m_re * d_im + m_im * d_re,
                    )
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _grlex_heap_key(exps: tuple[int, ...]) -> tuple:
    """heapq pops the graded-lex largest monomial first under this key."""
    return (-sum(exps), tuple(-e for e in exps), exps)


def _pseudo_normal_form(work: _Pairs, lead: tuple[int, ...], norm: int, tail: list) -> _Pairs:
    """A nonzero rational multiple of the remainder of work modulo the
    relation, with integer content 1; work is consumed.

    f = norm*x^lead + tail is the relation from _integral_relation.  Its
    multiples of x^lead are cancelled from the graded-lex largest down, so
    each term is reduced once: the term c*x^t turns W into
    s*W - q*x^(t - lead)*f with g = gcd(norm, c), s = norm/g and q = c/g.
    Every scaling is by a rational integer and the content is removed at
    the end, so coefficients stay the size of the primitive normal form.
    """
    heap = [_grlex_heap_key(e) for e in work if all(map(le, lead, e))]
    heapify(heap)
    while heap:
        t = heappop(heap)[2]
        c = work.pop(t, None)
        if c is None:
            continue
        g = gcd(norm, c[0], c[1])
        s, q_re, q_im = norm // g, c[0] // g, c[1] // g
        if s != 1:
            work = {e: (s * x, s * y) for e, (x, y) in work.items()}
        for step, (d_re, d_im) in tail:
            target = tuple(map(add, t, step))
            old = work.get(target)
            p_re, p_im = q_re * d_re - q_im * d_im, q_re * d_im + q_im * d_re
            if old is None:
                work[target] = (-p_re, -p_im)
                if all(map(le, lead, target)):
                    heappush(heap, _grlex_heap_key(target))
            else:
                new = (old[0] - p_re, old[1] - p_im)
                if new[0] or new[1]:
                    work[target] = new
                else:
                    del work[target]
    content = gcd(*[x for c in work.values() for x in c])
    if content > 1:
        work = {e: (x // content, y // content) for e, (x, y) in work.items()}
    return work


def probe_nilpotency(
    derivation: Derivation,
    bound: int = DEFAULT_PROBE_BOUND,
    kernel: Optional[Polynomial] = None,
) -> NilpotencyReport:
    """Iterate the derivation on each generator until zero or budget runs out.

    steps_per_generator[i] is the least n with D^n(x_i) = 0 in the quotient.
    An iterate with more than DEFAULT_TERM_CEILING terms also ends the probe
    as inconclusive.

    Each iterate is a nonzero scalar multiple of the normal form of
    D^n(x_i) over Z[i]: denominators are cleared once, one fused pass
    applies D and a pseudo-division by the relation reduces the result.
    Normal form modulo one relation is linear, so the multiple is zero
    exactly when the normal form is and has as many terms; the steps and
    the term ceiling come out as over Q(i).

    A kernel element ``kernel = g`` with D(g) = 0 makes the probe run in
    the coordinates where g replaces x_v, the first variable in which g has
    a nonzero constant partial c, so that g = c*x_v + h with h free of x_v.
    The relation and the images (with D(y_v) = 0) are carried through
    phi: x_v -> (y_v - h)/c by one substitution each, and x_v starts at
    phi(x_v); every other start is its own coordinate.  phi induces an
    isomorphism of the quotient rings, so the steps are the same; the term
    ceiling counts terms in the new coordinates, where a Jacobian witness
    J(f, g, ...) is triangular.  A kernel element over another ring, with
    D(g) not in (f), or with no such coordinate is an internal fault.
    """
    if bound < 1:
        raise ValueError("probe bound must be positive")
    relation = derivation.presentation.relation
    images = [img.rep for img in derivation.images]
    variables = relation.variables
    starts = [Polynomial.variable(variables, name) for name in variables]
    if kernel is not None:
        if kernel.variables != variables or not relation.divides(_lift_apply(images, kernel)):
            raise InternalInvariantError(f"{kernel!r} is not in the kernel of the derivation")
        k, image = _kernel_coordinate(kernel)
        phi = {variables[k]: image}
        relation = relation.substitute(phi)
        images = [Polynomial.zero(variables) if i == k else img.substitute(phi) for i, img in enumerate(images)]
        starts[k] = image
    pairs = _integral_images(images)
    lead, norm, tail = _integral_relation(relation)
    steps = []
    for name, start in zip(variables, starts):
        current = _pseudo_normal_form(_integral_terms(start), lead, norm, tail)
        n = 0
        while current:
            if n >= bound:
                detail = f"generator {name} not annihilated within {bound} steps"
            elif len(current) > DEFAULT_TERM_CEILING:
                detail = f"iterate exceeded {DEFAULT_TERM_CEILING} terms"
            else:
                current = _pseudo_normal_form(_apply_pairs(current, pairs), lead, norm, tail)
                n += 1
                continue
            return NilpotencyReport("inconclusive", None, None, bound, detail)
        steps.append(n)
    return NilpotencyReport(
        status="certified",
        certificate="iteration",
        steps_per_generator=tuple(steps),
        bound_used=bound,
    )


def certify_by_negative_grading(
    derivation: Derivation, weights: Sequence[int]
) -> NilpotencyReport:
    """Certify nilpotency when every image strictly lowers a positive grading.

    Requires strictly positive weights and a weight-homogeneous relation.
    The certificate value is e = max_i (wdeg(D(x_i)) - w_i) over nonzero
    images; e < 0 certifies local nilpotency because the weighted degree of
    any nonzero element is a nonnegative integer and each application of the
    derivation lowers it by at least |e|.
    """
    weights = tuple(weights)
    relation = derivation.presentation.relation
    homogeneous = relation.top_part(weights) == relation
    if any(w <= 0 for w in weights):
        raise ValueError("negative-grading certification needs strictly positive weights")
    if not homogeneous:
        raise ValueError("the relation is not homogeneous for these weights")
    jumps = [
        img.rep.weighted_degree(weights) - w
        for w, img in zip(weights, derivation.images)
        if not img.is_zero
    ]
    e = max(jumps, default=None)
    if e is None:
        status, steps, detail = "certified", tuple(0 for _ in weights), "zero derivation"
    elif e < 0:
        status, steps, detail = "certified", None, f"every image drops the grading by at least {-e}"
    else:
        status, steps, detail = "inconclusive", None, f"maximal degree jump is {e}, not negative"
    return NilpotencyReport(
        status=status,
        certificate="negative_grading" if status == "certified" else None,
        steps_per_generator=steps,
        bound_used=0,
        detail=detail,
        weights=weights,
        degree_drop=e,
    )
