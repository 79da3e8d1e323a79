"""Derivations on hypersurface quotient rings, and nilpotency certificates.

A derivation is determined by the images of the ring generators.  The images
define a well-posed derivation on C[X1..Xn]/(f) exactly when

    sum_i images[i] * d f / d X_i  lies in (f),

which is checked at construction time.  Nilpotency of a derivation (the
"locally nilpotent" property on generators) is only ever *certified*, either
by bounded iteration or by a strictly negative grading jump; a failed probe
is reported as inconclusive, never as a disproof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .gauss import GaussianRational, ScalarLike
from .poly import Polynomial, UnknownVariableError
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


def _coerce_image(presentation: RingPresentation, value) -> RingElement:
    if isinstance(value, RingElement):
        if value.presentation != presentation:
            raise PresentationMismatchError("image lives in a different quotient ring")
        return value
    if isinstance(value, (Polynomial, int, Fraction, GaussianRational)):
        return presentation.normal_form(value)
    raise TypeError(f"cannot interpret {value!r} as a ring element")


def make_derivation(
    presentation: RingPresentation,
    images: Sequence[Union[RingElement, Polynomial, ScalarLike]],
) -> Derivation:
    """Build a derivation from generator images, checking well-definedness."""
    if len(images) != len(presentation.variables):
        raise ValueError(
            f"expected {len(presentation.variables)} images, got {len(images)}"
        )
    elements = tuple(_coerce_image(presentation, img) for img in images)
    relation = presentation.relation
    defect = Polynomial.zero(presentation.variables)
    for name, img in zip(presentation.variables, elements):
        defect = defect + img.rep * relation.diff(name)
    if not relation.divides(defect):
        raise IllDefinedDerivationError(
            "images do not define a derivation: D(relation) is not in the ideal"
        )
    return Derivation(presentation, elements)


def apply(derivation: Derivation, element: RingElement) -> RingElement:
    """Apply the derivation to a residue class (via its canonical lift)."""
    if element.presentation != derivation.presentation:
        raise PresentationMismatchError("element lives in a different quotient ring")
    lift = element.rep
    out = Polynomial.zero(lift.variables)
    for name, img in zip(derivation.presentation.variables, derivation.images):
        if img.is_zero:
            continue
        partial = lift.diff(name)
        if partial.is_zero:
            continue
        out = out + img.rep * partial
    return derivation.presentation.normal_form(out)


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


def probe_nilpotency(
    derivation: Derivation, bound: int = DEFAULT_PROBE_BOUND
) -> NilpotencyReport:
    """Iterate the derivation on each generator until zero or budget runs out.

    steps_per_generator[i] is the least n with D^n(x_i) = 0 in the quotient.
    An iterate with more than DEFAULT_TERM_CEILING terms also ends the probe
    as inconclusive.
    """
    if bound < 1:
        raise ValueError("probe bound must be positive")
    steps = []
    for gen in derivation.presentation.generators():
        current = gen
        n = 0
        while not current.is_zero:
            if n >= bound:
                return NilpotencyReport(
                    status="inconclusive",
                    certificate=None,
                    steps_per_generator=None,
                    bound_used=bound,
                    detail=f"generator {gen.rep!r} not annihilated within {bound} steps",
                )
            if len(current.rep.terms) > DEFAULT_TERM_CEILING:
                return NilpotencyReport(
                    status="inconclusive",
                    certificate=None,
                    steps_per_generator=None,
                    bound_used=bound,
                    detail=f"iterate exceeded {DEFAULT_TERM_CEILING} terms",
                )
            current = apply(derivation, current)
            n += 1
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
    variables = derivation.presentation.variables
    if len(weights) != len(variables):
        raise ValueError("weight vector length does not match the variable count")
    if any(w <= 0 for w in weights):
        raise ValueError("negative-grading certification needs strictly positive weights")
    relation = derivation.presentation.relation
    degrees = {
        sum(w * e for w, e in zip(weights, exps)) for exps in relation.terms
    }
    if len(degrees) > 1:
        raise ValueError("the relation is not homogeneous for these weights")
    jumps = []
    for w, img in zip(weights, derivation.images):
        if img.is_zero:
            continue
        jumps.append(img.rep.weighted_degree(weights) - w)
    if not jumps:
        return NilpotencyReport(
            status="certified",
            certificate="negative_grading",
            steps_per_generator=tuple(0 for _ in variables),
            bound_used=0,
            detail="zero derivation",
            weights=weights,
            degree_drop=None,
        )
    e = max(jumps)
    if e < 0:
        return NilpotencyReport(
            status="certified",
            certificate="negative_grading",
            steps_per_generator=None,
            bound_used=0,
            detail=f"every image drops the grading by at least {-e}",
            weights=weights,
            degree_drop=e,
        )
    return NilpotencyReport(
        status="inconclusive",
        certificate=None,
        steps_per_generator=None,
        bound_used=0,
        detail=f"maximal degree jump is {e}, not negative",
        weights=weights,
        degree_drop=e,
    )
