import random

import pytest

from rigidity import (
    Polynomial,
    PresentationMismatchError,
    RingElement,
    RingPresentation,
    gens,
    member,
)

from helpers import random_poly

XYZ = ("X", "Y", "Z")
X, Y, Z = gens(*XYZ)


@pytest.fixture
def cone():
    """C[X,Y,Z]/(XY - Z^2)."""
    return RingPresentation(XYZ, X * Y - Z**2)


def test_presentation_validation():
    with pytest.raises(ValueError):
        RingPresentation(("X", "Y"), X * Y - Z**2)  # variable mismatch
    with pytest.raises(ValueError):
        RingPresentation(XYZ, Polynomial.zero(XYZ))
    with pytest.raises(ValueError):
        RingPresentation(XYZ, Polynomial.constant(XYZ, 2))


def test_normal_form_reduces_leading_monomial(cone):
    x, y, z = cone.generators()
    assert (x * y).rep == (Z**2)
    # an element already reduced stays put
    assert cone.normal_form(Z**2 + X).rep == Z**2 + X


def test_elements_must_be_reduced(cone):
    with pytest.raises(ValueError):
        RingElement(cone, X * Y)


def test_equality_of_classes(cone):
    u = cone.normal_form(X * Y)
    v = cone.normal_form(Z**2)
    assert u == v
    assert u.rep == v.rep


def test_arithmetic_commutes_with_reduction(cone):
    rng = random.Random(1234)
    for _ in range(200):
        f = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        g = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        a, b = cone.normal_form(f), cone.normal_form(g)
        assert cone.normal_form(a.rep + b.rep) == cone.normal_form(f + g)
        assert a * b == cone.normal_form(f * g)
        assert cone.normal_form(a.rep - b.rep) == cone.normal_form(f - g)


def test_scalar_and_polynomial_coercion(cone):
    x = cone.generator("X")
    assert cone.normal_form(1).rep == Polynomial.constant(XYZ, 1)
    assert (2 * x).rep == 2 * X
    assert (x * (X * Y)).rep == cone.normal_form(X**2 * Y).rep


def test_normal_form_of_a_class(cone):
    x = cone.generator("X")
    assert cone.normal_form(x) is x
    other = RingPresentation(XYZ, X**2 + Y**2 + Z**2)
    with pytest.raises(PresentationMismatchError):
        other.normal_form(x)
    with pytest.raises(TypeError):
        cone.normal_form("X")


def test_mismatched_presentations_rejected(cone):
    other = RingPresentation(XYZ, X**2 + Y**2 + Z**2)
    with pytest.raises(PresentationMismatchError):
        cone.generator("X") * other.generator("X")


def test_membership_is_divisibility(cone):
    rel = X * Y - Z**2
    assert member(rel, cone)
    assert member(rel * (X + Z), cone)
    assert not member(X * Y, cone)
    assert member(cone.normal_form(0), cone)
    rng = random.Random(9)
    for _ in range(100):
        f = random_poly(rng, XYZ, max_terms=3, max_exp=3)
        assert member(rel * f, cone)
        # adding a nonzero reduced remainder leaves the ideal
        r = cone.normal_form(f).rep
        if not r.is_zero:
            assert not member(rel * f + r, cone)


def test_member_checks_variables(cone):
    S, = gens("S")
    with pytest.raises(PresentationMismatchError):
        member(S, cone)
