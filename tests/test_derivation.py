import random

import pytest

from rigidity import (
    Derivation,
    IllDefinedDerivationError,
    Polynomial,
    RingPresentation,
    UnknownVariableError,
    apply,
    certify_by_negative_grading,
    gens,
    make_derivation,
    probe_nilpotency,
)
import rigidity.derivation as derivation_module
from rigidity.gauss import gq

from helpers import random_poly

XYZ = ("X", "Y", "Z")
X, Y, Z = gens(*XYZ)
XYZT = ("X", "Y", "Z", "T")
X4, Y4, Z4, T4 = gens(*XYZT)


@pytest.fixture
def cone():
    return RingPresentation(XYZ, X * Y - Z**2)


@pytest.fixture
def danielewski(cone):
    """D with D(x)=0, D(y)=2z, D(z)=x on C[X,Y,Z]/(XY - Z^2)."""
    return make_derivation(cone, [Polynomial.zero(XYZ), 2 * Z, X])


def test_well_definedness_is_checked(cone):
    with pytest.raises(IllDefinedDerivationError):
        make_derivation(cone, [Polynomial.constant(XYZ, 1), Polynomial.zero(XYZ), Polynomial.zero(XYZ)])


def test_zero_derivation(cone):
    d = make_derivation(cone, [0, 0, 0])
    assert d.is_zero
    report = probe_nilpotency(d)
    assert report.status == "certified"
    # least n with D^n(x) = 0 is 1 for a zero image (D^0(x) = x != 0)
    assert report.steps_per_generator == (1, 1, 1)


def test_danielewski_probe_steps(danielewski):
    report = probe_nilpotency(danielewski)
    assert report.status == "certified"
    assert report.certificate == "iteration"
    assert report.steps_per_generator == (1, 3, 2)


def test_danielewski_needs_quotient_reduction(danielewski, cone):
    # D^2(y) = 2x only after XY -> Z^2 is applied to D(2z) = 2x... the point:
    # iterating through z^2 requires reduction, so exercise apply() directly.
    y = cone.generator("Y")
    dy = apply(danielewski, y)
    ddy = apply(danielewski, dy)
    assert ddy.rep == 2 * X
    assert apply(danielewski, ddy).is_zero


def test_leibniz_property_bulk(danielewski, cone):
    rng = random.Random(60)
    for _ in range(150):
        u = cone.normal_form(random_poly(rng, XYZ, max_terms=3, max_exp=3))
        v = cone.normal_form(random_poly(rng, XYZ, max_terms=3, max_exp=3))
        left = apply(danielewski, u * v)
        right = apply(danielewski, u) * v + u * apply(danielewski, v)
        assert left.rep == right.rep


def test_additivity_bulk(danielewski, cone):
    rng = random.Random(61)
    for _ in range(150):
        u = cone.normal_form(random_poly(rng, XYZ, max_terms=4, max_exp=3))
        v = cone.normal_form(random_poly(rng, XYZ, max_terms=4, max_exp=3))
        assert apply(danielewski, u + v).rep == (apply(danielewski, u) + apply(danielewski, v)).rep


def test_kernel_elements_area_annihilated(danielewski, cone):
    # x and the relation's partner z^2 - ... : x generates ker on this ring
    x = cone.generator("X")
    assert apply(danielewski, x).is_zero
    assert apply(danielewski, x**3 + 2 * x).is_zero


def test_euler_derivation_is_not_nilpotent():
    sphere = RingPresentation(XYZ, X**2 + Y**2 + Z**2)
    euler = make_derivation(sphere, [X, Y, Z])
    report = probe_nilpotency(euler, bound=16)
    assert report.status == "inconclusive"
    assert report.steps_per_generator is None
    assert "16" in report.detail


def test_probe_stops_when_an_iterate_exceeds_the_term_ceiling(monkeypatch):
    # D(X) = 1 + X^2 on C[X] = C[X,Y]/(Y): the iterates of X have 1, 2, 2, 3
    # terms, so a ceiling of 2 ends the probe at the fourth iterate, long
    # before the step bound.
    monkeypatch.setattr(derivation_module, "DEFAULT_TERM_CEILING", 2)
    Xv, Yv = gens("X", "Y")
    line = RingPresentation(("X", "Y"), Yv)
    d = make_derivation(line, [1 + Xv**2, 0])
    report = probe_nilpotency(d)
    assert report.status == "inconclusive"
    assert report.steps_per_generator is None
    assert report.detail == "iterate exceeded 2 terms"


def test_probe_bound_validation(danielewski):
    with pytest.raises(ValueError):
        probe_nilpotency(danielewski, bound=0)


def test_negative_grading_certificate(danielewski):
    # weights (1,3,2): XY and Z^2 both weigh 4; images drop the grading by 1
    report = certify_by_negative_grading(danielewski, (1, 3, 2))
    assert report.status == "certified"
    assert report.certificate == "negative_grading"
    assert report.degree_drop == -1
    assert report.weights == (1, 3, 2)


def test_negative_grading_rejects_inhomogeneous(danielewski):
    # XY weighs 3 but Z^2 weighs 4 under (1,2,2)
    with pytest.raises(ValueError):
        certify_by_negative_grading(danielewski, (1, 2, 2))
    with pytest.raises(ValueError):
        certify_by_negative_grading(danielewski, (1, 3))
    with pytest.raises(ValueError):
        certify_by_negative_grading(danielewski, (1, 3, 0))


def test_negative_grading_inconclusive_on_euler():
    sphere = RingPresentation(XYZ, X**2 + Y**2 + Z**2)
    euler = make_derivation(sphere, [X, Y, Z])
    report = certify_by_negative_grading(euler, (1, 1, 1))
    assert report.status == "inconclusive"
    assert report.degree_drop == 0


def test_freudenburg_witness_certifies():
    """The two-squares twist on X^2*Y^2 + Z^2 + T^3."""
    pres = RingPresentation(XYZT, X4**2 * Y4**2 + Z4**2 + T4**3)
    images = [
        Polynomial.zero(XYZT),
        3 * T4**2,
        gq(0, -3) * X4 * T4**2,
        -2 * X4**2 * Y4 + gq(0, 2) * X4 * Z4,
    ]
    d = make_derivation(pres, images)
    assert not d.is_zero
    report = probe_nilpotency(d)
    assert report.status == "certified"
    assert report.steps_per_generator == (1, 4, 4, 2)
    # kernel: x and the twisted combination x*y - i*z
    w = pres.normal_form(X4 * Y4 - gq(0, 1) * Z4)
    assert apply(d, w).is_zero
    assert apply(d, pres.generator("X")).is_zero


def test_derivation_image_lookup(danielewski):
    assert danielewski.image_of("Z").rep == X
    with pytest.raises(UnknownVariableError):
        danielewski.image_of("W")
