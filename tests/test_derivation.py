import random
from fractions import Fraction
from math import gcd

import pytest

from rigidity import (
    Derivation,
    IllDefinedDerivationError,
    NilpotencyReport,
    Polynomial,
    PresentationMismatchError,
    RingPresentation,
    UnknownVariableError,
    apply,
    certify_by_negative_grading,
    classify,
    fermat_3,
    gens,
    make_derivation,
    mixed_four,
    probe_nilpotency,
    three_term_xy,
)
import rigidity.derivation as derivation_module
from rigidity.gauss import GaussianRational, gq

from helpers import nonzero_random_poly, random_poly

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


def test_images_from_another_ring_are_rejected(cone):
    sphere = RingPresentation(XYZ, X**2 + Y**2 + Z**2)
    with pytest.raises(PresentationMismatchError):
        make_derivation(cone, [Polynomial.zero(XYZ), 2 * Z, sphere.generator("X")])
    same = make_derivation(cone, [0, cone.normal_form(2 * Z), cone.generator("X")])
    assert same.images[2] == cone.generator("X")


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
        right = apply(danielewski, u).rep * v.rep + u.rep * apply(danielewski, v).rep
        assert left == cone.normal_form(right)


def test_additivity_bulk(danielewski, cone):
    rng = random.Random(61)
    for _ in range(150):
        u = cone.normal_form(random_poly(rng, XYZ, max_terms=4, max_exp=3))
        v = cone.normal_form(random_poly(rng, XYZ, max_terms=4, max_exp=3))
        # a sum of normal forms is a normal form
        left = apply(danielewski, cone.normal_form(u.rep + v.rep))
        assert left.rep == apply(danielewski, u).rep + apply(danielewski, v).rep


def test_kernel_elements_area_annihilated(danielewski, cone):
    # x and the relation's partner z^2 - ... : x generates ker on this ring
    x = cone.generator("X")
    assert apply(danielewski, x).is_zero
    assert apply(danielewski, cone.normal_form(X**3 + 2 * X)).is_zero


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


# ---------------------------------------------------------------------------
# the probe against the plain Q(i) iteration
# ---------------------------------------------------------------------------


def reference_probe(derivation: Derivation, bound: int) -> NilpotencyReport:
    """The probe as a plain loop of the public apply over Q(i)."""
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
            if len(current.rep.terms) > derivation_module.DEFAULT_TERM_CEILING:
                return NilpotencyReport(
                    status="inconclusive",
                    certificate=None,
                    steps_per_generator=None,
                    bound_used=bound,
                    detail=f"iterate exceeded {derivation_module.DEFAULT_TERM_CEILING} terms",
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


def scaled(derivation: Derivation, factor) -> Derivation:
    images = [img.rep * factor for img in derivation.images]
    return make_derivation(derivation.presentation, images)


def catalog_witnesses(q=None, r=None):
    """Every witness over the criterion 01-03 exponent tables, with the
    tables' coefficients or with q and r on the terms (q on both squares
    where a witness needs a square root of their ratio).  The all-zero
    three-term row is left out: it has no witness, and with q + r != 0 its
    relation is a nonzero constant, which has no descriptor."""

    def kw(*coefficients):
        return {} if q is None else {"coefficients": coefficients}

    descriptors = [
        three_term_xy(a, b, c, **kw(q, r))
        for a in range(9) for b in range(9) for c in range(9) if (a, b, c) != (0, 0, 0)
    ]
    descriptors += [
        fermat_3(a, b, c, **kw(q, q, r))
        for a in range(1, 9) for b in range(a, 9) for c in range(b, 9)
    ]
    descriptors += [
        mixed_four(a, b, c, d, **kw(q, q, q))
        for a in range(1, 9) for b in range(1, 9) for c in range(1, 9) for d in range(1, 9)
    ]
    for desc in descriptors:
        verdict = classify(desc)
        if verdict.witness is not None:
            yield verdict.witness, verdict.witness_report.bound_used


def test_probe_matches_the_q_i_iteration_on_every_catalog_witness():
    count = 0
    for witness, bound in catalog_witnesses():
        for d in (witness, scaled(witness, gq(Fraction(2, 3))), scaled(witness, gq(1, 1))):
            assert probe_nilpotency(d, bound) == reference_probe(d, bound), d
        count += 1
    # 385 three-term, 43 three-power and 1,828 mixed four-variable entries
    assert count == 385 + 43 + 1828


def test_probe_matches_the_q_i_iteration_under_non_unit_leading_coefficients():
    # The mixed four-variable witnesses reduce by a relation whose leading
    # coefficient 2 - i is not a unit, so pseudo-division has to scale.
    count = 0
    for witness, bound in catalog_witnesses(gq(2, -1), gq(Fraction(-3, 2), 5)):
        assert probe_nilpotency(witness, bound) == reference_probe(witness, bound), witness
        count += 1
    assert count == 385 + 43 + 1828


# D(Y) = X^2 and D(Z) = 1 on C[X,Y,Z]/((2+i)X - Y - Z): not nilpotent, and
# every iterate needs several pseudo-division steps.
GROWING = ((gq(2, 1) * X - Y - Z), [(X**2 + 1) * gq(Fraction(2, 5), Fraction(-1, 5)), X**2, 1])


def test_probe_matches_the_q_i_iteration_at_the_term_ceiling(monkeypatch):
    d = make_derivation(RingPresentation(XYZ, GROWING[0]), GROWING[1])
    monkeypatch.setattr(derivation_module, "DEFAULT_TERM_CEILING", 5)
    report = probe_nilpotency(d, 64)
    assert report == reference_probe(d, 64)
    assert report.detail == "iterate exceeded 5 terms"


@pytest.mark.parametrize(
    "relation,images,bound",
    [
        # the Euler derivation never reaches 0
        (X**2 + Y**2 + Z**2, [X, Y, Z], 16),
        # generator X reduces to Y + Z, not to itself
        (X - Y - Z, [gq(Fraction(2, 3)) * Z + gq(1, 1), gq(Fraction(2, 3)) * Z, gq(1, 1)], 64),
        (X - Y - Z, [Y + Z, Y, Z], 8),
        (*GROWING, 6),
        # a non-unit leading coefficient, so pseudo-division has to scale
        (
            gq(3, 2) * X**2 * Y - gq(Fraction(1, 5)) * Z**3,
            [0, 3 * gq(Fraction(1, 5)) * Z**2, gq(3, 2) * X**2],
            64,
        ),
        (gq(3, 2) * X * Y - Z**2 + gq(0, 7), [0, 2 * Z, gq(3, 2) * X], 64),
    ],
)
def test_probe_matches_the_q_i_iteration(relation, images, bound):
    d = make_derivation(RingPresentation(XYZ, relation), images)
    assert probe_nilpotency(d, bound) == reference_probe(d, bound)


def test_probe_on_a_generator_that_reduces_to_zero():
    # On the line C[X,Y]/(Y) the generator Y reduces to 0, which takes no step.
    Xv, Yv = gens("X", "Y")
    line = RingPresentation(("X", "Y"), Yv)
    for image, bound in ((gq(Fraction(2, 3)), 12), (1 + Xv**2, 12), (Xv, 12)):
        d = make_derivation(line, [image, 0])
        assert probe_nilpotency(d, bound) == reference_probe(d, bound)
    assert probe_nilpotency(make_derivation(line, [1, 0])).steps_per_generator == (2, 0)


def test_each_z_i_iterate_is_a_primitive_multiple_of_the_q_i_iterate():
    """Jacobian derivations f_j*d/dk - f_k*d/dj of random relations: every
    iterate of the kernel has the terms of the exact one, one common ratio
    and integer content 1."""
    rng = random.Random(62)
    checked = 0
    for _ in range(40):
        f = nonzero_random_poly(rng, XYZ, max_terms=4, max_exp=3)
        if f.is_constant:
            continue
        j, k = rng.sample(XYZ, 2)
        images = {j: -f.diff(k), k: f.diff(j)}
        d = make_derivation(RingPresentation(XYZ, f), [images.get(v, 0) for v in XYZ])
        pairs = derivation_module._integral_images(d)
        lead, norm, tail = derivation_module._integral_relation(f)
        for gen in d.presentation.generators():
            exact, current = gen, derivation_module._integral_terms(gen.rep)
            for _ in range(4):
                assert current.keys() == exact.rep.terms.keys()
                ratios = {GaussianRational(*current[e]) / c for e, c in exact.rep.terms.items()}
                assert len(ratios) <= 1
                if not current:
                    break
                exact = apply(d, exact)
                current = derivation_module._pseudo_normal_form(
                    derivation_module._apply_pairs(current, pairs), lead, norm, tail
                )
                assert gcd(*[x for c in current.values() for x in c]) in (0, 1)
                checked += 1
    assert checked > 100
