import random

import pytest
import sympy

from rigidity import (
    DegenerateGradingError,
    InexactDegreeError,
    Polynomial,
    RingPresentation,
    certify_by_negative_grading,
    coset_degree,
    derivation_degree_jump,
    gens,
    gr_presentation,
    make_derivation,
    pattern_irreducible,
    probe_nilpotency,
)
from rigidity.gauss import gq
from rigidity.poly import MINUS_INF

from helpers import random_poly, random_scalar, to_sympy

XY = ("X", "Y")
Xp, Yp = gens(*XY)
XYZ = ("X", "Y", "Z")
X, Y, Z = gens(*XYZ)
XYZT = ("X", "Y", "Z", "T")
X4, Y4, Z4, T4 = gens(*XYZT)


# ---------------------------------------------------------------------------
# graded presentations
# ---------------------------------------------------------------------------


def test_parabola_grades_to_nilpotent_square():
    """C[X,Y]/(X^2 - Y) with weights (1,0): the graded relation is X^2."""
    base = RingPresentation(XY, Xp**2 - Yp)
    graded = gr_presentation(base, (1, 0))
    assert graded.gr_relation == Xp**2
    x = graded.quotient.generator("X")
    assert (x * x).is_zero  # the graded ring has honest nilpotents
    assert not graded.quotient.generator("Y").is_zero


def test_homogeneous_relation_is_its_own_top():
    base = RingPresentation(XYZ, X * Y - Z**2)
    graded = gr_presentation(base, (2, 2, 2))
    assert graded.gr_relation == X * Y - Z**2
    assert graded.quotient == base


def test_binomial_tail_drops():
    """top part of Y + X^n under x-degree is X^n = (top part of X)^n."""
    for n in range(2, 7):
        base = RingPresentation(XY, Yp + Xp**n)
        graded = gr_presentation(base, (1, 0))
        assert graded.gr_relation == Xp**n
        assert graded.gr_relation == Xp.top_part((1, 0)) ** n


def test_degenerate_grading_rejected():
    base = RingPresentation(XY, Xp * Yp + 1)
    with pytest.raises(DegenerateGradingError):
        gr_presentation(base, (-1, 0))


def test_gr_presentation_rejects_non_integer_weights():
    base = RingPresentation(XYZ, X**2 + Y**3 + Z**5)
    with pytest.raises(ValueError, match="integers"):
        gr_presentation(base, (1.7, 1, 1))
    with pytest.raises(ValueError, match="integers"):
        gr_presentation(base, (15, 10, 6.0))


WEIGHT_RELATION = RingPresentation(XYZ, X**2 * Y + Z**2)
# Each takes a weight vector for X, Y, Z and leaves its validation to Polynomial.
WEIGHT_USERS = {
    "top_part": WEIGHT_RELATION.relation.top_part,
    "weighted_degree": WEIGHT_RELATION.relation.weighted_degree,
    "gr_presentation": lambda w: gr_presentation(WEIGHT_RELATION, w),
    "coset_degree": lambda w: coset_degree(WEIGHT_RELATION.normal_form(X + Z), w),
    "certify_by_negative_grading": lambda w: certify_by_negative_grading(
        make_derivation(WEIGHT_RELATION, [0, 2 * Z, -(X**2)]), w
    ),
}


@pytest.mark.parametrize("user", WEIGHT_USERS)
@pytest.mark.parametrize(
    "weights, message",
    [
        ((1, 4), "weight vector length does not match the variable count"),
        ((1, 4.0, 3), "weights must be integers"),
        ((1, 4, -3.0), "weights must be integers"),
    ],
    ids=["short", "float", "negative-float"],
)
def test_one_weight_check_for_every_user(user, weights, message):
    with pytest.raises(ValueError) as info:
        WEIGHT_USERS[user](weights)
    assert str(info.value) == message


def test_negative_weights_allowed_when_top_is_honest():
    base = RingPresentation(XY, Xp * Yp + Xp)
    graded = gr_presentation(base, (-1, 2))
    assert graded.gr_relation == Xp * Yp
    assert graded.weights == (-1, 2)


# ---------------------------------------------------------------------------
# irreducibility patterns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "poly,expected",
    [
        (X + Y - 1, True),  # affine-linear
        (X**2 * Y - Z**3, True),  # binomial, disjoint supports, gcd 1
        (X**2 - Y**2, False),  # gcd of exponents is 2
        (X**2 + Y**3 + Z**5, True),  # three pure powers
        (X * Y + Y * Z, False),  # supports overlap
        (X**2, False),  # single term
        (X**4 - Y**2, False),
        (X**2 * Y**2 - Z**3, True),
    ],
)
def test_pattern_irreducible(poly, expected):
    assert pattern_irreducible(poly) is expected


def test_pattern_irreducible_trivia():
    assert not pattern_irreducible(Polynomial.zero(XYZ))
    assert not pattern_irreducible(Polynomial.constant(XYZ, 5))


def test_four_term_diagonal_is_recognized():
    assert pattern_irreducible(X4**2 + Y4**3 + Z4**5 + T4**7)


def disjoint_support_poly(rng: random.Random, terms: int) -> Polynomial:
    """terms monomials over X, Y, Z, T with pairwise disjoint supports and
    nonzero Gaussian coefficients; with two terms the second may be 1.
    Most coefficients are units, so that a binomial whose exponents
    share a factor often splits, as in M^2 + 1 = (M + i)*(M - i)."""
    used = rng.sample(range(4), rng.randint(1 if terms == 2 else terms, 4))
    cuts = sorted(rng.sample(range(1, len(used) + (terms == 2)), terms - 1))
    out = Polynomial.zero(XYZT)
    for start, stop in zip([0, *cuts], [*cuts, len(used)]):
        exps = [0] * 4
        for i in used[start:stop]:
            exps[i] = rng.randint(1, 6)
        coefficient = rng.choice((gq(1), gq(-1), gq(0, 1), gq(0, -1), random_scalar(rng)))
        while coefficient.is_zero:
            coefficient = random_scalar(rng)
        out = out + Polynomial.monomial(XYZT, exps, coefficient)
    return out


def test_pattern_irreducible_against_sympy_factoring():
    """Whenever the pattern claims irreducibility, sympy factors the
    polynomial over Q(i) into one nonconstant factor of multiplicity 1."""
    rng = random.Random(63)
    claimed = {2: 0, 3: 0, 4: 0}
    for _ in range(40):
        terms = rng.choice((2, 2, 3, 4))
        p = disjoint_support_poly(rng, terms)
        if not pattern_irreducible(p):
            continue
        _, factors = sympy.factor_list(to_sympy(p), gaussian=True)
        nonconstant = [(f, m) for f, m in factors if not f.is_number]
        assert len(nonconstant) == 1 and nonconstant[0][1] == 1, (p, factors)
        claimed[terms] += 1
    assert all(claimed.values()), claimed


# ---------------------------------------------------------------------------
# coset degrees
# ---------------------------------------------------------------------------


def test_coset_degree_reduces_through_the_relation():
    base = RingPresentation(XY, Xp**2 - Yp)
    # the class of X^2 equals the class of Y: weighted degree 0 under (1,0)
    cls = base.normal_form(Xp**2)
    out = coset_degree(cls, (1, 0))
    assert out.value == 0
    assert out.reduced == Yp
    # the flag follows the irreducibility pattern of the top relation (X^2),
    # which is not a recognized shape, so the value is reported as a bound
    assert out.exact is False


def test_coset_degree_exact_when_pattern_applies():
    base = RingPresentation(XYZ, X * Y - Z**2)
    cls = base.normal_form(X + Z)
    out = coset_degree(cls, (1, 3, 2))
    assert out.exact is True
    assert out.value == 2
    assert out.reduced == X + Z


def test_coset_degree_rejects_non_integer_weights():
    base = RingPresentation(XY, Xp * Yp - 1)
    cls = base.normal_form(Xp**3 * Yp + Xp)
    with pytest.raises(ValueError, match="integers"):
        coset_degree(cls, (1.5, 0))
    with pytest.raises(ValueError, match="integers"):
        coset_degree(base.normal_form(0), (1, 0.5))


def test_coset_degree_zero_class():
    base = RingPresentation(XY, Xp**2 - Yp)
    out = coset_degree(base.normal_form(0), (1, 1))
    assert out.value == MINUS_INF and out.exact


def test_coset_degree_trims_high_lifts_bulk():
    rng = random.Random(314)
    base = RingPresentation(XYZ, X * Y - Z**2)
    weights = (1, 3, 2)
    for _ in range(100):
        f = random_poly(rng, XYZ, max_terms=4, max_exp=3)
        cls = base.normal_form(f)
        out = coset_degree(cls, weights)
        # the reduced representative is in the same class ...
        assert base.normal_form(out.reduced).rep == cls.rep
        # ... and no further greedy step applies
        if not out.reduced.is_zero:
            assert out.value <= cls.rep.weighted_degree(weights)


# ---------------------------------------------------------------------------
# degree jumps of derivations
# ---------------------------------------------------------------------------


def test_degree_jump_of_danielewski_derivation():
    base = RingPresentation(XYZ, X * Y - Z**2)
    d = make_derivation(base, [Polynomial.zero(XYZ), 2 * Z, X])
    out = derivation_degree_jump(d, (1, 1, 1))
    assert out.jump == 0
    # the relation is already homogeneous, so gr(D) has the same images
    assert [img.rep for img in out.gr_derivation.images] == [
        Polynomial.zero(XYZ),
        2 * Z,
        X,
    ]
    report = probe_nilpotency(out.gr_derivation)
    assert report.status == "certified"


def test_degree_jump_negative():
    base = RingPresentation(XY, Yp)
    d = make_derivation(base, [Polynomial.constant(XY, 1), Polynomial.zero(XY)])
    out = derivation_degree_jump(d, (1, 1))
    assert out.jump == -1
    assert out.gr_derivation.image_of("X").rep == Polynomial.constant(XY, 1)


def test_degree_jump_freudenburg():
    pres = RingPresentation(XYZT, X4**2 * Y4**2 + Z4**2 + T4**3)
    d = make_derivation(
        pres,
        [
            Polynomial.zero(XYZT),
            3 * T4**2,
            gq(0, -3) * X4 * T4**2,
            -2 * X4**2 * Y4 + gq(0, 2) * X4 * Z4,
        ],
    )
    out = derivation_degree_jump(d, (6, 0, 6, 4))
    assert out.jump == 8
    assert out.graded.gr_relation == pres.relation  # homogeneous for these weights
    # every nonzero image attains the jump, so gr(D) = D
    assert [img.rep for img in out.gr_derivation.images] == [img.rep for img in d.images]


def test_degree_jump_requires_certified_exactness():
    base = RingPresentation(XY, Xp**2 - Yp)
    d = make_derivation(base, [Polynomial.constant(XY, 1), 2 * Xp])
    with pytest.raises(InexactDegreeError):
        derivation_degree_jump(d, (1, 0))


def test_degree_jump_rejects_zero_derivation():
    base = RingPresentation(XYZ, X * Y - Z**2)
    d = make_derivation(base, [0, 0, 0])
    with pytest.raises(ValueError):
        derivation_degree_jump(d, (1, 1, 1))
