import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

import pytest
import sympy

from rigidity import (
    FamilyDescriptor,
    Polynomial,
    classify,
    fermat_3,
    gens,
    mixed_four,
    parse_poly,
    probe_nilpotency,
    recognize_family,
    three_term_xy,
)
from rigidity.gauss import gq
from rigidity.mason import COPRIME_SCOPE, check_fermat_sum
from rigidity.parsing import format_poly

from helpers import to_sympy


XYZ = ("X", "Y", "Z")
XYZT = ("X", "Y", "Z", "T")


def recognized(text, variables):
    return recognize_family(parse_poly(text, variables))


def assert_sound_witness(verdict, max_steps=None):
    """Every emitted witness must be independently re-certifiable."""
    assert verdict.status == "NotRigid"
    w = verdict.witness
    assert w is not None, verdict.notes
    assert not w.is_zero
    report = probe_nilpotency(w, bound=64)
    assert report.certified, report.detail
    if max_steps is not None:
        assert max(report.steps_per_generator) <= max_steps


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def test_recognize_three_term():
    d = recognize_family(parse_poly("X^2*Y^3 - Z^5", ("X", "Y", "Z")))
    assert d.kind == "ThreeTermXY"
    assert d.exponents == (2, 3, 5)
    assert d.roles == ("X", "Y", "Z")


def test_recognize_three_term_permuted_roles():
    d = recognize_family(parse_poly("Y^4 - X^2*Z^3", ("X", "Y", "Z")))
    assert d.kind == "ThreeTermXY"
    # the product term takes the (x, y) roles regardless of position
    assert d.exponents == (2, 3, 4)
    assert d.roles == ("X", "Z", "Y")


def test_recognize_pure_powers_with_coefficients():
    f = parse_poly("2*X^3 + 5*Y^4 + Z^5 + T^6", ("X", "Y", "Z", "T"))
    d = recognize_family(f)
    assert d.kind == "FermatN"
    assert d.exponents == (3, 4, 5, 6)
    assert any("absorbed by rescaling" in note for note in d.notes)


def test_recognize_fermat3_sorts_exponents():
    d = recognize_family(parse_poly("X^5 + Y^2 + Z^3", ("X", "Y", "Z")))
    assert d.kind == "Fermat3"
    assert d.exponents == (2, 3, 5)
    assert d.roles == ("Y", "Z", "X")
    assert any("reordered" in note for note in d.notes)


def test_recognize_mixed_four_canonicalizes():
    d = recognize_family(parse_poly("X^2*Y^6 + Z^4 + T^3", ("X", "Y", "Z", "T")))
    assert d.kind == "MixedFour"
    assert d.exponents == (6, 2, 3, 4)
    assert d.roles == ("Y", "X", "T", "Z")


def test_recognize_danielewski():
    f = parse_poly("X^3*Y + Z^3 + Z^3*Y", ("X", "Y", "Z"))
    d = recognize_family(f)
    assert d.kind == "DanielewskiLike"
    assert d.exponents == (3,)
    assert d.tail is not None
    assert d.tail == (gq(1), gq(1))


def test_recognize_danielewski_quartic_open_case():
    f = parse_poly("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"))
    d = recognize_family(f)
    assert d.kind == "DanielewskiLike"
    assert d.tail is None


def test_recognize_unmatched_shapes():
    X, Y = gens("X", "Y")
    d = recognize_family(X**2 + X * Y)
    assert d.kind == "Unrecognized"
    with pytest.raises(ValueError):
        recognize_family(Polynomial.constant(("X",), 5))


def test_recognize_five_variable_powers():
    f = parse_poly(
        "X1^2 + X2^4 + X3^4 + X4^4 + X5^4", tuple(f"X{i}" for i in range(1, 6))
    )
    d = recognize_family(f)
    assert d.kind == "FermatN"
    assert d.exponents == (2, 4, 4, 4, 4)


# ---------------------------------------------------------------------------
# descriptor constructors
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        three_term_xy(2, 3, 5, coefficients=(0, 1))
    with pytest.raises(ValueError):
        fermat_3(0, 2, 3)


def test_mixed_four_constructor_swaps():
    d = mixed_four(2, 5, 4, 3)
    assert d.exponents == (5, 2, 3, 4)
    assert d.roles == ("Y", "X", "T", "Z")
    assert len(d.notes) == 2


# ---------------------------------------------------------------------------
# three-term verdicts
# ---------------------------------------------------------------------------


def test_three_term_rigid():
    v = classify(three_term_xy(2, 3, 5))
    assert v.status == "Rigid"
    assert v.citation.startswith("Theorem case1")
    assert v.witness is None


def test_three_term_catalog_witness():
    v = classify(three_term_xy(1, 2, 3))
    assert_sound_witness(v)
    w = v.witness
    X, Y, Z = gens("X", "Y", "Z")
    assert w.image_of("X").rep == 3 * Z**2
    assert w.image_of("Y").rep.is_zero
    assert w.image_of("Z").rep == Y**2


def test_three_term_free_coordinate():
    v = classify(three_term_xy(0, 2, 3))
    assert_sound_witness(v)
    assert v.citation == "explicit witness: translation along a free coordinate"
    assert v.witness.image_of("X").rep == Polynomial.constant(("X", "Y", "Z"), 1)


def test_three_term_degenerate_all_zero():
    v = classify(three_term_xy(0, 0, 0))
    assert v.status == "NotRigid"
    assert v.witness is None
    assert any("full polynomial ring" in note for note in v.notes)


def test_three_term_nondomain_still_rigid():
    v = classify(three_term_xy(2, 4, 6))
    assert v.status == "Rigid"
    assert gcd(2, gcd(4, 6)) == 2
    assert any("not a domain" in note for note in v.notes)


def test_three_term_witness_propagates_coefficients():
    v = classify(three_term_xy(1, 2, 3, coefficients=(2, 5)))
    assert_sound_witness(v)
    X, Y, Z = gens("X", "Y", "Z")
    # D(relation) = 2*Y^2*D(X) + 15*Z^2*D(Z) must vanish identically
    assert v.witness.image_of("X").rep == -15 * Z**2
    assert v.witness.image_of("Z").rep == 2 * Y**2


# ---------------------------------------------------------------------------
# three-power verdicts
# ---------------------------------------------------------------------------


def test_fermat3_rigid_block():
    v = classify(fermat_3(2, 3, 3))
    assert v.status == "Rigid"
    assert v.citation.startswith("Theorem KalZai")


def test_fermat3_exponent_one_witness():
    v = classify(fermat_3(1, 2, 3))
    assert_sound_witness(v)
    X, Y, Z = gens("X", "Y", "Z")
    assert v.witness.image_of("Y").rep == Polynomial.constant(("X", "Y", "Z"), 1)
    assert v.witness.image_of("X").rep == -2 * Y
    assert v.witness.image_of("Z").rep.is_zero


def test_fermat3_two_squares_witness():
    v = classify(fermat_3(2, 2, 5))
    assert_sound_witness(v)
    X, Y, Z = gens("X", "Y", "Z")
    half = gq(5, 0) / gq(2, 0)
    assert v.witness.image_of("X").rep == -half * Z**4
    assert v.witness.image_of("Y").rep == gq(0, -1) * half * Z**4
    assert v.witness.image_of("Z").rep == X + gq(0, 1) * Y


def test_fermat3_two_squares_withholds_witness_at_bad_ratio():
    v = classify(fermat_3(2, 2, 5, coefficients=(1, 3, 1)))
    assert v.status == "NotRigid"
    assert v.witness is None
    assert any("square root" in note for note in v.notes)


# ---------------------------------------------------------------------------
# mixed four-variable verdicts
# ---------------------------------------------------------------------------


def test_mixed_four_rigid():
    v = classify(mixed_four(3, 3, 3, 4))
    assert v.status == "Rigid"
    assert v.citation.startswith("Theorem abcdTHM")


def test_mixed_four_exponent_one():
    v = classify(mixed_four(4, 1, 3, 5))
    assert_sound_witness(v)
    # the triangular derivation f_Y*d/dZ - f_Z*d/dY
    X, Y, Z, T = gens("X", "Y", "Z", "T")
    assert v.witness.image_of("Y").rep == -3 * Z**2
    assert v.witness.image_of("Z").rep == X**4
    assert v.witness.image_of("X").rep.is_zero
    assert v.witness.image_of("T").rep.is_zero


def test_mixed_four_zt_squares():
    v = classify(mixed_four(3, 2, 2, 2))
    assert_sound_witness(v)
    assert v.citation.startswith("derived witness: Z^2 + T^2")
    # the two-squares derivation in the Fermat3 convention, F = f_Y/2
    X, Y, Z, T = gens("X", "Y", "Z", "T")
    assert v.witness.image_of("Z").rep == -(X**3) * Y
    assert v.witness.image_of("T").rep == gq(0, -1) * X**3 * Y
    assert v.witness.image_of("Y").rep == Z + gq(0, 1) * T
    assert v.witness.image_of("X").rep.is_zero


def test_mixed_four_even_twist_witness():
    v = classify(mixed_four(2, 2, 2, 3))
    assert_sound_witness(v, max_steps=4)
    assert v.citation.startswith("explicit witness: imaginary-unit twist")


def test_mixed_four_leftover_patterns_stay_open():
    for exps in ((6, 3, 2, 4), (12, 3, 2, 4), (6, 2, 3, 3), (18, 2, 3, 3)):
        v = classify(mixed_four(*exps))
        assert v.status == "Unknown", exps
        assert v.citation.startswith("Remark Leftover")


def test_mixed_four_near_leftovers_are_decided():
    # a not divisible by 6 falls back to the general rigidity rule
    assert classify(mixed_four(4, 3, 2, 4)).status == "Rigid"
    assert classify(mixed_four(9, 2, 3, 3)).status == "Rigid"


# ---------------------------------------------------------------------------
# n-power verdicts
# ---------------------------------------------------------------------------


def test_fermat_n_exponent_one():
    v = classify(recognized("X + Y^3 + Z^3 + T^3", XYZT))
    assert_sound_witness(v)


def test_fermat_n_two_squares():
    v = classify(recognized("X^2 + Y^2 + Z^5 + T^7", XYZT))
    assert_sound_witness(v)
    assert v.citation.startswith("derived witness: two quadratic slots")


def test_fermat_n_cb4_rigid():
    v = classify(recognized("X^2 + Y^3 + Z^5 + T^7", XYZT))
    assert v.status == "Rigid"
    assert v.citation.startswith("Theorem CB4")
    assert any("ordering" in note for note in v.notes)


def test_fermat_n_reciprocal_sum_rule():
    # no CB4 ordering works for (2, 3, 7, 42), and the reciprocal sum is
    # 1/2 + 1/3 + 1/7 + 1/42 = 1 > 1/2, so that rule fails too -> Unknown,
    # with the rule trace recorded in the notes
    v = classify(recognized("X^2 + Y^3 + Z^7 + T^42", XYZT))
    assert v.status == "Unknown"
    assert any(note.startswith("CB4:") for note in v.notes)
    assert any(note.startswith("EX1:") for note in v.notes)
    # (8, 8, 9, 11): the repeated 8 rules out every CB4 ordering, but
    # 1/8 + 1/8 + 1/9 + 1/11 = 179/396 <= 1/2 with gcd 1
    rigid = classify(recognized("X^8 + Y^8 + Z^9 + T^11", XYZT))
    assert rigid.status == "Rigid"


def test_fermat_n_five_variables_unknown():
    # n = 5: CB4 does not apply, reciprocal sum 5/4 > 1/3
    names = ("X1", "X2", "X3", "X4", "X5")
    v = classify(recognized("X1^4 + X2^4 + X3^4 + X4^4 + X5^4", names))
    assert v.status == "Unknown"


# ---------------------------------------------------------------------------
# Danielewski-like verdicts
# ---------------------------------------------------------------------------


def test_danielewski_rigid_small_tail():
    # deg P = 4 = (d-1)^2
    v = classify(recognized("X^3*Y + Z^3 + Z^3*Y + Z^3*Y^2 + Z^3*Y^3 + Z^3*Y^4", XYZ))
    assert v.status == "Rigid"
    assert v.citation.startswith("Theorem EX2t")


def test_danielewski_out_of_scope_when_tail_vanishes_at_zero():
    v = classify(recognized("X^3*Y + Z^3*Y + Z^3*Y^2", XYZ))
    assert v.status == "OutOfScope"


def test_danielewski_monomial_tail_rigid():
    # P = 1 + y^5, d = 2: deg P = 5 > 1 = (d-1)^2, but Q = y^4 is a monomial
    v = classify(recognized("X^2*Y + Z^2 + Z^2*Y^5", XYZ))
    assert v.status == "Rigid"
    assert v.citation.startswith("Lemma MiniMason")


def test_danielewski_open_beyond_rules():
    # P = 1 + y + y^5, d = 2: tail Q = 1 + y^4 is not a monomial
    v = classify(recognized("X^2*Y + Z^2 + Z^2*Y + Z^2*Y^5", XYZ))
    assert v.status == "Unknown"


def test_danielewski_loose_tail_unknown():
    f = parse_poly("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"))
    v = classify(recognize_family(f))
    assert v.status == "Unknown"
    assert any("loose tail" in note for note in v.notes)


# ---------------------------------------------------------------------------
# rule-table disjointness against independent predicates
# ---------------------------------------------------------------------------


def independent_three_term(a, b, c):
    if (a, b, c) == (0, 0, 0) or 0 in (a, b, c) or 1 in (a, b, c):
        return "NotRigid"
    return "Rigid"


def independent_fermat3(a, b, c):
    a, b, c = sorted((a, b, c))
    if a == 1 or (a == 2 and b == 2):
        return "NotRigid"
    return "Rigid"


def independent_mixed_four(a, b, c, d):
    a, b = max(a, b), min(a, b)
    c, d = min(c, d), max(c, d)
    if 1 in (a, b, c, d):
        return "NotRigid"
    if c == 2 and d == 2:
        return "NotRigid"
    if b == 2 and c == 2 and a % 2 == 0:
        return "NotRigid"
    if a % 6 == 0 and ((b == 3 and (c, d) == (2, 4)) or (b == 2 and (c, d) == (3, 3))):
        return "Unknown"
    return "Rigid"


def independent_fermat_4(ds):
    if 1 in ds:
        return "NotRigid"
    if sum(1 for e in ds if e == 2) >= 2:
        return "NotRigid"
    for a, b, c, d in permutations(ds):
        if (
            min(a, b, c, d) >= 2
            and gcd(a * b, c) == 1
            and gcd(a * b * c, d) == 1
            and gcd(a, b) not in (a, b)
        ):
            return "Rigid"
    if (
        min(ds) >= 2
        and gcd(gcd(ds[0], ds[1]), gcd(ds[2], ds[3])) == 1
        and sum(Fraction(1, e) for e in ds) <= Fraction(1, 2)
    ):
        return "Rigid"
    return "Unknown"


def test_three_term_table_small_exponents():
    for a in range(0, 7):
        for b in range(0, 7):
            for c in range(0, 7):
                v = classify(three_term_xy(a, b, c))
                assert v.status == independent_three_term(a, b, c), (a, b, c)
                if v.status == "NotRigid" and v.witness is not None:
                    assert not v.witness.is_zero


def test_fermat3_table_small_exponents():
    for a in range(1, 7):
        for b in range(a, 7):
            for c in range(b, 7):
                v = classify(fermat_3(a, b, c))
                assert v.status == independent_fermat3(a, b, c), (a, b, c)


def test_mixed_four_table_small_exponents():
    for a in range(1, 7):
        for b in range(1, a + 1):
            for c in range(1, 7):
                for d in range(c, 7):
                    v = classify(mixed_four(a, b, c, d))
                    assert v.status == independent_mixed_four(a, b, c, d), (
                        a,
                        b,
                        c,
                        d,
                    )


def test_fermat_4_table_small_exponents():
    for a in range(1, 7):
        for b in range(a, 7):
            for c in range(b, 7):
                for d in range(c, 7):
                    v = classify(recognized(f"X^{a} + Y^{b} + Z^{c} + T^{d}", XYZT))
                    assert v.status == independent_fermat_4((a, b, c, d)), (
                        a,
                        b,
                        c,
                        d,
                    )


PINNED_RULE_COUNTS = {
    ("FermatN", 4, "Theorem CB4"): 9,
    ("FermatN", 4, "Lemma EX1"): 5,
    ("FermatN", 4, "open case"): 280,
    ("FermatN", 5, "Lemma EX1"): 8,
    ("FermatN", 5, "open case"): 48,
    ("DanielewskiLike", "Theorem EX2t"): 84,
    ("DanielewskiLike", "Lemma MiniMason"): 54,
    ("DanielewskiLike", "open case"): 72,
}


def test_ex1_and_minimason_rigid_verdicts_read_only_the_exponents():
    # Both rules cite a theorem on the ring.  FermatN's EX1 path needs every
    # d_i >= 2, gcd 1 and sum 1/d_i <= 1/(n-2); the coprime scope of
    # check_fermat_sum bounds its certificate on polynomial solutions, not
    # the verdict.  DanielewskiLike's MiniMason path needs P(0) != 0 and
    # d, d + e >= 2; its unit equation has a nonzero constant target, so a
    # common factor is a unit and no scope applies.
    tally = Counter()
    for n, box in ((4, range(2, 10)), (5, range(13, 17))):
        names = tuple(f"X{i}" for i in range(1, n + 1))
        for ds in combinations_with_replacement(box, n):
            if ds.count(2) >= 2:
                continue  # the two-squares witness
            v = classify(recognized(" + ".join(f"{x}^{e}" for x, e in zip(names, ds)), names))
            cb4 = n == 4 and any(
                gcd(a * b, c) == 1 and gcd(a * b * c, d) == 1 and gcd(a, b) not in (a, b)
                for a, b, c, d in permutations(ds)
            )
            ex1 = gcd(*ds) == 1 and sum(Fraction(1, e) for e in ds) <= Fraction(1, n - 2)
            rule = "Theorem CB4" if cb4 else "Lemma EX1" if ex1 else "open case"
            assert (v.status, v.citation.split(":")[0]) == (
                "Unknown" if rule == "open case" else "Rigid", rule
            ), ds
            if rule == "Lemma EX1":
                assert check_fermat_sum(ds).scope == COPRIME_SCOPE
            tally["FermatN", n, rule] += 1
    for d in range(1, 6):
        for k in range(1, 15):
            for p0, c, linear in (("1", "1", ""), ("-3/2 + 5i", "2 - i", ""), ("1", "1", " + Z^{d}*Y")):
                text = f"X^{d}*Y + ({p0})*Z^{d} + ({c})*Z^{d}*Y^{k}" + linear.format(d=d)
                desc = recognized(text, XYZ)
                assert desc.kind == "DanielewskiLike" and desc.exponents == (d,), text
                v = classify(desc)
                if d >= 2 and k <= (d - 1) ** 2:
                    rule = "Theorem EX2t"
                elif d >= 2 and k >= 3 and not linear:
                    rule = "Lemma MiniMason"
                else:
                    rule = "open case"
                assert (v.status, v.citation.split(":")[0]) == (
                    "Unknown" if rule == "open case" else "Rigid", rule
                ), text
                tally["DanielewskiLike", rule] += 1
    assert tally == PINNED_RULE_COUNTS


def test_every_catalog_witness_kills_its_relation_exactly():
    """sum D(x_i)*f_(x_i) is the zero polynomial, not only zero modulo f,
    for every witness over the criterion 01-03 exponent tables with
    non-unit Gaussian coefficients (equal where a square root would be
    needed, so that every NotRigid entry but the degenerate one has one)."""
    q, r = gq(2, -1), gq(Fraction(-3, 2), 5)
    descriptors = [
        three_term_xy(a, b, c, coefficients=(q, r))
        for a in range(9) for b in range(9) for c in range(9) if (a, b, c) != (0, 0, 0)
    ]
    descriptors += [
        fermat_3(a, b, c, coefficients=(q, q, r))
        for a in range(1, 9) for b in range(a, 9) for c in range(b, 9)
    ]
    descriptors += [
        mixed_four(a, b, c, d, coefficients=(q, q, q))
        for a in range(1, 9) for b in range(1, 9) for c in range(1, 9) for d in range(1, 9)
    ]
    witnesses = 0
    digest = hashlib.sha256()
    for desc in descriptors:
        v = classify(desc)
        if v.status != "NotRigid":
            continue
        assert v.witness is not None, (desc.kind, desc.exponents)
        f = desc.relation
        total = Polynomial.zero(f.variables)
        for name in f.variables:
            total = total + v.witness.image_of(name).rep * f.diff(name)
        assert total.is_zero, (desc.kind, desc.exponents)
        witnesses += 1
        images = [format_poly(img.rep) for img in v.witness.images]
        row = [desc.kind, str(desc.exponents), *images, str(v.witness_report.steps_per_generator)]
        digest.update((" ".join(row) + "\n").encode())
    # 385 three-term, 43 three-power and 1828 mixed four-variable entries
    assert witnesses == 385 + 43 + 1828
    # Every image and step count, byte for byte, as the three separate
    # witness recipes published them before the one Jacobian builder.
    assert digest.hexdigest() == (
        "c5b38e812abb98c1c4b36b88f6bb2a81562be429ae7e02f8cf376daa297093ba"
    )


# (relation, kernel elements g, constant c): the published witness is
# c * J(f, g), where J(f, g)(h) = det d(f, g_1, .., g_(n-2), h)/d(x_1..x_n)
# in declaration order.  q and r stand for the non-unit coefficients below.
JACOBIAN_WITNESSES = (
    ("X + Y^2 + Z^3", ("Z",), "-1"),
    ("q*X + r*Y^2 + q*Z^3", ("Z",), "-1/q"),
    ("X*Y^3 + Z^4", ("Y",), "1"),
    ("q*X*Y^3 + r*Z^4", ("Y",), "1"),
    ("X^3*Y + Z^3 + T^5", ("X", "T"), "1"),
    ("q*X^3*Y + r*Z^3 + q*T^5", ("X", "T"), "1"),
    ("X^2 + Y^2 + Z^5", ("X + I*Y",), "-I/2"),
    ("q*X^2 + q*Y^2 + r*Z^5", ("X + I*Y",), "-I/(2*q)"),
    ("X^2*Y^3 + Z^2 + T^2", ("Y", "Z + I*T"), "-I/2"),
    ("r*X^2*Y^3 + q*Z^2 + q*T^2", ("Y", "Z + I*T"), "-I/(2*q)"),
    ("X^4*Y^2 + Z^2 + T^3", ("X", "X^2*Y - I*Z"), "I"),
    ("q*X^4*Y^2 + q*Z^2 + r*T^3", ("X", "X^2*Y - I*Z"), "I"),
)


@pytest.mark.parametrize("relation, kernel, constant", JACOBIAN_WITNESSES)
def test_catalog_witness_is_a_constant_times_a_jacobian_derivation(relation, kernel, constant):
    # sympy computes each Jacobian as a determinant, independently of the
    # cross products the witness builder takes over the free variables.
    names = XYZT if "T" in relation else XYZ
    syms = sympy.symbols(names)
    local = {"q": 2 - sympy.I, "r": sympy.Rational(-3, 2) + 5 * sympy.I, "I": sympy.I}
    local.update(zip(names, syms))
    f = sympy.sympify(relation, locals=local)
    gs = [sympy.sympify(g, locals=local) for g in kernel]
    c = sympy.sympify(constant, locals=local)
    text = relation.replace("q", "(2 - i)").replace("r", "(-3/2 + 5i)")
    verdict = classify(recognized(text, names))
    assert verdict.status == "NotRigid" and verdict.witness is not None, verdict.notes
    rows = [[sympy.diff(p, x) for x in syms] for p in (f, *gs)]
    for name, x in zip(names, syms):
        jacobian = sympy.Matrix(rows + [[sympy.diff(x, y) for y in syms]]).det()
        image = to_sympy(verdict.witness.image_of(name).rep)
        assert sympy.expand(image - c * jacobian) == 0, (relation, name, image, jacobian)


# ---------------------------------------------------------------------------
# the open list
# ---------------------------------------------------------------------------

OPEN_RELATIONS = (
    "X^3*Y + Z^3*Y + Z^4",
    "X^6*Y^3 + Z^2 + T^4",
    "X^6*Y^2 + Z^3 + T^3",
    "X^2 + Y^3 + Z^3 + T^3",
    "X^3 + Y^3 + Z^3 + T^3",
    "X^2 + Y^3 + Z^5 + T^15",
)


@pytest.mark.parametrize("text", OPEN_RELATIONS)
def test_open_hypersurfaces_stay_open(text):
    names = ("X", "Y", "Z", "T") if "T" in text else ("X", "Y", "Z")
    verdict = classify(recognize_family(parse_poly(text, names)))
    assert verdict.status == "Unknown", (text, verdict.citation, verdict.notes)


# ---------------------------------------------------------------------------
# citations are frozen strings
# ---------------------------------------------------------------------------


def test_citation_strings_are_stable():
    assert classify(three_term_xy(2, 3, 5)).citation == (
        "Theorem case1: X^a*Y^b - Z^c with a, b, c >= 2 defines a rigid ring"
    )
    assert classify(fermat_3(2, 3, 3)).citation == (
        "Theorem KalZai: X^a + Y^b + Z^c with a >= 2 and b, c >= 3 defines a"
        " rigid ring"
    )
    assert classify(mixed_four(3, 3, 3, 4)).citation == (
        "Theorem abcdTHM: X^a*Y^b + Z^c + T^d defines a rigid ring away from"
        " the exceptional exponent patterns"
    )
    assert classify(mixed_four(6, 3, 2, 4)).citation == (
        "Remark Leftover: rigidity is open for the patterns"
        " X^(6k)*Y^3 + Z^2 + T^4 and X^(6k)*Y^2 + Z^3 + T^3"
    )
    assert classify(recognized("X^2 + Y^3 + Z^5 + T^7", XYZT)).citation == (
        "Theorem CB4: rigid when gcd(a*b, c) = gcd(a*b*c, d) = 1 and"
        " gcd(a, b) is neither a nor b"
    )
    assert classify(recognized("X^8 + Y^8 + Z^9 + T^11", XYZT)).citation == (
        "Lemma EX1: rigid when every exponent is >= 2, the exponents have"
        " gcd 1, and the reciprocal sum is at most 1/(n-2)"
    )
    assert classify(recognized("X^3*Y + Z^3 + Z^3*Y", XYZ)).citation == (
        "Theorem EX2t: X^d*Y + Z^d*P(Y) with P(0) != 0, d >= 2 and"
        " deg(P) <= (d-1)^2 defines a rigid ring"
    )


# ---------------------------------------------------------------------------
# witness plumbing
# ---------------------------------------------------------------------------


def test_rigid_verdict_carries_no_witness():
    v = classify(three_term_xy(2, 3, 5))
    assert v.status == "Rigid"
    assert v.witness is None


def test_not_rigid_verdict_carries_certified_witness():
    w = classify(mixed_four(2, 2, 2, 3)).witness
    assert w is not None
    assert probe_nilpotency(w, bound=8).certified


def test_classify_rejects_alien_kind():
    alien = FamilyDescriptor(
        kind="Quintic",
        exponents=(),
        variables=("X",),
        roles=(),
        coefficients=(),
        relation=None,
    )
    with pytest.raises(ValueError):
        classify(alien)


def test_round_trip_recognition_preserves_verdicts():
    """Constructed descriptors and re-recognized relations agree.

    The cases cover permuted ambient variable orders, non-unit Gaussian
    coefficients and inputs that need slot swaps, so both entry points go
    through the same canonicalization.  In fermat_3(5, 2, 2, ...) and
    mixed_four(3, 2, 5, 1, ...) the witness certifies only if the swap
    moves the coefficients with the slots.
    """
    cases = [
        three_term_xy(2, 3, 5),
        three_term_xy(1, 2, 3),
        three_term_xy(2, 3, 5, variables=("Z", "Y", "X"), coefficients=(gq(0, 2), 7)),
        fermat_3(2, 2, 5),
        fermat_3(5, 2, 3),
        fermat_3(5, 2, 2, coefficients=(gq(0, 1), gq(0, 1), 5)),
        fermat_3(5, 2, 3, variables=("Z", "X", "Y"), coefficients=(gq(1, 1), 2, -3)),
        mixed_four(6, 3, 2, 4),
        mixed_four(2, 5, 4, 3),
        mixed_four(3, 2, 5, 1, coefficients=(gq(1, 1), 2, gq(0, 3))),
        mixed_four(
            2, 5, 4, 3, variables=("T", "Z", "Y", "X"), coefficients=(gq(2, 1), 3, gq(0, -1))
        ),
    ]
    for descriptor in cases:
        again = recognize_family(descriptor.relation)
        assert again.kind == descriptor.kind
        assert again.exponents == descriptor.exponents
        assert again.roles == descriptor.roles
        assert again.coefficients == descriptor.coefficients
        assert again.tail == descriptor.tail
        # the canonicalization notes come first, the recognizer's own after
        assert again.notes[: len(descriptor.notes)] == descriptor.notes
        assert classify(again).status == classify(descriptor).status


def _random_catalog_relation(rng):
    """A random relation of one catalog shape, as (variables, terms)."""

    def scalar():
        while True:
            c = gq(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))), rng.choice((0, 0, 1, -2)))
            if not c.is_zero:
                return c

    def e(low, high=6):
        return rng.randint(low, high)

    shape = rng.choice(("three_term", "fermat_3", "mixed_four", "fermat_n", "danielewski"))
    if shape == "three_term":
        exps = (e(0), e(0), e(0))
        if exps == (0, 0, 0):
            exps = (1, 0, 2)
        return ("X", "Y", "Z"), [((exps[0], exps[1], 0), scalar()), ((0, 0, exps[2]), scalar())]
    if shape == "danielewski":
        d = rng.randint(1, 4)
        terms = [((d, 1, 0), scalar())]
        terms += [((0, k, d), scalar()) for k in range(rng.randint(1, 5)) if rng.random() < 0.7]
        if len(terms) < 3:
            terms.append(((0, 2, d), scalar()))
        return ("X", "Y", "Z"), terms
    if shape == "mixed_four":
        return ("X", "Y", "Z", "T"), [
            ((e(1), e(1), 0, 0), scalar()),
            ((0, 0, e(1, 4), 0), scalar()),
            ((0, 0, 0, e(1, 4)), scalar()),
        ]
    n = 3 if shape == "fermat_3" else rng.choice((4, 4, 5))
    variables = ("X", "Y", "Z", "T", "U")[:n]
    return variables, [
        (tuple(e(1, 9) if j == i else 0 for j in range(n)), scalar()) for i in range(n)
    ]


def test_permuting_variables_and_rescaling_terms_keeps_the_verdict():
    """Metamorphic check: a catalog verdict depends on neither the order of
    the variables nor the nonzero coefficient of any term."""
    rng = random.Random(20101)
    for _ in range(400):
        variables, terms = _random_catalog_relation(rng)
        f = Polynomial(variables, terms)
        perm = rng.sample(range(len(variables)), len(variables))
        scales = (2, -1, gq(0, 3), gq(1, -1))
        moved = Polynomial(
            variables,
            [(tuple(exps[i] for i in perm), c * rng.choice(scales)) for exps, c in terms],
        )
        before, after = classify(recognize_family(f)), classify(recognize_family(moved))
        assert (after.status, after.citation) == (before.status, before.citation), (f, moved)
