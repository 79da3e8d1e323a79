"""Hypersurface family recognition and the rigidity verdict table.

The entry points are :func:`recognize_family`, which pattern-matches a
relation against the supported hypersurface families (up to variable
permutation and nonzero term coefficients), and :func:`classify`, which maps
a descriptor to a :class:`Verdict` via a fixed rule table.  The catalog
constructors (:func:`three_term_xy`, :func:`fermat_3`, :func:`mixed_four`)
build a relation and return the descriptor that recognition gives it.

Every NotRigid verdict ships with a machine-checked witness: the catalog
derivation is rebuilt on the actual presentation, validated as well-defined
and nonzero, and certified nilpotent by iteration before the verdict is
returned.  Apart from a translation along a free coordinate, every witness
is a nonzero constant times a Jacobian derivation J(f, g), which kills f, g
and the other fixed coordinates by construction; one builder makes it from
the gradients of f and g, so a rule names only g, the free variables and
the constant; the probe picks the coordinate that g replaces and runs in
those coordinates, where the witness is triangular.  The only
witness that Q(i) may lack, a square root of a coefficient ratio, is
reported by one helper.  A verdict of Unknown is deliberate: the rule table
never extrapolates beyond the results it encodes, and the open exponent
patterns must stay open.

Citations are stable strings (golden-tested); rigidity citations name the
theorem tag that justifies the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import gcd
from typing import Mapping, Optional, Sequence

from .derivation import (
    DEFAULT_PROBE_BOUND,
    Derivation,
    NilpotencyReport,
    make_derivation,
    probe_nilpotency,
)
from .gauss import I, ONE, GaussianRational, ScalarLike
from .mason import OBSTRUCTED, check_fermat_sum, check_mini_mason
from .poly import InternalInvariantError, Polynomial
from .quotient import RingPresentation

THREE_TERM_XY = "ThreeTermXY"
FERMAT_3 = "Fermat3"
MIXED_FOUR = "MixedFour"
FERMAT_N = "FermatN"
DANIELEWSKI_LIKE = "DanielewskiLike"
UNRECOGNIZED = "Unrecognized"

RIGID = "Rigid"
NOT_RIGID = "NotRigid"
UNKNOWN = "Unknown"
OUT_OF_SCOPE = "OutOfScope"

# Citation strings are part of the public surface; golden tests freeze them.
CITE_CASE1 = (
    "Theorem case1: X^a*Y^b - Z^c with a, b, c >= 2 defines a rigid ring"
)
CITE_KALZAI = (
    "Theorem KalZai: X^a + Y^b + Z^c with a >= 2 and b, c >= 3 defines a rigid ring"
)
CITE_ABCD = (
    "Theorem abcdTHM: X^a*Y^b + Z^c + T^d defines a rigid ring away from the"
    " exceptional exponent patterns"
)
CITE_LEFTOVER = (
    "Remark Leftover: rigidity is open for the patterns X^(6k)*Y^3 + Z^2 + T^4"
    " and X^(6k)*Y^2 + Z^3 + T^3"
)
CITE_CB4 = (
    "Theorem CB4: rigid when gcd(a*b, c) = gcd(a*b*c, d) = 1 and gcd(a, b) is"
    " neither a nor b"
)
CITE_EX1 = (
    "Lemma EX1: rigid when every exponent is >= 2, the exponents have gcd 1,"
    " and the reciprocal sum is at most 1/(n-2)"
)
CITE_EX2T = (
    "Theorem EX2t: X^d*Y + Z^d*P(Y) with P(0) != 0, d >= 2 and"
    " deg(P) <= (d-1)^2 defines a rigid ring"
)
CITE_MINIMASON = (
    "Lemma MiniMason: a monomial tail yields the unit equation"
    " F^d + c*H^(d+e) = 1, which admits no nonconstant solutions"
)
CITE_FREE_COORDINATE = "explicit witness: translation along a free coordinate"
CITE_TRIANGULAR = "explicit witness: triangular derivation for an exponent-1 slot"
CITE_TWO_SQUARES = (
    "derived witness: two quadratic slots factor as X*Y after a linear change"
    " of variables"
)
CITE_ZT_PRODUCT = (
    "derived witness: Z^2 + T^2 factors as Z*T after a linear change of"
    " variables"
)
CITE_EVEN_TWIST = (
    "explicit witness: imaginary-unit twist for the pattern"
    " X^(2m)*Y^2 + Z^2 + T^d"
)
CITE_DEGENERATE = "degenerate relation: the quotient is a full polynomial ring"
CITE_OPEN = "open case: no catalog rule applies"
CITE_OUT_OF_SCOPE = "outside the catalog"


Names = tuple[str, ...]


@dataclass(frozen=True)
class FamilyDescriptor:
    """A recognized relation, canonicalized for rule evaluation.

    ``roles`` lists the ambient variables in family order (for instance
    ``(x, y, z)`` for the three-term family), ``coefficients`` the nonzero
    scalar on each canonical term, and ``relation`` the defining polynomial
    (None only for the zero relation 1 - 1 that three_term_xy builds from
    all-zero exponents and cancelling coefficients; it has no presentation).
    DanielewskiLike descriptors carry the tail polynomial P as an ascending
    coefficient tuple when the tail is strict.
    """

    kind: str
    exponents: tuple[int, ...]
    variables: tuple[str, ...]
    roles: tuple[str, ...]
    coefficients: tuple[GaussianRational, ...]
    relation: Optional[Polynomial]
    tail: Optional[tuple[GaussianRational, ...]] = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    status: str
    citation: str
    witness: Optional[Derivation]
    notes: tuple[str, ...]
    witness_report: Optional[NilpotencyReport] = None


# --------------------------------------------------------------------------
# descriptor constructors (used by the criterion 01-03 acceptance tables):
# each builds its relation and returns what recognition makes of it
# --------------------------------------------------------------------------


def _coerce_coeffs(values: Sequence[ScalarLike]) -> tuple[GaussianRational, ...]:
    coeffs = tuple(GaussianRational.coerce(v) for v in values)
    if any(c.is_zero for c in coeffs):
        raise ValueError("family term coefficients must be nonzero")
    return coeffs


def _mono(
    variables: Sequence[str], coefficient: ScalarLike, powers: Mapping[str, int]
) -> Polynomial:
    exps = tuple(powers.get(v, 0) for v in variables)
    return Polynomial.monomial(variables, exps, coefficient)


def _check_exponents(exponents: Sequence[int], minimum: int) -> tuple[int, ...]:
    exps = tuple(exponents)
    if any(not isinstance(e, int) or e < minimum for e in exps):
        raise ValueError(f"exponents must be integers >= {minimum}: {exps!r}")
    return exps


def three_term_xy(
    a: int,
    b: int,
    c: int,
    variables: Sequence[str] = ("X", "Y", "Z"),
    coefficients: Sequence[ScalarLike] = (1, -1),
) -> FamilyDescriptor:
    """Descriptor for alpha*X^a*Y^b + beta*Z^c (exponents may be 0).

    The zero relation (all exponents 0 and alpha = -beta) keeps a
    descriptor without a relation; any other constant raises ValueError.
    """
    exps = _check_exponents((a, b, c), 0)
    variables = tuple(variables)
    if len(variables) != 3:
        raise ValueError("the three-term family lives in three variables")
    alpha, beta = _coerce_coeffs(coefficients)
    relation = Polynomial(variables, [((a, b, 0), alpha), ((0, 0, c), beta)])
    if relation.is_zero:
        return FamilyDescriptor(
            kind=THREE_TERM_XY, exponents=exps, variables=variables, roles=variables,
            coefficients=(alpha, beta), relation=None,
        )
    return recognize_family(relation)


def fermat_3(
    a: int,
    b: int,
    c: int,
    variables: Sequence[str] = ("X", "Y", "Z"),
    coefficients: Sequence[ScalarLike] = (1, 1, 1),
) -> FamilyDescriptor:
    """Descriptor for a sum of three pure powers; exponents get sorted."""
    variables = tuple(variables)
    if len(variables) != 3:
        raise ValueError("the three-power family lives in three variables")
    _check_exponents((a, b, c), 1)
    p, q, r = _coerce_coeffs(coefficients)
    terms = [((a, 0, 0), p), ((0, b, 0), q), ((0, 0, c), r)]
    return recognize_family(Polynomial(variables, terms))


def mixed_four(
    a: int,
    b: int,
    c: int,
    d: int,
    variables: Sequence[str] = ("X", "Y", "Z", "T"),
    coefficients: Sequence[ScalarLike] = (1, 1, 1),
) -> FamilyDescriptor:
    """Descriptor for alpha*X^a*Y^b + beta*Z^c + gamma*T^d, canonicalized
    so that a >= b and c <= d."""
    variables = tuple(variables)
    if len(variables) != 4:
        raise ValueError("the mixed four-variable family lives in four variables")
    _check_exponents((a, b, c, d), 1)
    alpha, beta, gamma = _coerce_coeffs(coefficients)
    terms = [((a, b, 0, 0), alpha), ((0, 0, c, 0), beta), ((0, 0, 0, d), gamma)]
    return recognize_family(Polynomial(variables, terms))


# --------------------------------------------------------------------------
# recognition
# --------------------------------------------------------------------------


def recognize_family(f: Polynomial) -> FamilyDescriptor:
    """Match a relation against the catalog families.

    Matching is up to variable permutation and nonzero term coefficients;
    the descriptor records the normalization in its notes.  Anything else
    comes back Unrecognized.
    """
    if f.is_zero or f.is_constant:
        raise ValueError("family recognition needs a nonconstant relation")
    n = len(f.variables)
    found = None
    if n == 3:
        if len(f.terms) == 2:
            found = _match_three_term(f)
        elif len(f.terms) >= 3:
            found = _match_pure_powers(f) or _match_danielewski(f)
    elif n == 4:
        if len(f.terms) == 3:
            found = _match_mixed_four(f)
        elif len(f.terms) == 4:
            found = _match_pure_powers(f)
    elif n >= 5:
        if len(f.terms) == n:
            found = _match_pure_powers(f)
    if found is not None:
        return found
    return FamilyDescriptor(
        kind=UNRECOGNIZED, exponents=(), variables=f.variables, roles=(), coefficients=(),
        relation=f, notes=("no catalog family matches the relation shape",),
    )


def _support(exps: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(exps) if e)


def _coefficient_note(coeffs: Sequence[GaussianRational], canonical: Sequence[ScalarLike]) -> list[str]:
    wanted = tuple(GaussianRational.coerce(v) for v in canonical)
    if tuple(coeffs) != wanted:
        shown = ", ".join(str(c) for c in coeffs)
        return [f"term coefficients ({shown}) absorbed by rescaling variables"]
    return []


def _match_three_term(f: Polynomial) -> Optional[FamilyDescriptor]:
    variables = f.variables
    items = f.sorted_terms()
    for head, other in ((items[0], items[1]), (items[1], items[0])):
        head_support = _support(head[0])
        if len(head_support) > 2:
            continue
        other_support = _support(other[0])
        for iz, z in enumerate(variables):
            if iz in head_support:
                continue
            if not set(other_support) <= {iz}:
                continue
            ix, iy = (i for i in range(3) if i != iz)
            roles = (variables[ix], variables[iy], z)
            coeffs = (head[1], other[1])
            notes = _coefficient_note(coeffs, (1, -1))
            notes.append(f"roles x={roles[0]}, y={roles[1]}, z={roles[2]}")
            return FamilyDescriptor(
                kind=THREE_TERM_XY, exponents=(head[0][ix], head[0][iy], other[0][iz]),
                variables=variables, roles=roles, coefficients=coeffs, relation=f,
                notes=tuple(notes),
            )
    return None


def _match_pure_powers(f: Polynomial) -> Optional[FamilyDescriptor]:
    """A sum of pure powers, slot i in variable i.

    Three slots (Fermat3) are reordered so the exponents ascend; four or
    more (FermatN) keep the ambient order.
    """
    variables = f.variables
    n = len(variables)
    if len(f.terms) != n:
        return None
    slot: dict[int, tuple[int, GaussianRational]] = {}
    for exps, coeff in f.terms.items():
        support = _support(exps)
        if len(support) != 1:
            return None
        (i,) = support
        if i in slot:
            return None
        slot[i] = (exps[i], coeff)
    if len(slot) != n:
        return None
    exps = tuple(slot[i][0] for i in range(n))
    coeffs = tuple(slot[i][1] for i in range(n))
    notes = _coefficient_note(coeffs, (1,) * n)
    kind, roles = FERMAT_N, variables
    if n == 3:
        kind = FERMAT_3
        order = sorted(range(3), key=lambda i: (exps[i], i))
        if order != [0, 1, 2]:
            roles, exps, coeffs = (tuple(s[i] for i in order) for s in (roles, exps, coeffs))
            notes.insert(0, "slots reordered so the exponents ascend")
    return FamilyDescriptor(
        kind=kind, exponents=exps, variables=variables, roles=roles, coefficients=coeffs,
        relation=f, notes=tuple(notes),
    )


def _match_mixed_four(f: Polynomial) -> Optional[FamilyDescriptor]:
    """alpha*x^a*y^b + beta*z^c + gamma*t^d, with the slots swapped so that
    a >= b and c <= d."""
    variables = f.variables
    mixed = None
    pure: dict[int, tuple[int, GaussianRational]] = {}
    for exps, coeff in f.terms.items():
        support = _support(exps)
        if len(support) == 2 and mixed is None:
            mixed = (support, exps, coeff)
        elif len(support) == 1 and support[0] not in pure:
            pure[support[0]] = (exps[support[0]], coeff)
        else:
            return None
    if mixed is None or len(pure) != 2:
        return None
    (ix, iy), exps, alpha = mixed
    if set(pure) != set(range(4)) - {ix, iy}:
        return None
    iz, it = sorted(pure)
    (c, beta), (d, gamma) = pure[iz], pure[it]
    a, b = exps[ix], exps[iy]
    x, y, z, t = (variables[i] for i in (ix, iy, iz, it))
    notes = _coefficient_note((alpha, beta, gamma), (1, 1, 1))
    swaps = []
    if a < b:
        a, b, x, y = b, a, y, x
        swaps.append("first and second slots swapped so a >= b")
    if c > d:
        c, d, z, t, beta, gamma = d, c, t, z, gamma, beta
        swaps.append("third and fourth slots swapped so c <= d")
    return FamilyDescriptor(
        kind=MIXED_FOUR, exponents=(a, b, c, d), variables=variables, roles=(x, y, z, t),
        coefficients=(alpha, beta, gamma), relation=f, notes=(*swaps, *notes),
    )


def _match_danielewski(f: Polynomial) -> Optional[FamilyDescriptor]:
    variables = f.variables
    for ix, iy, iz in permutations(range(3)):
        heads = [item for item in f.terms.items() if item[0][ix]]
        if len(heads) != 1:
            continue
        (head_exps, head_coeff) = heads[0]
        d = head_exps[ix]
        if head_exps[iy] != 1 or head_exps[iz] != 0:
            continue
        tail = [item for item in f.terms.items() if not item[0][ix]]
        if not tail or any(exps[iz] < 1 for exps, _ in tail):
            continue
        if min(exps[iz] for exps, _ in tail) != d:
            continue
        roles = (variables[ix], variables[iy], variables[iz])
        p_coeffs: Optional[tuple[GaussianRational, ...]] = None
        if all(exps[iz] == d for exps, _ in tail):
            degree = max(exps[iy] for exps, _ in tail)
            dense = [GaussianRational(0)] * (degree + 1)
            for exps, coeff in tail:
                dense[exps[iy]] = coeff
            p_coeffs = tuple(dense)
        notes = _coefficient_note((head_coeff,), (1,))
        notes.append(f"roles x={roles[0]}, y={roles[1]}, z={roles[2]}")
        if p_coeffs is None:
            notes.append("the tail mixes the y and z variables (loose tail)")
        return FamilyDescriptor(
            kind=DANIELEWSKI_LIKE,
            exponents=(d,),
            variables=variables,
            roles=roles,
            coefficients=(head_coeff,),
            relation=f,
            tail=p_coeffs,
            notes=tuple(notes),
        )
    return None


# --------------------------------------------------------------------------
# the verdict table
# --------------------------------------------------------------------------


def classify(descriptor: FamilyDescriptor) -> Verdict:
    """Rigidity verdict for a recognized relation.

    NotRigid verdicts carry a validated witness (or notes explaining why no
    witness is expressible over Q(i)); Rigid verdicts cite the justifying
    theorem; Unknown marks the open exponent patterns.
    """
    if descriptor.kind == THREE_TERM_XY:
        return _classify_three_term(descriptor)
    if descriptor.kind == FERMAT_3:
        return _classify_fermat_3(descriptor)
    if descriptor.kind == MIXED_FOUR:
        return _classify_mixed_four(descriptor)
    if descriptor.kind == FERMAT_N:
        return _classify_fermat_n(descriptor)
    if descriptor.kind == DANIELEWSKI_LIKE:
        return _classify_danielewski(descriptor)
    if descriptor.kind == UNRECOGNIZED:
        return _verdict(descriptor, OUT_OF_SCOPE, CITE_OUT_OF_SCOPE)
    raise ValueError(f"unknown family kind {descriptor.kind!r}")


def _verdict(desc: FamilyDescriptor, status: str, citation: str, *notes: str) -> Verdict:
    """A verdict without a witness; the descriptor's notes come first."""
    return Verdict(status=status, citation=citation, witness=None, notes=(*desc.notes, *notes))


def _verdict_with_witness(
    desc: FamilyDescriptor, citation: str, images: Mapping[str, Polynomial], note: str,
    kernel: Optional[Polynomial] = None,
) -> Verdict:
    """Build the witness on the descriptor's presentation (variables without
    an image map to 0), check that it is nonzero and certify it nilpotent,
    in coordinates where the kernel element g, if any, is one of them."""
    if desc.relation is None:
        raise InternalInvariantError("witness requested for an unpresentable relation")
    presentation = RingPresentation(desc.variables, desc.relation)
    image_list = [images.get(v, Polynomial.zero(desc.variables)) for v in desc.variables]
    witness = make_derivation(presentation, image_list)
    if witness.is_zero:
        raise InternalInvariantError("catalog witness is the zero derivation")
    bound = max(DEFAULT_PROBE_BOUND, max(desc.exponents, default=0) + 2)
    report = probe_nilpotency(witness, bound=bound, kernel=kernel)
    if not report.certified:
        raise InternalInvariantError(
            f"catalog witness failed nilpotency certification: {report.detail}"
        )
    return Verdict(
        status=NOT_RIGID,
        citation=citation,
        witness=witness,
        notes=(*desc.notes, note),
        witness_report=report,
    )


def _jacobian(
    desc: FamilyDescriptor, citation: str, free: Names, kernel: Optional[Polynomial],
    scale: GaussianRational, note: str,
) -> Verdict:
    """scale * J(f, g, the coordinates outside free), certified.

    Two free variables (a, b) and no kernel give (D(a), D(b)) = (f_b, -f_a);
    three give the cross product of grad f and grad g restricted to free,
    for a kernel element g = c*v + h with c a nonzero constant and h free
    of v for some variable v.  D kills f, g and every fixed coordinate by
    construction; the nilpotency probe, run where g replaces v and D is
    triangular, is the only certificate.
    """
    f = desc.relation
    df = [f.diff(v) for v in free]
    if kernel is None:
        images = {free[0]: df[1] * scale, free[1]: -df[0] * scale}
    else:
        scaled = kernel * scale
        dg = [scaled.diff(v) for v in free]
        images = {}
        for i, v in enumerate(free):
            j, k = (i + 1) % 3, (i + 2) % 3  # D(v) = f_j*g_k - f_k*g_j
            products = [p * q for p, q in ((df[j], dg[k]), (df[k], -dg[j])) if p and q]
            images[v] = sum(products[1:], products[0]) if products else Polynomial.zero(f.variables)
    return _verdict_with_witness(desc, citation, images, note, kernel)


def _triangular(desc: FamilyDescriptor, j: str, k: str, note: str) -> Verdict:
    """D(k) = f_j, D(j) = -f_k, divided by f_j when that is a constant.

    Every caller passes a j in which f has degree 1 with f_j free of k, so
    D(k) lies in the kernel and D is triangular, hence locally nilpotent.
    """
    fj = desc.relation.diff(j)
    scale = fj.constant_value().inverse() if fj.is_constant else ONE
    return _jacobian(desc, CITE_TRIANGULAR, (k, j), None, scale, note)


def _two_squares(
    desc: FamilyDescriptor, citation: str, u: str, v: str, w: str,
    cu: GaussianRational, cv: GaussianRational, note: str,
) -> Verdict:
    """J(f, u + i*v)/(2i*cu) for cu*u^2 + cv*v^2 + (terms free of u and v):
    D(u) = -F, D(v) = -i*F and D(w) = u + i*v with F = f_w/(2*cu).

    When cu = cv, D(u - i*v) = -2*F involves only w and the kernel, so D is
    triangular in u + i*v, w, u - i*v.  When cu != cv the witness needs a
    square root of cv/cu and is withheld.
    """
    if cu != cv:
        return _withheld(desc, citation, note, cv / cu)
    g = Polynomial.variable(desc.variables, u) + _mono(desc.variables, I, {v: 1})
    return _jacobian(desc, citation, (u, v, w), g, (cu * GaussianRational(0, 2)).inverse(), note)


def _withheld(desc: FamilyDescriptor, citation: str, prefix: str, ratio: GaussianRational) -> Verdict:
    """NotRigid without a witness: the catalog witness needs sqrt(ratio)."""
    return _verdict(
        desc, NOT_RIGID, citation,
        f"{prefix}, but the catalog witness needs a square root of the coefficient"
        f" ratio {ratio}, which is not available in Q(i) in general",
    )


def _classify_three_term(d: FamilyDescriptor) -> Verdict:
    a, b, c = d.exponents
    x, y, z = d.roles
    if d.relation is None:
        return _verdict(
            d, NOT_RIGID, CITE_DEGENERATE,
            "all exponents are zero and the coefficients cancel, so the relation"
            " is zero; the quotient is a full polynomial ring and every coordinate"
            " derivation is a nonzero locally nilpotent derivation, but no"
            " presentation exists to attach a witness to",
        )
    if 0 in d.exponents:
        free = [role for role, e in zip(d.roles, d.exponents) if e == 0]
        images = {free[0]: Polynomial.constant(d.variables, 1)}
        return _verdict_with_witness(
            d, CITE_FREE_COORDINATE, images, f"exponent 0 leaves {free[0]} out of the relation"
        )
    if a == 1:
        return _triangular(d, x, z, "a = 1")
    if b == 1:
        return _triangular(d, y, z, "b = 1")
    if c == 1:
        return _triangular(d, z, x, "c = 1")
    g = gcd(gcd(a, b), c)
    if g > 1:
        return _verdict(
            d, RIGID, CITE_CASE1,
            f"exponent gcd {g} > 1: the hypersurface is not a domain, and the"
            " same theorem covers it",
        )
    return _verdict(d, RIGID, CITE_CASE1)


def _classify_fermat_3(d: FamilyDescriptor) -> Verdict:
    a, b, _ = d.exponents
    x, y, z = d.roles
    alpha, beta, _ = d.coefficients
    if a == 1:
        return _triangular(d, x, y, "smallest exponent is 1")
    if a == 2 and b == 2:
        return _two_squares(
            d, CITE_TWO_SQUARES, x, y, z, alpha, beta, "two smallest exponents are 2"
        )
    return _verdict(d, RIGID, CITE_KALZAI)


def _leftover_pattern(a: int, b: int, c: int, d: int) -> bool:
    if a % 6 != 0:
        return False
    if b == 3 and (c, d) == (2, 4):
        return True
    return b == 2 and c == 3 and d == 3


def _classify_mixed_four(desc: FamilyDescriptor) -> Verdict:
    a, b, c, d = desc.exponents
    x, y, z, t = desc.roles
    alpha, beta, gamma = desc.coefficients
    if b == 1:
        return _triangular(desc, y, z, "b = 1")
    if c == 1:
        return _triangular(desc, z, t, "c = 1")
    if c == 2 and d == 2:
        return _two_squares(desc, CITE_ZT_PRODUCT, z, t, y, beta, gamma, "c = d = 2")
    if b == 2 and c == 2 and a % 2 == 0:
        # After canonicalization c <= d, the exponent-2 pure slot is z.
        if alpha != beta:
            return _withheld(desc, CITE_EVEN_TWIST, "b = 2 with an even a", beta / alpha)
        g = _mono(desc.variables, 1, {x: a // 2, y: 1}) + _mono(desc.variables, -I, {z: 1})
        return _jacobian(
            desc, CITE_EVEN_TWIST, (y, z, t), g, -I, f"b = 2, c = 2 and a = {a} is even"
        )
    if _leftover_pattern(a, b, c, d):
        return _verdict(desc, UNKNOWN, CITE_LEFTOVER, "open exceptional pattern")
    return _verdict(desc, RIGID, CITE_ABCD)


def _cb4_ordering(ds: Sequence[int]) -> Optional[tuple[int, ...]]:
    for perm in permutations(range(4)):
        a, b, c, d = (ds[i] for i in perm)
        if gcd(a * b, c) == 1 and gcd(a * b * c, d) == 1 and gcd(a, b) not in (a, b):
            return perm
    return None


def _classify_fermat_n(desc: FamilyDescriptor) -> Verdict:
    ds = desc.exponents
    n = len(ds)
    roles = desc.roles
    coeffs = desc.coefficients

    def smallest_except(*skip: int) -> int:
        return min((i for i in range(n) if i not in skip), key=lambda i: (ds[i], i))

    if 1 in ds:
        j = ds.index(1)
        return _triangular(desc, roles[j], roles[smallest_except(j)], f"exponent 1 in slot {j + 1}")
    squares = [i for i, e in enumerate(ds) if e == 2]
    if len(squares) >= 2:
        j, k = squares[:2]
        return _two_squares(
            desc, CITE_TWO_SQUARES, roles[j], roles[k], roles[smallest_except(j, k)],
            coeffs[j], coeffs[k], f"two exponents equal 2 (slots {j + 1} and {k + 1})",
        )
    trace: list[str] = []
    if n == 4:
        perm = _cb4_ordering(ds)
        if perm is not None:
            a, b, c, d = (ds[i] for i in perm)
            return _verdict(
                desc, RIGID, CITE_CB4,
                f"ordering (a,b,c,d) = ({a},{b},{c},{d}) satisfies"
                f" gcd({a * b},{c}) = gcd({a * b * c},{d}) = 1 and"
                f" gcd({a},{b}) = {gcd(a, b)}",
            )
        trace.append("CB4: no ordering satisfies the gcd conditions")
    # EX1 is the paper's lemma on the ring; check_fermat_sum decides its exponent
    # hypotheses (every d_i >= 2, gcd 1, reciprocal sum <= 1/(n-2)).  Its coprime
    # scope bounds its own certificate on polynomial solutions, not this verdict.
    sum_rule = check_fermat_sum(list(ds))
    if sum_rule.status == OBSTRUCTED:
        return _verdict(desc, RIGID, CITE_EX1, f"EX1: {sum_rule.detail}")
    trace.append(f"EX1: {sum_rule.detail}")
    return _verdict(desc, UNKNOWN, CITE_OPEN, *trace)


def _classify_danielewski(desc: FamilyDescriptor) -> Verdict:
    (d,) = desc.exponents
    if desc.tail is None:
        return _verdict(
            desc, UNKNOWN, CITE_OPEN,
            "the tail is not a polynomial in y alone, so no catalog rule applies",
        )
    p = desc.tail
    if p[0].is_zero:
        return _verdict(
            desc, OUT_OF_SCOPE, CITE_OUT_OF_SCOPE,
            "P(0) = 0 breaks the family's defining hypothesis",
        )
    deg_p = len(p) - 1
    if d >= 2 and deg_p <= (d - 1) ** 2:
        return _verdict(desc, RIGID, CITE_EX2T, f"deg(P) = {deg_p} <= (d-1)^2 = {(d - 1) ** 2}")
    # P = y*Q(y) + P(0); a monomial Q = c*y^e turns the unit equation into
    # F^d + c*H^(d+e) = 1, settled by the two-power rule.  Its target is a
    # nonzero constant, so a common factor of F and H is a unit: the rule
    # needs P(0) != 0 and d, d + e >= 2, and no coprime scope.
    monomial_slots = [e for e, cf in enumerate(p[1:]) if not cf.is_zero]
    if len(monomial_slots) == 1 and monomial_slots[0] >= 2:
        e = monomial_slots[0]
        rule = check_mini_mason(d, d + e)
        if rule.status == OBSTRUCTED:
            return _verdict(desc, RIGID, CITE_MINIMASON, f"tail Q = c*y^{e}: {rule.detail}")
    return _verdict(
        desc, UNKNOWN, CITE_OPEN,
        f"deg(P) = {deg_p} exceeds (d-1)^2 = {(d - 1) ** 2} and the tail is"
        " not a monomial obstruction",
    )
