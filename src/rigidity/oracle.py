"""Parametrization oracle: verify, obstruct, or brute-force search.

A parametrization problem asks for tuples of nonzero univariate
polynomials (f_1, .., f_n) making a relation P(f_1, .., f_n) either vanish
or equal a nonzero constant.  Three independent tools answer it at desk
scale:

- verify_parametrization substitutes a candidate tuple exactly;
- parametrization_obstructed reads the relation's exponent pattern with the
  catalog matchers (`families.recognize_family`), in distinct letters, and
  delegates to the closed-form certificates in `mason`;
- bounded_search enumerates all tuples with small integer (optionally
  Gaussian-integer) coefficients, as an oracle that is deliberately weaker
  than the certificates: NoneWithinBounds proves nothing.

The search works on plain int pairs (re, im).  Each level lists its
nonzero coefficient vectors once, with their values at one or two integer
filter points: the filter rejects a leaf unless the relation vanishes at the
point (zero target) or takes one nonzero value at both (unit target), and a
leaf that passes is decided by exact substitution (verify_parametrization).
The trailing levels b..last run as one block, one row per choice of them.  A
row adds a value at each point that depends only on the outer levels whose
variable shares a term with the block.  A block of cached levels is indexed
by that value, once per choice of those shared levels (once per search if
there are none), when some outer level shares no term with it and the index
entries stay within the table cap; the block with the fewest outer choices
plus index entries is taken, so the outer levels are walked once per choice
and the block is looked up, not walked (a meet in the middle).  Without such
a block the last level is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional, Sequence, Union

from .families import FERMAT_3, FERMAT_N, MIXED_FOUR, THREE_TERM_XY, recognize_family
from .gauss import GaussianRational, ScalarLike
from .mason import (
    ObstructionVerdict,
    check_double_mason,
    check_extended_mini_mason,
    check_fermat_sum,
    check_mini_mason,
    check_twisted_mason,
)
from .poly import GaussianInt, Polynomial, _integral, gaussian_pow

HOMOGENEOUS_ZERO = "zero"
UNIT_TARGET = "unit"

FOUND = "Found"
NONE_WITHIN_BOUNDS = "NoneWithinBounds"

DEFAULT_CEILING = 10_000_000
DEFAULT_WINDOW = 2


class UnsupportedShapeError(ValueError):
    """The relation does not match any supported obstruction pattern."""


class SearchSpaceError(ValueError):
    """The requested search space exceeds the tuple ceiling."""


@dataclass(frozen=True)
class ParametrizationProblem:
    relation: Polynomial
    constraint: str
    degree_bounds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.constraint not in (HOMOGENEOUS_ZERO, UNIT_TARGET):
            raise ValueError(
                f"constraint must be {HOMOGENEOUS_ZERO!r} or {UNIT_TARGET!r}"
            )
        if self.relation.is_zero or self.relation.is_constant:
            raise ValueError("the relation must be nonconstant")
        object.__setattr__(self, "degree_bounds", tuple(self.degree_bounds))
        if self.degree_bounds and len(self.degree_bounds) != len(self.relation.variables):
            raise ValueError("one degree bound per relation variable")
        if any(not isinstance(d, int) or d < 0 for d in self.degree_bounds):
            raise ValueError("degree bounds must be nonnegative integers")


@dataclass(frozen=True)
class ParametrizationCheck:
    ok: bool
    residual: Polynomial


def verify_parametrization(
    problem: ParametrizationProblem,
    candidates: Sequence[Union[Polynomial, ScalarLike]],
) -> ParametrizationCheck:
    """Substitute one candidate per relation variable and test the constraint.

    The residual is the substituted value itself, so a failing check shows
    what the relation actually evaluated to.
    """
    variables = problem.relation.variables
    if len(candidates) != len(variables):
        raise ValueError(f"expected {len(variables)} candidates, got {len(candidates)}")
    target = None
    for cand in candidates:
        if isinstance(cand, Polynomial):
            target = cand.variables
            break
    if target is None:
        target = ("S",)
    images = {}
    for name, cand in zip(variables, candidates):
        if not isinstance(cand, Polynomial):
            cand = Polynomial.constant(target, cand)
        images[name] = cand
    value = problem.relation.substitute(images)
    if problem.constraint == HOMOGENEOUS_ZERO:
        ok = value.is_zero
    else:
        ok = value.is_constant and not value.is_zero
    return ParametrizationCheck(ok=ok, residual=value)


def parametrization_obstructed(problem: ParametrizationProblem) -> ObstructionVerdict:
    """Read the exponent pattern of the relation and run its certificate.

    Supported shapes, each letter a distinct relation variable and every
    relation variable taking part:
      unit target:  u^a + v^b            -> minimason(a, b)
                    u^a + v^b*Q(v)       -> extendedminimason(a, b, deg Q)
                    u^a*v^b + w^c        -> twistedmason(a, b, c)
      zero target:  u^a*v^b + w^c + s^d  -> doublemason(a, b, c, d)
                    pure powers, n >= 3  -> ex1(d_1..d_n)
    The two-variable shapes are read here from their pure terms, the others
    by recognize_family as ThreeTermXY, MixedFour, Fermat3 and FermatN, with
    its exponent order (MixedFour: a >= b, c <= d; Fermat3 ascends).
    """
    relation = problem.relation
    variables = relation.variables
    if set(relation.occurring_variables()) != set(variables):
        raise UnsupportedShapeError(
            "every relation variable must occur for a pattern certificate"
        )
    unit = problem.constraint == UNIT_TARGET
    if unit and len(variables) == 2:
        powers: tuple[list[int], list[int]] = ([], [])
        for exps in relation.terms:
            if (exps[0] == 0) == (exps[1] == 0):  # a constant or a mixed term
                break
            powers[exps[0] == 0].append(max(exps))
        else:
            # u is the variable with one term, the first one on a tie.
            u, v = sorted(powers, key=len)
            if len(u) == 1:
                b = min(v)
                if len(v) == 1:
                    return check_mini_mason(u[0], b)
                return check_extended_mini_mason(u[0], b, max(v) - b)
    family = recognize_family(relation)
    if unit:
        if family.kind == THREE_TERM_XY:
            return check_twisted_mason(*family.exponents)
    elif family.kind == MIXED_FOUR:
        return check_double_mason(*family.exponents)
    elif family.kind in (FERMAT_3, FERMAT_N):
        return check_fermat_sum(family.exponents)
    raise UnsupportedShapeError(
        f"no supported {problem.constraint}-target pattern matches the relation"
    )


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    candidates: tuple[Polynomial, ...] | None
    examined: int

    @property
    def found(self) -> bool:
        return self.status == FOUND


# Integer points for the leaf filter: a zero target is tested at the first,
# a unit target at both.
_FILTER_POINTS = (7, 11)
# A level with at most this many nonzero coefficient vectors keeps its table
# for the whole search; a larger one is enumerated again on every visit.  The
# indexed block's indexes, one per choice of the levels it shares a term
# with, hold at most this many entries in all.
_TABLE_CAP = 4096


def _values_at(vector: tuple[GaussianInt, ...], points: Sequence[int]) -> list[GaussianInt]:
    """The Gaussian-integer values at the integer points of a coefficient
    vector (constant term first), by Horner's rule."""
    values = []
    for x in points:
        re = im = 0
        for cr, ci in reversed(vector):
            re, im = re * x + cr, im * x + ci
        values.append((re, im))
    return values


def bounded_search(
    problem: ParametrizationProblem,
    *,
    coefficient_window: int = DEFAULT_WINDOW,
    gaussian: bool = False,
    variable: str = "S",
) -> SearchOutcome:
    """Exhaust all candidate tuples with coefficients in the window.

    Coefficients range over the integers -w..w (or, with gaussian=True, the
    Gaussian integers with |re|, |im| <= w).  Candidates are tuples of
    nonzero polynomials - the same domain the obstruction certificates
    quantify over (a zero component collapses its term and says nothing
    about the pattern) - with at least one nonconstant component, unless
    every degree bound is 0, in which case the nonzero constant tuples are
    the entire search space.  Enumeration order is deterministic:
    per-variable coefficient vectors ascend lexicographically from the
    constant term, values ordered by (re, im).  A search space of more
    than DEFAULT_CEILING tuples raises SearchSpaceError.

    A filter evaluates the substituted relation on exact Gaussian-integer
    values at one integer point (zero target: the value must be 0) or two
    (unit target: the values must be equal and nonzero).  A leaf that
    passes is decided by exact substitution with verify_parametrization;
    the first tuple it accepts is the hit.

    The trailing levels b..last (b >= 1) form a block with one row per
    choice of them, in enumeration order.  A row adds a value at each point
    that depends only on the outer levels whose variable shares a term with
    the block.  A block is admissible if its levels are cached, some outer
    level shares no term with it, and the product of the shared levels' row
    counts times the block's row count is at most _TABLE_CAP.  Of the
    admissible blocks the one with the least product of the outer row counts
    plus index entries is taken (the shorter one on a tie), and its rows are
    indexed by the value they add at the first point (zero target) or by its
    difference between the two points (unit target).  One index is built,
    when first needed, for each choice of the shared levels (one for the
    whole search if there is no shared level), and each choice of the outer
    levels then visits only the rows that pass.  With no admissible block
    the last level is scanned.  Either way `examined` counts the block's
    rows up to the hit, or all of them, as a scan of the levels would.
    """
    bounds = problem.degree_bounds
    if not bounds:
        raise ValueError("the problem carries no degree bounds to search")
    if coefficient_window < 0:
        raise ValueError("coefficient window must be nonnegative")
    # Count the window before listing it, so an oversized space allocates
    # nothing.  The space is count ** (sum of d + 1); a count of 2 or more
    # passes the ceiling within DEFAULT_CEILING.bit_length() factors, so the
    # exponent is capped there and a huge degree bound forms no huge power.
    width = 2 * coefficient_window + 1
    count = width * width if gaussian else width
    levels = min(sum(d + 1 for d in bounds), DEFAULT_CEILING.bit_length())
    if count ** levels > DEFAULT_CEILING:
        raise SearchSpaceError(f"search space exceeds the ceiling of {DEFAULT_CEILING} tuples")
    if count == 1:  # a one-value window lists only zero vectors: no candidate
        return SearchOutcome(status=NONE_WITHIN_BOUNDS, candidates=None, examined=0)
    window = range(-coefficient_window, coefficient_window + 1)
    values = [(re, im) for re in window for im in (window if gaussian else (0,))]
    allow_constant = all(d == 0 for d in bounds)

    relation = problem.relation
    n = len(relation.variables)
    # Clear denominators so every leaf works in Gaussian integers; scaling by
    # a positive integer changes neither vanishing nor unit-ness.
    terms = list(zip(relation.terms, _integral(list(relation.terms.values()))))
    want_zero = problem.constraint == HOMOGENEOUS_ZERO
    points = _FILTER_POINTS[:1] if want_zero else _FILTER_POINTS

    # A slot is one term at one filter point; level i multiplies the slots
    # of the terms that contain its variable.
    slots = [(exps, k, x) for exps, _ in terms for k, x in enumerate(points)]
    coeffs = [coeff for _, coeff in terms for _ in points]
    active = [[s for s, (exps, _, _) in enumerate(slots) if exps[i]] for i in range(n)]

    def rows(i: int):
        """Level i's nonzero vectors in enumeration order, each (as a
        one-tuple, the row of a one-level block) with its nonconstant flag
        and its powered value in every active slot."""
        zero = ((0, 0),) * (bounds[i] + 1)
        level_slots = [(slots[s][1], slots[s][0][i]) for s in active[i]]
        for vector in product(values, repeat=bounds[i] + 1):
            if vector == zero:
                continue
            at = _values_at(vector, points) if level_slots else ()
            yield (
                (vector,),
                vector[1:] != zero[1:],
                tuple([gaussian_pow(at[k], e) for k, e in level_slots]),
            )

    # The outermost level is visited once; an inner one is cached if small.
    sizes = [len(values) ** (d + 1) - 1 for d in bounds]
    tables = [list(rows(i)) if 0 < i and sizes[i] <= _TABLE_CAP else None for i in range(n)]

    # The block b..last runs as one level.  A row adds w_k at filter point k,
    # fixed by the partials of the block's slots, which only the outer levels
    # sharing a slot with it change; an indexed block is keyed by the value a
    # passing leaf needs: w_0 (zero target) or w_0 - w_1 (unit).  Of the
    # admissible blocks take the one with the fewest outer choices plus index
    # entries, the shorter on a tie; with none, scan the last level.
    last = n - 1
    b, shared, best = last, [], None
    for start in range(last, 0, -1):
        if tables[start] is None:
            break
        touched = set().union(*active[start:])
        outer = [i for i in range(start) if touched.intersection(active[i])]
        entries = prod(sizes[i] for i in outer) * prod(sizes[start:])
        cost = prod(sizes[:start]) + entries
        if len(outer) < start and entries <= _TABLE_CAP and (best is None or cost < best):
            b, shared, best = start, outer, cost
    indexed = best is not None
    block_slots = sorted(set().union(*active[b:]))
    block_size = prod(sizes[b:])
    place = {s: p for p, s in enumerate(block_slots)}
    # The slots the block leaves alone, by their place in the sums.
    rest = [(s, 2 * k) for s, (_, k, _) in enumerate(slots) if s not in place]

    def block_rows():
        """One row per choice of the block levels in enumeration order: the
        vectors, whether any is nonconstant, and in each block slot the
        product of the block levels' powered values."""
        places = [[place[s] for s in active[j]] for j in range(b, n)]
        for choice in product(*tables[b:]):
            vectors, nonconstant, level_powers = zip(*choice)
            powered = [(1, 0)] * len(block_slots)
            for level_places, level_powered in zip(places, level_powers):
                for p, (vr, vi) in zip(level_places, level_powered):
                    pr, pi = powered[p]
                    powered[p] = (pr * vr - pi * vi, pr * vi + pi * vr)
            yield sum(vectors, ()), any(nonconstant), powered

    # A one-level block is its level's table, or streamed if not cached.
    block = tables[last] if b == last else list(block_rows())
    chosen: list[tuple[GaussianInt, ...]] = [()] * n
    examined = 0
    hinge = shared[-1] if shared else -1
    indexes: dict[tuple[GaussianInt, ...], dict] = {}

    def lookup(partials: list[GaussianInt]) -> dict:
        """The index of the block's rows for the partials of its slots."""
        key = tuple(partials[s] for s in block_slots)
        if key not in indexes:
            by_value = indexes[key] = {}
            factors = [(*partials[s], 2 * slots[s][1]) for s in block_slots]
            for pos, (_, _, powered) in enumerate(block):
                w = [0, 0] * len(points)
                for (pr, pi, k), (vr, vi) in zip(factors, powered):
                    w[k] += pr * vr - pi * vi
                    w[k + 1] += pr * vi + pi * vr
                sought = (w[0], w[1]) if want_zero else (w[0] - w[2], w[1] - w[3])
                by_value.setdefault(sought, []).append((pos, w[0], w[1]))
        return indexes[key]

    index = lookup(coeffs) if indexed and not shared else None

    def scan(base: list[int], partials: list[GaussianInt]):
        """The block's rows that pass the filter, with their positions: add
        each row's products to the fixed sums."""
        factors = [(*partials[s], 2 * slots[s][1]) for s in block_slots]
        for pos, (vectors, nonconstant, powered) in enumerate(
            block if block is not None else rows(last)
        ):
            sums = base[:]
            for (pr, pi, k), (vr, vi) in zip(factors, powered):
                sums[k] += pr * vr - pi * vi
                sums[k + 1] += pr * vi + pi * vr
            if want_zero:
                if sums[0] or sums[1]:
                    continue
            elif sums[0] != sums[2] or sums[1] != sums[3] or not (sums[0] or sums[1]):
                continue
            yield pos, vectors, nonconstant

    def leaves(
        partials: list[GaussianInt], nonconstant_seen: bool
    ) -> Optional[tuple[Polynomial, ...]]:
        """Run the block against fixed partials: sum the slots it leaves
        alone once, then look up (or scan for) the rows that pass.  The rows
        up to the hit, or all of them, count as examined."""
        nonlocal examined
        base = [0, 0] * len(points)
        for s, k in rest:
            re, im = partials[s]
            base[k] += re
            base[k + 1] += im
        if index is None:
            passing = scan(base, partials)
        else:
            key = (-base[0], -base[1]) if want_zero else (base[2] - base[0], base[3] - base[1])
            if key not in index:
                examined += block_size
                return None
            passing = (
                (pos, *block[pos][:2])
                for pos, wr, wi in index[key]
                if want_zero or base[0] + wr or base[1] + wi
            )
        for pos, vectors, nonconstant in passing:
            if not (nonconstant_seen or nonconstant or allow_constant):
                continue
            chosen[b:] = vectors
            found = tuple(_vector_to_polynomial(vec, variable) for vec in chosen)
            if verify_parametrization(problem, found).ok:
                examined += pos + 1
                return found
        examined += block_size
        return None

    def descend(
        i: int, partials: list[GaussianInt], nonconstant_seen: bool
    ) -> Optional[tuple[Polynomial, ...]]:
        nonlocal index
        if i == b:
            return leaves(partials, nonconstant_seen)
        level = tables[i] if tables[i] is not None else rows(i)
        for (vector,), nonconstant, powered in level:
            below = partials[:]
            for s, (vr, vi) in zip(active[i], powered):
                pr, pi = below[s]
                below[s] = (pr * vr - pi * vi, pr * vi + pi * vr)
            if i == hinge:
                index = lookup(below)
            chosen[i] = vector
            found = descend(i + 1, below, nonconstant_seen or nonconstant)
            if found is not None:
                return found
        return None

    found = descend(0, coeffs, False)
    status = NONE_WITHIN_BOUNDS if found is None else FOUND
    return SearchOutcome(status=status, candidates=found, examined=examined)


def _vector_to_polynomial(
    vector: tuple[tuple[int, int], ...], variable: str
) -> Polynomial:
    terms = {}
    for degree, (re, im) in enumerate(vector):
        if re or im:
            terms[(degree,)] = GaussianRational(re, im)
    return Polynomial((variable,), terms)


def remark_family_candidates(
    alpha: Union[Polynomial, ScalarLike],
    f_tilde: Polynomial,
    h_tilde: Polynomial,
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The explicit solution family for X^3*Y + Z^3*Y + Z^4 = 0.

    Given alpha, u, v (univariate), returns
        (alpha*u*(u^3+v^3), -alpha*v^4, alpha*v*(u^3+v^3)),
    which satisfies x^3*y + y*z^3 + z^4 = 0 identically.
    """
    if not isinstance(alpha, Polynomial):
        alpha = Polynomial.constant(f_tilde.variables, alpha)
    cube_sum = f_tilde**3 + h_tilde**3
    return (
        alpha * f_tilde * cube_sum,
        -(alpha * h_tilde**4),
        alpha * h_tilde * cube_sum,
    )
