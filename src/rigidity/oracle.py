"""Parametrization oracle: verify, obstruct, or brute-force search.

A parametrization problem asks for tuples of nonzero univariate
polynomials (f_1, .., f_n) making a relation P(f_1, .., f_n) either vanish
or equal a nonzero constant.  Three independent tools answer it at desk
scale:

- verify_parametrization substitutes a candidate tuple exactly;
- parametrization_obstructed extracts an exponent pattern from the relation
  and delegates to the closed-form certificates in `mason`;
- bounded_search enumerates all tuples with small integer (optionally
  Gaussian-integer) coefficients, as an oracle that is deliberately weaker
  than the certificates: NoneWithinBounds proves nothing.

The search works on plain int pairs (re, im).  Each level lists its
nonzero coefficient vectors once, with their values at one or two integer
filter points: the filter rejects a leaf unless the relation vanishes at the
point (zero target) or takes one nonzero value at both (unit target), and a
leaf that passes is decided by exact substitution (verify_parametrization).
When the last variable occurs only in terms of its own and its level is
cached, each of its rows adds a fixed value at each point, so the rows are
indexed by that value and the last level is looked up, not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence, Union

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
    """Extract the exponent pattern of the relation and run its certificate.

    Supported shapes (every relation variable must take part):
      unit target:  u^a + v^b            -> minimason(a, b)
                    u^a + v^b*Q(v)       -> extendedminimason(a, b, deg Q)
                    u^a*v^b + w^c        -> twistedmason(a, b, c)
      zero target:  u^a*v^b + w^c + s^d  -> doublemason(a, b, c, d)
                    pure powers, n >= 3  -> ex1(d_1..d_n)
    """
    relation = problem.relation
    variables = relation.variables
    if set(relation.occurring_variables()) != set(variables):
        raise UnsupportedShapeError(
            "every relation variable must occur for a pattern certificate"
        )
    # Group the terms by support.
    pure: dict[int, list[int]] = {}
    mixed: list[tuple[int, ...]] = []
    for exps in relation.terms:
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            pure.setdefault(support[0], []).append(exps[support[0]])
        else:
            mixed.append(exps)
    if problem.constraint == UNIT_TARGET:
        if not mixed and len(pure) == 2:
            (first, second) = sorted(pure, key=lambda i: (len(pure[i]), i))
            if len(pure[first]) == 1:
                a = pure[first][0]
                exponents = sorted(pure[second])
                b = exponents[0]
                deg_q = exponents[-1] - b
                if len(exponents) == 1:
                    return check_mini_mason(a, b)
                return check_extended_mini_mason(a, b, deg_q)
        if len(mixed) == 1 and len(pure) == 1:
            exps = mixed[0]
            support = [i for i, e in enumerate(exps) if e]
            (pure_var,) = pure
            if len(support) == 2 and len(pure[pure_var]) == 1:
                a, b = (exps[i] for i in support)
                return check_twisted_mason(a, b, pure[pure_var][0])
    else:
        if len(mixed) == 1 and len(pure) == 2 and all(
            len(es) == 1 for es in pure.values()
        ):
            exps = mixed[0]
            support = [i for i, e in enumerate(exps) if e]
            if len(support) == 2:
                a, b = (exps[i] for i in support)
                c, d = (pure[i][0] for i in sorted(pure))
                return check_double_mason(a, b, c, d)
        if not mixed and len(pure) >= 3 and all(len(es) == 1 for es in pure.values()):
            ds = [pure[i][0] for i in sorted(pure)]
            return check_fermat_sum(ds)
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
# for the whole search; a larger one is enumerated again on every visit.
_TABLE_CAP = 4096


def _value_at(vector: tuple[GaussianInt, ...], x: int) -> GaussianInt:
    """The Gaussian-integer value at the integer x of a coefficient vector
    (constant term first), by Horner's rule."""
    re = im = 0
    for cr, ci in reversed(vector):
        re, im = re * x + cr, im * x + ci
    return re, im


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

    If the last level is cached and every term with the last variable has
    no other variable, the level's rows are indexed by the value they add
    at the first point (zero target) or by its difference between the two
    points (unit target); each leaf then visits only the rows that pass.
    `examined` counts the rows up to the hit, or all of them, as a scan of
    the level would.
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
        """Level i's nonzero vectors in enumeration order, each with its
        nonconstant flag and its powered value in every active slot."""
        zero = ((0, 0),) * (bounds[i] + 1)
        level_slots = [(slots[s][2], slots[s][0][i]) for s in active[i]]
        for vector in product(values, repeat=bounds[i] + 1):
            if vector == zero:
                continue
            yield (
                vector,
                vector[1:] != zero[1:],
                tuple(gaussian_pow(_value_at(vector, x), e) for x, e in level_slots),
            )

    # The outermost level is visited once; an inner one is cached if small.
    tables = [
        list(rows(i)) if 0 < i and len(values) ** (d + 1) - 1 <= _TABLE_CAP else None
        for i, d in enumerate(bounds)
    ]

    chosen: list[tuple[GaussianInt, ...]] = [()] * n
    examined = 0
    last = n - 1
    table = tables[last]
    last_rows = len(values) ** (bounds[last] + 1) - 1
    # The slots the last level leaves alone, by their place in the sums.
    rest = [(s, 2 * k) for s, (_, k, _) in enumerate(slots) if s not in active[last]]

    # When every term with the last variable has no other variable, a row of
    # the last level adds the same value w_k at filter point k whatever the
    # outer levels chose.  Its cached rows are then indexed by the value a
    # passing leaf needs from them: w_0 (zero target) or w_0 - w_1 (unit).
    index = None
    if table is not None and all(sum(map(bool, slots[s][0])) == 1 for s in active[last]):
        index = {}
        factors = [(*coeffs[s], 2 * slots[s][1]) for s in active[last]]
        for pos, (_, _, powered) in enumerate(table):
            w = [0, 0] * len(points)
            for (pr, pi, k), (vr, vi) in zip(factors, powered):
                w[k] += pr * vr - pi * vi
                w[k + 1] += pr * vi + pi * vr
            key = (w[0], w[1]) if want_zero else (w[0] - w[2], w[1] - w[3])
            index.setdefault(key, []).append((pos, w[0], w[1]))

    def scan(base: list[int], partials: list[GaussianInt]):
        """The last level's rows that pass the filter, with their positions:
        add each row's products to the fixed sums."""
        factors = [(*partials[s], 2 * slots[s][1]) for s in active[last]]
        for pos, (vector, nonconstant, powered) in enumerate(
            table if table is not None else rows(last)
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
            yield pos, vector, nonconstant

    def leaves(
        partials: list[GaussianInt], nonconstant_seen: bool
    ) -> Optional[tuple[Polynomial, ...]]:
        """Run the last level against fixed partials: sum the slots it
        leaves alone once, then look up (or scan for) the rows that pass.
        The rows up to the hit, or all of them, count as examined."""
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
            passing = (
                (pos, *table[pos][:2])
                for pos, wr, wi in index.get(key, ())
                if want_zero or base[0] + wr or base[1] + wi
            )
        for pos, vector, nonconstant in passing:
            if not (nonconstant_seen or nonconstant or allow_constant):
                continue
            chosen[last] = vector
            found = tuple(_vector_to_polynomial(vec, variable) for vec in chosen)
            if verify_parametrization(problem, found).ok:
                examined += pos + 1
                return found
        examined += last_rows
        return None

    def descend(
        i: int, partials: list[GaussianInt], nonconstant_seen: bool
    ) -> Optional[tuple[Polynomial, ...]]:
        if i == last:
            return leaves(partials, nonconstant_seen)
        level = tables[i] if tables[i] is not None else rows(i)
        for vector, nonconstant, powered in level:
            below = partials[:]
            for s, (vr, vi) in zip(active[i], powered):
                pr, pi = below[s]
                below[s] = (pr * vr - pi * vi, pr * vi + pi * vr)
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
