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

The search runs on dense coefficient vectors of plain int pairs (re, im),
which keeps the inner loop allocation-light; any hit is re-verified with the
exact arithmetic before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import Sequence, Union

from .gauss import GaussianRational, ScalarLike
from .mason import (
    ObstructionVerdict,
    check_double_mason,
    check_extended_mini_mason,
    check_fermat_sum,
    check_mini_mason,
    check_twisted_mason,
)
from .poly import Polynomial

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


# --- dense Gaussian-integer polynomial helpers (coefficient fast path) ---

_GPoly = list[tuple[int, int]]


def _gmul(p: _GPoly, q: _GPoly) -> _GPoly:
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        if a == 0 and b == 0:
            continue
        for j, (c, d) in enumerate(q):
            if c == 0 and d == 0:
                continue
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _gpow(p: _GPoly, e: int, cache: dict[int, _GPoly]) -> _GPoly:
    if e in cache:
        return cache[e]
    result = _gmul(_gpow(p, e - 1, cache), p)
    cache[e] = result
    return result


def _is_constant_vector(coeffs: tuple[tuple[int, int], ...]) -> bool:
    return all(c == (0, 0) for c in coeffs[1:])


def bounded_search(
    problem: ParametrizationProblem,
    *,
    coefficient_window: int = DEFAULT_WINDOW,
    gaussian: bool = False,
    ceiling: int = DEFAULT_CEILING,
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
    constant term, values ordered by (re, im).  Any hit is re-verified with
    exact arithmetic before being reported.
    """
    bounds = problem.degree_bounds
    if not bounds:
        raise ValueError("the problem carries no degree bounds to search")
    if coefficient_window < 0:
        raise ValueError("coefficient window must be nonnegative")
    if gaussian:
        values = [
            (re, im)
            for re in range(-coefficient_window, coefficient_window + 1)
            for im in range(-coefficient_window, coefficient_window + 1)
        ]
    else:
        values = [(re, 0) for re in range(-coefficient_window, coefficient_window + 1)]
    space = 1
    for d in bounds:
        space *= len(values) ** (d + 1)
    if space > ceiling:
        raise SearchSpaceError(
            f"search space of {space} tuples exceeds the ceiling {ceiling}"
        )
    allow_constant = all(d == 0 for d in bounds)

    relation = problem.relation
    variables = relation.variables
    n = len(variables)
    # Clear denominators so every leaf works in Gaussian integers; scaling by
    # a positive rational changes neither vanishing nor unit-ness.
    scale = lcm(
        *(
            part.denominator
            for coeff in relation.terms.values()
            for part in (coeff.re, coeff.im)
        )
    )
    term_list = [
        (
            exps,
            [(int(coeff.re * scale), int(coeff.im * scale))],
        )
        for exps, coeff in relation.terms.items()
    ]
    want_zero = problem.constraint == HOMOGENEOUS_ZERO

    chosen: list[tuple[tuple[int, int], ...]] = [()] * n
    examined = 0

    def leaf_ok(partials: list[_GPoly]) -> bool:
        width = max(len(p) for p in partials)
        total_re = [0] * width
        total_im = [0] * width
        for p in partials:
            for k, (re, im) in enumerate(p):
                total_re[k] += re
                total_im[k] += im
        if any(total_re[k] or total_im[k] for k in range(1, width)):
            return False
        if want_zero:
            return total_re[0] == 0 and total_im[0] == 0
        return total_re[0] != 0 or total_im[0] != 0

    def recurse(i: int, partials: list[_GPoly], nonconstant_seen: bool) -> bool:
        nonlocal examined
        if i == n:
            examined += 1
            if not nonconstant_seen and not allow_constant:
                return False
            return leaf_ok(partials)
        for vector in product(values, repeat=bounds[i] + 1):
            if all(c == (0, 0) for c in vector):
                continue
            cand: _GPoly = list(vector)
            powers: dict[int, _GPoly] = {0: [(1, 0)], 1: cand}
            next_partials = []
            for (exps, _), partial in zip(term_list, partials):
                e = exps[i]
                next_partials.append(
                    partial if e == 0 else _gmul(partial, _gpow(cand, e, powers))
                )
            chosen[i] = vector
            if recurse(
                i + 1,
                next_partials,
                nonconstant_seen or not _is_constant_vector(vector),
            ):
                return True
        return False

    initial = [coeff_poly for _, coeff_poly in term_list]
    if recurse(0, initial, False):
        found = tuple(
            _vector_to_polynomial(vec, variable) for vec in chosen
        )
        check = verify_parametrization(problem, found)
        if not check.ok:
            raise RuntimeError("search hit failed exact re-verification")
        return SearchOutcome(status=FOUND, candidates=found, examined=examined)
    return SearchOutcome(status=NONE_WITHIN_BOUNDS, candidates=None, examined=examined)


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
