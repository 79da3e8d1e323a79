"""Mason-Stothers degree arithmetic for zero-sum polynomial tuples.

distinct_root_count computes N(h), the number of distinct roots in the
algebraic closure, via the gcd formula (valid in characteristic zero).
mason_check verifies the hypotheses of the generalized n-term inequality and
evaluates both degree bounds.  It converts each entry once to its dense
coefficient list over Z[i] and runs every gcd, root count and product on
those lists, building no Polynomial after the zero-sum checks.  It counts
N(f1*...*fn) with N(A*f) = N(A) + N(f) - N(gcd(A, f)), one gcd of the
running product with each later entry, so the full product's derivative is
never formed; the identity is exact for every tuple, coprime or not.  Nearly
every gcd is 1, and poly's kernel certifies those modulo a prime before its
subresultant PRS, which then runs only on pairs that share a factor or that
the prime cannot separate.  obstruction_check packages the closed-form
arithmetic certificates that rule out nonconstant parametrizations for the
supported exponent patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from .poly import GaussianInt, Polynomial, _gcd_pairs, _mul_pairs, _univariate_lists

# Subset enumeration is exponential in the tuple length; every use in the
# source material has n <= 4, so a hard cap keeps the check predictable.
MAX_TUPLE_LENGTH = 12

OBSTRUCTED = "Obstructed"
NOT_OBSTRUCTED = "NotObstructed"
HYPOTHESIS_NOT_MET = "HypothesisNotMet"
COPRIME_SCOPE = "pairwise coprime entries, not all constant"


def distinct_root_count(h: Polynomial) -> int:
    """N(h) = deg(h) - deg(gcd(h, h')) for nonzero univariate h, by
    _root_count on h's dense coefficient list."""
    if h.is_zero:
        raise ValueError("the zero polynomial has no root count")
    _, (a,) = _univariate_lists((h,))
    return _root_count(a)


def _root_count(a: list[GaussianInt]) -> int:
    """N(a) = deg(a) - deg(gcd(a, a')) for a nonzero dense list over Z[i]."""
    if len(a) == 1:
        return 0
    derivative = [(e * x, e * y) for e, (x, y) in enumerate(a)][1:]
    return len(a) - len(_gcd_pairs(a, derivative))


@dataclass(frozen=True)
class MasonReport:
    hypotheses_ok: bool
    violation: str | None
    max_degree: int
    distinct_roots_each: tuple[int, ...]
    distinct_roots_product: int
    bound_product: int
    bound_sum: int
    holds_product: bool
    holds_sum: bool
    all_constant: bool


def mason_check(fs: Sequence[Polynomial]) -> MasonReport:
    """Check hypotheses and both inequalities for a zero-sum tuple.

    Structural preconditions (length, nonzero entries, zero sum) raise;
    a zero-sum subset with nonunit gcd is reported via hypotheses_ok=False
    rather than raised, since that is a finding about the tuple.

    distinct_roots_product is N(f1*...*fn), folded over the entries as
    N(A*f) = N(A) + N(f) - N(gcd(A, f)) with A = f1*...*f(k-1), f = fk.  The
    roots of gcd(A, f) are exactly the roots A and f share, so the count is
    exact without coprimality; the tuples that violate the hypotheses get
    their true N(product) too.  The product's derivative is never formed.
    After the zero-sum checks each entry becomes, once, its dense list over
    Z[i], which only rescales it; every gcd, root count and the running
    product (which skips zero coefficients) then run on those lists.
    """
    fs = list(fs)
    n = len(fs)
    if n < 3:
        raise ValueError("need at least 3 polynomials")
    if n > MAX_TUPLE_LENGTH:
        raise ValueError(f"tuple length {n} exceeds the cap {MAX_TUPLE_LENGTH}")
    if any(f.is_zero for f in fs):
        raise ValueError("zero entries are not allowed")
    total = fs[0]
    for f in fs[1:]:
        total = total + f
    if not total.is_zero:
        raise ValueError("the tuple does not sum to zero")
    _, lists = _univariate_lists(fs)
    violation = None
    for size in range(2, n + 1):
        for idx in combinations(range(n), size):
            subset_sum = fs[idx[0]]
            for i in idx[1:]:
                subset_sum = subset_sum + fs[i]
            if not subset_sum.is_zero:
                continue
            g = lists[idx[0]]
            for i in idx[1:]:
                g = _gcd_pairs(g, lists[i])
                if len(g) == 1:
                    break
            if len(g) > 1:
                violation = (
                    f"zero-sum subset {tuple(i + 1 for i in idx)} has "
                    f"nonconstant gcd of degree {len(g) - 1}"
                )
                break
        if violation:
            break

    roots_each = tuple(_root_count(a) for a in lists)
    running = lists[0]
    roots_product = roots_each[0]
    for i in range(1, n):
        roots_product += roots_each[i] - _root_count(_gcd_pairs(running, lists[i]))
        if i < n - 1:
            running = _mul_pairs(running, lists[i])
    max_degree = max(len(a) for a in lists) - 1
    bound_product = (n - 1) * (n - 2) // 2 * roots_product
    bound_sum = (n - 2) * sum(roots_each)
    return MasonReport(
        hypotheses_ok=violation is None,
        violation=violation,
        max_degree=max_degree,
        distinct_roots_each=roots_each,
        distinct_roots_product=roots_product,
        bound_product=bound_product,
        bound_sum=bound_sum,
        holds_product=max_degree < bound_product,
        holds_sum=max_degree < bound_sum,
        all_constant=max_degree == 0,
    )


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of a closed-form parametrization obstruction.

    Obstructed: the cited inequality holds, so no tuple of nonzero
    polynomials with a nonconstant entry satisfies the pattern.  For the
    zero-target patterns (doublemason, ex1) the claim covers only tuples
    whose entries are pairwise coprime and not all constant, the
    Mason-Stothers hypothesis: both shapes are weighted homogeneous, so
    entries sharing a common factor can solve them.  scope names that
    restriction (COPRIME_SCOPE); it is None for the nonzero-constant
    targets, where a common factor would divide the constant.
    NotObstructed: the inequality fails - the certificate is silent, which
    proves nothing about existence.  HypothesisNotMet: a structural
    hypothesis (not the inequality) fails.
    """

    status: str
    rule: str
    detail: str
    scope: str | None = None

    @property
    def obstructed(self) -> bool:
        return self.status == OBSTRUCTED


def _require_positive(**params: int) -> None:
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"parameter {name} must be a positive integer, got {value!r}")


def check_mini_mason(a: int, b: int) -> ObstructionVerdict:
    """f^a + g^b a nonzero constant forces f, g constant when a, b >= 2."""
    _require_positive(a=a, b=b)
    if a >= 2 and b >= 2:
        return ObstructionVerdict(
            OBSTRUCTED, "minimason", f"a={a} >= 2 and b={b} >= 2"
        )
    return ObstructionVerdict(
        NOT_OBSTRUCTED, "minimason", f"needs a, b >= 2; got a={a}, b={b}"
    )


def check_extended_mini_mason(a: int, b: int, deg_q: int) -> ObstructionVerdict:
    """f^a + g^b*Q(g) a nonzero constant, Q != 0: obstructed when
    deg(Q) + 1 <= (a-1)(b-1)."""
    _require_positive(a=a, b=b)
    if not isinstance(deg_q, int) or isinstance(deg_q, bool) or deg_q < 0:
        raise ValueError(f"deg_q must be a nonnegative integer, got {deg_q!r}")
    lhs = deg_q + 1
    rhs = (a - 1) * (b - 1)
    if lhs <= rhs:
        return ObstructionVerdict(
            OBSTRUCTED,
            "extendedminimason",
            f"deg(Q)+1 = {lhs} <= (a-1)(b-1) = {rhs}",
        )
    return ObstructionVerdict(
        NOT_OBSTRUCTED,
        "extendedminimason",
        f"deg(Q)+1 = {lhs} > (a-1)(b-1) = {rhs}",
    )


def check_twisted_mason(a: int, b: int, c: int) -> ObstructionVerdict:
    """f^a*g^b + h^c a nonzero constant forces f, g, h constant when
    a, b, c >= 2."""
    _require_positive(a=a, b=b, c=c)
    if a >= 2 and b >= 2 and c >= 2:
        return ObstructionVerdict(
            OBSTRUCTED, "twistedmason", f"a={a}, b={b}, c={c} all >= 2"
        )
    return ObstructionVerdict(
        NOT_OBSTRUCTED,
        "twistedmason",
        f"needs a, b, c >= 2; got a={a}, b={b}, c={c}",
    )


def check_double_mason(a: int, b: int, c: int, d: int) -> ObstructionVerdict:
    """f^a*g^b + h^c + i^d = 0 with f, g, h, i pairwise coprime: constants
    only when 1/b + 1/c + 1/d <= 1 (after arranging a >= b).  Entries with a
    common factor are not covered."""
    _require_positive(a=a, b=b, c=c, d=d)
    if a < b:
        a, b = b, a
    total = Fraction(1, b) + Fraction(1, c) + Fraction(1, d)
    if total <= 1:
        return ObstructionVerdict(
            OBSTRUCTED, "doublemason", f"1/{b} + 1/{c} + 1/{d} = {total} <= 1",
            COPRIME_SCOPE,
        )
    return ObstructionVerdict(
        NOT_OBSTRUCTED, "doublemason", f"1/{b} + 1/{c} + 1/{d} = {total} > 1",
        COPRIME_SCOPE,
    )


def check_fermat_sum(ds: Sequence[int]) -> ObstructionVerdict:
    """x_1^{d_1} + .. + x_n^{d_n} = 0, n >= 3, x_i pairwise coprime:
    constants only when every d_i >= 2, gcd(d_1..d_n) = 1 and
    sum(1/d_i) <= 1/(n-2).  Entries with a common factor are not covered."""
    ds = tuple(ds)
    if len(ds) < 3:
        raise ValueError("need at least 3 exponents")
    _require_positive(**{f"d{i + 1}": d for i, d in enumerate(ds)})
    n = len(ds)
    if any(d < 2 for d in ds):
        return ObstructionVerdict(
            HYPOTHESIS_NOT_MET, "ex1", f"every exponent must be >= 2; got {ds}",
            COPRIME_SCOPE,
        )
    g = gcd(*ds)
    if g != 1:
        return ObstructionVerdict(
            HYPOTHESIS_NOT_MET, "ex1", f"gcd{ds} = {g} != 1", COPRIME_SCOPE
        )
    total = sum(Fraction(1, d) for d in ds)
    bound = Fraction(1, n - 2)
    if total <= bound:
        return ObstructionVerdict(
            OBSTRUCTED, "ex1", f"sum of reciprocals {total} <= 1/(n-2) = {bound}",
            COPRIME_SCOPE,
        )
    return ObstructionVerdict(
        NOT_OBSTRUCTED, "ex1", f"sum of reciprocals {total} > 1/(n-2) = {bound}",
        COPRIME_SCOPE,
    )


_PATTERNS = {
    "minimason": (check_mini_mason, ("a", "b")),
    "extendedminimason": (check_extended_mini_mason, ("a", "b", "degq")),
    "twistedmason": (check_twisted_mason, ("a", "b", "c")),
    "doublemason": (check_double_mason, ("a", "b", "c", "d")),
}


def obstruction_check(pattern: str, params: dict[str, int]) -> ObstructionVerdict:
    """Dispatch a pattern name to its certificate.

    Patterns: minimason(a,b), extendedminimason(a,b,degq),
    twistedmason(a,b,c), doublemason(a,b,c,d), ex1(d1..dn).
    """
    name = pattern.replace("-", "").replace("_", "").lower()
    if len({k.lower() for k in params}) != len(params):
        raise ValueError("parameter names must differ after lowercasing")
    params = {k.lower(): v for k, v in params.items()}
    if name == "ex1":
        if not params or set(params) != {f"d{i + 1}" for i in range(len(params))}:
            raise ValueError("ex1 takes exponents d1, d2, ..., dn")
        ds = [params[f"d{i + 1}"] for i in range(len(params))]
        return check_fermat_sum(ds)
    if name not in _PATTERNS:
        raise ValueError(f"unknown obstruction pattern {pattern!r}")
    fn, keys = _PATTERNS[name]
    if set(params) != set(keys):
        raise ValueError(f"pattern {name} takes parameters {', '.join(keys)}")
    return fn(*(params[k] for k in keys))
