"""Sparse multivariate polynomials over Q(i).

A polynomial is stored as a mapping from exponent tuples to nonzero
coefficients, together with an ordered tuple of variable names.  The zero
polynomial is the empty mapping.  All operations are pure: they return new
polynomials and never mutate their arguments.

The canonical monomial order everywhere in this package is graded
lexicographic: monomials are compared first by total degree, then
lexicographically with the first declared variable largest.  Exponent tuples
follow declaration order, so Python's tuple comparison implements the lex
tie-break directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .gauss import ONE, ZERO, GaussianRational, ScalarLike

ExponentVector = tuple[int, ...]
#: A weight vector assigns an integer weight to each variable, in declaration
#: order.  Weighted degree of the zero polynomial is MINUS_INF.
WeightVector = Sequence[int]

MINUS_INF = float("-inf")


class VariableMismatchError(ValueError):
    """Raised when two polynomials over different variable tuples are combined."""


class UnknownVariableError(ValueError):
    """Raised when an operation names a variable the polynomial does not have."""


class NotUnivariateError(ValueError):
    """Raised when a univariate-only operation receives multivariate input."""


class InternalInvariantError(RuntimeError):
    """An exact-arithmetic, verdict-table or search invariant failed; the
    toolkit itself is at fault."""


def grlex_key(exponents: ExponentVector) -> tuple[int, ExponentVector]:
    """Sort key realising the graded lexicographic order (larger = leading)."""
    return (sum(exponents), exponents)


def monomial_divides(divisor: ExponentVector, dividend: ExponentVector) -> bool:
    return all(d <= e for d, e in zip(divisor, dividend))


class Polynomial:
    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Union[Mapping[ExponentVector, ScalarLike], Iterable[tuple[ExponentVector, ScalarLike]], None] = None,
    ) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        clean: dict[ExponentVector, GaussianRational] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for exponents, coefficient in items:
            exponents = tuple(exponents)
            if len(exponents) != len(variables):
                raise ValueError(
                    f"exponent tuple {exponents!r} does not match variables {variables!r}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exponents):
                raise ValueError(f"exponents must be nonnegative integers: {exponents!r}")
            coefficient = GaussianRational.coerce(coefficient)
            if coefficient.is_zero:
                continue
            existing = clean.get(exponents)
            total = coefficient if existing is None else existing + coefficient
            if total.is_zero:
                clean.pop(exponents, None)
            else:
                clean[exponents] = total
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial instances are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Polynomial:
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value: ScalarLike) -> Polynomial:
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> Polynomial:
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariableError(f"{name!r} is not one of {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: ONE})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exponents: Sequence[int], coefficient: ScalarLike = 1
    ) -> Polynomial:
        return cls(variables, {tuple(exponents): coefficient})

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        zero_exps = (0,) * len(self.variables)
        return all(e == zero_exps for e in self.terms)

    def constant_value(self) -> GaussianRational:
        """The coefficient of the constant monomial (valid on any polynomial)."""
        return self.terms.get((0,) * len(self.variables), ZERO)

    def occurring_variables(self) -> tuple[str, ...]:
        used = [False] * len(self.variables)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, flag in zip(self.variables, used) if flag)

    def sorted_terms(self) -> list[tuple[ExponentVector, GaussianRational]]:
        """Terms in descending graded-lex order (deterministic iteration)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]), reverse=True)

    def leading_term(self) -> tuple[ExponentVector, GaussianRational]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def total_degree(self) -> Union[int, float]:
        if not self.terms:
            return MINUS_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> Union[int, float]:
        i = self._index(name)
        if not self.terms:
            return MINUS_INF
        return max(e[i] for e in self.terms)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"{name!r} is not one of {self.variables!r}") from None

    def _check_same_ring(self, other: Polynomial) -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"polynomials live over different variables: {self.variables!r} vs {other.variables!r}"
            )

    # -- ring operations --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            value = GaussianRational.coerce(other)
            if value.is_zero:
                return self.is_zero
            return self.terms == {(0,) * len(self.variables): value}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable mapping inside

    def __add__(self, other: Union[Polynomial, ScalarLike]) -> Polynomial:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            existing = merged.get(exps)
            total = c if existing is None else existing + c
            if total.is_zero:
                merged.pop(exps, None)
            else:
                merged[exps] = total
        return self._raw(self.variables, merged)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return self._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union[Polynomial, ScalarLike]) -> Polynomial:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union[Polynomial, ScalarLike]) -> Polynomial:
        if isinstance(other, (int, Fraction, GaussianRational)):
            value = GaussianRational.coerce(other)
            if value.is_zero:
                return Polynomial.zero(self.variables)
            return self._raw(self.variables, {e: c * value for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_ring(other)
        product: dict[ExponentVector, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                contribution = c1 * c2
                existing = product.get(exps)
                total = contribution if existing is None else existing + contribution
                if total.is_zero:
                    product.pop(exps, None)
                else:
                    product[exps] = total
        return self._raw(self.variables, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        """Square and multiply."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponents must be nonnegative integers")
        result, base = Polynomial.constant(self.variables, 1), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[ExponentVector, GaussianRational]) -> Polynomial:
        """Internal fast constructor: `terms` must already be canonical."""
        p = cls.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- division ----------------------------------------------------------

    def div_rem(self, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Division with remainder by a single divisor under graded lex.

        Returns (q, r) with self = q*divisor + r and no term of r divisible
        by the leading monomial of the divisor.  The pair is unique for the
        fixed monomial order.
        """
        self._check_same_ring(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead_exps, lead_coeff = divisor.leading_term()
        lead_inv = lead_coeff.inverse()
        quotient: dict[ExponentVector, GaussianRational] = {}
        remainder: dict[ExponentVector, GaussianRational] = {}
        work = dict(self.terms)
        while work:
            exps = max(work, key=grlex_key)
            coeff = work.pop(exps)
            if monomial_divides(lead_exps, exps):
                factor_exps = tuple(a - b for a, b in zip(exps, lead_exps))
                factor_coeff = coeff * lead_inv
                quotient[factor_exps] = quotient.get(factor_exps, ZERO) + factor_coeff
                for d_exps, d_coeff in divisor.terms.items():
                    if d_exps == lead_exps:
                        continue
                    target = tuple(a + b for a, b in zip(factor_exps, d_exps))
                    updated = work.get(target, ZERO) - factor_coeff * d_coeff
                    if updated.is_zero:
                        work.pop(target, None)
                    else:
                        work[target] = updated
            else:
                remainder[exps] = coeff
        quotient = {e: c for e, c in quotient.items() if not c.is_zero}
        return self._raw(self.variables, quotient), self._raw(self.variables, remainder)

    def divides(self, other: Polynomial) -> bool:
        if self.is_zero:
            return other.is_zero
        return other.div_rem(self)[1].is_zero

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> Polynomial:
        """Formal partial derivative with respect to one variable."""
        i = self._index(name)
        out: dict[ExponentVector, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if not e:
                continue
            lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
            out[lowered] = out.get(lowered, ZERO) + coeff * e
        return self._raw(self.variables, {e: c for e, c in out.items() if not c.is_zero})

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Evaluate the polynomial at polynomial images of its variables.

        This is the package's one substitution routine.  All images must
        live over one common target variable tuple.  Over the polynomial's
        own variables, a variable without an image stays itself, so a
        partial substitution such as a change of one coordinate is one
        call; over any other target, every variable that actually occurs
        must have an image.

        One pass over the terms adds into one dict: the exponents of the
        variables without an image go straight into the key, and each
        image ** e is computed once per call, from image ** (e - 1) when
        that is already known.  In the own ring, a polynomial in which no
        variable with an image occurs is returned as it is.
        """
        target: tuple[str, ...] | None = None
        for img in images.values():
            if target is None:
                target = img.variables
            elif img.variables != target:
                raise VariableMismatchError("substitution images live over different variables")
        own_ring = target is None or target == self.variables
        if own_ring:
            target = self.variables
        else:
            missing = [v for v in self.occurring_variables() if v not in images]
            if missing:
                raise UnknownVariableError(f"no image given for variable(s) {missing!r}")
        mapped = [(i, images[v]) for i, v in enumerate(self.variables) if v in images]
        if own_ring and not any(exps[i] for exps in self.terms for i, _ in mapped):
            return self
        zero = (0,) * len(target)
        powers = {(i, 1): image for i, image in mapped}
        out: dict[ExponentVector, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            kept, factor = exps if own_ring else zero, None
            for i, image in mapped:
                e = exps[i]
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        lower = powers.get((i, e - 1))
                        power = powers[i, e] = image**e if lower is None else lower * image
                    factor = power if factor is None else factor * power
                    if own_ring:
                        kept = kept[:i] + (0,) + kept[i + 1 :]
            if factor is None:
                shifted = [(kept, coeff)]
            else:
                shifted = [(tuple(map(add, kept, step)), coeff * c) for step, c in factor.terms.items()]
            for key, value in shifted:
                old = out.get(key)
                out[key] = value if old is None else old + value
        return self._raw(target, {e: c for e, c in out.items() if not c.is_zero})

    # -- weighted degrees -----------------------------------------------------

    def weighted_degree(self, weights: WeightVector) -> Union[int, float]:
        """Max over terms of the weight inner product; MINUS_INF for zero."""
        weights = self._check_weights(weights)
        if not self.terms:
            return MINUS_INF
        return max(sum(w * e for w, e in zip(weights, exps)) for exps in self.terms)

    def top_part(self, weights: WeightVector) -> Polynomial:
        """Sum of the terms attaining the weighted degree (input must be nonzero)."""
        weights = self._check_weights(weights)
        if not self.terms:
            raise ValueError("top_part of the zero polynomial is undefined")
        degrees = {exps: sum(w * e for w, e in zip(weights, exps)) for exps in self.terms}
        top = max(degrees.values())
        kept = {exps: coeff for exps, coeff in self.terms.items() if degrees[exps] == top}
        return self._raw(self.variables, kept)

    def _check_weights(self, weights: WeightVector) -> tuple[int, ...]:
        weights = tuple(weights)
        if len(weights) != len(self.variables):
            raise ValueError("weight vector length does not match the variable count")
        if any(not isinstance(w, int) for w in weights):
            raise ValueError("weights must be integers")
        return weights

    # -- univariate helpers ----------------------------------------------------

    def univariate_profile(self) -> tuple[Union[str, None], list[GaussianRational]]:
        """Return (active variable or None, dense ascending coefficient list).

        Raises NotUnivariateError when two or more variables occur.
        A constant reports variable None and a length-<=1 list.
        """
        occurring = self.occurring_variables()
        if len(occurring) > 1:
            raise NotUnivariateError(f"polynomial involves {occurring!r}; expected one variable")
        if not occurring:
            value = self.constant_value()
            return None, ([] if value.is_zero else [value])
        name = occurring[0]
        i = self._index(name)
        degree = max(e[i] for e in self.terms)
        coeffs = [ZERO] * (degree + 1)
        for exps, coeff in self.terms.items():
            coeffs[exps[i]] = coeff
        return name, coeffs

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Polynomial({self.variables!r}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.variables, exps) if e
            )
            bits.append(f"({coeff}){('*' + mono) if mono else ''}")
        return f"Polynomial({self.variables!r}, {' + '.join(bits)})"


def gens(*names: str) -> tuple[Polynomial, ...]:
    """Generators of a polynomial ring: ``x, y = gens("X", "Y")``."""
    return tuple(Polynomial.variable(names, n) for n in names)


def _univariate_pair(
    p: Polynomial, q: Polynomial
) -> tuple[Union[str, None], list[GaussianRational], list[GaussianRational]]:
    """The variable p and q share (None when both are constant) and their
    dense ascending coefficient lists."""
    if p.variables != q.variables:
        raise VariableMismatchError("gcd arguments live over different variables")
    var_p, coeffs_p = p.univariate_profile()
    var_q, coeffs_q = q.univariate_profile()
    if var_p is not None and var_q is not None and var_p != var_q:
        raise NotUnivariateError(
            f"gcd arguments use different variables: {var_p!r} vs {var_q!r}"
        )
    return var_p or var_q, coeffs_p, coeffs_q


# Gaussian integers as (re, im) int pairs: the gcd kernel below works on
# them, and so do the nilpotency probe's iterates and the search oracle's
# leaf evaluation.
GaussianInt = tuple[int, int]


def gaussian_mul(x: GaussianInt, y: GaussianInt) -> GaussianInt:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gaussian_pow(z: GaussianInt, e: int) -> GaussianInt:
    """The Gaussian integer z raised to the exponent e >= 0, by squaring;
    a real z is powered as a plain int."""
    a, b = z
    if not b:
        return a**e, 0
    re, im = 1, 0
    while e:
        if e & 1:
            re, im = re * a - im * b, re * b + im * a
        e >>= 1
        if e:
            a, b = a * a - b * b, 2 * a * b
    return re, im


def _divide_exact(coeffs: list[GaussianInt], y: GaussianInt) -> list[GaussianInt]:
    """Each coefficient divided by y in Z[i]; a nonzero remainder is a fault."""
    c, d = y
    n = c * c + d * d
    out = []
    for a, b in coeffs:
        re, r1 = divmod(a * c + b * d, n)
        im, r2 = divmod(b * c - a * d, n)
        if r1 or r2:
            raise InternalInvariantError(f"{(a, b)} is not divisible by {y} in Z[i]")
        out.append((re, im))
    return out


def _integral(coeffs: list[GaussianRational]) -> list[GaussianInt]:
    """The coefficients times the lcm of their denominators."""
    # A list, not a generator: CPython builds the argument tuple of
    # ``f(*generator)`` by resizing, and each such tuple stayed on the
    # interpreter's tuple free lists, which grew the resident set by over a
    # megabyte across a few thousand calls.
    m = lcm(*[c.den for c in coeffs])
    return [(c.re_num * (m // c.den), c.im_num * (m // c.den)) for c in coeffs]


def _prem(a: list[GaussianInt], b: list[GaussianInt]) -> list[GaussianInt]:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b, trimmed.

    Dense ascending coefficient lists with nonzero leading coefficients and
    len(a) >= len(b) >= 2.  Each step multiplies the remainder by lc(b) and
    cancels its leading term.  That scaling is deferred: after k steps the
    true coefficient i is r[i] * lc(b)^(k - touched[i]), so a step pays it
    only on the deg b coefficients it updates, and one final pass pays the
    rest, together with the steps skipped because the degree fell by more
    than one.  The cost is O(deg a * deg b) pair updates.
    """
    r = list(a)
    m = len(b) - 1
    lower = b[:m]
    l_re, l_im = b[m]
    steps = len(r) - m  # deg a - deg b + 1
    touched = [0] * len(r)
    powers = [(1, 0)]  # powers[e] = lc(b)^e, extended on demand

    def power(e: int) -> GaussianInt:
        while len(powers) <= e:
            p_re, p_im = powers[-1]
            powers.append((p_re * l_re - p_im * l_im, p_re * l_im + p_im * l_re))
        return powers[e]

    k = 0
    while len(r) > m:
        top = len(r) - 1
        c_re, c_im = r.pop()
        if k > touched[top]:
            p_re, p_im = power(k - touched[top])
            c_re, c_im = c_re * p_re - c_im * p_im, c_re * p_im + c_im * p_re
        k += 1
        for i, (b_re, b_im) in enumerate(lower, top - m):
            x_re, x_im = r[i]
            p_re, p_im = power(k - touched[i])
            r[i] = (
                x_re * p_re - x_im * p_im - c_re * b_re + c_im * b_im,
                x_re * p_im + x_im * p_re - c_re * b_im - c_im * b_re,
            )
            touched[i] = k
        while r and r[-1] == (0, 0):
            r.pop()
    for i, (x_re, x_im) in enumerate(r):
        if steps > touched[i]:
            p_re, p_im = power(steps - touched[i])
            r[i] = (x_re * p_re - x_im * p_im, x_re * p_im + x_im * p_re)
    return r


def _similar_regular(b: list[GaussianInt], s: GaussianInt, delta: int) -> list[GaussianInt]:
    """lc(b)^(delta-1) * b / s^(delta-1), the regular chain member similar to b.

    Lazard's form: the scalar lc(b)^(k+1) / s^k is carried up one exact
    division at a time, so no intermediate outgrows the result.
    """
    if delta == 1:
        return b
    lead = x = b[-1]
    for _ in range(delta - 2):
        x = _divide_exact([gaussian_mul(x, lead)], s)[0]
    return _divide_exact([gaussian_mul(x, y) for y in b], s)


def _next_subresultant(
    a: list[GaussianInt], b: list[GaussianInt], c: list[GaussianInt], s: GaussianInt
) -> list[GaussianInt]:
    """The chain member after c, up to sign, trimmed.

    a is similar to the regular member S_d, s is its principal coefficient,
    b = S_(d-1) has degree e < d and c = S_e is similar to b.  Ducos
    (J. Pure Appl. Algebra 145, 2000): G_e = c - lc(c)*X^e and
    G_j = X*G_(j-1) - t*b/lc(b), with t the X^e coefficient of X*G_(j-1),
    are -lc(c)*X^j reduced modulo b, of degree below e and divided exactly.
    Then, below X^e,
    a_d*s*S_(e-1) = lc(b)*(lc(c)*sum_(j<e) a_j*X^j - sum_(e<=j<d) a_j*G_j)
                    - a_d*(lc(b)*X*G_(d-1) - t*b).
    Unlike the pseudo-remainder of a by b, nothing is multiplied by
    lc(b)^(d-e+1), so a large degree gap builds no oversized numbers.
    """
    e, d = len(b) - 1, len(a) - 1
    lb = b[e]
    lower = b[:e]
    g = c[:e]
    f_re, f_im = gaussian_mul(lb, c[e])
    k_re, k_im = gaussian_mul(lb, a[e])
    acc = [
        (x * f_re - y * f_im - k_re * p + k_im * q, x * f_im + y * f_re - k_re * q - k_im * p)
        for (x, y), (p, q) in zip(a, g)
    ]
    for j in range(e + 1, d):
        t_re, t_im = g[-1]
        tb = _divide_exact([(t_re * p - t_im * q, t_re * q + t_im * p) for p, q in lower], lb)
        g = [(x - p, y - q) for (x, y), (p, q) in zip([(0, 0)] + g[:-1], tb)]
        k_re, k_im = gaussian_mul(lb, a[j])
        acc = [
            (u - k_re * x + k_im * y, v - k_re * y - k_im * x) for (u, v), (x, y) in zip(acc, g)
        ]
    ad = a[d]
    m_re, m_im = gaussian_mul(ad, lb)
    k_re, k_im = gaussian_mul(ad, g[-1])
    out = [
        (u - m_re * x + m_im * y + k_re * p - k_im * q, v - m_re * y - m_im * x + k_re * q + k_im * p)
        for (u, v), (x, y), (p, q) in zip(acc, [(0, 0)] + g[:-1], lower)
    ]
    out = _divide_exact(out, gaussian_mul(ad, s))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _subresultant_prs(p: list[GaussianInt], q: list[GaussianInt]) -> list[GaussianInt]:
    """Last nonzero member of the subresultant chain of p and q over Z[i].

    Collins (J. ACM 14, 1967), Brown and Traub (J. ACM 18, 1971), with
    Lazard's and Ducos's forms of the step after a degree gap.  The result
    is the gcd times a nonzero scalar; every exact division is checked and
    coefficients stay the size of chain members, with no gcd computation.
    Both inputs are nonzero with len(p) >= len(q).
    """
    if len(q) == 1:
        return q
    # The member after q is the pseudo-remainder of p by q, divided by
    # nothing.  s = lc(q)^(deg p - deg q) is the principal coefficient of
    # the regular member similar to q, and 1 when the degrees are equal.
    s = gaussian_pow(q[-1], len(p) - len(q))
    a, b = q, _prem(p, q)
    while len(b) > 1:
        c = _similar_regular(b, s, len(a) - len(b))
        a, b, s = c, _next_subresultant(a, b, c, s), c[-1]
    return b or a


# A prime p = 1 (mod 4) and a square root of -1 modulo p, so that
# re + im*i -> re + _SQRT_M1*im is a ring map from Z[i] onto F_p.
_P = 1_000_000_009
_SQRT_M1 = 569_522_298


def _coprime_mod_p(a: list[GaussianInt], b: list[GaussianInt]) -> bool:
    """True only if the nonzero a and b are coprime over Q(i).

    It maps both to F_p[x] and runs Euclid's remainder sequence there.  It
    answers False when either leading coefficient maps to 0 or the
    sequence ends in a nonconstant polynomial, which proves nothing.
    """
    f = [(re + _SQRT_M1 * im) % _P for re, im in a]
    g = [(re + _SQRT_M1 * im) % _P for re, im in b]
    if not f[-1] or not g[-1]:
        return False
    while len(g) > 1:
        inv = pow(g[-1], -1, _P)
        lower = g[:-1]
        while len(f) >= len(g):  # f := f mod g
            c = f.pop() * inv % _P
            if c:
                for i, y in enumerate(lower, len(f) - len(lower)):
                    f[i] = (f[i] - c * y) % _P
            while f and not f[-1]:
                f.pop()
        if not f:
            return False
        f, g = g, f
    return True


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over Q(i) of two univariate polynomials.

    The kernel clears each input's denominators and runs the subresultant
    PRS over Z[i] on (re, im) int pairs, with Lazard's and Ducos's steps
    after a degree gap; only the final remainder is made monic and
    converted back to Gaussian rationals.  gcd(0, q) is the monic
    normalisation of q; gcd(0, 0) is 0.  Nonzero constants behave as units,
    so any gcd involving one is 1.

    Before the PRS, _coprime_mod_p certifies most coprime pairs with one
    Euclidean sequence modulo a prime p, and the gcd is then 1; otherwise
    the PRS runs unchanged.  The certificate is exact because the gcd,
    taken primitive in Z[i][x], has a leading coefficient dividing lc(a).
    So when lc(a) is nonzero modulo p, the gcd's image keeps its degree and
    divides both images, and a constant gcd modulo p proves a constant gcd.
    """
    var, coeffs_p, coeffs_q = _univariate_pair(p, q)
    if not coeffs_p and not coeffs_q:
        return Polynomial.zero(p.variables)
    if not coeffs_p or not coeffs_q:
        last = _integral(coeffs_p or coeffs_q)
    else:
        a, b = _integral(coeffs_p), _integral(coeffs_q)
        if len(a) < len(b):
            a, b = b, a
        last = [(1, 0)] if _coprime_mod_p(a, b) else _subresultant_prs(a, b)
    if len(last) == 1:
        return Polynomial.constant(p.variables, 1)
    i = p.variables.index(var)
    c, d = last[-1]
    n = c * c + d * d
    terms = {}
    for e, (x, y) in enumerate(last):
        if x or y:
            exps = tuple(e if j == i else 0 for j in range(len(p.variables)))
            # (x + y*i) / (c + d*i) = ((x*c + y*d) + (y*c - x*d)*i) / n
            terms[exps] = GaussianRational(
                Fraction(x * c + y * d, n), Fraction(y * c - x * d, n)
            )
    return Polynomial(p.variables, terms)
