"""Seeded operation lists for the four benchmark workloads.

Each builder returns one *round*: a list of :class:`Op`, each one CLI
invocation (an argv list for ``rigidity.cli.main``) together with the facts
its checker needs to derive the expected output on its own.  A run repeats
whole rounds, so every run attempts the same operations in the same
proportions.  The seed changes exponents inside their strata, coefficients,
variable permutations and the order of the round, never the make-up of the
round (how many operations of each shape and size class it holds).

Only the standard library is used here: building a round is part of the
timed set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

FLAGS = ("--json", "--deterministic")
XYZ = ("X", "Y", "Z")
XYZT = ("X", "Y", "Z", "T")

Scalar = tuple[Fraction, Fraction]  # (re, im)


@dataclass(frozen=True)
class Op:
    """One CLI call: argv without the output flags, the checker to run and
    the generator's facts about the input (never the expected output)."""

    argv: tuple[str, ...]
    check: str
    spec: dict = field(default_factory=dict)
    # Fails today because of a fault in the program; counted in `failed`
    # without making the run incorrect.
    known_fault: bool = False

    @property
    def full_argv(self) -> list[str]:
        return [*self.argv, *FLAGS]


@dataclass(frozen=True)
class Outcome:
    """What one ``cli.main`` call did: its return value, its captured
    standard output, and the type name of an exception that escaped it."""

    code: Optional[int]
    out: str
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# scalars and polynomial text
# ---------------------------------------------------------------------------


def scalar(rng: random.Random, gaussian: float = 0.4, span: int = 6) -> Scalar:
    """A nonzero Gaussian rational with small parts, biased toward integers."""
    while True:
        re = Fraction(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3)))
        im = Fraction(0)
        if rng.random() < gaussian:
            im = Fraction(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3)))
        if re or im:
            return (re, im)


def distinct_scalars(rng: random.Random, k: int) -> list[Scalar]:
    out: list[Scalar] = []
    while len(out) < k:
        s = scalar(rng)
        if s not in out:
            out.append(s)
    return out


def _signed_body(c: Scalar) -> tuple[str, str]:
    re, im = c
    if not im:
        return ("-" if re < 0 else "+"), str(abs(re))
    if not re:
        return ("-" if im < 0 else "+"), f"{abs(im)}i"
    return "+", f"({re} {'-' if im < 0 else '+'} {abs(im)}i)"


def poly_text(terms: list[tuple[Scalar, dict[str, int]]]) -> str:
    """Wire-format text for a sum of coefficient * monomial terms.

    Every coefficient is written out (``1*X^2``), mixed Gaussian
    coefficients are parenthesized, and exponent-0 factors are omitted.
    """
    pieces = []
    for coeff, powers in terms:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers.items() if e)
        sign, body = _signed_body(coeff)
        chunk = f"{body}*{mono}" if mono else body
        if not pieces:
            pieces.append(chunk if sign == "+" else f"-{chunk}")
        else:
            pieces.append(f" {sign} {chunk}")
    return "".join(pieces)


def _classify(relation: str, variables: tuple[str, ...], spec: dict, **kw) -> Op:
    argv = ("classify", "--relation", relation, "--vars", ",".join(variables))
    return Op(argv, "classify", {"relation": relation, "vars": variables, **spec}, **kw)


# ---------------------------------------------------------------------------
# catalog_sweep
# ---------------------------------------------------------------------------


def _three_term(rng: random.Random, a: int, b: int, c: int) -> Op:
    x, y, z = rng.sample(XYZ, 3)
    alpha, beta = scalar(rng), scalar(rng)
    text = poly_text([(alpha, {x: a, y: b}), (beta, {z: c})])
    return _classify(text, XYZ, {"family": "three_term", "exps": (a, b, c)})


def _three_term_ops(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = []
    for _ in range(120):  # a, b, c >= 2: Rigid
        ops.append(_three_term(rng, *(fixed.randint(2, 8) for _ in range(3))))
    for _ in range(60):  # one exponent equal to 1: triangular witness
        exps = [fixed.randint(1, 8) for _ in range(3)]
        exps[fixed.randrange(3)] = 1
        ops.append(_three_term(rng, *exps))
    for _ in range(60):  # one exponent equal to 0: a free coordinate
        exps = [fixed.randint(1, 8) for _ in range(3)]
        exps[fixed.randrange(3)] = 0
        ops.append(_three_term(rng, *exps))
    return ops


def _pure_powers(
    rng: random.Random, exps: list[int], variables: tuple[str, ...], equal_squares: bool, family: str
) -> Op:
    """Sum of pure powers; the exponent-2 slots share one coefficient when
    ``equal_squares`` and have pairwise distinct ones otherwise."""
    names = rng.sample(variables, len(variables))
    squares = [i for i, e in enumerate(exps) if e == 2]
    coeffs = distinct_scalars(rng, len(exps))
    if equal_squares and squares:
        for i in squares:
            coeffs[i] = coeffs[squares[0]]
    text = poly_text([(cf, {v: e}) for cf, v, e in zip(coeffs, names, exps)])
    by_var = dict(zip(names, exps))
    coeff_by_var = dict(zip(names, coeffs))
    spec = {
        "family": family,
        # exponents and coefficients in declared variable order
        "exps": tuple(by_var[v] for v in variables),
        "coeffs": tuple(coeff_by_var[v] for v in variables),
    }
    return _classify(text, variables, spec)


def _fermat3_ops(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = []
    for _ in range(100):  # smallest exponent >= 2, not two squares: Rigid
        while True:
            exps = [fixed.randint(2, 8) for _ in range(3)]
            if sorted(exps)[1] > 2:
                break
        ops.append(_pure_powers(rng, exps, XYZ, False, "fermat3"))
    for _ in range(60):  # an exponent 1
        exps = [1] + [fixed.randint(1, 8) for _ in range(2)]
        ops.append(_pure_powers(rng, exps, XYZ, False, "fermat3"))
    for k in range(80):  # two squares; a witness only with equal coefficients
        exps = [2, 2, fixed.randint(2, 8)]
        ops.append(_pure_powers(rng, exps, XYZ, k < 50, "fermat3"))
    return ops


def _mixed_four(rng: random.Random, a: int, b: int, c: int, d: int, tie: str = "") -> Op:
    """alpha*x^a*y^b + beta*z^c + gamma*t^d; ``tie`` forces alpha == beta of
    the exponent-2 pure slot ("twist") or beta == gamma ("zt")."""
    x, y, z, t = rng.sample(XYZT, 4)
    alpha, beta, gamma = distinct_scalars(rng, 3)
    if tie == "zt":
        gamma = beta
    elif tie == "twist":
        if c <= d:
            beta = alpha
        else:
            gamma = alpha
    text = poly_text([(alpha, {x: a, y: b}), (beta, {z: c}), (gamma, {t: d})])
    spec = {"family": "mixed4", "exps": (a, b, c, d), "coeffs": (alpha, beta, gamma)}
    return _classify(text, XYZT, spec)


def _mixed_four_ops(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = []
    for _ in range(50):  # an exponent 1
        exps = [fixed.randint(1, 8) for _ in range(4)]
        exps[fixed.randrange(4)] = 1
        ops.append(_mixed_four(rng, *exps))
    for k in range(40):  # c = d = 2
        ops.append(_mixed_four(rng, fixed.randint(2, 8), fixed.randint(2, 8), 2, 2, "zt" if k < 30 else ""))
    for k in range(40):  # b = 2, a even, one pure square
        a = fixed.choice((2, 4, 6, 8))
        pure = [2, fixed.randint(3, 8)]
        rng.shuffle(pure)
        ab = [a, 2]
        rng.shuffle(ab)
        ops.append(_mixed_four(rng, *ab, *pure, "twist" if k < 30 else ""))
    for _ in range(20):  # the open leftover patterns
        a = 6 * fixed.randint(1, 2)
        b, c, d = fixed.choice(((3, 2, 4), (2, 3, 3)))
        ab, cd = [a, b], [c, d]
        rng.shuffle(ab)
        rng.shuffle(cd)
        ops.append(_mixed_four(rng, *ab, *cd))
    rigid = 0
    while rigid < 90:  # everything else with exponents >= 2 is Rigid
        a, b, c, d = (fixed.randint(2, 8) for _ in range(4))
        hi, lo, zc, td = max(a, b), min(a, b), min(c, d), max(c, d)
        if zc == 2 and (td == 2 or (lo == 2 and hi % 2 == 0)):
            continue
        if hi % 6 == 0 and ((lo, zc, td) in ((3, 2, 4), (2, 3, 3))):
            continue
        ops.append(_mixed_four(rng, a, b, c, d))
        rigid += 1
    return ops


def _fermat4_ops(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = []
    for _ in range(10):
        exps = [1] + [fixed.randint(1, 7) for _ in range(3)]
        ops.append(_pure_powers(rng, exps, XYZT, False, "fermat4"))
    for k in range(10):
        exps = [2, 2, fixed.randint(3, 7), fixed.randint(3, 7)]
        ops.append(_pure_powers(rng, exps, XYZT, k < 6, "fermat4"))
    for _ in range(20):  # one square at most: CB4, EX1 or open
        exps = [fixed.randint(2, 9)] + [fixed.randint(3, 9) for _ in range(3)]
        ops.append(_pure_powers(rng, exps, XYZT, False, "fermat4"))
    return ops


# The open hypersurfaces of the source paper, with their recognized kinds.
OPEN_RELATIONS = (
    ("X^3*Y + Z^3*Y + Z^4", "DanielewskiLike"),
    ("X^6*Y^3 + Z^2 + T^4", "MixedFour"),
    ("X^6*Y^2 + Z^3 + T^3", "MixedFour"),
    ("X^2 + Y^3 + Z^3 + T^3", "FermatN"),
    ("X^3 + Y^3 + Z^3 + T^3", "FermatN"),
    ("X^2 + Y^3 + Z^5 + T^15", "FermatN"),
)


def _open_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(30):
        text, kind = OPEN_RELATIONS[k % len(OPEN_RELATIONS)]
        variables = XYZT if "T" in text else XYZ
        rename = dict(zip(variables, rng.sample(variables, len(variables))))
        terms = []
        for piece in text.split(" + "):
            powers = {}
            for factor in piece.split("*"):
                name, _, e = factor.partition("^")
                powers[rename[name]] = int(e or 1)
            terms.append((scalar(rng), powers))
        ops.append(_classify(poly_text(terms), variables, {"family": "open", "kind": kind}))
    return ops


def _gr_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(30):
        variables = rng.choice((XYZ, XYZT))
        names = rng.sample(variables, len(variables))
        terms = [(scalar(rng), {v: rng.randint(0, 5) for v in rng.sample(names, rng.randint(1, 2))})
                 for _ in range(rng.randint(2, 4))]
        weights = [rng.randint(-1, 4) for _ in variables]
        text = poly_text(terms)
        # "--weights=..." keeps argparse from reading "-1,..." as an option.
        argv = ("gr", "--relation", text, "--vars", ",".join(variables),
                "--weights=" + ",".join(map(str, weights)))
        ops.append(Op(argv, "gr", {"relation": text, "vars": variables, "weights": tuple(weights)}))
    return ops


def _obstruct_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(40):
        pattern = ("minimason", "extendedminimason", "twistedmason", "doublemason", "ex1")[k % 5]
        if pattern == "minimason":
            params = {"a": rng.randint(1, 6), "b": rng.randint(1, 6)}
        elif pattern == "extendedminimason":
            params = {"a": rng.randint(1, 6), "b": rng.randint(1, 6), "degq": rng.randint(0, 30)}
        elif pattern == "twistedmason":
            params = {name: rng.randint(1, 5) for name in "abc"}
        elif pattern == "doublemason":
            params = {name: rng.randint(1, 7) for name in "abcd"}
        else:
            params = {f"d{i + 1}": rng.randint(1, 8) for i in range(rng.choice((3, 4)))}
        argv = ("obstruct", "--pattern", pattern,
                "--params", ",".join(f"{k}={v}" for k, v in params.items()))
        ops.append(Op(argv, "obstruct", {"pattern": pattern, "params": params}))
    return ops


# Dense univariate helpers (coefficient lists, ascending) for building
# parametrizations; scalars are (re, im) pairs.


def _smul(p: Scalar, q: Scalar) -> Scalar:
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _uadd(p: list[Scalar], q: list[Scalar]) -> list[Scalar]:
    n = max(len(p), len(q))
    zero = (Fraction(0), Fraction(0))
    p = p + [zero] * (n - len(p))
    q = q + [zero] * (n - len(q))
    return [(a[0] + b[0], a[1] + b[1]) for a, b in zip(p, q)]


def _umul(p: list[Scalar], q: list[Scalar]) -> list[Scalar]:
    out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            c = _smul(a, b)
            out[i + j] = (out[i + j][0] + c[0], out[i + j][1] + c[1])
    return out


def _trim_scalars(p: list[Scalar]) -> list[Scalar]:
    while p and not (p[-1][0] or p[-1][1]):
        p.pop()
    return p


def _utext(p: list[Scalar], var: str = "S") -> str:
    terms = [(c, {var: e}) for e, c in reversed(list(enumerate(p))) if c[0] or c[1]]
    return poly_text(terms) if terms else "0"


def _small_upoly(rng: random.Random, degree: int) -> list[Scalar]:
    return [(Fraction(rng.randint(-2, 2)), Fraction(0)) for _ in range(degree)] + [scalar(rng, 0.0, 2)]


def _param_verify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(30):
        kind = ("quartic", "circle", "unit")[k % 3]
        perturb = k % 2 == 1
        if kind == "quartic":
            # (a*u*(u^3+v^3), -a*v^4, a*v*(u^3+v^3)) solves X^3*Y + Z^3*Y + Z^4 = 0
            variables, constraint = XYZ, "zero"
            relation = "X^3*Y + Z^3*Y + Z^4"
            a = [scalar(rng, 0.3, 3)]
            u, v = _small_upoly(rng, rng.randint(0, 1)), _small_upoly(rng, 1)
            cube_sum = _uadd(_umul(_umul(u, u), u), _umul(_umul(v, v), v))
            v4 = _umul(_umul(v, v), _umul(v, v))
            subs = [_umul(_umul(a, u), cube_sum), _umul([(Fraction(-1), Fraction(0))], _umul(a, v4)),
                    _umul(_umul(a, v), cube_sum)]
        elif kind == "circle":
            variables, constraint = ("X", "Y"), "zero"
            relation = "X^2 + Y^2"
            w = _umul([scalar(rng, 0.3, 3)], _small_upoly(rng, rng.randint(1, 2)))
            subs = [w, _umul([(Fraction(0), Fraction(rng.choice((-1, 1))))], w)]
        else:
            variables, constraint = ("F", "H"), "unit"
            relation = "F^2 + H^3"
            subs = [[scalar(rng, 0.0, 3)], [scalar(rng, 0.0, 3)]]
        if perturb:
            subs[1] = _uadd(subs[1], [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
        texts = [_utext(p) for p in subs]
        argv = ["param-verify", "--relation", relation, "--vars", ",".join(variables),
                "--constraint", constraint]
        for v, t in zip(variables, texts):
            argv += ["--sub", f"{v}={t}"]
        spec = {"relation": relation, "vars": variables, "constraint": constraint,
                "subs": dict(zip(variables, texts))}
        ops.append(Op(tuple(argv), "param_verify", spec))
    return ops


def _verify_derivation_ops(rng: random.Random) -> list[Op]:
    """Templates with a hand-derived degree jump (None: not available)."""
    ops = []
    for k in range(30):
        lam = scalar(rng, 0.3, 4)
        template = k % 6
        weights, jump = None, None
        if template == 0:  # the cone, D = (0, 2Z, X): homogeneous, jump 0
            variables, rel = XYZ, "X*Y - Z^2"
            images = {"Y": poly_text([(_smul(lam, (Fraction(2), Fraction(0))), {"Z": 1})]),
                      "Z": poly_text([(lam, {"X": 1})])}
            weights, jump = (1, 1, 1), 0
        elif template == 1:  # the even-twist witness on X^2*Y^2 + Z^2 + T^3
            variables, rel = XYZT, "X^2*Y^2 + Z^2 + T^3"
            images = {
                "Y": poly_text([(_smul(lam, (Fraction(3), Fraction(0))), {"T": 2})]),
                "Z": poly_text([(_smul(lam, (Fraction(0), Fraction(-3))), {"X": 1, "T": 2})]),
                "T": poly_text([(_smul(lam, (Fraction(-2), Fraction(0))), {"X": 2, "Y": 1}),
                                (_smul(lam, (Fraction(0), Fraction(2))), {"X": 1, "Z": 1})]),
            }
            weights, jump = (6, 0, 6, 4), 8
        elif template == 2:  # ill-defined: D(X) = lambda alone
            variables, rel = XYZ, "X*Y - Z^2"
            images = {"X": poly_text([(lam, {})])}
        elif template == 3:  # random monomial images, almost always ill-defined
            variables, rel = XYZ, "X*Y - Z^2"
            images = {v: poly_text([(scalar(rng), {w: rng.randint(0, 2) for w in XYZ})])
                      for v in rng.sample(XYZ, 2)}
        elif template == 4:  # triangular witness on X + Y^2 + Z^3; top part Z^3
            variables = XYZ
            alpha, beta, gamma = scalar(rng, 0.3, 4), scalar(rng, 0.3, 4), scalar(rng, 0.3, 4)
            rel = poly_text([(alpha, {"X": 1}), (beta, {"Y": 2}), (gamma, {"Z": 3})])
            # D(X) = -2*(beta/alpha)*Y, D(Y) = 1 kills the relation
            norm = alpha[0] ** 2 + alpha[1] ** 2
            ratio = _smul(beta, (alpha[0] / norm, -alpha[1] / norm))
            images = {"X": poly_text([(_smul(ratio, (Fraction(-2), Fraction(0))), {"Y": 1})]),
                      "Y": poly_text([((Fraction(1), Fraction(0)), {})])}
            weights = (1, 1, 1)
        else:  # no images: the zero derivation has no degree jump
            variables, rel = XYZ, "X*Y - Z^2"
            images = {}
            weights = (1, 1, 1)
        argv = ["verify-derivation", "--relation", rel, "--vars", ",".join(variables),
                "--probe-bound", "8"]
        for v, t in images.items():
            argv += ["--image", f"{v}={t}"]
        if weights is not None:
            argv += ["--weights", ",".join(map(str, weights))]
        spec = {"relation": rel, "vars": variables, "images": images, "probe_bound": 8,
                "weights": weights, "degree_jump": jump}
        ops.append(Op(tuple(argv), "verify_derivation", spec))
    return ops


# Malformed input: each must end with exit code 1 and a structured error.
BAD_INPUTS = (
    ("classify", "--relation", "X^2 + + Y"),
    ("classify", "--relation", "X^2 + W^3"),
    ("classify", "--relation", "X^2*(Y - Z"),
    ("gr", "--relation", "X^2 - Y", "--vars", "X,Y", "--weights", "1"),
    ("search", "--relation", "X^2 + Y^2", "--max-deg", "1"),
)

NEST_DEPTH = 3000


def _nested(inner: str) -> str:
    return "(" * NEST_DEPTH + inner + ")" * NEST_DEPTH


def nested_ops() -> list[Op]:
    """Deeply nested but valid relations.  They do not depend on the seed:
    the parser recurses once per nesting level, so today RecursionError
    escapes ``main`` on each of them."""
    one = (Fraction(1), Fraction(0))
    cases = (
        (_nested("X") + " + Y^2 + Z^3", "X + Y^2 + Z^3",
         {"family": "fermat3", "exps": (1, 2, 3), "coeffs": (one,) * 3}),
        ("X^2*Y^3 - " + _nested("Z^5"), "X^2*Y^3 - Z^5",
         {"family": "three_term", "exps": (2, 3, 5)}),
        (_nested("X^2 + Y^2") + " + Z^3", "X^2 + Y^2 + Z^3",
         {"family": "fermat3", "exps": (2, 2, 3), "coeffs": (one,) * 3}),
    )
    ops = []
    for text, flat, facts in cases:
        argv = ("classify", "--relation", text, "--vars", "X,Y,Z")
        spec = {"relation": flat, "vars": XYZ, **facts}
        ops.append(Op(argv, "nested", spec, known_fault=True))
    return ops


def build_catalog_sweep(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = (
        _three_term_ops(rng, fixed) + _fermat3_ops(rng, fixed) + _mixed_four_ops(rng, fixed)
        + _fermat4_ops(rng, fixed) + _open_ops(rng) + _gr_ops(rng) + _obstruct_ops(rng) + _param_verify_ops(rng)
        + _verify_derivation_ops(rng)
        + [Op(argv, "error") for argv in BAD_INPUTS for _ in range(2)]
        + nested_ops()
    )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# witness_certify
# ---------------------------------------------------------------------------

WITNESS_ROUND = 50
WITNESS_SHAPES = ("two_squares_3", "two_squares_4", "even_twist", "zt_product")


def witness_size(k: int, n: int = WITNESS_ROUND) -> int:
    """Size parameter of stratum k: the (k + 1/2)/n quantile of 3 + 97*u^5,
    so every round spans 3..about 100 with the same skew and, as the cost
    grows about as size^2, the largest tenth of the operations carries most
    of the time.  The strata around the 90th percentile share one size, so
    latency_p90_ms measures that size rather than the gap between two."""
    u = (k + 0.5) / n
    if 0.86 <= u <= 0.94:
        u = 0.9
    return 3 + round(97 * u**5)


def _witness_op(rng: random.Random, shape: str, p: int) -> Op:
    if shape == "two_squares_3":  # a*x^2 + a*y^2 + g*z^p
        x, y, z = rng.sample(XYZ, 3)
        alpha, gamma = distinct_scalars(rng, 2)
        text = poly_text([(alpha, {x: 2}), (alpha, {y: 2}), (gamma, {z: p})])
        roles = {"x": x, "y": y, "z": z}
        variables = XYZ
    elif shape == "two_squares_4":  # a*x^2 + a*y^2 + g*z^p + d*t^q, p < q
        x, y, z, t = rng.sample(XYZT, 4)
        alpha, gamma, delta = distinct_scalars(rng, 3)
        q = p + rng.randint(1, 4)
        text = poly_text([(alpha, {x: 2}), (alpha, {y: 2}), (gamma, {z: p}), (delta, {t: q})])
        roles = {"x": x, "y": y, "z": z, "t": t}
        variables = XYZT
    elif shape == "even_twist":  # a*x^e*y^2 + a*z^2 + g*t^p, e even >= 4
        x, y, z, t = rng.sample(XYZT, 4)
        alpha, gamma = distinct_scalars(rng, 2)
        e = rng.choice((4, 6, 8))
        text = poly_text([(alpha, {x: e, y: 2}), (alpha, {z: 2}), (gamma, {t: p})])
        roles = {"x": x, "y": y, "z": z, "t": t}
        variables = XYZT
    else:  # zt_product: a*x^e*y^p + b*z^2 + b*t^2, e > p >= 2
        x, y, z, t = rng.sample(XYZT, 4)
        alpha, beta = distinct_scalars(rng, 2)
        text = poly_text([(alpha, {x: p + rng.randint(1, 3), y: p}), (beta, {z: 2}), (beta, {t: 2})])
        roles = {"x": x, "y": y, "z": z, "t": t}
        variables = XYZT
    spec = {"family": "witness", "shape": shape, "size": p, "roles": roles}
    return _classify(text, variables, spec)


def build_witness_certify(rng: random.Random, fixed: random.Random) -> list[Op]:
    # Shape and size are fixed per stratum; the seed changes the
    # coefficients, the variable roles and the order.
    ops = [
        _witness_op(rng, WITNESS_SHAPES[k % len(WITNESS_SHAPES)], witness_size(k))
        for k in range(WITNESS_ROUND)
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# mason_roots
# ---------------------------------------------------------------------------

MASON_ROUND = 200
MASON_REAL = 120
# A prime p = 1 (mod 4), so -1 has a square root modulo p.  A gcd that is
# constant modulo p (with p not dividing a leading coefficient or a
# denominator) proves the pair coprime over Q(i).
_P = 1_000_000_009
_SQRT_M1 = next(r for g in range(2, 100) if (r := pow(g, (_P - 1) // 4, _P)) ** 2 % _P == _P - 1)


def _mod_p(c: Scalar) -> int:
    (re, im) = c
    num = (re.numerator * im.denominator + _SQRT_M1 * im.numerator * re.denominator) % _P
    return num * pow(re.denominator * im.denominator, -1, _P) % _P


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _coprime_mod_p(p: list[Scalar], q: list[Scalar]) -> bool:
    a = _trim([_mod_p(c) for c in p])
    b = _trim([_mod_p(c) for c in q])
    if len(a) != len(p) or len(b) != len(q):
        return False  # a leading coefficient vanishes mod p: reject the pair
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):  # a := a mod b
            f = a[-1] * inv % _P
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _P
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _mason_scalar(rng: random.Random, gaussian: bool) -> Scalar:
    def part() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 1, 1, 2, 3)))

    return (part(), part() if gaussian else Fraction(0))


def _three_term_upoly(rng: random.Random, exps: list[int], gaussian: bool) -> list[Scalar]:
    zero = (Fraction(0), Fraction(0))
    dense = [zero] * (max(exps) + 1)
    for e in exps:
        dense[e] = _mason_scalar(rng, gaussian)
    return dense


def build_mason_roots(rng: random.Random, fixed: random.Random) -> list[Op]:
    """Coprime zero-sum triples (p, q, -p-q), p and q with three terms.
    Real triples have degree 6..17; Gaussian ones, whose gcd cost varies
    more with the coefficients, 4..9, so the tail is set by degree."""
    ops = []
    for k in range(MASON_ROUND):
        gaussian = k >= MASON_REAL
        degree = 4 + k % 6 if gaussian else 6 + k % 12
        # p has a constant term, so S never divides both p and q.
        p_exps = [degree, 0, fixed.randint(1, degree - 1)]
        q_degree = degree - fixed.randint(0, 2)
        q_exps = [q_degree, *fixed.sample(range(q_degree), 2)]
        while True:
            p = _three_term_upoly(rng, p_exps, gaussian)
            q = _three_term_upoly(rng, q_exps, gaussian)
            r = _trim_scalars(_umul([(Fraction(-1), Fraction(0))], _uadd(p, q)))
            if len(r) > 1 and _coprime_mod_p(p, q):
                break
        texts = [_utext(f) for f in (p, q, r)]
        ops.append(Op(("mason", "--polys", ";".join(texts)), "mason", {"polys": tuple(texts)}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# search_sweep
# ---------------------------------------------------------------------------


# Exponents per pass of the template list; the seed changes coefficients only,
# so each template examines the same leaves at the same cost every round.
DOUBLE_EXPS = ((2, 2, 3, 6), (3, 2, 4, 4), (3, 2, 3, 6), (2, 2, 3, 7))
EX1_EXPS = ((2, 3, 7), (4, 3, 4), (5, 2, 4), (3, 3, 4))
MINI_EXPS = ((2, 3), (3, 2), (2, 4), (3, 3))
EXTENDED_EXPS = ((2, 3, 1), (3, 2, 1), (3, 3, 3), (2, 4, 2))
TWISTED_EXPS = ((2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 2, 4))


def _search_problem(rng: random.Random, template: tuple, n: int) -> Op:
    pattern, bounds, window, gaussian = template
    c = [scalar(rng, 0.0, 3) for _ in range(3)]
    if pattern == "minimason":
        variables, constraint = ("F", "H"), "unit"
        a, b = params = MINI_EXPS[n]
        terms = [(c[0], {"F": a}), (c[1], {"H": b})]
    elif pattern == "extendedminimason":  # F^a + H^b*Q(H), deg Q = k
        variables, constraint = ("F", "H"), "unit"
        a, b, k = params = EXTENDED_EXPS[n]
        terms = [(c[0], {"F": a}), (c[1], {"H": b}), (c[2], {"H": b + k})]
    elif pattern == "twistedmason":
        variables, constraint = ("U", "V", "W"), "unit"
        a, b, cc = params = TWISTED_EXPS[n]
        terms = [(c[0], {"U": a, "V": b}), (c[1], {"W": cc})]
    elif pattern == "doublemason":
        variables, constraint = XYZT, "zero"
        a, b, cc, d = params = DOUBLE_EXPS[n]
        terms = [(c[0], {"X": a, "Y": b}), (c[1], {"Z": cc}), (c[2], {"T": d})]
    elif pattern == "ex1":
        variables, constraint = XYZ, "zero"
        params = EX1_EXPS[n]
        terms = [(cf, {v: d}) for cf, v, d in zip(c, XYZ, params)]
    elif pattern == "circle":  # X = S, Y = i*S solves it
        variables, constraint, params = ("X", "Y"), "zero", ()
        terms = [(c[0], {"X": 2}), (c[0], {"Y": 2})]
    else:  # quartic: (S*(S^3+1), -1, S^3+1) solves it
        variables, constraint, params = XYZ, "zero", ()
        terms = [(c[0], {"X": 3, "Y": 1}), (c[0], {"Z": 3, "Y": 1}), (c[0], {"Z": 4})]
    text = poly_text(terms)
    argv = ["search", "--relation", text, "--vars", ",".join(variables),
            "--max-deg", ",".join(map(str, bounds)), "--coeff-window", str(window),
            "--constraint", constraint]
    if gaussian:
        argv.append("--gaussian")
    spec = {"relation": text, "vars": variables, "pattern": pattern, "params": params,
            "bounds": bounds, "window": window, "gaussian": gaussian, "constraint": constraint}
    return Op(tuple(argv), "search", spec)


# (pattern, degree bounds, coefficient window, gaussian); leaves examined
# when nothing is found: prod over i of (V^(d_i+1) - 1), V window values.
SEARCH_TEMPLATES = (
    ("minimason", (3, 3), 1, False),  # 6400
    ("minimason", (2, 1), 2, False),  # 2976
    ("extendedminimason", (3, 2), 1, False),  # 2080
    ("extendedminimason", (2, 2), 2, False),  # 15376
    ("twistedmason", (2, 1, 1), 1, False),  # 1664
    ("twistedmason", (2, 2, 1), 1, False),  # 5408
    ("twistedmason", (1, 0, 0), 1, True),  # 5120
    ("doublemason", (1, 1, 1, 1), 1, False),  # 4096
    ("doublemason", (2, 1, 1, 1), 1, False),  # 13312
    ("ex1", (2, 2, 1), 1, False),  # 5408
    ("ex1", (2, 1, 1), 1, False),  # 1664
    ("ex1", (1, 0, 0), 1, True),  # 5120
    ("circle", (1, 1), 1, True),
    ("quartic", (4, 0, 3), 1, False),
)
SEARCH_PASSES = 4


def build_search_sweep(rng: random.Random, fixed: random.Random) -> list[Op]:
    ops = [_search_problem(rng, t, n) for n in range(SEARCH_PASSES) for t in SEARCH_TEMPLATES]
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "catalog_sweep": build_catalog_sweep,
    "witness_certify": build_witness_certify,
    "mason_roots": build_mason_roots,
    "search_sweep": build_search_sweep,
}


def build(workload: str, seed: int) -> list[Op]:
    """One round.  Exponents, degrees and sizes come from a generator that
    does not depend on the seed (the make-up); coefficients, variable
    permutations and the order of the round come from the seed."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), random.Random(f"{workload}:make-up"))
