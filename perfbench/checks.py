"""Output checks for every benchmark operation, made apart from the program.

Expected verdicts are re-derived here from the rule statements, the way the
acceptance tables do; polynomial facts (divisibility, derivation iterates,
square-free parts, substitutions) are computed with sympy's sparse
polynomial rings over QQ_I.  The program's output text is read by a small
parser of this module, not by ``rigidity.parsing``.

Every checker takes an :class:`~workloads.Op` and an :class:`Outcome` and
returns None when the output is right, or a one-line reason when it is not.
This module imports sympy, so it is imported only after the timed loop.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from typing import Callable, Optional

from sympy import QQ, QQ_I, grlex, ring

from workloads import Outcome

# Iterating a witness in sympy is cheap with sparse rings; above this
# exponent the witness_certify checks rely on the closed forms alone.
ITERATE_MAX_EXPONENT = 30
ITERATE_BOUND = 256


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# wire-format text -> sympy sparse polynomials
# ---------------------------------------------------------------------------

_RINGS: dict[tuple[str, ...], object] = {}
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


def ring_for(names) -> object:
    names = tuple(names)
    if names not in _RINGS:
        _RINGS[names] = ring(",".join(names), QQ_I, grlex)[0]
    return _RINGS[names]


def to_poly(text: str, names):
    """Parse ``expr := [+-] term ([+-] term)*``, ``term := factor (* factor)*``,
    ``factor := int [/ int] [i] | i | name [^ int] | ( expr )``."""
    R = ring_for(names)
    gens = dict(zip((str(s) for s in R.symbols), R.gens))
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1):
            tokens.append(("int", m.group(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        elif m.group(3):
            tokens.append((m.group(3), m.group(3)))
    tokens.append(("end", ""))
    pos = 0

    def peek():
        return tokens[pos][0]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise CheckFailed(f"cannot read {text!r}: expected {kind} at token {pos}")
        pos += 1
        return tok[1]

    def expr():
        sign = 1
        if peek() in "+-":
            sign = -1 if take() == "-" else 1
        total = term() * sign
        while peek() in ("+", "-"):
            op = take()
            total = total + term() if op == "+" else total - term()
        return total

    def term():
        value = factor()
        while peek() == "*":
            take()
            value = value * factor()
        return value

    def factor():
        kind = peek()
        if kind == "int":
            num, den = int(take()), 1
            if peek() == "/":
                take()
                den = int(take("int"))
            q = QQ(num, den)
            if peek() == "name" and tokens[pos][1] == "i":
                take()
                return R(QQ_I(0, q))
            return R(QQ_I(q, 0))
        if kind == "name":
            name = take()
            if name == "i":
                return R(QQ_I(0, 1))
            if name not in gens:
                raise CheckFailed(f"unknown variable {name!r} in {text!r}")
            e = 1
            if peek() == "^":
                take()
                e = int(take("int"))
            return gens[name] ** e
        if kind == "(":
            take()
            value = expr()
            take(")")
            return value
        raise CheckFailed(f"cannot read {text!r} at token {pos}")

    value = expr()
    take("end")
    return value


def _wdeg(monom, weights) -> int:
    return sum(w * e for w, e in zip(weights, monom))


def _derive(images, gens):
    def apply(p):
        total = p.ring.zero
        for g, img in zip(gens, images):
            if img:
                total += img * p.diff(g)
        return total

    return apply


def iterate_steps(f, images, bound: int) -> Optional[list[int]]:
    """For each generator x, the first n with f | D^n(x); None past bound."""
    gens = f.ring.gens
    derive = _derive(images, gens)
    steps = []
    for g in gens:
        current, n = g.rem(f), 0
        while current:
            if n >= bound:
                return None
            current = derive(current).rem(f)
            n += 1
        steps.append(n)
    return steps


# ---------------------------------------------------------------------------
# rule statements, restated
# ---------------------------------------------------------------------------


def _cb4(ds) -> bool:
    return any(
        gcd(a * b, c) == 1 and gcd(a * b * c, d) == 1 and gcd(a, b) not in (a, b)
        for a, b, c, d in permutations(ds)
    )


def _ex1(ds) -> str:
    if any(d < 2 for d in ds) or gcd(*ds) != 1:
        return "HypothesisNotMet"
    total = sum(Fraction(1, d) for d in ds)
    return "Obstructed" if total <= Fraction(1, len(ds) - 2) else "NotObstructed"


def expected_obstruction(pattern: str, p: dict) -> str:
    """Status of a closed-form parametrization obstruction."""
    if pattern == "minimason":
        ok = p["a"] >= 2 and p["b"] >= 2
    elif pattern == "extendedminimason":
        ok = p["degq"] + 1 <= (p["a"] - 1) * (p["b"] - 1)
    elif pattern == "twistedmason":
        ok = min(p["a"], p["b"], p["c"]) >= 2
    elif pattern == "doublemason":
        b = min(p["a"], p["b"])
        ok = Fraction(1, b) + Fraction(1, p["c"]) + Fraction(1, p["d"]) <= 1
    elif pattern == "ex1":
        return _ex1([p[f"d{i + 1}"] for i in range(len(p))])
    else:
        raise ValueError(pattern)
    return "Obstructed" if ok else "NotObstructed"


def _all_equal(values) -> bool:
    return len(set(values)) <= 1


def expected_classify(spec: dict) -> tuple[str, bool, Optional[str]]:
    """(status, whether a witness is published, family kind or None)."""
    family = spec["family"]
    if family == "three_term":
        # X^a*Y^b - Z^c is rigid exactly when a, b, c >= 2 (Theorem case1).
        if min(spec["exps"]) >= 2:
            return "Rigid", False, "ThreeTermXY"
        return "NotRigid", True, "ThreeTermXY"
    if family in ("fermat3", "fermat4"):
        ds, coeffs = spec["exps"], spec["coeffs"]
        kind = "Fermat3" if family == "fermat3" else "FermatN"
        squares = [c for d, c in zip(ds, coeffs) if d == 2]
        if 1 in ds:
            return "NotRigid", True, kind
        if len(squares) >= 2:
            # The two-squares witness needs sqrt of the coefficient ratio.
            return "NotRigid", _all_equal(squares), kind
        if family == "fermat3":
            return "Rigid", False, kind  # Theorem KalZai
        if _cb4(ds) or _ex1(ds) == "Obstructed":
            return "Rigid", False, kind
        return "Unknown", False, kind
    if family == "mixed4":
        a, b, c, d = spec["exps"]
        alpha, beta, gamma = spec["coeffs"]
        hi, lo = max(a, b), min(a, b)
        zc, td = min(c, d), max(c, d)
        if c > d:
            beta, gamma = gamma, beta
        if lo == 1 or zc == 1:
            return "NotRigid", True, "MixedFour"
        if zc == 2 and td == 2:
            return "NotRigid", beta == gamma, "MixedFour"
        if lo == 2 and zc == 2 and hi % 2 == 0:
            return "NotRigid", alpha == beta, "MixedFour"
        if hi % 6 == 0 and ((lo, zc, td) in ((3, 2, 4), (2, 3, 3))):
            return "Unknown", False, "MixedFour"
        return "Rigid", False, "MixedFour"
    if family == "open":
        return "Unknown", False, spec["kind"]
    if family == "witness":
        kind = {"two_squares_3": "Fermat3", "two_squares_4": "FermatN"}.get(spec["shape"], "MixedFour")
        return "NotRigid", True, kind
    raise ValueError(family)


def closed_form_steps(spec: dict) -> list[int]:
    """Witness step counts per generator for the witness_certify shapes
    (derivations in README.md), listed in declared variable order."""
    p = spec["size"]
    by_role = {
        "two_squares_3": {"x": p + 1, "y": p + 1, "z": 2},
        "two_squares_4": {"x": p + 1, "y": p + 1, "z": 2, "t": 1},
        "even_twist": {"x": 1, "y": p + 1, "z": p + 1, "t": 2},
        "zt_product": {"x": 1, "y": 2, "z": p + 1, "t": p + 1},
    }[spec["shape"]]
    steps = {spec["roles"][role]: n for role, n in by_role.items()}
    return [steps[v] for v in spec["vars"]]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _payload(op, outcome: Outcome, code: int = 0):
    _expect(outcome.error is None, f"{outcome.error} escaped main")
    _expect(outcome.code == code, f"exit code {outcome.code}, expected {code}")
    payload = json.loads(outcome.out)
    _expect(payload.get("command") == op.argv[0], "payload names the wrong command")
    key = "result" if code == 0 else "error"
    _expect(isinstance(payload.get(key), dict), f"payload has no {key!r} object")
    return payload[key]


def check_classify(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    spec = op.spec
    status, has_witness, kind = expected_classify(spec)
    _expect(res["status"] == status, f"status {res['status']}, expected {status}")
    if kind is not None:
        _expect(res["family"]["kind"] == kind, f"kind {res['family']['kind']}, expected {kind}")
    witness = res["witness"]
    if not has_witness:
        _expect(witness is None, "a witness was published where none is expected")
        return
    _expect(witness is not None, "no witness published")
    names = spec["vars"]
    f = to_poly(spec["relation"], names)
    images = [to_poly(witness[v], names) for v in names]
    _expect(any(img.rem(f) for img in images), "the witness is the zero derivation")
    d_f = sum((img * f.diff(g) for img, g in zip(images, f.ring.gens)), f.ring.zero)
    _expect(not d_f.rem(f), "f does not divide D(f): the witness does not descend")
    steps = res.get("witness_steps")
    if spec["family"] == "witness":
        want = closed_form_steps(spec)
        _expect(steps == want, f"witness_steps {steps}, closed form {want}")
        if spec["size"] > ITERATE_MAX_EXPONENT:
            return
    want = iterate_steps(f, images, ITERATE_BOUND)
    _expect(steps == want, f"witness_steps {steps}, sympy iteration {want}")


def check_gr(op, outcome: Outcome) -> None:
    spec = op.spec
    names, weights = spec["vars"], spec["weights"]
    f = to_poly(spec["relation"], names)
    if f.is_ground:
        _payload(op, outcome, code=1)
        return
    top_degree = max(_wdeg(m, weights) for m in f.monoms())
    top = f.ring({m: c for m, c in f.terms() if _wdeg(m, weights) == top_degree})
    if top.is_ground:
        _payload(op, outcome, code=1)  # no graded presentation exists
        return
    res = _payload(op, outcome)
    _expect(to_poly(res["relation"], names) == f, "relation echo differs")
    _expect(to_poly(res["top_part"], names) == top, f"top part {res['top_part']} is wrong")
    _expect(res["homogeneous"] == (top == f), "homogeneous flag is wrong")
    _expect(res["weights"] == list(weights), "weights echo differs")
    _expect(res["variables"] == list(names), "variables echo differs")


def check_obstruct(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    want = expected_obstruction(op.spec["pattern"], op.spec["params"])
    _expect(res["status"] == want, f"status {res['status']}, expected {want}")
    _expect(res["rule"] == op.spec["pattern"], f"rule {res['rule']}")


def _substitute(f, subs: dict, names):
    """f(subs) in QQ_I[S], by sympy arithmetic."""
    S = ring_for(("S",))
    images = [subs[v] for v in names]
    total = S.zero
    for monom, coeff in f.terms():
        term = S(coeff)
        for img, e in zip(images, monom):
            if e:
                term *= img**e
        total += term
    return total


def check_param_verify(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    spec = op.spec
    f = to_poly(spec["relation"], spec["vars"])
    subs = {v: to_poly(t, ("S",)) for v, t in spec["subs"].items()}
    value = _substitute(f, subs, spec["vars"])
    ok = not value if spec["constraint"] == "zero" else bool(value) and value.is_ground
    _expect(res["ok"] == ok, f"ok {res['ok']}, expected {ok}")
    _expect(to_poly(res["residual"], ("S",)) == value, "residual differs from sympy")
    _expect(res["constraint"] == spec["constraint"], "constraint echo differs")


def _negative_grading(f, images, weights) -> str:
    if any(w <= 0 for w in weights):
        return "inapplicable"
    if len({_wdeg(m, weights) for m in f.monoms()}) > 1:
        return "inapplicable"
    jumps = [
        max(_wdeg(m, weights) for m in img.monoms()) - w
        for w, img in zip(weights, (img.rem(f) for img in images))
        if img
    ]
    if not jumps or max(jumps) < 0:
        return "certified"
    return "inconclusive"


def check_verify_derivation(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    spec = op.spec
    names = spec["vars"]
    f = to_poly(spec["relation"], names)
    R = f.ring
    images = [to_poly(spec["images"][v], names) if v in spec["images"] else R.zero for v in names]
    d_f = sum((img * f.diff(g) for img, g in zip(images, R.gens)), R.zero)
    defined = not d_f.rem(f)
    _expect(res["well_defined"] == defined, f"well_defined {res['well_defined']}, expected {defined}")
    if not defined:
        return
    _expect(res["nonzero"] == any(img.rem(f) for img in images), "nonzero flag is wrong")
    steps = iterate_steps(f, images, spec["probe_bound"])
    probe = res["probe"]
    if steps is None:
        _expect(probe["status"] == "inconclusive", "probe certified past its bound")
    else:
        _expect(probe["status"] == "certified", f"probe {probe['status']}, expected certified")
        _expect(probe["steps_per_generator"] == steps, f"probe steps {probe['steps_per_generator']}, sympy {steps}")
    if spec["weights"] is None:
        return
    want = _negative_grading(f, images, spec["weights"])
    got = res["negative_grading"]["status"]
    _expect(got == want, f"negative_grading {got}, expected {want}")
    _expect(res["degree_jump"] == spec["degree_jump"], f"degree_jump {res['degree_jump']}, expected {spec['degree_jump']}")


def check_error(op, outcome: Outcome) -> None:
    err = _payload(op, outcome, code=1)
    _expect(bool(err.get("type")) and bool(err.get("message")), "error payload lacks type or message")


def check_nested(op, outcome: Outcome) -> None:
    """A valid but deeply nested relation: either a structured input error
    (a depth limit) or the verdict of the same relation written flat."""
    if outcome.error is None and outcome.code == 0:
        check_classify(op, outcome)
    else:
        check_error(op, outcome)


def check_mason(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    polys = [to_poly(t, ("S",)) for t in op.spec["polys"]]
    _expect(not sum(polys, polys[0].ring.zero), "the triple does not sum to zero")
    for i in range(3):
        for j in range(i + 1, 3):
            _expect(polys[i].gcd(polys[j]).is_ground, "generated triple is not coprime")
    roots = [p.sqf_part().degree() if not p.is_ground else 0 for p in polys]
    product = polys[0] * polys[1] * polys[2]
    roots_product = product.sqf_part().degree()
    degrees = [max(p.degree(), 0) for p in polys]
    _expect(res["hypotheses_ok"] is True and res["violation"] is None, "coprime triple rejected")
    _expect(res["distinct_roots_each"] == roots, f"distinct roots {res['distinct_roots_each']}, sympy {roots}")
    _expect(res["distinct_roots_product"] == roots_product,
            f"distinct roots of the product {res['distinct_roots_product']}, sympy {roots_product}")
    _expect(res["max_degree"] == max(degrees), "max_degree is wrong")
    _expect(res["bound_product"] == roots_product and res["bound_sum"] == sum(roots), "bounds are wrong")
    # Mason-Stothers: max degree < N(pqr) <= N(p) + N(q) + N(r) for coprime triples.
    _expect(res["holds_product"] is True and res["holds_sum"] is True, "Mason-Stothers inequality reported false")
    _expect(res["all_constant"] is False, "all_constant is wrong")


_SEARCH_PATTERN_KEYS = {
    "minimason": ("a", "b"),
    "extendedminimason": ("a", "b", "degq"),
    "twistedmason": ("a", "b", "c"),
    "doublemason": ("a", "b", "c", "d"),
}


def search_space(bounds, window: int, gaussian: bool) -> int:
    values = (2 * window + 1) ** (2 if gaussian else 1)
    return prod(values ** (d + 1) - 1 for d in bounds)


def _search_obstructed(spec: dict) -> bool:
    pattern, params = spec["pattern"], spec["params"]
    if pattern in ("circle", "quartic"):
        return False
    if pattern == "ex1":
        keyed = {f"d{i + 1}": d for i, d in enumerate(params)}
    else:
        keyed = dict(zip(_SEARCH_PATTERN_KEYS[pattern], params))
    return expected_obstruction(pattern, keyed) == "Obstructed"


def check_search(op, outcome: Outcome) -> None:
    res = _payload(op, outcome)
    spec = op.spec
    full = search_space(spec["bounds"], spec["window"], spec["gaussian"])
    if _search_obstructed(spec):
        _expect(res["status"] == "NoneWithinBounds", f"{res['status']} on an obstructed problem")
    if spec["pattern"] in ("circle", "quartic"):
        _expect(res["status"] == "Found", "no hit on a problem with a solution in bounds")
    if res["status"] == "NoneWithinBounds":
        _expect(res["examined"] == full, f"examined {res['examined']}, expected {full}")
        _expect(res["candidates"] is None, "candidates without a hit")
        return
    _expect(res["status"] == "Found", f"unknown status {res['status']}")
    _expect(1 <= res["examined"] <= full, f"examined {res['examined']} outside 1..{full}")
    names = spec["vars"]
    subs = {v: to_poly(res["candidates"][v], ("S",)) for v in names}
    nonconstant = False
    for v, bound in zip(names, spec["bounds"]):
        p = subs[v]
        _expect(bool(p), f"candidate for {v} is zero")
        _expect(p.degree() <= bound, f"candidate for {v} exceeds degree {bound}")
        nonconstant |= p.degree() > 0
        for c in p.coeffs():
            parts = (c.x, c.y)
            _expect(all(q.denominator == 1 and abs(q.numerator) <= spec["window"] for q in parts),
                    f"coefficient {c} of {v} is outside the window")
            _expect(spec["gaussian"] or c.y == 0, f"Gaussian coefficient {c} in a real search")
    _expect(nonconstant or not any(spec["bounds"]), "every candidate is constant")
    f = to_poly(spec["relation"], names)
    value = _substitute(f, subs, names)
    if spec["constraint"] == "zero":
        _expect(not value, "the hit does not satisfy its relation")
    else:
        _expect(bool(value) and value.is_ground, "the hit is not a unit solution")


CHECKERS: dict[str, Callable] = {
    "classify": check_classify,
    "gr": check_gr,
    "obstruct": check_obstruct,
    "param_verify": check_param_verify,
    "verify_derivation": check_verify_derivation,
    "error": check_error,
    "nested": check_nested,
    "mason": check_mason,
    "search": check_search,
}


def check(op, outcome: Outcome) -> Optional[str]:
    """None when the output is right, else the reason it is not."""
    try:
        CHECKERS[op.check](op, outcome)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
