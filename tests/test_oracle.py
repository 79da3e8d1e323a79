import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import rigidity.oracle as oracle
from rigidity import (
    ParametrizationProblem,
    Polynomial,
    SearchSpaceError,
    UnsupportedShapeError,
    bounded_search,
    gens,
    parametrization_obstructed,
    parse_poly,
    remark_family_candidates,
    verify_parametrization,
)
from rigidity.gauss import gq
from rigidity.mason import (
    check_double_mason,
    check_extended_mini_mason,
    check_fermat_sum,
    check_mini_mason,
    check_twisted_mason,
)

from helpers import random_poly, random_scalar, reference_search

S, = gens("S")


def zero_problem(relation, bounds=()):
    return ParametrizationProblem(relation, "zero", bounds)


def unit_problem(relation, bounds=()):
    return ParametrizationProblem(relation, "unit", bounds)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_problem_validation():
    X, Y = gens("X", "Y")
    with pytest.raises(ValueError):
        ParametrizationProblem(X + Y, "sometimes")
    with pytest.raises(ValueError):
        ParametrizationProblem(Polynomial.constant(("X",), 3), "zero")
    with pytest.raises(ValueError):
        ParametrizationProblem(X + Y, "zero", (1,))
    with pytest.raises(ValueError):
        ParametrizationProblem(X + Y, "zero", (1, -2))


# ---------------------------------------------------------------------------
# verify_parametrization
# ---------------------------------------------------------------------------


def test_verify_known_solution_of_quartic_relation():
    X, Y, Z = gens("X", "Y", "Z")
    relation = X**3 * Y + Z**3 * Y + Z**4
    check = verify_parametrization(
        zero_problem(relation),
        (S * (S**3 + 1), Polynomial.constant(("S",), -1), S**3 + 1),
    )
    assert check.ok
    assert check.residual.is_zero


def test_verify_reports_nonzero_residual():
    X, Y, Z = gens("X", "Y", "Z")
    relation = X**3 * Y + Z**3 * Y + Z**4
    check = verify_parametrization(zero_problem(relation), (S, 1, S))
    assert not check.ok
    assert not check.residual.is_zero
    # the residual is the substituted value itself
    assert check.residual == S**4 + 2 * S**3


def test_verify_accepts_plain_scalars():
    X, Y = gens("X", "Y")
    check = verify_parametrization(zero_problem(X + Y), (2, -2))
    assert check.ok
    assert check.residual.is_zero


def test_verify_unit_target_rejects_zero_value():
    X, Y = gens("X", "Y")
    problem = unit_problem(X**2 + Y**2)
    assert verify_parametrization(problem, (1, 0)).ok
    squares_cancel = verify_parametrization(problem, (S, gq(0, 1) * S))
    assert not squares_cancel.ok
    assert squares_cancel.residual.is_zero


def test_verify_arity_mismatch():
    X, Y = gens("X", "Y")
    with pytest.raises(ValueError):
        verify_parametrization(zero_problem(X + Y), (S,))


# ---------------------------------------------------------------------------
# obstruction extraction
# ---------------------------------------------------------------------------


def test_extracts_two_power_pattern():
    F, H = gens("F", "H")
    verdict = parametrization_obstructed(unit_problem(F**2 + H**2))
    assert verdict.obstructed and verdict.rule == "minimason"
    assert not parametrization_obstructed(unit_problem(F + H**5)).obstructed


def test_extracts_power_plus_tail_pattern():
    F, H = gens("F", "H")
    # H^3 * (1 + H^3): the tail has degree 3, and 3+1 <= (3-1)(3-1)
    verdict = parametrization_obstructed(unit_problem(F**3 + H**3 + H**6))
    assert verdict.obstructed and verdict.rule == "extendedminimason"
    # degree-4 tail: 4+1 > 4
    assert not parametrization_obstructed(
        unit_problem(F**3 + H**3 + H**7)
    ).obstructed


def test_monomial_tail_collapses_to_two_power_rule():
    F, H = gens("F", "H")
    for e in range(0, 4):
        verdict = parametrization_obstructed(unit_problem(F**2 + H ** (2 + e)))
        assert verdict.obstructed
        assert verdict.rule == "minimason"


def test_extracts_mixed_product_pattern():
    U, V, W = gens("U", "V", "W")
    verdict = parametrization_obstructed(unit_problem(U**2 * V**2 + W**3))
    assert verdict.obstructed and verdict.rule == "twistedmason"
    assert not parametrization_obstructed(
        unit_problem(U * V**2 + W**3)
    ).obstructed


def test_extracts_four_variable_zero_pattern():
    X, Y, Z, T = gens("X", "Y", "Z", "T")
    verdict = parametrization_obstructed(zero_problem(X**3 * Y**2 + Z**3 + T**6))
    assert verdict.obstructed and verdict.rule == "doublemason"


def test_extracts_pure_power_sum_pattern():
    X, Y, Z = gens("X", "Y", "Z")
    assert parametrization_obstructed(zero_problem(X**2 + Y**3 + Z**7)).obstructed
    assert not parametrization_obstructed(
        zero_problem(X**2 + Y**3 + Z**5)
    ).obstructed


@pytest.mark.parametrize(
    "variables, build, constraint",
    [
        # a variable that never occurs
        (("X", "Y", "Z"), lambda X, Y, Z: X**2 + Y**2, "unit"),
        # two pure powers under the zero target have no certificate
        (("X", "Y"), lambda X, Y: X**2 + Y**3, "zero"),
        # three pure powers under the unit target have no certificate
        (("X", "Y", "Z"), lambda X, Y, Z: X**2 + Y**3 + Z**7, "unit"),
        # both variables carry several exponents
        (("X", "Y"), lambda X, Y: X**2 + X**4 + Y**2 + Y**4, "unit"),
        # the four-variable mixed shape has only a zero-target certificate
        (("X", "Y", "Z", "T"), lambda X, Y, Z, T: X**2 * Y**3 + Z**2 + T**3, "unit"),
        # the three-term mixed shape has only a unit-target certificate
        (("X", "Y", "Z"), lambda X, Y, Z: X**2 * Y**2 + Z**3, "zero"),
        # a pure variable that also occurs in the mixed term: doublemason speaks
        # of (X, Y, Z, Y), never coprime, and (S^2, S^3, g*S^6) with g^3 = -2
        # solves it
        (("X", "Y", "Z"), lambda X, Y, Z: X**6 * Y**2 + Z**3 + Y**6, "zero"),
        # the same overlap under the unit target
        (("X", "Y"), lambda X, Y: Y**6 * X**7 + Y**2, "unit"),
    ],
)
def test_unsupported_shapes(variables, build, constraint):
    vs = gens(*variables)
    with pytest.raises(UnsupportedShapeError):
        parametrization_obstructed(
            ParametrizationProblem(build(*vs), constraint)
        )


SHAPES = ("minimason", "extendedminimason", "twistedmason", "doublemason", "ex1")


def _documented_shape(rng, shape):
    """A relation of one documented shape whose letters are a random
    permutation of the declared variables, with nonzero Gaussian and
    fractional coefficients; returns it with its target and the direct
    certificate on exponents read here in the documented order."""
    arity = {"minimason": 2, "extendedminimason": 2, "twistedmason": 3, "doublemason": 4}
    n = arity[shape] if shape in arity else rng.randint(3, 5)
    names = ("X", "Y", "Z", "T", "U")[:n]
    slot = rng.sample(range(n), n)  # letter k is the variable names[slot[k]]
    e = [rng.randint(1, 7) for _ in range(n)]

    def term(*powers):
        exps = [0] * n
        for k, power in powers:
            exps[slot[k]] = power
        coefficient = random_scalar(rng)
        while coefficient.is_zero:
            coefficient = random_scalar(rng)
        return Polynomial.monomial(names, tuple(exps), coefficient)

    # a, b of u^a + v^b and of u^a*v^b in declared order
    first = (e[0], e[1]) if slot[0] < slot[1] else (e[1], e[0])
    if shape == "minimason":
        return term((0, e[0])) + term((1, e[1])), "unit", check_mini_mason(*first)
    if shape == "extendedminimason":
        tail = sorted(rng.sample(range(1, 8), rng.randint(2, 3)))
        relation = term((0, e[0]))
        for power in tail:
            relation = relation + term((1, power))
        deg_q = tail[-1] - tail[0]
        return relation, "unit", check_extended_mini_mason(e[0], tail[0], deg_q)
    if shape == "twistedmason":
        relation = term((0, e[0]), (1, e[1])) + term((2, e[2]))
        return relation, "unit", check_twisted_mason(*first, e[2])
    if shape == "doublemason":
        relation = term((0, e[0]), (1, e[1])) + term((2, e[2])) + term((3, e[3]))
        return relation, "zero", check_double_mason(
            max(e[:2]), min(e[:2]), min(e[2:]), max(e[2:])
        )
    relation = term((0, e[0]))
    for k in range(1, n):
        relation = relation + term((k, e[k]))
    # three pure powers ascend, more keep the declared order
    ds = sorted(e) if n == 3 else [e[slot.index(i)] for i in range(n)]
    return relation, "zero", check_fermat_sum(ds)


def test_documented_shapes_get_their_certificates():
    rng = random.Random(5)
    statuses = {shape: set() for shape in SHAPES}
    for _ in range(400):
        shape = rng.choice(SHAPES)
        relation, target, expected = _documented_shape(rng, shape)
        verdict = parametrization_obstructed(ParametrizationProblem(relation, target))
        assert (verdict.status, verdict.rule) == (expected.status, expected.rule), relation
        assert verdict == expected, relation
        statuses[shape].add(verdict.status)
    assert all(len(seen) >= 2 for seen in statuses.values()), statuses


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------


def test_search_finds_gaussian_isotropic_pair():
    X, Y = gens("X", "Y")
    problem = zero_problem(X**2 + Y**2, (1, 1))
    outcome = bounded_search(problem, coefficient_window=1, gaussian=True)
    assert outcome.found
    assert verify_parametrization(problem, outcome.candidates).ok
    assert all(not c.is_zero for c in outcome.candidates)
    assert any(not c.is_constant for c in outcome.candidates)
    assert outcome.examined > 0


def test_search_skips_degenerate_zero_components():
    # X^2 + Y^2 + Z^2 = 0 has window-1 solutions like (S, i*S, 0), but only
    # among tuples with a zero component; those are outside the candidate
    # domain, so the search honestly comes up empty here.
    X, Y, Z = gens("X", "Y", "Z")
    problem = zero_problem(X**2 + Y**2 + Z**2, (1, 1, 1))
    outcome = bounded_search(problem, coefficient_window=1, gaussian=True)
    assert outcome.status == "NoneWithinBounds"


def test_search_respects_obstruction():
    F, H = gens("F", "H")
    problem = unit_problem(F**2 + H**3, (3, 2))
    assert parametrization_obstructed(problem).obstructed
    outcome = bounded_search(problem)
    assert outcome.status == "NoneWithinBounds"
    assert outcome.candidates is None


def test_search_constant_only_bounds():
    X, Y = gens("X", "Y")
    outcome = bounded_search(zero_problem(X + Y, (0, 0)), coefficient_window=1)
    assert outcome.found
    a, b = outcome.candidates
    assert a.is_constant and b.is_constant
    assert (a + b).is_zero


def test_search_is_deterministic_and_finds_the_quartic_family():
    X, Y, Z = gens("X", "Y", "Z")
    problem = zero_problem(X**3 * Y + Z**3 * Y + Z**4, (4, 0, 3))
    first = bounded_search(problem, coefficient_window=1)
    second = bounded_search(problem, coefficient_window=1)
    assert first == second
    assert first.found
    assert verify_parametrization(problem, first.candidates).ok
    assert all(not c.is_zero for c in first.candidates)


def test_search_space_ceiling():
    X, Y, Z = gens("X", "Y", "Z")
    problem = zero_problem(X**2 + Y**2 + Z**2, (2, 2, 2))
    with pytest.raises(SearchSpaceError):
        bounded_search(problem, coefficient_window=2, gaussian=True)


@pytest.mark.parametrize("bound", [100_000, 30_000_000])
def test_search_space_ceiling_needs_no_full_power(bound):
    # The full 5 ** (bound + 1) would have about 70,000 digits at 100,000
    # and 21 million at 30,000,000; the count stops once it passes the ceiling.
    X, Y = gens("X", "Y")
    with pytest.raises(SearchSpaceError, match="exceeds the ceiling of 10000000 tuples"):
        bounded_search(zero_problem(X**2 + Y**2, (0, bound)))


def test_search_argument_validation():
    X, Y = gens("X", "Y")
    with pytest.raises(ValueError):
        bounded_search(zero_problem(X + Y))  # no bounds to search
    with pytest.raises(ValueError):
        bounded_search(zero_problem(X + Y, (1, 1)), coefficient_window=-1)


@pytest.mark.parametrize(
    "constraint, build, bounds, window, gaussian",
    [
        ("unit", lambda v: v[0] ** 2 + v[1] ** 2, (1, 1), 1, True),
        ("unit", lambda v: v[0] ** 3 + v[1] ** 3 + v[1] ** 6, (2, 2), 2, False),
        ("unit", lambda v: v[0] ** 2 * v[1] ** 2 + v[2] ** 3, (1, 1, 1), 2, False),
        ("zero", lambda v: v[0] ** 3 * v[1] ** 2 + v[2] ** 3 + v[3] ** 6, (1, 1, 1, 1), 1, False),
        ("zero", lambda v: v[0] ** 2 + v[1] ** 3 + v[2] ** 7, (1, 1, 1), 2, False),
    ],
)
def test_search_never_beats_a_certificate(constraint, build, bounds, window, gaussian):
    names = ("X", "Y", "Z", "T")[: len(bounds)]
    relation = build(gens(*names))
    problem = ParametrizationProblem(relation, constraint, bounds)
    assert parametrization_obstructed(problem).obstructed
    outcome = bounded_search(problem, coefficient_window=window, gaussian=gaussian)
    assert outcome.status == "NoneWithinBounds"


# ---------------------------------------------------------------------------
# bounded search against the dense reference, filter collisions, memory
# ---------------------------------------------------------------------------

# At most this many tuples per drawn search, so that the dense reference
# stays fast.
REFERENCE_SPACE = 7000

coefficients = st.sampled_from(
    [gq(1), gq(-1), gq(2), gq(-3), gq(0, 1), gq(1, -1), gq(Fraction(1, 2)), gq(Fraction(-2, 3), 1)]
)


@st.composite
def search_problems(draw):
    n = draw(st.integers(2, 4))
    names = ("X", "Y", "Z", "T")[:n]
    relation = Polynomial.zero(names)
    for _ in range(draw(st.integers(2, 3))):
        exps = tuple(draw(st.integers(0, 3)) for _ in names)
        relation = relation + Polynomial.monomial(names, exps, draw(coefficients))
    assume(not relation.is_constant)
    gaussian = draw(st.booleans())
    bounds = [draw(st.integers(0, 2)) for _ in names]
    width = 9 if gaussian else 3
    # Shrink the largest bound until the reference can exhaust the space.
    while width ** sum(d + 1 for d in bounds) > REFERENCE_SPACE:
        bounds[bounds.index(max(bounds))] -= 1
    constraint = draw(st.sampled_from(["zero", "unit"]))
    return ParametrizationProblem(relation, constraint, tuple(bounds)), gaussian


@settings(max_examples=80, deadline=None)
@given(search_problems())
def test_search_matches_the_dense_reference(drawn):
    problem, gaussian = drawn
    outcome = bounded_search(problem, coefficient_window=1, gaussian=gaussian)
    expected = reference_search(problem, coefficient_window=1, gaussian=gaussian)
    assert outcome.status == expected.status
    assert outcome.examined == expected.examined
    assert outcome.candidates == expected.candidates


def test_zero_target_filter_collision_is_rejected_exactly():
    # X = S, Y = 1 makes X - p*Y vanish at the filter point p, but the
    # substituted relation S - p is not zero.
    p = oracle._FILTER_POINTS[0]
    X, Y = gens("X", "Y")
    problem = zero_problem(X - p * Y, (1, 0))
    assert verify_parametrization(problem, (S, 1)).residual == S - p
    outcome = bounded_search(problem, coefficient_window=1)
    assert outcome == reference_search(problem, coefficient_window=1)
    assert outcome.status == "NoneWithinBounds"
    assert outcome.examined == 8 * 2


def test_unit_target_filter_collision_is_rejected_exactly():
    # X = S^2, Y = S, Z = 1 gives (S - p)*(S - q) + 1: the value 1 at both
    # filter points, yet not constant.
    p, q = oracle._FILTER_POINTS
    X, Y, Z = gens("X", "Y", "Z")
    problem = unit_problem(X - (p + q) * Y + (p * q + 1) * Z, (2, 1, 0))
    value = verify_parametrization(problem, (S**2, S, 1)).residual
    assert value == (S - p) * (S - q) + 1
    outcome = bounded_search(problem, coefficient_window=1)
    assert outcome == reference_search(problem, coefficient_window=1)
    assert outcome.status == "NoneWithinBounds"
    assert outcome.examined == 26 * 8 * 2


def test_search_above_the_table_cap_streams_in_bounded_memory():
    X, Y = gens("X", "Y")
    problem = unit_problem(X**2 + 2 * Y**3, (0, 8))
    inner = 3**9 - 1
    assert inner > oracle._TABLE_CAP
    tracemalloc.start()
    try:
        outcome = bounded_search(problem, coefficient_window=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.status == "NoneWithinBounds"
    assert outcome.examined == 2 * inner
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("gaussian", [False, True])
def test_search_space_ceiling_is_checked_before_the_window_is_listed(gaussian):
    X, Y = gens("X", "Y")
    problem = zero_problem(X**2 + Y**2, (0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError):
            bounded_search(problem, coefficient_window=10**8, gaussian=gaussian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("gaussian", [False, True])
def test_one_value_window_lists_nothing(gaussian):
    # Window 0 holds only the zero coefficient, so no tuple of nonzero
    # polynomials exists and no level is built.
    X, Y = gens("X", "Y")
    problem = zero_problem(X**2 + Y**2, (0, 3_000_000))
    tracemalloc.start()
    try:
        outcome = bounded_search(problem, coefficient_window=0, gaussian=gaussian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (outcome.status, outcome.candidates, outcome.examined) == ("NoneWithinBounds", None, 0)
    assert peak < 2**20, peak


# A trailing block of levels is looked up by the value its row must add.
# When no outer level shares a term with the block there is one index per
# search; otherwise there is one per choice of the outer levels that do.  In
# the fallback every outer level shares a term with the last one, so the last
# level is scanned.
INDEXED_CASES = [
    ("X^2 + Y", ("X", "Y"), "zero", (1, 1), 1, True),
    ("X^3 - 2*Y^2", ("X", "Y"), "zero", (1, 1), 1, True),
    ("X^2 + Y^3", ("X", "Y"), "zero", (1, 1), 1, True),
    ("X^2 - Y^2", ("X", "Y"), "zero", (1, 1), 1, True),
    ("X^2 + 2*Y", ("X", "Y"), "unit", (1, 1), 2, False),
    ("X^3 - Y^2", ("X", "Y"), "unit", (1, 2), 2, False),
    ("X^2 + Y^3", ("X", "Y"), "unit", (2, 1), 2, False),
    ("X^2 - Y^2", ("X", "Y"), "unit", (1, 1), 1, True),
    ("X^2*Y + 3*Z^2", ("X", "Y", "Z"), "zero", (1, 1, 1), 1, False),
    ("X - Y^2 - Y^3", ("X", "Y"), "zero", (3, 1), 1, False),  # found
    ("X - Y^2", ("X", "Y"), "unit", (2, 1), 1, True),  # found
    # extended-minimason: several pure terms in the last variable
    ("F^2 + H^3 + H^4", ("F", "H"), "unit", (2, 2), 1, False),
    ("F^3 - 2*H^2 + H^3", ("F", "H"), "unit", (1, 1), 1, True),
    # fallback: every outer level shares a term with the last one
    ("X^2 + X*Y + Y^3", ("X", "Y"), "zero", (1, 1), 1, True),
    # shared levels: the last variable inside a mixed term
    ("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"), "zero", (2, 0, 3), 1, False),
    ("X^2 + Y*Z", ("X", "Y", "Z"), "zero", (1, 2, 1), 1, False),  # found
    ("X^2 + Y*Z + Z^2", ("X", "Y", "Z"), "zero", (0, 0, 1), 1, True),
    ("X^2 + Y*Z - Z", ("X", "Y", "Z"), "unit", (1, 1, 1), 1, False),  # found
    ("X^2 + Y*Z - 2*Z^2", ("X", "Y", "Z"), "unit", (1, 1, 1), 1, False),
    ("X^2 + Y*Z^2 + Z", ("X", "Y", "Z"), "unit", (0, 0, 1), 1, True),
    # the shared level X is not next to the last level Z
    ("X*Z^2 + Y^3 + Z^3", ("X", "Y", "Z"), "zero", (0, 1, 2), 1, False),
    # two shared levels, X and Y, above the free level Z
    ("X*T^2 + Y*T - Z^2", ("X", "Y", "Z", "T"), "zero", (0, 1, 1, 1), 1, False),
    ("X*T^2 + Y*T - Z^2", ("X", "Y", "Z", "T"), "unit", (0, 1, 1, 1), 1, False),
    # a two-level block Z, T under the unshared X, Y (doublemason shape)
    ("X^2*Y^2 + Z^3 - T^5", ("X", "Y", "Z", "T"), "zero", (1, 1, 1, 1), 1, False),
    # block Y, Z: the hit is row 59, Y's eighth row and Z's fourth
    ("X + Y - Z^2", ("X", "Y", "Z"), "zero", (2, 1, 1), 1, False),  # found
    # a term that spans the two block levels Y and Z
    ("X^3 + Y*Z^2 - Z", ("X", "Y", "Z"), "zero", (2, 1, 1), 1, False),
    ("X + Y*Z^2 - Z", ("X", "Y", "Z"), "zero", (2, 1, 1), 1, False),  # found
    # block Z, T keyed by the shared outer level X
    ("X*Z + Y^2 + T^3", ("X", "Y", "Z", "T"), "zero", (0, 2, 1, 1), 1, False),
    ("Y^2 + X*Z - T", ("X", "Y", "Z", "T"), "zero", (0, 2, 1, 1), 1, False),  # found
    # a three-level block Y, Z, T
    ("X^2 + Y^3 + Z^5 - T^2", ("X", "Y", "Z", "T"), "zero", (2, 1, 1, 0), 1, False),
    # unit target, Gaussian, block Y, Z
    ("X^2 + Y^3 + Z^2", ("X", "Y", "Z"), "unit", (1, 0, 0), 1, True),
    ("X^2 + Y^2 + Z", ("X", "Y", "Z"), "unit", (1, 1, 0), 1, True),  # found
    # Z occurs in no term: the hit (-1, -1, -S - 1) is nonconstant only
    # through the block's last level
    ("X - 3*Y^2", ("X", "Y", "Z"), "unit", (2, 2, 1), 1, False),  # found
]


@pytest.mark.parametrize("text, names, constraint, bounds, window, gaussian", INDEXED_CASES)
def test_indexed_last_level_matches_the_dense_reference(
    text, names, constraint, bounds, window, gaussian
):
    problem = ParametrizationProblem(parse_poly(text, names), constraint, bounds)
    outcome = bounded_search(problem, coefficient_window=window, gaussian=gaussian)
    assert outcome == reference_search(problem, coefficient_window=window, gaussian=gaussian)


def _oracle_calls(run):
    """The outcome of run() and how often each function of the oracle
    module was entered (a generator counts once per resumption)."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == oracle.__file__:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        outcome = run()
    finally:
        sys.setprofile(None)
    return outcome, calls


@pytest.mark.parametrize(
    "text, names, bounds, cap, lookups",
    [
        # no shared level: one index for the whole search
        ("X^2 + Y^3", ("X", "Y"), (1, 1), oracle._TABLE_CAP, 1),
        # one lookup per choice of X (26 rows) and the shared Y (2 rows)
        ("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"), (2, 0, 3), oracle._TABLE_CAP, 26 * 2),
        # Z's 80 rows stay cached under a cap of 100, but Y's 2 rows would
        # key 2 * 80 = 160 index entries, more than the cap allows
        ("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"), (2, 0, 3), 100, 0),
        # every outer level shares a term with the last one
        ("X^2 + X*Y + Y^3", ("X", "Y"), (1, 1), oracle._TABLE_CAP, 0),
    ],
)
def test_the_last_level_is_looked_up_or_scanned(monkeypatch, text, names, bounds, cap, lookups):
    monkeypatch.setattr(oracle, "_TABLE_CAP", cap)
    problem = zero_problem(parse_poly(text, names), bounds)
    outcome, calls = _oracle_calls(lambda: bounded_search(problem, coefficient_window=1))
    assert outcome == reference_search(problem, coefficient_window=1)
    assert calls["lookup"] == lookups
    assert bool(calls["scan"]) == (lookups == 0)
    # one run of the last level per choice of the outer levels
    assert calls["leaves"] == prod(3 ** (d + 1) - 1 for d in bounds[:-1])


@pytest.mark.parametrize(
    "text, names, constraint, bounds, cap, leaves",
    [
        # X's 26 rows over the block Y, Z of 64 rows, not 26 * 8 over Z
        ("X^2 + Y^3 - Z^5", ("X", "Y", "Z"), "zero", (2, 1, 1), oracle._TABLE_CAP, 26),
        # X, Y over the block Z, T: 8 * 8, not 8 * 8 * 8
        ("X^2*Y^2 + Z^3 - T^5", ("X", "Y", "Z", "T"), "zero", (1, 1, 1, 1), oracle._TABLE_CAP, 64),
        # a tie, 8 * 8 + 8 = 8 + 8 * 8: the shorter block Z
        ("X^2 + Y^3 - Z^5", ("X", "Y", "Z"), "zero", (1, 1, 1), oracle._TABLE_CAP, 64),
        # V shares a term with U, so the block is W alone
        ("U^2*V^2 + W^3", ("U", "V", "W"), "unit", (2, 2, 1), oracle._TABLE_CAP, 26 * 26),
        # a cap that holds one level of 8 rows but no block of two
        ("X^2 + Y^3 - Z^5", ("X", "Y", "Z"), "zero", (2, 1, 1), 8, 26 * 8),
        ("X^2*Y^2 + Z^3 - T^5", ("X", "Y", "Z", "T"), "zero", (1, 1, 1, 1), 8, 8 * 8 * 8),
    ],
)
def test_the_block_takes_one_leaves_call_per_outer_choice(
    monkeypatch, text, names, constraint, bounds, cap, leaves
):
    monkeypatch.setattr(oracle, "_TABLE_CAP", cap)
    problem = ParametrizationProblem(parse_poly(text, names), constraint, bounds)
    outcome, calls = _oracle_calls(lambda: bounded_search(problem, coefficient_window=1))
    assert outcome == reference_search(problem, coefficient_window=1)
    assert calls["leaves"] == leaves
    assert calls["lookup"] == 1


def test_indexed_unit_target_skips_a_row_whose_sum_is_zero(monkeypatch):
    # X = -1 comes first.  Every row gives equal values at the two filter
    # points, but Y = -1 makes X - Y zero, which the filter rejects before
    # any substitution; Y = 1, the second row of the level, is the hit.
    X, Y = gens("X", "Y")
    problem = unit_problem(X - Y, (0, 0))
    decided = []
    verify = oracle.verify_parametrization
    monkeypatch.setattr(
        oracle, "verify_parametrization", lambda p, c: decided.append(c) or verify(p, c)
    )
    outcome = bounded_search(problem, coefficient_window=1)
    assert outcome == reference_search(problem, coefficient_window=1)
    assert outcome.candidates == (Polynomial.constant(("S",), -1), Polynomial.constant(("S",), 1))
    assert decided == [outcome.candidates]
    assert outcome.examined == 2


def test_indexed_hit_after_a_filter_collision_counts_the_rows_before_it():
    # X = -1 - S makes X^2 + 7*X take 8 at the filter point 7, and so does
    # Y^2 - 7*Y at Y = -1 (row 1), which passes the filter but is no
    # solution; Y = 1 + S (row 7) is the hit.
    X, Y = gens("X", "Y")
    problem = zero_problem(X**2 + 7 * X - Y**2 + 7 * Y, (1, 1))
    outcome = bounded_search(problem, coefficient_window=1)
    assert outcome == reference_search(problem, coefficient_window=1)
    assert outcome.candidates == (-S - 1, S + 1)
    assert outcome.examined == 8


CRITERION_10_FIXTURES = [
    ("F^2 + H^3", ("F", "H"), "unit", (3, 2), 2, False),
    ("F^3 + H^3 + H^6", ("F", "H"), "unit", (2, 2), 2, False),
    ("U^2*V^2 + W^3", ("U", "V", "W"), "unit", (1, 1, 1), 2, False),
    ("X^3*Y^2 + Z^3 + T^6", ("X", "Y", "Z", "T"), "zero", (1, 1, 1, 1), 2, False),
    ("X^2 + Y^3 + Z^7", ("X", "Y", "Z"), "zero", (2, 2, 1), 2, False),
    ("X^2 + Y^2", ("X", "Y"), "zero", (1, 1), 1, True),
    ("X^3*Y + Z^3*Y + Z^4", ("X", "Y", "Z"), "zero", (4, 0, 3), 1, False),
]


def test_uncached_tables_give_the_same_outcomes(monkeypatch):
    problems = [
        (ParametrizationProblem(parse_poly(text, names), constraint, bounds), window, gaussian)
        for text, names, constraint, bounds, window, gaussian in CRITERION_10_FIXTURES
    ]
    cached = [bounded_search(p, coefficient_window=w, gaussian=g) for p, w, g in problems]
    monkeypatch.setattr(oracle, "_TABLE_CAP", 0)
    streamed = [bounded_search(p, coefficient_window=w, gaussian=g) for p, w, g in problems]
    assert streamed == cached
    assert [o.found for o in cached] == [False] * 5 + [True] * 2


# ---------------------------------------------------------------------------
# the explicit solution family
# ---------------------------------------------------------------------------


def test_family_fixture():
    f, g, h = remark_family_candidates(1, S, Polynomial.constant(("S",), 1))
    assert f == S**4 + S
    assert g == Polynomial.constant(("S",), -1)
    assert h == S**3 + 1


def test_family_identity_random():
    X, Y, Z = gens("X", "Y", "Z")
    problem = zero_problem(X**3 * Y + Z**3 * Y + Z**4)
    rng = random.Random(31415)
    for _ in range(50):
        f_tilde = random_poly(rng, ("S",), max_terms=3, max_exp=3)
        h_tilde = random_poly(rng, ("S",), max_terms=3, max_exp=3)
        alpha = random_scalar(rng)
        candidates = remark_family_candidates(alpha, f_tilde, h_tilde)
        check = verify_parametrization(problem, candidates)
        assert check.ok
        assert check.residual.is_zero


def test_family_accepts_polynomial_scale():
    f, g, h = remark_family_candidates(S**2, S + 1, S - 1)
    X, Y, Z = gens("X", "Y", "Z")
    problem = zero_problem(X**3 * Y + Z**3 * Y + Z**4)
    assert verify_parametrization(problem, (f, g, h)).ok
