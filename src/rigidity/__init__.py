"""Exact rigidity toolkit for complex hypersurface coordinate rings.

Everything is computed over Q(i) with exact rational arithmetic: sparse
polynomials, quotient-ring normal forms, locally nilpotent derivation
probes, weighted-grading certificates, degree-bound obstructions for
one-variable parametrizations, and a rule-based rigidity classifier for
the small hypersurface families the rules cover.
"""

from .derivation import (
    DEFAULT_PROBE_BOUND,
    Derivation,
    IllDefinedDerivationError,
    NilpotencyReport,
    apply,
    certify_by_negative_grading,
    make_derivation,
    probe_nilpotency,
)
from .families import (
    FamilyDescriptor,
    Verdict,
    classify,
    fermat_3,
    mixed_four,
    recognize_family,
    three_term_xy,
    unrecognized,
)
from .gauss import GaussianRational
from .grading import (
    CosetDegree,
    DegenerateGradingError,
    DegreeJump,
    GradedPresentation,
    InexactDegreeError,
    coset_degree,
    derivation_degree_jump,
    gr_presentation,
    pattern_irreducible,
)
from .mason import (
    MasonReport,
    ObstructionVerdict,
    check_double_mason,
    check_extended_mini_mason,
    check_fermat_sum,
    check_mini_mason,
    check_twisted_mason,
    distinct_root_count,
    mason_check,
    obstruction_check,
)
from .oracle import (
    ParametrizationCheck,
    ParametrizationProblem,
    SearchOutcome,
    SearchSpaceError,
    UnsupportedShapeError,
    bounded_search,
    parametrization_obstructed,
    remark_family_candidates,
    verify_parametrization,
)
from .parsing import ParseError, format_poly, parse_poly
from .poly import (
    InternalInvariantError,
    Polynomial,
    UnknownVariableError,
    VariableMismatchError,
    gcd_univariate,
    gens,
)
from .quotient import PresentationMismatchError, RingElement, RingPresentation, member

__all__ = [
    "DEFAULT_PROBE_BOUND",
    "CosetDegree",
    "DegenerateGradingError",
    "DegreeJump",
    "Derivation",
    "FamilyDescriptor",
    "GaussianRational",
    "GradedPresentation",
    "IllDefinedDerivationError",
    "InexactDegreeError",
    "InternalInvariantError",
    "MasonReport",
    "NilpotencyReport",
    "ObstructionVerdict",
    "ParametrizationCheck",
    "ParametrizationProblem",
    "ParseError",
    "Polynomial",
    "PresentationMismatchError",
    "RingElement",
    "RingPresentation",
    "SearchOutcome",
    "SearchSpaceError",
    "UnknownVariableError",
    "UnsupportedShapeError",
    "VariableMismatchError",
    "Verdict",
    "apply",
    "bounded_search",
    "certify_by_negative_grading",
    "check_double_mason",
    "check_extended_mini_mason",
    "check_fermat_sum",
    "check_mini_mason",
    "check_twisted_mason",
    "classify",
    "coset_degree",
    "derivation_degree_jump",
    "distinct_root_count",
    "fermat_3",
    "format_poly",
    "gcd_univariate",
    "gens",
    "gr_presentation",
    "make_derivation",
    "mason_check",
    "member",
    "mixed_four",
    "obstruction_check",
    "parametrization_obstructed",
    "parse_poly",
    "pattern_irreducible",
    "probe_nilpotency",
    "recognize_family",
    "remark_family_candidates",
    "three_term_xy",
    "unrecognized",
    "verify_parametrization",
]
