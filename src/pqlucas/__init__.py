"""Truncated power-series laboratory for (p,q)-Lucas coefficient bounds.

The package builds, in order: exact-order truncated series arithmetic
(:mod:`.series`), (p,q)-Lucas polynomial sequences with an independent
generating-function route (:mod:`.lucas`), a three-term differential
operator on normalized analytic functions together with its coefficient
identities and sampled membership checks (:mod:`.bioperator`), closed-form
second/third-coefficient and Fekete-Szego bounds with degeneracy reporting
(:mod:`.bounds`), and a brute-force sweep that verifies every bound against
the functional it dominates (:mod:`.oracle`).  :mod:`.cli` exposes all of
it as the ``pqlucas`` command.
"""

from .series import (
    FunctionSpec,
    TruncatedSeries,
    compose,
    derivative,
    eval_poly,
    pow_real,
    revert_series,
)
from .lucas import (
    LucasSequence,
    PolyPair,
    generating_series,
    lucas_sequence,
)
from .bioperator import (
    ClassParams,
    CoefficientIdentityReport,
    DiskGrid,
    MembershipReport,
    apply_operator,
    apply_operator_inverse_side,
    check_membership_realpart,
    extract_coefficient_identities,
)
from .bounds import (
    BoundArrays,
    BoundInputs,
    BoundReport,
    DegenerateDenominatorError,
    UNBOUNDED,
    bound_a2,
    bound_a3,
    bound_arrays,
    fekete_szego_bound,
    preset,
)
from .oracle import (
    FUNCTIONALS,
    MODES,
    SchwarzSample,
    SupremumReport,
    VerificationReport,
    random_inputs,
    sweep_max,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "FunctionSpec",
    "TruncatedSeries",
    "compose",
    "derivative",
    "eval_poly",
    "pow_real",
    "revert_series",
    "LucasSequence",
    "PolyPair",
    "generating_series",
    "lucas_sequence",
    "ClassParams",
    "CoefficientIdentityReport",
    "DiskGrid",
    "MembershipReport",
    "apply_operator",
    "apply_operator_inverse_side",
    "check_membership_realpart",
    "extract_coefficient_identities",
    "BoundArrays",
    "BoundInputs",
    "BoundReport",
    "DegenerateDenominatorError",
    "UNBOUNDED",
    "bound_a2",
    "bound_a3",
    "bound_arrays",
    "fekete_szego_bound",
    "preset",
    "FUNCTIONALS",
    "MODES",
    "SchwarzSample",
    "SupremumReport",
    "VerificationReport",
    "random_inputs",
    "sweep_max",
    "verify_bounds",
    "__version__",
]
