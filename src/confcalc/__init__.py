"""Numeric calculus for the fractional-order derivative built from the
scaled difference quotient, with its inverse integral, identity
verification suite, and IVP solvers."""

from .calculus import (
    ConfParams,
    DerivResult,
    Tolerance,
    avg_recover,
    classical_deriv,
    conf_deriv,
    conf_deriv_many,
    conf_deriv_scaled,
    conf_deriv_scaled_many,
    conf_integral,
    conf_integral_info,
    conf_integral_info_many,
    convert_order,
    deriv_of_integral,
    deriv_of_integral_many,
    lower_terminal_deriv,
    one_sided_limit,
    weighted_integral,
)
from .errors import (
    AlgebraError,
    ConfcalcError,
    ConvergenceError,
    DomainError,
    ExprSyntaxError,
    LowerTerminalError,
    QuadratureError,
    ShapeError,
    UnknownIdentifierError,
)
from .funcs import (
    AbstractFn,
    BuiltinFn,
    CallableFn,
    CompositeFn,
    ExprFn,
    GridFn,
    PointPatchedFn,
    builtin,
    builtin_names,
    diag_fn,
    evaluate,
    exact_first_deriv,
    load_grid_csv,
    matrix_fn,
    parse_expr,
    power_fn,
    vector_fn,
)
from .identities import (
    IDENTITY_IDS,
    STATEMENTS,
    CaseResult,
    IdentityCase,
    IdentityReport,
    SuiteGrid,
    check_algebra_rules,
    check_avg_recovery,
    check_class_equivalence,
    check_continuity,
    check_equivalence,
    check_left_inverse,
    check_lower_vanishing,
    check_order_relation,
    check_right_inverse,
    default_corpus,
    run_case,
    run_suite,
)
from .ivp import IvpProblem, Trajectory, cross_validate, solve_tau, solve_volterra
from .vecspace import VecValue, as_vecvalue, axpy, from_jsonable, mul, norm, to_jsonable

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # values
    "VecValue", "as_vecvalue", "axpy", "norm", "mul",
    "to_jsonable", "from_jsonable",
    # functions
    "AbstractFn", "ExprFn", "BuiltinFn", "GridFn", "CompositeFn",
    "CallableFn", "PointPatchedFn", "parse_expr", "builtin",
    "builtin_names", "power_fn", "vector_fn", "matrix_fn", "diag_fn",
    "load_grid_csv", "evaluate", "exact_first_deriv",
    # kernels
    "Tolerance", "ConfParams", "DerivResult",
    "conf_deriv", "conf_deriv_many", "conf_deriv_scaled",
    "conf_deriv_scaled_many", "classical_deriv", "convert_order",
    "lower_terminal_deriv", "one_sided_limit",
    "conf_integral", "conf_integral_info", "conf_integral_info_many",
    "weighted_integral",
    "deriv_of_integral", "deriv_of_integral_many", "avg_recover",
    # identities
    "IDENTITY_IDS", "STATEMENTS", "IdentityCase", "CaseResult",
    "IdentityReport", "SuiteGrid", "default_corpus", "run_suite", "run_case",
    "check_continuity", "check_equivalence", "check_order_relation",
    "check_left_inverse", "check_right_inverse", "check_lower_vanishing",
    "check_avg_recovery", "check_algebra_rules", "check_class_equivalence",
    # ivp
    "IvpProblem", "Trajectory", "solve_tau", "solve_volterra",
    "cross_validate",
    # errors
    "ConfcalcError", "ShapeError", "AlgebraError", "DomainError",
    "LowerTerminalError", "QuadratureError", "ConvergenceError",
    "ExprSyntaxError", "UnknownIdentifierError",
]
