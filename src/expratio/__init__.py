"""Robust evaluation and classification of exponential-difference ratios.

The central object is

    H(t) = (e^{alpha t} - e^{beta t}) / (e^{lam t} - e^{mu t}),

extended by continuity at t = 0, together with its relatives: the power-mean
ratio P (positive bases), the two-exponent form Q, and the building blocks
G and F.  The package evaluates them without overflow or cancellation,
classifies monotonicity / log-convexity / third-order log behavior from
closed-form sign conditions, and cross-validates the classifications against
a numerical oracle that scans the signs of the exact log-derivatives of H's
definition.
"""

from ._backend import backend_name
from .params import (
    GFParams,
    HParams,
    PParams,
    ParameterError,
    QParams,
    QReduction,
    SignedLogValue,
)
from .evaluate import (
    eval_F,
    eval_F_grid,
    eval_G,
    eval_G_grid,
    eval_H,
    eval_H_grid,
    eval_H_signed_log,
    eval_P,
    eval_P_grid,
    eval_Q,
    eval_Q_grid,
    log_abs_H_grid,
    log_deriv_H,
    reduce_H_to_Q,
)
from .classify import (
    ClassificationReport,
    ConvexityKind,
    ConvexityVerdict,
    Direction,
    Interval,
    InvariantSet,
    MonotonicityVerdict,
    QReport,
    ThirdOrderKind,
    ThirdOrderVerdict,
    classify_H,
    classify_log_convexity_H,
    classify_P,
    classify_Q,
    compute_invariants,
    decision_table,
)
from .oracle import (
    CrossValidationReport,
    GridSpec,
    OracleVerdict,
    cross_validate,
    four_log_sign_change_search,
    grid_klog_sign_check,
    grid_monotonicity_check,
    numeric_log_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "ParameterError",
    "GFParams",
    "HParams",
    "PParams",
    "QParams",
    "QReduction",
    "SignedLogValue",
    "eval_G",
    "eval_F",
    "eval_Q",
    "eval_H",
    "eval_P",
    "eval_G_grid",
    "eval_F_grid",
    "eval_H_grid",
    "eval_Q_grid",
    "eval_P_grid",
    "log_abs_H_grid",
    "eval_H_signed_log",
    "log_deriv_H",
    "reduce_H_to_Q",
    "Interval",
    "Direction",
    "ConvexityKind",
    "ThirdOrderKind",
    "InvariantSet",
    "MonotonicityVerdict",
    "ConvexityVerdict",
    "ThirdOrderVerdict",
    "ClassificationReport",
    "QReport",
    "compute_invariants",
    "classify_log_convexity_H",
    "classify_H",
    "classify_P",
    "classify_Q",
    "decision_table",
    "GridSpec",
    "OracleVerdict",
    "CrossValidationReport",
    "numeric_log_derivative",
    "grid_monotonicity_check",
    "grid_klog_sign_check",
    "four_log_sign_change_search",
    "cross_validate",
]
