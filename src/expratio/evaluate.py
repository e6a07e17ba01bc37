"""Evaluators for the ratio family and the closed-form log-derivatives.

Every evaluator works on arrays of t and reads one kernel primitive,
``_kernels_py.log_abs_quot(alpha, beta, t)`` = ln|(e^{alpha t} - e^{beta t})/t|
= ln|alpha - beta| + (alpha + beta) t / 2 + ln(sinh(u/2) / (u/2)) with
u = |(alpha - beta) t|: H, Q and P as the difference of two such terms
(the kernel's ``log_abs_h`` and ``eval_h``), G as exp of one and F as exp of
minus one.  Only t = 0 itself is special-cased, to return the exact limit.
The scalar entry points are one-point calls of the grid evaluators, so
scalar and grid values agree point for point.  The log-derivatives of ln|H|
are the kernel's exact derivatives of the same expression
(``_kernels_py.log_deriv_h``), regular at t = 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels_py
from ._backend import kernels
from .params import GFParams, HParams, ParameterError, PParams, QParams, QReduction, SignedLogValue

__all__ = [
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
]

def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    return t


def _check_grid(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ParameterError("t values must be finite")
    return t


# ---------------------------------------------------------------------------
# grid evaluators

def eval_G_grid(params: GFParams, t) -> np.ndarray:
    """(b^t - a^t) / t over an array of t values, continued by ln b - ln a
    at t = 0."""
    params.require_g()
    t = _check_grid(t)
    lb, la = math.log(params.b), math.log(params.a)
    with np.errstate(over="ignore"):
        out = np.exp(_kernels_py.log_abs_quot(lb, la, t))
    return np.where(t == 0.0, lb - la, out)


def eval_F_grid(params: GFParams, t) -> np.ndarray:
    """t / (e^{bt} - e^{at}) over an array of t values, continued by
    1/(b - a) at t = 0."""
    t = _check_grid(t)
    a, b = params.a, params.b
    # F = 1 / ((e^{bt} - e^{at})/t), which has the sign of b - a
    sign = 1.0 if b > a else -1.0
    with np.errstate(over="ignore"):
        out = sign * np.exp(-_kernels_py.log_abs_quot(b, a, t))
    return np.where(t == 0.0, 1.0 / (b - a), out)


def eval_H_grid(params: HParams, t) -> np.ndarray:
    """(e^{alpha t} - e^{beta t}) / (e^{lambda t} - e^{mu t}) over an array
    of t values, continued by (alpha - beta)/(lambda - mu) at t = 0."""
    t = _check_grid(t)
    return np.asarray(kernels.eval_h(params.alpha, params.beta, params.lam, params.mu, t))


def eval_Q_grid(params: QParams, t) -> np.ndarray:
    """(e^{-alpha t} - e^{-beta t}) / (1 - e^{-t}), continued by beta - alpha."""
    return eval_H_grid(params.h_params(), t)


def eval_P_grid(params: PParams, t) -> np.ndarray:
    """(r^t - s^t) / (u^t - v^t), continued by (ln r - ln s)/(ln u - ln v)."""
    return eval_H_grid(params.log_params(), t)


def log_abs_H_grid(params: HParams, t) -> np.ndarray:
    """ln|H(t)| over an array of t values (overflow-free)."""
    t = _check_grid(t)
    return np.asarray(kernels.log_abs_h(params.alpha, params.beta, params.lam, params.mu, t))


# ---------------------------------------------------------------------------
# scalar evaluators: one-point grid calls.  Each pays the array overhead
# (tens of µs), so many points belong in one grid call.

def _at(grid_fn, params, t: float) -> float:
    return float(grid_fn(params, [float(t)])[0])


def eval_G(params: GFParams, t: float) -> float:
    """G at one t; see eval_G_grid."""
    return _at(eval_G_grid, params, t)


def eval_F(params: GFParams, t: float) -> float:
    """F at one t; see eval_F_grid."""
    return _at(eval_F_grid, params, t)


def eval_Q(params: QParams, t: float) -> float:
    """Q at one t; see eval_Q_grid."""
    return _at(eval_Q_grid, params, t)


def eval_H(params: HParams, t: float) -> float:
    """H at one t; see eval_H_grid."""
    return _at(eval_H_grid, params, t)


def eval_P(params: PParams, t: float) -> float:
    """P at one t; see eval_P_grid."""
    return _at(eval_P_grid, params, t)


def eval_H_signed_log(params: HParams, t: float) -> SignedLogValue:
    """H(t) as a signed-log value; exact even far outside float range."""
    sign = int(_kernels_py.h_sign(*params.as_tuple()))
    return SignedLogValue(sign, _at(log_abs_H_grid, params, t))


# ---------------------------------------------------------------------------
# closed-form logarithmic derivatives

def log_deriv_H(params: HParams, t: float, order: int) -> float:
    """order-th derivative of ln|H| at t (order 1..4), in closed form.

    Regular at t = 0 (the individual 1/t^k poles cancel); at t = 0 the
    values are (alpha+beta-lambda-mu)/2, (d1^2 - d2^2)/12, 0 and
    -(d1^4 - d2^4)/120 for orders 1 to 4.
    """
    if order not in (1, 2, 3, 4):
        raise ParameterError(f"log_deriv_H: order must be 1, 2, 3 or 4, got {order}")
    t = _check_t(t)
    value, _ = _kernels_py.log_deriv_h(params.alpha, params.beta, params.lam, params.mu, t, order)
    return float(value)


def reduce_H_to_Q(params: HParams) -> QReduction:
    """Rewrite H as Q_{A,B}(w) with w = (lambda - mu) t.

    A = (alpha-lambda)/(mu-lambda), B = (beta-lambda)/(mu-lambda).  When
    (A, B) lands on {(0,1), (1,0)} the two-exponent form is degenerate (H
    is then a pure exponential) and the reduction is flagged.
    """
    A = (params.alpha - params.lam) / (params.mu - params.lam)
    B = (params.beta - params.lam) / (params.mu - params.lam)
    w_scale = params.lam - params.mu
    degenerate = (A, B) in ((0.0, 1.0), (1.0, 0.0))
    return QReduction(A=A, B=B, w_scale=w_scale, degenerate=degenerate)
