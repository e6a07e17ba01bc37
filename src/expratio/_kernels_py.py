"""The NumPy kernels: the package's one implementation of ln|H| and its
log-derivatives.

Called through the ``kernels`` binding of ``evaluate`` and ``oracle``:

    log_abs_h(alpha, beta, lam, mu, t)          -> ln|H(t)| array
    eval_h(alpha, beta, lam, mu, t)             -> H(t) array, saturating
    fd_log_deriv(alpha, beta, lam, mu, t, order, step) -> (estimate, error)

Called directly, as ``_kernels_py.<name>``:

    log_abs_quot(alpha, beta, t)                  -> ln|(e^{alpha t} - e^{beta t})/t|
    h_sign(alpha, beta, lam, mu)                  -> sign of H, +-1.0
    log_deriv_h(alpha, beta, lam, mu, t, order)   -> (value, bound)
    log_derivs_h(alpha, beta, lam, mu, t, orders) -> {order: (value, bound)}

Every value and exact derivative comes from one expression for the title
function (e^{alpha t} - e^{beta t})/t, of which H is a quotient: with
d = alpha - beta, u = |d t| and e(u) = ln(sinh(u/2)/(u/2)), even, e(0) = 0,

    ln|(e^{alpha t} - e^{beta t})/t| = ln|d| + (alpha + beta) t / 2 + e(u).

``log_abs_quot`` evaluates it (e from its series below u = 1, as
u/2 - ln u + ln(1 - e^{-u}) above), regular at t = 0 and at subnormal d t;
ln|H| is (beta - mu) t plus a difference of two such terms with the common
shift taken out, G and F use one each.
``log_derivs_h`` differentiates it:

    (ln|H|)^(k)(t) = sgn(t)^k (|d1|^k e^(k)(|d1 t|) - |d2|^k e^(k)(|d2 t|))
                     [+ (alpha + beta - lam - mu)/2, k = 1]

since e^(k) has the parity of k.  e^(k)(u) comes from its Bernoulli series
for u <= 1 and from closed forms in q = e^{-u} beyond, so the value is
regular at t = 0, odd orders vanish there exactly, and |d1| = |d2| (ratio
+-1, log-affine) gives exactly 0 at every order >= 2.

The finite-difference estimator, the independent check of those derivatives,
keeps a split of its own (ln|d t| + d t / 2 + sinh form, or
max(d t, 0) + ln(1 - e^{-|d t|})).  It applies central stencils with one
Richardson pass to the non-affine remainder only and differentiates the
affine pieces and the ln|t| of the sinh form exactly, which keeps the
rounding noise proportional to the local derivative scale instead of to
|ln H|: that is what makes high-order sign checks trustworthy.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "python"

_LN2 = 0.6931471805599453


def _log_sinhc(y):
    """ln(sinh(y)/y) for |y| <= ~0.55, series + log1p (even in y)."""
    y2 = y * y
    w = y2 * (
        1.0 / 6.0
        + y2
        * (
            1.0 / 120.0
            + y2
            * (
                1.0 / 5040.0
                + y2 * (1.0 / 362880.0 + y2 * (1.0 / 39916800.0 + y2 / 6227020800.0))
            )
        )
    )
    return np.log1p(w)


def _log1mexp(v):
    """ln(1 - e^{-v}) for v > 0, accurate for both small and large v."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        small = np.log(-np.expm1(-v))
        large = np.log1p(-np.exp(-v))
    # switch at ln 2: M. Maechler, "Accurately Computing log(1 - exp(-|a|))",
    # Rmpfr package vignette, 2012
    return np.where(v < _LN2, small, large)


def log_abs_quot(alpha, beta, t):
    """ln|(e^{alpha t} - e^{beta t})/t| elementwise (alpha != beta), equal
    to ln|alpha - beta| at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    d = alpha - beta
    u = np.abs(d * t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near = math.log(abs(d)) + 0.5 * (alpha + beta) * t + _log_sinhc(0.5 * u)
        # ln|d| + (alpha + beta) t / 2 + u/2 - ln u, written exactly
        far = np.maximum(alpha * t, beta * t) - np.log(np.abs(t)) + np.log1p(-np.exp(-u))
    return np.where(u < 1.0, near, far)


def h_sign(alpha, beta, lam, mu):
    """Sign of H, constant in t: +1.0 when alpha - beta and lam - mu share a
    sign (compared, not multiplied, so tiny differences cannot underflow)."""
    return 1.0 if (alpha > beta) == (lam > mu) else -1.0


def log_abs_h(alpha, beta, lam, mu, t):
    """ln|H(t)| elementwise, regular at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    # the common shift e^{beta t} / e^{mu t} is taken out exactly, so the
    # rounding error scales with |(alpha - beta) t|, not with |alpha t|
    with np.errstate(invalid="ignore"):
        return ((beta - mu) * t + log_abs_quot(alpha - beta, 0.0, t)
                - log_abs_quot(lam - mu, 0.0, t))


def eval_h(alpha, beta, lam, mu, t):
    """H(t) elementwise, saturating to +-inf / 0 when out of range; exactly
    (alpha - beta)/(lam - mu) at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = h_sign(alpha, beta, lam, mu) * np.exp(log_abs_h(alpha, beta, lam, mu, t))
    return np.where(t == 0.0, (alpha - beta) / (lam - mu), out)


# Bernoulli series of e^(k)(u) = u^(k mod 2) * sum_j c[j] u^(2j), k = 1..4,
# from e'(u) = sum_{n>=1} B_{2n}/(2n)! u^(2n-1): row j holds c[j] for each
# order, zero-padded; terms below 1e-20 dropped, so at |u| <= 1 the
# truncation stays under 1e-20.
_SERIES = np.array([
    (0.08333333333333333, 0.08333333333333333, -0.008333333333333333, -0.008333333333333333),
    (-0.001388888888888889, -0.004166666666666667, 0.0006613756613756613, 0.001984126984126984),
    (3.306878306878307e-05, 0.00016534391534391533, -3.472222222222222e-05, -0.00017361111111111112),
    (-8.267195767195768e-07, -5.787037037037037e-06, 1.503126503126503e-06, 1.0521885521885522e-05),
    (2.08767569878681e-08, 1.8789081289081288e-07, -5.8126091525562424e-08, -5.231348237300619e-07),
    (-5.284190138687493e-10, -5.812609152556243e-09, 2.08767569878681e-09, 2.296443268665491e-08),
    (1.3382536530684679e-11, 1.7397297489890083e-10, -7.118328622277424e-11, -9.253827208960651e-10),
    (-3.3896802963225827e-13, -5.084520444483875e-12, 2.3354088793075735e-12, 3.5031133189613606e-11),
    (8.586062056277845e-15, 1.4596305495672335e-13, -7.438050949068572e-14, -1.2644686613416571e-12),
    (-2.174868698558062e-16, -4.1322505272603176e-15, 2.3137811879112964e-15, 4.3961842570314633e-14),
    (5.5090028283602295e-18, 1.1568905939556482e-16, -7.060959131021136e-17, -1.4828014175144388e-15),
    (-1.3954464685812522e-19, -3.2095268777368804e-18, 2.1208242237776804e-18, 4.877895714688665e-17),
    (0.0, 8.836767599073669e-20, -6.285369233780357e-20, -1.5713423084450894e-18),
    (0.0, 0.0, 0.0, 4.972258956505136e-20),
])
_HORNER = _SERIES[::-1]

# roundoff floor of log_derivs_h: this many ulps of the magnitudes summed
_BOUND_ULPS = 16.0 * np.finfo(np.float64).eps


def _e_derivs(d, s, orders):
    """d^k e^(k)(d s) for each d > 0 in d (rows) and s >= 0 in s (columns),
    one block per order, with the magnitude sum of the parts each value is
    formed from (the scale its rounding error has)."""
    rows = [k - 1 for k in orders]
    dc = d[:, None]
    u = dc * s
    us = np.minimum(u, 1.0)
    y = us * us
    coef = _HORNER[:, rows, None, None]
    ser = coef[0] * y + coef[1]
    for c in coef[2:]:
        ser *= y
        ser += c
    odd = [i for i, k in enumerate(orders) if k % 2]
    if odd:
        ser[odd] *= us
    ser *= dc ** np.array(orders, dtype=np.float64)[:, None, None]
    # u > 1: with q = e^{-u}, r = 1/(1 - q), coth(u/2) = (1 + q) r and
    # 1/(4 sinh^2(u/2)) = q r^2, each d^k e^(k) is a difference P - N of
    # nonnegative parts.  d^k enters them as d^k / u^k = 1/|t|^k and
    # through w = d^2 q r^2 = (d e^{-u/2} r)^2, so no part overflows unless
    # the value does.
    h = np.exp(-0.5 * u)
    q = h * h
    r = 1.0 / (1.0 - q)
    it = 1.0 / s
    it2 = it * it
    w = dc * h * r
    w *= w
    parts = {
        1: lambda: (dc * r, 0.5 * dc + it),
        2: lambda: (it2, w),
        3: lambda: ((1.0 + q) * r * w * dc, 2.0 * it2 * it),
        4: lambda: (6.0 * it2 * it2, w * dc * dc * r * r * (1.0 + q * (4.0 + q))),
    }
    pos, neg = np.empty(ser.shape), np.empty(ser.shape)
    for i, k in enumerate(orders):
        pos[i], neg[i] = parts[k]()
    small = u <= 1.0
    return np.where(small, ser, pos - neg), np.where(small, np.abs(ser), pos + neg)


def log_derivs_h(alpha, beta, lam, mu, t, orders):
    """Exact derivatives of ln|H| at t for several orders (each in 1..4),
    sharing the transcendental terms.

    Returns {order: (value, bound)}, arrays shaped like t.  bound is a
    roundoff floor, a few ulps of the magnitudes the value is formed from
    (for order 1 including (|alpha| + |beta| + |lam| + |mu|)/2), not an
    error estimate of any discretization: the value has none.  Values are
    finite at any |d| where |d t| > 1; below, the series is scaled by
    |d|^k and overflows with it, as the value does (odd orders at t = 0,
    exactly 0, then read NaN).
    """
    if not orders or any(k not in (1, 2, 3, 4) for k in orders):
        raise ValueError(f"orders must be in 1..4, got {orders}")
    t = np.asarray(t, dtype=np.float64)
    ts = t.ravel()
    d = np.array([abs(alpha - beta), abs(lam - mu)])
    # the branch not taken may overflow, or divide by t = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals, mags = _e_derivs(d, np.abs(ts), orders)
    diffs = vals[:, 0] - vals[:, 1]
    sizes = mags[:, 0] + mags[:, 1]
    sgn = np.sign(ts)
    out = {}
    for row, k in enumerate(orders):
        value, size = diffs[row], sizes[row]
        if k % 2:
            value = sgn * value
        if k == 1:
            value = value + 0.5 * ((alpha + beta) - (lam + mu))
            size = size + 0.5 * (abs(alpha) + abs(beta) + abs(lam) + abs(mu))
        out[k] = (value.reshape(t.shape), (_BOUND_ULPS * size).reshape(t.shape))
    return out


def log_deriv_h(alpha, beta, lam, mu, t, order):
    """Exact order-th derivative of ln|H| at t (order 1..4), regular at
    t = 0; returns (value, bound) as log_derivs_h."""
    return log_derivs_h(alpha, beta, lam, mu, t, (order,))[order]


def _bounded_part(d1, d2, sigma1, sigma2, tj):
    """Non-affine remainder of ln|H| at the stencil points tj.

    sigma1/sigma2 select the sinh form per term (decided at the stencil
    center and held fixed across the stencil).
    """
    v1 = np.abs(d1 * tj)
    v2 = np.abs(d2 * tj)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1 = np.where(sigma1, _log_sinhc(np.minimum(v1, 4.0) * 0.5), _log1mexp(np.maximum(v1, 0.5)))
        g2 = np.where(sigma2, _log_sinhc(np.minimum(v2, 4.0) * 0.5), _log1mexp(np.maximum(v2, 0.5)))
    return g1 - g2


def fd_log_deriv(alpha, beta, lam, mu, t, order, step):
    """Central finite differences of ln|H| with one Richardson pass.

    t entries must be nonzero and the stencil (t +- 2*step for orders 3, 4,
    t +- step otherwise) must stay on one side of 0; the caller checks.
    Returns (estimate, error_estimate) with error of order step^4.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    t = np.asarray(t, dtype=np.float64)
    h = np.broadcast_to(np.asarray(step, dtype=np.float64), t.shape)
    d1 = alpha - beta
    d2 = lam - mu
    s0 = beta - mu

    sigma1 = np.abs(d1 * t) <= 1.0
    sigma2 = np.abs(d2 * t) <= 1.0

    def g(offset):
        return _bounded_part(d1, d2, sigma1, sigma2, t + offset * h)

    if order <= 2:
        gp1, gm1, gp5, gm5 = g(1.0), g(-1.0), g(0.5), g(-0.5)
        if order == 1:
            e_h = (gp1 - gm1) / (2.0 * h)
            e_h2 = (gp5 - gm5) / h
        else:
            g0 = g(0.0)
            e_h = (gp1 - 2.0 * g0 + gm1) / (h * h)
            e_h2 = 4.0 * (gp5 - 2.0 * g0 + gm5) / (h * h)
    else:
        gp2, gm2, gp1, gm1 = g(2.0), g(-2.0), g(1.0), g(-1.0)
        gp5, gm5 = g(0.5), g(-0.5)
        if order == 3:
            h3 = h * h * h
            e_h = (gp2 - 2.0 * gp1 + 2.0 * gm1 - gm2) / (2.0 * h3)
            e_h2 = 8.0 * (gp1 - 2.0 * gp5 + 2.0 * gm5 - gm1) / (2.0 * h3)
        else:
            g0 = g(0.0)
            h4 = h * h * h * h
            e_h = (gp2 - 4.0 * gp1 + 6.0 * g0 - 4.0 * gm1 + gm2) / h4
            e_h2 = 16.0 * (gp1 - 4.0 * gp5 + 6.0 * g0 - 4.0 * gm5 + gm1) / h4

    est = (4.0 * e_h2 - e_h) / 3.0
    err = np.abs(e_h2 - e_h) / 3.0

    # exact derivatives of the pieces excluded from the stencil
    c_ln = sigma1.astype(np.float64) - sigma2.astype(np.float64)
    if order == 1:
        dln = 1.0 / t
        slope = (
            s0
            + np.where(sigma1, 0.5 * d1, np.where(d1 * t > 0.0, d1, 0.0))
            - np.where(sigma2, 0.5 * d2, np.where(d2 * t > 0.0, d2, 0.0))
        )
        est = est + c_ln * dln + slope
    elif order == 2:
        est = est - c_ln / (t * t)
    elif order == 3:
        est = est + 2.0 * c_ln / (t * t * t)
    else:
        est = est - 6.0 * c_ln / (t * t * t * t)
    return est, err
