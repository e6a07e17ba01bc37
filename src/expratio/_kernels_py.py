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
    log_derivs_mag(alpha, beta, lam, mu, s, orders)
                                -> {order: (value at +s, value at -s, bound)}

Every value and exact derivative comes from one expression for the title
function (e^{alpha t} - e^{beta t})/t, of which H is a quotient: with
d = alpha - beta, u = |d t| and e(u) = ln(sinh(u/2)/(u/2)), even, e(0) = 0,

    ln|(e^{alpha t} - e^{beta t})/t| = ln|d| + (alpha + beta) t / 2 + e(u).

``log_abs_quot`` evaluates it (e from its series below u = 1, as
u/2 - ln u + ln(1 - e^{-u}) above), regular at t = 0 and at subnormal d t,
each element on its own branch at any size of t, one point included;
ln|H| is (beta - mu) t plus a difference of two such terms with the common
shift taken out, G and F use one each.
``log_derivs_mag`` differentiates it at +s and -s for magnitudes s >= 0:

    (ln|H|)^(k)(t) = sgn(t)^k (|d1|^k e^(k)(|d1 t|) - |d2|^k e^(k)(|d2 t|))
                     [+ (alpha + beta - lam - mu)/2, k = 1]

since e^(k) has the parity of k.  e^(k)(u) comes from its Bernoulli series
for u <= 1 and from closed forms in q = e^{-u} beyond, so the value is
regular at t = 0, odd orders vanish there exactly, and |d1| = |d2| (ratio
+-1, log-affine) gives exactly 0 at every order >= 2.  By that parity the
e^(k) terms are evaluated once per s, and the value at -s is formed from
the one at +s: c - D at order 1, D * (-1.0) at order 3, the same array at
even orders.  The oracle judges its scans on those arrays as they are;
``log_derivs_h`` is ``log_derivs_mag`` on the distinct |t|, gathered back
to t by the sign of t.  alpha, beta, lam and mu may also be 1-D arrays of
one length, one row per parameter set: the oracle scans many draws in one
call, and each row is the same bits as that set's scalar call.

Each (|d|, |t|) element is evaluated on its own branch only: the series
elements and the closed-form elements are compressed to 1-D arrays,
evaluated, and scattered into one output array.  Past u = U_FAR the closed
forms take e^{-u} as exactly 0, which changes no value and keeps exp from
making subnormals.  The cost of a 32-draw pass is memory as much as
arithmetic: if its temporaries outgrow what glibc's malloc keeps between
passes (twice the largest block it has unmapped, so twice the output
array), every pass gives its pages back and faults them in again.  So the
output array is allocated first, temporaries are freed once read, and
``log_derivs_mag`` combines the two halves after the output is freed.

The finite-difference estimator, the independent check of those derivatives,
keeps a split of its own (ln|d t| + d t / 2 + sinh form, or
max(d t, 0) + ln(1 - e^{-|d t|})).  It applies central stencils with one
Richardson pass to the non-affine remainder g only and differentiates the
affine pieces and the ln|t| of the sinh form exactly, which keeps the
rounding noise proportional to the local derivative scale instead of to
|ln H|: that is what makes high-order sign checks trustworthy.  One table,
``_STENCILS``, holds every order's offsets and weights, divisor and ln|t|
pole coefficient, and one loop applies it; g is evaluated once per
distinct offset.  With ``step=None`` the steps are
``DEFAULT_STEPS[order] * max(1, |t|)``, and order 3 adds a second
Richardson level (steps h/2 and h/4) in the same pass.  Each term's form
is chosen at the stencil center and held across the stencil, so t and the
step are compressed once per block to each term's sinh elements and its
log1mexp elements, and each stencil point evaluates every element on its
own branch only; ln(1 - e^{-v}) also takes one of its two forms per
element, switching at v = ln 2.

Once alpha - beta, lam - mu or beta - mu overflows, ``log_abs_h`` and
``eval_h`` evaluate H at p/2 and 2t, since H(p)(t) = H(p/2)(2t) and the
halved differences do not overflow; so t = 0 reads (alpha - beta)/(lam - mu)
from them.  ``fd_log_deriv`` halves the same way, with any explicit step
doubled, and scales the estimate and its error by 2^order.
``log_derivs_mag`` forms |alpha| + |beta| + |lam| + |mu| as well, which
still overflows at p/2, so a parameter set for which that sum overflows is
evaluated at p/p2 and p2 s, p2 the power of two of its largest |p|, and
the k-th values and bound are scaled back by p2^k.  That split of the rows
is made there alone; ``log_derivs_h`` inherits it.

``log_abs_h``, ``eval_h`` and ``fd_log_deriv`` are elementwise and run a
large t in blocks of ``_BLOCK`` points, each block's results written into
outputs allocated before the first block.  On the whole of a 2^17-point
array every temporary is 1 MiB, which glibc's malloc maps for the call and
unmaps after it, so each call faults every page of every temporary in
again (5,000 to 18,000 minor faults per call, more time than the
arithmetic at order 3); a block's 128 KiB temporaries stay in the heap and
in cache.  Blocking changes no value, since every element is computed as
in a call on that element alone.
"""

from __future__ import annotations

import math
from functools import reduce

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
    """ln(1 - e^{-v}) for v > 0 in a 1-D array, each element by the one form
    accurate for it."""
    # switch at ln 2: M. Maechler, "Accurately Computing log(1 - exp(-|a|))",
    # Rmpfr package vignette, 2012
    small = v < _LN2
    out = np.empty_like(v)
    out[small] = np.log(-np.expm1(-v[small]))
    small = ~small
    out[small] = np.log1p(-np.exp(-v[small]))
    return out


def log_abs_quot(alpha, beta, t):
    """ln|(e^{alpha t} - e^{beta t})/t| elementwise (alpha != beta), equal
    to ln|alpha - beta| at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.abs((alpha - beta) * t)
        # each element on its own branch, scattered into one output
        near = u < 1.0
        out[near] = _quot_near(alpha, beta, t[near], u[near])
        near = ~near
        out[near] = _quot_far(alpha, beta, t[near], u[near])
    return out


def _quot_near(alpha, beta, t, u):
    return math.log(abs(alpha - beta)) + 0.5 * (alpha + beta) * t + _log_sinhc(0.5 * u)


def _quot_far(alpha, beta, t, u):
    # ln|d| + (alpha + beta) t / 2 + u/2 - ln u, written exactly
    return np.maximum(alpha * t, beta * t) - np.log(np.abs(t)) + np.log1p(-np.exp(-u))


def h_sign(alpha, beta, lam, mu):
    """Sign of H, constant in t: +1.0 when alpha - beta and lam - mu share a
    sign (compared, not multiplied, so tiny differences cannot underflow)."""
    return 1.0 if (alpha > beta) == (lam > mu) else -1.0


# the elementwise kernels below run over large t in blocks of this many
# points (128 KiB per float64 temporary)
_BLOCK = 16384


def _blocked(kernel, nout, t, *steps):
    """kernel(t, *steps) over t in blocks of _BLOCK points, for an
    elementwise kernel returning nout arrays shaped like its t (one array
    when nout is 1).  A step shaped like t is sliced with it and a 0-d step
    passed through.  Each output is allocated before the first block and
    each block's results are written into it; a t of at most _BLOCK points
    goes straight through."""
    if t.size <= _BLOCK:
        return kernel(t, *steps)
    flat = t.reshape(-1)
    steps = [np.broadcast_to(s, t.shape).reshape(-1) if s.ndim else s for s in steps]
    outs = [np.empty(flat.size) for _ in range(nout)]
    for start in range(0, flat.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        got = kernel(flat[block], *[s[block] if s.ndim else s for s in steps])
        for out, part in zip(outs, got if nout > 1 else (got,)):
            out[block] = part
    outs = [out.reshape(t.shape) for out in outs]
    return tuple(outs) if nout > 1 else outs[0]


def _in_range(alpha, beta, lam, mu, t):
    """(alpha, beta, lam, mu, t) to evaluate H at: p/2 and 2t once alpha -
    beta, lam - mu or beta - mu overflows, since H(p)(t) = H(p/2)(2t) and no
    difference of the halves overflows."""
    if math.isinf(max(abs(alpha - beta), abs(lam - mu), abs(beta - mu))):
        with np.errstate(over="ignore"):
            return 0.5 * alpha, 0.5 * beta, 0.5 * lam, 0.5 * mu, 2.0 * t
    return alpha, beta, lam, mu, t


def log_abs_h(alpha, beta, lam, mu, t):
    """ln|H(t)| elementwise, regular at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    return _blocked(lambda tb: _log_abs_h(*_in_range(alpha, beta, lam, mu, tb)), 1, t)


def _log_abs_h(alpha, beta, lam, mu, t):
    # the common shift e^{beta t} / e^{mu t} is taken out exactly, so the
    # rounding error scales with |(alpha - beta) t|, not with |alpha t|
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray((beta - mu) * t + log_abs_quot(alpha - beta, 0.0, t)
                         - log_abs_quot(lam - mu, 0.0, t))
        # the sum is NaN exactly where a product above overflowed (inf - inf);
        # there ln|H| = max(alpha t, beta t) - max(lam t, mu t), taken as t
        # times a difference of exponents so that it cannot overflow
        nan = np.isnan(out)
        tn = t[nan]
        out[nan] = tn * np.where(tn > 0.0, max(alpha, beta) - max(lam, mu),
                                 min(alpha, beta) - min(lam, mu))
    return out


def eval_h(alpha, beta, lam, mu, t):
    """H(t) elementwise, saturating to +-inf / 0 when out of range; exactly
    (alpha - beta)/(lam - mu) at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    return _blocked(lambda tb: _eval_h(*_in_range(alpha, beta, lam, mu, tb)), 1, t)


def _eval_h(alpha, beta, lam, mu, t):
    with np.errstate(over="ignore"):
        out = h_sign(alpha, beta, lam, mu) * np.exp(_log_abs_h(alpha, beta, lam, mu, t))
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
# the first row of _HORNER that is nonzero, per order; rows above it add
# 0 * y + c = c exactly (y <= 1), so Horner starts there
_HORNER_TOP = np.argmax(_HORNER != 0.0, axis=0)

# roundoff floor of log_derivs_h: this many ulps of the magnitudes summed
_BOUND_ULPS = 16.0 * np.finfo(np.float64).eps

# past u = U_FAR the closed forms take q = e^{-u} as exactly 0.  Each e^{-u}
# term there is below 2^-54 of the power term it is added to (the ratio is
# at most u^4 e^{-u} / 6, for every d), so no value changes a bit, and exp
# makes no subnormals for u in (708, 1490)
U_FAR = 80.0


def _e_derivs(d, s, orders):
    """d^k e^(k)(d s) for each d > 0 in d (rows) and s >= 0 in s (columns),
    one block per order, with the magnitude sum of the parts each value is
    formed from (the scale its rounding error has), as one array
    (vals, mags), allocated before any temporary.

    Each element is computed on its own branch only, the series where
    u = d s <= 1 and the closed forms beyond: each branch runs on its
    elements compressed to 1-D and is scattered into the output."""
    u = d[:, None] * s
    near = u <= 1.0
    far = ~near
    us, uf = u[near], u[far]
    out = np.empty((2, len(orders), u.size))
    shape = out.shape[:2] + u.shape
    del u
    # a row's elements are consecutive once compressed, so a value per row
    # is gathered by repeating it as often as the row takes the branch
    counts = near.sum(axis=1)
    # 1-D boolean scatters: NumPy's fast indexing path
    near = near.ravel()
    vals, mags = out
    # u <= 1: Horner from the first row that is nonzero for an order asked
    y = us * us
    top = min(_HORNER_TOP[k - 1] for k in orders)
    coef = _HORNER[top:, [k - 1 for k in orders], None]
    ser = coef[0] * y
    ser += coef[1]
    for c in coef[2:]:
        ser *= y
        ser += c
    del y
    for i, k in enumerate(orders):
        if k % 2:
            ser[i] *= us
        # d^k on d, then gathered: np.power over a stacked or gathered
        # block rounds some elements differently with the block's layout,
        # and a value must not depend on which other orders were asked for
        ser[i] *= np.repeat(d ** k, counts)
        vals[i][near] = ser[i]
        mags[i][near] = np.abs(ser[i])
    del us, ser
    # u > 1: with q = e^{-u}, r = 1/(1 - q), coth(u/2) = (1 + q) r and
    # 1/(4 sinh^2(u/2)) = q r^2, each d^k e^(k) is a difference P - N of
    # nonnegative parts.  d^k enters them as d^k / u^k = 1/|t|^k and
    # through w = d^2 q r^2 = (d e^{-u/2} r)^2, so no part overflows unless
    # the value does.  Past U_FAR, q is exactly 0.
    h = np.zeros_like(uf)
    np.exp(-0.5 * uf, out=h, where=uf <= U_FAR)
    del uf
    q = h * h
    r = 1.0 / (1.0 - q)
    dc = np.repeat(d, s.size - counts)
    it = np.broadcast_to(1.0 / s, shape[2:])[far]
    far = far.ravel()
    w = dc * h * r
    w *= w
    del h
    it2 = it * it
    parts = {
        1: lambda: (dc * r, 0.5 * dc + it),
        2: lambda: (it2, w),
        3: lambda: ((1.0 + q) * r * w * dc, 2.0 * it2 * it),
        4: lambda: (6.0 * it2 * it2, w * dc * dc * r * r * (1.0 + q * (4.0 + q))),
    }
    for i, k in enumerate(orders):
        pos, neg = parts[k]()
        vals[i][far] = pos - neg
        mags[i][far] = pos + neg
    return out.reshape(shape)


def log_derivs_mag(alpha, beta, lam, mu, s, orders):
    """Exact derivatives of ln|H| at t = +s and t = -s for several orders
    (each in 1..4), for a 1-D array s of magnitudes s >= 0, sharing the
    transcendental terms.

    Returns {order: (plus, minus, bound)}: the value at +s, the value at -s
    and the bound of both, arrays shaped like s, or (n, s.size) when the
    four parameters are 1-D arrays of n parameter sets.  The e^(k) terms
    have the parity of k, so with D their difference at s and c = (alpha +
    beta - lam - mu)/2, order 1 reads D + c and c - D, order 3 D and
    D * (-1.0) (multiplied, so that a NaN keeps its bits), and an even
    order's minus is its plus, the same array.  Odd orders read 0 at s = 0
    before c is added.  bound is a roundoff floor, a few ulps of the
    magnitudes the value is formed from (for order 1 including (|alpha| +
    |beta| + |lam| + |mu|)/2), not an error estimate of any
    discretization: the value has none.  Values are finite at any |d|
    where |d| s > 1; below, the series is scaled by |d|^k and overflows
    with it, as the value does, except at odd orders at s = 0.  The
    returned arrays are the caller's to change in place.

    A parameter set whose |alpha| + |beta| + |lam| + |mu| overflows (as it
    does once alpha - beta, lam - mu or beta - mu overflows) is evaluated
    at q = p/p2 and p2 s, p2 being the power of two of its largest |p|, and
    its k-th values and bound are scaled by p2^k, since (ln|H_p|)^(k)(t) =
    p2^k (ln|H_q|)^(k)(p2 t); nothing formed from q overflows.  Every other
    set is evaluated as it is, all of them in one pass, so a row has the
    same bits alone and in any chunk.  Past s = DBL_MAX/p2, p2 s reads inf
    and the closed forms give their limits there.
    """
    if not orders or any(k not in (1, 2, 3, 4) for k in orders):
        raise ValueError(f"orders must be in 1..4, got {orders}")
    s = np.asarray(s, dtype=np.float64)
    params = np.array([alpha, beta, lam, mu], dtype=np.float64)
    rows = params.reshape(4, -1)
    with np.errstate(over="ignore"):
        a, b, l, m = np.abs(rows)
        wide = np.isinf(a + b + l + m)
    if not wide.any():
        out = _log_derivs_mag(rows, s, orders)
    else:
        out = {k: tuple(np.empty((wide.size, s.size)) for _ in range(3)) for k in orders}
        parts = [(~wide, _log_derivs_mag(rows[:, ~wide], s, orders))]
        parts += [(i, _log_derivs_rescaled(rows[:, i:i + 1], s, orders))
                  for i in np.flatnonzero(wide)]
        for sel, part in parts:
            for k, arrays in part.items():
                for whole, got in zip(out[k], arrays):
                    whole[sel] = got
        out = {k: (plus, minus if k % 2 else plus, bound)
               for k, (plus, minus, bound) in out.items()}
    if params.ndim == 1:
        out = {k: tuple(x[0] for x in arrays) for k, arrays in out.items()}
    return out


def _log_derivs_rescaled(rows, s, orders):
    """_log_derivs_mag of one parameter set evaluated at p/p2 and p2 s, the
    k-th values and bound scaled back by p2^k (exact, saturating to +-inf)."""
    e = math.frexp(float(np.abs(rows).max()))[1] - 1
    with np.errstate(over="ignore"):
        out = _log_derivs_mag(np.ldexp(rows, -e), np.ldexp(s, e), orders)
        return {k: tuple(np.ldexp(x, k * e) for x in arrays) for k, arrays in out.items()}


def _log_derivs_mag(rows, s, orders):
    """log_derivs_mag of float64 parameter rows, (4, n), and a float64 s."""
    a, b, l, m = rows[:, :, None]
    n = a.shape[0]
    d = np.abs(rows[0::2] - rows[1::2]).ravel()  # |alpha - beta| rows, then |lam - mu|
    # |d|^k and 1/s^k overflow where the value does, and 1/s is taken at
    # s = 0 before the closed forms' elements are picked
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals, mags = _e_derivs(d, s, orders)
    # combine the two halves and free the pass's outputs
    diffs = vals[:, :n] - vals[:, n:]
    sizes = mags[:, :n] + mags[:, n:]
    del vals, mags
    zero = s == 0.0
    out = {}
    for row, k in enumerate(orders):
        value, size = diffs[row], sizes[row]
        if k % 2:
            # u = 0 there, and 0 * |d|^k is NaN once |d|^k overflows
            value[:, zero] = size[:, zero] = 0.0
        # scaled first, so that it overflows only where the value does; a
        # power of two commutes with rounding unless the result is subnormal
        size *= _BOUND_ULPS
        if k == 1:
            c = 0.5 * ((a + b) - (l + m))
            minus = c - value
            value += c
            size += (0.5 * _BOUND_ULPS) * (np.abs(a) + np.abs(b) + np.abs(l) + np.abs(m))
        else:
            minus = value * -1.0 if k % 2 else value
        out[k] = (value, minus, size)
    return out


def log_derivs_h(alpha, beta, lam, mu, t, orders):
    """Exact derivatives of ln|H| at t for several orders (each in 1..4):
    log_derivs_mag on the distinct |t|, gathered back to t by its sign.

    Returns {order: (value, bound)}, arrays shaped like t, or (n, *t.shape)
    when the four parameters are 1-D arrays of n parameter sets; t = 0
    reads the value at +0.  The returned arrays are the caller's to change
    in place.
    """
    t = np.asarray(t, dtype=np.float64)
    ts = t.ravel()
    s, at = np.unique(np.abs(ts), return_inverse=True)
    derivs = log_derivs_mag(alpha, beta, lam, mu, s, orders)
    # column j of (plus, minus) side by side is +s_j, column s.size + j -s_j
    at_t = np.where(ts < 0.0, at + s.size, at)
    out = {}
    for k, (plus, minus, bound) in derivs.items():
        shape = plus.shape[:-1] + t.shape
        value = np.concatenate((plus, minus), axis=-1)[..., at_t]
        out[k] = (value.reshape(shape), bound[..., at].reshape(shape))
    return out


def log_deriv_h(alpha, beta, lam, mu, t, order):
    """Exact order-th derivative of ln|H| at t (order 1..4), regular at
    t = 0; returns (value, bound) as log_derivs_h."""
    return log_derivs_h(alpha, beta, lam, mu, t, (order,))[order]


# default stencil steps per order, scaled by max(1, |t|) at each point.  The
# noise floor of a central difference grows like eps/h^k, so higher orders
# need a coarser step.  The oracle's scans read the exact log-derivatives,
# not these; the finite differences are read by acceptance criterion 9
# (within 1e-6 of log_deriv_H), the mpmath tests and the benchmark's
# kernel-bulk workload.
DEFAULT_STEPS = {1: 1e-4, 2: 1e-4, 3: 4e-3, 4: 1e-2}

# central stencil per order: offsets (in steps) and weights of the k-th
# difference, its divisor, and the coefficient c of the k-th derivative of
# -ln|t|, which is c / t^k
_STENCILS = {
    1: ((1.0, -1.0), (1.0, -1.0), 2.0, -1.0),
    2: ((1.0, 0.0, -1.0), (1.0, -2.0, 1.0), 1.0, 1.0),
    3: ((2.0, 1.0, -1.0, -2.0), (1.0, -2.0, 2.0, -1.0), 2.0, -2.0),
    4: ((2.0, 1.0, 0.0, -1.0, -2.0), (1.0, -4.0, 6.0, -4.0, 1.0), 1.0, 6.0),
}


def fd_log_deriv(alpha, beta, lam, mu, t, order, step):
    """Central finite differences of ln|H| with one Richardson pass; with
    step None, DEFAULT_STEPS[order] * max(1, |t|), and order 3 then takes
    a second Richardson level on h/2 and h/4.

    t entries must be nonzero and the stencil (t +- 2*step for orders 3, 4,
    t +- step otherwise) must stay on one side of 0; the caller checks.
    step is None, a scalar or an array broadcastable to t.
    Returns (estimate, error_estimate) with error of order step^4.
    """
    if order not in _STENCILS:
        raise ValueError(f"order must be in 1..4, got {order}")
    t = np.asarray(t, dtype=np.float64)
    steps = () if step is None else (np.asarray(step, dtype=np.float64),)
    # near |t| = 1e308 the products d t, h^4 and the powers of t overflow;
    # inf there reads as the limit it stands for
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha, beta, lam, mu, tq = _in_range(alpha, beta, lam, mu, t)
        # _in_range hands t back unless a difference overflows; then
        # ln|H(p)(t)| = ln|H(p/2)(2t)|, whose k-th derivative is 2^k that at
        # 2t, taken with the step doubled
        halved = tq is not t
        if halved:
            steps = tuple(2.0 * s for s in steps)
        d1, d2, s0 = alpha - beta, lam - mu, beta - mu
        est, err = _blocked(lambda tb, *hb: _fd_block(d1, d2, s0, order, tb, *hb), 2, tq, *steps)
        if halved:
            est, err = est * 2.0 ** order, err * 2.0 ** order
    return est, err


def _fd_block(d1, d2, s0, order, t, step=None):
    offsets, weights, div, pole = _STENCILS[order]
    # the h/4 level: third differences are roundoff-limited near 1e-6 at any
    # single step, and a second level buys back two orders of magnitude
    deeper = step is None and order == 3
    if step is None:
        step = DEFAULT_STEPS[order] * np.maximum(1.0, np.abs(t))
    h = np.broadcast_to(step, t.shape)
    # sigma selects the sinh form per term, decided at the stencil center
    # and held fixed across the stencil
    sigma1 = np.abs(d1 * t) <= 1.0
    sigma2 = np.abs(d2 * t) <= 1.0
    # so each term's sinh elements and log1mexp elements are the same at
    # every stencil point: t and h are compressed to each set once
    terms = [(d, near, t[near], h[near], far, t[far], h[far])
             for d, near, far in ((d1, sigma1, ~sigma1), (d2, sigma2, ~sigma2))]

    def g(offset):
        # the non-affine remainder of ln|H| at t + offset * h, each element
        # on its own branch
        g1, g2 = np.empty(t.shape), np.empty(t.shape)
        for part, (d, near, tn, hn, far, tf, hf) in zip((g1, g2), terms):
            part[near] = _log_sinhc(np.minimum(np.abs(d * (tn + offset * hn)), 4.0) * 0.5)
            part[far] = _log1mexp(np.maximum(np.abs(d * (tf + offset * hf)), 0.5))
        g1 -= g2
        return g1

    # the stencil sums at steps h, h/2 (and h/4), left to right, with g
    # evaluated once per distinct offset
    scales = (1.0, 0.5, 0.25) if deeper else (1.0, 0.5)
    gs = {x: g(x) for x in {o * s for s in scales for o in offsets}}
    sums = [reduce(np.add, [w * gs[o * s] for o, w in zip(offsets, weights)]) for s in scales]
    del gs

    # the pieces excluded from the stencil are differentiated exactly: the
    # ln|t| of each sinh form, and for order 1 the affine slopes
    c_ln = sigma1.astype(np.float64) - sigma2.astype(np.float64)
    exact = c_ln * (pole / reduce(np.multiply, [t] * order))

    def richardson(h, coarse, fine):
        # differences at h and h/2; 2^k rescales the h/2 sum exactly
        den = div * reduce(np.multiply, [h] * order)
        e_h = coarse / den
        e_h2 = 2.0 ** order * fine / den
        return (4.0 * e_h2 - e_h) / 3.0 - exact, np.abs(e_h2 - e_h) / 3.0

    est, err = richardson(h, sums[0], sums[1])
    if order == 1:
        est += (
            s0
            + np.where(sigma1, 0.5 * d1, np.where(d1 * t > 0.0, d1, 0.0))
            - np.where(sigma2, 0.5 * d2, np.where(d2 * t > 0.0, d2, 0.0))
        )
    if deeper:
        # the O(h^4) pair at h and h/2; the error keeps a floor at the
        # roundoff scale eps / h^3 of the finest inner step, which the
        # stage spread cannot see
        half = 0.5 * h
        est_half, _ = richardson(half, sums[1], sums[2])
        est = (16.0 * est_half - est) / 15.0
        err = np.maximum(np.abs(est - est_half), np.finfo(np.float64).eps / half ** 3)
    return est, err
