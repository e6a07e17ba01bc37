"""The exact log-derivative kernel against 40-digit mpmath.

The reference writes the k-th derivative of ln|H| as
d1^k phi^(k)(d1 t) - d2^k phi^(k)(d2 t) (+ beta - mu for k = 1) with
phi(x) = ln((e^x - 1)/x) and differentiates phi itself with mpmath: ln|H|
near t = 0 is a ratio of two vanishing differences, while phi is smooth
there, so mp.diff of phi stays accurate down to x = 0 (which mp.diff steps
around).  For |x| > 1 it splits phi(x) = max(x, 0) - ln|x| + ln(1 - e^{-|x|})
and differentiates only the last, bounded term numerically, so that the
steps stay accurate when x is in the millions.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from expratio import HParams, log_deriv_H
from expratio._kernels_py import _BOUND_ULPS, U_FAR, _e_derivs, log_deriv_h, log_derivs_h
from expratio.params import ParameterError

from conftest import mp_log_deriv_H, random_hparams, same_bits

ORDERS = (1, 2, 3, 4)


def mp_phi_deriv(x, k):
    with mp.workdps(40):
        x = mp.mpf(x)
        if abs(x) <= 1:
            return mp.diff(lambda z: mp.log(mp.expm1(z) / z), x, k, singular=(x == 0))
        tail = mp.diff(lambda z: mp.log(-mp.expm1(-abs(z))), x, k)
        return (1 if k == 1 and x > 0 else 0) + (-1) ** k * mp.factorial(k - 1) / x**k + tail


def mp_log_deriv(p: HParams, t: float, k: int):
    with mp.workdps(40):
        a, b, l, m = map(mp.mpf, p.as_tuple())
        d1, d2 = a - b, l - m
        tt = mp.mpf(t)
        value = d1**k * mp_phi_deriv(d1 * tt, k) - d2**k * mp_phi_deriv(d2 * tt, k)
        return value + (b - m if k == 1 else 0)


def test_reference_matches_differentiated_ratio(rng):
    # away from t = 0, the phi-based reference equals mp.diff of ln|H|
    for p in random_hparams(rng, 3):
        for t in (-2.5, 0.6):
            for k in ORDERS:
                want = mp_log_deriv_H(*p.as_tuple(), t, k)
                assert abs(mp_log_deriv(p, t, k) - want) <= 1e-25 * max(1, abs(want))


def _check(p: HParams, ts, orders=ORDERS):
    a, b, l, m = p.as_tuple()
    out = log_derivs_h(a, b, l, m, np.asarray(ts, dtype=float), orders)
    for k in orders:
        value, bound = out[k]
        for t, got, floor in zip(ts, value, bound):
            want = float(mp_log_deriv(p, t, k))
            # the bound is a roundoff floor: it must cover the actual error
            # (1e-30: the reference's own noise where the value is 0)
            assert abs(got - want) <= floor + 1e-30, (p.as_tuple(), t, k, got, want, floor)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (p.as_tuple(), t, k)


def test_random_draws_against_mpmath(rng):
    ts = [0.0, 1e-9, -1e-6, 0.01, -0.1, 0.37, -1.0, 3.0, -12.0, 100.0]
    for p in random_hparams(rng, 8):
        _check(p, ts)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_both_sides_of_series_switch(side):
    # |d1 t| and |d2 t| cross the switch at 1 from either side
    p = HParams(1.7, -0.8, 0.3, 4.6)
    ts = []
    for d in (2.5, 4.3):
        ts += [side * (1.0 + e) / d for e in (-1e-12, 0.0, 1e-12, 0.05, -0.05)]
    _check(p, ts)


@pytest.mark.parametrize("x", [20.0, 700.0, 745.0, 1e4, 1e6])
def test_large_arguments(x):
    # |d1 t| = x, |d2 t| = 0.7 x, where e^{-|d t|} underflows or nearly so
    p = HParams(3.0, 1.0, 0.4, -1.0)
    _check(p, [x / 2.0, -x / 2.0])


def test_far_beyond_overflow():
    # e^{|d t|} is far out of range; values tend to (k-1)!/t^k differences
    p = HParams(3.0, 1.0, 0.4, -1.0)
    out = log_derivs_h(*p.as_tuple(), np.array([1e200, -1e200]), ORDERS)
    assert np.all(np.isfinite(np.concatenate([np.ravel(v) for pair in out.values() for v in pair])))
    assert out[1][0][0] == pytest.approx(3.0 - 0.4, rel=1e-15)  # max(a,b) - max(l,m)
    assert out[1][0][1] == pytest.approx(1.0 - (-1.0), rel=1e-15)  # min(a,b) - min(l,m)


# orders 2-4 at t = 1 for HParams(1e60, 0, 1, 0), where |d|^k is in range;
# beyond e^{-|d t|} = 0, so only the 1/t^k parts of the d row remain
_AT_1E60 = {2: 0.9206735942077924, 3: -1.9922947671249878, 4: 6.006512796636761}


@pytest.mark.parametrize("d", [1e80, 1e160, 1e200])
def test_huge_difference_no_overflow(d):
    out = log_derivs_h(d, 0.0, 1.0, 0.0, 1.0, (2, 3, 4))
    for k, want in _AT_1E60.items():
        value, bound = out[k]
        assert bound <= 1e-12 and abs(value - want) <= bound, (d, k, value, bound)
        assert log_deriv_H(HParams(d, 0, 1, 0), 1.0, k) == value


@pytest.mark.parametrize("d", [1e120, 1e200])
def test_odd_orders_zero_at_origin_past_overflow(d):
    # |d|^3 overflows; the series term u^1 |d|^3 is 0 * inf at t = 0, but
    # odd orders vanish there exactly, value and bound alike
    for t in (0.0, np.array([0.0])):
        out = log_derivs_h(d, 0.0, 1.0, 0.0, t, (1, 3))
        assert np.all(out[3][0] == 0.0) and np.all(out[3][1] == 0.0)
        assert np.all(out[1][0] == 0.5 * (d - 1.0)) and np.all(np.isfinite(out[1][1]))


def test_order_1_bound_finite_where_magnitude_sum_overflows():
    # neither a difference nor |alpha| + |beta| + |lam| + |mu| overflows,
    # but the order-1 magnitudes plus half that sum do unless scaled first;
    # a RuntimeWarning fails the test
    _, bound = log_deriv_h(1e308, 0.0, 1.0, 0.0, np.array([0.5, 1.0, -3.0]), 1)
    assert np.all(np.isfinite(bound)) and np.all(bound > 0.0), bound


def test_exact_zeros():
    rng = np.random.default_rng(3)
    for p in random_hparams(rng, 20):
        a, b, l, m = p.as_tuple()
        at0 = log_derivs_h(a, b, l, m, 0.0, ORDERS)
        assert at0[3][0] == 0.0
        assert at0[1][0] == 0.5 * ((a + b) - (l + m))
    # log-affine, |alpha - beta| = |lam - mu| exactly (multiples of 1/8):
    # ratio +1 and -1
    ts = np.array([0.0, 1e-7, -0.3, 0.9, -4.0, 60.0])
    for _ in range(20):
        a, b, s = rng.integers(-40, 40, size=3) / 8.0
        if a == b:
            continue
        for q in (HParams(a, b, a + s + 0.5, b + s + 0.5), HParams(a, b, b + s, a + s)):
            out = log_derivs_h(*q.as_tuple(), ts, ORDERS)
            for k in (2, 3, 4):
                assert np.all(out[k][0] == 0.0), (q, k)
            assert np.all(out[1][0] == out[1][0][0])


def test_limits_at_zero(rng):
    for p in random_hparams(rng, 10):
        d1, d2 = p.alpha - p.beta, p.lam - p.mu
        assert log_deriv_H(p, 0.0, 2) == pytest.approx((d1**2 - d2**2) / 12.0, rel=1e-14)
        assert log_deriv_H(p, 0.0, 4) == pytest.approx(-(d1**4 - d2**4) / 120.0, rel=1e-14)


def test_vector_matches_scalar_and_single_orders():
    p = HParams(2.0, -1.0, 3.0, 0.5)
    ts = np.array([0.0, 2e-9, -0.2, 0.4, 0.7, -1.3, 5.0, -300.0, 900.0])
    fused = log_derivs_h(*p.as_tuple(), ts, ORDERS)
    for k in ORDERS:
        value, bound = log_deriv_h(*p.as_tuple(), ts, k)
        assert np.array_equal(value, fused[k][0]) and np.array_equal(bound, fused[k][1])
        for i, t in enumerate(ts):
            v, e = log_deriv_h(*p.as_tuple(), float(t), k)
            assert np.shape(v) == () and v == value[i] and e == bound[i], (k, t)
            assert log_deriv_H(p, float(t), k) == value[i]


def test_values_independent_of_orders_asked(rng):
    # an order's values are the same bits whichever other orders share the
    # pass, so a scan reads the same probes whatever else its chunk wants
    half = np.geomspace(1e-8, 1e3, 60)
    ts = np.concatenate([-half[::-1], [0.0], half])
    for p in random_hparams(rng, 40):
        fused = log_derivs_h(*p.as_tuple(), ts, ORDERS)
        for k in ORDERS:
            value, bound = log_derivs_h(*p.as_tuple(), ts, (k,))[k]
            assert np.array_equal(value, fused[k][0]), (p, k)
            assert np.array_equal(bound, fused[k][1]), (p, k)


def test_parameter_arrays_match_scalar_calls(rng):
    # one row per parameter set, each the same bits as that set's scalar
    # call, whatever the other rows are: huge differences take the overflow
    # paths, and the last two rows are log-affine (ratio 1 and -1)
    half = np.geomspace(1e-8, 1e3, 60)
    ts = np.concatenate([-half[::-1], [0.0], half, [1e200, -1e200]])
    rows = [p.as_tuple() for p in random_hparams(rng, 36)]
    rows += [(1e200, 0.0, 1.0, 0.0), (1e80, 0.0, -2.0, 1.0), (0.5, -1.5, 3.0, 1.0),
             (2.0, 0.0, -1.0, 1.0)]
    for orders in (ORDERS, (3,), (2, 1)):
        out = log_derivs_h(*np.array(rows).T, ts, orders)
        for k in orders:
            value, bound = out[k]
            for i, row in enumerate(rows):
                want_value, want_bound = log_derivs_h(*row, ts, orders)[k]
                assert same_bits(value[i], want_value), (row, k)
                assert same_bits(bound[i], want_bound), (row, k)
            assert value.shape == bound.shape == (len(rows), ts.size)
    # the row axis comes first, then t's shape; one row is still a row
    grid = ts[:60].reshape(6, 10)
    assert log_derivs_h(*np.array(rows[:3]).T, grid, (2,))[2][0].shape == (3, 6, 10)
    assert log_derivs_h([1.0], [0.0], [2.0], [0.0], 0.5, (2,))[2][0].shape == (1,)


def test_order_validation():
    with pytest.raises(ValueError):
        log_deriv_h(1.0, 0.0, 2.0, 0.0, 0.5, 5)
    with pytest.raises(ValueError):
        log_derivs_h(1.0, 0.0, 2.0, 0.0, 0.5, ())
    with pytest.raises(ParameterError):
        log_deriv_H(HParams(1, 0, 2, 0), 0.5, 0)
    with pytest.raises(ParameterError):
        log_deriv_H(HParams(1, 0, 2, 0), math.inf, 1)


# ---------------------------------------------------------------------------
# strict signs of orders 2 and 3
#
# With e(x) = ln(sinh(x/2)/(x/2)), the k-th log-derivative of |H| is
# t^-k (g_k(|d1 t|) - g_k(|d2 t|)) for k = 2, 3, where g_k(x) = x^k e^(k)(x).
# g_2 rises and g_3 falls strictly, so those signs are strict on each half
# line whenever |ratio| != 1: that is what lets the oracle treat a
# log-convexity or 3-log claim with no confirming probe as a boundary skip.
# The grid runs out to 7e2, where e^{-x/2} nears the bottom of the double
# range and the kernel's closed forms end, at 40 points per decade.

_X = np.geomspace(1e-3, 7e2, 234)


def mp_g(x, k):
    """x^k e^(k)(x) for k = 2, 3, from the closed forms at 330 digits, so
    that the distance to the limits 1 and -2, down to ~1e-296 at 7e2, is
    resolved:
    x^2 e''(x) = 1 - (x/2)^2 / sinh^2(x/2) and
    x^3 e'''(x) = x^3 coth(x/2) / (4 sinh^2(x/2)) - 2."""
    with mp.workdps(330):
        x = mp.mpf(x)
        h = x / 2
        if k == 2:
            return 1 - (h / mp.sinh(h)) ** 2
        return x**3 * mp.coth(h) / (4 * mp.sinh(h) ** 2) - 2


def test_orders_2_and_3_strictly_monotone():
    g2 = [mp_g(x, 2) for x in _X]
    g3 = [mp_g(x, 3) for x in _X]
    assert all(lo < hi for lo, hi in zip(g2, g2[1:]))
    assert all(hi > lo for hi, lo in zip(g3, g3[1:]))
    with mp.workdps(50):
        # the limits: -x^4/120 near 0, -2 + O(x^3 e^-x) at infinity
        x0 = mp.mpf(_X[0])
        assert abs(g3[0] / (-x0**4 / 120) - 1) < 1e-6
        assert abs(mp_g(100.0, 3) + 2) < 1e-30
        x1 = mp.mpf(_X[-1])
        assert abs((g3[-1] + 2) / (x1**3 * mp.exp(-x1)) - 1) < 1e-6


def test_kernel_orders_2_and_3_match_closed_forms():
    orders = (2, 3)
    vals, mags = _e_derivs(np.array([1.0]), _X, orders)
    for row, k in enumerate(orders):
        for x, got, size in zip(_X, vals[row, 0], mags[row, 0]):
            want = float(mp_g(x, k) / mp.mpf(x) ** k)
            assert abs(got - want) <= _BOUND_ULPS * size + 1e-30, (x, k, got, want)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, k)


# ---------------------------------------------------------------------------
# past U_FAR: the kernel against its closed forms written out in full, with
# e^{-u} taken at every u


def _full_q_form(d, s, k):
    """d^k e^(k)(d s) and its magnitude sum from the closed forms in
    q = e^{-u} (u > 1), q taken at every u."""
    u = d * s
    h = np.exp(-0.5 * u)
    q = h * h
    r = 1.0 / (1.0 - q)
    it = 1.0 / s
    it2 = it * it
    w = d * h * r
    w = w * w
    pos, neg = {
        1: (d * r, 0.5 * d + it),
        2: (it2, w),
        3: ((1.0 + q) * r * w * d, 2.0 * it2 * it),
        4: (6.0 * it2 * it2, w * d * d * r * r * (1.0 + q * (4.0 + q))),
    }[k]
    return pos - neg, pos + neg


_SCALES = 2.0 ** np.arange(-40, 41, 5)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (4,), (1, 2, 3), (4, 2), (1, 2, 3, 4)])
def test_far_elements_match_full_q_form(orders):
    # past U_FAR the kernel takes e^{-u} as 0; every term it drops is below
    # 2^-54 of the one it is added to, so no bit moves, up to where exp
    # underflows (u ~ 1490) and beyond
    u = np.concatenate([[np.nextafter(U_FAR, np.inf), 80.5, 100.0, 708.0, 709.0, 745.0,
                         1416.0, 1450.0, 1490.0, 1e4],
                        np.geomspace(U_FAR + 1e-9, 1e4, 200)])
    for d in _SCALES:
        s = u / d
        d1 = np.array([d])
        assert np.all(d * s > U_FAR)
        vals, mags = _e_derivs(d1, s, orders)
        for row, k in enumerate(orders):
            value, size = _full_q_form(d1, s, k)
            assert same_bits(vals[row, 0], value), (d, k)
            assert same_bits(mags[row, 0], size), (d, k)
