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
from expratio._kernels_py import log_deriv_h, log_derivs_h
from expratio.params import ParameterError

from conftest import mp_log_deriv_H, random_hparams

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


def test_order_validation():
    with pytest.raises(ValueError):
        log_deriv_h(1.0, 0.0, 2.0, 0.0, 0.5, 5)
    with pytest.raises(ValueError):
        log_derivs_h(1.0, 0.0, 2.0, 0.0, 0.5, ())
    with pytest.raises(ParameterError):
        log_deriv_H(HParams(1, 0, 2, 0), 0.5, 0)
    with pytest.raises(ParameterError):
        log_deriv_H(HParams(1, 0, 2, 0), math.inf, 1)
