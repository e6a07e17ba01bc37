import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expratio import (
    GFParams,
    HParams,
    PParams,
    QParams,
    eval_F,
    eval_G,
    eval_H,
    eval_H_grid,
    eval_H_signed_log,
    eval_P,
    eval_Q,
    log_abs_H_grid,
    log_deriv_H,
    reduce_H_to_Q,
)
from expratio import _kernels_py as K
from expratio._kernels_py import h_sign

from conftest import (
    mp_F, mp_G, mp_H, mp_log_abs_H, mp_log_deriv_H, random_hparams, rel_err, same_bits,
)

E = math.e

# strategy for well-separated exponent quadruples
_coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def _separated(vals, gap=0.05):
    return all(
        abs(vals[i] - vals[j]) >= gap for i in range(len(vals)) for j in range(i + 1, len(vals))
    )


hparams_st = (
    st.tuples(_coord, _coord, _coord, _coord)
    .filter(_separated)
    .map(lambda v: HParams(*v))
)
t_st = st.floats(-8, 8, allow_nan=False, allow_infinity=False)


class TestSpotValues:
    def test_G(self):
        p = GFParams(1.0, E)
        assert eval_G(p, 0.0) == pytest.approx(1.0, rel=1e-15)  # ln e - ln 1
        assert eval_G(p, 1.0) == pytest.approx(E - 1.0, rel=1e-14)
        assert eval_G(p, 2.0) == pytest.approx((E**2 - 1.0) / 2.0, rel=1e-14)

    def test_F(self):
        p = GFParams(0.0, 1.0)
        assert eval_F(p, 0.0) == pytest.approx(1.0, rel=1e-15)  # 1/(b-a)
        assert eval_F(p, 1.0) == pytest.approx(1.0 / (E - 1.0), rel=1e-14)
        assert eval_F(p, -1.0) == pytest.approx(-1.0 / (1.0 / E - 1.0), rel=1e-14)

    def test_H_degenerate_exponential(self):
        # (e^{3t}-e^{t})/(e^{2t}-1) = e^t
        p = HParams(3, 1, 2, 0)
        for t in (-5.0, -0.3, 0.0, 1e-8, 0.7, 4.0):
            assert eval_H(p, t) == pytest.approx(math.exp(t), rel=1e-13)

    def test_H_logistic(self):
        # (e^t-1)/(e^{2t}-1) = 1/(e^t+1)
        p = HParams(1, 0, 2, 0)
        for t in (-3.0, 0.0, 0.2, 6.0):
            assert eval_H(p, t) == pytest.approx(1.0 / (math.exp(t) + 1.0), rel=1e-13)

    def test_Q_half_exponential(self):
        p = QParams(-0.5, 0.5)
        for t in (-4.0, 0.0, 1.0, 7.0):
            assert eval_Q(p, t) == pytest.approx(math.exp(0.5 * t), rel=1e-13)


class TestAgainstReference:
    def test_H_random(self, rng):
        ts = np.concatenate(
            [np.geomspace(1e-9, 50, 25), -np.geomspace(1e-9, 50, 25), [0.0]]
        )
        for p in random_hparams(rng, 40):
            for t in ts:
                got = eval_H(p, float(t))
                want = mp_H(*p.as_tuple(), t)
                assert rel_err(got, want) < 1e-12, (p, t)

    def test_P_random(self, rng):
        for _ in range(30):
            r, s, u, v = np.exp(rng.uniform(-2, 2, size=4))
            if len({r, s, u, v}) < 4:
                continue
            p = PParams(r, s, u, v)
            for t in (-3.0, -0.01, 0.0, 0.5, 4.0):
                want = mp_H(math.log(r), math.log(s), math.log(u), math.log(v), t)
                assert rel_err(eval_P(p, t), want) < 1e-12

    # |t| up to 700 with ln a, ln b, a, b in [-1, 1]: every value is a
    # normal double, so the relative bound holds at every point
    _T_WIDE = np.concatenate([[0.0], np.geomspace(1e-9, 700, 24), -np.geomspace(1e-9, 700, 24)])

    def test_G_random(self, rng):
        for _ in range(30):
            la, lb = np.sort(rng.uniform(-1, 1, size=2))
            if lb - la < 0.05:
                continue
            p = GFParams(math.exp(la), math.exp(lb))
            for t in self._T_WIDE:
                want = mp_G(p.a, p.b, t)
                assert rel_err(eval_G(p, float(t)), want) < 1e-12, (p, t)

    def test_F_random(self, rng):
        for _ in range(30):
            a, b = rng.uniform(-1, 1, size=2)
            if abs(a - b) < 0.05:
                continue
            p = GFParams(a, b)
            for t in self._T_WIDE:
                want = mp_F(p.a, p.b, t)
                assert rel_err(eval_F(p, float(t)), want) < 1e-12, (p, t)

    def test_signed_log_random(self, rng):
        for p in random_hparams(rng, 20):
            for t in (-700.0, -2.0, 1e-4, 3.0, 700.0):
                v = eval_H_signed_log(p, t)
                want = mp_log_abs_H(*p.as_tuple(), t)
                assert abs(v.log_mag - float(want)) < 1e-10 * max(1.0, abs(float(want)))

    def test_log_abs_H_tiny_t(self, rng):
        # ln|H| near t = 0 is ln|d1| - ln|d2| plus O(t); the reference
        # writes each difference as e^{beta t} expm1(d t), so it does not
        # cancel at 80 digits however small t is
        def want(a, b, l, m, t):
            with mp.workdps(80):
                a, b, l, m, t = map(mp.mpf, (a, b, l, m, t))
                return float(
                    (b - m) * t
                    + mp.log(abs(mp.expm1((a - b) * t)))
                    - mp.log(abs(mp.expm1((l - m) * t)))
                )

        ts = np.array([s * x for x in (1e-300, 1e-200, 1e-100, 1e-20) for s in (1.0, -1.0)])
        for p in random_hparams(rng, 50):
            got = log_abs_H_grid(p, ts)
            for t, g in zip(ts, got):
                assert abs(g - want(*p.as_tuple(), t)) <= 1e-14, (p, t)

    def test_common_shift_keeps_accuracy(self, rng):
        # H is invariant under adding c to every exponent; its rounding
        # error must follow |(alpha - beta) t| <= 20, not |alpha t| ~ 1e4
        draws = [HParams(*(0.2 * x for x in p.as_tuple())) for p in random_hparams(rng, 20)]
        for p in [HParams(0.5, 0, 1, 0)] + draws:
            shifted = HParams(*(x + 1000.0 for x in p.as_tuple()))
            want = mp_H(*shifted.as_tuple(), 10.0)
            assert rel_err(eval_H(shifted, 10.0), want) <= 1e-14, shifted

    def test_grid_matches_scalar(self, rng):
        p = random_hparams(rng, 1)[0]
        ts = np.linspace(-4, 4, 33)
        grid = eval_H_grid(p, ts)
        for t, v in zip(ts, grid):
            assert v == eval_H(p, float(t))
        logs = log_abs_H_grid(p, ts)
        assert np.allclose(logs, np.log(np.abs(grid)), rtol=1e-13, atol=0)


class TestIdentities:
    """The algebraic relations between the five functions."""

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, t_st)
    def test_H_equals_ratio_of_F(self, p, t):
        num = eval_F(GFParams(p.lam, p.mu), t)
        den = eval_F(GFParams(p.alpha, p.beta), t)
        assert rel_err(num / den, eval_H(p, t)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, st.floats(-2, 2, allow_nan=False))
    def test_P_equals_H_of_logs(self, p, t):
        a, b, l, m = p.as_tuple()
        pp = PParams(math.exp(a), math.exp(b), math.exp(l), math.exp(m))
        assert rel_err(eval_P(pp, t), eval_H(pp.log_params(), t)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, st.floats(-2, 2, allow_nan=False))
    def test_P_equals_ratio_of_G(self, p, t):
        a, b, l, m = p.as_tuple()
        r, s, u, v = math.exp(a), math.exp(b), math.exp(l), math.exp(m)
        num = eval_G(GFParams(min(r, s), max(r, s)), t)
        den = eval_G(GFParams(min(u, v), max(u, v)), t)
        sign = (1.0 if r > s else -1.0) * (1.0 if u > v else -1.0)
        want = eval_P(PParams(r, s, u, v), t)
        assert rel_err(sign * num / den, want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, t_st)
    def test_reduction_to_Q(self, p, t):
        red = reduce_H_to_Q(p)
        if red.degenerate:
            return
        q = QParams(red.A, red.B)
        assert rel_err(eval_Q(q, red.w_scale * t), eval_H(p, t)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, t_st)
    def test_double_swap_symmetry(self, p, t):
        swapped = HParams(p.beta, p.alpha, p.mu, p.lam)
        assert rel_err(eval_H(swapped, t), eval_H(p, t)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, t_st)
    def test_negation_reflection(self, p, t):
        negated = HParams(-p.alpha, -p.beta, -p.lam, -p.mu)
        assert rel_err(eval_H(negated, t), eval_H(p, -t)) < 1e-12


class TestContinuityAtZero:
    def test_exact_value_at_zero(self, rng):
        for p in random_hparams(rng, 50):
            assert eval_H(p, 0.0) == (p.alpha - p.beta) / (p.lam - p.mu)

    def test_limit_approach(self, rng):
        for p in random_hparams(rng, 50):
            h0 = eval_H(p, 0.0)
            for t in (1e-9, -1e-9, 1e-12, -1e-12):
                assert abs(eval_H(p, t) - h0) <= 1e-7 * abs(h0)

    def test_G_F_exact_value_at_zero(self, rng):
        for _ in range(50):
            la, lb = np.sort(rng.uniform(-2, 2, size=2))
            a, b = rng.uniform(-3, 3, size=2)
            if lb - la < 0.05 or abs(a - b) < 0.05:
                continue
            g = GFParams(math.exp(la), math.exp(lb))
            assert eval_G(g, 0.0) == math.log(g.b) - math.log(g.a)
            assert eval_F(GFParams(a, b), 0.0) == 1.0 / (b - a)

    @staticmethod
    def _tiny_ts(*ds):
        # the smallest subnormal, and a t at which every d t is subnormal
        t = 1e-310
        assert all(0.0 < abs(d * t) < np.finfo(np.float64).tiny for d in ds)
        return (5e-324, -5e-324, t, -t)

    def test_subnormal_t_near_limit(self, rng):
        for p in random_hparams(rng, 50):
            d1, d2 = p.alpha - p.beta, p.lam - p.mu
            for t in self._tiny_ts(d1, d2):
                assert rel_err(eval_H(p, t), d1 / d2) <= 1e-15, (p, t)
        for _ in range(50):
            la, lb = np.sort(rng.uniform(-2, 2, size=2))
            a, b = rng.uniform(-3, 3, size=2)
            if lb - la < 0.05 or abs(a - b) < 0.05:
                continue
            g, f = GFParams(math.exp(la), math.exp(lb)), GFParams(a, b)
            g0, f0 = math.log(g.b) - math.log(g.a), 1.0 / (b - a)
            for t in self._tiny_ts(g0, b - a):
                assert rel_err(eval_G(g, t), g0) <= 1e-15, (g, t)
                assert rel_err(eval_F(f, t), f0) <= 1e-15, (f, t)


class TestSign:
    # d1 d2 = 2e-400 underflows to 0; the sign must come from the factors
    P = HParams(2e-200, 0, 1e-200, 0)

    def test_eval_H_positive(self):
        assert eval_H(self.P, 0.0) == 2.0
        assert eval_H(self.P, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert eval_H(HParams(0, 2e-200, 1e-200, 0), 1.0) == pytest.approx(-2.0, rel=1e-12)

    def test_signed_log_and_kernel_sign(self):
        assert eval_H_signed_log(self.P, 1.0).sign == 1
        assert h_sign(*self.P.as_tuple()) == 1.0
        assert h_sign(0.0, 2e-200, 1e-200, 0.0) == -1.0
        assert h_sign(-1e-300, 0.0, -1e-300, 0.0) == 1.0


class TestOverflowSafety:
    def test_logistic_extremes(self):
        p = HParams(1, 0, 2, 0)
        assert eval_H(p, 700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)
        assert eval_H(p, -700.0) == pytest.approx(1.0, rel=1e-14)
        assert eval_H(p, 5000.0) == 0.0  # below double range: saturates cleanly
        assert eval_H(p, -5000.0) == pytest.approx(1.0, rel=1e-14)

    def test_growing_extremes(self):
        p = HParams(3, 1, 2, 0)  # e^t
        assert eval_H(p, 5000.0) == math.inf
        assert eval_H(p, 600.0) == pytest.approx(math.exp(600.0), rel=1e-12)

    def test_signed_log_saturates_where_exp_overflows(self):
        p = HParams(2, 0, 1, 0)  # e^t + 1, about 1.355e308 at t = 709.5
        value = eval_H(p, 709.5)
        assert math.isfinite(value)
        assert eval_H_signed_log(p, 709.5).to_float() == value

    def test_G_finite_up_to_dbl_max(self):
        want = mp_G(1.0, E, 716.0)  # (e^716 - 1) / 716, about 1.2587e308
        got = eval_G(GFParams(1.0, E), 716.0)
        assert math.isfinite(got)
        assert rel_err(got, want) < 1e-12
        assert eval_G(GFParams(1.0, E), 720.0) == math.inf

    def test_shifted_exponents_beyond_range(self):
        # alpha t and lam t overflow, (alpha - beta) t and (lam - mu) t do not
        assert eval_H(HParams(1000.5, 1000, 1001, 1000), 1e306) == 0.0
        assert eval_H(HParams(-2, -3, -2.5, -3), 1e308) == math.inf
        assert eval_H_signed_log(HParams(1000.5, 1000, 1001, 1000), 1e306).log_mag < -1e305

    def test_both_differences_beyond_range(self):
        # (alpha - beta) t and (lam - mu) t both overflow; H = (e^{2t} - 1) /
        # (e^{3t} - 1) is e^{-t} there for t > 0 and 1 for t < 0
        p = HParams(2, 0, 3, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_H(p, 1e308) == 0.0
            assert eval_H(p, -1e308) == 1.0
            assert log_abs_H_grid(p, np.array([1e308]))[0] == -1e308
            signed = eval_H_signed_log(p, 1e308)
            assert (signed.sign, signed.log_mag) == (1, -1e308)

    def test_no_nan_anywhere(self, rng):
        for p in random_hparams(rng, 10):
            for t in (-5000.0, -700.0, -1e-300, 0.0, 1e-300, 700.0, 5000.0):
                assert not math.isnan(eval_H(p, t)), (p, t)


class TestLogDerivatives:
    def test_spot_values(self):
        p = HParams(1, 0, 2, 0)  # ln H = -ln(1 + e^t)
        e5 = math.exp(0.5)
        assert log_deriv_H(p, 0.5, 2) == pytest.approx(-e5 / (1 + e5) ** 2, abs=1e-9)
        assert log_deriv_H(p, 1.0, 3) == pytest.approx(E * (E - 1) / (1 + E) ** 3, abs=1e-9)

    def test_against_reference(self, rng):
        for p in random_hparams(rng, 15):
            for t in (-3.0, -0.4, 0.2, 1.0, 6.0):
                for order in (1, 2, 3):
                    want = float(mp_log_deriv_H(*p.as_tuple(), t, order))
                    got = log_deriv_H(p, float(t), order)
                    assert abs(got - want) < 1e-9 * max(1.0, abs(want)), (p, t, order)

    def test_limits_at_zero(self, rng):
        for p in random_hparams(rng, 15):
            a, b, l, m = p.as_tuple()
            d1, d2 = a - b, l - m
            assert log_deriv_H(p, 0.0, 1) == pytest.approx((a + b - l - m) / 2.0, rel=1e-12)
            assert log_deriv_H(p, 0.0, 2) == pytest.approx(
                (d1 * d1 - d2 * d2) / 12.0, rel=1e-12
            )
            assert log_deriv_H(p, 0.0, 3) == 0.0

    def test_log_affine_case(self):
        p = HParams(3, 1, 2, 0)  # ln H = t
        assert log_deriv_H(p, 0.7, 1) == pytest.approx(1.0, rel=1e-12)
        assert abs(log_deriv_H(p, 0.7, 2)) < 1e-12
        assert abs(log_deriv_H(p, 0.7, 3)) < 1e-12


class TestReduction:
    def test_examples(self):
        red = reduce_H_to_Q(HParams(3, 1, 2, 0))
        assert (red.A, red.B, red.w_scale) == (-0.5, 0.5, 2.0)
        red = reduce_H_to_Q(HParams(1, 0, 2, 0))
        assert (red.A, red.B, red.w_scale) == (0.5, 1.0, 2.0)
        assert not red.degenerate

    def test_valid_params_never_degenerate(self, rng):
        # (A, B) = (0, 1) or (1, 0) corresponds exactly to the excluded
        # (alpha, beta) = (lam, mu) / (mu, lam) tuples, so every valid
        # parameter set reduces to a valid two-exponent form
        for p in random_hparams(rng, 50):
            red = reduce_H_to_Q(p)
            assert not red.degenerate
            QParams(red.A, red.B)


def test_one_point_calls_match_grid_bits(rng):
    # a one-point call picks its branch in Python and skips the grid's
    # reductions; each value must still be the bits of the same point in a
    # many-point call: t = 0, subnormal t, both sides of the near/far
    # switch at u = |d t| = 1, and H(2, 0, 3, 0) where 3t overflows
    ts = np.concatenate([[0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1e308, -1e308],
                         rng.uniform(-1, 1, 40) * 10.0 ** rng.uniform(-12, 3, 40)])
    rows = [p.as_tuple() for p in random_hparams(rng, 6)] + [(2.0, 0.0, 3.0, 0.0),
                                                             (1.0, 0.0, 2.0, 0.0)]
    for a, b, l, m in rows:
        d = a - b
        edge = np.array([1.0 / abs(d), np.nextafter(1.0 / abs(d), 0.0)])
        grid = np.concatenate([ts, edge, -edge])
        quot = K.log_abs_quot(a, b, grid)
        log_h = K.log_abs_h(a, b, l, m, grid)
        h = K.eval_h(a, b, l, m, grid)
        derivs = K.log_derivs_h(a, b, l, m, grid, (1, 2, 3, 4))
        for i, t in enumerate(grid.tolist()):
            for one in ([t], np.float64(t)):
                assert same_bits(K.log_abs_quot(a, b, one), np.reshape(quot[i], np.shape(one)))
                assert same_bits(K.log_abs_h(a, b, l, m, one), np.reshape(log_h[i], np.shape(one)))
                assert same_bits(K.eval_h(a, b, l, m, one), np.reshape(h[i], np.shape(one)))
            for k, (value, bound) in K.log_derivs_h(a, b, l, m, [t], (1, 2, 3, 4)).items():
                assert same_bits(value, derivs[k][0][i:i + 1]), (a, b, l, m, t, k)
                assert same_bits(bound, derivs[k][1][i:i + 1]), (a, b, l, m, t, k)
