import math

import numpy as np
import pytest

from expratio import (
    GridSpec,
    HParams,
    Interval,
    cross_validate,
    four_log_sign_change_search,
    grid_klog_sign_check,
    grid_monotonicity_check,
    log_deriv_H,
    numeric_log_derivative,
)
from expratio.oracle import (
    _RETRY_GRID,
    DEFAULT_STEPS,
    MONO_TOL,
    SIGN_MARGIN,
    _aggregate,
    _check_one,
    _klog_scan,
    _monotonicity_scan,
    kernels,
)
from expratio.params import ParameterError

from conftest import mp_log_deriv_H, random_hparams

E = math.e


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(t_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(t_min=2.0, t_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(points_per_side=4)

    def test_sides(self):
        g = GridSpec(t_min=1e-2, t_max=1.0, points_per_side=10)
        pos = g.side(True)
        neg = g.side(False)
        assert pos[0] == pytest.approx(1e-2) and pos[-1] == pytest.approx(1.0)
        assert np.all(np.diff(pos) > 0) and np.all(np.diff(neg) > 0)
        assert np.allclose(neg, -pos[::-1])

    def test_negative_excluded(self):
        g = GridSpec(include_negative=False)
        with pytest.raises(ValueError):
            g.points(Interval.NEGATIVE_HALF_LINE)
        p = HParams(1, 0, 2, 0)
        with pytest.raises(ValueError):
            grid_monotonicity_check(p, Interval.NEGATIVE_HALF_LINE, g)
        with pytest.raises(ValueError):
            grid_klog_sign_check(p, Interval.NEGATIVE_HALF_LINE, 2, g)

    @pytest.mark.parametrize("interval", list(Interval))
    def test_points_built_once_read_only(self, interval):
        g = GridSpec()
        pts = g.points(interval)
        assert g.points(interval) is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0


class TestNumericLogDerivative:
    def test_log_affine_is_flat(self):
        est, err = numeric_log_derivative(HParams(3, 1, 2, 0), 1.0, 2, 1e-3)
        assert abs(est) <= max(err, 1e-8)

    def test_spot_third_order(self):
        est, err = numeric_log_derivative(HParams(1, 0, 2, 0), 1.0, 3, 1e-3)
        want = E * (E - 1) / (1 + E) ** 3  # 0.090847...
        assert est == pytest.approx(want, abs=1e-6)

    def test_spot_second_order(self):
        est, err = numeric_log_derivative(HParams(1, 0, 2, 0), 0.5, 2, 1e-3)
        e5 = math.exp(0.5)
        assert est == pytest.approx(-e5 / (1 + e5) ** 2, abs=1e-6)

    def test_stencil_rejections(self):
        p = HParams(1, 0, 2, 0)
        with pytest.raises(ValueError):
            numeric_log_derivative(p, 0.0, 2)
        with pytest.raises(ValueError):
            numeric_log_derivative(p, 1e-5, 2, 1e-4)  # stencil crosses 0
        with pytest.raises(ValueError):
            numeric_log_derivative(p, 1.0, 5)
        with pytest.raises(ValueError):
            numeric_log_derivative(p, 1.0, 2, -1e-4)

    def test_convergence_order(self, rng):
        # in the truncation-dominated regime, halving the step must shrink
        # the error against the closed form by at least 8x
        for p in random_hparams(rng, 10):
            for order in (1, 2, 3):
                t = 1.3
                want = log_deriv_H(p, t, order)
                coarse, _ = numeric_log_derivative(p, t, order, 0.08)
                fine, _ = numeric_log_derivative(p, t, order, 0.04)
                e_coarse = abs(coarse - want)
                e_fine = abs(fine - want)
                if e_coarse < 1e-10:
                    continue  # too accurate for the ratio to be meaningful
                assert e_fine <= e_coarse / 8.0, (p, order, e_coarse, e_fine)

    def test_error_estimate_is_honest(self, rng):
        for p in random_hparams(rng, 10):
            for order in (1, 2, 3):
                for t in (-2.0, 0.3, 5.0):
                    est, err = numeric_log_derivative(p, t, order)
                    want = float(mp_log_deriv_H(*p.as_tuple(), t, order))
                    assert abs(est - want) <= 10.0 * err + 1e-9, (p, order, t)

    def test_vectorized_matches_scalar(self):
        p = HParams(2, -1, 3, 0.5)
        ts = np.array([0.2, 0.9, -1.7, 4.0])
        est, err = numeric_log_derivative(p, ts, 2)
        for i, t in enumerate(ts):
            s_est, s_err = numeric_log_derivative(p, float(t), 2)
            assert est[i] == s_est and err[i] == s_err


class TestGridMonotonicity:
    def test_rises(self):
        v = grid_monotonicity_check(HParams(3, 1, 2, 0), Interval.POSITIVE_HALF_LINE)
        assert v.direction == "rises" and not v.falls

    def test_falls_whole_line(self):
        v = grid_monotonicity_check(HParams(1, 0, 2, 0), Interval.WHOLE_LINE)
        assert v.direction == "falls" and not v.rises

    def test_both_with_witnesses(self):
        v = grid_monotonicity_check(HParams(3, -3, 1, 0), Interval.POSITIVE_HALF_LINE)
        assert v.direction == "both"
        assert v.rise_count > 0 and v.fall_count > 0
        # H ~ 6(1 - t/2 + ...) near 0+ and grows like e^{2t} at infinity:
        # the fall witness sits near the origin, the rise witness beyond it
        rise_t, fall_t = v.witness_points[0], v.witness_points[1]
        assert fall_t < 1.0 < rise_t

    def test_density_never_flips(self, rng):
        for p in random_hparams(rng, 15):
            for interval in Interval:
                v1 = grid_monotonicity_check(p, interval, GridSpec())
                v2 = grid_monotonicity_check(p, interval, GridSpec(points_per_side=400))
                if v1.direction == "rises":
                    assert not v2.falls
                if v1.direction == "falls":
                    assert not v2.rises


class TestKlogSignCheck:
    def test_log_convex_case(self):
        v = grid_klog_sign_check(HParams(4, 0, 2, 0), Interval.WHOLE_LINE, 2)
        assert v.fall_count == 0 and v.rise_count > 0

    def test_three_log_signs(self):
        p = HParams(1, 0, 2, 0)
        pos = grid_klog_sign_check(p, Interval.POSITIVE_HALF_LINE, 3)
        neg = grid_klog_sign_check(p, Interval.NEGATIVE_HALF_LINE, 3)
        assert pos.direction == "rises"
        assert neg.direction == "falls"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            grid_klog_sign_check(HParams(1, 0, 2, 0), Interval.WHOLE_LINE, 4)


class TestFourLogSearch:
    def test_finds_crossing(self):
        t_star = four_log_sign_change_search(HParams(1, 0, 2, 0), Interval.POSITIVE_HALF_LINE)
        assert t_star is not None and t_star > 0
        # bracket width refinement
        lo, _ = numeric_log_derivative(HParams(1, 0, 2, 0), t_star * (1 - 1e-4), 4)
        hi, _ = numeric_log_derivative(HParams(1, 0, 2, 0), t_star * (1 + 1e-4), 4)
        assert lo * hi < 0

    def test_finds_crossing_steeper_case(self):
        t_star = four_log_sign_change_search(HParams(4, 0, 2, 0), Interval.POSITIVE_HALF_LINE)
        assert t_star is not None

    def test_log_affine_rejected(self):
        with pytest.raises(ValueError):
            four_log_sign_change_search(HParams(3, 1, 2, 0), Interval.POSITIVE_HALF_LINE)

    def test_log_affine_within_band_rejected(self):
        # H = e^{-t}; the ratio rounds to 1.0000000000000002
        with pytest.raises(ValueError):
            four_log_sign_change_search(HParams(1.3, 0.3, 2.3, 1.3), Interval.POSITIVE_HALF_LINE)

    def test_whole_line_rejected(self):
        with pytest.raises(ValueError):
            four_log_sign_change_search(HParams(1, 0, 2, 0), Interval.WHOLE_LINE)


class TestCrossValidate:
    def test_small_sweep_clean(self):
        report = cross_validate(200, seed=42)
        assert report.contradictions == []
        assert report.draws == 200
        assert report.draws == report.agreements + report.boundary_skips + len(
            report.contradictions
        )

    def test_deterministic(self):
        r1 = cross_validate(50, seed=7)
        r2 = cross_validate(50, seed=7)
        assert (r1.draws, r1.agreements, r1.boundary_skips) == (
            r2.draws,
            r2.agreements,
            r2.boundary_skips,
        )
        assert r1.contradictions == r2.contradictions

    def test_draws_validation(self):
        with pytest.raises(ValueError):
            cross_validate(0, seed=1)


def _family_draws(family: str, n: int, seed: int) -> list[HParams]:
    """n exponent quadruples on one decision boundary: A = 0 (mu = alpha +
    beta - lambda), C = 0 (lambda = max(alpha, beta)), E = 0 (mu =
    min(alpha, beta)) or ratio = 1 (mu = lambda - (alpha - beta))."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b, l, m = rng.uniform(-5.0, 5.0, size=4)
        if family == "A0":
            m = a + b - l
        elif family == "C0":
            l = max(a, b)
        elif family == "E0":
            m = min(a, b)
        elif family == "ratio1":
            m = l - (a - b)
        if min(abs(a - b), abs(l - m)) < 0.05:
            continue
        try:
            out.append(HParams(a, b, l, m))
        except ParameterError:
            continue
    return out


@pytest.mark.parametrize("family", ["A0", "C0", "E0", "ratio1"])
def test_boundary_families_clean(family):
    # rounding puts these draws on either side of the boundary, so the
    # classifier must flag them through its zero band rather than guess
    grid = GridSpec()
    draws = _family_draws(family, 300, seed=5)
    bad = [p for p in draws if _check_one(p, grid)[0] == "contradiction"]
    assert bad == [], f"{len(bad)}/300 contradictions, first {bad[0].as_tuple()}"


# ---------------------------------------------------------------------------
# fused scans against scans of one interval alone

_SCAN_GRIDS = {
    "default": GridSpec(),
    "retry": _RETRY_GRID,
    "custom37": GridSpec(t_min=0.02, t_max=3.0, points_per_side=37),
}


def _reference_points(grid: GridSpec, interval: Interval) -> np.ndarray:
    pos = np.geomspace(grid.t_min, grid.t_max, grid.points_per_side)
    neg = -pos[::-1]
    if interval is Interval.POSITIVE_HALF_LINE:
        return pos
    if interval is Interval.NEGATIVE_HALF_LINE:
        return neg
    return np.concatenate([neg, pos])


def _reference_monotonicity(p: HParams, interval: Interval, grid: GridSpec):
    """One kernel call per half line, on that interval's points only."""
    a, b, l, m = p.as_tuple()
    sgn = 1.0 if (a - b) * (l - m) > 0 else -1.0
    if interval is Interval.WHOLE_LINE:
        neg = _reference_points(grid, Interval.NEGATIVE_HALF_LINE)
        pos = _reference_points(grid, Interval.POSITIVE_HALF_LINE)
        origin = sgn * math.log(abs((a - b) / (l - m)))
        vals = np.concatenate([
            sgn * kernels.log_abs_h(a, b, l, m, neg), [origin],
            sgn * kernels.log_abs_h(a, b, l, m, pos),
        ])
        knots = np.concatenate([neg, [0.0], pos])
    else:
        knots = _reference_points(grid, interval)
        vals = sgn * kernels.log_abs_h(a, b, l, m, knots)
    diffs = np.diff(vals)
    return _aggregate(0.5 * (knots[:-1] + knots[1:]), diffs, np.full(diffs.shape, MONO_TOL))


def _reference_klog(p: HParams, interval: Interval, k: int, grid: GridSpec):
    ts = _reference_points(grid, interval)
    steps = DEFAULT_STEPS[k] * np.maximum(1.0, np.abs(ts))
    keep = np.abs(ts) > 10.0 * steps
    est, err = numeric_log_derivative(p, ts[keep], k, steps[keep])
    return _aggregate(ts[keep], est, SIGN_MARGIN + err)


def _scan_draws() -> list[HParams]:
    draws = random_hparams(np.random.default_rng(11), 50)
    for family in ("A0", "C0", "E0", "ratio1"):
        draws += _family_draws(family, 3, seed=6)
    return draws


@pytest.mark.parametrize("grid_name", sorted(_SCAN_GRIDS))
def test_fused_scans_match_single_interval_scans(grid_name):
    grid = _SCAN_GRIDS[grid_name]
    for p in _scan_draws():
        mono = _monotonicity_scan(p, grid)
        for interval in Interval:
            want = _reference_monotonicity(p, interval, grid)
            assert mono[interval] == want, (p, interval)
            assert grid_monotonicity_check(p, interval, grid) == want, (p, interval)
        for k in (2, 3):
            klog = _klog_scan(p, k, grid, SIGN_MARGIN, tuple(Interval))
            for interval in Interval:
                want = _reference_klog(p, interval, k, grid)
                assert klog[interval] == want, (p, interval, k)
                assert grid_klog_sign_check(p, interval, k, grid) == want, (p, interval, k)
