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
from expratio import _kernels_py
from expratio.cli import main as cli_main
from expratio.oracle import (
    _RETRY_GRID,
    SIGN_MARGIN,
    _check_one,
    _scan,
    _verdicts,
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

    def test_negative_always_scanned(self):
        # no switch for t < 0: every grid covers both half lines
        with pytest.raises(TypeError):
            GridSpec(include_negative=False)
        g = GridSpec(t_min=1e-2, t_max=1.0, points_per_side=10)
        whole = g.points(Interval.WHOLE_LINE)
        assert np.array_equal(whole, np.concatenate([g.side(False), g.side(True)]))
        # H = 1/(1 + e^t) falls everywhere: every probe t < 0 is a witness,
        # the 6 decades 1e-8..1e-3 below t_min included
        v = grid_monotonicity_check(HParams(1, 0, 2, 0), Interval.NEGATIVE_HALF_LINE, g)
        assert v.direction == "falls" and v.fall_count == 10 + 6

    @pytest.mark.parametrize("t_min, decades", [(1e-3, 5), (1e-5, 3), (0.02, 7), (1e-8, 0)])
    def test_probes(self, t_min, decades):
        g = GridSpec(t_min=t_min, t_max=10.0, points_per_side=12)
        ts, first, higher = g._probes
        pos = ts[first[Interval.POSITIVE_HALF_LINE]]
        assert np.array_equal(pos[:decades], 10.0 ** np.arange(-8, -8 + decades))
        assert np.array_equal(pos[decades:], g.side(True))
        assert np.array_equal(ts[first[Interval.NEGATIVE_HALF_LINE]], -pos[::-1])
        assert np.array_equal(ts[first[Interval.WHOLE_LINE]],
                              np.concatenate([-pos[::-1], [0.0], pos]))
        for interval in Interval:
            assert np.array_equal(ts[higher[interval]], g.points(interval))
        assert g._probes[0] is ts and not ts.flags.writeable

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


def _reference_points(grid: GridSpec, interval: Interval, k: int) -> np.ndarray:
    """The grid's probes on one interval.  Order 1 adds a t per decade from
    1e-8 up to below t_min on each side, and t = 0 on the whole line."""
    pos = np.geomspace(grid.t_min, grid.t_max, grid.points_per_side)
    if k == 1:
        below = [j for j in range(-8, 0) if j < math.log10(grid.t_min)]
        pos = np.concatenate([10.0 ** np.array(below, dtype=float), pos])
    neg = -pos[::-1]
    if interval is Interval.POSITIVE_HALF_LINE:
        return pos
    if interval is Interval.NEGATIVE_HALF_LINE:
        return neg
    return np.concatenate([neg, [0.0], pos] if k == 1 else [neg, pos])


def _reference_aggregate(ts, probes, cuts):
    """Witness tallies of one probe vector, written out directly."""
    up = probes > cuts
    dn = probes < -cuts
    n_up, n_dn = int(up.sum()), int(dn.sum())
    witnesses = []
    if n_up:
        witnesses.append(float(ts[np.argmax(np.where(up, probes, -np.inf))]))
    if n_dn:
        witnesses.append(float(ts[np.argmin(np.where(dn, probes, np.inf))]))
    if n_up and n_dn:
        direction = "both"
        max_violation = float(min(np.max(probes[up]), -np.min(probes[dn])))
    elif n_up == len(probes):
        direction, max_violation = "rises", 0.0
    elif n_dn == len(probes):
        direction, max_violation = "falls", 0.0
    else:
        direction, max_violation = "flat", 0.0
    return (direction, n_up, n_dn, max_violation, tuple(witnesses))


def _reference_scan(p: HParams, interval: Interval, k: int, grid: GridSpec):
    """One kernel call on that interval's probes only; order 1 signed by H."""
    a, b, l, m = p.as_tuple()
    ts = _reference_points(grid, interval, k)
    value, bound = _kernels_py.log_deriv_h(a, b, l, m, ts, k)
    if k == 1:
        value = value * (1.0 if (a - b) * (l - m) > 0 else -1.0)
    return _reference_aggregate(ts, value, SIGN_MARGIN + bound)


def _as_tuple(v):
    return (v.direction, v.rise_count, v.fall_count, v.max_violation, v.witness_points)


def _scan_draws() -> list[HParams]:
    draws = random_hparams(np.random.default_rng(11), 50)
    for family in ("A0", "C0", "E0", "ratio1"):
        draws += _family_draws(family, 3, seed=6)
    return draws


@pytest.mark.parametrize("grid_name", sorted(_SCAN_GRIDS))
def test_fused_scans_match_single_interval_scans(grid_name):
    grid = _SCAN_GRIDS[grid_name]
    everything = {k: tuple(Interval) for k in (1, 2, 3)}
    for p in _scan_draws():
        fused = _scan(p, grid, everything)
        for k in (1, 2, 3):
            for interval in Interval:
                want = _reference_scan(p, interval, k, grid)
                assert _as_tuple(fused[k][interval]) == want, (p, interval, k)
                # a pass for fewer orders and intervals reads the same values
                assert _scan(p, grid, {k: (interval,)})[k][interval] == fused[k][interval]
                if k == 1:
                    public = grid_monotonicity_check(p, interval, grid)
                else:
                    public = grid_klog_sign_check(p, interval, k, grid)
                assert public == fused[k][interval], (p, interval, k)


def test_verdicts_match_reference(rng):
    ts = np.linspace(-1.0, 1.0, 41)
    cuts = np.full(ts.size, SIGN_MARGIN)
    parts = {"all": slice(None), "left": slice(0, 20), "picked": np.r_[3:9, 30:41]}
    for _ in range(200):
        probes = rng.normal(scale=1e-8, size=ts.size) + rng.choice([-3e-8, 0.0, 3e-8])
        got = _verdicts(ts, probes, cuts, parts)
        for key, s in parts.items():
            assert _as_tuple(got[key]) == _reference_aggregate(ts[s], probes[s], cuts[s])


# ---------------------------------------------------------------------------
# a turning point below the default grid (ROADMAP Direction B, seed 2)

_SEED2_DRAW = HParams(2.8326828332840206, -3.461759854109924,
                      -0.049147016002110355, -0.5798318411724512)


def test_seed2_turning_point_seen():
    # A = -6.2e-4: H falls on (0, ~1.4e-5) and rises beyond.  The default
    # grid starts at 1e-3; the decade probes below it see the fall.
    for p in (_SEED2_DRAW, HParams(2.8327, -3.4618, -0.0491, -0.5798)):
        assert _check_one(p, GridSpec())[0] != "contradiction", p.as_tuple()
    v = grid_monotonicity_check(_SEED2_DRAW, Interval.POSITIVE_HALF_LINE)
    assert v.direction == "both"
    assert v.witness_points[1] < 1e-4 < v.witness_points[0]


def test_verify_seed2_clean(capsys):
    assert cli_main(["verify", "--draws", "400", "--seed", "2"]) == 0
    assert "contradictions=0" in capsys.readouterr().out
