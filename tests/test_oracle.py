import dataclasses
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from expratio import (
    GridSpec,
    HParams,
    Interval,
    cross_validate,
    eval_H_grid,
    four_log_sign_change_search,
    grid_klog_sign_check,
    grid_monotonicity_check,
    log_deriv_H,
    numeric_log_derivative,
)
from expratio import _kernels_py, oracle
from expratio.classify import ConvexityKind, Direction, ThirdOrderKind, classify_H
from expratio.cli import main as cli_main
from expratio.params import ParameterError
from expratio.oracle import (
    DEFAULT_STEPS,
    SIGN_MARGIN,
    _CHUNK,
    _check_chunk,
    _check_one,
    _draw_params,
    _probes,
    _scan,
    _verdict,
)

from conftest import (
    NEAR_EPS,
    family_draws,
    mp_log_deriv_H,
    near_boundary_draws,
    random_hparams,
    same_bits,
)

E = math.e


# the probes on t > 0: one per decade from 1e-8 to 1e-4, then the window
_HALF = np.concatenate([10.0 ** np.arange(-8, -3), np.geomspace(1e-3, 1e3, 200)])


class TestGridSpec:
    def test_sides(self):
        g = GridSpec()
        pos = g.points(Interval.POSITIVE_HALF_LINE)
        neg = g.points(Interval.NEGATIVE_HALF_LINE)
        assert np.array_equal(pos, _HALF)
        assert pos[0] == 1e-8 and pos[-1] == pytest.approx(1e3)
        assert np.all(np.diff(pos) > 0) and np.all(np.diff(neg) > 0)
        assert np.array_equal(neg, -pos[::-1])

    def test_negative_always_scanned(self):
        # no switch for t < 0, and no other knob: the probes are fixed
        with pytest.raises(TypeError):
            GridSpec(include_negative=False)
        with pytest.raises(TypeError):
            GridSpec(t_max=10.0)
        g = GridSpec()
        whole = g.points(Interval.WHOLE_LINE)
        assert np.array_equal(whole, np.concatenate([-_HALF[::-1], [0.0], _HALF]))
        # H = 1/(1 + e^t) falls everywhere; (ln H)' = -1/(1 + e^{-t}) decays
        # below the noise cut far out on t < 0, and those probes oppose
        # nothing: the verdict stays "falls"
        v = grid_monotonicity_check(HParams(1, 0, 2, 0), Interval.NEGATIVE_HALF_LINE)
        assert v.direction == "falls" and v.rise_count == 0
        assert 5 < v.fall_count < 5 + 200

    def test_probes(self):
        # one selection: every scan order and GridSpec.points read the same
        # probes on an interval
        ts, parts = GridSpec._ts, GridSpec._parts
        assert ts.size == 411 and not ts.flags.writeable
        # the scans evaluate the probes' distinct magnitudes, 0 first
        mags = GridSpec._mags
        assert np.array_equal(mags, np.unique(np.abs(ts))) and mags[0] == 0.0
        assert mags.size == 206 and not mags.flags.writeable
        for interval in Interval:
            assert np.array_equal(ts[parts[interval]], _reference_points(interval))
            assert np.array_equal(ts[parts[interval]], GridSpec().points(interval))

    @pytest.mark.parametrize("interval", list(Interval))
    def test_points_built_once_read_only(self, interval):
        pts = GridSpec().points(interval)
        assert GridSpec().points(interval) is pts
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

    @pytest.mark.parametrize("t, step", [
        (math.nan, None), (math.inf, None), (-math.inf, None), ([1.0, math.nan], None),
        (1.0, math.nan), (1.0, math.inf),
    ])
    def test_rejects_non_finite(self, t, step):
        with pytest.raises(ParameterError):
            numeric_log_derivative(HParams(1, 0, 2, 0), t, 2, step)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_no_overflow_warning_at_top_of_range(self, order):
        # d t, h^4 and the powers of t overflow near 1e308; the kernel reads
        # the infs as their limits without warning
        p = HParams(1.3, -0.4, 2.1, 0.2)
        ts = np.array([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, err = numeric_log_derivative(p, ts, order)
            fd = _kernels_py.fd_log_deriv(*p.as_tuple(), ts, order, 1e300)
        assert np.all(np.isfinite(est)) and np.all(np.isfinite(err))
        assert np.all(np.isfinite(fd[0]))
        if order == 1:
            # the slope max(alpha, beta) - max(lam, mu) on t > 0
            assert est[0] == -0.8


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


# alpha - beta, lam - mu and beta - mu overflow the double range
_WIDE = HParams(1e308, -1e308, 1.5e308, -1.5e308)


class TestOverflowingDifferences:
    @pytest.mark.parametrize("interval, want, direction", [
        (Interval.POSITIVE_HALF_LINE, "falls", Direction.DECREASING),
        (Interval.NEGATIVE_HALF_LINE, "rises", Direction.INCREASING),
        (Interval.WHOLE_LINE, "both", Direction.NON_MONOTONIC),
    ])
    def test_scan_reads_classifier_direction(self, interval, want, direction):
        # the kernel evaluates the set at p/p2 and p2 t and scales back, with
        # no overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid_monotonicity_check(_WIDE, interval).direction == want
        assert classify_H(_WIDE).monotonicity[interval].direction is direction

    def test_overflowing_sums_rescaled(self):
        # no difference overflows, but alpha + beta, lam + mu and the
        # magnitude sum of the order-1 bound do
        p = HParams(1e308, 0.9e308, 0.95e308, 0.85e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for interval in Interval:
                assert grid_monotonicity_check(p, interval).direction == "rises", interval
                assert classify_H(p).monotonicity[interval].direction is Direction.INCREASING

    def test_order1_scale_covariant(self):
        # (ln|H_p|)'(t) = p2 (ln|H_q|)'(p2 t) with q = p/p2, both scalings
        # exact: mpmath differentiates H_q at p2 t
        e = math.frexp(1.5e308)[1] - 1
        q = [math.ldexp(x, -e) for x in _WIDE.as_tuple()]
        ts = np.geomspace(1e-310, 1e-300, 11)
        value, bound = _kernels_py.log_deriv_h(*_WIDE.as_tuple(), ts, 1)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(bound))
        for t, v, bd in zip(ts, value, bound):
            want = math.ldexp(float(mp_log_deriv_H(*q, math.ldexp(t, e), 1)), e)
            assert abs(v - want) <= bd, (t, v, want, bd)
            assert abs(v - want) <= 1e-14 * abs(want), (t, v, want)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [None, 1e-3], ids=["default-step", "step-1e-3"])
    def test_finite_differences(self, order, step):
        # the FD kernel evaluates the set at p/2 and 2t with the step doubled
        # and scales back by 2^order, so every estimate is finite and agrees
        # with the exact log-derivative within its own error estimate
        ts = np.array([1.0, -2.0, 0.5, -30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, err = numeric_log_derivative(_WIDE, ts, order, step)
            want, _ = _kernels_py.log_deriv_h(*_WIDE.as_tuple(), ts, order)
        assert np.all(np.isfinite(est)) and np.all(np.isfinite(err)), (est, err)
        assert np.all(np.abs(est - want) <= err + 1e-12 * np.abs(want)), (est, err, want)

    def test_chunk_rows_keep_their_bits(self):
        # in a chunk, a row whose differences overflow is its one-row call,
        # and every other row keeps the bits of a chunk without it
        rows = [(1.3, -0.4, 2.1, 0.2), _WIDE.as_tuple(), (4.1, -2.2, 0.3, 1.9)]
        ts = GridSpec._ts
        chunk = _kernels_py.log_derivs_h(*np.array(rows).T, ts, (1, 2, 3))
        rest = _kernels_py.log_derivs_h(*np.array(rows[::2]).T, ts, (1, 2, 3))
        alone = _kernels_py.log_derivs_h(*_WIDE.as_tuple(), ts, (1, 2, 3))
        for k in (1, 2, 3):
            for got, want_rest, want_alone in zip(chunk[k], rest[k], alone[k]):
                assert same_bits(got[::2], want_rest), k
                assert same_bits(got[1], want_alone), k


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

    def test_log_affine_negative_ratio_rejected(self):
        # H = -e^{-t}: ratio -1
        with pytest.raises(ValueError):
            four_log_sign_change_search(HParams(2, 0, 1, 3), Interval.POSITIVE_HALF_LINE)

    def test_whole_line_rejected(self):
        with pytest.raises(ValueError):
            four_log_sign_change_search(HParams(1, 0, 2, 0), Interval.WHOLE_LINE)

    def test_underflowed_ratio_searched(self):
        # alpha - beta, divided by the scale's power of two (2^996),
        # underflows and the ratio reads 0.0: log-concave, not log-affine
        p = HParams(1e-300, 0, 1e300, 0)
        assert classify_H(p).convexity.kind is ConvexityKind.LOG_CONCAVE
        for interval in (Interval.POSITIVE_HALF_LINE, Interval.NEGATIVE_HALF_LINE):
            assert four_log_sign_change_search(p, interval) is None


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


@pytest.mark.parametrize("family", ["A0", "C0", "E0", "ratio1", "ratio-1"])
def test_boundary_families_clean(family):
    # rounding puts these draws on either side of the boundary, so the
    # classifier must flag them through its zero band rather than guess
    draws = family_draws(family, 300, seed=5)
    bad = [p for p in draws if _check_one(p)[0] == "contradiction"]
    assert bad == [], f"{len(bad)}/300 contradictions, first {bad[0].as_tuple()}"


# ---------------------------------------------------------------------------
# one claim rule: wrong classifier reports are caught by every check family

# decreasing on (0, inf), non-monotonic on (-inf, 0) and on the whole line,
# log-concave, 3-log-convex on (0, inf) and 3-log-concave on (-inf, 0); no
# invariant in the zero band
_DRAW = HParams(1, -0.5, 2, -1)
_POS, _WHOLE = Interval.POSITIVE_HALF_LINE, Interval.WHOLE_LINE
_WRONG_THIRD = ThirdOrderKind.CONCAVE_POS_CONVEX_NEG


def _report_with(params, monotonicity=None, convexity=None, third=None, **changes):
    """classify_H's report for params with the given verdicts swapped in."""
    report = classify_H(params)
    if monotonicity:
        mono = dict(report.monotonicity)
        for interval, direction in monotonicity.items():
            mono[interval] = dataclasses.replace(mono[interval], direction=direction)
        changes["monotonicity"] = mono
    if convexity:
        changes["convexity"] = dataclasses.replace(report.convexity, kind=convexity)
    if third:
        changes["third_order"] = dataclasses.replace(report.third_order, kind=third)
    return dataclasses.replace(report, **changes)


def _flat_pos_third_order(probes):
    # (ln|H|)''' is odd in t, so a wrong third-order kind is opposed on
    # both half lines and (0, inf) is checked first; with its order-3
    # values at +s, s > 0, zeroed and the values at -s kept, the (-inf, 0)
    # check is the one that fires
    def patched(draws, orders):
        out = probes(draws, orders)
        if 3 in out:
            plus, minus, cuts = out[3]
            plus = plus.copy()
            plus[:, 1:] = 0.0
            out[3] = (plus, minus, cuts)
        return out
    return patched


@pytest.mark.parametrize("wrong, flat_pos, want", [
    (dict(monotonicity={_POS: Direction.INCREASING}), False,
     ("monotonicity (0,inf)", "increasing", "falls")),
    (dict(monotonicity={_POS: Direction.NON_MONOTONIC}), False,
     ("monotonicity (0,inf)", "non-monotonic", "falls")),
    (dict(monotonicity={_WHOLE: Direction.DECREASING}), False,
     ("monotonicity (-inf,inf)", "decreasing", "both")),
    (dict(convexity=ConvexityKind.LOG_CONVEX), False,
     ("log-convexity", "log-convex", "falls")),
    (dict(third=_WRONG_THIRD), False,
     ("3-log (0,inf)", _WRONG_THIRD.value, "rises")),
    (dict(third=_WRONG_THIRD), True,
     ("3-log (-inf,0)", _WRONG_THIRD.value, "falls")),
])
def test_wrong_report_contradicted(monkeypatch, wrong, flat_pos, want):
    assert _check_one(_DRAW) == ("agree", None)
    monkeypatch.setattr(oracle, "classify_H", lambda p: _report_with(p, **wrong))
    if flat_pos:
        monkeypatch.setattr(oracle, "_probes", _flat_pos_third_order(oracle._probes))
    outcome, detail = _check_one(_DRAW)
    assert outcome == "contradiction"
    assert (detail["check"], detail["claimed"], detail["oracle"]) == want
    assert detail["params"] == _DRAW.as_tuple()


@pytest.mark.parametrize("wrong, want", [
    ({}, "agree"),
    (dict(convexity=ConvexityKind.LOG_CONVEX), "skip"),
    (dict(third=ThirdOrderKind.CONVEX_POS_CONCAVE_NEG), "skip"),
])
def test_unconfirmed_higher_order_claim_skips(monkeypatch, wrong, want):
    # H = e^t is log-affine: its order-2 and order-3 scans have no confident
    # probe, so a log-convex or 3-log claim there is neither confirmed nor
    # opposed; it makes the draw a boundary skip, as a flat monotonicity
    # scan does.  The ratio's zero-band hit is taken out of the report.
    monkeypatch.setattr(oracle, "classify_H",
                        lambda p: _report_with(p, zero_band_hits=(), **wrong))
    assert _check_one(HParams(3, 1, 2, 0)) == (want, None)


# the sign each verdict claims, written out apart from the oracle's table
_CLAIM_SIGN = {
    Direction.INCREASING: 1,
    Direction.DECREASING: -1,
    Direction.NON_MONOTONIC: 0,
    ConvexityKind.LOG_CONVEX: 1,
    ConvexityKind.LOG_CONCAVE: -1,
    ThirdOrderKind.CONVEX_POS_CONCAVE_NEG: 1,
    ThirdOrderKind.CONCAVE_POS_CONVEX_NEG: -1,
}


def _reference_judge(params, report):
    """The claim rule, claim by claim, on the public one-draw scans: the
    first claim opposed by a confident probe (or, for a non-monotonic
    claim, lacking witnesses of both signs) is the contradiction; a claim
    with no confirming probe, or a zero-band hit, makes a skip."""
    claims = [(f"monotonicity {iv.value}", report.monotonicity[iv].direction, 1,
               grid_monotonicity_check(params, iv)) for iv in Interval]
    convexity, third = report.convexity.kind, report.third_order.kind
    if convexity is not ConvexityKind.LOG_AFFINE:
        claims.append(("log-convexity", convexity, 1, grid_klog_sign_check(params, _WHOLE, 2)))
    if third is not ThirdOrderKind.LOG_AFFINE:
        claims.append(("3-log (0,inf)", third, 1, grid_klog_sign_check(params, _POS, 3)))
        claims.append(("3-log (-inf,0)", third, -1,
                       grid_klog_sign_check(params, Interval.NEGATIVE_HALF_LINE, 3)))
    skip = bool(report.zero_band_hits)
    for check, claimed, flip, scan in claims:
        sign = flip * _CLAIM_SIGN[claimed]
        if sign > 0:
            confirms, opposes = scan.rises, scan.falls
        elif sign < 0:
            confirms, opposes = scan.falls, scan.rises
        else:
            confirms, opposes = scan.rises, not (scan.rises and scan.falls)
        if opposes:
            return "contradiction", {
                "params": params.as_tuple(),
                "check": check,
                "claimed": claimed.value,
                "oracle": scan.direction,
                "witnesses": scan.witness_points,
            }
        skip = skip or not confirms
    return ("skip" if skip else "agree"), None


@pytest.mark.parametrize("wrong", [
    {},
    dict(monotonicity={_POS: Direction.INCREASING}),
    dict(monotonicity={_POS: Direction.NON_MONOTONIC}),
    dict(monotonicity={_WHOLE: Direction.DECREASING}),
    dict(convexity=ConvexityKind.LOG_CONVEX),
    dict(third=_WRONG_THIRD),
    dict(convexity=ConvexityKind.LOG_CONVEX, zero_band_hits=()),
    dict(convexity=ConvexityKind.LOG_CONCAVE, zero_band_hits=()),
])
def test_mask_judge_matches_claim_rule(monkeypatch, wrong):
    # generic draws and the five boundary families, in chunks of _CHUNK:
    # the masks give each draw the outcome and detail of the rule above.
    # Without the zero-band hits, a log-convex or log-concave claim on a
    # log-affine H (ratio = +-1) is skipped only for having no confirming
    # probe.
    draws = random_hparams(np.random.default_rng(12), 24)
    for family in ("A0", "C0", "E0", "ratio1", "ratio-1"):
        draws += family_draws(family, 12, seed=7)
    monkeypatch.setattr(oracle, "classify_H", lambda p: _report_with(p, **wrong))
    want = [_reference_judge(p, oracle.classify_H(p)) for p in draws]
    got = []
    for i in range(0, len(draws), _CHUNK):
        got += _check_chunk(draws[i:i + _CHUNK])
    assert got == want
    kinds = {kind for kind, _ in want}
    assert "contradiction" in kinds if wrong else kinds == {"agree", "skip"}


# ---------------------------------------------------------------------------
# fused scans against scans of one interval alone

def _reference_points(interval: Interval) -> np.ndarray:
    """The probes on one interval: a t per decade from 1e-8 to 1e-4 and the
    window on each side, and t = 0 on the whole line."""
    if interval is Interval.POSITIVE_HALF_LINE:
        return _HALF
    if interval is Interval.NEGATIVE_HALF_LINE:
        return -_HALF[::-1]
    return np.concatenate([-_HALF[::-1], [0.0], _HALF])


def _reference_aggregate(ts, probes, cuts):
    """Witness tallies of one probe vector, written out directly; the
    direction is that of the unopposed witnesses."""
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
    elif n_up:
        direction, max_violation = "rises", 0.0
    elif n_dn:
        direction, max_violation = "falls", 0.0
    else:
        direction, max_violation = "flat", 0.0
    return (direction, n_up, n_dn, max_violation, tuple(witnesses))


def _reference_scan(p: HParams, interval: Interval, k: int):
    """One kernel call on that interval's probes only; order 1 signed by H."""
    a, b, l, m = p.as_tuple()
    ts = _reference_points(interval)
    value, bound = _kernels_py.log_deriv_h(a, b, l, m, ts, k)
    if k == 1:
        value = value * (1.0 if (a - b) * (l - m) > 0 else -1.0)
    return _reference_aggregate(ts, value, SIGN_MARGIN + bound)


def _as_tuple(v):
    return (v.direction, v.rise_count, v.fall_count, v.max_violation, v.witness_points)


def _scan_draws() -> list[HParams]:
    draws = random_hparams(np.random.default_rng(11), 50)
    for family in ("A0", "C0", "E0", "ratio1"):
        draws += family_draws(family, 3, seed=6)
    return draws


def test_fused_scans_match_single_interval_scans():
    draws = _scan_draws()
    ts, parts = GridSpec._ts, GridSpec._parts
    # each probe's column among the distinct magnitudes, read at -|t| for
    # t < 0 and at +|t| otherwise
    col = np.searchsorted(GridSpec._mags, np.abs(ts))
    assert np.array_equal(GridSpec._mags[col], np.abs(ts))
    # one pass over all 62 draws and every order
    fused = _probes(draws, (1, 2, 3))
    for i, p in enumerate(draws):
        for k in (1, 2, 3):
            plus, minus, cuts = fused[k]
            for interval in Interval:
                s = parts[interval]
                want = _reference_scan(p, interval, k)
                c = col[s]
                probes = np.where(ts[s] < 0.0, minus[i, c], plus[i, c])
                fused_row = _verdict(ts[s], probes, cuts[i, c])
                assert _as_tuple(fused_row) == want, (p, interval, k)
                # a pass for one draw and order reads the same values
                one = _scan(p, k, interval)
                assert _as_tuple(one) == want, (p, interval, k)
                if k == 1:
                    public = grid_monotonicity_check(p, interval)
                else:
                    public = grid_klog_sign_check(p, interval, k)
                assert public == one, (p, interval, k)


def test_verdicts_match_reference(rng):
    # rows with their own offsets and cuts; on every other pass the probes
    # are whole multiples of 1e-8, so the strongest rise or fall is often
    # tied and the first of the tied probes must be the witness
    ts = np.linspace(-1.0, 1.0, 41)
    parts = (slice(None), slice(0, 20), np.r_[3:9, 30:41])
    shape = (5, ts.size)
    for i in range(200):
        probes = rng.normal(scale=1e-8, size=shape) + rng.choice([-3e-8, 0.0, 3e-8], size=(5, 1))
        if i % 2:
            probes = np.round(probes / 1e-8) * 1e-8
        cuts = SIGN_MARGIN * rng.uniform(0.5, 1.5, size=shape)
        for s in parts:
            for row in range(5):
                verdict = _verdict(ts[s], probes[row, s], cuts[row, s])
                want = _reference_aggregate(ts[s], probes[row, s], cuts[row, s])
                assert _as_tuple(verdict) == want, (s, row)


# ---------------------------------------------------------------------------
# a turning point below the window (ROADMAP Direction B, seed 2)

_SEED2_DRAW = HParams(2.8326828332840206, -3.461759854109924,
                      -0.049147016002110355, -0.5798318411724512)


def test_seed2_turning_point_seen():
    # A = -6.2e-4: H falls on (0, ~1.4e-5) and rises beyond.  The window
    # starts at 1e-3; the decade probes below it see the fall.
    for p in (_SEED2_DRAW, HParams(2.8327, -3.4618, -0.0491, -0.5798)):
        assert _check_one(p)[0] != "contradiction", p.as_tuple()
    v = grid_monotonicity_check(_SEED2_DRAW, Interval.POSITIVE_HALF_LINE)
    assert v.direction == "both"
    assert v.witness_points[1] < 1e-4 < v.witness_points[0]


def test_verify_seed2_clean(capsys):
    assert cli_main(["verify", "--draws", "400", "--seed", "2"]) == 0
    assert "contradictions=0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# turning points and crossings past t = 10, the end of the former window

_SEED216_DRAW = HParams(-4.363405798048578, 2.924198127285969,
                        2.8648272921954803, 2.788579499016702)


def test_seed216_turning_point_in_window():
    # verify --seed 216, draw 597: claimed non-monotonic on (0, inf) and on
    # the whole line; (ln|H|)' turns at t ~ 11, inside [1e-3, 1e3]
    for interval in (Interval.POSITIVE_HALF_LINE, Interval.WHOLE_LINE):
        v = grid_monotonicity_check(_SEED216_DRAW, interval)
        assert v.direction == "both", (interval, v)
        assert min(v.witness_points) < 11.0 < max(v.witness_points)
    assert _check_one(_SEED216_DRAW) == ("agree", None)


def test_verify_seed216_clean(capsys):
    assert cli_main(["verify", "--draws", "1000", "--seed", "216"]) == 0
    assert "contradictions=0" in capsys.readouterr().out


def test_four_log_crossing_past_ten():
    p = HParams(0.09684671671694733, 0.1756463275143041,
                -1.0535945806204037, -0.9667066109285187)
    t_star = four_log_sign_change_search(p, Interval.POSITIVE_HALF_LINE)
    assert t_star == pytest.approx(25.83, abs=0.01)
    lo = log_deriv_H(p, t_star * (1 - 1e-4), 4)
    hi = log_deriv_H(p, t_star * (1 + 1e-4), 4)
    assert lo * hi < 0


# ---------------------------------------------------------------------------
# chunked checks: cross_validate scans _CHUNK draws per pass, and a draw's
# values and verdicts do not depend on the draws that share its pass


def _one_draw_loop(n: int, seed: int) -> oracle.CrossValidationReport:
    """cross_validate written as a loop of _check_one over the same draws."""
    rng = np.random.default_rng(seed)
    report = oracle.CrossValidationReport()
    for _ in range(n):
        kind, detail = _check_one(*_draw_params(rng, 1))
        report.draws += 1
        if kind == "agree":
            report.agreements += 1
        elif kind == "skip":
            report.boundary_skips += 1
        else:
            report.contradictions.append(detail)
    return report


@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
def test_cross_validate_matches_one_draw_loop(monkeypatch, n):
    assert _CHUNK == 32
    assert cross_validate(n, seed=n) == _one_draw_loop(n, n)
    # a wrong claim on (0, inf) for every draw: the contradictions, in draw
    # order, carry each draw's params and witnesses
    monkeypatch.setattr(oracle, "classify_H",
                        lambda p: _report_with(p, monotonicity={_POS: Direction.INCREASING}))
    wrong = cross_validate(n, seed=n)
    assert wrong == _one_draw_loop(n, n)
    assert n == 1 or 0 < len(wrong.contradictions) < n


def test_chunk_rows_match_draws_alone():
    # 20 generic draws and 12 on the A0, C0, E0 and ratio1 boundaries
    draws = _scan_draws()[-_CHUNK:]
    ts, orders = GridSpec._ts, (1, 2, 3)
    chunk = _kernels_py.log_derivs_h(*np.array([p.as_tuple() for p in draws]).T, ts, orders)
    probes = _probes(draws, orders)
    assert probes[1][0].shape == (_CHUNK, GridSpec._mags.size)
    for i, p in enumerate(draws):
        alone = _kernels_py.log_derivs_h(*p.as_tuple(), ts, orders)
        one = _probes([p], orders)
        for k in orders:
            assert same_bits(chunk[k][0][i], alone[k][0]), (p, k)
            assert same_bits(chunk[k][1][i], alone[k][1]), (p, k)
            # the values at +s and at -s and the cuts
            for got, want in zip(probes[k], one[k]):
                assert same_bits(got[i], want[0]), (p, k)
    assert _check_chunk(draws) == [_check_one(p) for p in draws]


def _reference_masks(draws):
    """The (draws x claims) rise and fall masks judged on all 411 probes:
    log_derivs_h on GridSpec's t, order 1 signed by sign(H), cut at bound +
    SIGN_MARGIN, and each claim read on its interval's slice."""
    a, b, l, m = np.array([p.as_tuple() for p in draws]).T
    derivs = _kernels_py.log_derivs_h(a, b, l, m, GridSpec._ts, (1, 2, 3))
    sign = np.where((a > b) == (l > m), 1.0, -1.0)[:, None]
    rise, fall = [], []
    for k, interval, _ in oracle._CHECKS:
        value, bound = derivs[k]
        if k == 1:
            value = value * sign
        cuts = bound + SIGN_MARGIN
        s = GridSpec._parts[interval]
        rise.append((value[:, s] > cuts[:, s]).any(axis=1))
        fall.append((value[:, s] < -cuts[:, s]).any(axis=1))
    return np.column_stack(rise), np.column_stack(fall)


def _reference_outcome(p, rise, fall):
    """The claim rule on one draw's mask rows; a contradiction's detail
    comes from a kernel call on that interval's probes alone."""
    report = classify_H(p)
    third = report.third_order.kind
    claims = [report.monotonicity[iv].direction for iv in Interval] + [
        report.convexity.kind, third, third]
    skip = bool(report.zero_band_hits)
    for j, ((k, interval, check), claimed) in enumerate(zip(oracle._CHECKS, claims)):
        if claimed not in _CLAIM_SIGN:
            continue
        sign = _CLAIM_SIGN[claimed] * (-1 if check == "3-log (-inf,0)" else 1)
        if sign > 0:
            confirms, opposes = rise[j], fall[j]
        elif sign < 0:
            confirms, opposes = fall[j], rise[j]
        else:
            confirms, opposes = rise[j], not (rise[j] and fall[j])
        if opposes:
            direction, *_, witnesses = _reference_scan(p, interval, k)
            return "contradiction", {"params": p.as_tuple(), "check": check,
                                     "claimed": claimed.value, "oracle": direction,
                                     "witnesses": witnesses}
        skip = skip or not confirms
    return ("skip" if skip else "agree"), None


def _mask_draws() -> list[HParams]:
    # the first 64 draws of each pinned verify seed, the exact and near
    # boundary families, draws scaled by 2^+-20 and 2^+-40, and sets whose
    # products or differences overflow
    draws = []
    for seed in (0, 2, 7, 11, 42, 216):
        draws += _draw_params(np.random.default_rng(seed), 64)
    for family in ("A0", "C0", "E0", "ratio1", "ratio-1"):
        draws += family_draws(family, 32, seed=8)
    for i, family in enumerate("ACE"):
        for j, eps in enumerate(NEAR_EPS):
            draws += near_boundary_draws(family, eps, 8, seed=100 * i + j)
    generic = _draw_params(np.random.default_rng(9), 16)
    for e in (20, -20, 40, -40):
        draws += [HParams(*(math.ldexp(x, e) for x in p.as_tuple())) for p in generic]
    return draws + _OVERFLOW_PARAMS


def test_masks_match_411_probe_judge():
    # the judge reads the 206 magnitudes by parity; its masks and outcomes
    # are those of the judge on all 411 probes, without a warning
    draws = _mask_draws()
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(0, len(draws), _CHUNK):
            chunk = draws[i:i + _CHUNK]
            rise, fall = oracle._rise_fall(chunk)
            want_rise, want_fall = _reference_masks(chunk)
            assert np.array_equal(rise, want_rise), i
            assert np.array_equal(fall, want_fall), i
            got = _check_chunk(chunk)
            assert got == [_reference_outcome(p, r, f)
                           for p, r, f in zip(chunk, want_rise, want_fall)], i
            outcomes += got
    # the near-boundary families contradict often, so the details are read
    assert sum(kind == "contradiction" for kind, _ in outcomes) > 10


def _flat_probes(draws, orders):
    """_probes' layout with every value 0 and a distinct cut per probe and
    draw; an even order's minus is its plus, as the kernel returns it."""
    shape = (len(draws), len(GridSpec._mags))
    out = {}
    for k in orders:
        cuts = np.linspace(1e-8, 2e-8, shape[0] * shape[1]).reshape(shape)
        plus = np.zeros(shape)
        out[k] = (plus, plus if k % 2 == 0 else np.zeros(shape), cuts)
    return out


_CHECK_INDEX = {(k, interval): j for j, (k, interval, _) in enumerate(oracle._CHECKS)}


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rise", "fall"])
def test_whole_line_reads_origin_probe(monkeypatch, sign):
    # order 1's s = 0 column is t = 0, a probe of the whole line only: a
    # draw whose one confident probe sits there rises (falls) on the whole
    # line and on neither half line
    def probes(draws, orders):
        out = _flat_probes(draws, orders)
        plus, minus, cuts = out[1]
        plus[:, 0] = minus[:, 0] = sign * 2.0 * cuts[:, 0]
        return out

    monkeypatch.setattr(oracle, "_probes", probes)
    rise, fall = oracle._rise_fall([_DRAW, _DRAW])
    want = np.zeros_like(rise)
    want[:, _CHECK_INDEX[1, Interval.WHOLE_LINE]] = True
    assert np.array_equal(rise if sign > 0 else fall, want)
    assert not (fall if sign > 0 else rise).any()


@pytest.mark.parametrize("past", [False, True], ids=["at-cut", "one-ulp-past"])
def test_probe_at_its_cut_is_no_witness(monkeypatch, past):
    # a witness lies strictly beyond its cut: a probe equal to +cut or -cut
    # neither rises nor falls, and one ulp further it does.  Draw 0 reads
    # +cut at every +s and -cut at every -s, draw 1 the reverse.
    def probes(draws, orders):
        out = _flat_probes(draws, orders)
        for plus, minus, cuts in out.values():
            edge = np.nextafter(cuts, np.inf) if past else cuts
            plus[0], plus[1] = edge[0], -edge[1]
            if minus is not plus:
                minus[0], minus[1] = -edge[0], edge[1]
        return out

    monkeypatch.setattr(oracle, "_probes", probes)
    rise, fall = oracle._rise_fall([_DRAW, _DRAW])
    if not past:
        assert not rise.any() and not fall.any()
        return
    # draw 0: positive on (0, inf) at every order, negative on (-inf, 0) at
    # the odd orders, positive on the whole line at order 2
    pos = np.array([_CHECK_INDEX[c] for c in [(1, Interval.POSITIVE_HALF_LINE),
                                             (1, Interval.WHOLE_LINE),
                                             (2, Interval.WHOLE_LINE),
                                             (3, Interval.POSITIVE_HALF_LINE)]])
    neg = np.array([_CHECK_INDEX[c] for c in [(1, Interval.NEGATIVE_HALF_LINE),
                                             (1, Interval.WHOLE_LINE),
                                             (3, Interval.NEGATIVE_HALF_LINE)]])
    want_up, want_dn = np.zeros_like(rise), np.zeros_like(fall)
    want_up[0, pos] = want_dn[0, neg] = True
    want_dn[1, pos] = want_up[1, neg] = True
    assert np.array_equal(rise, want_up)
    assert np.array_equal(fall, want_dn)


def test_chunk_pass_memory():
    # the output array first, one branch per element and every temporary
    # freed once read keep a 32-draw pass under 1.5 MiB (2.9 MiB when both
    # branches ran on every element); beyond about twice the output array
    # glibc gives the pages back after each pass and faults them in again
    draws = _draw_params(np.random.default_rng(5), _CHUNK)
    _check_chunk(draws)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _check_chunk(draws)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


_BLOCK = _kernels_py._BLOCK
# the overflow cases of the kernels: both differences past the double range
# at large t, a huge difference, a ratio that underflows, a huge common shift
_BLOCK_PARAMS = [HParams(2, 0, 3, 0), HParams(1e200, 0, 1, 0), HParams(1e-300, 0, 1e300, 0),
                 HParams(700, -700, 1, 0), HParams(1.3, -0.4, 2.1, 0.2)]
# sets where a product d t or (beta - mu) t overflows on the grid, so that
# the value kernels patch NaN elements, or where a difference overflows
_OVERFLOW_PARAMS = [HParams(1e308, -1e308, 1.5e308, -1.5e308), HParams(2, 0, 3, 0),
                    HParams(1000.5, 1000, 1001, 1000), HParams(1e308, -1e308, 1, 0)]


# every stencil centre on |t| <= 2 takes the sinh form for both terms
_NEAR_MAJORITY = HParams(0.3, -0.2, 0.25, -0.15)


def _block_kernels():
    # (name, function of (params, t), grid of (rng, shape), parameter sets)
    def fd(k):
        return lambda p, t: _kernels_py.fd_log_deriv(*p.as_tuple(), t, k, 1e-3)

    def nld(k):
        return lambda p, t: numeric_log_derivative(p, t, k)

    def log_grid(t_min):
        return lambda rng, shape: _block_grid(rng, shape, t_min)

    def fd_cases(name, fn, k, reach):
        # the log-uniform grid, the near-majority grid, and stencils that
        # cross v = ln 2 in the log1mexp form
        return [(f"{name}-o{k}", fn(k), log_grid(0.05), _BLOCK_PARAMS),
                (f"{name}-o{k}-near", fn(k), _near_grid, [_NEAR_MAJORITY]),
                (f"{name}-o{k}-ln2", fn(k), _ln2_grid(reach), _ln2_params(reach))]

    values = _BLOCK_PARAMS + _OVERFLOW_PARAMS
    cases = [
        ("log_abs_h", lambda p, t: _kernels_py.log_abs_h(*p.as_tuple(), t), log_grid(0.0), values),
        ("eval_h", lambda p, t: _kernels_py.eval_h(*p.as_tuple(), t), log_grid(0.0), values),
    ]
    for k in (1, 2, 3, 4):
        cases += fd_cases("fd_log_deriv", fd, k, max(_kernels_py._STENCILS[k][0]) * 1e-3)
    for k in (1, 2, 3, 4):
        cases += fd_cases("numeric_log_derivative", nld, k,
                          max(_kernels_py._STENCILS[k][0]) * DEFAULT_STEPS[k])
    return [pytest.param(*case, id=case[0]) for case in cases]


# the block tests' array shapes: one block less one point, one block, one
# block and a point, several blocks, and a 2-D array
_BLOCK_SHAPES = [(_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,), (3 * _BLOCK + 7,), (3, _BLOCK // 2 + 5)]


def _block_grid(rng, shape, t_min):
    # |t| log-uniform from t_min (1e-300 for 0) to 1e308 with either sign,
    # eight points at 1e308 and -1e308 at each block's last point, and
    # t = 0 at every 997th point when t_min is 0
    n = math.prod(shape)
    low = -300.0 if t_min == 0.0 else math.log10(t_min)
    t = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(low, 308.0, n)
    t[rng.integers(0, n, 8)] = 1e308
    t[_BLOCK - 1::_BLOCK] = -1e308
    if t_min == 0.0:
        t[::997] = 0.0
    return t.reshape(shape)


def _near_grid(rng, shape):
    # |t| uniform on [0.05, 2] with either sign
    n = math.prod(shape)
    return (np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(0.05, 2.0, n)).reshape(shape)


def _ln2_params(reach):
    # |alpha - beta| = 10 / reach and |lam - mu| = 7 / reach: just past the
    # reach, d t > 1 at the centre while d (|t| - reach) < ln 2
    return [HParams(10.0 / reach, 0.0, 7.0 / reach, 0.0)]


def _ln2_grid(reach):
    # |t| = reach (1 + u) with either sign, u log-uniform on [1e-6, 1]:
    # about 4 in 5 points lie within 0.07 reach of the reach
    def grid(rng, shape):
        n = math.prod(shape)
        mags = reach * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0, n))
        return (np.where(rng.random(n) < 0.5, -1.0, 1.0) * mags).reshape(shape)
    return grid


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, fn, grid, params", _block_kernels())
def test_values_independent_of_blocks(name, fn, grid, params):
    # every element has the bits of a call on a shorter piece (pieces of
    # 5000 points, so one straddles each block edge) and of a one-element
    # call at each block edge, whatever the array's length or shape
    rng = np.random.default_rng(20)
    for shape in _BLOCK_SHAPES:
        t = grid(rng, shape)
        flat = t.ravel()
        n = flat.size
        edges = sorted({0, n - 1, *(i + j for i in range(_BLOCK, n, _BLOCK) for j in (-1, 0))})
        for p in params:
            whole = fn(p, t)
            whole = [np.ravel(a) for a in (whole if isinstance(whole, tuple) else (whole,))]
            for start in range(0, n, 5000):
                piece = fn(p, flat[start:start + 5000])
                for a, b in zip(whole, piece if isinstance(piece, tuple) else (piece,)):
                    assert same_bits(a[start:start + 5000], b), (name, shape, p, start)
            for i in edges:
                one = fn(p, flat[i:i + 1])
                for a, b in zip(whole, one if isinstance(one, tuple) else (one,)):
                    assert same_bits(a[i:i + 1], b), (name, shape, p, i)


def test_log1mexp_takes_each_elements_form():
    # the finite differences' ln(1 - e^{-v}) runs its v >= ln 2 form on the
    # whole array and patches the elements below ln 2: each element has the
    # bits of its own form, in any mix
    rng = np.random.default_rng(22)
    ln2 = _kernels_py._LN2
    v = np.concatenate([rng.uniform(0.5, ln2, 3000), rng.uniform(ln2, 50.0, 3000),
                        [0.5, np.nextafter(ln2, 0.0), ln2, 710.0, np.inf]])
    rng.shuffle(v)
    want = np.where(v < ln2, np.log(-np.expm1(-v)), np.log1p(-np.exp(-v)))
    assert same_bits(_kernels_py._log1mexp(v.copy()), want)


def test_log_sinhc_keeps_its_horner_bits():
    # the series runs in place in its argument, innermost term divided
    rng = np.random.default_rng(23)
    y = np.concatenate([rng.uniform(-2.0, 2.0, 5000), [0.0, -0.0, 1e-300]])
    y2 = y * y
    want = np.log1p(y2 * (1.0 / 6.0 + y2 * (1.0 / 120.0 + y2 * (1.0 / 5040.0 + y2 * (
        1.0 / 362880.0 + y2 * (1.0 / 39916800.0 + y2 / 6227020800.0))))))
    assert same_bits(_kernels_py._log_sinhc(y.copy()), want)


def test_one_kernel_call_per_estimate(monkeypatch):
    # every order, with default and explicit steps, is one fd_log_deriv
    # call; order 3's second Richardson level runs inside it
    calls = []

    def counted(*args):
        calls.append(args[5])
        return _kernels_py.fd_log_deriv(*args)

    monkeypatch.setattr(oracle, "kernels", types.SimpleNamespace(fd_log_deriv=counted))
    t = np.linspace(0.5, 3.0, 7)
    for order in (1, 2, 3, 4):
        for step in (None, 1e-3):
            calls.clear()
            numeric_log_derivative(HParams(1.3, -0.4, 2.1, 0.2), t, order, step)
            assert calls == [order], (order, step)


def test_default_order3_is_two_level_richardson():
    # the default-step order-3 estimate and error have the bits of two
    # explicit-step kernel calls, at h = DEFAULT_STEPS[3] * max(1, |t|) and
    # at h/2, combined by one more Richardson level with an error floor of
    # eps / (h/2)^3
    rng = np.random.default_rng(21)
    for shape in _BLOCK_SHAPES:
        t = _block_grid(rng, shape, 0.05)
        h = DEFAULT_STEPS[3] * np.maximum(1.0, np.abs(t))
        for p in _BLOCK_PARAMS:
            est, err = numeric_log_derivative(p, t, 3)
            with np.errstate(over="ignore", invalid="ignore"):
                coarse, _ = _kernels_py.fd_log_deriv(*p.as_tuple(), t, 3, h)
                half, _ = _kernels_py.fd_log_deriv(*p.as_tuple(), t, 3, 0.5 * h)
                refined = (16.0 * half - coarse) / 15.0
                floor = np.finfo(np.float64).eps / (0.5 * h) ** 3
            assert same_bits(est, refined), (shape, p)
            assert same_bits(err, np.maximum(np.abs(refined - half), floor)), (shape, p)


def _peak(fn):
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_block_pass_memory():
    # blocks of _BLOCK points keep the temporaries of a 2^17-point call
    # near 128 KiB each: orders 3 and 4 peak near 5 MiB (16.4 MiB for order
    # 4 when the kernel ran on the whole array, 9.0 MiB for order 3 when its
    # second Richardson level did), eval_H_grid near 2 MiB (7.1 MiB)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.1, 50.0, 1 << 17) * np.where(rng.random(1 << 17) < 0.5, -1.0, 1.0)
    p = HParams(1.3, -0.4, 2.1, 0.2)
    for order in (3, 4):
        peak = _peak(lambda: numeric_log_derivative(p, t, order))
        assert peak < 8 * 2**20, (order, peak)
    peak = _peak(lambda: eval_H_grid(p, t))
    assert peak < 3 * 2**20, peak


# sha256 of `expratio verify --draws N --seed S --format json`: a change to
# how the scans compute their values must leave every report as it is
_VERIFY_SHA256 = {
    (400, 0): "e7080021c2069bca187d4a4b12772044b45488f1c3d939153b4afa27c603674a",
    (400, 2): "e7080021c2069bca187d4a4b12772044b45488f1c3d939153b4afa27c603674a",
    (400, 7): "e7080021c2069bca187d4a4b12772044b45488f1c3d939153b4afa27c603674a",
    (400, 11): "e7080021c2069bca187d4a4b12772044b45488f1c3d939153b4afa27c603674a",
    (1000, 2): "6956d4c0ecbcfbc4ed997f368b4572bbec3bb290c19a85dc37a55263e5c89b8b",
    (1000, 216): "6956d4c0ecbcfbc4ed997f368b4572bbec3bb290c19a85dc37a55263e5c89b8b",
    (10000, 42): "4061cd3876d3abfd02b20a6b26d7522d2c3ede8ee65aeb404b1a94b921406da5",
}


@pytest.mark.parametrize("draws, seed", sorted(_VERIFY_SHA256))
def test_verify_json_pinned(capsys, draws, seed):
    assert cli_main(["verify", "--draws", str(draws), "--seed", str(seed), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_SHA256[draws, seed], out
