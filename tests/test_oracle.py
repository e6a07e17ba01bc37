import dataclasses
import hashlib
import math
import tracemalloc

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
from expratio import _kernels_py, oracle
from expratio.classify import ConvexityKind, Direction, ThirdOrderKind, classify_H
from expratio.cli import main as cli_main
from expratio.oracle import (
    SIGN_MARGIN,
    _CHUNK,
    _check_chunk,
    _check_one,
    _draw_params,
    _probes,
    _scan,
    _verdict,
)

from conftest import family_draws, mp_log_deriv_H, random_hparams, same_bits

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
    # probes there zeroed, the (-inf, 0) check is the one that fires
    def patched(draws, orders):
        out = probes(draws, orders)
        if 3 in out:
            value, cuts = out[3]
            value = value.copy()
            value[:, GridSpec._parts[_POS]] = 0.0
            out[3] = (value, cuts)
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
    # one pass over all 62 draws and every order
    fused = _probes(draws, (1, 2, 3))
    for i, p in enumerate(draws):
        for k in (1, 2, 3):
            probes, cuts = fused[k]
            for interval in Interval:
                s = parts[interval]
                want = _reference_scan(p, interval, k)
                fused_row = _verdict(ts[s], probes[i, s], cuts[i, s])
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
    assert probes[1][0].shape == (_CHUNK, ts.size)
    for i, p in enumerate(draws):
        alone = _kernels_py.log_derivs_h(*p.as_tuple(), ts, orders)
        one = _probes([p], orders)
        for k in orders:
            assert same_bits(chunk[k][0][i], alone[k][0]), (p, k)
            assert same_bits(chunk[k][1][i], alone[k][1]), (p, k)
            assert same_bits(probes[k][0][i], one[k][0][0]), (p, k)
            assert same_bits(probes[k][1][i], one[k][1][0]), (p, k)
    assert _check_chunk(draws) == [_check_one(p) for p in draws]


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
