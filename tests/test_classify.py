import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expratio import (
    ConvexityKind,
    Direction,
    HParams,
    Interval,
    PParams,
    QParams,
    ThirdOrderKind,
    classify_3log_H,
    classify_H,
    classify_log_convexity_H,
    classify_monotonicity_H,
    classify_monotonicity_Q,
    classify_P,
    classify_Q,
    compute_frak_invariants,
    compute_invariants,
    decision_table,
)
from expratio.classify import zero_band_width

from conftest import random_hparams

_coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
hparams_st = (
    st.tuples(_coord, _coord, _coord, _coord)
    .filter(
        lambda v: all(
            abs(v[i] - v[j]) >= 0.05 for i in range(4) for j in range(i + 1, 4)
        )
    )
    .map(lambda v: HParams(*v))
)


class TestInvariants:
    @pytest.mark.parametrize(
        "params, expected",
        [
            ((3, 1, 2, 0), (4, -4, 4, 12, 4)),
            ((1, 0, 2, 0), (-1, -4, -2, 2, 0)),
            ((3, -3, 1, 0), (-6, -48, 24, 36, -36)),
        ],
    )
    def test_examples(self, params, expected):
        inv = compute_invariants(HParams(*params))
        assert (inv.A, inv.B, inv.C, inv.D, inv.E) == expected

    @settings(max_examples=100, deadline=None)
    @given(hparams_st)
    def test_identities(self, p):
        inv = compute_invariants(p)
        d = p.alpha - p.beta
        gap = 2.0 * d * abs(d)
        scale = max(1.0, abs(inv.A), abs(inv.B), abs(inv.C), abs(inv.D), abs(inv.E))
        assert abs((inv.C - inv.B) - gap) < 1e-12 * scale
        assert abs((inv.D - inv.E) - gap) < 1e-12 * scale
        # the half/whole bridge: A is the midpoint both ways
        assert abs(inv.B + inv.D - 2.0 * inv.A) < 1e-12 * scale
        assert abs(inv.C + inv.E - 2.0 * inv.A) < 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(hparams_st, st.floats(-3, 3, allow_nan=False))
    def test_shift_invariance(self, p, c):
        inv = compute_invariants(p)
        shifted = compute_invariants(HParams(p.alpha + c, p.beta + c, p.lam + c, p.mu + c))
        scale = max(1.0, abs(inv.A), abs(inv.B), abs(inv.C), abs(inv.D), abs(inv.E))
        for k in "ABCDE":
            assert abs(inv.get(k) - shifted.get(k)) < 1e-11 * scale

    @settings(max_examples=60, deadline=None)
    @given(hparams_st)
    def test_double_swap_antisymmetry(self, p):
        # swapping both pairs negates H's numerator and denominator, leaving
        # H unchanged; the invariants anti-map (with the ordering flipped),
        # which is exactly what keeps the verdicts stable
        inv = compute_invariants(p)
        sw = compute_invariants(HParams(p.beta, p.alpha, p.mu, p.lam))
        assert sw.A == pytest.approx(-inv.A, rel=1e-13, abs=1e-13)
        assert sw.B == pytest.approx(-inv.E, rel=1e-13, abs=1e-13)
        assert sw.C == pytest.approx(-inv.D, rel=1e-13, abs=1e-13)
        assert sw.D == pytest.approx(-inv.C, rel=1e-13, abs=1e-13)
        assert sw.E == pytest.approx(-inv.B, rel=1e-13, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(hparams_st)
    def test_negation_swaps_B_C_and_D_E(self, p):
        inv = compute_invariants(p)
        neg = compute_invariants(HParams(-p.alpha, -p.beta, -p.lam, -p.mu))
        assert neg.A == pytest.approx(inv.A, rel=1e-13, abs=1e-13)
        assert neg.B == pytest.approx(inv.C, rel=1e-13, abs=1e-13)
        assert neg.C == pytest.approx(inv.B, rel=1e-13, abs=1e-13)
        assert neg.D == pytest.approx(inv.E, rel=1e-13, abs=1e-13)
        assert neg.E == pytest.approx(inv.D, rel=1e-13, abs=1e-13)


class TestMonotonicity:
    def test_exponential_increasing(self):
        v = classify_monotonicity_H(HParams(3, 1, 2, 0), Interval.POSITIVE_HALF_LINE)
        assert v.direction is Direction.INCREASING
        assert ("A", ">=0") in v.fired_conditions and ("C", ">=0") in v.fired_conditions

    def test_logistic_decreasing_whole_line(self):
        v = classify_monotonicity_H(HParams(1, 0, 2, 0), Interval.WHOLE_LINE)
        assert v.direction is Direction.DECREASING
        assert ("C", "<=0") in v.fired_conditions and ("E", "<=0") in v.fired_conditions

    def test_sinh_ratio_non_monotonic(self):
        v = classify_monotonicity_H(HParams(3, -3, 1, 0), Interval.POSITIVE_HALF_LINE)
        assert v.direction is Direction.NON_MONOTONIC
        assert v.fired_conditions == ()

    @settings(max_examples=150, deadline=None)
    @given(hparams_st)
    def test_whole_implies_halves(self, p):
        report = classify_H(p)
        whole = report.monotonicity[Interval.WHOLE_LINE].direction
        if whole is not Direction.NON_MONOTONIC:
            assert report.monotonicity[Interval.POSITIVE_HALF_LINE].direction is whole
            assert report.monotonicity[Interval.NEGATIVE_HALF_LINE].direction is whole

    @settings(max_examples=100, deadline=None)
    @given(hparams_st)
    def test_double_swap_same_verdicts(self, p):
        swapped = HParams(p.beta, p.alpha, p.mu, p.lam)
        for interval in Interval:
            assert (
                classify_monotonicity_H(p, interval).direction
                is classify_monotonicity_H(swapped, interval).direction
            )

    @settings(max_examples=100, deadline=None)
    @given(hparams_st)
    def test_negation_mirrors_and_flips(self, p):
        # H with negated parameters equals H(-t), so verdicts mirror across
        # the origin with the direction reversed
        neg = HParams(-p.alpha, -p.beta, -p.lam, -p.mu)
        flip = {
            Direction.INCREASING: Direction.DECREASING,
            Direction.DECREASING: Direction.INCREASING,
            Direction.NON_MONOTONIC: Direction.NON_MONOTONIC,
        }
        mirror = {
            Interval.POSITIVE_HALF_LINE: Interval.NEGATIVE_HALF_LINE,
            Interval.NEGATIVE_HALF_LINE: Interval.POSITIVE_HALF_LINE,
            Interval.WHOLE_LINE: Interval.WHOLE_LINE,
        }
        for interval in Interval:
            want = flip[classify_monotonicity_H(p, interval).direction]
            got = classify_monotonicity_H(neg, mirror[interval]).direction
            assert got is want, (p, interval)

    def test_exclusivity(self, rng):
        # outside the zero band at most one direction can hold, which the
        # single-verdict API makes structural; spot-check the verdict is
        # stable against re-evaluation
        for p in random_hparams(rng, 30):
            r1 = classify_H(p)
            r2 = classify_H(p)
            assert r1 == r2


class TestZeroBandAtHugeScale:
    # the band is ZERO_BAND_EPS * scale^2 on the invariants, which overflows
    # once scale = max(1, |alpha|, |beta|, |lam|, |mu|) passes about 1.3e160

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1.7e308])
    def test_width_finite(self, scale):
        assert math.isfinite(zero_band_width(HParams(scale, 0, 1, 2)))

    def test_overflowed_invariants_keep_their_sign(self):
        # A, C and D overflow to +inf but lie far outside the band, so they
        # count as positive: lambda < mu with A, D >= 0 is decreasing on
        # (0,inf).  B = -2e200 is inside it, since |B| / scale^2 = 2e-200.
        report = classify_H(HParams(1e200, 0, 1, 2))
        assert report.invariants.A == math.inf and report.invariants.D == math.inf
        assert report.monotonicity[Interval.POSITIVE_HALF_LINE].direction is Direction.DECREASING
        assert report.zero_band_hits == ("B",)

    def test_overflowed_rounding_residual_in_band(self):
        # lambda = alpha makes C = 0 exactly; its rounding residual times
        # alpha - beta overflows to -inf, yet it is far inside the band
        p = HParams(2.7769860097642506e199, -1.3785680424792144e200,
                    2.7769860097642506e199, -5.904246507593008e200)
        assert compute_invariants(p).C == -math.inf
        assert "C" in classify_H(p).zero_band_hits

    def test_hits_match_unscaled_band(self, rng):
        # below the overflow, dividing the parameters by a power of two only
        # shifts exponents, so the hits are those of the unscaled band; the
        # draws sit on A = 0, C = 0 or E = 0 at scales up to 1e150
        tested = {True: "ACE", False: "ADB"}
        for scale in (1e-3, 1.0, 7.0, 1e6, 1e150):
            for _ in range(100):
                a, b, l, m = rng.uniform(-5.0, 5.0, size=4) * scale
                family = rng.integers(3)
                if family == 0:
                    m = a + b - l
                elif family == 1:
                    l = max(a, b)
                else:
                    m = min(a, b)
                if min(abs(a - b), abs(l - m)) < 0.05 * scale:
                    continue
                p = HParams(a, b, l, m)
                width = 1e-12 * max(1.0, abs(a), abs(b), abs(l), abs(m)) ** 2
                inv = compute_invariants(p).as_dict()
                want = tuple(n for n in tested[l > m] if abs(inv[n]) < width)
                got = tuple(h for h in classify_H(p).zero_band_hits if h != "ratio")
                assert got == want, p


class TestConvexity:
    def test_log_convex(self):
        v = classify_log_convexity_H(HParams(4, 0, 2, 0))
        assert v.kind is ConvexityKind.LOG_CONVEX and v.ratio == 2.0

    def test_log_concave(self):
        v = classify_log_convexity_H(HParams(1, 0, 2, 0))
        assert v.kind is ConvexityKind.LOG_CONCAVE and v.ratio == 0.5

    def test_log_affine(self):
        v = classify_log_convexity_H(HParams(3, 1, 2, 0))
        assert v.kind is ConvexityKind.LOG_AFFINE
        assert v.exponent == 1.0  # H = e^t

    def test_log_affine_within_band(self):
        # H = e^{-t}, but the ratio rounds to 1.0000000000000002
        p = HParams(1.3, 0.3, 2.3, 1.3)
        v = classify_log_convexity_H(p)
        assert v.kind is ConvexityKind.LOG_AFFINE and v.ratio != 1.0
        assert v.exponent == -1.0
        assert classify_3log_H(p).kind is ThirdOrderKind.NOT_COVERED
        assert classify_H(p).zero_band_hits == ("ratio",)

    def test_ratio_outside_band(self):
        p = HParams(1 + 1e-9, 0, 1, 0)
        assert classify_log_convexity_H(p).kind is ConvexityKind.LOG_CONVEX
        assert "ratio" not in classify_H(p).zero_band_hits

    def test_negative_ratio_not_covered(self):
        v = classify_log_convexity_H(HParams(1, 0, 0, 2))
        assert v.kind is ConvexityKind.NOT_COVERED


class TestThirdOrder:
    def test_cases(self):
        assert (
            classify_3log_H(HParams(1, 0, 2, 0)).kind
            is ThirdOrderKind.CONVEX_POS_CONCAVE_NEG
        )
        assert (
            classify_3log_H(HParams(4, 0, 2, 0)).kind
            is ThirdOrderKind.CONCAVE_POS_CONVEX_NEG
        )
        assert classify_3log_H(HParams(1, 0, 0, 2)).kind is ThirdOrderKind.NOT_COVERED

    def test_depends_on_ratio_only(self):
        # same ratio through both orderings of the denominator exponents
        a = classify_3log_H(HParams(1, 0, 2, 0))    # lam > mu, ratio 0.5
        b = classify_3log_H(HParams(0, 1, 0, 2))    # lam < mu, ratio 0.5
        assert a.kind is b.kind is ThirdOrderKind.CONVEX_POS_CONCAVE_NEG

    def test_sufficient_only_flag(self):
        assert classify_3log_H(HParams(1, 0, 2, 0)).sufficient_only


class TestPClassification:
    def test_matches_H_of_logs(self, rng):
        for _ in range(20):
            r, s, u, v = np.exp(rng.uniform(-2, 2, size=4))
            if min(abs(r - s), abs(u - v)) < 1e-3:
                continue
            pp = PParams(r, s, u, v)
            report_p = classify_P(pp)
            report_h = classify_H(pp.log_params())
            for interval in Interval:
                assert (
                    report_p.monotonicity[interval].direction
                    is report_h.monotonicity[interval].direction
                )
            assert report_p.convexity.kind is report_h.convexity.kind
            assert report_p.third_order.kind is report_h.third_order.kind

    def test_frak_invariants_match_log_form(self, rng):
        for _ in range(30):
            r, s, u, v = np.exp(rng.uniform(-2, 2, size=4))
            if min(abs(r - s), abs(u - v)) < 1e-3:
                continue
            pp = PParams(r, s, u, v)
            frak = compute_frak_invariants(pp)
            inv = compute_invariants(pp.log_params())
            for k in "ABCDE":
                assert frak.get(k) == pytest.approx(inv.get(k), rel=1e-13, abs=1e-13)

    def test_example_tuples(self):
        e = math.e
        rep = classify_P(PParams(e**3, e, e**2, 1.0))
        assert rep.monotonicity[Interval.WHOLE_LINE].direction is Direction.INCREASING
        rep = classify_P(PParams(e, 1.0, e**2, 1.0))
        assert rep.monotonicity[Interval.WHOLE_LINE].direction is Direction.DECREASING
        assert rep.convexity.kind is ConvexityKind.LOG_CONCAVE


class TestQClassification:
    def test_intro_example(self):
        v = classify_monotonicity_Q(QParams(0.0, 0.5), Interval.POSITIVE_HALF_LINE)
        assert v.direction is Direction.INCREASING

    def test_half_exponential(self):
        v = classify_monotonicity_Q(QParams(-0.5, 0.5), Interval.WHOLE_LINE)
        assert v.direction is Direction.INCREASING

    def test_convexity_flags(self):
        rep = classify_Q(QParams(0.0, 2.0))
        assert rep.log_convex and not rep.log_concave
        assert rep.third_order.kind is ThirdOrderKind.CONCAVE_POS_CONVEX_NEG
        rep = classify_Q(QParams(0.0, 0.5))
        assert rep.log_concave and not rep.log_convex
        assert rep.third_order.kind is ThirdOrderKind.CONVEX_POS_CONCAVE_NEG

    def test_matches_four_exponent_classifier(self, rng):
        # Q is classified through the equivalent four-exponent parameters;
        # the adapter must carry every verdict over unchanged
        n = 0
        while n < 40:
            a, b = rng.uniform(-4, 4, size=2)
            if abs(a - b) < 0.05 or abs(b - a - 1.0) < 1e-9:
                continue
            try:
                q = QParams(a, b)
            except ValueError:
                continue
            n += 1
            h = q.h_params()
            for interval in Interval:
                assert (
                    classify_monotonicity_Q(q, interval).direction
                    is classify_monotonicity_H(h, interval).direction
                ), (a, b, interval)


class TestDecisionTable:
    def test_row_count(self):
        assert len(decision_table()) == 12

    def test_first_row(self):
        r = decision_table()[0]
        assert r.interval == "(0,inf)"
        assert r.direction == "increasing"
        assert r.constraints == {"A": ">=0", "C": ">=0"}
        assert r.ordering == "lambda>mu"

    def test_fifth_row(self):
        r = decision_table()[4]
        assert r.interval == "(-inf,0)"
        assert r.direction == "increasing"
        assert r.constraints == {"A": ">=0", "E": ">=0"}
        assert r.ordering == "lambda>mu"

    def test_last_row(self):
        r = decision_table()[11]
        assert r.interval == "(-inf,inf)"
        assert r.direction == "decreasing"
        assert r.constraints == {"B": ">=0", "D": ">=0"}
        assert r.ordering == "lambda<mu"

    def test_table_agrees_with_classifier(self, rng):
        # every row's constraints, fed as a witness parameter set, must make
        # the classifier return that row's direction
        rows = decision_table()
        for p in random_hparams(rng, 60):
            inv = compute_invariants(p)
            lam_gt_mu = p.lam > p.mu
            for row in rows:
                if (row.ordering == "lambda>mu") != lam_gt_mu:
                    continue
                holds = all(
                    inv.get(k) >= 0 if s == ">=0" else inv.get(k) <= 0
                    for k, s in row.constraints.items()
                )
                if holds:
                    interval = next(iv for iv in Interval if iv.value == row.interval)
                    got = classify_monotonicity_H(p, interval).direction.value
                    assert got == row.direction, (p, row)
