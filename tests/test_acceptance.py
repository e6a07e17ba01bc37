"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line (visible with ``pytest -v -rA`` or on
failure) naming the criterion it certifies.  Draw counts, tolerances, and
runtime budgets are pinned; see the test bodies.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from expratio import (
    GFParams,
    GridSpec,
    HParams,
    Interval,
    PParams,
    QParams,
    eval_F,
    eval_G,
    eval_H,
    eval_P,
    eval_Q,
    four_log_sign_change_search,
    grid_klog_sign_check,
    log_deriv_H,
    numeric_log_derivative,
    reduce_H_to_Q,
)
from expratio.cli import main as cli_main

from conftest import random_hparams

E = math.e
GOLDEN = Path(__file__).parent / "data" / "table_golden.csv"


def _grid_400():
    side = np.geomspace(1e-3, 10, 200)
    return np.concatenate([-side[::-1], side])


def _passed(n, text):
    # captured by pytest; the one-line-per-criterion summary is printed by
    # the terminal-summary hook in conftest.py from the test outcomes
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_closed_form_degeneracies():
    """Known-closed-form parameter sets match to 1e-12 relative, < 1 s."""
    t0 = time.perf_counter()
    ts = _grid_400()
    cases = [
        (lambda t: eval_H(HParams(3, 1, 2, 0), t), math.exp),
        (lambda t: eval_H(HParams(1, 0, 2, 0), t), lambda t: 1.0 / (math.exp(t) + 1.0)),
        (lambda t: eval_Q(QParams(-0.5, 0.5), t), lambda t: math.exp(0.5 * t)),
    ]
    for fn, ref in cases:
        for t in ts:
            got, want = fn(float(t)), ref(float(t))
            assert abs(got - want) <= 1e-12 * abs(want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"3 closed forms x 400 points, 1e-12 rel, {elapsed:.2f}s")


def test_criterion_02_identity_suite(rng):
    """Function-relation identities hold to 1e-12 relative, < 5 s."""
    t0 = time.perf_counter()
    ts = np.linspace(-4, 4, 50)
    for p in random_hparams(rng, 100):
        a, b, l, m = p.as_tuple()
        pp = PParams(math.exp(a), math.exp(b), math.exp(l), math.exp(m))
        red = reduce_H_to_Q(p)
        q = QParams(red.A, red.B)
        for t in ts:
            t = float(t)
            h = eval_H(p, t)
            tol = 1e-12 * abs(h)
            assert abs(eval_P(pp, t) - h) <= tol
            ratio_f = eval_F(GFParams(l, m), t) / eval_F(GFParams(a, b), t)
            assert abs(ratio_f - h) <= tol
            num = eval_G(GFParams(min(pp.r, pp.s), max(pp.r, pp.s)), t)
            den = eval_G(GFParams(min(pp.u, pp.v), max(pp.u, pp.v)), t)
            sign = (1.0 if pp.r > pp.s else -1.0) * (1.0 if pp.u > pp.v else -1.0)
            assert abs(sign * num / den - h) <= tol
            assert abs(eval_Q(q, red.w_scale * t) - h) <= tol
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, f"4 identities x 100 draws x 50 points, 1e-12 rel, {elapsed:.2f}s")


def test_criterion_03_continuity_at_zero(rng):
    """t = 0 continuity for 1000 draws."""
    for p in random_hparams(rng, 1000):
        h0 = eval_H(p, 0.0)
        assert h0 == (p.alpha - p.beta) / (p.lam - p.mu)
        assert abs(eval_H(p, 1e-9) - h0) <= 1e-7 * abs(h0)
    _passed(3, "1000 draws: H(1e-9) within 1e-7 rel of exact H(0)")


def test_criterion_04_cross_validation(capsys):
    """verify --draws 10000 --seed 42: zero contradictions, < 60 s."""
    t0 = time.perf_counter()
    code = cli_main(["verify", "--draws", "10000", "--seed", "42", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["contradictions"] == []
    assert doc["draws"] == 10000
    assert doc["boundary_skips"] < 100  # expected well under 1% of draws
    assert elapsed < 60.0
    with capsys.disabled():
        _passed(4, f"10000 draws seed 42: 0 contradictions, "
                   f"{doc['boundary_skips']} skips, {elapsed:.1f}s")


def _draw_with_ratio(rng, predicate, n):
    out = []
    while len(out) < n:
        p = random_hparams(rng, 1)[0]
        if predicate((p.alpha - p.beta) / (p.lam - p.mu)):
            out.append(p)
    return out


def test_criterion_05_log_convexity(rng):
    """Order-2 sign scans match the |ratio| criterion for 4 x 500 draws."""
    for p in _draw_with_ratio(rng, lambda r: r > 1.0, 500):
        v = grid_klog_sign_check(p, Interval.WHOLE_LINE, 2)
        assert v.fall_count == 0, (p, v)  # (ln H)'' >= -1e-8 everywhere
    for p in _draw_with_ratio(rng, lambda r: 0.0 < r < 1.0, 500):
        v = grid_klog_sign_check(p, Interval.WHOLE_LINE, 2)
        assert v.rise_count == 0, (p, v)  # (ln H)'' <= +1e-8 everywhere
    # a negative ratio is decided by its magnitude
    for p in _draw_with_ratio(rng, lambda r: r < -1.0, 500):
        v = grid_klog_sign_check(p, Interval.WHOLE_LINE, 2)
        assert v.fall_count == 0, (p, v)
    for p in _draw_with_ratio(rng, lambda r: -1.0 < r < 0.0, 500):
        v = grid_klog_sign_check(p, Interval.WHOLE_LINE, 2)
        assert v.rise_count == 0, (p, v)
    _passed(5, "1000 log-convex + 1000 log-concave draws, ratio of either sign: "
               "no opposing sign witness")


def test_criterion_06_three_log_cases(rng):
    """Order-3 sign scans match the third-order verdict in all 8 regimes."""
    regimes = [
        (lambda p: p.lam > p.mu, lambda r: 0.0 < r < 1.0, True),
        (lambda p: p.lam > p.mu, lambda r: r > 1.0, False),
        (lambda p: p.lam < p.mu, lambda r: 0.0 < r < 1.0, True),
        (lambda p: p.lam < p.mu, lambda r: r > 1.0, False),
        (lambda p: p.lam > p.mu, lambda r: -1.0 < r < 0.0, True),
        (lambda p: p.lam > p.mu, lambda r: r < -1.0, False),
        (lambda p: p.lam < p.mu, lambda r: -1.0 < r < 0.0, True),
        (lambda p: p.lam < p.mu, lambda r: r < -1.0, False),
    ]
    for order_pred, ratio_pred, convex_pos in regimes:
        n = 0
        while n < 500:
            p = random_hparams(rng, 1)[0]
            if not (order_pred(p) and ratio_pred((p.alpha - p.beta) / (p.lam - p.mu))):
                continue
            n += 1
            pos = grid_klog_sign_check(p, Interval.POSITIVE_HALF_LINE, 3)
            neg = grid_klog_sign_check(p, Interval.NEGATIVE_HALF_LINE, 3)
            if convex_pos:
                assert pos.fall_count == 0 and neg.rise_count == 0, p
            else:
                assert pos.rise_count == 0 and neg.fall_count == 0, p
    _passed(6, "500 draws x 8 regimes: order-3 signs match verdict on both half-lines")


def test_criterion_07_fourth_order_sign_change(rng):
    """Order-4 log-derivative changes sign somewhere for every non-affine draw."""
    found = 0
    draws = _draw_with_ratio(rng, lambda r: r != 0.0 and r != 1.0, 200)
    for p in draws:
        t_pos = four_log_sign_change_search(p, Interval.POSITIVE_HALF_LINE)
        t_neg = (
            t_pos
            if t_pos is not None
            else four_log_sign_change_search(p, Interval.NEGATIVE_HALF_LINE)
        )
        if t_neg is not None:
            found += 1
    assert found == 200
    _passed(7, "200/200 draws: order-4 sign change found on a half-line")


def test_criterion_08_decision_table_golden(capsys):
    """CLI table output matches the checked-in 12-row golden file."""
    code = cli_main(["table", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN.read_text()
    assert len(out.strip().split("\n")) == 13
    with capsys.disabled():
        _passed(8, "table --format csv is byte-identical to the golden file")


def test_criterion_09_derivative_consistency(rng):
    """Closed-form log-derivatives vs finite differences, plus spot values."""
    n = 0
    while n < 100:
        p = random_hparams(rng, 1)[0]
        t = float(rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]))
        n += 1
        for order in (1, 2, 3):
            closed = log_deriv_H(p, t, order)
            fd, _ = numeric_log_derivative(p, t, order)
            assert abs(closed - fd) <= 1e-6, (p, t, order, closed, fd)
    p = HParams(1, 0, 2, 0)
    e5 = math.exp(0.5)
    assert log_deriv_H(p, 0.5, 2) == pytest.approx(-e5 / (1 + e5) ** 2, abs=1e-6)
    assert log_deriv_H(p, 1.0, 3) == pytest.approx(E * (E - 1) / (1 + E) ** 3, abs=1e-6)
    _passed(9, "100 random (params, t) x orders 1-3 within 1e-6; spot values match")


def test_criterion_10_overflow_safety():
    """Extreme |t| saturates cleanly, no NaN."""
    p = HParams(1, 0, 2, 0)
    vals = {t: eval_H(p, t) for t in (700.0, -700.0, 5000.0, -5000.0)}
    for t, v in vals.items():
        assert not math.isnan(v), t
    assert vals[700.0] == pytest.approx(math.exp(-700.0), rel=1e-12)
    assert vals[-700.0] == pytest.approx(1.0, rel=1e-14)
    assert vals[5000.0] == 0.0
    assert vals[-5000.0] == pytest.approx(1.0, rel=1e-14)
    _passed(10, "t in {+-700, +-5000}: finite/saturated, matches 1/(e^t+1)")
