"""Shared fixtures: high-precision reference implementations.

The references below use mpmath at 60 digits and the textbook formulas
directly (no shared code with the package), so every comparison against them
is an independent check.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from expratio import HParams

DPS = 60


def mp_H(alpha, beta, lam, mu, t):
    """Reference H(t) straight from the defining ratio."""
    with mp.workdps(DPS):
        a, b, l, m, tt = map(mp.mpf, (alpha, beta, lam, mu, t))
        if tt == 0:
            return (a - b) / (l - m)
        return (mp.e**(a * tt) - mp.e**(b * tt)) / (mp.e**(l * tt) - mp.e**(m * tt))


def mp_G(a, b, t):
    """Reference G(t) = (b^t - a^t) / t."""
    with mp.workdps(DPS):
        a, b, tt = map(mp.mpf, (a, b, t))
        if tt == 0:
            return mp.log(b) - mp.log(a)
        return (b**tt - a**tt) / tt


def mp_F(a, b, t):
    """Reference F(t) = t / (e^{bt} - e^{at})."""
    with mp.workdps(DPS):
        a, b, tt = map(mp.mpf, (a, b, t))
        if tt == 0:
            return 1 / (b - a)
        return tt / (mp.e**(b * tt) - mp.e**(a * tt))


def mp_log_abs_H(alpha, beta, lam, mu, t):
    with mp.workdps(DPS):
        return mp.log(abs(mp_H(alpha, beta, lam, mu, t)))


def mp_log_deriv_H(alpha, beta, lam, mu, t, order):
    """Reference k-th derivative of ln|H| by mpmath differentiation."""
    with mp.workdps(DPS):
        a, b, l, m = map(mp.mpf, (alpha, beta, lam, mu))

        # inline: mp.diff raises the working precision itself, so the
        # integrand must not clamp it back down with its own workdps
        def f(x):
            num = mp.e**(a * x) - mp.e**(b * x)
            den = mp.e**(l * x) - mp.e**(m * x)
            return mp.log(abs(num / den))

        return mp.diff(f, mp.mpf(t), order)


def rel_err(got, want):
    want = float(want)
    if want == 0.0:
        return abs(float(got))
    return abs(float(got) - want) / abs(want)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_hparams(rng, n, min_gap=0.05, span=5.0):
    """n valid, well-separated parameter tuples."""
    out = []
    while len(out) < n:
        a, b, l, m = rng.uniform(-span, span, size=4)
        vals = (a, b, l, m)
        gaps = [abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) >= min_gap:
            out.append(HParams(a, b, l, m))
    return out


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion at the end of the run

_CRITERION_RESULTS: dict[str, tuple[bool, str]] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    _CRITERION_RESULTS[name] = (report.passed, "")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERION_RESULTS):
        passed, _ = _CRITERION_RESULTS[name]
        num = int(name.split("_")[2])
        label = name.split("_", 3)[-1].replace("_", " ")
        terminalreporter.write_line(
            f"{'PASS' if passed else 'FAIL'} criterion {num}: {label}"
        )
