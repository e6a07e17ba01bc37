"""Shared fixtures: high-precision reference implementations.

The references below use mpmath at 60 digits and the textbook formulas
directly (no shared code with the package), so every comparison against them
is an independent check.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import mpmath as mp
import numpy as np
import pytest

from expratio import HParams
from expratio.params import ParameterError

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


def same_bits(got, want) -> bool:
    """Equal shapes and identical float64 bits (0.0 and -0.0 differ, a NaN
    equals itself)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def family_draws(family: str, n: int, seed: int) -> list[HParams]:
    """n exponent quadruples on one decision boundary: A = 0 (mu = alpha +
    beta - lambda), C = 0 (lambda = max(alpha, beta)), E = 0 (mu =
    min(alpha, beta)), ratio = 1 (mu = lambda - (alpha - beta)) or ratio =
    -1 (mu = lambda + (alpha - beta))."""
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
        elif family == "ratio-1":
            m = l + (a - b)
        if min(abs(a - b), abs(l - m)) < 0.05:
            continue
        try:
            out.append(HParams(a, b, l, m))
        except ParameterError:
            continue
    return out


# the distances from the boundary that the near-boundary families take
NEAR_EPS = (1e-5, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 3e-12, -1e-9)


def near_boundary_draws(family: str, eps: float, n: int, seed: int) -> list[HParams]:
    """n exponent quadruples a distance eps off one monotonicity boundary:
    A = eps (mu = alpha + beta - lambda - eps), C (lambda = max(alpha, beta)
    - eps) or E (mu = min(alpha, beta) - eps), C and E with lambda > mu.
    Every pairwise gap is at least 0.05 but the one the boundary sets (C:
    lambda and max(alpha, beta); E: mu and min(alpha, beta))."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b, l, m = rng.uniform(-5.0, 5.0, size=4)
        exempt = None
        if family == "A":
            m = a + b - l - eps
        elif family == "C":
            l = max(a, b) - eps
            exempt = (0 if a > b else 1, 2)
        elif family == "E":
            m = min(a, b) - eps
            exempt = (0 if a < b else 1, 3)
        if family != "A" and not l > m:
            continue
        vals = (a, b, l, m)
        gaps = [abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)
                if (i, j) != exempt]
        if min(gaps) >= 0.05:
            out.append(HParams(a, b, l, m))
    return out


def assert_record_contract(record) -> None:
    """The frozen dataclass contract of a slotted record with a hand-written
    __init__: that __init__ takes the dataclass fields in order, with their
    defaults; positional and keyword construction, dataclasses.replace,
    pickle and deepcopy give equal records; a field cannot be assigned;
    equal hashable records hash equal; and no instance has a __dict__."""
    cls = type(record)
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == [f.name for f in fields]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    for p, f in zip(params, fields):
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert p.default == want, f.name

    values = {f.name: getattr(record, f.name) for f in fields}
    positional = cls(*values.values())
    assert positional == record
    assert cls(**values) == record
    assert dataclasses.replace(record) == record
    for name, value in values.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
    try:
        hash(record)
    except TypeError:  # a record with a dict field is unhashable
        pass
    else:
        assert hash(positional) == hash(record)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
    assert "__slots__" in cls.__dict__
    assert not hasattr(record, "__dict__")
    assert repr(positional) == repr(record)


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
