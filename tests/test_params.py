import dataclasses
import math
import sys

import numpy as np
import pytest

from expratio import (
    GFParams,
    HParams,
    ParameterError,
    PParams,
    QParams,
    SignedLogValue,
)
from expratio import oracle

from conftest import assert_record_contract


class TestHParams:
    def test_valid(self):
        p = HParams(3, 1, 2, 0)
        assert p.as_tuple() == (3.0, 1.0, 2.0, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1, 2, 0),      # alpha == beta
            (1, 0, 2, 2),      # lambda == mu
            (1, 0, 1, 0),      # (alpha,beta) == (lambda,mu)
            (1, 0, 0, 1),      # (alpha,beta) == (mu,lambda)
            (float("nan"), 0, 2, 0),
            (float("inf"), 0, 2, 0),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ParameterError):
            HParams(*args)

    def test_is_value_error(self):
        with pytest.raises(ValueError):
            HParams(1, 1, 2, 0)


class TestPParams:
    def test_log_params(self):
        p = PParams(math.e**3, math.e, math.e**2, 1.0)
        h = p.log_params()
        assert h.alpha == pytest.approx(3.0)
        assert h.beta == pytest.approx(1.0)
        assert h.lam == pytest.approx(2.0)
        assert h.mu == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 2, 3, 4),    # non-positive base
            (-1.0, 2, 3, 4),
            (2, 2, 3, 4),      # r == s
            (2, 3, 4, 4),      # u == v
            (2, 3, 2, 3),      # pair exclusion
            (2, 3, 3, 2),      # swapped pair exclusion
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ParameterError):
            PParams(*args)


class TestQParams:
    def test_h_params(self):
        h = QParams(-0.5, 0.5).h_params()
        assert h.as_tuple() == (0.5, -0.5, 0.0, -1.0)

    @pytest.mark.parametrize("args", [(1, 1), (0, 1), (1, 0)])
    def test_invalid(self, args):
        with pytest.raises(ParameterError):
            QParams(*args)

    def test_near_exclusion_is_allowed(self):
        # exclusions are exact-equality degeneracies, not fuzzy bands
        QParams(0.0, 1.0 + 1e-15)


class TestSlottedParams:
    """HParams, PParams and QParams convert in a hand-written __init__ and
    validate in __post_init__; they behave as the generated frozen
    dataclasses did."""

    @pytest.mark.parametrize("record", [
        HParams(1.3, -0.4, 2.1, 0.2), PParams(2.0, 3.0, 5.0, 7.0), QParams(-0.5, 0.5),
    ], ids=["H", "P", "Q"])
    def test_record_contract(self, record):
        assert_record_contract(record)

    def test_replace_revalidates(self):
        h = HParams(1.3, -0.4, 2.1, 0.2)
        assert dataclasses.replace(h, mu=0.5) == HParams(1.3, -0.4, 2.1, 0.5)
        with pytest.raises(ParameterError, match="alpha == beta"):
            dataclasses.replace(h, beta=h.alpha)
        with pytest.raises(ParameterError, match="r == s"):
            dataclasses.replace(PParams(2.0, 3.0, 5.0, 7.0), s=2)
        with pytest.raises(ParameterError, match="excluded"):
            dataclasses.replace(QParams(-0.5, 0.5), alpha=0, beta=1)

    @pytest.mark.parametrize("cls, args", [
        (HParams, (3, np.int64(1), np.float32(2.5), np.float64(0.25))),
        (PParams, (np.int32(3), 1, np.float32(2.5), np.float64(0.25))),
        (QParams, (np.int64(-1), np.float32(0.5))),
    ], ids=["H", "P", "Q"])
    def test_values_become_float(self, cls, args):
        record = cls(*args)
        values = [getattr(record, f.name) for f in dataclasses.fields(cls)]
        assert all(type(v) is float for v in values)
        assert values == [float(a) for a in args]
        assert record == cls(*(float(a) for a in args))

    @pytest.mark.parametrize("cls, args, message", [
        (HParams, (1, 1, 2, 0), "HParams: alpha == beta makes the numerator vanish"),
        (HParams, (1, 0, 2, 2), "HParams: lambda == mu makes the denominator vanish"),
        (HParams, (1, 0, 1, 0), "HParams: (alpha, beta) == (lambda, mu) excluded"),
        (HParams, (1, 0, 0, 1), "HParams: (alpha, beta) == (mu, lambda) excluded"),
        (HParams, (np.float32(1.5), np.int64(0), math.inf, 0),
         "HParams: all parameters must be finite, got (1.5, 0.0, inf, 0.0)"),
        (PParams, (0, 2, 3, 4), "PParams: r, s, u, v must all be positive"),
        (PParams, (2, 2, 3, 4), "PParams: r == s makes the numerator vanish"),
        (PParams, (2, 3, 4, 4), "PParams: u == v makes the denominator vanish"),
        (PParams, (2, 3, 2, 3), "PParams: (r, s) == (u, v) excluded"),
        (PParams, (2, 3, 3, 2), "PParams: (r, s) == (v, u) excluded"),
        (PParams, (np.int64(2), 3, math.inf, 1),
         "PParams: all parameters must be finite, got (2.0, 3.0, inf, 1.0)"),
        (QParams, (1, 1), "QParams: alpha == beta makes the numerator vanish"),
        (QParams, (np.int64(1), np.float32(0)), "QParams: (alpha, beta) in {(0,1), (1,0)} excluded"),
        (QParams, (-math.inf, 1), "QParams: all parameters must be finite, got (-inf, 1.0)"),
    ])
    def test_error_messages(self, cls, args, message):
        with pytest.raises(ParameterError) as err:
            cls(*args)
        assert str(err.value) == message

    def test_post_init_once_per_construction(self, monkeypatch):
        # the traced benchmark counts constructions by wrapping __post_init__
        calls = []
        validate = HParams.__post_init__

        def counted(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(HParams, "__post_init__", counted)
        h = HParams(1.3, -0.4, 2.1, 0.2)
        assert calls == [h]
        steps = [
            lambda: PParams(2.0, 3.0, 5.0, 7.0).log_params(),
            lambda: QParams(-0.5, 0.5).h_params(),
            lambda: dataclasses.replace(h, mu=0.5),
        ]
        for step in steps:
            del calls[:]
            assert calls == [step()]
        del calls[:]
        draws = oracle._draw_params(np.random.default_rng(5), 32)
        assert calls == draws and len(draws) == 32


class TestGFParams:
    def test_g_requires_ordered_positive(self):
        GFParams(1.0, math.e).require_g()
        with pytest.raises(ParameterError):
            GFParams(2.0, 1.0).require_g()
        with pytest.raises(ParameterError):
            GFParams(0.0, 1.0).require_g()

    def test_g_requires_distinct_logs(self):
        # adjacent doubles whose logarithms round to the same value
        a = 1e300
        b = math.nextafter(a, math.inf)
        assert math.log(a) == math.log(b)
        with pytest.raises(ParameterError, match="ln b == ln a"):
            GFParams(a, b).require_g()

    def test_f_allows_any_distinct(self):
        GFParams(0.0, 1.0)
        GFParams(-2.0, 1.0)
        with pytest.raises(ParameterError):
            GFParams(1.0, 1.0)


class TestSignedLogValue:
    def test_round_trip(self):
        v = SignedLogValue.from_value(-2.5)
        assert v.sign == -1
        assert v.to_float() == pytest.approx(-2.5, rel=1e-15)

    def test_zero(self):
        v = SignedLogValue.from_value(0.0)
        assert v.sign == 0
        assert v.log_mag == -math.inf
        assert v.to_float() == 0.0

    def test_saturation(self):
        big = SignedLogValue(1, 1e4)
        assert big.to_float() == math.inf
        assert SignedLogValue(-1, 1e4).to_float() == -math.inf
        # saturation happens where exp overflows, not before
        ln_max = math.log(sys.float_info.max)
        assert SignedLogValue(-1, 709.5).to_float() == -math.exp(709.5)
        assert SignedLogValue(1, ln_max + 1e-3).to_float() == math.inf
        assert math.copysign(1.0, SignedLogValue(-1, -1e4).to_float()) == -1.0
