import math
import sys

import pytest

from expratio import (
    GFParams,
    HParams,
    ParameterError,
    PParams,
    QParams,
    SignedLogValue,
)


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
