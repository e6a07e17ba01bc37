"""Parameter records and the signed-log value carrier.

All equality tests in the validity checks are exact floating comparisons:
evaluation is well defined up to exact degeneracy, and fuzzy boundary
detection is the classifier's job (see the zero band there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """Raised when a parameter record violates its validity conditions."""


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ParameterError(f"{name}: all parameters must be finite, got {values}")


@dataclass(frozen=True)
class HParams:
    """Exponent quadruple (alpha, beta, lambda, mu) for the ratio
    (e^{alpha t} - e^{beta t}) / (e^{lambda t} - e^{mu t})."""

    alpha: float
    beta: float
    lam: float
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        _require_finite("HParams", self.alpha, self.beta, self.lam, self.mu)
        if self.alpha == self.beta:
            raise ParameterError("HParams: alpha == beta makes the numerator vanish")
        if self.lam == self.mu:
            raise ParameterError("HParams: lambda == mu makes the denominator vanish")
        if (self.alpha, self.beta) == (self.lam, self.mu):
            raise ParameterError("HParams: (alpha, beta) == (lambda, mu) excluded")
        if (self.alpha, self.beta) == (self.mu, self.lam):
            raise ParameterError("HParams: (alpha, beta) == (mu, lambda) excluded")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.lam, self.mu)


@dataclass(frozen=True)
class PParams:
    """Positive base quadruple (r, s, u, v) for (r^t - s^t) / (u^t - v^t)."""

    r: float
    s: float
    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        _require_finite("PParams", self.r, self.s, self.u, self.v)
        if min(self.r, self.s, self.u, self.v) <= 0.0:
            raise ParameterError("PParams: r, s, u, v must all be positive")
        if self.r == self.s:
            raise ParameterError("PParams: r == s makes the numerator vanish")
        if self.u == self.v:
            raise ParameterError("PParams: u == v makes the denominator vanish")
        if (self.r, self.s) == (self.u, self.v):
            raise ParameterError("PParams: (r, s) == (u, v) excluded")
        if (self.r, self.s) == (self.v, self.u):
            raise ParameterError("PParams: (r, s) == (v, u) excluded")

    def log_params(self) -> HParams:
        """The exponent quadruple (ln r, ln s, ln u, ln v)."""
        return HParams(math.log(self.r), math.log(self.s), math.log(self.u), math.log(self.v))


@dataclass(frozen=True)
class QParams:
    """Exponent pair (alpha, beta) for (e^{-alpha t} - e^{-beta t}) / (1 - e^{-t})."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        _require_finite("QParams", self.alpha, self.beta)
        if self.alpha == self.beta:
            raise ParameterError("QParams: alpha == beta makes the numerator vanish")
        if (self.alpha, self.beta) in ((0.0, 1.0), (1.0, 0.0)):
            raise ParameterError("QParams: (alpha, beta) in {(0,1), (1,0)} excluded")

    def h_params(self) -> HParams:
        """Q_{alpha,beta}(t) equals the four-exponent ratio with
        exponents (-alpha, -beta, 0, -1)."""
        return HParams(-self.alpha, -self.beta, 0.0, -1.0)


@dataclass(frozen=True)
class GFParams:
    """Parameter pair (a, b) shared by the difference-quotient function G
    (requires b > a > 0) and the reciprocal-style function F (requires a != b)."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        _require_finite("GFParams", self.a, self.b)
        if self.a == self.b:
            raise ParameterError("GFParams: a == b excluded")

    def require_g(self) -> None:
        if not (self.b > self.a > 0.0):
            raise ParameterError("GFParams: G requires b > a > 0")
        if math.log(self.b) == math.log(self.a):
            raise ParameterError("GFParams: ln b == ln a in double precision; G needs distinct logarithms")


@dataclass(frozen=True)
class QReduction:
    """Substitution that rewrites the four-exponent ratio as the
    two-exponent function Q evaluated at w = w_scale * t."""

    A: float
    B: float
    w_scale: float
    degenerate: bool = False


@dataclass(frozen=True)
class SignedLogValue:
    """Overflow-safe carrier: value = sign * exp(log_mag).

    sign is -1, 0 or +1; log_mag = -inf iff sign = 0.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ParameterError(f"SignedLogValue: sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (self.log_mag == -math.inf):
            raise ParameterError("SignedLogValue: sign == 0 iff log_mag == -inf")
        if math.isnan(self.log_mag):
            raise ParameterError("SignedLogValue: log_mag must not be NaN")

    @classmethod
    def from_value(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(0, -math.inf)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        """Materialize, saturating to +-inf / signed zero out of range."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "SignedLogValue") -> "SignedLogValue":
        if self.sign == 0 or other.sign == 0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "SignedLogValue") -> "SignedLogValue":
        if other.sign == 0:
            raise ZeroDivisionError("SignedLogValue division by zero")
        if self.sign == 0:
            return SignedLogValue(0, -math.inf)
        return SignedLogValue(self.sign * other.sign, self.log_mag - other.log_mag)
