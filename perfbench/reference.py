"""60-digit mpmath references for the benchmark's output checks.

Every function takes the float inputs the program was given and returns an
mpmath number, so a reference never shares code or rounding with the
program under test.  ``close`` compares a program float against one.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 60
_DBL_MAX = mp.mpf(1.7976931348623157e308)
_DBL_MIN = mp.mpf(2.2250738585072014e-308)


def _mpf(*values):
    return [mp.mpf(float(v)) for v in values]


def ratio_H(a, b, l, m, t):
    with mp.workdps(DIGITS):
        a, b, l, m, t = _mpf(a, b, l, m, t)
        if t == 0:
            return (a - b) / (l - m)
        return (mp.exp(a * t) - mp.exp(b * t)) / (mp.exp(l * t) - mp.exp(m * t))


def log_abs_H(a, b, l, m, t):
    with mp.workdps(DIGITS):
        return mp.log(abs(ratio_H(a, b, l, m, t)))


def log_deriv4_H(a, b, l, m, t):
    """Fourth derivative of ln|H| at t (t != 0)."""
    with mp.workdps(DIGITS):
        a, b, l, m, t = _mpf(a, b, l, m, t)
        # ln|e^{at} - e^{bt}| = b t + ln|e^{(a-b)t} - 1|: only the expm1
        # terms carry curvature
        f = lambda x: mp.log(abs(mp.expm1((a - b) * x))) - mp.log(abs(mp.expm1((l - m) * x)))
        return mp.diff(f, t, 4)


def ratio_P(r, s, u, v, t):
    with mp.workdps(DIGITS):
        r, s, u, v, t = _mpf(r, s, u, v, t)
        if t == 0:
            return mp.log(r / s) / mp.log(u / v)
        return (mp.power(r, t) - mp.power(s, t)) / (mp.power(u, t) - mp.power(v, t))


def ratio_Q(alpha, beta, t):
    with mp.workdps(DIGITS):
        alpha, beta, t = _mpf(alpha, beta, t)
        if t == 0:
            return beta - alpha
        return (mp.exp(-alpha * t) - mp.exp(-beta * t)) / (1 - mp.exp(-t))


def ratio_G(a, b, t):
    with mp.workdps(DIGITS):
        a, b, t = _mpf(a, b, t)
        if t == 0:
            return mp.log(b) - mp.log(a)
        return (mp.power(b, t) - mp.power(a, t)) / t


def ratio_F(a, b, t):
    with mp.workdps(DIGITS):
        a, b, t = _mpf(a, b, t)
        if t == 0:
            return 1 / (b - a)
        return t / (mp.exp(b * t) - mp.exp(a * t))


REFERENCES = {"H": ratio_H, "P": ratio_P, "Q": ratio_Q, "G": ratio_G, "F": ratio_F}


def close(value: float, ref, rel: float) -> bool:
    """value agrees with ref to rel, where float saturation is allowed.

    Past DBL_MAX the only right answer is an infinity of the right sign;
    below DBL_MIN (where doubles lose relative precision) any value within
    DBL_MIN of the reference is accepted.
    """
    with mp.workdps(DIGITS):
        if math.isnan(value):
            return False
        if math.isinf(value):
            return abs(ref) > _DBL_MAX and (value > 0) == (ref > 0)
        err = abs(mp.mpf(value) - ref)
        if abs(ref) < _DBL_MIN:
            return err <= _DBL_MIN
        return err <= rel * abs(ref)
