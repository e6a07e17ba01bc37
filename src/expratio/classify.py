"""Closed-form classification of monotonicity and log-convexity.

The monotonicity calculus is a table of sign conditions on the five
invariants

    A = (a-b)(a+b-l-m)          B = (a-b)(a+b-|a-b|-2l)
    C = (a-b)(a+b+|a-b|-2l)     D = (a-b)(a+b+|a-b|-2m)
    E = (a-b)(a+b-|a-b|-2m)

(with (a, b, l, m) the four exponents), plus the ordering of l and m.
Each (interval, direction) pair has exactly two qualifying branches, one
per ordering; the decision table emitter and the verdict lookup are both
derived from the same branch encoding so they cannot diverge.

One sign rule decides every boundary: a value within the zero band counts
as 0.  Each invariant gets its band sign (-1, 0 or +1, band from
``zero_band_width``) once per call and every verdict reads those signs.
So the monotonicity verdicts and the invariant band hits are a function of
(lambda > mu, the five band signs) alone, at most 2 * 3^5 = 486 keys:
``classify_H`` computes only the invariants and the ratio per call and
looks the verdicts up in a memo of ``_decide`` (``_decision``), which
evaluates the branches once per key; each report gets its own copy of the
memo's verdict dict.  A NaN sign, which fails every condition, is decided
without the memo.

|ratio|, ratio = (a-b)/(l-m), is compared with 1 in one place,
``classify_log_convexity_H``, where ||ratio| - 1| <= ZERO_BAND_EPS is
log-affine, and the third-order verdict follows from that answer.  Band
hits, the invariants whose band sign is 0 and ``"ratio"``, are reported in
``zero_band_hits``.  Q and P are adapters over ``classify_H``:
Q(alpha, beta) is H(-alpha, -beta, 0, -1) and P is H of the logarithms of
its bases; Q's verdicts are mapped from H's by an identity-keyed table.
The enums hash by identity, in C, as they already compare, so no lookup
keyed by them runs Python code.

Useful algebraic facts, relied on by the consistency checks:
C - B = D - E = 2 (a-b)|a-b|, and B + D = C + E = 2A, so the whole-line
conditions imply both half-line conditions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

from .params import HParams, PParams, QParams

__all__ = [
    "Interval",
    "Direction",
    "ConvexityKind",
    "ThirdOrderKind",
    "InvariantSet",
    "MonotonicityVerdict",
    "ConvexityVerdict",
    "ThirdOrderVerdict",
    "ClassificationReport",
    "QReport",
    "compute_invariants",
    "zero_band_width",
    "classify_log_convexity_H",
    "classify_H",
    "classify_P",
    "classify_Q",
    "decision_table",
    "TableRow",
]

ZERO_BAND_EPS = 1e-12


class Interval(Enum):
    POSITIVE_HALF_LINE = "(0,inf)"
    NEGATIVE_HALF_LINE = "(-inf,0)"
    WHOLE_LINE = "(-inf,inf)"

    __hash__ = object.__hash__


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NON_MONOTONIC = "non-monotonic"

    __hash__ = object.__hash__


class ConvexityKind(Enum):
    LOG_CONVEX = "log-convex"
    LOG_CONCAVE = "log-concave"
    LOG_AFFINE = "log-affine"

    __hash__ = object.__hash__


class ThirdOrderKind(Enum):
    CONVEX_POS_CONCAVE_NEG = "3-log-convex on (0,inf), 3-log-concave on (-inf,0)"
    CONCAVE_POS_CONVEX_NEG = "3-log-concave on (0,inf), 3-log-convex on (-inf,0)"
    LOG_AFFINE = "log-affine"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class InvariantSet:
    A: float
    B: float
    C: float
    D: float
    E: float

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in "ABCDE"}


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: Direction
    fired_conditions: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ConvexityVerdict:
    kind: ConvexityKind
    ratio: float
    exponent: float | None = None  # set for the log-affine case: H = e^{exponent * t}


@dataclass(frozen=True)
class ThirdOrderVerdict:
    kind: ThirdOrderKind


@dataclass(frozen=True)
class ClassificationReport:
    invariants: InvariantSet
    monotonicity: dict[Interval, MonotonicityVerdict]
    convexity: ConvexityVerdict
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()


@dataclass(frozen=True)
class QReport:
    monotonicity: dict[Interval, MonotonicityVerdict]
    log_convex: bool
    log_concave: bool
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()


def _invariants(a: float, b: float, l: float, m: float) -> tuple[float, float, float, float, float]:
    """(A, B, C, D, E) of the exponents (a, b, l, m), in that order."""
    d = a - b
    ad = abs(d)
    s = a + b
    return (
        d * (s - l - m),
        d * (s - ad - 2.0 * l),
        d * (s + ad - 2.0 * l),
        d * (s + ad - 2.0 * m),
        d * (s - ad - 2.0 * m),
    )


def compute_invariants(params: HParams) -> InvariantSet:
    return InvariantSet(*_invariants(*params.as_tuple()))


def _band(params: HParams) -> tuple[float, float]:
    """(zero_band_width(params), p2), p2 being the largest power of two not
    above scale = max(|alpha|, |beta|, |lam|, |mu|)."""
    scale = max(abs(params.alpha), abs(params.beta), abs(params.lam), abs(params.mu))
    p2 = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    return ZERO_BAND_EPS * (scale / p2) * (scale / p2), p2


def zero_band_width(params: HParams) -> float:
    """Half-width of the ambiguity band for invariant sign tests, applied to
    the invariants of the parameters divided by p2, the largest power of two
    not above scale = max(|alpha|, |beta|, |lam|, |mu|).

    The invariants are quadratic in the parameters, and dividing by a power
    of two only shifts exponents, so those are the invariants divided by
    p2^2, rounded alike, and this band is ZERO_BAND_EPS * scale^2 / p2^2.
    Unlike the unscaled band and invariants it never overflows: the width
    lies in [ZERO_BAND_EPS, 4 ZERO_BAND_EPS) for every finite parameter set.
    The band is relative at every scale: H(c p)(t) = H(p)(c t), so for
    c = 2^k the scaled invariants, and every verdict, do not change, as
    long as no parameter is subnormal.
    """
    return _band(params)[0]


# Branch encoding shared by the verdict logic and the table emitter.
# The conditions come from reducing H to the two-exponent form Q via
# w = (lambda - mu) t: for lambda < mu that substitution reverses
# orientation, so the half-line rows pair A with D on (0,inf) and with B
# on (-inf,0) in the lambda < mu branches (the whole-line rows use both
# and are orientation-blind).
# Each branch: (ordering, ((invariant, ">=0"/"<=0"), (invariant, ...))),
# ordering "gt" meaning lambda > mu.  Branch order within each entry follows
# the published decision table row order.
_BRANCHES: dict[tuple[Interval, Direction], tuple] = {
    (Interval.POSITIVE_HALF_LINE, Direction.INCREASING): (
        ("gt", (("A", ">=0"), ("C", ">=0"))),
        ("lt", (("A", "<=0"), ("D", "<=0"))),
    ),
    (Interval.POSITIVE_HALF_LINE, Direction.DECREASING): (
        ("lt", (("A", ">=0"), ("D", ">=0"))),
        ("gt", (("A", "<=0"), ("C", "<=0"))),
    ),
    (Interval.NEGATIVE_HALF_LINE, Direction.INCREASING): (
        ("gt", (("A", ">=0"), ("E", ">=0"))),
        ("lt", (("A", "<=0"), ("B", "<=0"))),
    ),
    (Interval.NEGATIVE_HALF_LINE, Direction.DECREASING): (
        ("gt", (("A", "<=0"), ("E", "<=0"))),
        ("lt", (("A", ">=0"), ("B", ">=0"))),
    ),
    (Interval.WHOLE_LINE, Direction.INCREASING): (
        ("gt", (("C", ">=0"), ("E", ">=0"))),
        ("lt", (("B", "<=0"), ("D", "<=0"))),
    ),
    (Interval.WHOLE_LINE, Direction.DECREASING): (
        ("gt", (("C", "<=0"), ("E", "<=0"))),
        ("lt", (("B", ">=0"), ("D", ">=0"))),
    ),
}


def _lookup_from_branches() -> dict[bool, tuple]:
    """lambda > mu -> ((interval, branches), ...) in Interval order, branches
    being the increasing then the decreasing branch of that ordering, each as
    (name1, want1, name2, want2, verdict) with want +1 for ">=0" and -1 for
    "<=0".  Every verdict, fired conditions included, is built here once."""
    want = {">=0": 1, "<=0": -1}
    lookup: dict[bool, dict[Interval, list]] = {True: {}, False: {}}
    for (interval, direction), branches in _BRANCHES.items():
        for ordering, conds in branches:
            gt = ordering == "gt"
            (n1, s1), (n2, s2) = conds
            fired = (("lambda>mu" if gt else "lambda<mu", ""),) + conds
            lookup[gt].setdefault(interval, []).append(
                (n1, want[s1], n2, want[s2], MonotonicityVerdict(direction, fired))
            )
    return {gt: tuple(by_interval.items()) for gt, by_interval in lookup.items()}


_LOOKUP = _lookup_from_branches()
_NON_MONOTONIC = MonotonicityVerdict(Direction.NON_MONOTONIC)
# the invariants each ordering's branches test, in first-tested order
_TESTED = {
    gt: tuple(dict.fromkeys(b[i] for _, branches in table for b in branches for i in (0, 2)))
    for gt, table in _LOOKUP.items()
}


def _decide(lam_gt_mu: bool, signs: tuple) -> tuple[dict, tuple[str, ...]]:
    """The monotonicity verdict per interval and the tested invariants whose
    band sign is 0, for the ordering and the band signs of A..E (a tuple,
    each -1, 0 or +1).  A NaN sign fails every sign condition and is no
    hit.  The caller must not change the returned dict: ``_decision`` hands
    the same one out for every call with the same key."""
    named = dict(zip("ABCDE", signs))
    mono = {}
    for interval, branches in _LOOKUP[lam_gt_mu]:
        for n1, w1, n2, w2, verdict in branches:
            if named[n1] * w1 >= 0 and named[n2] * w2 >= 0:
                break
        else:
            verdict = _NON_MONOTONIC
        mono[interval] = verdict
    return mono, tuple(name for name in _TESTED[lam_gt_mu] if named[name] == 0)


# _decide memoized: classify_H keeps NaN signs out of it, so a key is one of
# 2 orderings and 3^5 sign tuples, and the cache holds at most 486 entries
_decision = functools.cache(_decide)


def classify_log_convexity_H(params: HParams) -> ConvexityVerdict:
    p2 = _band(params)[1]
    a, b, l, m = params.as_tuple()
    return _convexity(a / p2 - b / p2, l / p2 - m / p2, params)


def _convexity(d1: float, d2: float, params: HParams) -> ConvexityVerdict:
    """The only comparison of |ratio|, ratio = (alpha - beta)/(lam - mu),
    with 1, made inside the zero band: H(a, b, l, m) = -H(b, a, l, m), so
    |ratio| decides for every admissible H.  d1 and d2 are the differences
    of the parameters divided by _band's power of two: that division is
    exact, so they cannot overflow where the ratio does not."""
    try:
        ratio = d1 / d2
    except ZeroDivisionError:
        # d2 underflowed to 0; unscaled, lam - mu is not 0
        ratio = (params.alpha - params.beta) / (params.lam - params.mu)
    r = abs(ratio)
    if abs(r - 1.0) <= ZERO_BAND_EPS:
        # H(t) = e^{(beta-mu) t} at ratio 1, -e^{(alpha-mu) t} at ratio -1
        anchor = params.beta if ratio > 0.0 else params.alpha
        return ConvexityVerdict(ConvexityKind.LOG_AFFINE, ratio, exponent=anchor - params.mu)
    kind = ConvexityKind.LOG_CONVEX if r > 1.0 else ConvexityKind.LOG_CONCAVE
    return ConvexityVerdict(kind, ratio)


# Reduction to the two-exponent form: (ln H)'''(t) = (lam-mu)^3 times the
# third log-derivative of Q at w = (lam-mu)t.  The odd power flips the sign
# exactly when the substitution flips the half-lines, so the two effects
# cancel and the verdict depends on |ratio| alone, read here from the
# convexity kind; log-affine H has every log-derivative of order >= 2 at 0.
_THIRD_ORDER = {
    ConvexityKind.LOG_CONCAVE: ThirdOrderVerdict(ThirdOrderKind.CONVEX_POS_CONCAVE_NEG),
    ConvexityKind.LOG_CONVEX: ThirdOrderVerdict(ThirdOrderKind.CONCAVE_POS_CONVEX_NEG),
    ConvexityKind.LOG_AFFINE: ThirdOrderVerdict(ThirdOrderKind.LOG_AFFINE),
}


def classify_H(params: HParams) -> ClassificationReport:
    band, p2 = _band(params)
    a, b, l, m = params.as_tuple()
    qa, qb, ql, qm = a / p2, b / p2, l / p2, m / p2
    # band sign: -1, 0 or +1, with 0 meaning -band <= x <= band; NaN stays
    # NaN and so fails every sign condition, as the plain comparisons do
    signs = tuple([(x > band) - (x < -band) if x == x else x for x in _invariants(qa, qb, ql, qm)])
    # a NaN is a new cache key at every call: decide it without the memo
    decide = _decision if math.isfinite(sum(signs)) else _decide
    mono, hits = decide(l > m, signs)
    convexity = _convexity(qa - qb, ql - qm, params)
    if convexity.kind is ConvexityKind.LOG_AFFINE:
        hits += ("ratio",)
    return ClassificationReport(
        invariants=InvariantSet(*_invariants(a, b, l, m)),
        # a copy, so that no two reports share a dict
        monotonicity=mono.copy(),
        convexity=convexity,
        third_order=_THIRD_ORDER[convexity.kind],
        zero_band_hits=hits,
    )


def classify_P(params: PParams) -> ClassificationReport:
    """The report of H at the logarithms of the bases, unchanged."""
    return classify_H(params.log_params())


# ---------------------------------------------------------------------------
# two-exponent function Q = H(-alpha, -beta, 0, -1): lambda > mu, and the
# invariants A, C, E are Q's own q1, q2, q3

_Q_NAMES = {"A": "q1", "C": "q2", "E": "q3", "ratio": "ratio"}
# keyed by the id of each H verdict _decide hands out, which _LOOKUP and
# _NON_MONOTONIC keep alive: an id is hashed in C, a frozen dataclass in
# Python
_Q_VERDICTS = {
    id(v): MonotonicityVerdict(
        v.direction, tuple((_Q_NAMES[n], s) for n, s in v.fired_conditions[1:]))
    for v in [_NON_MONOTONIC] + [b[4] for _, branches in _LOOKUP[True] for b in branches]
}


def classify_Q(params: QParams) -> QReport:
    report = classify_H(params.h_params())
    kind = report.convexity.kind
    return QReport(
        monotonicity={iv: _Q_VERDICTS[id(v)] for iv, v in report.monotonicity.items()},
        log_convex=kind is ConvexityKind.LOG_CONVEX,
        log_concave=kind is ConvexityKind.LOG_CONCAVE,
        third_order=report.third_order,
        zero_band_hits=tuple(_Q_NAMES[n] for n in report.zero_band_hits),
    )


# ---------------------------------------------------------------------------
# decision table

@dataclass(frozen=True)
class TableRow:
    interval: str
    direction: str
    constraints: dict[str, str]  # invariant -> ">=0"/"<=0" (absent: no constraint)
    ordering: str  # "lambda>mu" or "lambda<mu"

    def csv_cells(self) -> list[str]:
        return [
            self.interval,
            self.direction,
            *(self.constraints.get(k, "") for k in "ABCDE"),
            self.ordering,
        ]


def decision_table() -> list[TableRow]:
    """The twelve-row monotonicity decision table, generated from the same
    branch encoding the classifier evaluates."""
    rows = []
    for interval in (Interval.POSITIVE_HALF_LINE, Interval.NEGATIVE_HALF_LINE, Interval.WHOLE_LINE):
        for direction in (Direction.INCREASING, Direction.DECREASING):
            for ordering, conds in _BRANCHES[(interval, direction)]:
                rows.append(
                    TableRow(
                        interval=interval.value,
                        direction=direction.value,
                        constraints={name: sign for name, sign in conds},
                        ordering="lambda>mu" if ordering == "gt" else "lambda<mu",
                    )
                )
    return rows
