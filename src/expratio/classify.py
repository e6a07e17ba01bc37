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
``zero_band_width``) once per call and every verdict reads those signs; the
ratio (a-b)/(l-m) is compared with 1 in one place,
``classify_log_convexity_H``, where |ratio - 1| <= ZERO_BAND_EPS is
log-affine, and the third-order verdict follows from that answer.  Band
hits, ``"ratio"`` among them, are reported in ``zero_band_hits``.  Q and P
are adapters over ``classify_H``: Q(alpha, beta) is H(-alpha, -beta, 0, -1)
and P is H of the logarithms of its bases.

Useful algebraic facts, relied on by the consistency checks:
C - B = D - E = 2 (a-b)|a-b|, and B + D = C + E = 2A, so the whole-line
conditions imply both half-line conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .params import HParams, PParams, QParams

__all__ = [
    "Interval",
    "Direction",
    "ConvexityKind",
    "ThirdOrderKind",
    "InvariantSet",
    "FrakInvariantSet",
    "MonotonicityVerdict",
    "ConvexityVerdict",
    "ThirdOrderVerdict",
    "ClassificationReport",
    "QReport",
    "compute_invariants",
    "compute_frak_invariants",
    "zero_band_width",
    "classify_monotonicity_H",
    "classify_log_convexity_H",
    "classify_3log_H",
    "classify_H",
    "classify_P",
    "classify_monotonicity_Q",
    "classify_Q",
    "decision_table",
    "TableRow",
]

ZERO_BAND_EPS = 1e-12


class Interval(Enum):
    POSITIVE_HALF_LINE = "(0,inf)"
    NEGATIVE_HALF_LINE = "(-inf,0)"
    WHOLE_LINE = "(-inf,inf)"


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NON_MONOTONIC = "non-monotonic"


class ConvexityKind(Enum):
    LOG_CONVEX = "log-convex"
    LOG_CONCAVE = "log-concave"
    LOG_AFFINE = "log-affine"
    NOT_COVERED = "not-covered"


class ThirdOrderKind(Enum):
    CONVEX_POS_CONCAVE_NEG = "3-log-convex on (0,inf), 3-log-concave on (-inf,0)"
    CONCAVE_POS_CONVEX_NEG = "3-log-concave on (0,inf), 3-log-convex on (-inf,0)"
    NOT_COVERED = "not-covered"


@dataclass(frozen=True)
class InvariantSet:
    A: float
    B: float
    C: float
    D: float
    E: float

    def get(self, name: str) -> float:
        return getattr(self, name)

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in "ABCDE"}


@dataclass(frozen=True)
class FrakInvariantSet(InvariantSet):
    """Same five quantities expressed through the logarithms of (r,s,u,v)."""


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
    sufficient_only: bool = True


@dataclass(frozen=True)
class ClassificationReport:
    invariants: InvariantSet
    monotonicity: dict[Interval, MonotonicityVerdict]
    convexity: ConvexityVerdict
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()
    frak_invariants: FrakInvariantSet | None = None


@dataclass(frozen=True)
class QReport:
    monotonicity: dict[Interval, MonotonicityVerdict]
    log_convex: bool
    log_concave: bool
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()


def _invariant_values(a: float, b: float, l: float, m: float) -> dict[str, float]:
    d = a - b
    ad = abs(d)
    return {
        "A": d * (a + b - l - m),
        "B": d * (a + b - ad - 2.0 * l),
        "C": d * (a + b + ad - 2.0 * l),
        "D": d * (a + b + ad - 2.0 * m),
        "E": d * (a + b - ad - 2.0 * m),
    }


def compute_invariants(params: HParams) -> InvariantSet:
    return InvariantSet(**_invariant_values(*params.as_tuple()))


def compute_frak_invariants(params: PParams) -> FrakInvariantSet:
    r, s, u, v = params.r, params.s, params.u, params.v
    lr_s = math.log(r / s)
    alr_s = abs(lr_s)
    return FrakInvariantSet(
        A=math.log(r * s / (u * v)) * lr_s,
        B=(math.log(r * s / (u * u)) - alr_s) * lr_s,
        C=(math.log(r * s / (u * u)) + alr_s) * lr_s,
        D=(math.log(r * s / (v * v)) + alr_s) * lr_s,
        E=(math.log(r * s / (v * v)) - alr_s) * lr_s,
    )


def _band(params: HParams) -> tuple[float, float]:
    """(zero_band_width(params), p2), p2 being the largest power of two not
    above scale = max(1, |alpha|, |beta|, |lam|, |mu|)."""
    scale = max(1.0, abs(params.alpha), abs(params.beta), abs(params.lam), abs(params.mu))
    p2 = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    return ZERO_BAND_EPS * (scale / p2) * (scale / p2), p2


def zero_band_width(params: HParams) -> float:
    """Half-width of the ambiguity band for invariant sign tests, applied to
    the invariants of the parameters divided by p2, the largest power of two
    not above scale = max(1, |alpha|, |beta|, |lam|, |mu|).

    The invariants are quadratic in the parameters, and dividing by a power
    of two only shifts exponents, so those are the invariants divided by
    p2^2, rounded alike, and this band is ZERO_BAND_EPS * scale^2 / p2^2.
    Unlike the unscaled band and invariants it never overflows: the width
    lies in [ZERO_BAND_EPS, 4 ZERO_BAND_EPS) for every finite parameter set.
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


def classify_monotonicity_H(params: HParams, interval: Interval) -> MonotonicityVerdict:
    return classify_H(params).monotonicity[interval]


def classify_log_convexity_H(params: HParams) -> ConvexityVerdict:
    """The only comparison of the ratio with 1, made inside the zero band.
    The ratio's sign needs no band: alpha != beta keeps it off 0."""
    ratio = (params.alpha - params.beta) / (params.lam - params.mu)
    if abs(ratio - 1.0) <= ZERO_BAND_EPS:
        # H(t) = e^{(beta-mu) t}, exactly so when ratio == 1
        return ConvexityVerdict(ConvexityKind.LOG_AFFINE, ratio, exponent=params.beta - params.mu)
    if ratio > 1.0:
        return ConvexityVerdict(ConvexityKind.LOG_CONVEX, ratio)
    if 0.0 < ratio < 1.0:
        return ConvexityVerdict(ConvexityKind.LOG_CONCAVE, ratio)
    return ConvexityVerdict(ConvexityKind.NOT_COVERED, ratio)


# Reduction to the two-exponent form: (ln H)'''(t) = (lam-mu)^3 times the
# third log-derivative of Q at w = (lam-mu)t.  The odd power flips the sign
# exactly when the substitution flips the half-lines, so the two effects
# cancel and the verdict depends on the ratio alone, read here from the
# convexity kind.
_THIRD_ORDER = {
    ConvexityKind.LOG_CONCAVE: ThirdOrderVerdict(ThirdOrderKind.CONVEX_POS_CONCAVE_NEG),
    ConvexityKind.LOG_CONVEX: ThirdOrderVerdict(ThirdOrderKind.CONCAVE_POS_CONVEX_NEG),
    ConvexityKind.LOG_AFFINE: ThirdOrderVerdict(ThirdOrderKind.NOT_COVERED),
    ConvexityKind.NOT_COVERED: ThirdOrderVerdict(ThirdOrderKind.NOT_COVERED),
}


def classify_3log_H(params: HParams) -> ThirdOrderVerdict:
    return _THIRD_ORDER[classify_log_convexity_H(params).kind]


def classify_H(params: HParams) -> ClassificationReport:
    inv = compute_invariants(params)
    band, p2 = _band(params)
    a, b, l, m = params.as_tuple()
    values = _invariant_values(a / p2, b / p2, l / p2, m / p2)
    # band sign: -1, 0 or +1, with 0 meaning -band <= x <= band; NaN stays
    # NaN and so fails every sign condition, as the plain comparisons do
    signs = {name: (x > band) - (x < -band) if x == x else x for name, x in values.items()}
    lam_gt_mu = params.lam > params.mu
    mono = {}
    for interval, branches in _LOOKUP[lam_gt_mu]:
        for n1, w1, n2, w2, verdict in branches:
            if signs[n1] * w1 >= 0 and signs[n2] * w2 >= 0:
                break
        else:
            verdict = _NON_MONOTONIC
        mono[interval] = verdict
    convexity = classify_log_convexity_H(params)
    hits = tuple(name for name in _TESTED[lam_gt_mu] if abs(values[name]) < band)
    if convexity.kind is ConvexityKind.LOG_AFFINE:
        hits += ("ratio",)
    return ClassificationReport(
        invariants=inv,
        monotonicity=mono,
        convexity=convexity,
        third_order=_THIRD_ORDER[convexity.kind],
        zero_band_hits=hits,
    )


def classify_P(params: PParams) -> ClassificationReport:
    """Classify the positive-base ratio: identical calculus via logarithms,
    with the invariants also reported in their base form."""
    return replace(classify_H(params.log_params()), frak_invariants=compute_frak_invariants(params))


# ---------------------------------------------------------------------------
# two-exponent function Q = H(-alpha, -beta, 0, -1): lambda > mu, and the
# invariants A, C, E are Q's own q1, q2, q3

_Q_NAMES = {"A": "q1", "C": "q2", "E": "q3", "ratio": "ratio"}
_Q_VERDICTS = {
    v: MonotonicityVerdict(v.direction, tuple((_Q_NAMES[n], s) for n, s in v.fired_conditions[1:]))
    for v in [_NON_MONOTONIC] + [b[4] for _, branches in _LOOKUP[True] for b in branches]
}


def classify_monotonicity_Q(params: QParams, interval: Interval) -> MonotonicityVerdict:
    return classify_Q(params).monotonicity[interval]


def classify_Q(params: QParams) -> QReport:
    report = classify_H(params.h_params())
    kind = report.convexity.kind
    return QReport(
        monotonicity={iv: _Q_VERDICTS[v] for iv, v in report.monotonicity.items()},
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
