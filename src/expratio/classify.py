"""Closed-form classification of monotonicity and log-convexity.

The monotonicity calculus is a table of sign conditions on the five
invariants

    A = (a-b)(a+b-l-m)          B = (a-b)(a+b-|a-b|-2l)
    C = (a-b)(a+b+|a-b|-2l)     D = (a-b)(a+b+|a-b|-2m)
    E = (a-b)(a+b-|a-b|-2m)

(with (a, b, l, m) the four exponents), plus the ordering of l and m.
Each (interval, direction) pair has exactly two qualifying branches, one
per ordering; the decision table emitter and the verdict table are both
derived from the same branch encoding so they cannot diverge.

One sign rule decides every boundary: a value within the zero band counts
as 0.  Each invariant gets its band sign (-1, 0 or +1, band from
``zero_band_width``) once per call and every verdict reads those signs.
So the monotonicity verdicts and the invariant band hits are a function of
(lambda > mu, the five band signs) alone, 2 * 3^5 = 486 keys.  One table,
``_DECISIONS``, built from the branches at import, holds all of them:
``classify_H`` computes only the invariants and the ratio per call and
reads its verdicts there; each report gets its own copy of the table's
verdict dict.

|ratio|, ratio = (a-b)/(l-m), is compared with 1 in one place,
``classify_log_convexity_H``, where ||ratio| - 1| <= ZERO_BAND_EPS is
log-affine, and the third-order verdict follows from that answer.  Band
hits, the invariants whose band sign is 0 and ``"ratio"``, are reported in
``zero_band_hits``.  Q and P are adapters over ``classify_H``:
Q(alpha, beta) is H(-alpha, -beta, 0, -1) and P is H of the logarithms of
its bases; Q's verdicts are mapped from H's by an identity-keyed table.
The enums hash by identity, in C, as they already compare, so no lookup
keyed by them runs Python code.

The records built on every call (``InvariantSet``, ``ConvexityVerdict``,
``ClassificationReport`` and ``QReport``) are slotted frozen dataclasses
whose hand-written ``__init__`` sets each field once through its slot
descriptor, as the parameter records in ``params`` do: a generated frozen
``__init__`` goes through ``object.__setattr__`` per field, which would
cost about a third of a ``classify_H`` call.  Each such ``__init__`` must take
the dataclass fields, in field order and with their defaults;
tests/test_classify.py pins that for every such record.

Useful algebraic facts, relied on by the consistency checks:
C - B = D - E = 2 (a-b)|a-b|, and B + D = C + E = 2A, so the whole-line
conditions imply both half-line conditions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .params import HParams, PParams, QParams, _slot_setters

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


@dataclass(frozen=True, slots=True, init=False)
class InvariantSet:
    A: float
    B: float
    C: float
    D: float
    E: float

    def __init__(self, A: float, B: float, C: float, D: float, E: float):
        _set_inv_A(self, A)
        _set_inv_B(self, B)
        _set_inv_C(self, C)
        _set_inv_D(self, D)
        _set_inv_E(self, E)

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in "ABCDE"}


_set_inv_A, _set_inv_B, _set_inv_C, _set_inv_D, _set_inv_E = _slot_setters(InvariantSet)


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: Direction
    fired_conditions: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True, init=False)
class ConvexityVerdict:
    kind: ConvexityKind
    ratio: float
    exponent: float | None = None  # set for the log-affine case: H = e^{exponent * t}

    def __init__(self, kind: ConvexityKind, ratio: float, exponent: float | None = None):
        _set_cv_kind(self, kind)
        _set_cv_ratio(self, ratio)
        _set_cv_exponent(self, exponent)


_set_cv_kind, _set_cv_ratio, _set_cv_exponent = _slot_setters(ConvexityVerdict)


@dataclass(frozen=True)
class ThirdOrderVerdict:
    kind: ThirdOrderKind


@dataclass(frozen=True, slots=True, init=False)
class ClassificationReport:
    invariants: InvariantSet
    monotonicity: dict[Interval, MonotonicityVerdict]
    convexity: ConvexityVerdict
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()

    def __init__(self, invariants: InvariantSet,
                 monotonicity: dict[Interval, MonotonicityVerdict],
                 convexity: ConvexityVerdict, third_order: ThirdOrderVerdict,
                 zero_band_hits: tuple[str, ...] = ()):
        _set_cr_invariants(self, invariants)
        _set_cr_monotonicity(self, monotonicity)
        _set_cr_convexity(self, convexity)
        _set_cr_third_order(self, third_order)
        _set_cr_zero_band_hits(self, zero_band_hits)


(_set_cr_invariants, _set_cr_monotonicity, _set_cr_convexity, _set_cr_third_order,
 _set_cr_zero_band_hits) = _slot_setters(ClassificationReport)


@dataclass(frozen=True, slots=True, init=False)
class QReport:
    monotonicity: dict[Interval, MonotonicityVerdict]
    log_convex: bool
    log_concave: bool
    third_order: ThirdOrderVerdict
    zero_band_hits: tuple[str, ...] = ()

    def __init__(self, monotonicity: dict[Interval, MonotonicityVerdict],
                 log_convex: bool, log_concave: bool, third_order: ThirdOrderVerdict,
                 zero_band_hits: tuple[str, ...] = ()):
        _set_qr_monotonicity(self, monotonicity)
        _set_qr_log_convex(self, log_convex)
        _set_qr_log_concave(self, log_concave)
        _set_qr_third_order(self, third_order)
        _set_qr_zero_band_hits(self, zero_band_hits)


(_set_qr_monotonicity, _set_qr_log_convex, _set_qr_log_concave, _set_qr_third_order,
 _set_qr_zero_band_hits) = _slot_setters(QReport)


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


_NON_MONOTONIC = MonotonicityVerdict(Direction.NON_MONOTONIC)


def _build_decisions() -> dict[tuple[bool, tuple[int, ...]], tuple[dict, tuple[str, ...]]]:
    """(lambda > mu, band signs of A..E) -> (verdict per interval, tested
    invariants whose band sign is 0), for both orderings and all 3^5 sign
    tuples.  On each interval the verdict is the first branch of the
    ordering whose two conditions hold, increasing before decreasing, and
    non-monotonic if none does.  Each branch's verdict, fired conditions
    included, is built once and shared by every key it decides."""
    want = {">=0": 1, "<=0": -1}
    branches: dict[tuple[bool, Interval], list] = {}
    for (interval, direction), pair in _BRANCHES.items():
        for ordering, conds in pair:
            gt = ordering == "gt"
            fired = (("lambda>mu" if gt else "lambda<mu", ""),) + conds
            branches.setdefault((gt, interval), []).append(
                ([(n, want[s]) for n, s in conds], MonotonicityVerdict(direction, fired)))
    table = {}
    for gt in (True, False):
        # the invariants this ordering's branches test, in first-tested order
        tested = tuple(dict.fromkeys(
            n for iv in Interval for conds, _ in branches[gt, iv] for n, _ in conds))
        for signs in itertools.product((-1, 0, 1), repeat=5):
            named = dict(zip("ABCDE", signs))
            mono = {
                iv: next((v for conds, v in branches[gt, iv]
                          if all(named[n] * w >= 0 for n, w in conds)), _NON_MONOTONIC)
                for iv in Interval
            }
            table[gt, signs] = (mono, tuple(n for n in tested if named[n] == 0))
    return table


# no caller may change an entry's verdict dict: every call with the same key
# reads the same one
_DECISIONS = _build_decisions()


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
    # band sign: -1, 0 or +1, with 0 meaning -band <= x <= band; each |q| is
    # below 2, so every scaled invariant is finite
    A, B, C, D, E = _invariants(qa, qb, ql, qm)
    nb = -band
    signs = ((A > band) - (A < nb), (B > band) - (B < nb), (C > band) - (C < nb),
             (D > band) - (D < nb), (E > band) - (E < nb))
    mono, hits = _DECISIONS[l > m, signs]
    convexity = _convexity(qa - qb, ql - qm, params)
    if convexity.kind is ConvexityKind.LOG_AFFINE:
        hits += ("ratio",)
    # the verdict dict is a copy, so that no two reports share one
    return ClassificationReport(InvariantSet(*_invariants(a, b, l, m)), mono.copy(),
                                convexity, _THIRD_ORDER[convexity.kind], hits)


def classify_P(params: PParams) -> ClassificationReport:
    """The report of H at the logarithms of the bases, unchanged."""
    return classify_H(params.log_params())


# ---------------------------------------------------------------------------
# two-exponent function Q = H(-alpha, -beta, 0, -1): lambda > mu, and the
# invariants A, C, E are Q's own q1, q2, q3

_Q_NAMES = {"A": "q1", "C": "q2", "E": "q3", "ratio": "ratio"}
# keyed by the id of each H verdict _DECISIONS holds, which keeps them alive:
# an id is hashed in C, a frozen dataclass in Python
_Q_VERDICTS = {
    id(v): MonotonicityVerdict(
        v.direction, tuple((_Q_NAMES[n], s) for n, s in v.fired_conditions[1:]))
    for (gt, _), (mono, _) in _DECISIONS.items() if gt
    for v in mono.values()
}


_POS, _NEG, _WHOLE = Interval
_Q_NAME = _Q_NAMES.__getitem__


def classify_Q(params: QParams) -> QReport:
    report = classify_H(params.h_params())
    mono = report.monotonicity
    kind = report.convexity.kind
    # in Interval order, as H's verdict dict holds them
    return QReport(
        {_POS: _Q_VERDICTS[id(mono[_POS])], _NEG: _Q_VERDICTS[id(mono[_NEG])],
         _WHOLE: _Q_VERDICTS[id(mono[_WHOLE])]},
        kind is ConvexityKind.LOG_CONVEX,
        kind is ConvexityKind.LOG_CONCAVE,
        report.third_order,
        tuple(map(_Q_NAME, report.zero_band_hits)),
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
