"""Independent numerical oracle for cross-checking the sign-condition classifier.

Everything here differentiates H's definition: grid scans of the exact
log-derivatives of ln|H| for rise/fall and sign witnesses, and a bisection
search for the sign change of the fourth log-derivative.  The scans never
consult the closed-form invariants or the ratio rule, so agreement between
them and ``classify`` is evidence, not tautology.  The one reader of the
ratio rule is ``four_log_sign_change_search``, which rejects log-affine
input through ``classify_log_convexity_H`` before it searches.

The scans read ``_kernels_py.log_derivs_mag``, which writes the k-th
log-derivative as d1^k phi^(k)(d1 t) - d2^k phi^(k)(d2 t) (+ beta - mu for
k = 1) with phi(x) = ln((e^x - 1)/x): exact up to rounding, regular at
t = 0, and returned with its roundoff floor.  A probe counts as a witness
only beyond SIGN_MARGIN plus that floor.

Every scan, of any order, reads one probe set (``GridSpec``): 200
log-spaced magnitudes in [1e-3, 1e3] and one t per decade from 1e-8 to
1e-4 on each side of 0, and t = 0, 411 probes in all.  ln|H| is convex,
concave or affine, so (ln|H|)' changes sign at most once and one probe on
each side of its turning point confirms a non-monotonic verdict; there is
no second, wider grid to retry on.  Each classifier verdict is a claimed
sign of one log-derivative on one interval, and one rule checks every
claim (``_check_chunk``; ``_check_one`` is its one-draw case).

``cross_validate`` draws and checks 32 draws at a time.  ``_draw_params``
takes a chunk's rows from the generator in blocks, the same bits as one
row at a time, and ``_check_chunk`` is the only place that checks many
draws.  One pass, a ``log_derivs_mag`` call (``_probes``), takes the
chunk's parameters as arrays, one row per draw, and evaluates the
probes' 206 distinct magnitudes s once, each (|d|, s) element on its own
branch only (series or closed forms); it returns each order's values at
+s and at -s, formed by parity, and ``_probes`` signs and cuts them in
place.  The judge (``_rise_fall``) reads every claim of every draw from
those 206 columns, with no gather back to the 411 probes, into (draws x
claims) masks of where a confident rise or fall was seen: an odd order
reads +s on (0, inf) and -s on (-inf, 0), order 1 adds t = 0 on the whole
line, and order 2 reads each s once.  The one-draw scans lay the same
arrays out on an interval's probes (``_on``), so a contradiction's detail
and the public scans read what the judge read.  The pass's cost is mostly
fixed per call, so a chunk pays it once for 32 draws.  A chunk's pass
peaks near 1.2 MB, under what glibc's malloc keeps between passes (twice
the kernel's 0.6 MB output array); a pass that outgrew it would give its
pages back and fault them in again on every chunk.  Every value is elementwise in its row, so a draw's values and outcome are
the same bits alone and in any chunk.  An ``OracleVerdict`` is built only
for a contradiction's detail and for the public one-draw scans
(``grid_monotonicity_check``, ``grid_klog_sign_check``).

``numeric_log_derivative`` stays as the independent finite-difference check
of those values: central differences through the kernel's noise-controlled
scheme (``fd_log_deriv``), which differentiates the affine and ln|t| pieces
of each log term analytically and stencils only the bounded remainder,
each element on the one branch its stencil center picks, over a large t in
blocks of 16384 points.  Every estimate is one kernel call, order 3's
second Richardson level with default steps included.  A non-finite t or
step is rejected with ParameterError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels_py
from ._backend import kernels
from ._kernels_py import DEFAULT_STEPS
from .params import HParams, ParameterError
from .classify import (
    ConvexityKind,
    Direction,
    Interval,
    ThirdOrderKind,
    classify_H,
    classify_log_convexity_H,
)

__all__ = [
    "GridSpec",
    "OracleVerdict",
    "numeric_log_derivative",
    "grid_monotonicity_check",
    "grid_klog_sign_check",
    "four_log_sign_change_search",
    "CrossValidationReport",
    "cross_validate",
    "DEFAULT_STEPS",
    "SIGN_MARGIN",
]

SIGN_MARGIN = 1e-8


def _probe_window() -> tuple[np.ndarray, dict, dict, np.ndarray]:
    """Scan probes, each interval's slice of them, each interval's points
    and the probes' distinct magnitudes (0 first), all read-only: the
    window on each side, the decades 1e-8..1e-4 below it, and t = 0 on the
    whole line."""
    # turning points close to the origin sit below the window when an
    # invariant is near 0; one probe per decade sees them
    mags = np.concatenate([10.0 ** np.arange(-8, -3), np.geomspace(1e-3, 1e3, 200)])
    ts = np.concatenate([-mags[::-1], [0.0], mags])
    ts.flags.writeable = False
    n = len(mags)
    mags = np.concatenate([[0.0], mags])
    mags.flags.writeable = False
    parts = {
        Interval.POSITIVE_HALF_LINE: slice(n + 1, None),
        Interval.NEGATIVE_HALF_LINE: slice(0, n),
        Interval.WHOLE_LINE: slice(None),
    }
    return ts, parts, {iv: ts[s] for iv, s in parts.items()}, mags


class GridSpec:
    """The oracle's one probe set: 200 log-spaced magnitudes in [1e-3, 1e3]
    and one per decade from 1e-8 to 1e-4, mirrored to t < 0, with t = 0 on
    the whole line; 411 probes in all.  Every scan order and the four-log
    search read the same probes on an interval.  Built once at import, so
    every instance hands out the same read-only arrays.  The scans evaluate
    the probes' 206 distinct magnitudes (``_mags``, 0 first) and read
    t < 0 by parity."""

    _ts, _parts, _points, _mags = _probe_window()

    def points(self, interval: Interval) -> np.ndarray:
        return self._points[interval]


@dataclass(frozen=True)
class OracleVerdict:
    """Aggregate of a signed grid scan.

    direction reads the unopposed witnesses: "rises" (rise witnesses and no
    fall witness), "falls" (the reverse), "both" (witnesses of each sign),
    "flat" (none).  Probes inside the noise cut are no witness either way,
    so a log-derivative that decays below it far out reads neither sign
    there.  rise_count/fall_count are the confident witness tallies;
    max_violation is the smaller of the strongest rise and the strongest
    fall (0.0 when unopposed); witness_points holds the t-values of the
    strongest rise and the strongest fall, where present.
    """

    direction: str
    rise_count: int
    fall_count: int
    max_violation: float
    witness_points: tuple[float, ...]

    @property
    def rises(self) -> bool:
        return self.rise_count > 0

    @property
    def falls(self) -> bool:
        return self.fall_count > 0


def _verdict(ts: np.ndarray, probes: np.ndarray, cuts: np.ndarray) -> OracleVerdict:
    """Classify one row of signed probes against its per-point noise cuts.
    A witness is the first probe of the strongest rise or fall."""
    up = probes > cuts
    dn = probes < -cuts
    n_up, n_dn = int(np.count_nonzero(up)), int(np.count_nonzero(dn))
    top = np.argmax(np.where(up, probes, -np.inf))
    bottom = np.argmin(np.where(dn, probes, np.inf))
    t_up, t_dn = float(ts[top]), float(ts[bottom])
    if n_up and n_dn:
        return OracleVerdict("both", n_up, n_dn, min(float(probes[top]), -float(probes[bottom])),
                             (t_up, t_dn))
    if n_up:
        return OracleVerdict("rises", n_up, 0, 0.0, (t_up,))
    if n_dn:
        return OracleVerdict("falls", 0, n_dn, 0.0, (t_dn,))
    return OracleVerdict("flat", 0, 0, 0.0, ())


def numeric_log_derivative(
    params: HParams, t, order: int, step=None
):
    """k-th derivative of ln|H| at t (scalar or array) by central differences.

    Returns (estimate, error_estimate); the error estimate is the spread of
    the two Richardson stages.  The stencil must not straddle the origin:
    the decomposition of the log has a kink there.  Raises ParameterError
    for an order outside 1..4, a non-finite t, a step that is not positive
    and finite, or a stencil that would touch t = 0.
    """
    if order not in (1, 2, 3, 4):
        raise ParameterError("order must be 1..4")
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)):
        raise ParameterError("t values must be finite")
    if step is not None:
        step = np.broadcast_to(np.asarray(step, dtype=np.float64), t_arr.shape)
        # a NaN step fails the comparison and is rejected with the rest
        if not np.all((step > 0.0) & np.isfinite(step)):
            raise ParameterError("step must be positive and finite")
    # the stencil's widest offset times the step; a default step is
    # DEFAULT_STEPS[order] * max(1, |t|), and that reach is below |t| once
    # |t| >= 1
    reach = max(_kernels_py._STENCILS[order][0]) * (DEFAULT_STEPS[order] if step is None else step)
    if np.any(np.abs(t_arr) <= reach):
        raise ParameterError("stencil would touch t = 0; need |t| > step * stencil reach")
    a, b, l, m = params.as_tuple()
    est, err = kernels.fd_log_deriv(a, b, l, m, t_arr, order, step)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(est), float(err)
    return est, err


def _probes(
    draws: list[HParams], orders: tuple[int, ...]
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The order-k log-derivatives at +s and -s for GridSpec's probe
    magnitudes s (0 first) and their noise cuts, {k: (plus, minus, cuts)}
    with one row per draw, from one kernel pass for all draws and orders.
    An even order's minus is its plus.

    Order 1 is signed as sign(H) * (ln|H|)', the derivative of
    sign(H) * ln|H|, which is monotone in t exactly when H is, because
    sign(H) = sign((alpha-beta)(lam-mu)) is constant in t.  A probe is a
    witness beyond its cut, SIGN_MARGIN plus the kernel's roundoff floor.
    """
    a, b, l, m = np.array([p.as_tuple() for p in draws]).T
    derivs = _kernels_py.log_derivs_mag(a, b, l, m, GridSpec._mags, orders)
    # the kernel's arrays are this call's own: sign and cut them in place
    for k, (plus, minus, bound) in derivs.items():
        if k == 1:
            # h_sign of every row at once
            sign = np.where((a > b) == (l > m), 1.0, -1.0)[:, None]
            plus *= sign
            minus *= sign
        bound += SIGN_MARGIN
    return derivs


def _on(interval: Interval, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """One draw's row of values at +s and -s laid out on the interval's
    probes, in GridSpec's order: +s on (0, inf) and -s on (-inf, 0), each
    at s > 0, and the whole line both of them with s = 0 between."""
    if interval is Interval.POSITIVE_HALF_LINE:
        return plus[1:]
    if interval is Interval.NEGATIVE_HALF_LINE:
        return minus[:0:-1]
    return np.concatenate((minus[:0:-1], plus))


def _scan(params: HParams, k: int, interval: Interval) -> OracleVerdict:
    """Sign scan of the order-k log-derivative of one draw over GridSpec's
    probes on the interval; every order reads the same probes there."""
    plus, minus, cuts = _probes([params], (k,))[k]
    return _verdict(GridSpec._points[interval], _on(interval, plus[0], minus[0]),
                    _on(interval, cuts[0], cuts[0]))


def grid_monotonicity_check(params: HParams, interval: Interval) -> OracleVerdict:
    """Scan for rise/fall witnesses of H on the interval: the sign of
    sign(H) * (ln|H|)' on GridSpec's probes."""
    return _scan(params, 1, interval)


def grid_klog_sign_check(params: HParams, interval: Interval, k: int) -> OracleVerdict:
    """Sign scan of the order-k log-derivative over GridSpec's probes on the
    interval, the same probes the monotonicity scan reads.

    "rises" means confident positive probes and no confident negative one
    (no witness against k-log-convexity on the sampled set); probes inside
    SIGN_MARGIN + roundoff floor of zero count as neither sign.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    return _scan(params, k, interval)


def four_log_sign_change_search(params: HParams, interval: Interval) -> float | None:
    """Locate a sign change of the 4th log-derivative on one half line.

    Rejects parameter sets with (alpha-beta)/(lam-mu) equal, within the
    classifier's zero band, to +-1: those are log-affine, and every
    higher log-derivative vanishes identically.  Scans GridSpec's points on
    the half line, |t| from 1e-8 to 1e3, for adjacent points with confident
    opposite signs, preferring the pair farthest above the noise floor,
    then bisects to a relative bracket width of 1e-6.  Returns the crossing
    point, or None when the probes show none.
    """
    if interval is Interval.WHOLE_LINE:
        raise ValueError("search runs on one half line at a time")
    convexity = classify_log_convexity_H(params)
    if convexity.kind is ConvexityKind.LOG_AFFINE:
        raise ValueError("log-affine parameters: order-4 log-derivative is identically 0")
    ts = GridSpec().points(interval)
    a, b, l, m = params.as_tuple()
    est, bound = _kernels_py.log_deriv_h(a, b, l, m, ts, 4)
    confident = np.abs(est) > bound + SIGN_MARGIN
    idx = np.flatnonzero(confident)
    if idx.size < 2:
        return None
    # a noise band often sits right at the crossing, so compare consecutive
    # *confident* points and bracket across any unconfident gap between them
    vals = est[idx]
    sign_flip = vals[:-1] * vals[1:] < 0.0
    if not np.any(sign_flip):
        return None
    strengths = np.where(sign_flip, np.minimum(np.abs(vals[:-1]), np.abs(vals[1:])), -1.0)
    k = int(np.argmax(strengths))
    lo, hi = float(ts[idx[k]]), float(ts[idx[k + 1]])
    f_lo = float(vals[k])
    while abs(hi - lo) > 1e-6 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        est_m = float(_kernels_py.log_deriv_h(a, b, l, m, mid, 4)[0])
        if est_m * f_lo < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, est_m
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# randomized cross-validation


@dataclass
class CrossValidationReport:
    draws: int = 0
    agreements: int = 0
    boundary_skips: int = 0
    contradictions: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.contradictions

    def summary(self) -> str:
        return (
            f"draws={self.draws} agreements={self.agreements} "
            f"boundary_skips={self.boundary_skips} "
            f"contradictions={len(self.contradictions)}"
        )


# the six pairs of the four parameters, as column indices
_PAIRS = np.triu_indices(4, 1)


def _draw_params(rng: np.random.Generator, k: int) -> list[HParams]:
    """k draws uniform on [-5,5]^4, each with every pairwise gap >= 0.05.

    Rows are taken in blocks of as many as are still missing, and the
    passing rows kept in order.  A block of n rows is the same bits as n
    draws of one row, and no row past the k-th passing one is drawn, so
    the draws and the generator's state after them do not depend on k.
    """
    rows = []
    while len(rows) < k:
        block = rng.uniform(-5.0, 5.0, size=(k - len(rows), 4))
        gaps = np.abs(block[:, _PAIRS[0]] - block[:, _PAIRS[1]]).min(axis=1)
        rows += block[gaps >= 0.05].tolist()
    return [HParams(*row) for row in rows]


def _contradiction(params, check, claimed, oracle: OracleVerdict) -> dict:
    return {
        "params": params.as_tuple(),
        "check": check,
        "claimed": claimed,
        "oracle": oracle.direction,
        "witnesses": oracle.witness_points,
    }


# the sign each verdict claims for its log-derivative on every probe (0:
# witnesses of both signs); a third-order kind gives the sign on (0, inf),
# and (-inf, 0) has the other.  Log-affine claims no sign at orders 2 and 3.
_SIGNS = {
    Direction.INCREASING: 1,
    Direction.DECREASING: -1,
    Direction.NON_MONOTONIC: 0,
    ConvexityKind.LOG_CONVEX: 1,
    ConvexityKind.LOG_CONCAVE: -1,
    ThirdOrderKind.CONVEX_POS_CONCAVE_NEG: 1,
    ThirdOrderKind.CONCAVE_POS_CONVEX_NEG: -1,
}
# every claim a report makes, in the order they are judged: (order,
# interval, check tag)
_CHECKS = tuple((1, iv, f"monotonicity {iv.value}") for iv in Interval) + (
    (2, Interval.WHOLE_LINE, "log-convexity"),
    (3, Interval.POSITIVE_HALF_LINE, "3-log (0,inf)"),
    (3, Interval.NEGATIVE_HALF_LINE, "3-log (-inf,0)"),
)


# the intervals in Interval order: iterating the Enum class runs a Python
# generator, once per draw here
_INTERVALS = tuple(Interval)
_POS, _NEG, _WHOLE = (Interval.POSITIVE_HALF_LINE, Interval.NEGATIVE_HALF_LINE,
                      Interval.WHOLE_LINE)


def _claimed(report) -> list:
    """The verdict behind each of _CHECKS."""
    mono = report.monotonicity
    third = report.third_order.kind
    return [mono[iv].direction for iv in _INTERVALS] + [report.convexity.kind, third, third]


def _rise_fall(draws: list[HParams]) -> tuple[np.ndarray, np.ndarray]:
    """(draws x _CHECKS) masks of whether any probe of each claim's scan
    is a confident rise, and whether any is a confident fall, from one
    _probes pass on the 206 magnitudes.

    An odd order reads its +s values on (0, inf) and its -s values on
    (-inf, 0), at s > 0; order 1 on the whole line reads both and s = 0.
    Order 2 is even, so its whole line is every s once.
    """
    probes = _probes(draws, (1, 2, 3))
    rise, fall = {}, {}
    for k in (1, 3):
        plus, minus, cuts = probes[k]
        below = -cuts
        for interval, values in ((_POS, plus), (_NEG, minus)):
            # whole rows compare at a third of the cost of their s > 0 views
            up, dn = values > cuts, values < below
            rise[k, interval] = up[:, 1:].any(axis=1)
            fall[k, interval] = dn[:, 1:].any(axis=1)
    plus, _, cuts = probes[1]
    rise[1, _WHOLE] = rise[1, _POS] | rise[1, _NEG] | (plus[:, 0] > cuts[:, 0])
    fall[1, _WHOLE] = fall[1, _POS] | fall[1, _NEG] | (plus[:, 0] < -cuts[:, 0])
    plus, _, cuts = probes[2]
    rise[2, _WHOLE] = (plus > cuts).any(axis=1)
    fall[2, _WHOLE] = (plus < -cuts).any(axis=1)
    return (np.column_stack([rise[k, iv] for k, iv, _ in _CHECKS]),
            np.column_stack([fall[k, iv] for k, iv, _ in _CHECKS]))


def _check_chunk(draws: list[HParams]) -> list[tuple[str, dict | None]]:
    """Check every classifier verdict for each draw against GridSpec scans,
    all draws in one kernel pass.

    Returns ("agree" | "skip" | "contradiction", detail) per draw.  One
    rule checks every claim: a confident opposing probe is a contradiction;
    a non-monotonic claim (sign 0) without witnesses of both signs is one
    too; a signed claim with no confirming probe makes the draw a boundary
    skip (a tie is invisible at probe resolution), as does a zero-band hit.
    The conditions are if-and-only-if, and (ln|H|)' changes sign at most
    once, so the probes hold one on each side of a turning point.

    The claims are judged from (draws x claims) masks: the claimed signs
    (NaN where no sign is claimed) and whether any probe of the claim's
    scan rises or falls (``_rise_fall``).  Only a contradiction builds an
    OracleVerdict, for the first contradicted claim of its draw, from a
    one-draw scan.
    """
    reports = [classify_H(p) for p in draws]
    claimed = [_claimed(report) for report in reports]
    signs = np.array([[_SIGNS.get(v, np.nan) for v in row] for row in claimed])
    signs[:, -1] *= -1  # the third-order sign on (-inf, 0)
    rise, fall = _rise_fall(draws)
    pos, neg = signs > 0, signs < 0
    contradicted = pos & fall | neg & rise | (signs == 0) & ~(rise & fall)
    unconfirmed = pos & ~rise | neg & ~fall
    skip = unconfirmed.any(axis=1) | [bool(r.zero_band_hits) for r in reports]
    out = [(kind, None) for kind in np.where(skip, "skip", "agree").tolist()]
    for i in np.flatnonzero(contradicted.any(axis=1)).tolist():
        j = int(contradicted[i].argmax())
        k, interval, check = _CHECKS[j]
        p = draws[i]
        detail = _contradiction(p, check, claimed[i][j].value, _scan(p, k, interval))
        out[i] = ("contradiction", detail)
    return out


def _check_one(params: HParams) -> tuple[str, dict | None]:
    """_check_chunk for one draw."""
    return _check_chunk([params])[0]


# draws scanned per kernel pass: the per-call cost is fixed, so a pass over
# many draws pays it once; 32 keeps the pass near 1.2 MB (see the module
# docstring)
_CHUNK = 32


def cross_validate(draws: int, seed: int = 0) -> CrossValidationReport:
    """Random-draw comparison of the closed-form classifier against the oracle.

    Each draw (uniform on [-5,5]^4, rejecting tuples with any pairwise gap
    below 0.05) is classified and then checked: monotonicity on all three
    intervals by order-1 scan, log-convexity by order-2 sign scan, third-order
    verdicts by order-3 sign scans on each half line.  Draws are drawn and
    checked in chunks of _CHUNK, one scan pass per chunk; each draw, and
    its verdicts, are the same as drawn and checked alone.  Deterministic
    for a given (draws, seed); the report satisfies
    draws == agreements + boundary_skips + len(contradictions).
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    report = CrossValidationReport()
    while report.draws < draws:
        chunk = _draw_params(rng, min(_CHUNK, draws - report.draws))
        report.draws += len(chunk)
        for kind, detail in _check_chunk(chunk):
            if kind == "agree":
                report.agreements += 1
            elif kind == "skip":
                report.boundary_skips += 1
            else:
                report.contradictions.append(detail)
    return report
