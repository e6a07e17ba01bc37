"""Independent numerical oracle for cross-checking the sign-condition classifier.

Everything here works from function evaluations only: central finite
differences of the log of the ratio, grid scans for rise/fall witnesses, and
a bisection search for the sign change of the fourth log-derivative.  None of
it consults the closed-form invariants, so agreement between this module and
``classify`` is evidence, not tautology.

The finite differences run through the kernel's noise-controlled scheme
(``fd_log_deriv``): the exactly-known affine and ln|t| pieces of each log
term are differentiated analytically and only the bounded remainder is
stencilled, so the rounding floor tracks the local derivative scale instead
of the possibly huge magnitude of log H itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._backend import kernels
from .params import HParams
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

# Default stencil steps per derivative order (scaled by max(1, |t|) at each
# point).  The noise floor of a central difference grows like eps/h^k, so
# higher orders need a coarser step; these keep the error estimate a few
# orders of magnitude below the 1e-8 sign margins used by the checks.
DEFAULT_STEPS = {1: 1e-4, 2: 1e-4, 3: 4e-3, 4: 1e-2}

SIGN_MARGIN = 1e-8

# absolute slack on consecutive differences of ln|H| in grid scans
MONO_TOL = 1e-11


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced probe grid: magnitudes in [t_min, t_max], mirrored to t<0
    when include_negative is set.  Each instance builds its points once and
    hands out the same read-only arrays on every call."""

    t_min: float = 1e-3
    t_max: float = 10.0
    points_per_side: int = 200
    include_negative: bool = True

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.points_per_side < 8:
            raise ValueError("need at least 8 points per side")

    @cached_property
    def _points(self) -> dict[Interval, np.ndarray]:
        pos = np.geomspace(self.t_min, self.t_max, self.points_per_side)
        neg = -pos[::-1]
        pts = {
            Interval.POSITIVE_HALF_LINE: pos,
            Interval.NEGATIVE_HALF_LINE: neg,
            Interval.WHOLE_LINE: np.concatenate([neg, pos]),
        }
        for arr in pts.values():
            arr.flags.writeable = False
        return pts

    def side(self, positive: bool) -> np.ndarray:
        return self._points[
            Interval.POSITIVE_HALF_LINE if positive else Interval.NEGATIVE_HALF_LINE
        ]

    def points(self, interval: Interval) -> np.ndarray:
        if interval is Interval.NEGATIVE_HALF_LINE and not self.include_negative:
            raise ValueError("grid excludes negative t")
        return self._points[interval]


_DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class OracleVerdict:
    """Aggregate of a signed grid scan.

    direction: "rises" (every probe positive), "falls" (every probe
    negative), "both" (confident witnesses of each sign), "flat" (anything
    else).  rise_count/fall_count are the confident witness tallies;
    max_violation is the largest confident probe opposing the majority sign
    (0.0 when unopposed); witness_points holds up to 4 t-values: strongest
    rise, strongest fall.
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


def _aggregate(ts: np.ndarray, probes: np.ndarray, cuts: np.ndarray) -> OracleVerdict:
    """Classify a vector of signed probes against per-point noise cuts."""
    up = probes > cuts
    dn = probes < -cuts
    n_up = int(np.count_nonzero(up))
    n_dn = int(np.count_nonzero(dn))
    witnesses: list[float] = []
    if n_up:
        witnesses.append(float(ts[np.argmax(np.where(up, probes, -np.inf))]))
    if n_dn:
        witnesses.append(float(ts[np.argmin(np.where(dn, probes, np.inf))]))
    if n_up and n_dn:
        direction = "both"
        max_violation = float(min(np.max(probes[up]), -np.min(probes[dn])))
    elif n_up == len(probes):
        direction, max_violation = "rises", 0.0
    elif n_dn == len(probes):
        direction, max_violation = "falls", 0.0
    else:
        direction = "flat"
        max_violation = 0.0
    return OracleVerdict(direction, n_up, n_dn, max_violation, tuple(witnesses[:4]))


def _default_step(t, order: int):
    return DEFAULT_STEPS[order] * np.maximum(1.0, np.abs(t))


def _stencil_reach(order: int) -> float:
    # widest offset used by the difference stencils, in units of step
    return 2.0 if order >= 3 else 1.0


def numeric_log_derivative(
    params: HParams, t, order: int, step=None
):
    """k-th derivative of ln|H| at t (scalar or array) by central differences.

    Returns (estimate, error_estimate); the error estimate is the spread of
    the two Richardson stages.  The stencil must not straddle the origin:
    the decomposition of the log has a kink there.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be 1..4")
    t_arr = np.asarray(t, dtype=np.float64)
    if step is None:
        step_arr = _default_step(t_arr, order)
    else:
        step_arr = np.broadcast_to(np.asarray(step, dtype=np.float64), t_arr.shape)
        if np.any(step_arr <= 0.0):
            raise ValueError("step must be positive")
    reach = _stencil_reach(order)
    if np.any(np.abs(t_arr) <= reach * step_arr):
        raise ValueError("stencil would touch t = 0; need |t| > step * stencil reach")
    a, b, l, m = params.as_tuple()
    est, err = kernels.fd_log_deriv(a, b, l, m, t_arr, order, step_arr)
    if order == 3 and step is None:
        # third differences are roundoff-limited near 1e-6 at any single
        # step; one more Richardson level (O(h^2) pair inside the kernel,
        # O(h^4) pair here) buys back two orders of magnitude.  The error
        # estimate keeps a floor at the roundoff scale eps / h^3 of the
        # finest inner step, which the stage spread cannot see.
        est_half, _ = kernels.fd_log_deriv(a, b, l, m, t_arr, order, 0.5 * step_arr)
        refined = (16.0 * est_half - est) / 15.0
        floor = np.finfo(np.float64).eps / (0.5 * step_arr) ** 3
        err = np.maximum(np.abs(refined - est_half), floor)
        est = refined
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(est), float(err)
    return est, err


def _monotonicity_scan(
    params: HParams, grid: GridSpec, tol: float = MONO_TOL
) -> dict[Interval, OracleVerdict]:
    """Rise/fall scans of all three intervals from one kernel call.

    sign(H) * ln|H| is monotone in t exactly when H is, because sign(H) =
    sign((alpha-beta)(lam-mu)) is constant in t.  It is evaluated once on
    the whole-line grid with the continuity value inserted at the origin;
    each half line aggregates its own slice of the consecutive differences,
    which are elementwise those of a scan of that half line alone.
    """
    ts = grid.points(Interval.WHOLE_LINE)
    half = len(ts) // 2
    a, b, l, m = params.as_tuple()
    sgn = 1.0 if (a - b) * (l - m) > 0 else -1.0
    logs = kernels.log_abs_h(a, b, l, m, ts)
    vals = sgn * np.concatenate([logs[:half], [math.log(abs((a - b) / (l - m)))], logs[half:]])
    knots = np.concatenate([ts[:half], [0.0], ts[half:]])
    diffs = np.diff(vals)
    mids = 0.5 * (knots[:-1] + knots[1:])
    cuts = np.full(diffs.shape, tol)
    # the two differences that touch the origin belong to the whole line only
    parts = {
        Interval.POSITIVE_HALF_LINE: slice(half + 1, None),
        Interval.NEGATIVE_HALF_LINE: slice(0, half - 1),
        Interval.WHOLE_LINE: slice(None),
    }
    return {iv: _aggregate(mids[s], diffs[s], cuts[s]) for iv, s in parts.items()}


def grid_monotonicity_check(
    params: HParams, interval: Interval, grid: GridSpec | None = None, tol: float = MONO_TOL
) -> OracleVerdict:
    """Scan for rise/fall witnesses of H on the interval.

    ``tol`` is the absolute slack on consecutive differences of the signed
    log of H (equivalent to relative slack on H itself); moves inside it are
    treated as flat.
    """
    grid = grid or _DEFAULT_GRID
    grid.points(interval)  # rejects (-inf,0) on a grid without negative t
    return _monotonicity_scan(params, grid, tol)[interval]


def _klog_scan(
    params: HParams, k: int, grid: GridSpec, margin: float, intervals: tuple[Interval, ...]
) -> dict[Interval, OracleVerdict]:
    """Order-k sign scans of the given intervals from one FD call over the
    kept whole-line points, split at the origin."""
    ts = grid.points(Interval.WHOLE_LINE)
    steps = _default_step(ts, k)
    keep = np.abs(ts) > 10.0 * steps
    ts, steps = ts[keep], steps[keep]
    est, err = numeric_log_derivative(params, ts, k, steps)
    cuts = margin + err
    n_neg = int(np.count_nonzero(ts < 0.0))
    parts = {
        Interval.POSITIVE_HALF_LINE: slice(n_neg, None),
        Interval.NEGATIVE_HALF_LINE: slice(0, n_neg),
        Interval.WHOLE_LINE: slice(None),
    }
    return {iv: _aggregate(ts[s], est[s], cuts[s]) for iv, s in parts.items() if iv in intervals}


def grid_klog_sign_check(
    params: HParams,
    interval: Interval,
    k: int,
    grid: GridSpec | None = None,
    margin: float = SIGN_MARGIN,
) -> OracleVerdict:
    """Sign scan of the order-k log-derivative over the grid.

    "rises" means every probe is confidently positive (k-log-convex on the
    sampled set).  Points within 10 steps of the origin are dropped; probes
    inside margin + FD error estimate of zero count as neither sign.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    grid = grid or _DEFAULT_GRID
    grid.points(interval)  # rejects (-inf,0) on a grid without negative t
    return _klog_scan(params, k, grid, margin, (interval,))[interval]


def four_log_sign_change_search(
    params: HParams,
    interval: Interval,
    grid: GridSpec | None = None,
    width: float = 1e-6,
) -> float | None:
    """Locate a sign change of the 4th log-derivative on one half line.

    Rejects parameter sets with (alpha-beta)/(lam-mu) equal to 0 or, within
    the classifier's zero band, to 1: those are log-affine, and every higher
    log-derivative vanishes identically.  Scans for adjacent grid points
    with confident opposite FD signs, preferring the pair farthest above the
    noise floor, then bisects to the requested relative bracket width.
    Returns the crossing point or None.
    """
    if interval is Interval.WHOLE_LINE:
        raise ValueError("search runs on one half line at a time")
    convexity = classify_log_convexity_H(params)
    if convexity.ratio == 0.0 or convexity.kind is ConvexityKind.LOG_AFFINE:
        raise ValueError("log-affine parameters: order-4 log-derivative is identically 0")
    if grid is None:
        # crossings can sit outside the default window; widen before giving up
        hit = four_log_sign_change_search(params, interval, _DEFAULT_GRID, width)
        return hit if hit is not None else four_log_sign_change_search(
            params, interval, _RETRY_GRID, width
        )
    ts = grid.points(interval)
    steps = _default_step(ts, 4)
    keep = np.abs(ts) > _stencil_reach(4) * steps * 1.01
    ts, steps = ts[keep], steps[keep]
    est, err = numeric_log_derivative(params, ts, 4, steps)
    confident = np.abs(est) > err + SIGN_MARGIN
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
    while abs(hi - lo) > width * max(1.0, abs(lo)):
        m = 0.5 * (lo + hi)
        est_m, _ = numeric_log_derivative(params, m, 4)
        if est_m * f_lo < 0.0:
            hi = m
        else:
            lo, f_lo = m, est_m
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# randomized cross-validation

# wider, denser fallback grid used before declaring a contradiction on a
# non-monotonic claim whose turning point may sit outside the default window
_RETRY_GRID = GridSpec(t_min=1e-5, t_max=1e3, points_per_side=600)


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


def _draw_params(rng: np.random.Generator, min_gap: float = 0.05) -> HParams:
    while True:
        a, b, l, m = rng.uniform(-5.0, 5.0, size=4)
        vals = (a, b, l, m)
        gaps = [abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) >= min_gap:
            return HParams(a, b, l, m)


def _contradiction(params, check, claimed, oracle: OracleVerdict) -> dict:
    return {
        "params": params.as_tuple(),
        "check": check,
        "claimed": claimed,
        "oracle": oracle.direction,
        "witnesses": oracle.witness_points,
    }


def _check_one(params: HParams, grid: GridSpec) -> tuple[str, dict | None]:
    """Compare every classifier verdict for one draw against grid scans.

    Returns ("agree" | "skip" | "contradiction", detail).  A claimed
    monotone direction opposed by a confident witness is a contradiction;
    scans with no witnesses at all are boundary skips (ties are invisible at
    grid resolution).  A non-monotonic claim needs witnesses both ways --
    the conditions are if-and-only-if -- but gets a second look on a wider
    grid first, since its turning point may fall outside the default window.
    """
    report = classify_H(params)
    skip = bool(report.zero_band_hits)

    scans = _monotonicity_scan(params, grid)
    for interval in Interval:
        claimed = report.monotonicity[interval].direction
        oracle = scans[interval]
        tag = f"monotonicity {interval.value}"
        if claimed is Direction.INCREASING and oracle.falls:
            return "contradiction", _contradiction(params, tag, claimed.value, oracle)
        if claimed is Direction.DECREASING and oracle.rises:
            return "contradiction", _contradiction(params, tag, claimed.value, oracle)
        if claimed is Direction.NON_MONOTONIC:
            if not (oracle.rises and oracle.falls):
                retry = grid_monotonicity_check(params, interval, _RETRY_GRID)
                if not (retry.rises and retry.falls):
                    return "contradiction", _contradiction(params, tag, claimed.value, retry)
        elif not (oracle.rises or oracle.falls):
            skip = True  # flat at grid resolution: cannot confirm or deny

    kind = report.convexity.kind
    if kind in (ConvexityKind.LOG_CONVEX, ConvexityKind.LOG_CONCAVE):
        oracle = grid_klog_sign_check(params, Interval.WHOLE_LINE, 2, grid)
        if kind is ConvexityKind.LOG_CONVEX and oracle.falls:
            return "contradiction", _contradiction(params, "log-convexity", kind.value, oracle)
        if kind is ConvexityKind.LOG_CONCAVE and oracle.rises:
            return "contradiction", _contradiction(params, "log-convexity", kind.value, oracle)

    third = report.third_order.kind
    if third is not ThirdOrderKind.NOT_COVERED:
        halves = (Interval.POSITIVE_HALF_LINE, Interval.NEGATIVE_HALF_LINE)
        scans = _klog_scan(params, 3, grid, SIGN_MARGIN, halves)
        pos, neg = scans[Interval.POSITIVE_HALF_LINE], scans[Interval.NEGATIVE_HALF_LINE]
        convex_pos = third is ThirdOrderKind.CONVEX_POS_CONCAVE_NEG
        bad_pos = pos.falls if convex_pos else pos.rises
        bad_neg = neg.rises if convex_pos else neg.falls
        if bad_pos:
            return "contradiction", _contradiction(params, "3-log (0,inf)", third.value, pos)
        if bad_neg:
            return "contradiction", _contradiction(params, "3-log (-inf,0)", third.value, neg)

    return ("skip" if skip else "agree"), None


def cross_validate(
    draws: int, seed: int = 0, grid: GridSpec | None = None
) -> CrossValidationReport:
    """Random-draw comparison of the closed-form classifier against the oracle.

    Each draw (uniform on [-5,5]^4, rejecting tuples with any pairwise gap
    below 0.05) is classified and then checked: monotonicity on all three
    intervals by grid scan, log-convexity by order-2 sign scan, third-order
    verdicts by order-3 sign scans on each half line.  Deterministic for a
    given (draws, seed, grid); the report satisfies
    draws == agreements + boundary_skips + len(contradictions).
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    grid = grid or _DEFAULT_GRID
    report = CrossValidationReport()
    for _ in range(draws):
        params = _draw_params(rng)
        report.draws += 1
        kind, detail = _check_one(params, grid)
        if kind == "agree":
            report.agreements += 1
        elif kind == "skip":
            report.boundary_skips += 1
        else:
            report.contradictions.append(detail)
    return report
