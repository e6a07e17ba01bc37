"""Independent numerical oracle for cross-checking the sign-condition classifier.

Everything here differentiates H's definition: grid scans of the exact
log-derivatives of ln|H| for rise/fall and sign witnesses, and a bisection
search for the sign change of the fourth log-derivative.  None of it
consults the closed-form invariants or the ratio rule, so agreement between
this module and ``classify`` is evidence, not tautology.

The scans read ``_kernels_py.log_derivs_h``, which writes the k-th
log-derivative as d1^k phi^(k)(d1 t) - d2^k phi^(k)(d2 t) (+ beta - mu for
k = 1) with phi(x) = ln((e^x - 1)/x): exact up to rounding, regular at
t = 0, and returned with its roundoff floor.  A probe counts as a witness
only beyond SIGN_MARGIN plus that floor.

Every scan reads one probe window (``GridSpec``): 200 log-spaced
magnitudes in [1e-3, 1e3] on each side of 0, plus, for monotonicity, t = 0
and one t per decade from 1e-8 to 1e-4, 411 probes in all.  ln|H| is
convex, concave or affine, so (ln|H|)' changes sign at most once and one
probe on each side of its turning point confirms a non-monotonic verdict;
there is no second, wider grid to retry on.

``numeric_log_derivative`` stays as the independent finite-difference check
of those values: central differences through the kernel's noise-controlled
scheme (``fd_log_deriv``), which differentiates the affine and ln|t| pieces
of each log term analytically and stencils only the bounded remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels_py
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
# higher orders need a coarser step.  The scans read the exact
# log-derivatives, not these; the finite differences are read by acceptance
# criterion 9 (within 1e-6 of log_deriv_H), the mpmath tests and the
# benchmark's kernel-bulk workload.
DEFAULT_STEPS = {1: 1e-4, 2: 1e-4, 3: 4e-3, 4: 1e-2}

SIGN_MARGIN = 1e-8


def _probe_window() -> tuple[tuple[np.ndarray, dict, dict], dict]:
    """Scan probes with each interval's selection of them for order 1 (the
    decades 1e-8..1e-4 and the window on each side, with t = 0 on the whole
    line) and for higher orders (the window alone); and the window's points
    on each interval, all read-only."""
    # turning points close to the origin sit below the window when an
    # invariant is near 0; one probe per decade sees them
    decades = 10.0 ** np.arange(-8, -3)
    mags = np.concatenate([decades, np.geomspace(1e-3, 1e3, 200)])
    ts = np.concatenate([-mags[::-1], [0.0], mags])
    ts.flags.writeable = False
    n, n_dec = len(mags), len(decades)
    first_order = {
        Interval.POSITIVE_HALF_LINE: slice(n + 1, None),
        Interval.NEGATIVE_HALF_LINE: slice(0, n),
        Interval.WHOLE_LINE: slice(None),
    }
    neg, pos = slice(0, n - n_dec), slice(n + 1 + n_dec, 2 * n + 1)
    higher_order = {
        Interval.POSITIVE_HALF_LINE: pos,
        Interval.NEGATIVE_HALF_LINE: neg,
        Interval.WHOLE_LINE: np.r_[neg, pos],
    }
    points = {iv: ts[s] for iv, s in higher_order.items()}
    points[Interval.WHOLE_LINE].flags.writeable = False
    return (ts, first_order, higher_order), points


class GridSpec:
    """The oracle's one probe window: 200 log-spaced magnitudes in
    [1e-3, 1e3], mirrored to t < 0; the monotonicity scans add t = 0 and
    the decades 1e-8..1e-4, 411 probes in all.  Built once at import, so
    every instance hands out the same read-only arrays."""

    _probes, _points = _probe_window()

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


def _verdicts(
    ts: np.ndarray, probes: np.ndarray, cuts: np.ndarray, parts: dict
) -> dict:
    """Classify signed probes against per-point noise cuts, once per
    selection in parts ({key: slice or index array})."""
    up = probes > cuts
    dn = probes < -cuts
    rise = np.where(up, probes, -np.inf)
    fall = np.where(dn, probes, np.inf)
    out = {}
    for key, s in parts.items():
        n_up = int(np.count_nonzero(up[s]))
        n_dn = int(np.count_nonzero(dn[s]))
        witnesses: list[float] = []
        if n_up:
            top = int(np.argmax(rise[s]))
            witnesses.append(float(ts[s][top]))
        if n_dn:
            bottom = int(np.argmin(fall[s]))
            witnesses.append(float(ts[s][bottom]))
        if n_up and n_dn:
            direction = "both"
            max_violation = float(min(rise[s][top], -fall[s][bottom]))
        elif n_up:
            direction, max_violation = "rises", 0.0
        elif n_dn:
            direction, max_violation = "falls", 0.0
        else:
            direction, max_violation = "flat", 0.0
        out[key] = OracleVerdict(direction, n_up, n_dn, max_violation, tuple(witnesses))
    return out


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


def _scan(
    params: HParams, wanted: dict[int, tuple[Interval, ...]]
) -> dict[int, dict[Interval, OracleVerdict]]:
    """Sign scans of the order-k log-derivatives over the window's probes,
    for the intervals wanted[k], from one kernel pass for all orders.

    Order 1 is scanned as sign(H) * (ln|H|)', the derivative of
    sign(H) * ln|H|, which is monotone in t exactly when H is, because
    sign(H) = sign((alpha-beta)(lam-mu)) is constant in t; it also reads
    t = 0 (whole line) and the decades below the window.  A probe is a
    witness beyond SIGN_MARGIN plus the kernel's roundoff floor.
    """
    ts, first_order, higher_order = GridSpec._probes
    a, b, l, m = params.as_tuple()
    derivs = _kernels_py.log_derivs_h(a, b, l, m, ts, tuple(wanted))
    out = {}
    for k, intervals in wanted.items():
        value, bound = derivs[k]
        if k == 1 and _kernels_py.h_sign(a, b, l, m) < 0.0:
            value = -value
        parts = first_order if k == 1 else higher_order
        out[k] = _verdicts(ts, value, SIGN_MARGIN + bound, {iv: parts[iv] for iv in intervals})
    return out


def grid_monotonicity_check(params: HParams, interval: Interval) -> OracleVerdict:
    """Scan for rise/fall witnesses of H on the interval: the sign of
    sign(H) * (ln|H|)' on the window's probes."""
    return _scan(params, {1: (interval,)})[1][interval]


def grid_klog_sign_check(params: HParams, interval: Interval, k: int) -> OracleVerdict:
    """Sign scan of the order-k log-derivative over the window.

    "rises" means confident positive probes and no confident negative one
    (no witness against k-log-convexity on the sampled set); probes inside
    SIGN_MARGIN + roundoff floor of zero count as neither sign.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    return _scan(params, {k: (interval,)})[k][interval]


def four_log_sign_change_search(params: HParams, interval: Interval) -> float | None:
    """Locate a sign change of the 4th log-derivative on one half line.

    Rejects parameter sets with (alpha-beta)/(lam-mu) equal to 0 or, within
    the classifier's zero band, to 1: those are log-affine, and every higher
    log-derivative vanishes identically.  Scans the window's points on the
    half line, t in [1e-3, 1e3], for adjacent points with confident
    opposite signs, preferring the pair farthest above the noise floor,
    then bisects to a relative bracket width of 1e-6.  Returns the crossing
    point, or None when the window holds none.
    """
    if interval is Interval.WHOLE_LINE:
        raise ValueError("search runs on one half line at a time")
    convexity = classify_log_convexity_H(params)
    if convexity.ratio == 0.0 or convexity.kind is ConvexityKind.LOG_AFFINE:
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


def _draw_params(rng: np.random.Generator) -> HParams:
    while True:
        a, b, l, m = rng.uniform(-5.0, 5.0, size=4)
        vals = (a, b, l, m)
        gaps = [abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) >= 0.05:
            return HParams(a, b, l, m)


def _contradiction(params, check, claimed, oracle: OracleVerdict) -> dict:
    return {
        "params": params.as_tuple(),
        "check": check,
        "claimed": claimed,
        "oracle": oracle.direction,
        "witnesses": oracle.witness_points,
    }


def _check_one(params: HParams) -> tuple[str, dict | None]:
    """Compare every classifier verdict for one draw against window scans.

    Returns ("agree" | "skip" | "contradiction", detail).  A claimed
    monotone direction opposed by a confident witness is a contradiction;
    scans with no witnesses at all are boundary skips (ties are invisible at
    grid resolution).  A non-monotonic claim needs witnesses both ways: the
    conditions are if-and-only-if, and (ln|H|)' changes sign at most once,
    so the one window, t = 0 and the decades down to 1e-8 hold a probe on
    each side of the turning point.
    """
    report = classify_H(params)
    skip = bool(report.zero_band_hits)
    kind = report.convexity.kind
    third = report.third_order.kind
    wanted = {1: tuple(Interval)}
    if kind in (ConvexityKind.LOG_CONVEX, ConvexityKind.LOG_CONCAVE):
        wanted[2] = (Interval.WHOLE_LINE,)
    if third is not ThirdOrderKind.NOT_COVERED:
        wanted[3] = (Interval.POSITIVE_HALF_LINE, Interval.NEGATIVE_HALF_LINE)
    scans = _scan(params, wanted)

    for interval in Interval:
        claimed = report.monotonicity[interval].direction
        oracle = scans[1][interval]
        tag = f"monotonicity {interval.value}"
        if claimed is Direction.INCREASING and oracle.falls:
            return "contradiction", _contradiction(params, tag, claimed.value, oracle)
        if claimed is Direction.DECREASING and oracle.rises:
            return "contradiction", _contradiction(params, tag, claimed.value, oracle)
        if claimed is Direction.NON_MONOTONIC:
            if not (oracle.rises and oracle.falls):
                return "contradiction", _contradiction(params, tag, claimed.value, oracle)
        elif not (oracle.rises or oracle.falls):
            skip = True  # flat at grid resolution: cannot confirm or deny

    if 2 in scans:
        oracle = scans[2][Interval.WHOLE_LINE]
        if kind is ConvexityKind.LOG_CONVEX and oracle.falls:
            return "contradiction", _contradiction(params, "log-convexity", kind.value, oracle)
        if kind is ConvexityKind.LOG_CONCAVE and oracle.rises:
            return "contradiction", _contradiction(params, "log-convexity", kind.value, oracle)

    if 3 in scans:
        pos, neg = scans[3][Interval.POSITIVE_HALF_LINE], scans[3][Interval.NEGATIVE_HALF_LINE]
        convex_pos = third is ThirdOrderKind.CONVEX_POS_CONCAVE_NEG
        bad_pos = pos.falls if convex_pos else pos.rises
        bad_neg = neg.rises if convex_pos else neg.falls
        if bad_pos:
            return "contradiction", _contradiction(params, "3-log (0,inf)", third.value, pos)
        if bad_neg:
            return "contradiction", _contradiction(params, "3-log (-inf,0)", third.value, neg)

    return ("skip" if skip else "agree"), None


def cross_validate(draws: int, seed: int = 0) -> CrossValidationReport:
    """Random-draw comparison of the closed-form classifier against the oracle.

    Each draw (uniform on [-5,5]^4, rejecting tuples with any pairwise gap
    below 0.05) is classified and then checked: monotonicity on all three
    intervals by window scan, log-convexity by order-2 sign scan, third-order
    verdicts by order-3 sign scans on each half line.  Deterministic for a
    given (draws, seed); the report satisfies
    draws == agreements + boundary_skips + len(contradictions).
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    report = CrossValidationReport()
    for _ in range(draws):
        params = _draw_params(rng)
        report.draws += 1
        kind, detail = _check_one(params)
        if kind == "agree":
            report.agreements += 1
        elif kind == "skip":
            report.boundary_skips += 1
        else:
            report.contradictions.append(detail)
    return report
