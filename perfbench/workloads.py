"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, then runs numbered
operations ("ops") in a closed loop with one caller.  ``op(i)`` is the timed
call into the program; ``check(i, out)`` runs outside the timed region and
returns a ``Checked`` record for that op.

Item failures split into two kinds.  *Known defects* are the baseline
failures named in ROADMAP.md (a verify contradiction, a bare non-finite
JSON number, a ratio = 1 draw classified as neither log-affine nor
zero-band) plus one found here: a finite-difference estimate more than
1e-6 off its reference but inside the error estimate returned with it.
They count toward ``fail_ratio`` but leave the op successful.
Any other failed check (a value off its reference, malformed or
inconsistent output, a wrong exit code, an exception) fails the op, and a
failed op makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Checked:
    items: int  # items the op attempted
    known_defects: int = 0  # items failing a known-defect check
    error: str | None = None  # set when the op itself failed
    bytes_out: int = 0  # bytes the op printed (CLI workloads)


class Api:
    """The benchmark's own references to the program's public functions.

    The traced run swaps these attributes for timing wrappers, so every
    call the benchmark makes goes through one of them.
    """

    def __init__(self):
        from expratio import classify, cli, evaluate, oracle

        self.cli_main = cli.main
        self.eval_H_grid = evaluate.eval_H_grid
        self.log_abs_H_grid = evaluate.log_abs_H_grid
        self.eval_Q_grid = evaluate.eval_Q_grid
        self.numeric_log_derivative = oracle.numeric_log_derivative
        self.log_deriv_H = evaluate.log_deriv_H
        self.classify_H = classify.classify_H
        self.classify_P = classify.classify_P
        self.classify_Q = classify.classify_Q


def run_cli(api: Api, argv: list[str]) -> tuple[int, str]:
    """One in-process ``expratio`` invocation with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = api.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
    return code, buf.getvalue()


def _strict_json(text: str):
    """json.loads that keeps bare NaN / Infinity as markers (RFC 8259 has
    no such literals) instead of turning them into floats."""
    return json.loads(text, parse_constant=_BareConstant)


class _BareConstant(str):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# verify-sweep


class VerifySweep:
    """``expratio verify --draws D --seed s_i --format json`` through cli.main.

    An item is one draw; a known-defect item is one reported contradiction.
    """

    name = "verify-sweep"
    DRAWS = 32  # ~70 ms per op, so a run holds a few hundred ops

    def __init__(self, seed: int, api: Api):
        self.api = api
        # one verify seed per op, spawned from the workload seed
        self.seeds = np.random.SeedSequence(seed).generate_state(1 << 12, dtype=np.uint32)

    def argv(self, i: int) -> list[str]:
        s = int(self.seeds[i % len(self.seeds)])
        return ["verify", "--draws", str(self.DRAWS), "--seed", str(s), "--format", "json"]

    def planned_items(self, i: int) -> int:
        return self.DRAWS

    def op(self, i: int):
        return run_cli(self.api, self.argv(i))

    def check(self, i: int, out) -> Checked:
        code, text = out
        done = Checked(self.DRAWS, bytes_out=len(text.encode()))
        try:
            doc = _strict_json(text)
        except ValueError as exc:
            done.error = f"verify output is not JSON: {exc}"
            return done
        bad = len(doc["contradictions"])
        if doc["draws"] != self.DRAWS:
            done.error = f"draws {doc['draws']} != {self.DRAWS}"
        elif doc["agreements"] + doc["boundary_skips"] + bad != self.DRAWS:
            done.error = "agreements + boundary_skips + contradictions != draws"
        elif code != (1 if bad else 0):
            done.error = f"exit code {code} with {bad} contradictions"
        else:
            done.known_defects = bad
        return done


# ---------------------------------------------------------------------------
# eval-cli

# (function, format, spacing, count): a fixed plan; parameters come from the
# seed.  Linear grids span [-20, 20] (the saturating one [-400, 400]); log
# grids span magnitudes [1e-3, 50] mirrored to t < 0, so 2*count rows.
# Thirteen calls: five cheap ones (G/F, or 120 P rows), three of 280 H/Q
# rows in the middle and five of 440-520 H/P/Q rows, so that the median op
# falls inside the middle group instead of on a gap between cost clusters.
_EVAL_PLAN = (
    ("H", "csv", "lin", 440),
    ("G", "json", "lin", 3000),
    ("H", "json", "sat", 280),
    ("Q", "text", "lin", 440),
    ("F", "text", "log", 500),
    ("P", "text", "lin", 480),
    ("H", "text", "log", 140),
    ("F", "csv", "lin", 4000),
    ("Q", "json", "lin", 520),
    ("P", "json", "log", 60),
    ("Q", "csv", "log", 140),
    ("G", "text", "log", 1000),
    ("P", "csv", "log", 260),
)

_EVAL_SAMPLES = 3  # rows per op compared against mpmath
_REL_MACHINE = 1e-12  # csv/json print 17 digits
_REL_TEXT = 6e-6  # text prints 6 significant digits


def _draw_eval_params(func: str, rng: np.random.Generator, saturating: bool) -> list[float]:
    while True:
        if func == "H":
            a, b, l, m = rng.uniform(-3.0, 3.0, size=4)
            if saturating:
                # ln|H(t)| ~ (max(a,b) - max(l,m)) t for t -> +inf: >= 2 * 400
                a = max(l, m) + rng.uniform(2.0, 3.0)
            vals = [a, b, l, m]
        elif func == "P":
            vals = list(np.exp(rng.uniform(-2.0, 2.0, size=4)))
        elif func == "Q":
            vals = list(rng.uniform(-3.0, 3.0, size=2))
        elif func == "G":
            a = math.exp(rng.uniform(-1.0, 1.0))
            vals = [a, a * math.exp(rng.uniform(0.05, 1.5))]
        else:  # F
            vals = list(rng.uniform(-3.0, 3.0, size=2))
        gaps = [abs(x - y) for k, x in enumerate(vals) for y in vals[k + 1:]]
        if min(gaps) >= 0.05:
            return [float(v) for v in vals]


def _eval_grid(spacing: str, count: int) -> np.ndarray:
    """The t values ``--range`` asks for, computed from the CLI's contract."""
    if spacing == "log":
        side = np.geomspace(1e-3, 50.0, count)
        return np.concatenate([-side[::-1], side])
    half = 400.0 if spacing == "sat" else 20.0
    return np.linspace(-half, half, count)


@dataclass
class _EvalConfig:
    func: str
    fmt: str
    params: list[float]
    argv: list[str]
    grid: np.ndarray


class EvalCli:
    """``expratio eval`` invocations cycling through H, P, Q, G and F.

    An item is one output row; a known-defect item is a JSON row whose value
    is a bare NaN or Infinity.
    """

    name = "eval-cli"

    def __init__(self, seed: int, api: Api):
        self.api = api
        rng = np.random.default_rng(seed)
        self.configs = []
        for func, fmt, spacing, count in _EVAL_PLAN:
            params = _draw_eval_params(func, rng, spacing == "sat")
            if spacing == "log":
                rng_args = ["--range", "0.001", "50", str(count), "--log"]
            else:
                half = "400" if spacing == "sat" else "20"
                rng_args = ["--range", "-" + half, half, str(count)]
            argv = ["eval", func, *map(_fmt, params), *rng_args, "--format", fmt]
            self.configs.append(_EvalConfig(func, fmt, params, argv, _eval_grid(spacing, count)))
        self.sample_rng = np.random.default_rng([seed, 1])
        self.ref_cache: dict[tuple[int, int], object] = {}

    def config(self, i: int) -> _EvalConfig:
        return self.configs[i % len(self.configs)]

    def planned_items(self, i: int) -> int:
        return len(self.config(i).grid)

    def op(self, i: int):
        return run_cli(self.api, self.config(i).argv)

    def _rows(self, cfg: _EvalConfig, text: str) -> list[tuple]:
        if cfg.fmt == "json":
            doc = _strict_json(text)
            if doc["function"] != cfg.func or doc["params"] != cfg.params:
                raise ValueError("json header does not echo the call")
            return [(r["t"], r["value"]) for r in doc["rows"]]
        lines = text.splitlines()
        if cfg.fmt == "csv":
            if lines[0] != "t,value":
                raise ValueError(f"csv header {lines[0]!r}")
            lines = lines[1:]
            cells = [ln.split(",") for ln in lines]
        else:
            cells = [ln.split() for ln in lines]
        if any(len(c) != 2 for c in cells):
            raise ValueError("row without exactly two columns")
        return [(float(t), float(v)) for t, v in cells]

    def check(self, i: int, out) -> Checked:
        import reference as ref

        code, text = out
        cfg = self.config(i)
        done = Checked(len(cfg.grid), bytes_out=len(text.encode()))
        if code != 0:
            done.error = f"exit code {code}"
            return done
        try:
            rows = self._rows(cfg, text)
        except (ValueError, KeyError, IndexError) as exc:
            done.error = f"unparseable {cfg.fmt} output: {exc}"
            return done
        if len(rows) != len(cfg.grid):
            done.error = f"{len(rows)} rows, expected {len(cfg.grid)}"
            return done
        bare = [isinstance(t, _BareConstant) or isinstance(v, _BareConstant) for t, v in rows]
        done.known_defects = sum(bare)
        machine = cfg.fmt != "text"
        for (t, _), want in zip(rows, cfg.grid):
            if machine and t != want:
                done.error = f"t {t!r} != grid value {want!r}"
                return done
            if not machine and abs(t - want) > _REL_TEXT * abs(want) + 1e-300:
                done.error = f"t {t!r} does not print grid value {want!r}"
                return done
        rel = _REL_MACHINE if machine else _REL_TEXT
        for k in self.sample_rng.choice(len(rows), size=_EVAL_SAMPLES, replace=False):
            if bare[k]:
                continue
            key = (i % len(self.configs), int(k))
            if key not in self.ref_cache:
                self.ref_cache[key] = ref.REFERENCES[cfg.func](*cfg.params, cfg.grid[k])
            value = float(rows[k][1])
            if not ref.close(value, self.ref_cache[key], rel):
                done.error = (f"{cfg.func}{tuple(cfg.params)} at t={cfg.grid[k]!r}: "
                              f"{value!r} vs reference {ref.mp.nstr(self.ref_cache[key], 17)}")
                return done
        return done


# ---------------------------------------------------------------------------
# kernel-bulk

# Seven calls per cycle, so that the median op falls inside one call's cost
# cluster (order 2) instead of on the gap between two of them.
_BULK_CALLS = ("eval_H_grid", "log_abs_H_grid", "eval_Q_grid", "d1", "d2", "d3", "d4")
_BULK_SAMPLES = 3  # points per call compared against references
_DERIV_TOL = 1e-6  # acceptance criterion 9's bound


class KernelBulk:
    """Grid evaluators and finite differences on one large array.

    An item is one array element per call.  Calls cycle through
    eval_H_grid, log_abs_H_grid, eval_Q_grid and numeric_log_derivative
    orders 1-4.
    """

    name = "kernel-bulk"
    POINTS = 1 << 17  # 1 MiB per float64 array; each call makes 10-20 such temporaries

    def __init__(self, seed: int, api: Api):
        from expratio.params import HParams, QParams

        self.api = api
        rng = np.random.default_rng(seed)
        mags = rng.uniform(0.1, 50.0, size=self.POINTS)
        self.t = np.where(rng.random(self.POINTS) < 0.5, -mags, mags)
        self.params = []
        while len(self.params) < 8:
            vals = rng.uniform(-5.0, 5.0, size=4)
            if min(abs(x - y) for k, x in enumerate(vals) for y in vals[k + 1:]) >= 0.05:
                self.params.append(HParams(*vals))
        self.q_params = [QParams(p.alpha, p.beta) for p in self.params]
        self.sample_rng = np.random.default_rng([seed, 1])

    def call(self, i: int) -> tuple[str, int]:
        return _BULK_CALLS[i % len(_BULK_CALLS)], (i // len(_BULK_CALLS)) % len(self.params)

    def planned_items(self, i: int) -> int:
        return self.POINTS

    def op(self, i: int):
        kind, k = self.call(i)
        p = self.params[k]
        if kind == "eval_H_grid":
            return self.api.eval_H_grid(p, self.t)
        if kind == "log_abs_H_grid":
            return self.api.log_abs_H_grid(p, self.t)
        if kind == "eval_Q_grid":
            return self.api.eval_Q_grid(self.q_params[k], self.t)
        return self.api.numeric_log_derivative(p, self.t, int(kind[1]))

    def check(self, i: int, out) -> Checked:
        import reference as ref

        kind, k = self.call(i)
        p, q = self.params[k], self.q_params[k]
        done = Checked(self.POINTS)
        values, err = out if kind.startswith("d") else (out, None)
        if np.shape(values) != self.t.shape:
            done.error = f"{kind} returned shape {np.shape(values)}"
            return done
        for k in self.sample_rng.choice(self.POINTS, size=_BULK_SAMPLES, replace=False):
            t, got = float(self.t[k]), float(values[k])
            if kind == "eval_H_grid":
                ok = ref.close(got, ref.ratio_H(*p.as_tuple(), t), 1e-12)
            elif kind == "eval_Q_grid":
                ok = ref.close(got, ref.ratio_Q(q.alpha, q.beta, t), 1e-12)
            elif kind == "log_abs_H_grid":
                # ln|H| to 1e-12 relative in H: absolute near 0, relative beyond 1
                want = float(ref.log_abs_H(*p.as_tuple(), t))
                ok = abs(got - want) <= 1e-12 * max(1.0, abs(want))
            else:
                if kind == "d4":
                    want = float(ref.log_deriv4_H(*p.as_tuple(), t))
                else:
                    want = self.api.log_deriv_H(p, t, int(kind[1]))
                off = abs(got - want)
                ok = off <= _DERIV_TOL + float(err[k])
                # known defect: off by more than the bound, but inside the
                # error estimate the oracle reports with it
                done.known_defects += ok and off > _DERIV_TOL
            if not ok:
                done.error = f"{kind} {p.as_tuple()} at t={t!r}: {got!r} off its reference"
                return done
        return done


# ---------------------------------------------------------------------------
# classify-mix

# share of each family in the parameter stream
_FAMILIES = ("generic", "generic", "generic", "generic", "A0", "C0", "E0", "ratio1")
_STREAM = 1024


def _family_draw(family: str, rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One exponent quadruple on the named decision boundary (generic: none).

    A = 0: mu = alpha + beta - lambda; C = 0: lambda = max(alpha, beta);
    E = 0: mu = min(alpha, beta); ratio = 1: mu = lambda - (alpha - beta).
    """
    a, b, l, m = rng.uniform(-5.0, 5.0, size=4)
    if family == "A0":
        m = a + b - l
    elif family == "C0":
        l = max(a, b)
    elif family == "E0":
        m = min(a, b)
    elif family == "ratio1":
        m = l - (a - b)
    return float(a), float(b), float(l), float(m)


@dataclass
class _ClassifyEntry:
    family: str
    h: object
    p: object
    q: object


class ClassifyMix:
    """classify_H, classify_P and classify_Q over a stream of parameter sets.

    An item is one classified parameter set.  Each stream entry is classified
    three ways: as H, as P (bases e^alpha..e^mu) and as Q (the reduction
    A = (alpha-lambda)/(mu-lambda), B = (beta-lambda)/(mu-lambda)).  A
    known-defect item is a ratio = 1 draw reported neither log-affine nor
    zero-band.
    """

    name = "classify-mix"

    def __init__(self, seed: int, api: Api):
        from expratio.params import HParams, ParameterError, PParams, QParams

        self.api = api
        rng = np.random.default_rng(seed)
        self.stream = []
        while len(self.stream) < _STREAM:
            family = _FAMILIES[len(self.stream) % len(_FAMILIES)]
            a, b, l, m = _family_draw(family, rng)
            if min(abs(a - b), abs(l - m)) < 0.05:
                continue
            try:
                entry = _ClassifyEntry(
                    family,
                    HParams(a, b, l, m),
                    PParams(math.exp(a), math.exp(b), math.exp(l), math.exp(m)),
                    QParams((a - l) / (m - l), (b - l) / (m - l)),
                )
            except ParameterError:
                continue
            self.stream.append(entry)

    def call(self, i: int) -> tuple[str, _ClassifyEntry]:
        return "HPQ"[i % 3], self.stream[(i // 3) % len(self.stream)]

    def planned_items(self, i: int) -> int:
        return 1

    def op(self, i: int):
        kind, e = self.call(i)
        if kind == "H":
            return self.api.classify_H(e.h)
        if kind == "P":
            return self.api.classify_P(e.p)
        return self.api.classify_Q(e.q)

    def check(self, i: int, out) -> Checked:
        kind, e = self.call(i)
        done = Checked(1)
        if kind == "Q":
            h = self.api.classify_H(e.q.h_params())
            same = (
                all(out.monotonicity[iv].direction is h.monotonicity[iv].direction
                    for iv in h.monotonicity)
                and out.log_convex == (h.convexity.kind.value == "log-convex")
                and out.log_concave == (h.convexity.kind.value == "log-concave")
                and out.third_order == h.third_order
            )
            log_affine = not (out.log_convex or out.log_concave)
        else:
            if kind == "P":
                h = self.api.classify_H(e.p.log_params())
                same = ((out.monotonicity, out.convexity, out.third_order, out.zero_band_hits)
                        == (h.monotonicity, h.convexity, h.third_order, h.zero_band_hits))
            else:
                same = True
            log_affine = out.convexity.kind.value == "log-affine"
        if not same:
            done.error = f"classify_{kind} disagrees with classify_H on {e.h.as_tuple()}"
        elif e.family == "ratio1" and not (log_affine or out.zero_band_hits):
            done.known_defects = 1
        return done


WORKLOADS = {w.name: w for w in (VerifySweep, EvalCli, KernelBulk, ClassifyMix)}
