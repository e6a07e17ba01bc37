"""Span recording for the traced run.

Spans are recorded from the benchmark's side only: the traced run swaps
bindings that the program looks up at call time for wrappers, and restores
them afterwards.  No program file is touched.

    oracle.kernels, evaluate.kernels      -> namespace of wrapped kernels
    oracle.classify_H, oracle.grid_*, oracle.numeric_log_derivative,
    oracle.cross_validate                 -> wrapped functions
    GridSpec.points, HParams/PParams/QParams.__post_init__ -> wrapped methods
    cli._EVALUATORS entries               -> wrapped scalar evaluators
    the benchmark's own Api attributes    -> wrapped entry points

Each span holds name, start, end, parent and op id, in flat arrays kept in
memory and written out once at the end.  Times are process CPU time, the
clock the untraced loop times ops with.  A span's self time is its
duration minus the time its children cover; calls are single-threaded and
strictly nested, so the children's durations can simply be summed.
"""

from __future__ import annotations

import json
import types
from array import array
from collections import defaultdict
from time import process_time_ns

import numpy as np

LAYERS = ("cli", "evaluate", "classify", "oracle", "kernels", "params")
KERNEL_FNS = ("log_abs_h", "eval_h", "fd_log_deriv.o1", "fd_log_deriv.o2",
              "fd_log_deriv.o3", "fd_log_deriv.o4")
GRID_FNS = ("eval_H_grid", "log_abs_H_grid", "eval_Q_grid")
ORACLE_FNS = ("cross_validate", "grid_monotonicity_check", "grid_klog_sign_check",
              "numeric_log_derivative", "gridspec_points")
# computed, not measured: float64 bytes read and written per element
_VALUE_BYTES = 16  # t in, value out
_FD_BYTES = 32  # t and step in, estimate and error out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("q")  # summed durations of direct children
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.op_id = -1
        self.recording = False

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """fn wrapped in a span called name; on_call(args, kwargs) and
        on_result(result) record counts outside the span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.child.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(process_time_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time_ns()
                self.end[idx] = end
                self._stack.pop()
                parent = self.parent[idx]
                if parent >= 0:
                    self.child[parent] += end - self.start[idx]
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "child": np.frombuffer(self.child, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def install(tracer: Tracer, api) -> Patches:
    """Swap every traced binding for its wrapper; undo() restores them."""
    from expratio import cli, evaluate, oracle, params

    counts = tracer.counts
    patches = Patches()

    # kernels: one namespace shared by the evaluate and oracle bindings
    backend = oracle.kernels

    def count_elems(fn, per_elem):
        def on_call(args, kwargs):
            n = int(np.size(args[4]))
            counts[f"kernels.{fn}.elems"] += n
            counts["kernels.bytes"] += n * per_elem
        return on_call

    fd = {k: tracer.wrap(f"kernels.fd_log_deriv.o{k}", backend.fd_log_deriv,
                         count_elems(f"fd_log_deriv.o{k}", _FD_BYTES)) for k in (1, 2, 3, 4)}
    kernels = types.SimpleNamespace(
        BACKEND=backend.BACKEND,
        log_abs_h=tracer.wrap("kernels.log_abs_h", backend.log_abs_h,
                              count_elems("log_abs_h", _VALUE_BYTES)),
        eval_h=tracer.wrap("kernels.eval_h", backend.eval_h,
                           count_elems("eval_h", _VALUE_BYTES)),
        fd_log_deriv=lambda a, b, l, m, t, order, step: fd[order](a, b, l, m, t, order, step),
    )
    patches.set(oracle, "kernels", kernels)
    patches.set(evaluate, "kernels", kernels)

    # oracle
    retry_grid = getattr(oracle, "_RETRY_GRID", None)

    def count_retry(args, kwargs):
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        if grid is not None and grid is retry_grid:
            counts["oracle.retry_scans"] += 1

    def count_zero_band(report):
        counts["classify.zero_band_hits"] += bool(report.zero_band_hits)

    def count_claims(report):
        count_zero_band(report)
        counts["oracle.nonmonotonic_claims"] += sum(
            v.direction.value == "non-monotonic" for v in report.monotonicity.values())

    patches.set(oracle, "classify_H",
                tracer.wrap("classify.classify_H", oracle.classify_H, on_result=count_claims))
    patches.set(oracle, "grid_monotonicity_check",
                tracer.wrap("oracle.grid_monotonicity_check", oracle.grid_monotonicity_check,
                            on_call=count_retry))
    for fn in ("grid_klog_sign_check", "numeric_log_derivative", "cross_validate"):
        patches.set(oracle, fn, tracer.wrap(f"oracle.{fn}", getattr(oracle, fn)))
    patches.set(oracle.GridSpec, "points",
                tracer.wrap("oracle.gridspec_points", oracle.GridSpec.points))

    # params
    for cls in (params.HParams, params.PParams, params.QParams):
        patches.set(cls, "__post_init__",
                    tracer.wrap(f"params.{cls.__name__}", cls.__post_init__))

    # scalar evaluators as the CLI captured them
    for key, fn in list(cli._EVALUATORS.items()):
        patches.set_item(cli._EVALUATORS, key, tracer.wrap(f"evaluate.eval_{key}", fn))

    # the benchmark's own entry points
    def count_grid(name):
        def on_call(args, kwargs):
            counts[f"evaluate.{name}.elems"] += int(np.size(args[1]))
        return on_call

    patches.set(api, "cli_main", tracer.wrap("cli.main", api.cli_main))
    for name in GRID_FNS:
        patches.set(api, name, tracer.wrap(f"evaluate.{name}", getattr(api, name),
                                           on_call=count_grid(name)))
    # the oracle's own wrapper, so a call makes one span either way
    patches.set(api, "numeric_log_derivative", oracle.numeric_log_derivative)
    for fn in ("classify_H", "classify_P", "classify_Q"):
        patches.set(api, fn, tracer.wrap(f"classify.{fn}", getattr(api, fn),
                                         on_result=count_zero_band))
    return patches


def layer_metrics(tracer: Tracer, busy_ns: int, n_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics over a traced loop of n_ops ops taking busy_ns.

    Returns ({name: (value, unit)}, problems); problems lists violations of
    span nesting, which would make the self times meaningless.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    incl = a["end"] - a["start"]
    self_ns = incl - a["child"]
    calls = np.bincount(a["name"], minlength=n_names)
    incl_sum = np.bincount(a["name"], weights=incl, minlength=n_names)
    self_sum = np.bincount(a["name"], weights=self_ns, minlength=n_names)
    ids = {name: k for k, name in enumerate(tracer.names)}
    counts = tracer.counts

    def get(name):
        k = ids.get(name)
        return (0, 0.0, 0.0) if k is None else (int(calls[k]), incl_sum[k], self_sum[k])

    def ratio(x, y):
        return x / y if y else 0.0

    m: dict[str, tuple[float, str]] = {}
    layer_of = np.array([name.split(".")[0] for name in tracer.names])
    for layer in LAYERS:
        mask = layer_of == layer
        m[f"{layer}.self_share"] = (ratio(float(self_sum[mask].sum()), busy_ns), "ratio")
    unwrapped = busy_ns - float(self_sum.sum())
    m["trace.unwrapped_share"] = (ratio(unwrapped, busy_ns), "ratio")

    for fn in KERNEL_FNS:
        c, inc, _ = get(f"kernels.{fn}")
        elems = counts[f"kernels.{fn}.elems"]
        m[f"kernels.{fn}.calls"] = (ratio(c, n_ops), "calls/op")
        m[f"kernels.{fn}.elems_per_call"] = (ratio(elems, c), "elems")
        m[f"kernels.{fn}.ns_per_elem"] = (ratio(inc, elems), "ns/elem")
    m["kernels.bytes_computed"] = (ratio(counts["kernels.bytes"], n_ops), "B/op")

    for fn in ORACLE_FNS:
        c, _, slf = get(f"oracle.{fn}")
        m[f"oracle.{fn}.calls"] = (ratio(c, n_ops), "calls/op")
        m[f"oracle.{fn}.self_ms"] = (ratio(slf, n_ops) / 1e6, "ms/op")
    m["oracle.retry_scans"] = (ratio(counts["oracle.retry_scans"], n_ops), "scans/op")
    m["oracle.retry_ratio"] = (
        ratio(counts["oracle.retry_scans"], counts["oracle.nonmonotonic_claims"]), "ratio")

    classify_calls = 0
    for fn in ("classify_H", "classify_P", "classify_Q"):
        c, inc, _ = get(f"classify.{fn}")
        classify_calls += c
        m[f"classify.{fn}.calls"] = (ratio(c, n_ops), "calls/op")
        m[f"classify.{fn}.us_per_call"] = (ratio(inc, c) / 1e3, "us/call")
    m["classify.zero_band_hit_ratio"] = (
        ratio(counts["classify.zero_band_hits"], classify_calls), "ratio")

    for key in "GFQHP":
        c, inc, _ = get(f"evaluate.eval_{key}")
        m[f"evaluate.eval_{key}.us_per_call"] = (ratio(inc, c) / 1e3, "us/call")
    for name in GRID_FNS:
        _, inc, _ = get(f"evaluate.{name}")
        m[f"evaluate.{name}.ns_per_elem"] = (ratio(inc, counts[f"evaluate.{name}.elems"]), "ns/elem")
    is_eval = layer_of[a["name"]] == "evaluate"
    parent = a["parent"]
    under_eval = (layer_of[a["name"]] == "kernels") & (parent >= 0)
    under_eval[under_eval] = is_eval[parent[under_eval]]
    m["evaluate.kernel_share"] = (ratio(float(incl[under_eval].sum()), float(incl[is_eval].sum())),
                                  "ratio")

    c, _, slf = get("cli.main")
    m["cli.self_ms"] = (ratio(slf, c) / 1e6, "ms/call")
    m["cli.bytes_out"] = (ratio(counts["cli.bytes_out"], c), "B/call")

    c_params, inc_params = 0, 0.0
    for cls in ("HParams", "PParams", "QParams"):
        c, inc, _ = get(f"params.{cls}")
        c_params += c
        inc_params += inc
    m["params.constructions"] = (ratio(c_params, n_ops), "count/op")
    m["params.us_per_construction"] = (ratio(inc_params, c_params) / 1e3, "us")

    problems = []
    if np.any(self_ns < 0):
        problems.append(f"{int(np.sum(self_ns < 0))} spans with negative self time")
    if unwrapped < 0:
        problems.append("spans cover more than the traced op time")
    return m, problems
