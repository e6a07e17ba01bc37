"""One benchmark process: ``run.py`` starts a fresh interpreter per job.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED SECONDS SPANS_PATH

``setup`` imports expratio, builds the inputs, runs the workload's first op
and prints ``ready`` with the CPU seconds the process has used so far.  ``measure`` runs the untraced closed loop.
``trace`` runs the loop untraced for half the seconds and traced for the
other half.  Both print one JSON object as their last line.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns, process_time, process_time_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def import_program():
    import expratio

    where = Path(expratio.__file__).resolve().parent
    if where != SRC / "expratio":
        raise SystemExit(f"expratio imported from {where}, not from {SRC}")
    return expratio


def provenance() -> dict:
    import numpy

    expratio = import_program()
    try:
        from expratio import _kernels  # noqa: F401  compiled twin

        compiled = "present"
    except ImportError as exc:
        compiled = f"absent ({exc})"
    return {
        "backend": expratio.backend_name(),
        "compiled_twin": compiled,
        "expratio": expratio.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


class Latencies:
    """CPU ns per op, as a uniform sample of at most CAP ops (algorithm R).

    The buffer is allocated whole up front, so the harness's memory does not
    grow with the op count and peak RSS does not track the program's speed.
    """

    CAP = 1 << 16

    def __init__(self):
        self.kept = array("q", bytes(8 * self.CAP))
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, ns: int) -> None:
        if self.seen < self.CAP:
            self.kept[self.seen] = ns
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < self.CAP:
                self.kept[j] = ns
        self.seen += 1

    def ms(self):
        import numpy as np

        return np.frombuffer(self.kept, dtype=np.int64)[:min(self.seen, self.CAP)] / 1e6


class Loop:
    """Closed-loop tallies for ops first, first+1, ... until busy time
    reaches the budget.  Checks run between ops, outside the timing.

    Ops are timed in process CPU time: where other workloads share the
    cores, descheduling swings wall-clock op times (by up to 2x on a
    shared 2-CPU Xeon) while CPU time stays within about 10%.  The process
    runs one thread and does no I/O inside an op, so on an idle core the
    two agree.
    """

    def __init__(self, workload, first: int, budget_ns: int, tracer=None):
        self.latencies = Latencies()
        self.items = self.failed_items = self.known_defects = 0
        self.failed_ops = 0
        self.errors: list[str] = []
        self.busy_ns = 0  # CPU time inside ops
        self.wall_ns = 0  # wall-clock time inside ops, for reference
        i = first
        while self.busy_ns < budget_ns:
            if tracer is not None:
                tracer.op_id = i
                tracer.recording = True
            w0 = perf_counter_ns()
            t0 = process_time_ns()
            try:
                out = workload.op(i)
                failure = None
            except Exception:  # an op that raises is counted, not fatal
                failure = traceback.format_exc(limit=3)
            dt = process_time_ns() - t0
            self.wall_ns += perf_counter_ns() - w0
            if tracer is not None:
                tracer.recording = False
            self.latencies.add(dt)
            self.busy_ns += dt
            if failure is None:
                done = workload.check(i, out)
                failure = done.error
                if tracer is not None:
                    tracer.counts["cli.bytes_out"] += done.bytes_out
            n = workload.planned_items(i)
            self.items += n
            if failure is None:
                self.known_defects += done.known_defects
                self.failed_items += done.known_defects
            else:
                self.failed_ops += 1
                self.failed_items += n
                if len(self.errors) < 5:
                    self.errors.append(f"op {i}: {failure}")
            i += 1
        self.next = i

    @property
    def items_per_s(self) -> float:
        return self.items / (self.busy_ns / 1e9)

    def summary(self) -> dict:
        return {
            "ops": self.latencies.seen,
            "items": self.items,
            "failed_items": self.failed_items,
            "known_defects": self.known_defects,
            "failed_ops": self.failed_ops,
            "errors": self.errors,
            "busy_s": self.busy_ns / 1e9,
            "wall_s": self.wall_ns / 1e9,
            "items_per_s": self.items_per_s,
        }


def _start(name: str, seed: int):
    import_program()
    from workloads import WORKLOADS, Api

    api = Api()
    return api, WORKLOADS[name](seed, api)


def setup(name: str, seed: int) -> int:
    _, workload = _start(name, seed)
    workload.op(0)  # checked by the measuring process, which repeats it
    print(f"ready {process_time()!r}", flush=True)
    return 0


def measure(name: str, seed: int, seconds: float) -> dict:
    import numpy as np

    api, workload = _start(name, seed)
    first = workload.check(0, workload.op(0))  # warm-up op, not counted
    loop = Loop(workload, 1, int(seconds * 1e9))
    lat_ms = loop.latencies.ms()
    p50, p90 = np.percentile(lat_ms, [50, 90])
    return {
        **loop.summary(),
        "first_op_error": first.error,
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "latency_samples": int(lat_ms.size),
        "beyond_p90": int(np.sum(lat_ms > p90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
    }


def backend_comparison(seed: int) -> dict:
    """kernel ns/elem for every importable backend on a fixed small case,
    swapping the kernel binding the way the traced run does."""
    import numpy as np
    from expratio import _backend, evaluate, oracle
    from expratio.params import HParams

    rng = np.random.default_rng([seed, 2])
    mags = rng.uniform(0.1, 50.0, size=1 << 14)
    t = np.where(rng.random(mags.size) < 0.5, -mags, mags)
    params = [HParams(*rng.uniform(-5.0, 5.0, size=4)) for _ in range(4)]
    cases = {
        "log_abs_h": lambda p: evaluate.log_abs_H_grid(p, t),
        "eval_h": lambda p: evaluate.eval_H_grid(p, t),
        **{f"fd_log_deriv.o{k}": (lambda p, k=k: oracle.numeric_log_derivative(p, t, k))
           for k in (1, 2, 3, 4)},
    }
    result = {}
    saved = (evaluate.kernels, oracle.kernels)
    try:
        for backend, mod in _backend.available_backends().items():
            evaluate.kernels = oracle.kernels = mod
            result[backend] = {}
            for case, fn in cases.items():
                runs = []
                for _ in range(3):
                    t0 = process_time_ns()
                    for p in params:
                        fn(p)
                    runs.append((process_time_ns() - t0) / (len(params) * t.size))
                result[backend][case] = sorted(runs)[1]
    finally:
        evaluate.kernels, oracle.kernels = saved
    return result


def trace(name: str, seed: int, seconds: float, spans_path: str) -> dict:
    import tracer as tr

    api, workload = _start(name, seed)
    first = workload.check(0, workload.op(0))
    half = int(seconds * 1e9 / 2)
    plain = Loop(workload, 1, half)
    recorder = tr.Tracer()
    patches = tr.install(recorder, api)
    try:
        traced = Loop(workload, plain.next, half, tracer=recorder)
    finally:
        patches.undo()
    metrics, problems = tr.layer_metrics(recorder, traced.busy_ns, traced.latencies.seen)
    metrics["trace.overhead_ratio"] = (plain.items_per_s / traced.items_per_s, "ratio")
    recorder.save(spans_path)
    doc = {
        "untraced": plain.summary(),
        "traced": traced.summary(),
        "first_op_error": first.error,
        "spans": len(recorder.name),
        "problems": problems,
        "metrics": metrics,
        "provenance": provenance(),
    }
    if name == "kernel-bulk":
        doc["backends_ns_per_elem"] = backend_comparison(seed)
    return doc


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        return setup(name, seed)
    if mode == "measure":
        doc = measure(name, seed, float(argv[3]))
    else:
        doc = trace(name, seed, float(argv[3]), argv[4])
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
