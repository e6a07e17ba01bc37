#!/usr/bin/env python3
"""expratio benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: set-up time over several fresh
processes, then one fresh process running the closed loop.  --trace 1 runs
the loop untraced and then traced in one fresh process and reports the
per-layer metrics.  Either way the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the metric names and units
are the ones BENCHMARK.json lists.  attempted and failed count ops; item
failures, including known defects, are in the fail_ratio line above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify-sweep", "eval-cli", "kernel-bulk", "classify-mix")
SETUP_RUNS = 7  # fresh processes timed for setup_s; the median is reported
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    # one process, no extra threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(*args) -> list[str]:
    return [sys.executable, str(WORKER), *map(str, args)]


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """(CPU seconds, wall seconds) a fresh interpreter takes to import
    expratio, build the inputs and finish the workload's first op."""
    t0 = perf_counter()
    with subprocess.Popen(_worker("setup", workload, seed), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT, env=_env()) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            wall = perf_counter() - t0
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(f"setup process failed (exit {proc.returncode}): {err.strip()}")
    return float(cpu), wall


def run_worker(args: list, timeout: float) -> dict:
    try:
        done = subprocess.run(_worker(*args), capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared_metrics(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def select(measured: dict, key: str) -> dict:
    """measured metrics, in BENCHMARK.json's order and units."""
    declared = declared_metrics(key)
    if set(measured) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json {key}: "
                         f"{sorted(set(measured) ^ set(declared))}")
    for name, unit in declared.items():
        if measured[name][1] != unit:
            raise BenchError(f"{name}: unit {measured[name][1]} != declared {unit}")
    return {name: {"value": measured[name][0], "unit": unit} for name, unit in declared.items()}


def fail_note(loop: dict) -> str:
    return f"({loop['failed_items']} of {loop['items']} items; {loop['known_defects']} known defects)"


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups = [time_setup(workload, seed) for _ in range(SETUP_RUNS)]
    doc = run_worker(["measure", workload, seed, seconds], timeout=60 + 4 * seconds)
    doc["setup_runs_cpu_s"], doc["setup_runs_wall_s"] = map(list, zip(*setups))
    measured = {
        "setup_s": (statistics.median(doc["setup_runs_cpu_s"]), "s"),
        "items_per_s": (doc["items_per_s"], "items/s"),
        "op_ms_p50": (doc["op_ms_p50"], "ms"),
        "op_ms_p90": (doc["op_ms_p90"], "ms"),
        "fail_ratio": (doc["failed_items"] / doc["items"], "ratio"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    for name, (value, unit) in measured.items():
        note = ""
        if name == "setup_s":
            note = f"  (CPU time, median of {SETUP_RUNS} fresh processes)"
        elif name == "items_per_s":
            note = (f"  ({doc['items']} items in {doc['ops']} ops, {doc['busy_s']:.3f} s CPU, "
                    f"{doc['wall_s']:.3f} s wall)")
        elif name == "op_ms_p90":
            note = (f"  ({doc['ops']} ops, {doc['latency_samples']} sampled, "
                    f"{doc['beyond_p90']} beyond p90)")
        elif name == "fail_ratio":
            note = "  " + fail_note(doc)
        print(f"{name:<12} {value:>14.6g} {unit:<8}{note}")
    # fail_ratio is printed above but is not a bounded metric: it is 0 on
    # workloads without known defects
    measured.pop("fail_ratio")
    return doc, select(measured, "end_to_end")


def traced(workload: str, seed: int, seconds: int, stem: str) -> tuple[dict, dict]:
    doc = run_worker(["trace", workload, seed, seconds, OUT / f"{stem}-spans.npz"],
                     timeout=90 + 4 * seconds)
    measured = {k: tuple(v) for k, v in doc["metrics"].items()}
    both = (doc["untraced"], doc["traced"])
    items = sum(s["items"] for s in both)
    failed = sum(s["failed_items"] for s in both)
    measured["checks.fail_ratio"] = (failed / items, "ratio")
    for loop, label in zip(both, ("untraced", "traced")):
        print(f"{label}: {loop['ops']} ops, {loop['items_per_s']:.6g} items/s, "
              f"fail_ratio {loop['failed_items'] / loop['items']:.6g} {fail_note(loop)}")
    for name, (value, unit) in measured.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if "backends_ns_per_elem" in doc:
        print("kernel ns/elem by backend: " + json.dumps(doc["backends_ns_per_elem"]))
    return doc, select(measured, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "expratio" / "__init__.py").is_file():
        print(f"error: no expratio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    try:
        if args.trace:
            doc, metrics = traced(args.workload, args.seed, args.seconds, stem)
            loops = (doc["untraced"], doc["traced"])
        else:
            doc, metrics = end_to_end(args.workload, args.seed, args.seconds)
            loops = (doc,)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(doc["provenance"]))
    problems = list(doc.get("problems", []))
    if doc["first_op_error"]:
        problems.append(f"first op: {doc['first_op_error']}")
    for loop in loops:
        problems.extend(loop["errors"])
    for p in problems:
        print(f"check failed: {p}")
    attempted = sum(loop["ops"] for loop in loops)
    failed = sum(loop["failed_ops"] for loop in loops)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**doc, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
