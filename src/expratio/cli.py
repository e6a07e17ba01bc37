"""Command-line front end: evaluate, classify, verify, table.

Exit codes: 0 success, 1 verification found a contradiction, 2 usage or
parameter error, 141 (the shell's code for SIGPIPE) when the reader of
stdout closed it early, as ``expratio eval ... | head`` does; then the rest
of the output is dropped without a traceback.  Machine formats (csv/json)
print 17 significant digits so values round-trip through float parsing;
text uses 6.  Output is UTF-8 with "\\n" newlines and a locale-independent
decimal point.  ``expratio --version`` prints the package and NumPy
versions.

The argument parser is built on the first ``main`` call and reused by every
later call in the process.  An ``eval`` table is formatted in one pass
through one format string and written whole (``_write``), also to
unbuffered stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from . import evaluate as ev
from . import classify as cl
from . import oracle as orc
from .params import GFParams, HParams, PParams, ParameterError, QParams

_ARITY = {"G": 2, "F": 2, "Q": 2, "H": 4, "P": 4}

_FMT_MACHINE = "%.17g"
_FMT_TEXT = "%.6g"
# one eval table row, t and its value
_ROW = {"csv": f"{_FMT_MACHINE},{_FMT_MACHINE}\n", "text": f"{_FMT_TEXT} {_FMT_TEXT}\n"}

# the code a shell reports for a process ended by SIGPIPE
_EXIT_CLOSED_PIPE = 141


def _num(x: float, machine: bool) -> str:
    return (_FMT_MACHINE if machine else _FMT_TEXT) % x


def _write(text: str) -> None:
    """Write text to stdout whole.  Unbuffered stdout (PYTHONUNBUFFERED=1,
    ``python -u``) sits on a raw stream, which may take part of a large
    write and return the count; the text layer drops that count and the
    rest is lost.  Here the rest is written until none is left, so a
    reader that closed the pipe makes the next write raise
    BrokenPipeError."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[raw.write(data):]


def _make_params(func: str, values: list[float]):
    if func == "H":
        return HParams(*values)
    if func == "P":
        return PParams(*values)
    if func == "Q":
        return QParams(*values)
    p = GFParams(*values)
    if func == "G":
        p.require_g()
    return p


_EVALUATORS = {
    "G": ev.eval_G_grid,
    "F": ev.eval_F_grid,
    "Q": ev.eval_Q_grid,
    "H": ev.eval_H_grid,
    "P": ev.eval_P_grid,
}


def _t_values(args) -> np.ndarray:
    if args.t is not None:
        return np.asarray([args.t], dtype=np.float64)
    start, stop, count = args.range
    n = int(count) if math.isfinite(count) else 0
    if n != count or n < 1:
        raise ParameterError("range COUNT must be a positive integer")
    if args.log:
        # log-spaced magnitudes in [start, stop], mirrored to negative t
        if not (0.0 < start < stop):
            raise ParameterError("--log needs 0 < START < STOP")
        side = np.geomspace(start, stop, n)
        return np.concatenate([-side[::-1], side])
    return np.linspace(start, stop, n)


def cmd_eval(args) -> int:
    params = _make_params(args.function, args.params)
    fn = _EVALUATORS[args.function]
    ts = _t_values(args)
    values = fn(params, ts)
    if args.format == "json":
        doc = {
            "function": args.function,
            "params": list(args.params),
            "rows": [{"t": t, "value": v} for t, v in zip(ts.tolist(), values.tolist())],
        }
        _write(json.dumps(doc))
        _write("\n")
        return 0
    if args.format == "csv":
        _write("t,value\n")
    # every row through one format string, and the table in one write
    cells = np.column_stack([ts, values]).ravel().tolist()
    _write(_ROW[args.format] * ts.size % tuple(cells))
    return 0


def _nulled(x):
    """x with every non-finite float written as None (JSON null), as
    JSON.stringify does: an overflowed invariant or ratio stays valid JSON."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _nulled(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_nulled(v) for v in x]
    return x


def _mono_entry(verdict: cl.MonotonicityVerdict) -> dict:
    return {
        "direction": verdict.direction.value,
        "fired_conditions": [list(c) for c in verdict.fired_conditions],
    }


def _report_doc(func: str, values: list[float], report: cl.ClassificationReport) -> dict:
    return {
        "function": func,
        "params": values,
        "invariants": report.invariants.as_dict(),
        "monotonicity": {
            iv.value: _mono_entry(report.monotonicity[iv]) for iv in cl.Interval
        },
        "convexity": {
            "kind": report.convexity.kind.value,
            "ratio": report.convexity.ratio,
            "exponent": report.convexity.exponent,
        },
        "third_order": {"kind": report.third_order.kind.value},
        "zero_band_hits": list(report.zero_band_hits),
    }


def _q_doc(values: list[float], report: cl.QReport) -> dict:
    return {
        "function": "Q",
        "params": values,
        "monotonicity": {
            iv.value: _mono_entry(report.monotonicity[iv]) for iv in cl.Interval
        },
        "log_convex": report.log_convex,
        "log_concave": report.log_concave,
        "third_order": {"kind": report.third_order.kind.value},
        "zero_band_hits": list(report.zero_band_hits),
    }


def _print_classification_text(doc: dict) -> None:
    print(f"{doc['function']}({', '.join(_num(v, False) for v in doc['params'])})")
    if "invariants" in doc:
        inv = doc["invariants"]
        print("invariants: " + "  ".join(f"{k}={_num(inv[k], False)}" for k in "ABCDE"))
    for interval, entry in doc["monotonicity"].items():
        fired = entry["fired_conditions"]
        extra = ""
        if fired:
            extra = "  [" + ", ".join(f"{n}{s}" if s else n for n, s in fired) + "]"
        print(f"{interval}: {entry['direction']}{extra}")
    if "convexity" in doc:
        c = doc["convexity"]
        line = f"log-convexity: {c['kind']} (ratio={_num(c['ratio'], False)}"
        if c["exponent"] is not None:
            line += f", exponent={_num(c['exponent'], False)}"
        print(line + ")")
    else:
        print(f"log-convex: {doc['log_convex']}  log-concave: {doc['log_concave']}")
    print(f"third-order: {doc['third_order']['kind']}")
    if doc["zero_band_hits"]:
        print("warning: invariants on a decision boundary: " + ", ".join(doc["zero_band_hits"]))
    return None


def cmd_classify(args) -> int:
    func = args.function
    values = list(args.params)
    if func == "H":
        doc = _report_doc("H", values, cl.classify_H(HParams(*values)))
    elif func == "P":
        doc = _report_doc("P", values, cl.classify_P(PParams(*values)))
    else:
        doc = _q_doc(values, cl.classify_Q(QParams(*values)))
    if args.format == "json":
        print(json.dumps(_nulled(doc), allow_nan=False))
    elif args.format == "csv":
        # one row per interval verdict
        print("interval,direction")
        for interval, entry in doc["monotonicity"].items():
            print(f'"{interval}",{entry["direction"]}')
    else:
        _print_classification_text(doc)
    return 0


def cmd_verify(args) -> int:
    if args.draws < 1:
        raise ParameterError("--draws must be >= 1")
    report = orc.cross_validate(args.draws, args.seed)
    if args.format == "json":
        doc = {
            "draws": report.draws,
            "agreements": report.agreements,
            "boundary_skips": report.boundary_skips,
            "contradictions": report.contradictions,
        }
        print(json.dumps(doc, allow_nan=False))
    elif args.format == "csv":
        print("draws,agreements,boundary_skips,contradictions")
        print(
            f"{report.draws},{report.agreements},"
            f"{report.boundary_skips},{len(report.contradictions)}"
        )
        for c in report.contradictions:
            print(f"# {c}")
    else:
        print(report.summary())
        for c in report.contradictions:
            print(f"contradiction: {c}")
    return 0 if report.ok else 1


def cmd_table(args) -> int:
    rows = cl.decision_table()
    if args.format == "json":
        doc = [
            {
                "interval": r.interval,
                "direction": r.direction,
                "constraints": r.constraints,
                "ordering": r.ordering,
            }
            for r in rows
        ]
        print(json.dumps(doc, allow_nan=False))
    elif args.format == "csv":
        print("interval,direction,A,B,C,D,E,ordering")
        for r in rows:
            cells = r.csv_cells()
            print(",".join([f'"{cells[0]}"'] + cells[1:]))
    else:
        header = ["Interval", "Direction", "A", "B", "C", "D", "E", "ordering"]
        data = [r.csv_cells() for r in rows]
        widths = [max(len(h), *(len(row[i]) for row in data)) for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in data:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e-3, -2E+1 and -.5e3 as negative numbers.

    argparse takes an argument that starts with "-" for an option unless it
    matches its negative-number pattern, which before Python 3.13 has no
    exponent.  Subparsers inherit the class, so every level gets the wider
    pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expratio",
        description="Evaluate and classify ratios of exponential differences.",
    )
    parser.add_argument("--version", action="version",
                        version=f"expratio {__version__} (NumPy {np.__version__})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate G/F/Q/H/P on points or a grid")
    p_eval.add_argument("function", choices=sorted(_ARITY))
    p_eval.add_argument("params", type=float, nargs="+")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="single evaluation point")
    group.add_argument(
        "--range",
        type=float,
        nargs=3,
        metavar=("START", "STOP", "COUNT"),
        help="evaluation grid (linear; see --log)",
    )
    p_eval.add_argument(
        "--log",
        action="store_true",
        help="treat --range as log-spaced magnitudes, mirrored to negative t",
    )
    add_format(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_cls = sub.add_parser("classify", help="closed-form classification report")
    p_cls.add_argument("function", choices=("H", "P", "Q"))
    p_cls.add_argument("params", type=float, nargs="+")
    add_format(p_cls)
    p_cls.set_defaults(run=cmd_classify)

    p_ver = sub.add_parser("verify", help="randomized classifier-vs-oracle sweep")
    p_ver.add_argument("--draws", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    add_format(p_ver)
    p_ver.set_defaults(run=cmd_verify)

    p_tab = sub.add_parser("table", help="print the 12-row monotonicity decision table")
    add_format(p_tab)
    p_tab.set_defaults(run=cmd_table)

    return parser


# the parser of every main call in the process, built on the first
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if hasattr(args, "function") and hasattr(args, "params"):
        want = _ARITY[args.function]
        if len(args.params) != want:
            parser.exit(2, f"error: {args.function} takes {want} parameters, "
                           f"got {len(args.params)}\n")
    try:
        code = args.run(args)
        # a closed pipe fails here even when the output fits its buffer
        sys.stdout.flush()
        return code
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull
        # so that this flush cannot fail and print an error too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
