"""Spans around the package's layer boundaries, recorded from outside it.

Public functions are wrapped at the module attribute through which their
caller looks them up (``taildep.cli.run_pair``, ``taildep.pipeline.
rolling_estimate``, ...), so no file of the package is edited.  Spans are kept
in memory and written out when the run ends; every per-layer metric, counts
included, is derived from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

import numpy as np

import taildep.cli
import taildep.lp
import taildep.measures
import taildep.pipeline

MEASURE_FUNCTIONS = ("tdc", "point_eval", "max_tail_dependence", "average_tail_dependence",
                     "lp_norm", "spearman_ev", "extremal_dependence")


def _lcm_note(args, result, _):
    return {"changed": int(not np.array_equal(result.values, args[0].values))}


def _rolling_note(args, result, _):
    return {"windows": len(result), "skipped": len(result.skipped)}


def _write_note(args, result, _):
    root = args[0]
    return {"bytes": sum(os.path.getsize(os.path.join(d, f))
                         for d, _, files in os.walk(root) for f in files)}


def _solve_note(args, result, iterations_before):
    return {"iterations": result.iterations - iterations_before}


# (owner, attribute, span name, note on the result, state taken before the call)
TARGETS = [
    (taildep.cli, "load_prices", "panel.load_prices", None, None),
    (taildep.cli, "log_returns", "panel.log_returns", None, None),
    (taildep.cli, "summary_stats", "panel.summary_stats", None, None),
    (taildep.cli, "run_pair", "pipeline.run_pair", None, None),
    (taildep.cli, "cross_section", "pipeline.cross_section", None, None),
    (taildep.cli, "write_run", "pipeline.write_run", _write_note, None),
    (taildep.pipeline, "rolling_estimate", "estimator.rolling_estimate", _rolling_note, None),
    (taildep.pipeline, "least_concave_majorant", "tdf.least_concave_majorant", _lcm_note, None),
    (taildep.pipeline, "linf_range_given_tdc", "envelope.linf_range_given_tdc", None, None),
    *[(taildep.measures, f, f"measures.{f}", None, None) for f in MEASURE_FUNCTIONS],
    (taildep.lp.SimplexSolver, "solve", "lp.solve", _solve_note, lambda args: args[0].iterations),
]


class Tracer:
    """Span recorder.  Outside an op (``op is None``) it records nothing and
    the wrappers call straight through."""

    FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")

    def __init__(self):
        self.spans: list[list] = []  # rows in FIELDS order
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([idx, parent, self.op, name, time.perf_counter_ns(), None, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][5] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, **attrs):
        """Context manager for the benchmark's own spans around its calls."""
        if self.op is None:
            return contextlib.nullcontext()
        return self._span(name, attrs or None)

    @contextlib.contextmanager
    def _span(self, name, attrs):
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, note, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note:
                tracer.spans[idx][6] = note(args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, note, before in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note, before))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """One JSON object per line; times in ns from the first span."""
        t0 = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                rec = dict(zip(self.FIELDS, row))
                rec["start_ns"] -= t0
                rec["end_ns"] -= t0
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- metrics derived from spans ------------------------------------------------

COUNT_METRICS = ("tdf.lcm_calls", "tdf.lcm_changed_frac", "estimator.windows",
                 "estimator.skipped", "estimator.useful_frac", "measures.calls",
                 "pipeline.bytes_written", "lp.solves", "lp.iterations")


def unit(name: str) -> str:
    if name == "pipeline.bytes_written":
        return "B"
    if name.endswith("_frac"):
        return "frac"
    return "count" if name in COUNT_METRICS else "s"


def op_metrics(spans: list[list], range_labels: list[str]) -> dict[str, float]:
    """Per-layer busy time, self time and counts of the spans of one op."""
    dur = {s[0]: (s[5] - s[4]) / 1e9 for s in spans}
    child_s: dict[int, float] = {}
    by_name: dict[str, list[list]] = {}
    for s in spans:
        if s[1] is not None:
            child_s[s[1]] = child_s.get(s[1], 0.0) + dur[s[0]]
        by_name.setdefault(s[3], []).append(s)

    def busy(n):
        return sum((dur[s[0]] for s in by_name.get(n, ())), 0.0)

    def self_s(n):
        return sum((dur[s[0]] - child_s.get(s[0], 0.0) for s in by_name.get(n, ())), 0.0)

    def attr_sum(n, key):
        return sum(s[6][key] for s in by_name.get(n, ()))

    def count(n):
        return len(by_name.get(n, ()))

    lcm_calls = count("tdf.least_concave_majorant")
    windows = attr_sum("estimator.rolling_estimate", "windows")
    skipped = attr_sum("estimator.rolling_estimate", "skipped")
    measure_spans = [s for n, group in by_name.items() if n.startswith("measures.") for s in group]
    is_measure = {s[0] for s in measure_spans}
    solve_s = busy("lp.solve")
    iterations = attr_sum("lp.solve", "iterations")
    out = {
        "tdf.lcm_s": busy("tdf.least_concave_majorant"),
        "tdf.lcm_calls": lcm_calls,
        "tdf.lcm_changed_frac": attr_sum("tdf.least_concave_majorant", "changed") / lcm_calls if lcm_calls else 0.0,
        "estimator.rolling_s": busy("estimator.rolling_estimate"),
        "estimator.windows": windows,
        "estimator.skipped": skipped,
        "estimator.useful_frac": windows / (windows + skipped) if windows + skipped else 0.0,
        "measures.s": sum((dur[s[0]] for s in measure_spans if s[1] not in is_measure), 0.0),
        "measures.calls": len(measure_spans),
        "pipeline.cross_section_s": busy("pipeline.cross_section"),
        "panel.load_s": busy("panel.load_prices"),
        "panel.returns_s": busy("panel.log_returns"),
        "panel.stats_s": busy("panel.summary_stats"),
        "pipeline.write_s": busy("pipeline.write_run"),
        "pipeline.bytes_written": attr_sum("pipeline.write_run", "bytes"),
        "pipeline.run_pair_self_s": self_s("pipeline.run_pair"),
        "cli.report_self_s": self_s("cli.report"),
        "envelope.band_s": busy("envelope.linf_range_given_tdc"),
        "envelope.feasible_s": busy("envelope.random_feasible"),
        "lp.solves": count("lp.solve"),
        "lp.iterations": iterations,
        "lp.solve_s": solve_s,
        "lp.s_per_iteration": solve_s / iterations if iterations else 0.0,
    }
    for label in range_labels:
        measure, m = label.rsplit(".", 1)
        out[f"envelope.range_s.{label}"] = sum(
            (dur[s[0]] for s in by_name.get("envelope.measure_range", ())
             if s[6] == {"measure": measure, "m": m}), 0.0)
    return out


def run_metrics(tracer: Tracer, range_labels: list[str]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced ops; counts must agree across ops.

    Returns the metrics and a list of counts that differed between ops.
    """
    by_op: dict[int, list[list]] = {}
    for s in tracer.spans:
        by_op.setdefault(s[2], []).append(s)
    per_op = [op_metrics(spans, range_labels) for spans in by_op.values()]
    out, unstable = {}, []
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        if key in COUNT_METRICS:
            if len(set(values)) > 1:
                unstable.append(key)
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, unstable
