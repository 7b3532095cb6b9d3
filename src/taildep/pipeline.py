"""Rolling-window tail dependence pipeline over a return panel.

For each ticker pair: estimate the empirical tail dependence function per
window, project it onto the concave class, compute the measure set, and attach
the feasible sup-measure range implied by the window's coefficient.  Pair
results aggregate cross-sectionally per window date.  All outputs are
deterministic: rerunning the same configuration reproduces files byte for
byte.

The work is batch-first.  The windows of all pairs are stacked into one
C-contiguous (windows, m + 1) array; the projection, the measures and the
bands run over its rows, and every reduction runs along a contiguous last
axis, which numpy sums in the same order as a single curve.  Each row is
therefore bit-identical to the one-window composition of ``empirical_tdf``,
``least_concave_majorant``, the ``measures`` functions and
``linf_range_given_tdc``, which remain the one-curve API.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import measures as meas
from .envelope import linf_range_given_tdc
from .errors import ConfigError, DataError
from .estimator import EstimatorConfig, rolling_estimate, window_starts
from .measures import DOUBLED
from .panel import ReturnPanel, aggregate, series_stats_rows
from .tdf import TailDependenceFunction, TDFKind, least_concave_majorant_rows

# The one-window projection stays importable here, where perfbench/tracing.py
# wraps it.
from .tdf import least_concave_majorant  # noqa: F401

DEFAULT_MEASURES = ("tdc", "l1", "linf", "spearman_ev", "extremal_dep")
CROSS_STATS = ("mean", "median", "st_dev", "minimum", "maximum", "q05", "q95")
TABLE_STATS = ("Mean", "Median", "St. dev.", "Minimum", "Maximum", "5%-quantile", "95%-quantile")
_TABLE_KEY = dict(zip(TABLE_STATS, CROSS_STATS))
TABLE_AGGS = ("5%", "10%", "Mean", "Median", "90%", "95%")  # labels of panel.CROSS_AGGS


@dataclass(frozen=True)
class PipelineConfig:
    """Pair-level configuration: estimator knobs plus reporting conventions."""

    window: int = 500
    step: int = 1
    k: int | None = None
    grid_size: int = 200
    tail: str = "lower"
    project: bool = True
    normalization: str = DOUBLED

    def estimator(self) -> EstimatorConfig:
        return EstimatorConfig(k=self.k, grid_size=self.grid_size, tail=self.tail)


@dataclass(frozen=True)
class PairReport:
    """All windows of one ticker pair, one array row per window."""

    base: str
    other: str
    measure_names: tuple[str, ...]
    starts: np.ndarray = field(repr=False)  # (windows,) first row of each window
    end_dates: tuple[str, ...] = field(repr=False)
    values: np.ndarray = field(repr=False)  # (windows, measures), columns as measure_names
    linf_bounds: np.ndarray = field(repr=False)  # (windows, 2): feasible linf range
    curves: np.ndarray = field(repr=False)  # (windows, m + 1): the function measured
    skipped: tuple[int, ...]
    config: PipelineConfig

    def value(self, name: str) -> np.ndarray:
        """The named measure over the windows."""
        return self.values[:, self.measure_names.index(name)]

    def tdf(self, window: int) -> TailDependenceFunction:
        """The function measured in one window (VALIDATED when projected)."""
        kind = TDFKind.VALIDATED if self.config.project else TDFKind.EMPIRICAL
        return TailDependenceFunction(self.config.grid_size, self.curves[window], kind)


def run_pairs(
    panel: ReturnPanel,
    base: str,
    others,
    config: PipelineConfig = PipelineConfig(),
    measure_names: tuple[str, ...] = DEFAULT_MEASURES,
) -> list[PairReport]:
    """Rolling estimation and measurement for the pairs (base, other), in order.

    The windows of all pairs are stacked into one array before the projection
    and the measures, so both run once however the windows split into pairs.
    ``others`` names each ticker once and not the base: a repeat would count
    twice in every cross-section statistic, and the base would pair with itself.
    """
    names = tuple(measure_names)
    for name in names:
        meas.parse_measure(name)  # fail before estimating
    estimator = config.estimator()  # and before sizing the array by the grid
    others = tuple(others)
    if base in others:
        raise ConfigError(f"--tickers must not list the base ticker {base!r}")
    repeated = sorted(t for t, count in Counter(others).items() if count > 1)
    if repeated:
        raise ConfigError(f"--tickers lists {repeated} more than once")
    series = [_pair_series(panel, base, other, config.window) for other in others]
    # One array for the windows of all pairs; each pair's estimates land in
    # their block directly.
    sizes = [len(window_starts(x, y, config.window, config.step)[0]) for x, y in series]
    offsets = np.cumsum([0, *sizes])
    curves = np.empty((offsets[-1], config.grid_size + 1))
    estimates = [
        rolling_estimate(x, y, config.window, config.step, estimator,
                         out=curves[offsets[j]:offsets[j + 1]])
        for j, (x, y) in enumerate(series)
    ]
    if config.project:
        least_concave_majorant_rows(curves)
    curves.setflags(write=False)
    values = meas.measure_rows(curves, names, config.normalization)
    bands = np.column_stack(linf_range_given_tdc(meas.measure_rows(curves, ("tdc",))[:, 0],
                                                 config.normalization))
    reports = []
    for j, other in enumerate(others):
        rows = slice(offsets[j], offsets[j + 1])
        starts = estimates[j].starts
        end_dates = tuple(panel.dates[t + config.window - 1] for t in starts.tolist())
        reports.append(PairReport(base, other, names, starts, end_dates, values[rows],
                                  bands[rows], curves[rows], estimates[j].skipped, config))
    return reports


def _pair_series(panel: ReturnPanel, base: str, other: str, window: int):
    x = panel.column(base)
    y = panel.column(other)
    joint = int((np.isfinite(x) & np.isfinite(y)).sum())
    if joint < window:
        raise DataError(
            f"pair ({base}, {other}) has {joint} joint observations; "
            f"window {window} needs at least that many"
        )
    return x, y


def run_pair(
    panel: ReturnPanel,
    base: str,
    other: str,
    config: PipelineConfig = PipelineConfig(),
    measure_names: tuple[str, ...] = DEFAULT_MEASURES,
) -> PairReport:
    """Rolling estimation and measurement for one pair of return series."""
    return run_pairs(panel, base, (other,), config, measure_names)[0]


def cross_section(reports: list[PairReport]) -> dict:
    """Aggregate pair reports across pairs.

    Per window date and measure: cross-pair statistics, a (dates, CROSS_STATS)
    array (the per-date rows).  Per measure: each pair's time-series
    statistic, aggregated across pairs (the summary table).  All reports must
    share identical window dates.
    """
    if not reports:
        raise DataError("no pair reports to aggregate")
    dates = reports[0].end_dates
    for rep in reports[1:]:
        if rep.end_dates != dates:
            raise DataError(
                f"pair ({rep.base}, {rep.other}) has mismatched window dates; "
                "cannot align the cross-section"
            )
    names = reports[0].measure_names
    per_date = {}
    table = {}
    for col, name in enumerate(names):
        matrix = np.array([rep.values[:, col] for rep in reports])  # pairs x windows
        per_date[name] = series_stats_rows(np.ascontiguousarray(matrix.T))
        series = series_stats_rows(matrix)  # pairs x CROSS_STATS
        table[name] = {}
        for label, key in _TABLE_KEY.items():
            series_stat = np.ascontiguousarray(series[:, CROSS_STATS.index(key)])
            table[name][label] = dict(zip(TABLE_AGGS, aggregate(series_stat).values()))
    return {"dates": list(dates), "per_date": per_date, "table": table}


# -- run directory -----------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest text that reads back as the same float; used for every CSV cell."""
    return repr(float(x))


def write_run(
    out_dir,
    reports: list[PairReport],
    cross: dict | None,
    manifest: dict,
    stats: dict | None = None,
) -> None:
    """Write a run directory: manifest.json, per-pair CSVs, cross-section files."""
    out = Path(out_dir)
    (out / "pairs").mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if stats is not None:
        with open(out / "stats.json", "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for rep in reports:
        path = out / "pairs" / f"{rep.base}_{rep.other}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            header = ["start", "end_date", *rep.measure_names, "linf_lo", "linf_hi"]
            fh.write(",".join(header) + "\n")
            rows = zip(rep.starts.tolist(), rep.end_dates, rep.values.tolist(),
                       rep.linf_bounds.tolist())
            # tolist() gives Python floats, whose repr is format_float's text.
            for start, end_date, values, bounds in rows:
                fh.write(",".join([str(start), end_date, *map(repr, values), *map(repr, bounds)]) + "\n")
    if cross is not None:
        cs_dir = out / "cross_section"
        cs_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in cross["per_date"].items():
            with open(cs_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write("end_date," + ",".join(CROSS_STATS) + "\n")
                for d, row in zip(cross["dates"], rows.tolist()):
                    fh.write(d + "," + ",".join(map(repr, row)) + "\n")
        with open(cs_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(cross["table"], fh, indent=2, sort_keys=True)
            fh.write("\n")
