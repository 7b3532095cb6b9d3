"""Rolling-window tail dependence pipeline over a return panel.

For each ticker pair: estimate the empirical tail dependence function per
window, project it onto the concave class, compute the measure set, and attach
the feasible sup-measure range implied by the window's coefficient.  Pair
results aggregate cross-sectionally per window date.  All outputs are
deterministic: rerunning the same configuration reproduces files byte for
byte.

The work is batch-first.  The estimator returns each pair's windows in runs
of bitwise-equal consecutive estimates: the distinct rows and each window's
run.  The runs of all pairs come in one C-contiguous (runs, m + 1) array;
the projection, the measures and the bands run over its rows, and every
reduction runs along a contiguous last axis, which numpy sums in the same
order as a single curve, so a row's result does not depend on the rows
stacked with it.  ``empirical_tdf``, ``least_concave_majorant`` and the
``measures`` functions are one-row calls of these kernels; the loops in
``tests/reference.py`` are their oracle.  Every array after the estimator
holds one row per run, and ``index`` maps windows (or dates) to runs.
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
from .estimator import EstimatorConfig, _window_estimates
from .measures import DOUBLED
from .panel import SERIES_STATS, ReturnPanel, aggregate_rows, series_stats_rows
from .tdf import least_concave_majorant_rows

# The one-pair estimator and the one-window projection stay importable here,
# where perfbench/tracing.py wraps them.
from .estimator import rolling_estimate  # noqa: F401
from .tdf import least_concave_majorant  # noqa: F401

DEFAULT_MEASURES = ("tdc", "l1", "linf", "spearman_ev", "extremal_dep")
CROSS_STATS = SERIES_STATS  # series_stats_rows' columns
# Labels of CROSS_STATS, in that order.
TABLE_STATS = ("Mean", "Median", "St. dev.", "Minimum", "Maximum", "5%-quantile", "95%-quantile")
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
    """All windows of one ticker pair, in runs: window j reads row ``index[j]``
    of ``values`` and ``linf_bounds``."""

    base: str
    other: str
    measure_names: tuple[str, ...]
    starts: np.ndarray = field(repr=False)  # (windows,) first row of each window
    end_dates: tuple[str, ...] = field(repr=False)
    values: np.ndarray = field(repr=False)  # (runs, measures), columns as measure_names
    linf_bounds: np.ndarray = field(repr=False)  # (runs, 2): feasible linf range
    index: np.ndarray = field(repr=False)  # (windows,) run of each window
    skipped: tuple[int, ...]

    def value(self, name: str) -> np.ndarray:
        """The named measure over the windows, ``values[index, col]``."""
        return self.values[self.index, self.measure_names.index(name)]


def run_pairs(
    panel: ReturnPanel,
    base: str,
    others,
    config: PipelineConfig = PipelineConfig(),
    measure_names: tuple[str, ...] = DEFAULT_MEASURES,
) -> list[PairReport]:
    """Rolling estimation and measurement for the pairs (base, other), in order.

    The estimator hands over the runs of all pairs in one array, which the
    projection and the measures read, so both run once however the windows
    split into pairs, and once per run of bitwise-equal consecutive windows.
    ``others`` names each ticker once and not the base: a repeat would count
    twice in every cross-section statistic, and the base would pair with itself.
    """
    names = tuple(measure_names)
    for name in names:
        meas.parse_measure(name)  # fail before estimating
    estimator = config.estimator()  # and before any array is sized by the grid
    others = tuple(others)
    if base in others:
        raise ConfigError(f"--tickers must not list the base ticker {base!r}")
    repeated = sorted(t for t, count in Counter(others).items() if count > 1)
    if repeated:
        raise ConfigError(f"--tickers lists {repeated} more than once")
    for other in others:
        _check_joint(panel, base, other, config.window)
    # One estimator pass over the panel's columns: the base is ranked once.
    pairs = [(panel.tickers.index(base), panel.tickers.index(other)) for other in others]
    rows, estimates = _window_estimates(panel.values.T, pairs, config.window, config.step, estimator)
    if config.project:
        least_concave_majorant_rows(rows)
    # The band's coefficient is the last column; tdc takes no scale.
    measured = meas.measure_rows(rows, (*names, "tdc"), config.normalization)
    bands = np.column_stack(linf_range_given_tdc(measured[:, -1], config.normalization))
    dates = np.array(panel.dates, dtype=object)
    return [PairReport(base, other, names, starts, tuple(dates[starts + config.window - 1]),
                       measured[runs, :-1], bands[runs], index, skipped)
            for other, (runs, starts, index, skipped) in zip(others, estimates)]


def _check_joint(panel: ReturnPanel, base: str, other: str, window: int) -> None:
    x = panel.column(base)
    y = panel.column(other)
    joint = int((np.isfinite(x) & np.isfinite(y)).sum())
    if joint < window:
        raise DataError(
            f"pair ({base}, {other}) has {joint} joint observations; "
            f"window {window} needs at least that many"
        )


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

    Per window date and measure: cross-pair statistics, a (date-runs,
    CROSS_STATS) array, one row per run of dates on which no pair's run index
    changes; ``index`` gives each date's row.  Per measure: each pair's
    time-series statistic, aggregated across pairs (the summary table).  All
    reports must share identical window dates.
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
    # A date starts a run where some pair's window starts a run.
    new = np.ones(len(dates), dtype=bool)
    new[1:] = np.any([np.diff(rep.index) > 0 for rep in reports], axis=0)
    first, index = np.flatnonzero(new), np.cumsum(new) - 1
    per_date = {}
    series = []  # per measure, (CROSS_STATS, pairs)
    for name in names:
        matrix = np.array([rep.value(name) for rep in reports])  # pairs x windows
        per_date[name] = series_stats_rows(matrix.T[first])
        series.append(series_stats_rows(matrix).T)
    # The summary table: every (measure, statistic) row aggregated in one call.
    aggs = iter(aggregate_rows(np.concatenate(series)).tolist())
    table = {name: {label: dict(zip(TABLE_AGGS, next(aggs))) for label in TABLE_STATS} for name in names}
    return {"dates": list(dates), "index": index, "per_date": per_date, "table": table}


# -- run directory -----------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest text that reads back as the same float; used for every CSV cell."""
    return repr(float(x))


def _row_texts(rows: np.ndarray, index: np.ndarray) -> list[str]:
    """The CSV cells of each window (or date) of an array held in runs: every
    row of ``rows`` is formatted once, and ``index`` gives each line's row."""
    # tolist() gives Python floats, whose repr is format_float's text.
    text = [",".join(map(repr, row)) for row in rows.tolist()]
    return [text[i] for i in index.tolist()]


def write_run(
    out_dir,
    reports: list[PairReport],
    cross: dict | None,
    manifest: dict,
    stats: dict | None = None,
) -> None:
    """Write a run directory: manifest.json, per-pair CSVs, cross-section files;
    CSV cells are formatted once per row of the reports' and the
    cross-section's per-run arrays (``_row_texts``)."""
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
            text = _row_texts(np.column_stack([rep.values, rep.linf_bounds]), rep.index)
            fh.writelines(f"{start},{end_date},{cells}\n"
                          for start, end_date, cells in zip(rep.starts.tolist(), rep.end_dates, text))
    if cross is not None:
        cs_dir = out / "cross_section"
        cs_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in cross["per_date"].items():
            with open(cs_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
                fh.write("end_date," + ",".join(CROSS_STATS) + "\n")
                text = _row_texts(rows, cross["index"])
                fh.writelines(f"{d},{cells}\n" for d, cells in zip(cross["dates"], text))
        with open(cs_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(cross["table"], fh, indent=2, sort_keys=True)
            fh.write("\n")
