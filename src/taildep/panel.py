"""Price/return panels: CSV ingestion, log returns, summary statistics.

Panels hold a strictly increasing date index, a ticker list, and a float
matrix with NaN marking missing observations.  Quantiles use linear
interpolation of order statistics (the 5% quantile of 1..100 is 5.95), and
standard deviations are sample standard deviations (ddof = 1).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import DataError

WIDE = "wide"
LONG = "long"

SERIES_STATS = ("mean", "median", "st_dev", "minimum", "maximum", "q05", "q95")
CROSS_AGGS = ("q05", "q10", "mean", "median", "q90", "q95")


@dataclass(frozen=True)
class ReturnPanel:
    """Dates x tickers matrix of floats (prices or returns), NaN = missing."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.dates), len(self.tickers)):
            raise DataError("panel matrix shape must be (dates, tickers)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def column(self, ticker: str) -> np.ndarray:
        try:
            j = self.tickers.index(ticker)
        except ValueError:
            raise DataError(f"unknown ticker {ticker!r}") from None
        return self.values[:, j]


def _parse_date(text: str, row: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise DataError(f"row {row}: unparseable date {text!r} (expected ISO YYYY-MM-DD)") from None


def _parse_cell(text: str, row: int, what: str) -> float:
    text = text.strip()
    if text == "" or text.upper() in ("NAN", "NA"):
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DataError(f"row {row}: unparseable {what} {text!r}") from None


def load_prices(path, fmt: str = WIDE) -> ReturnPanel:
    """Parse a price CSV into a panel.

    ``wide``: header ``date,T1,T2,...``, one row per date, already strictly
    increasing.  ``long``: header ``date,ticker,price``; rows in any order,
    assembled then date-sorted; duplicate (date, ticker) cells are errors.
    Errors carry 1-based row numbers (header is row 1).
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read prices file {path}: {exc.strerror}") from None
    with handle:
        rows = csv.reader(handle)
        try:
            header = next(rows, None)
            if header is None:
                raise DataError("empty CSV file")
            if fmt == WIDE:
                return _load_wide(header, rows)
            if fmt == LONG:
                return _load_long(header, rows)
        except UnicodeDecodeError as exc:
            raise DataError(f"prices file {path} is not UTF-8 text: {exc.reason}") from None
    raise DataError(f"format must be {WIDE!r} or {LONG!r}")


def _load_wide(header: list[str], rows) -> ReturnPanel:
    if len(header) < 2:
        raise DataError("wide CSV needs a date column and at least one ticker")
    tickers = tuple(t.strip() for t in header[1:])
    if len(set(tickers)) != len(tickers):
        raise DataError("duplicate ticker columns")
    dates: list[date] = []
    data = array("d")  # row-major prices, parsed as the rows stream in
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"row {row_no}: expected {len(header)} cells, found {len(row)}")
        d = _parse_date(row[0], row_no)
        if dates and d <= dates[-1]:
            raise DataError(f"row {row_no}: dates must be strictly increasing ({d} after {dates[-1]})")
        dates.append(d)
        mark = len(data)
        try:
            data.extend(map(float, row[1:]))  # float strips blanks and reads nan
        except ValueError:  # a blank or NA cell, or an error to report
            del data[mark:]
            data.extend(_parse_cell(cell, row_no, "price") for cell in row[1:])
    if not dates:
        raise DataError("no data rows")
    values = np.frombuffer(data, dtype=float).reshape(len(dates), len(tickers))
    return ReturnPanel(tuple(d.isoformat() for d in dates), tickers, values)


def _load_long(header: list[str], rows) -> ReturnPanel:
    header = [h.strip().lower() for h in header]
    if header != ["date", "ticker", "price"]:
        raise DataError("long CSV header must be date,ticker,price")
    cells: dict[tuple[date, str], float] = {}
    tickers: list[str] = []
    for row_no, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise DataError(f"row {row_no}: expected 3 cells, found {len(row)}")
        d = _parse_date(row[0], row_no)
        ticker = row[1].strip()
        if not ticker:
            raise DataError(f"row {row_no}: empty ticker")
        if (d, ticker) in cells:
            raise DataError(f"row {row_no}: duplicate observation for ({d}, {ticker})")
        if ticker not in tickers:
            tickers.append(ticker)
        cells[(d, ticker)] = _parse_cell(row[2], row_no, "price")
    if not cells:
        raise DataError("no data rows")
    dates = sorted({d for d, _ in cells})
    date_pos = {d: i for i, d in enumerate(dates)}
    ticker_pos = {t: j for j, t in enumerate(tickers)}
    values = np.full((len(dates), len(tickers)), np.nan)
    for (d, ticker), price in cells.items():
        values[date_pos[d], ticker_pos[ticker]] = price
    return ReturnPanel(tuple(d.isoformat() for d in dates), tuple(tickers), values)


def log_returns(panel: ReturnPanel) -> ReturnPanel:
    """Log price differences per ticker; NaN whenever either price is missing.

    Non-positive prices are data errors.  The first date row drops out.
    """
    if len(panel.dates) < 2:
        raise DataError("need at least two dates to form returns")
    prices = panel.values
    bad = np.argwhere(~np.isnan(prices) & (prices <= 0.0))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"non-positive price for {panel.tickers[j]!r} on {panel.dates[i]}: {prices[i, j]}"
        )
    with np.errstate(invalid="ignore"):
        rets = np.log(prices[1:]) - np.log(prices[:-1])
    return ReturnPanel(panel.dates[1:], panel.tickers, rets)


def _quantile(values: np.ndarray, q: float) -> float:
    # Linear interpolation of order statistics: position (n - 1) * q, 0-based.
    return float(np.quantile(values, q, method="linear"))


def _series_stats(values: np.ndarray) -> dict[str, float]:
    clean = values[np.isfinite(values)]
    if clean.size == 0:
        raise DataError("a series has no valid observations")
    return {
        "mean": float(np.mean(clean)),
        "median": float(np.median(clean)),
        "st_dev": float(np.std(clean, ddof=1)) if clean.size > 1 else 0.0,
        "minimum": float(np.min(clean)),
        "maximum": float(np.max(clean)),
        "q05": _quantile(clean, 0.05),
        "q95": _quantile(clean, 0.95),
    }


def series_stats_rows(values: np.ndarray) -> np.ndarray:
    """``_series_stats`` of every row of a finite 2-D array, as (rows, SERIES_STATS).

    Reductions run along the last axis of a C-contiguous array, where numpy
    sums in the same order as for one series, so each row matches exactly.
    """
    a = np.ascontiguousarray(values, dtype=float)
    n = a.shape[1]
    if n == 0:
        raise DataError("a series has no valid observations")
    if not np.all(np.isfinite(a)):
        raise DataError("series stacked as rows must be finite")
    return np.column_stack([
        np.mean(a, axis=1),
        np.median(a, axis=1),
        np.std(a, axis=1, ddof=1) if n > 1 else np.zeros(a.shape[0]),
        np.min(a, axis=1),
        np.max(a, axis=1),
        np.quantile(a, 0.05, axis=1, method="linear"),
        np.quantile(a, 0.95, axis=1, method="linear"),
    ])


def aggregate_rows(values: np.ndarray) -> np.ndarray:
    """The CROSS_AGGS of each row of a (statistics, series) array, as
    (rows, CROSS_AGGS); each row equals ``aggregate`` of it bit for bit.

    Every reduction runs along the last axis of a C-contiguous array, and
    each quantile takes its own ``np.quantile`` call: one call with several
    levels can give a differently signed zero where the order statistics are
    tied +-0.0.
    """
    a = np.ascontiguousarray(values, dtype=float)
    q05, q10, q90, q95 = (np.quantile(a, q, axis=1, method="linear") for q in (0.05, 0.10, 0.90, 0.95))
    return np.column_stack([q05, q10, np.mean(a, axis=1), np.median(a, axis=1), q90, q95])


def aggregate(values: np.ndarray) -> dict[str, float]:
    """The CROSS_AGGS of one statistic across series, in that order."""
    return dict(zip(CROSS_AGGS, aggregate_rows(np.reshape(values, (1, -1)))[0].tolist()))


def summary_stats(panel: ReturnPanel) -> dict:
    """Per-series statistics plus their cross-sectional aggregation.

    Returns {"per_series": {ticker: {stat: value}}, "cross_section":
    {stat: {agg: value}}}; aggregations run over tickers for each statistic.
    """
    per_series = {t: _series_stats(panel.column(t)) for t in panel.tickers}
    cross = {stat: aggregate(np.array([per_series[t][stat] for t in panel.tickers]))
             for stat in SERIES_STATS}
    return {"per_series": per_series, "cross_section": cross}
