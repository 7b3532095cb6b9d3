"""Price/return panels: CSV ingestion, log returns, summary statistics.

Panels hold a strictly increasing date index, a ticker list, and a float
matrix with NaN marking missing observations.  Quantiles use linear
interpolation of order statistics (the 5% quantile of 1..100 is 5.95), and
standard deviations are sample standard deviations (ddof = 1).

A wide file is read by numpy's text reader, which converts each cell with
``PyOS_string_to_double`` as ``float`` does, so the values have the per-row
parser's bits; empty, blank-only and NA cells reach it as ``nan``, and any
line or cell the fast reader does not take, an error included, sends the
whole file through the ``csv`` reader (``_load_wide_fast`` has the rules).
Summary statistics stack the series missing the same dates as the rows of
``series_stats_rows`` calls, up to ``STATS_CHUNK_SERIES`` series a call.
"""

from __future__ import annotations

import csv
import itertools
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
# Series per ``series_stats_rows`` call in ``summary_stats``: each call copies
# its block a few times, so this bounds the memory the statistics take.
STATS_CHUNK_SERIES = 8


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


class _Reread(Exception):
    """The fast wide reader met a file it leaves to the per-row reader."""


def load_prices(path, fmt: str = WIDE) -> ReturnPanel:
    """Parse a price CSV into a panel.

    ``wide``: header ``date,T1,T2,...``, one row per date, already strictly
    increasing.  ``long``: header ``date,ticker,price``; rows in any order,
    assembled then date-sorted; duplicate (date, ticker) cells are errors.
    Errors carry 1-based row numbers (header is row 1).

    A wide file is first read by ``_load_wide_fast``; whatever that reader
    leaves alone, an error included, sends the whole file through the per-row
    reader, so the values and the error messages are the per-row reader's.
    """
    try:
        return _read_prices(path, fmt, fast=True)
    except _Reread:
        return _read_prices(path, fmt, fast=False)


def _read_prices(path, fmt: str, fast: bool) -> ReturnPanel:
    """``load_prices`` with the wide body read by ``_load_wide_fast`` if
    ``fast``, else by the per-row ``_load_wide``."""
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
                tickers = _wide_tickers(header)
                # The reader stops after the header, so the handle goes on
                # from the first data line.
                return _load_wide_fast(tickers, handle) if fast else _load_wide(tickers, rows)
            if fmt == LONG:
                return _load_long(header, rows)
        except UnicodeDecodeError as exc:
            raise DataError(f"prices file {path} is not UTF-8 text: {exc.reason}") from None
    raise DataError(f"format must be {WIDE!r} or {LONG!r}")


def _wide_tickers(header: list[str]) -> tuple[str, ...]:
    if len(header) < 2:
        raise DataError("wide CSV needs a date column and at least one ticker")
    tickers = tuple(t.strip() for t in header[1:])
    for column, ticker in enumerate(tickers, start=2):
        if not ticker:
            raise DataError(f"wide CSV header: column {column} has an empty ticker name")
    if len(set(tickers)) != len(tickers):
        raise DataError("duplicate ticker columns")
    return tickers


def _append_date(dates: list[date], text: str, row: int) -> None:
    d = _parse_date(text, row)
    if dates and d <= dates[-1]:
        raise DataError(f"row {row}: dates must be strictly increasing ({d} after {dates[-1]})")
    dates.append(d)


def _parse_prices(cells: list[str], row: int) -> list[float]:
    try:
        return list(map(float, cells))  # float strips blanks and reads nan
    except ValueError:  # a blank or NA cell, or an error to report
        return [_parse_cell(cell, row, "price") for cell in cells]


def _load_wide(tickers: tuple[str, ...], rows) -> ReturnPanel:
    """The per-row reader: ``csv.reader`` rows, cells through ``_parse_prices``."""
    dates: list[date] = []
    data = array("d")  # row-major prices, parsed as the rows stream in
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(tickers) + 1:
            raise DataError(f"row {row_no}: expected {len(tickers) + 1} cells, found {len(row)}")
        _append_date(dates, row[0], row_no)
        data.extend(_parse_prices(row[1:], row_no))
    if not dates:
        raise DataError("no data rows")
    values = np.frombuffer(data, dtype=float).reshape(len(dates), len(tickers))
    return ReturnPanel(tuple(d.isoformat() for d in dates), tickers, values)


_EMPTY_LAST = (",", ",\n", ",\r", ",\r\n")  # line endings after an empty last cell


def _load_wide_fast(tickers: tuple[str, ...], lines) -> ReturnPanel:
    """``_load_wide`` with numpy's C text reader on every row; raises
    ``_Reread`` on anything else.

    A line without a quote is a row whose cells are its comma-separated
    fields.  Its date text is kept, and numpy reads the rest of the line,
    converting each cell with ``PyOS_string_to_double`` after stripping the
    whitespace that ``float`` strips, so each value has ``float``'s bits.  A
    row with an empty cell, a space, a tab or a letter A hands numpy its
    empty, blank and NA cells as ``nan``, as ``_parse_cell`` reads them.  A
    quote (a cell may then hold commas or line breaks), a line without a
    comma, any cell numpy cannot read, a bad or non-increasing date and a
    shape mismatch raise ``_Reread``.
    """
    first = next(lines, None)  # numpy warns on a file with no data rows
    if first is None:
        raise _Reread
    date_texts: list[str] = []

    def numeric_cells():
        for line in itertools.chain((first,), lines):
            date_text, comma, cells = line.partition(",")
            if not comma or '"' in line:
                raise _Reread
            if (",," in line or line.endswith(_EMPTY_LAST) or " " in cells or "\t" in cells
                    or "a" in cells or "A" in cells):
                cells = ",".join("nan" if cell.strip().upper() in ("", "NA") else cell
                                 for cell in cells.split(","))
            date_texts.append(date_text)
            yield cells

    try:
        values = np.loadtxt(numeric_cells(), delimiter=",", comments=None, ndmin=2, dtype=float)
        if values.shape != (len(date_texts), len(tickers)):
            raise _Reread
        dates: list[date] = []
        for row_no, text in enumerate(date_texts, start=2):
            _append_date(dates, text, row_no)
    except (ValueError, DataError):  # UnicodeDecodeError included
        raise _Reread from None
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

    Non-positive and infinite prices are data errors.  The first date row
    drops out.
    """
    if len(panel.dates) < 2:
        raise DataError("need at least two dates to form returns")
    prices = panel.values
    bad = np.argwhere(~np.isnan(prices) & ~((prices > 0.0) & (prices < np.inf)))
    if bad.size:
        i, j = bad[0]
        kind = "infinite" if np.isinf(prices[i, j]) else "non-positive"
        raise DataError(f"{kind} price for {panel.tickers[j]!r} on {panel.dates[i]}: {prices[i, j]}")
    with np.errstate(invalid="ignore"):
        rets = np.log(prices[1:]) - np.log(prices[:-1])
    return ReturnPanel(panel.dates[1:], panel.tickers, rets)


def series_stats_rows(values: np.ndarray) -> np.ndarray:
    """The SERIES_STATS of every row of a finite 2-D array, as (rows, SERIES_STATS).

    Reductions run along the last axis of a C-contiguous array, where numpy
    sums in the same order as for one series, so a row's statistics do not
    depend on the rows stacked with it.  Quantiles interpolate linearly.
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
    (rows, CROSS_AGGS).

    Every reduction runs along the last axis of a C-contiguous array, and
    each quantile takes its own ``np.quantile`` call: one call with several
    levels can give a differently signed zero where the order statistics are
    tied +-0.0.
    """
    a = np.ascontiguousarray(values, dtype=float)
    q05, q10, q90, q95 = (np.quantile(a, q, axis=1, method="linear") for q in (0.05, 0.10, 0.90, 0.95))
    return np.column_stack([q05, q10, np.mean(a, axis=1), np.median(a, axis=1), q90, q95])


def summary_stats(panel: ReturnPanel) -> dict:
    """Per-series statistics plus their cross-sectional aggregation.

    Returns {"per_series": {ticker: {stat: value}}, "cross_section":
    {stat: {agg: value}}}; aggregations run over tickers for each statistic.
    Series missing the same dates are stacked as the rows of
    ``series_stats_rows`` calls, and all statistics are aggregated by one
    ``aggregate_rows`` call; each value has the bits of the same statistic
    computed on one series.
    """
    finite = np.isfinite(panel.values)
    groups: dict[bytes, list[int]] = {}  # columns by their finite mask
    for j in range(finite.shape[1]):
        groups.setdefault(finite[:, j].tobytes(), []).append(j)
    stats = np.empty((len(panel.tickers), len(SERIES_STATS)))
    for columns in groups.values():
        rows = finite[:, columns[0]]
        if not rows.any():
            raise DataError(f"series {panel.tickers[columns[0]]!r} has no valid observations")
        for lo in range(0, len(columns), STATS_CHUNK_SERIES):
            chunk = columns[lo:lo + STATS_CHUNK_SERIES]
            stats[chunk] = series_stats_rows(panel.values.T[chunk][:, rows])
    per_series = {t: dict(zip(SERIES_STATS, row)) for t, row in zip(panel.tickers, stats.tolist())}
    cross = {stat: dict(zip(CROSS_AGGS, row))
             for stat, row in zip(SERIES_STATS, aggregate_rows(stats.T).tolist())}
    return {"per_series": per_series, "cross_section": cross}
