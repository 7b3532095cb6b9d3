"""CSV ingestion, log returns, summary statistics."""

import math

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from taildep.errors import DataError
from taildep.panel import (
    CROSS_AGGS,
    SERIES_STATS,
    WIDE as WIDE_FORMAT,
    ReturnPanel,
    _parse_cell,
    _read_prices,
    _Reread,
    aggregate_rows,
    load_prices,
    log_returns,
    summary_stats,
)

WIDE = """date,AAA,BBB
2020-01-01,100.0,50.0
2020-01-02,110.0,49.0
2020-01-03,105.0,51.5
"""

LONG = """date,ticker,price
2020-01-02,AAA,110.0
2020-01-01,AAA,100.0
2020-01-01,BBB,50.0
2020-01-03,BBB,51.5
2020-01-02,BBB,49.0
2020-01-03,AAA,105.0
"""


@pytest.fixture
def wide_csv(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text(WIDE)
    return p


@pytest.fixture
def long_csv(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text(LONG)
    return p


def test_load_wide(wide_csv):
    panel = load_prices(wide_csv, fmt="wide")
    assert panel.tickers == ("AAA", "BBB")
    assert panel.dates[0] == "2020-01-01"
    assert panel.values.shape == (3, 2)
    assert panel.column("BBB")[2] == 51.5


def test_long_matches_wide(wide_csv, long_csv):
    # same data, shuffled long rows; loader sorts by date
    w = load_prices(wide_csv, fmt="wide")
    l = load_prices(long_csv, fmt="long")
    assert w.tickers == l.tickers
    assert w.dates == l.dates
    assert np.array_equal(w.values, l.values)


def test_wide_requires_increasing_dates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,A\n2020-01-02,1.0\n2020-01-01,2.0\n")
    with pytest.raises(DataError) as exc:
        load_prices(p, fmt="wide")
    assert "row 3" in str(exc.value)


def test_wide_rejects_ragged_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,A,B\n2020-01-01,1.0\n")
    with pytest.raises(DataError):
        load_prices(p, fmt="wide")


def test_long_rejects_duplicate_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,ticker,price\n2020-01-01,A,1.0\n2020-01-01,A,1.1\n")
    with pytest.raises(DataError):
        load_prices(p, fmt="long")


def test_bad_date_is_row_numbered(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,A\n01/02/2020,1.0\n")
    with pytest.raises(DataError) as exc:
        load_prices(p, fmt="wide")
    assert "row 2" in str(exc.value)


def test_missing_cells_become_nan(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("date,A,B\n2020-01-01,1.0,\n2020-01-02,2.0,NaN\n")
    panel = load_prices(p, fmt="wide")
    assert math.isnan(panel.values[0, 1])
    assert math.isnan(panel.values[1, 1])
    assert panel.values[1, 0] == 2.0


# Cells on which float() and the per-cell parser could disagree: padding,
# underscores, NaN spellings and signs, blanks, infinities.
ODD_CELLS = (" 1.5 ", "1_000", "nan", "-nan", "NaN", " nan ", "+nan", "NA", " na ",
             "", "  ", "inf", "-Infinity", "1e308", "-0.0", "2.5")


def test_wide_rows_parse_like_single_cells(tmp_path):
    # Whole rows go through float() at once; each value must be bit-identical,
    # NaN sign bits included, to what the per-cell parser gives.
    n = len(ODD_CELLS)
    rows = [ODD_CELLS[j:] + ODD_CELLS[:j] for j in range(n)] + [("1.0",) * n]
    p = tmp_path / "odd.csv"
    lines = ["date," + ",".join(f"T{j}" for j in range(n))]
    lines += [f"2020-01-{i + 1:02d}," + ",".join(row) for i, row in enumerate(rows)]
    p.write_text("\n".join(lines) + "\n")
    panel = load_prices(p, fmt="wide")
    expected = np.array([[_parse_cell(cell, 0, "price") for cell in row] for row in rows])
    assert panel.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cell", ["0x10", "abc", " abc ", "1.0.0", "N/A", "nan1"])
@pytest.mark.parametrize("before", ["1.0,2.0", ",NA", " 3 ,nan"])
def test_bad_cell_after_valid_cells_is_row_numbered(tmp_path, cell, before):
    p = tmp_path / "bad.csv"
    p.write_text(f"date,A,B,C\n2020-01-01,1.0,2.0,3.0\n2020-01-02,{before},{cell}\n")
    with pytest.raises(DataError) as exc:
        load_prices(p, fmt="wide")
    assert str(exc.value) == f"row 3: unparseable price {cell.strip()!r}"


def _outcome(read, path):
    """What a reader makes of a file: the panel's dates, tickers and value
    bytes (NaN sign bits included), or its DataError message."""
    try:
        panel = read(path)
    except DataError as exc:
        return "error", str(exc)
    return panel.dates, panel.tickers, panel.values.tobytes()


def _per_row(path):
    return _read_prices(path, WIDE_FORMAT, fast=False)


def _fast_only(path):
    return _read_prices(path, WIDE_FORMAT, fast=True)


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.01, max_value=1e4).map(lambda x: f"{x:.10f}"),
    st.sampled_from(["", "NA", " na ", "nan", "-nan", "NaN", "inf", "-Infinity",
                     " 1.5 ", "\t2", "  ", "1_000", '"2.5"', '"1,5"', "-0.0", "1e500"]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_tickers=st.integers(1, 4), n_rows=st.integers(1, 5),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), final_newline=st.booleans())
def test_fast_wide_reader_equals_per_row_reader(data, n_tickers, n_rows, newline, final_newline):
    rows = [data.draw(st.lists(CELLS, min_size=n_tickers, max_size=n_tickers)) for _ in range(n_rows)]
    lines = ["date," + ",".join(f"T{j}" for j in range(n_tickers))]
    lines += [f"2020-01-{i + 1:02d}," + ",".join(row) for i, row in enumerate(rows)]
    text = newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode())
        expected = _outcome(_per_row, path)
        assert _outcome(load_prices, path) == expected
        try:
            fast = _outcome(_fast_only, path)
        except _Reread:
            return
    # A file the fast reader takes whole must give the per-row reader's panel.
    assert fast == expected and fast[0] != "error"


def test_fast_wide_reader_takes_plain_and_gappy_rows(tmp_path):
    # Empty, blank-only and NA cells reach numpy as nan, and nan cells as
    # they are; padding, infinities and CRLF endings go through numpy.  No
    # re-read.
    p = tmp_path / "prices.csv"
    p.write_bytes(b"date,A,B,C\r\n2020-01-01, 1.5 ,inf,-0.0\r\n2020-01-02,,NA,-nan\r\n"
                  b"2020-01-03,2,1e500,3\r\n2020-01-04,nan,2.5,\r\n2020-01-05,1.0, ,2.0\r\n"
                  b"2020-01-06,\t,3.5,4\r\n2020-01-07,1.5,2.0, \r\n")
    fast = _outcome(_fast_only, p)
    assert fast == _outcome(_per_row, p)
    assert fast[0] == ("2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04", "2020-01-05",
                       "2020-01-06", "2020-01-07")


@pytest.mark.parametrize("text, message", [
    ("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.0\n", "row 3: expected 3 cells, found 2"),
    ("date,A,B\n2020-01-01,1.0,2.0,3.0\n", "row 2: expected 3 cells, found 4"),
    ("date,A\n2020-01-01,1\n\n2020-01-02,2\n", "row 3: expected 2 cells, found 0"),
    ("date,A\n2020-01-01,1\n01/02/2020,2\n",
     "row 3: unparseable date '01/02/2020' (expected ISO YYYY-MM-DD)"),
    ("date,A\n2020-01-02,1\n2020-01-01,2\n",
     "row 3: dates must be strictly increasing (2020-01-01 after 2020-01-02)"),
    ("date,A\n2020-01-02,1\n2020-01-02,2\n",
     "row 3: dates must be strictly increasing (2020-01-02 after 2020-01-02)"),
    ("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.0,x\n", "row 3: unparseable price 'x'"),
    ('date,A,B\n2020-01-01,1.0,"2,5"\n', "row 2: unparseable price '2,5'"),
    ("date,A\n", "no data rows"),
    ("date,A", "no data rows"),
])
def test_wide_errors_keep_their_messages(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_bytes(text.encode())
    with pytest.raises(DataError) as exc:
        load_prices(p, fmt="wide")
    assert str(exc.value) == message


@pytest.mark.parametrize("header", ["date,BASE,,B", "date,BASE, ,B", "date,BASE,B,"])
def test_wide_rejects_empty_ticker_names(tmp_path, header):
    p = tmp_path / "prices.csv"
    p.write_text(header + "\n2020-01-01,1.0,2.0,3.0\n")
    column = [cell.strip() for cell in header.split(",")].index("") + 1
    for fast in (True, False):
        with pytest.raises(DataError) as exc:
            _read_prices(p, WIDE_FORMAT, fast)
        assert str(exc.value) == f"wide CSV header: column {column} has an empty ticker name"


def test_unknown_format_rejected(wide_csv):
    with pytest.raises(DataError):
        load_prices(wide_csv, fmt="tall")


# ---------------------------------------------------------------------------
# Returns
# ---------------------------------------------------------------------------

def test_log_returns_values(wide_csv):
    panel = load_prices(wide_csv, fmt="wide")
    ret = log_returns(panel)
    assert ret.values.shape == (2, 2)
    assert ret.dates == ("2020-01-02", "2020-01-03")
    assert ret.column("AAA")[0] == pytest.approx(math.log(110.0 / 100.0))
    assert ret.column("BBB")[1] == pytest.approx(math.log(51.5 / 49.0))


def test_log_returns_propagate_nan():
    panel = ReturnPanel(dates=("2020-01-01", "2020-01-02", "2020-01-03"),
                        tickers=("A",),
                        values=np.array([[1.0], [np.nan], [2.0]]))
    ret = log_returns(panel)
    assert math.isnan(ret.values[0, 0])
    assert math.isnan(ret.values[1, 0])


def test_log_returns_reject_nonpositive_price():
    panel = ReturnPanel(dates=("2020-01-01", "2020-01-02"),
                        tickers=("A",),
                        values=np.array([[1.0], [-3.0]]))
    with pytest.raises(DataError) as exc:
        log_returns(panel)
    assert "A" in str(exc.value)
    assert "2020-01-02" in str(exc.value)


@pytest.mark.parametrize("cell", ["inf", "1e400", "-inf", "Infinity"])
def test_log_returns_reject_infinite_price(tmp_path, cell):
    p = tmp_path / "prices.csv"
    p.write_text(f"date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.5,{cell}\n2020-01-03,1.2,2.5\n")
    with pytest.raises(DataError) as exc:
        log_returns(load_prices(p, fmt="wide"))
    assert str(exc.value) == f"infinite price for 'B' on 2020-01-02: {float(cell)}"


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------

def test_summary_stats_known_series():
    values = np.arange(1.0, 101.0).reshape(100, 1)
    panel = ReturnPanel(dates=tuple(f"2020-01-{i:02d}" for i in range(1, 101)),
                        tickers=("A",), values=values)
    stats = summary_stats(panel)
    s = stats["per_series"]["A"]
    assert s["mean"] == pytest.approx(50.5)
    assert s["median"] == pytest.approx(50.5)
    assert s["minimum"] == 1.0
    assert s["maximum"] == 100.0
    # linear interpolation: 5% of 1..100 sits at 5.95
    assert s["q05"] == pytest.approx(5.95)
    assert s["q95"] == pytest.approx(95.05)
    assert s["st_dev"] == pytest.approx(np.std(values, ddof=1))


def test_summary_stats_ignore_nan():
    values = np.array([[1.0], [np.nan], [3.0]])
    panel = ReturnPanel(dates=("d1", "d2", "d3"), tickers=("A",), values=values)
    s = summary_stats(panel)["per_series"]["A"]
    assert s["mean"] == pytest.approx(2.0)
    assert s["maximum"] == 3.0


def test_summary_cross_section_aggregates_series_stats():
    # outer key: the per-series statistic; inner: its spread across tickers
    values = np.array([[1.0, 3.0], [2.0, 5.0]])
    panel = ReturnPanel(dates=("d1", "d2"), tickers=("A", "B"), values=values)
    cross = summary_stats(panel)["cross_section"]
    # per-series means are 1.5 and 4.0
    assert cross["mean"]["mean"] == pytest.approx(2.75)
    assert cross["mean"]["median"] == pytest.approx(2.75)
    assert cross["mean"]["q05"] == pytest.approx(1.625)
    assert cross["maximum"]["q95"] == pytest.approx(4.85)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 48])
def test_aggregate_rows_equal_one_statistic_at_a_time(n):
    """Each row of aggregate_rows has the bits of the 1-D computation, also on
    rows of tied +-0.0 where a multi-level quantile call flips a zero's sign."""
    rng = np.random.default_rng(n)
    rows = [rng.standard_normal(n), rng.integers(-2, 3, n) * 0.5,
            rng.choice([0.0, -0.0], n), rng.choice([0.0, -0.0, 1.0, -1.0], n),
            np.full(n, -0.0), rng.standard_normal(n) * 1e300]
    rows += [rng.choice([0.0, -0.0, 0.25], n) for _ in range(200)]
    got = aggregate_rows(np.array(rows))
    assert got.shape == (len(rows), len(CROSS_AGGS))
    for row, out in zip(rows, got):
        expected = reference.aggregate(row)
        assert out.tobytes() == np.array([expected[a] for a in CROSS_AGGS]).tobytes()


def test_summary_stats_batched_by_mask_equal_series_stats():
    # Columns share or differ in their missing dates; each one's statistics
    # and the cross-section must have the bits of the one-series reference.
    rng = np.random.default_rng(7)
    values = rng.standard_normal((40, 7))
    values[3, [1, 4]] = np.nan
    values[10, 2] = np.inf
    values[[0, 5, 6], 5] = np.nan
    values[:39, 6] = np.nan  # one observation left
    values[:, 0] = np.round(values[:, 0])  # ties, +-0.0 among them
    values[2, 0] = -0.0
    tickers = tuple(f"T{j}" for j in range(values.shape[1]))
    panel = ReturnPanel(tuple(f"d{i}" for i in range(len(values))), tickers, values)
    stats = summary_stats(panel)
    for j, t in enumerate(tickers):
        expected = reference.series_stats(values[:, j])
        assert list(stats["per_series"][t]) == list(SERIES_STATS)
        assert np.array(list(stats["per_series"][t].values())).tobytes() == \
            np.array([expected[k] for k in SERIES_STATS]).tobytes()
    for stat in SERIES_STATS:
        expected = reference.aggregate(
            np.array([reference.series_stats(values[:, j])[stat] for j in range(len(tickers))]))
        assert list(stats["cross_section"][stat]) == list(CROSS_AGGS)
        assert np.array(list(stats["cross_section"][stat].values())).tobytes() == \
            np.array([expected[a] for a in CROSS_AGGS]).tobytes()


def test_summary_stats_names_the_series_without_observations():
    values = np.array([[1.0, np.nan, np.nan], [2.0, np.nan, np.inf], [3.0, np.nan, np.nan]])
    panel = ReturnPanel(("d1", "d2", "d3"), ("A", "B", "C"), values)
    with pytest.raises(DataError) as exc:
        summary_stats(panel)
    assert str(exc.value) == "series 'B' has no valid observations"
