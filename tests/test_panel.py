"""CSV ingestion, log returns, summary statistics."""

import math

import numpy as np
import pytest

from taildep.errors import DataError
from taildep.panel import (
    CROSS_AGGS,
    ReturnPanel,
    _parse_cell,
    aggregate,
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


def _aggregate_one(values):
    """The CROSS_AGGS of one 1-D array, one numpy call per statistic."""
    q = [float(np.quantile(values, level, method="linear")) for level in (0.05, 0.10, 0.90, 0.95)]
    return [q[0], q[1], float(np.mean(values)), float(np.median(values)), q[2], q[3]]


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
        expected = np.array(_aggregate_one(row))
        assert out.tobytes() == expected.tobytes()
        assert np.array(list(aggregate(row).values())).tobytes() == expected.tobytes()
    assert list(aggregate(rows[0])) == list(CROSS_AGGS)
