"""Rolling pair reports, cross-sections, and run directory output."""

import json
import re

import numpy as np
import pytest

from taildep.errors import ConfigError, DataError
from taildep.panel import ReturnPanel
from taildep.pipeline import (
    CROSS_STATS,
    PipelineConfig,
    cross_section,
    run_pair,
    run_pairs,
    write_run,
)
from taildep.tdf import TDFKind


def toy_panel(n=300, seed=0, tickers=("BASE", "A", "B")):
    rng = np.random.default_rng(seed)
    base = rng.random(n)
    cols = [base]
    for j in range(1, len(tickers)):
        w = j / len(tickers)
        cols.append(w * base + (1.0 - w) * rng.random(n))
    dates = tuple(f"2021-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n))
    return ReturnPanel(dates=dates, tickers=tuple(tickers),
                       values=np.column_stack(cols))


CFG = PipelineConfig(window=100, step=50, grid_size=50)


def test_run_pair_window_layout():
    rep = run_pair(toy_panel(), "BASE", "A", CFG)
    assert rep.base == "BASE" and rep.other == "A"
    assert rep.starts.tolist() == [0, 50, 100, 150, 200]
    # window end date is the last row inside the window
    assert rep.end_dates[0] == toy_panel().dates[99]
    assert rep.skipped == ()


def test_record_values_follow_measure_names():
    rep = run_pair(toy_panel(), "BASE", "A", CFG,
                   measure_names=("tdc", "lp:3", "point:0.25"))
    assert set(rep.measure_names) == {"tdc", "lp:3", "point:0.25"}
    assert rep.values.shape[1] == 3
    assert 0.0 <= rep.value("tdc")[0] <= 1.0


def test_linf_contained_in_band_every_window():
    rep = run_pair(toy_panel(), "BASE", "A", CFG)
    for linf, (lo, hi) in zip(rep.value("linf"), rep.linf_bounds):
        assert lo - 1e-12 <= linf <= hi + 1e-12


def test_projection_toggle():
    on = run_pair(toy_panel(), "BASE", "A", CFG)
    off = run_pair(toy_panel(), "BASE", "A",
                   PipelineConfig(window=100, step=50, grid_size=50,
                                  project=False))
    assert on.tdf(0).kind is TDFKind.VALIDATED
    assert off.tdf(0).kind is TDFKind.EMPIRICAL
    assert np.all(on.tdf(0).values >= off.tdf(0).values - 1e-12)


def test_normalization_switch_scales_linf():
    dbl = run_pair(toy_panel(), "BASE", "A", CFG)
    raw = run_pair(toy_panel(), "BASE", "A",
                   PipelineConfig(window=100, step=50, grid_size=50,
                                  normalization="raw"))
    assert dbl.value("linf")[0] == pytest.approx(
        2.0 * raw.value("linf")[0])
    # tdc is a coefficient, not an integral: the switch leaves it alone
    assert dbl.value("tdc")[0] == pytest.approx(
        raw.value("tdc")[0])


def test_nan_windows_reported_skipped():
    panel = toy_panel()
    vals = panel.values.copy()
    vals[120, 1] = np.nan
    broken = ReturnPanel(dates=panel.dates, tickers=panel.tickers, values=vals)
    rep = run_pair(broken, "BASE", "A", CFG)
    assert 50 in rep.skipped and 100 in rep.skipped
    assert rep.starts.tolist() == [0, 150, 200]


def test_unknown_ticker_and_measure():
    with pytest.raises(DataError):
        run_pair(toy_panel(), "BASE", "ZZZ", CFG)
    with pytest.raises(ConfigError):
        run_pair(toy_panel(), "BASE", "A", CFG, measure_names=("entropy",))


@pytest.mark.parametrize("others, named", [
    (("A", "A"), "['A'] more than once"),
    (("A", "B", "A", "B"), "['A', 'B'] more than once"),
    (("BASE",), "base ticker 'BASE'"),
    (("A", "BASE"), "base ticker 'BASE'"),
])
def test_run_pairs_rejects_repeated_or_base_tickers(others, named):
    # A repeated ticker would count twice in every cross-section statistic,
    # and the base would be paired with itself.
    with pytest.raises(ConfigError, match=re.escape(named)):
        run_pairs(toy_panel(), "BASE", others, CFG)
    with pytest.raises(ConfigError, match="base ticker 'BASE'"):
        run_pair(toy_panel(), "BASE", "BASE", CFG)


@pytest.mark.parametrize("grid_size", [-4, -2, -1, 0, 3])
def test_bad_grid_is_a_config_error(grid_size):
    # The grid is validated before it sizes the (windows, grid_size + 1)
    # array, where a negative one would raise numpy's ValueError.
    with pytest.raises(ConfigError, match="grid_size"):
        run_pair(toy_panel(), "BASE", "A",
                 PipelineConfig(window=100, step=50, grid_size=grid_size))


def test_too_short_panel():
    with pytest.raises(DataError):
        run_pair(toy_panel(n=50), "BASE", "A", CFG)


# ---------------------------------------------------------------------------
# Cross sections
# ---------------------------------------------------------------------------

def test_cross_section_layout():
    panel = toy_panel()
    reports = [run_pair(panel, "BASE", t, CFG) for t in ("A", "B")]
    cross = cross_section(reports)
    assert cross["dates"] == list(reports[0].end_dates)
    row = dict(zip(CROSS_STATS, cross["per_date"]["tdc"][0]))
    vals = [rep.value("tdc")[0] for rep in reports]
    assert row["mean"] == pytest.approx(np.mean(vals))
    assert row["minimum"] == pytest.approx(min(vals))
    table = cross["table"]["linf"]
    assert set(table) == {"Mean", "Median", "St. dev.", "Minimum",
                          "Maximum", "5%-quantile", "95%-quantile"}
    assert set(table["Mean"]) == {"5%", "10%", "Mean", "Median", "90%", "95%"}


def test_cross_section_requires_aligned_dates():
    panel = toy_panel()
    a = run_pair(panel, "BASE", "A", CFG)
    b = run_pair(panel, "BASE", "B",
                 PipelineConfig(window=100, step=25, grid_size=50))
    with pytest.raises(DataError) as exc:
        cross_section([a, b])
    assert "B" in str(exc.value)


def test_cross_section_with_every_window_skipped():
    panel = toy_panel()
    vals = panel.values.copy()
    vals[::40, 1] = np.nan  # a hole in every window
    broken = ReturnPanel(dates=panel.dates, tickers=panel.tickers, values=vals)
    rep = run_pair(broken, "BASE", "A", PipelineConfig(window=100, step=10, grid_size=10))
    assert len(rep.starts) == 0 and len(rep.skipped) == 21
    with pytest.raises(DataError):
        cross_section([rep])


def test_table_statistic_values():
    panel = toy_panel()
    rep = run_pair(panel, "BASE", "A", CFG)
    cross = cross_section([rep])
    series = rep.value("tdc")
    block = cross["table"]["tdc"]
    assert block["Mean"]["Mean"] == pytest.approx(np.mean(series))
    assert block["Maximum"]["Median"] == pytest.approx(max(series))
    assert block["St. dev."]["Mean"] == pytest.approx(np.std(series, ddof=1))


# ---------------------------------------------------------------------------
# Run directory
# ---------------------------------------------------------------------------

def test_write_run_files(tmp_path):
    panel = toy_panel()
    reports = [run_pair(panel, "BASE", t, CFG) for t in ("A", "B")]
    cross = cross_section(reports)
    write_run(tmp_path / "run", reports, cross, manifest={"window": 100})

    root = tmp_path / "run"
    assert (root / "manifest.json").exists()
    assert (root / "pairs" / "BASE_A.csv").exists()
    assert (root / "pairs" / "BASE_B.csv").exists()
    assert (root / "cross_section" / "tdc.csv").exists()
    assert (root / "cross_section" / "summary.json").exists()

    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["window"] == 100

    header = (root / "pairs" / "BASE_A.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["start", "end_date"]
    assert header.split(",")[-2:] == ["linf_lo", "linf_hi"]

    summary = json.loads((root / "cross_section" / "summary.json").read_text())
    assert "tdc" in summary
