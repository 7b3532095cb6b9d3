"""Rolling pair reports, cross-sections, and run directory output."""

import json
import re

import numpy as np
import pytest

import reference
from taildep.errors import ConfigError, DataError
from taildep.panel import ReturnPanel
from taildep.pipeline import (
    CROSS_STATS,
    PairReport,
    PipelineConfig,
    cross_section,
    run_pair,
    run_pairs,
    write_run,
)

from test_batch import NAMES, reference_window, stats_list


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
    for linf, (lo, hi) in zip(rep.value("linf"), rep.linf_bounds[rep.index], strict=True):
        assert lo - 1e-12 <= linf <= hi + 1e-12


def test_projection_toggle():
    on = run_pair(toy_panel(), "BASE", "A", CFG)
    off = run_pair(toy_panel(), "BASE", "A",
                   PipelineConfig(window=100, step=50, grid_size=50,
                                  project=False))
    assert np.diff(on.rows, 2, axis=1).max() <= 1e-12  # concave
    assert np.all(on.rows[on.index] >= off.rows[off.index] - 1e-12)


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
    # The grid is validated before any array is sized by it, where a
    # negative one would raise numpy's ValueError.
    with pytest.raises(ConfigError, match="grid_size"):
        run_pair(toy_panel(), "BASE", "A",
                 PipelineConfig(window=100, step=50, grid_size=grid_size))


def test_too_short_panel():
    with pytest.raises(DataError):
        run_pair(toy_panel(n=50), "BASE", "A", CFG)


# ---------------------------------------------------------------------------
# Runs of equal windows: each is projected and measured once
# ---------------------------------------------------------------------------

def coupled_panel(n, seed=0):
    """BASE, a noisy pair A, two comonotone pairs C1 and C2 (every window's
    estimate the same), and SKIP, whose one NaN at n // 2 lies in every
    window of n // 2 + 1 returns."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    skip = rng.standard_normal(n)
    skip[n // 2] = np.nan
    values = np.column_stack([base, 0.6 * base + rng.standard_normal(n), 2.0 * base,
                              3.0 * base + 1.0, skip])
    dates = tuple(f"d{i:04d}" for i in range(n))
    return ReturnPanel(dates, ("BASE", "A", "C1", "C2", "SKIP"), values)


def reports_against_one_window_composition(panel, others, config):
    """run_pairs, checked window by window against the reference estimate ->
    projection -> measures / band; returns the reports and the raw one-window
    estimates stacked as run_pairs stacks them."""
    reports = run_pairs(panel, "BASE", others, config, NAMES)
    x = panel.column("BASE")
    raw = []
    for rep in reports:
        y = panel.column(rep.other)
        for j, start in enumerate(rep.starts.tolist()):
            stop = start + config.window
            curve = reference_window(x[start:stop], y[start:stop], config.estimator())
            raw.append(curve)
            if config.project:
                curve = reference.projection(curve)
            run = rep.index[j]
            assert rep.rows[run].tobytes() == curve.tobytes()
            for col, name in enumerate(NAMES):
                assert rep.values[run, col] == reference.measure(curve, name, config.normalization), name
            band = reference.band(reference.measure(curve, "tdc"), config.normalization)
            assert tuple(rep.linf_bounds[run]) == band
    return reports, np.array(raw).reshape(-1, config.grid_size + 1)


def repeats(rows):
    """How many rows equal the row before them."""
    return int((rows[1:] == rows[:-1]).all(axis=1).sum())


@pytest.mark.parametrize("project", [True, False])
def test_equal_windows_within_and_across_pairs(project):
    config = PipelineConfig(window=40, step=1, grid_size=20, project=project)
    reports, raw = reports_against_one_window_composition(
        coupled_panel(90), ("A", "C1", "C2"), config)
    _, c1, c2 = reports
    assert len(c1.starts) == 51 and repeats(raw[51:]) == 101  # C1 then C2: one run
    assert repeats(raw[:51]) > 0  # the noisy pair repeats too, with step 1
    assert len(c1.rows) == 1 and set(c1.index.tolist()) == {0}
    assert c1.rows[0].tobytes() == c2.rows[0].tobytes()
    cross = cross_section(reports)
    for col, name in enumerate(NAMES):
        for t in range(51):
            assert cross["per_date"][name][cross["index"][t]].tolist() == \
                stats_list(np.array([rep.values[rep.index[t], col] for rep in reports]))


def test_one_window_per_pair():
    config = PipelineConfig(window=40, step=1, grid_size=20)
    reports, raw = reports_against_one_window_composition(
        coupled_panel(40), ("C1", "C2", "A"), config)
    assert [len(rep.starts) for rep in reports] == [1, 1, 1]
    assert repeats(raw) == 1  # C1 and C2


def test_pair_with_every_window_skipped_between_equal_pairs():
    config = PipelineConfig(window=40, step=1, grid_size=20)
    reports, raw = reports_against_one_window_composition(
        coupled_panel(79), ("C1", "SKIP", "C2"), config)
    skip = reports[1]
    assert len(skip.starts) == 0 and len(skip.skipped) == 40
    assert skip.values.shape == (0, len(NAMES)) and skip.rows.shape == (0, 21)
    assert skip.linf_bounds.shape == (0, 2) and skip.index.shape == (0,)
    assert len(raw) == 80 and repeats(raw) == 79  # one run across the empty block


def test_reports_hold_runs_not_windows():
    # With step 1 most windows repeat the row before them, so the reports'
    # rows take a small share of one row per window.
    config = PipelineConfig(window=200, step=1, grid_size=50)
    reports = run_pairs(toy_panel(n=700), "BASE", ("A", "B"), config)
    windows = sum(len(rep.starts) for rep in reports)
    assert windows == 2 * 501
    assert sum(rep.rows.nbytes for rep in reports) < windows * (config.grid_size + 1) * 8 / 4
    for rep in reports:
        assert rep.index[0] == 0 and set(np.diff(rep.index).tolist()) <= {0, 1}
        runs = rep.index[-1] + 1
        assert rep.rows.shape == (runs, config.grid_size + 1)
        assert rep.values.shape == (runs, len(rep.measure_names)) and rep.linf_bounds.shape == (runs, 2)


# ---------------------------------------------------------------------------
# Cross sections
# ---------------------------------------------------------------------------

def test_cross_section_layout():
    panel = toy_panel()
    reports = [run_pair(panel, "BASE", t, CFG) for t in ("A", "B")]
    cross = cross_section(reports)
    assert cross["dates"] == list(reports[0].end_dates)
    row = dict(zip(CROSS_STATS, cross["per_date"]["tdc"][cross["index"][0]]))
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


def test_write_run_formats_text_once_per_run(tmp_path):
    # The values, the bounds and the per-date statistics hold one row per
    # run; each row's text is formatted once and printed for every window (or
    # date) whose index names it, so windows 4 and 5 print run 4's text.
    # Separate runs print their own text: 0.0 == -0.0 but their texts differ
    # (runs 0-1, and the bounds of runs 5-6), and NaNs with different payloads
    # print the same (runs 2-3).
    nan1, nan2 = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(float)
    values = np.array([[0.5, 0.0], [0.5, -0.0], [nan1, 0.25], [nan2, 0.25],
                       [0.1, 0.2], [0.1, 0.2], [0.1, 0.2]])
    bounds = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
                       [0.0, 0.0], [0.0, 0.0], [0.0, -0.0]])
    index = np.array([0, 1, 2, 3, 4, 4, 5, 6])
    n = len(index)
    rep = PairReport("BASE", "A", ("tdc", "linf"), np.arange(n), tuple(f"d{i}" for i in range(n)),
                     values, bounds, np.zeros((7, 3)), index, (), PipelineConfig(grid_size=2))
    per_date = np.repeat(values[:, :1], len(CROSS_STATS), axis=1)
    per_date[:, -1] = values[:, 1]
    cross = {"dates": list(rep.end_dates), "index": index, "per_date": {"tdc": per_date}, "table": {}}
    write_run(tmp_path, [rep], cross, manifest={})
    assert (tmp_path / "pairs" / "BASE_A.csv").read_text() == (
        "start,end_date,tdc,linf,linf_lo,linf_hi\n"
        "0,d0,0.5,0.0,0.0,1.0\n"
        "1,d1,0.5,-0.0,0.0,1.0\n"
        "2,d2,nan,0.25,0.0,1.0\n"
        "3,d3,nan,0.25,0.0,1.0\n"
        "4,d4,0.1,0.2,0.0,0.0\n"
        "5,d5,0.1,0.2,0.0,0.0\n"
        "6,d6,0.1,0.2,0.0,0.0\n"
        "7,d7,0.1,0.2,0.0,-0.0\n"
    )
    assert (tmp_path / "cross_section" / "tdc.csv").read_text() == (
        "end_date," + ",".join(CROSS_STATS) + "\n"
        "d0,0.5,0.5,0.5,0.5,0.5,0.5,0.0\n"
        "d1,0.5,0.5,0.5,0.5,0.5,0.5,-0.0\n"
        "d2,nan,nan,nan,nan,nan,nan,0.25\n"
        "d3,nan,nan,nan,nan,nan,nan,0.25\n"
        "d4,0.1,0.1,0.1,0.1,0.1,0.1,0.2\n"
        "d5,0.1,0.1,0.1,0.1,0.1,0.1,0.2\n"
        "d6,0.1,0.1,0.1,0.1,0.1,0.1,0.2\n"
        "d7,0.1,0.1,0.1,0.1,0.1,0.1,0.2\n"
    )
