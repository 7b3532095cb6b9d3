"""Command line entry points, run through main() with captured output."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taildep
from taildep.cli import main
from taildep.estimator import EstimatorConfig, empirical_tdf, ranks
from taildep.tdf import clayton

PRICES = """date,BASE,AAA
2020-01-01,100.0,50.0
2020-01-02,101.0,50.5
2020-01-03,99.5,49.8
2020-01-04,100.2,50.1
2020-01-05,101.5,50.9
2020-01-06,100.9,50.3
2020-01-07,102.0,51.2
2020-01-08,101.1,50.6
2020-01-09,103.0,51.8
2020-01-10,102.2,51.1
2020-01-11,104.0,52.4
2020-01-12,103.1,51.7
"""


@pytest.fixture
def prices_csv(tmp_path):
    p = tmp_path / "prices.csv"
    p.write_text(PRICES)
    return p


def read_json(path):
    return json.loads(path.read_text())


def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_ingest_writes_returns(prices_csv, tmp_path):
    out = tmp_path / "returns.csv"
    assert main(["ingest", "--prices", str(prices_csv), "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["date", "BASE", "AAA"]
    assert len(rows) == 12  # header + 11 return rows
    assert float(rows[1][1]) == pytest.approx(math.log(101.0 / 100.0))


def test_stats_reports_series(prices_csv, tmp_path):
    ret = tmp_path / "returns.csv"
    main(["ingest", "--prices", str(prices_csv), "--out", str(ret)])
    out = tmp_path / "stats.json"
    assert main(["stats", "--returns", str(ret), "--out", str(out)]) == 0
    doc = read_json(out)
    assert set(doc["per_series"]) == {"BASE", "AAA"}
    assert "q95" in doc["per_series"]["BASE"]


def test_estimate_pair(prices_csv, tmp_path):
    ret = tmp_path / "returns.csv"
    main(["ingest", "--prices", str(prices_csv), "--out", str(ret)])
    out = tmp_path / "est.json"
    rc = main(["estimate", "--returns", str(ret), "--pair", "BASE,AAA",
               "--window", "8", "--step", "2", "--grid", "10",
               "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert len(doc["windows"]) == 2  # starts 0 and 2 inside 11 returns
    w0 = doc["windows"][0]
    assert w0["start"] == 0
    assert w0["end_date"] == "2020-01-09"
    assert len(w0["tdf"]["values"]) == 11


@pytest.mark.parametrize("step", [1, 3])
def test_estimate_file_equals_one_function_per_window(tmp_path, step):
    # The file is what serializing one TailDependenceFunction per window
    # gives, byte for byte; with step 3 a blank return skips windows.
    rng = np.random.default_rng(step)
    n, window, grid = 70, 30, 10
    x = rng.standard_normal(n)
    y = 0.6 * x + rng.standard_normal(n)
    if step > 1:
        y[40] = np.nan
    dates = [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n)]
    ret = tmp_path / "returns.csv"
    ret.write_text("date,BASE,AAA\n" + "".join(
        f"{d},{a!r},{'' if math.isnan(b) else repr(b)}\n" for d, a, b in zip(dates, x.tolist(), y.tolist())))
    out = tmp_path / "est.json"
    assert main(["estimate", "--returns", str(ret), "--pair", "BASE,AAA", "--window", str(window),
                 "--step", str(step), "--grid", str(grid), "--out", str(out)]) == 0
    config = EstimatorConfig(grid_size=grid)
    windows, skipped = [], []
    for start in range(0, n - window + 1, step):
        stop = start + window
        if np.isnan(y[start:stop]).any():
            skipped.append(start)
            continue
        tdf = empirical_tdf(ranks(x[start:stop], y[start:stop]), config)
        windows.append({"start": start, "end_date": dates[stop - 1], "tdf": json.loads(tdf.to_json())})
    assert (len(skipped) > 0) == (step > 1)
    expected = {"pair": ["BASE", "AAA"], "windows": windows, "skipped": skipped}
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_measures_on_serialized_tdf(tmp_path):
    f = tmp_path / "tdf.json"
    f.write_text(clayton(2.0).to_json())
    out = tmp_path / "m.json"
    rc = main(["measures", "--tdf", str(f),
               "--measures", "tdc,linf,lp:2", "--normalization", "doubled",
               "--out", str(out)])
    assert rc == 0
    doc = {row["name"]: row["value"] for row in read_json(out)}
    assert doc["tdc"] == pytest.approx(2.0 ** -0.5, abs=1e-9)
    assert doc["linf"] == pytest.approx(2.0 * clayton(2.0).values.max())


def test_measures_malformed_name_exits_2(tmp_path, capsys):
    f = tmp_path / "tdf.json"
    f.write_text(clayton(2.0).to_json())
    for bad in ("lp:abc", "point:", "tdc:2", "entropy"):
        assert main(["measures", "--tdf", str(f), "--measures", f"tdc,{bad}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and bad in captured.err


def test_compare_serialized(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(clayton(0.5).to_json())
    b.write_text(clayton(3.0).to_json())
    assert main(["compare", "--first", str(a), "--second", str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["relation"] == "less"


def test_envelope_closed_form(tmp_path, capsys):
    assert main(["envelope", "--tdc", "0.5", "--measure", "linf",
                 "--normalization", "doubled"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True
    assert doc["min"] == pytest.approx(0.5)
    assert doc["max"] == pytest.approx(2.0 / 3.0)


def test_envelope_lp_measure(capsys):
    assert main(["envelope", "--tdc", "0.5", "--measure", "l1",
                 "--grid", "60"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min"] == pytest.approx(0.125, abs=1e-8)
    assert doc["max"] == pytest.approx(0.1875, abs=1e-8)


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.77, 1.0])
def test_envelope_l1_at_a_large_grid(lam, capsys):
    # Through the midpoint pin the best slope is 0 by symmetry: the maximum is
    # the curve min(s, 1 - s, lam/2), the minimum the chord with area lam/4.
    m = 2000
    assert main(["envelope", "--tdc", str(lam), "--measure", "l1", "--grid", str(m)]) == 0
    doc = json.loads(capsys.readouterr().out)
    s = np.arange(m + 1) / m
    top = np.minimum(np.minimum(s, 1.0 - s), lam / 2.0)
    assert abs(doc["max"] - (top.sum() - 0.5 * (top[0] + top[-1])) / m) <= 1e-12
    assert abs(doc["min"] - lam / 4.0) <= 1e-12


@pytest.mark.parametrize("measure", ["point:abc", "point:", "point:nan", "point:inf",
                                     "tdc", "lp:2", "point:-0.5"])
def test_envelope_unusable_point_exits_2(measure, capsys):
    assert main(["envelope", "--tdc", "0.5", "--measure", measure, "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # Measures with no envelope keep the command's own message.
    if not measure.startswith("point"):
        assert "--measure must be linf, l1, or point:<s0>" in captured.err


def test_missing_input_files_exit_2(tmp_path, capsys):
    curve, prices = tmp_path / "absent.json", tmp_path / "absent.csv"
    for argv, path in (
        (["measures", "--tdf", str(curve)], curve),
        (["compare", "--first", str(curve), "--second", str(curve)], curve),
        (["ingest", "--prices", str(prices), "--out", str(tmp_path / "r.csv")], prices),
        (["report", "--prices", str(prices), "--base", "BASE",
          "--out-dir", str(tmp_path / "run")], prices),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


def test_non_utf8_prices_exit_2(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_bytes(PRICES.encode().replace(b"101.0", b"10\xff.0"))
    for argv in (["ingest", "--prices", str(prices), "--out", str(tmp_path / "r.csv")],
                 ["report", "--prices", str(prices), "--base", "BASE",
                  "--out-dir", str(tmp_path / "run")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(prices) in err and "UTF-8" in err


def test_package_import_loads_no_test_dependency():
    # scipy and hypothesis are test dependencies only; the CLI must not load them.
    code = ("import sys, taildep, taildep.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hypothesis')))")
    env = {**os.environ, "PYTHONPATH": str(Path(taildep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("text", [
    '{"m": 2}',
    '{"m": 2, ',
    "[0.0, 0.0, 0.0]",
    '{"m": "2", "values": [0.0, 0.0, 0.0], "kind": "validated"}',
])
def test_malformed_curve_json_exits_2(tmp_path, capsys, text):
    f = tmp_path / "curve.json"
    f.write_text(text)
    assert main(["measures", "--tdf", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(f) in err


@pytest.mark.parametrize("command", ["measures", "compare"])
def test_inadmissible_curve_file_exits_2(tmp_path, capsys, command):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text('{"m": 4, "values": [0.0, 0.2, 0.05, 0.2, 0.0], "kind": "validated"}')
    good.write_text(clayton(2.0, grid_size=4).to_json())
    argv = (["measures", "--tdf", str(bad)] if command == "measures"
            else ["compare", "--first", str(good), "--second", str(bad)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: curve file {bad}: grid violates concavity "
                            "at index 2 by 3.000e-01\n")


def test_simulate_writes_uniform_pairs(tmp_path):
    out = tmp_path / "draws.csv"
    rc = main(["simulate", "--family", "clayton", "--theta", "2.0",
               "--n", "50", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["u", "v"]
    assert len(rows) == 51
    u = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert u.min() > 0.0 and u.max() < 1.0


@pytest.mark.parametrize("family, theta", [("clayton", "200"), ("clayton", "inf"),
                                           ("gumbel_survival", "inf"), ("gumbel_survival", "500")])
def test_simulate_theta_out_of_range_exits_2(tmp_path, capsys, family, theta):
    out = tmp_path / "draws.csv"
    argv = ["simulate", "--family", family, "--theta", theta, "--n", "1000", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {family} ") and err.count("\n") == 1
    assert not out.exists()


def test_ingest_of_an_infinite_price_exits_2(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES.replace("101.5,50.9", "101.5,inf"))
    out = tmp_path / "returns.csv"
    assert main(["ingest", "--prices", str(prices), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: infinite price for 'AAA' on 2020-01-05: inf\n"
    assert not out.exists()


def test_report_end_to_end(tmp_path):
    # longer synthetic panel so a 30-row window fits
    rng = np.random.default_rng(1)
    n = 90
    base = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    aaa = base * np.exp(0.005 * rng.standard_normal(n))
    p = tmp_path / "prices.csv"
    with p.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "BASE", "AAA"])
        for i in range(n):
            w.writerow([f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}",
                        f"{base[i]:.6f}", f"{aaa[i]:.6f}"])
    out_dir = tmp_path / "run"
    rc = main(["report", "--prices", str(p), "--base", "BASE",
               "--tickers", "AAA", "--window", "30", "--step", "10",
               "--grid", "20", "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "pairs" / "BASE_AAA.csv").exists()
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["config"]["window"] == 30
    assert manifest["pairs"] == [["BASE", "AAA"]]
    assert manifest["windows_per_pair"]["AAA"] == 6


@pytest.mark.parametrize("tickers, named", [
    ("AAA,AAA", "'AAA'"),
    ("BASE", "'BASE'"),
    ("AAA, BASE", "'BASE'"),
])
def test_report_rejects_repeated_or_base_tickers(prices_csv, tmp_path, capsys, tickers, named):
    # A repeated ticker would count twice in every cross-section statistic,
    # and the base would be paired with itself.
    out_dir = tmp_path / "run"
    rc = main(["report", "--prices", str(prices_csv), "--base", "BASE",
               "--tickers", tickers, "--window", "8", "--grid", "4",
               "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tickers") and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize("tickers", [",", " , ", ",,", ""])
def test_report_tickers_naming_no_ticker_exit_2(prices_csv, tmp_path, capsys, tickers):
    # An empty run directory with no cross-section is not a report.
    out_dir = tmp_path / "run"
    rc = main(["report", "--prices", str(prices_csv), "--base", "BASE",
               "--tickers", tickers, "--window", "8", "--grid", "4",
               "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --tickers") and "names no ticker" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("grid", ["-4", "-2", "0", "5"])
def test_report_bad_grid_exits_2(prices_csv, tmp_path, capsys, grid):
    out_dir = tmp_path / "run"
    rc = main(["report", "--prices", str(prices_csv), "--base", "BASE",
               "--window", "8", "--grid", grid, "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid_size" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["report", "envelope"])
def test_a_run_too_large_for_memory_exits_2(prices_csv, tmp_path, capsys, command):
    # A grid of 1e11 asks numpy for arrays of 745 GiB, which no machine grants.
    out_dir = tmp_path / "run"
    argv = {"report": ["report", "--prices", str(prices_csv), "--base", "BASE", "--window", "8",
                       "--out-dir", str(out_dir)],
            "envelope": ["envelope", "--tdc", "0.5", "--measure", "l1"]}[command]
    assert main(argv + ["--grid", "100000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
    assert not out_dir.exists()


def test_data_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A\n2020-01-02,1.0\n2020-01-01,2.0\n")
    rc = main(["ingest", "--prices", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "row" in capsys.readouterr().err


def test_unknown_pair_member_exits_two(prices_csv, tmp_path, capsys):
    ret = tmp_path / "returns.csv"
    main(["ingest", "--prices", str(prices_csv), "--out", str(ret)])
    rc = main(["estimate", "--returns", str(ret), "--pair", "BASE,ZZZ",
               "--window", "8"])
    assert rc == 2



def _with_blank_column(name: str) -> str:
    """PRICES with a column ``name`` of blank cells between BASE and AAA."""
    header, *rows = PRICES.splitlines()
    cells = [row.split(",") for row in rows]
    return "\n".join([header.replace(",AAA", f",{name},AAA")] +
                     [f"{d},{base},,{aaa}" for d, base, aaa in cells]) + "\n"


@pytest.mark.parametrize("name", ["", " "])
def test_report_rejects_empty_ticker_name_exit_2(tmp_path, capsys, name):
    # Without the check, the unnamed column became pairs/BASE_.csv.
    prices = tmp_path / "prices.csv"
    prices.write_text(_with_blank_column(name))
    out_dir = tmp_path / "run"
    rc = main(["report", "--prices", str(prices), "--base", "BASE",
               "--window", "8", "--grid", "4", "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == "error: wide CSV header: column 3 has an empty ticker name\n"
    assert not out_dir.exists()


def test_report_stats_skip_a_column_the_report_does_not_use(tmp_path, capsys):
    # Column A is all blank and not among --tickers: stats.json leaves it out.
    prices = tmp_path / "prices.csv"
    prices.write_text(_with_blank_column("A"))
    rc = main(["report", "--prices", str(prices), "--base", "BASE", "--tickers", "AAA",
               "--window", "8", "--grid", "4", "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    stats = read_json(tmp_path / "run" / "stats.json")
    assert set(stats["per_series"]) == {"BASE", "AAA"}


def test_report_on_a_panel_with_only_the_base(tmp_path):
    # No pair to estimate: the run directory holds the manifest and the
    # base's statistics, and no pair or cross-section file.
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(line.rpartition(",")[0] + "\n" for line in PRICES.splitlines()))
    out_dir = tmp_path / "run"
    assert main(["report", "--prices", str(prices), "--base", "BASE", "--window", "8",
                 "--grid", "4", "--out-dir", str(out_dir)]) == 0
    assert read_json(out_dir / "manifest.json")["pairs"] == []
    assert set(read_json(out_dir / "stats.json")["per_series"]) == {"BASE"}
    assert sorted(p.name for p in out_dir.rglob("*")) == ["manifest.json", "pairs", "stats.json"]


def test_report_names_a_series_without_observations(tmp_path, capsys):
    # A --tickers series with no observations still fails the report.
    prices = tmp_path / "prices.csv"
    prices.write_text(_with_blank_column("A"))
    rc = main(["report", "--prices", str(prices), "--base", "BASE", "--tickers", "AAA,A",
               "--window", "8", "--grid", "4", "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: pair (BASE, A) has 0 joint observations; window 8 needs at least that many\n")


def test_report_stats_with_every_ticker_listed_equal_the_default(prices_csv, tmp_path):
    args = ["report", "--prices", str(prices_csv), "--base", "BASE", "--window", "8", "--grid", "4"]
    assert main(args + ["--out-dir", str(tmp_path / "all")]) == 0
    assert main(args + ["--tickers", "AAA", "--out-dir", str(tmp_path / "listed")]) == 0
    assert (tmp_path / "all" / "stats.json").read_bytes() == \
        (tmp_path / "listed" / "stats.json").read_bytes()


@pytest.mark.parametrize("command", ["report", "ingest", "stats", "estimate", "envelope", "simulate"])
def test_unwritable_output_exits_2_naming_the_path(prices_csv, tmp_path, capsys, command):
    # An existing file where the command needs a directory.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = {
        "report": ["report", "--prices", str(prices_csv), "--base", "BASE", "--window", "8",
                   "--grid", "4", "--out-dir", str(blocker)],
        "ingest": ["ingest", "--prices", str(prices_csv)],
        "stats": ["stats", "--returns", str(prices_csv)],
        "estimate": ["estimate", "--returns", str(prices_csv), "--pair", "BASE,AAA",
                     "--window", "8", "--grid", "4"],
        "envelope": ["envelope", "--tdc", "0.5"],
        "simulate": ["simulate", "--family", "independence", "--n", "10"],
    }[command]
    if command != "report":
        argv += ["--out", str(blocker / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    path, reason = ((blocker / "pairs", os.strerror(errno.ENOTDIR)) if command == "report"
                    else (blocker, os.strerror(errno.EEXIST)))
    assert err == f"error: cannot write {path}: {reason}\n"


def test_report_into_a_used_out_dir_exits_2_and_keeps_its_files(tmp_path, capsys):
    # A second run into the same directory would leave the first run's
    # BASE_T2.csv and BASE_T3.csv beside a manifest that lists one pair.
    prices = tmp_path / "prices.csv"
    header, *rows = PRICES.splitlines()
    prices.write_text("date,BASE,T1,T2,T3\n" + "".join(
        f"{d},{base},{aaa},{aaa},{base}\n" for d, base, aaa in (row.split(",") for row in rows)))
    out_dir = tmp_path / "run"
    args = ["report", "--prices", str(prices), "--base", "BASE", "--window", "8", "--grid", "4",
            "--out-dir", str(out_dir)]
    assert main(args) == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert len(before) > 3
    capsys.readouterr()
    assert main(args[:-2] + ["--tickers", "T1", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out-dir {out_dir} is not empty; give a new or empty directory\n")
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before
    # An existing empty directory takes the run.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(args[:-1] + [str(empty)]) == 0
    assert (empty / "pairs" / "BASE_T3.csv").read_bytes() == before[out_dir / "pairs" / "BASE_T3.csv"]


# Mutations of a clean wide panel: odd cells, bad and repeated dates,
# duplicated rows and CRLF endings.
BAD_CELLS = ("", "NA", "nan", "-1", "0", "inf", "1e400", "1e-320", '"1,2"', "abc", " x ")
BAD_DATES = ("2020-02-30", "01/02/2020", "", "2020-01-05T00:00")


@settings(max_examples=30, deadline=None)
@given(data=st.data(), crlf=st.booleans())
def test_malformed_wide_panels_exit_0_or_2_with_one_error_line(data, crlf):
    rng = np.random.default_rng(5)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((12, 3)), axis=0))
    rows = [[f"2020-01-{i + 1:02d}", *(f"{p:.6f}" for p in row)] for i, row in enumerate(prices)]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, 11)), data.draw(st.integers(1, 3))
        rows[i][j] = data.draw(st.sampled_from(BAD_CELLS))
    for _ in range(data.draw(st.integers(0, 1))):
        i = data.draw(st.integers(1, 11))
        rows[i][0] = data.draw(st.sampled_from(BAD_DATES + (rows[i - 1][0],)))
    for _ in range(data.draw(st.integers(0, 1))):
        i = data.draw(st.integers(0, 11))
        rows.insert(i, list(rows[i]))
    newline = "\r\n" if crlf else "\n"
    text = newline.join(",".join(row) for row in [["date", "BASE", "T1", "T2"], *rows]) + newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode())
        for argv in (["report", "--prices", str(path), "--base", "BASE", "--window", "4",
                      "--grid", "4", "--out-dir", str(Path(tmp) / "run")],
                     ["ingest", "--prices", str(path), "--out", str(Path(tmp) / "returns.csv")],
                     ["stats", "--returns", str(path), "--out", str(Path(tmp) / "stats.json")],
                     ["estimate", "--returns", str(path), "--pair", "BASE,T1", "--window", "4",
                      "--grid", "4", "--out", str(Path(tmp) / "estimate.json")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main(argv)
            assert status in (0, 2), argv
            if status == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                    err.getvalue()
