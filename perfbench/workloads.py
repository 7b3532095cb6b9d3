"""Seeded inputs, one timed operation and its output checks, per workload.

Every input comes from ``np.random.default_rng(seed)`` in this file, never
from ``taildep.simulate`` or ``taildep.rng``, so a change to those modules
cannot change what is measured.  The program sees only the files and
arguments built here, through its public entry points:
``taildep.cli.main(["report", ...])``, ``taildep.envelope.measure_range`` and
``taildep.envelope.random_feasible``.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import taildep.cli
from taildep.envelope import linf_range_given_tdc, measure_range, random_feasible
from taildep.measures import max_tail_dependence

# Tolerances of the package's own acceptance tests (criteria 5 and 8).
LINF_TOL = 1e-12
PIN_TOL = 1e-12
BAND_TOL = 1e-8

ENVELOPE_MEASURES = ("max_td", "avg_td", "point_eval")


# -- seeded series -----------------------------------------------------------


def _open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1), so quantile transforms stay finite."""
    return (rng.integers(0, 2**52, n) + 0.5) / 2.0**52


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in z])


def _uniform_to_returns(u: np.ndarray) -> np.ndarray:
    # Any increasing map keeps the ranks, which are all the estimator sees.
    return 0.006 * np.log(u / (1.0 - u))


def _clayton_given(u: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """Second coordinate of a Clayton pair by conditional inversion."""
    return ((w ** (-theta / (1.0 + theta)) - 1.0) * u ** -theta + 1.0) ** (-1.0 / theta)


def _gumbel_given(u: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """Second coordinate of a Gumbel pair: bisection on dC/du = w."""
    a = (-np.log(u)) ** theta
    lo, hi = np.zeros_like(u), np.ones_like(u)
    for _ in range(60):
        v = 0.5 * (lo + hi)
        s = a + (-np.log(v)) ** theta
        h = np.exp(-s ** (1.0 / theta)) * s ** (1.0 / theta - 1.0) * a / (-np.log(u)) / u
        below = h < w
        lo = np.where(below, v, lo)
        hi = np.where(below, hi, v)
    return 0.5 * (lo + hi)


def _coupled_returns(kind: str, rng, z_base, u_base) -> np.ndarray:
    """Returns of one ticker with the named tail coupling to the base."""
    n = z_base.size
    if kind == "clayton":
        theta = rng.uniform(0.5, 3.0)
        return _uniform_to_returns(_clayton_given(u_base, _open_uniform(rng, n), theta))
    if kind == "clayton2":
        return _uniform_to_returns(_clayton_given(u_base, _open_uniform(rng, n), 2.0))
    if kind == "gaussian":
        rho = rng.uniform(0.2, 0.8)
        return 0.01 * (rho * z_base + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n))
    if kind == "gumbel_survival":
        theta = rng.uniform(1.2, 3.0)
        v = 1.0 - _gumbel_given(1.0 - u_base, _open_uniform(rng, n), theta)
        return _uniform_to_returns(np.clip(v, 1e-15, 1.0 - 1e-15))
    if kind == "independent":
        return 0.01 * rng.standard_normal(n)
    if kind == "comonotone":
        return 0.01 * z_base
    raise ValueError(kind)


def _write_prices(path: Path, returns: dict[str, np.ndarray], blanks) -> None:
    """Wide price CSV; ``blanks`` holds (price row, ticker) cells left empty."""
    n = next(iter(returns.values())).size
    cols = {t: np.concatenate([[100.0], 100.0 * np.exp(np.cumsum(r))]) for t, r in returns.items()}
    blank = set(blanks)
    d0 = datetime.date(2000, 1, 3)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("date," + ",".join(cols) + "\n")
        for i in range(n + 1):
            cells = ["" if (i, t) in blank else f"{c[i]:.10f}" for t, c in cols.items()]
            fh.write((d0 + datetime.timedelta(days=i)).isoformat() + "," + ",".join(cells) + "\n")


# -- report workloads --------------------------------------------------------


@dataclass(frozen=True)
class ReportShape:
    """Panel size and rolling-window settings of one report workload."""

    n_returns: int
    window: int
    step: int
    kinds: tuple[tuple[str, str], ...]  # (ticker, coupling to BASE)
    blank_row: bool  # one date blank for every ticker, BASE included


def _wide_kinds(n_tickers: int) -> tuple[tuple[str, str], ...]:
    cycle = ("clayton", "gaussian", "gumbel_survival", "independent")
    return tuple((f"T{j + 1:02d}", cycle[j % 4]) for j in range(n_tickers))


DAILY = ReportShape(2500, 500, 1, (("CLAY", "clayton2"), ("INDP", "independent"), ("COMO", "comonotone")), False)
WIDE = ReportShape(5000, 1000, 250, _wide_kinds(48), True)
TINY_DAILY = ReportShape(150, 100, 1, DAILY.kinds, False)
TINY_WIDE = ReportShape(600, 200, 50, _wide_kinds(8), True)


def _blank_row(rng, shape: ReportShape) -> int:
    """A price row whose two NaN returns sit inside one step block in the
    middle of the series, so exactly window // step positions are skipped for
    every seed and the work per op does not depend on the seed."""
    rows = [b for b in range(shape.window + 1, shape.n_returns - shape.window)
            if b % shape.step != 0]
    return int(rows[rng.integers(len(rows))])


def _expected_windows(shape: ReportShape, nan_returns: set[int]) -> int:
    starts = range(0, shape.n_returns - shape.window + 1, shape.step)
    return sum(1 for t in starts if not any(t <= i < t + shape.window for i in nan_returns))


def _report_argv(prices: Path, shape: ReportShape, out_dir: Path) -> list[str]:
    return ["report", "--prices", prices.as_posix(), "--base", "BASE",
            "--window", str(shape.window), "--step", str(shape.step),
            "--out-dir", out_dir.as_posix()]


def _panel_returns(shape: ReportShape, rng) -> dict[str, np.ndarray]:
    z_base = rng.standard_normal(shape.n_returns)
    u_base = _normal_cdf(z_base)
    returns = {"BASE": 0.01 * z_base}
    for ticker, kind in shape.kinds:
        returns[ticker] = _coupled_returns(kind, rng, z_base, u_base)
    return returns


class ReportWorkload:
    """One ``taildep report`` run on a seeded panel; checks its run directory."""

    def __init__(self, shape: ReportShape, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        returns = _panel_returns(shape, rng)
        blanks, nan_returns = [], set()
        if shape.blank_row:
            b = _blank_row(rng, shape)
            blanks = [(b, t) for t in returns]
            nan_returns = {b - 1, b}
        work.mkdir(parents=True, exist_ok=True)
        prices = work / "prices.csv"
        _write_prices(prices, returns, blanks)
        self.out_dir = work / "run"
        self.argv = _report_argv(prices, shape, self.out_dir)
        self.others = [t for t, _ in shape.kinds]
        self.windows_per_pair = _expected_windows(shape, nan_returns)
        self.items_per_op = self.windows_per_pair * len(self.others)

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, tracer) -> int:
        with tracer.span("cli.report"):
            return taildep.cli.main(self.argv)

    def check(self, status: int) -> tuple[list[str], str]:
        """Problems found in the op's outputs, and the run-directory digest."""
        if status != 0:
            return [f"report exited {status}"], ""
        problems = []
        for other in self.others:
            with open(self.out_dir / "pairs" / f"BASE_{other}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.windows_per_pair:
                problems.append(f"BASE_{other}: {len(rows)} windows, expected {self.windows_per_pair}")
            for row in rows:
                lo, hi, v = float(row["linf_lo"]), float(row["linf_hi"]), float(row["linf"])
                if not lo - LINF_TOL <= v <= hi + LINF_TOL:
                    problems.append(f"BASE_{other} start {row['start']}: linf {v} outside [{lo}, {hi}]")
                    break
        return problems, tree_digest(self.out_dir)


def tree_digest(root: Path, pattern: str = "*") -> str:
    """sha256 over the relative path and bytes of each matching file, sorted."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def known_defect_probe(seed: int, work: Path, tiny: bool) -> dict:
    """Untimed: a report_wide-style panel with one blank price in one ticker.

    ROADMAP item 4: the report currently exits 2 with "mismatched window
    dates", because ``cross_section`` demands identical windows across pairs.
    The timed panels therefore blank whole dates only.
    """
    wide = TINY_WIDE if tiny else WIDE
    shape = ReportShape(wide.n_returns, wide.window, wide.step, _wide_kinds(4), False)
    rng = np.random.default_rng([seed, 4])
    returns = _panel_returns(shape, rng)
    probe_dir = work / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    prices = probe_dir / "prices.csv"
    _write_prices(prices, returns, [(_blank_row(rng, shape), "T02")])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = taildep.cli.main(_report_argv(prices, shape, probe_dir / "run"))
    shutil.rmtree(probe_dir, ignore_errors=True)
    return {"case": "one blank price in ticker T02", "exit": status, "stderr": err.getvalue().strip()}


# -- envelope workload -------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeShape:
    """Grids (with the label used in metric names) and the number of draws."""

    grids: tuple[tuple[int, str], ...]
    draw_grid: int
    draws_per_set: int


SWEEP = EnvelopeShape(((100, "m100"), (200, "m200"), (400, "m400")), 100, 10)
# Tiny grids keep the metric labels of the full sweep so the smoke test sees
# every per-layer name.
TINY_SWEEP = EnvelopeShape(((20, "m100"), (40, "m200"), (80, "m400")), 20, 2)


def _clayton_value(s: float, theta: float) -> float:
    return (s ** -theta + (1.0 - s) ** -theta) ** (-1.0 / theta)


class EnvelopeWorkload:
    """``measure_range`` for three measures on three grids and two pin sets,
    plus ``random_feasible`` draws; checks every result."""

    def __init__(self, shape: EnvelopeShape, seed: int):
        self.shape = shape
        rng = np.random.default_rng(seed)
        # Narrow parameter bands: the LP pivot count depends on the pins, and
        # a wide band would make the work per op vary from seed to seed.
        self.lam = float(rng.uniform(0.45, 0.55))
        theta = float(rng.uniform(1.8, 2.2))
        self.pin_sets = (
            ("single", ((0.5, self.lam / 2.0),), 0.25),
            ("clayton3", tuple((s, _clayton_value(s, theta)) for s in (0.25, 0.5, 0.75)), 0.1),
        )
        self.draw_seeds = [int(x) for x in rng.integers(0, 2**32, shape.draws_per_set)]
        self.items_per_op = len(self.pin_sets) * (
            len(shape.grids) * len(ENVELOPE_MEASURES) + shape.draws_per_set)

    def prepare(self) -> None:
        pass

    def run(self, tracer) -> dict:
        ranges, draws = {}, {}
        for name, pins, s0 in self.pin_sets:
            for m, label in self.shape.grids:
                for measure in ENVELOPE_MEASURES:
                    with tracer.span("envelope.measure_range", measure=measure, m=label):
                        ranges[name, m, measure] = measure_range(
                            pins, measure, grid_size=m,
                            s0=s0 if measure == "point_eval" else None)
            draws[name] = []
            for seed in self.draw_seeds:
                with tracer.span("envelope.random_feasible"):
                    draws[name].append(random_feasible(pins, grid_size=self.shape.draw_grid, seed=seed))
        return {"ranges": ranges, "draws": draws}

    def check(self, result: dict) -> tuple[list[str], str]:
        problems = []
        ranges, h = result["ranges"], hashlib.sha256()
        for key, res in ranges.items():
            h.update(repr((key, res.min_value, res.max_value)).encode())
            if not res.min_value <= res.max_value:
                problems.append(f"{key}: min {res.min_value} > max {res.max_value}")
        lo, hi = linf_range_given_tdc(self.lam)
        for m, _ in self.shape.grids:
            res = ranges["single", m, "max_td"]
            if abs(res.min_value - lo) > 2.0 / m or abs(res.max_value - hi) > 2.0 / m:
                problems.append(f"single pin, m={m}: max_td [{res.min_value}, {res.max_value}] "
                                f"not within 2/m of [{lo}, {hi}]")
        for name, pins, _ in self.pin_sets:
            band = ranges[name, self.shape.draw_grid, "max_td"]
            for seed, f in zip(self.draw_seeds, result["draws"][name]):
                h.update(f.values.tobytes())
                missed = [s for s, v in pins if abs(f.eval(s) - v) > PIN_TOL]
                v = max_tail_dependence(f).value
                if missed:
                    problems.append(f"{name} draw {seed}: pins at {missed} not met")
                if not band.min_value - BAND_TOL <= v <= band.max_value + BAND_TOL:
                    problems.append(f"{name} draw {seed}: max_td {v} outside its band")
        return problems, h.hexdigest()


def make(workload: str, seed: int, work: Path, tiny: bool):
    if workload == "report_daily":
        return ReportWorkload(TINY_DAILY if tiny else DAILY, seed, work)
    if workload == "report_wide":
        return ReportWorkload(TINY_WIDE if tiny else WIDE, seed, work)
    if workload == "envelope_sweep":
        return EnvelopeWorkload(TINY_SWEEP if tiny else SWEEP, seed)
    raise ValueError(f"unknown workload {workload!r}")
