"""The batched report path equals the one-curve composition, bit for bit.

Every window row of ``run_pairs`` must be ``==`` to empirical_tdf(ranks(window))
-> least_concave_majorant -> measures.* / linf_range_given_tdc, and every
per-date cross-section row to ``_series_stats`` of that date's column.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taildep import measures as meas
from taildep.envelope import linf_range_given_tdc
from taildep.errors import ConfigError, DataError, DomainError, ParameterError
from taildep.estimator import EstimatorConfig, empirical_tdf, ranks
from taildep.panel import ReturnPanel, _series_stats, series_stats_rows
from taildep.pipeline import CROSS_STATS, PipelineConfig, cross_section, run_pairs
from taildep.tdf import (
    TailDependenceFunction,
    TDFKind,
    least_concave_majorant,
    least_concave_majorant_rows,
)

from conftest import make_random_tdf

NAMES = ("tdc", "l1", "linf", "spearman_ev", "extremal_dep",
         "lp:1", "lp:2.5", "point:0", "point:0.3", "point:1")


def scalar_measure(tdf, name, normalization):
    """The one-curve value of a report measure name."""
    key, _, arg = name.partition(":")
    if key == "tdc":
        return meas.tdc(tdf).value
    if key == "l1":
        return meas.average_tail_dependence(tdf, normalization).value
    if key == "linf":
        return meas.max_tail_dependence(tdf, normalization).value
    if key == "spearman_ev":
        return meas.spearman_ev(tdf).value
    if key == "extremal_dep":
        return meas.extremal_dependence(tdf).value
    if key == "lp":
        return meas.lp_norm(tdf, float(arg), normalization).value
    return meas.point_eval(tdf, float(arg)).value


@st.composite
def panels(draw):
    """A small return panel (ties and NaN holes allowed) and a pipeline config."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(20, 120))
    n_other = draw(st.integers(1, 3))
    window = draw(st.integers(4, min(n, 60)))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n_other + 1))
    values[:, 1:] += draw(st.floats(0.0, 2.0)) * values[:, :1]
    levels = draw(st.sampled_from([None, 3, 8]))
    if levels is not None:  # many ties: stable ranking decides the order
        values = np.floor(values * levels)
    holes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n_other)),
                          max_size=3))
    for row, col in holes:
        values[row, col] = np.nan
    config = PipelineConfig(
        window=window,
        step=draw(st.integers(1, 7)),
        k=draw(st.one_of(st.none(), st.integers(1, window))),
        grid_size=draw(st.sampled_from([2, 4, 10, 20, 50])),
        tail=draw(st.sampled_from(["lower", "upper"])),
        project=draw(st.booleans()),
        normalization=draw(st.sampled_from(["raw", "doubled"])),
    )
    tickers = ("BASE",) + tuple(f"T{j}" for j in range(n_other))
    dates = tuple(f"d{i:04d}" for i in range(n))
    return ReturnPanel(dates, tickers, values), config


def _joint_ok(panel, other, window):
    x, y = panel.column("BASE"), panel.column(other)
    return int((np.isfinite(x) & np.isfinite(y)).sum()) >= window


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(panels())
def test_batched_report_equals_scalar_composition(case):
    panel, config = case
    others = [t for t in panel.tickers[1:] if _joint_ok(panel, t, config.window)]
    reports = run_pairs(panel, "BASE", others, config, NAMES)
    x = panel.column("BASE")
    est_config = config.estimator()
    for rep in reports:
        y = panel.column(rep.other)
        starts = range(0, len(x) - config.window + 1, config.step)
        clean = [t for t in starts
                 if np.all(np.isfinite(x[t:t + config.window]) & np.isfinite(y[t:t + config.window]))]
        assert rep.starts.tolist() == clean
        assert list(rep.skipped) == [t for t in starts if t not in clean]
        for j, start in enumerate(clean):
            stop = start + config.window
            tdf = empirical_tdf(ranks(x[start:stop], y[start:stop]), est_config)
            if config.project:
                tdf = least_concave_majorant(tdf)
            assert np.array_equal(rep.curves[j], tdf.values)
            assert rep.end_dates[j] == panel.dates[stop - 1]
            for col, name in enumerate(NAMES):
                assert rep.values[j, col] == scalar_measure(tdf, name, config.normalization), name
            band = linf_range_given_tdc(meas.tdc(tdf).value, config.normalization)
            assert tuple(rep.linf_bounds[j]) == band

    if reports and all(rep.end_dates == reports[0].end_dates for rep in reports):
        if not reports[0].end_dates:  # every window skipped
            with pytest.raises(DataError):
                cross_section(reports)
            return
        cross = cross_section(reports)
        for col, name in enumerate(NAMES):
            matrix = np.array([rep.values[:, col] for rep in reports])
            for t in range(matrix.shape[1]):
                expected = _series_stats(matrix[:, t])
                assert cross["per_date"][name][t].tolist() == [expected[k] for k in CROSS_STATS]


def _lattice_grid(rng, m, denominator):
    """Admissible-bounded but non-concave values on a coarse lattice, with flat
    runs and ties."""
    s = np.arange(m + 1) / m
    values = np.floor(rng.random(m + 1) * denominator) / denominator
    values = np.minimum(values, np.minimum(s, 1.0 - s))
    values[0] = values[m] = 0.0
    return values


def _concave_pieces(rng, m):
    """Concave, piecewise linear with rational slopes: long runs of points that
    the hull's <= test finds exactly collinear, which it must drop, because
    interpolating through them would round differently."""
    s = np.arange(m + 1) / m
    values = np.minimum(s, 1.0 - s)
    for _ in range(3):
        a = rng.integers(1, 7) / rng.integers(1, 8)
        b = rng.integers(0, 5) / rng.integers(1, 8) / 3.0
        values = np.minimum(values, np.minimum(a * s + b, a * (1.0 - s) + b))
    values[0] = values[m] = 0.0
    return values


@pytest.mark.parametrize("m", [2, 4, 7, 50, 200])
def test_projection_rows_equal_one_curve(m):
    rng = np.random.default_rng(m)
    grids = [_lattice_grid(rng, m, d) for d in (2, 4, 16, 1000) for _ in range(40)]
    grids += [_concave_pieces(rng, m) for _ in range(100)]
    grids = np.array(grids)
    projected = grids.copy()
    least_concave_majorant_rows(projected)
    for raw, row in zip(grids, projected):
        expected = least_concave_majorant(TailDependenceFunction(m, raw, TDFKind.EMPIRICAL))
        assert np.array_equal(row, expected.values)


def test_projection_rows_needs_c_order():
    with pytest.raises(ParameterError):
        least_concave_majorant_rows(np.asfortranarray(np.zeros((4, 11))))


@pytest.mark.parametrize("m", [3, 10, 51, 200])
@pytest.mark.parametrize("normalization", ["raw", "doubled"])
def test_measure_rows_equal_one_curve(m, normalization):
    rng = np.random.default_rng(m)
    tdfs = [make_random_tdf(rng, grid_size=m) for _ in range(150)]
    curves = np.array([f.values for f in tdfs])
    values = meas.measure_rows(curves, NAMES, normalization)
    for f, row in zip(tdfs, values):
        assert row.tolist() == [scalar_measure(f, name, normalization) for name in NAMES]


def test_fortran_ordered_rows_still_exact():
    """Regression: summing a Fortran-ordered (windows, m + 1) array along axis 1
    drifted l1 by an ulp or two on most windows.  The row functions must put
    rows in C order before any reduction."""
    rng = np.random.default_rng(2001)
    tdfs = [make_random_tdf(rng, grid_size=200) for _ in range(300)]
    fortran = np.asfortranarray(np.array([f.values for f in tdfs]))
    values = meas.measure_rows(fortran, ("l1", "spearman_ev", "lp:2"), "doubled")
    for f, row in zip(tdfs, values):
        assert row[0] == meas.average_tail_dependence(f, "doubled").value
        assert row[1] == meas.spearman_ev(f).value
        assert row[2] == meas.lp_norm(f, 2.0, "doubled").value
    columns = np.asfortranarray(rng.standard_normal((60, 49)))
    stats = series_stats_rows(columns)
    for series, row in zip(columns, stats):
        expected = _series_stats(np.array(series))
        assert row.tolist() == [expected[k] for k in CROSS_STATS]


def test_measure_names_fail_cleanly():
    curves = np.zeros((1, 11))
    for bad in ("entropy", "lp:abc", "point:", "tdc:2", "lp"):
        with pytest.raises(ConfigError):
            meas.measure_rows(curves, (bad,))
    with pytest.raises(ParameterError):
        meas.measure_rows(curves, ("lp:0.5",))
    with pytest.raises(DomainError):
        meas.measure_rows(curves, ("point:1.5",))
