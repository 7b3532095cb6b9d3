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
from taildep.estimator import EstimatorConfig, _corner_order, empirical_tdf, ranks, rolling_estimate
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


def _corner_data(rng, kind, shape):
    """Integer-valued with heavy ties, or each row's values drawn with
    replacement from its own continuous draws, or (any other kind) continuous."""
    values = rng.standard_normal(shape)
    if kind == "integer":
        return np.floor(values * 3.0)
    if kind == "copies":
        cols = rng.integers(0, shape[-1], size=shape)
        return np.take_along_axis(values, cols, axis=-1)
    return values


def _tie_at_kth(rng, values, k, tail):
    """Copy each row's k-th corner value to a few random other points, so that
    more than k points lie at or beyond it."""
    values = values.copy()
    n = values.shape[1]
    sign = -1.0 if tail == "upper" else 1.0
    for row in values:
        kth = np.sort(sign * row)[k - 1] * sign
        row[rng.choice(n, size=3, replace=False)] = kth
    return values


def _stable_prefix(values, k, tail):
    order = np.argsort(values, axis=1, kind="stable")
    return (order[:, ::-1] if tail == "upper" else order)[:, :k]


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "integer", "copies", "tied_at_kth"])
@pytest.mark.parametrize("window, k", [(200, 14), (200, 1), (200, 199), (200, 200),
                                       (500, 22), (600, 24), (600, 150), (600, 600)])
def test_corner_order_is_the_stable_order_prefix(tail, kind, window, k):
    """The partial selection must equal the first k columns of the full stable
    argsort (reversed for the upper tail), also where the k-th value is tied
    across the corner boundary and only the first ties (for the upper tail,
    the last) belong to the corner."""
    rng = np.random.default_rng([window, k, len(kind), len(tail)])
    values = _corner_data(rng, kind, (64, window))
    if kind == "tied_at_kth":
        values = _tie_at_kth(rng, values, k, tail)
    assert np.array_equal(_corner_order(values, k, tail), _stable_prefix(values, k, tail))
    if kind != "continuous" and k < window:
        # Ties straddle the corner boundary: some row has more than k points
        # at or beyond its k-th value.
        kth = np.sort(values, axis=1)[:, window - k if tail == "upper" else k - 1]
        beyond = values >= kth[:, None] if tail == "upper" else values <= kth[:, None]
        assert np.any(beyond.sum(axis=1) > k)


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "integer", "copies"])
@pytest.mark.parametrize("window, k", [(200, None), (300, 40), (250, 250)])
def test_rolling_rows_equal_one_window_with_ties(tail, kind, window, k):
    rng = np.random.default_rng([window, len(kind), len(tail)])
    x, y = _corner_data(rng, kind, (2, window + 30))
    y = y + x  # dependent, so the joint corner is populated
    if kind == "integer":
        y = np.floor(y)
    config = EstimatorConfig(k=k, grid_size=50, tail=tail)
    rolling = rolling_estimate(x, y, window, step=1, config=config)
    assert len(rolling) == 31
    for start, row in zip(rolling.starts, rolling.values):
        stop = start + window
        expected = empirical_tdf(ranks(x[start:stop], y[start:stop]), config)
        assert np.array_equal(row, expected.values)


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


def _runs(rng, m, heights):
    """A step function: runs of random lengths, each at a height drawn from
    ``heights``, so most points equal both their neighbours."""
    count = int(rng.integers(1, max(2, min(12, m // 3))))
    cuts = np.sort(rng.choice(np.arange(1, m + 1), count, replace=False))
    run = np.searchsorted(cuts, np.arange(m + 1), side="right")
    return rng.choice(heights, cuts.size + 1)[run]


def _level_rows(rng, m, kind):
    """Rows whose flat runs the hull skips, by kind."""
    i = np.arange(m + 1)
    rows = []
    for _ in range(60):
        k = int(rng.integers(1, 41))
        if kind == "lattice":  # counts / k, as the estimator makes them
            row = _runs(rng, m, np.arange(k + 1) / k)
        elif kind == "float":
            row = _runs(rng, m, rng.random(6))
        elif kind == "collinear":  # flat top on exactly collinear lattice sides
            top = int(rng.integers(0, m // 2 + 1))
            row = np.minimum(np.minimum(i, m - i), top) / k
        elif kind == "descend_ascend":  # down into a run, then up out of it
            lo, hi = np.sort(rng.choice(m + 1, 2, replace=False))
            row = np.where((i >= lo) & (i <= hi), 0.1 * rng.random(), 0.2 + 0.8 * rng.random(m + 1))
            row = np.where(i < lo, np.maximum.accumulate(row[::-1])[::-1], row)
        else:  # "ends_at_m_minus_1": a run from a to m - 1, then a different last value
            row = _runs(rng, m, np.arange(k + 1) / k)
            row[int(rng.integers(0, m)):m] = rng.integers(1, k + 1) / k
            row[m] = 0.0
        if rng.random() < 0.5:
            row[0] = row[m] = 0.0
        rows.append(row)
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("m", [2, 3, 5, 40, 200, 256])
@pytest.mark.parametrize("kind", ["lattice", "float", "collinear", "descend_ascend",
                                  "ends_at_m_minus_1"])
def test_projection_rows_skipping_flat_runs_equal_one_curve(m, kind):
    # The chain scans only points next to a level change (and column m);
    # every row still equals the one-curve projection bit for bit.
    rng = np.random.default_rng(m)
    grids = _level_rows(rng, m, kind)
    if m >= 5:
        flat = (grids[:, 1:-1] == grids[:, :-2]) & (grids[:, 1:-1] == grids[:, 2:])
        assert flat.mean() > 0.2  # most interior points are skipped
    projected = grids.copy()
    least_concave_majorant_rows(projected)
    for raw, row in zip(grids, projected):
        expected = least_concave_majorant(TailDependenceFunction(m, raw, TDFKind.EMPIRICAL))
        assert np.array_equal(row, expected.values)


def _full_scan_rows(rng, m):
    """Rows the row flag sends through every point: steps of subnormal size,
    values in (0, 2**53 * m * tiny), negative values, and values above 1."""
    tiny = np.finfo(float).tiny
    rows = [np.r_[0.0, np.full(m - 1, 5e-324), 0.0]]  # a flat subnormal plateau
    for _ in range(40):
        rows.append(_runs(rng, m, np.arange(4) * 5e-324))
        rows.append(_runs(rng, m, np.arange(4) * rng.random() * tiny))
        rows.append(_runs(rng, m, rng.random(4) * 2.0 ** 52 * m * tiny))
        rows.append(_runs(rng, m, rng.random(4) - 0.5))
        rows.append(_runs(rng, m, 3.0 * rng.random(4)))
    for row in rows:
        row[0] = row[m] = 0.0  # keeps the one-curve projection admissible
    return np.array(rows)


@pytest.mark.parametrize("m", [4, 7, 40, 200])
def test_projection_rows_flagged_for_full_scan_equal_one_curve(m):
    # Where value gaps times grid gaps may underflow or tie, skipping a flat
    # point can move a hull vertex along a flat run, and interpolating from
    # the other vertex rounds differently: [0, d, d, d, 0] with d = 5e-324
    # does so at m = 4.  Mixed with unflagged rows, the flag is per row.
    rng = np.random.default_rng(m)
    grids = np.concatenate([_full_scan_rows(rng, m), _level_rows(rng, m, "lattice")])
    rng.shuffle(grids)
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
