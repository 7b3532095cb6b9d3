"""The batch kernels equal the one-curve loops of ``reference.py``, bit for bit.

Every window's run row of ``run_pairs`` (row ``index[j]`` of the per-run
arrays) must be ``==`` to the reference estimate of its window -> projection
-> measures / band, and every date's cross-section row (row ``index[t]``) to
the reference statistics of that date's column.  The public one-curve
functions are one-row calls of the kernels and are checked the same way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from taildep import estimator
from taildep import measures as meas
from taildep.errors import ConfigError, DataError, DomainError, ParameterError
from taildep.estimator import EstimatorConfig, _chunk_corners, empirical_tdf, ranks, rolling_estimate
from taildep.panel import ReturnPanel, series_stats_rows
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


def reference_window(x, y, config):
    """The reference estimate of one window under an EstimatorConfig."""
    return reference.window_tdf(x, y, config.resolve_k(len(x)), config.grid_size, config.tail)


def stats_list(values):
    """The reference statistics of one series, in CROSS_STATS order."""
    stats = reference.series_stats(values)
    return [stats[k] for k in CROSS_STATS]


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
def test_batched_report_equals_reference_composition(case):
    panel, config = case
    others = [t for t in panel.tickers[1:] if _joint_ok(panel, t, config.window)]
    reports = run_pairs(panel, "BASE", others, config, NAMES)
    x = panel.column("BASE")
    est_config = config.estimator()
    for rep in reports:
        assert len(rep.values) == len(rep.linf_bounds) == len(rep.rows)
        y = panel.column(rep.other)
        starts = range(0, len(x) - config.window + 1, config.step)
        clean = [t for t in starts
                 if np.all(np.isfinite(x[t:t + config.window]) & np.isfinite(y[t:t + config.window]))]
        assert rep.starts.tolist() == clean
        assert list(rep.skipped) == [t for t in starts if t not in clean]
        per_window = np.column_stack([rep.value(name) for name in NAMES])
        for j, start in enumerate(clean):
            stop = start + config.window
            curve = reference_window(x[start:stop], y[start:stop], est_config)
            if config.project:
                curve = reference.projection(curve)
            run = rep.index[j]
            assert np.array_equal(rep.rows[run], curve)
            assert rep.end_dates[j] == panel.dates[stop - 1]
            for col, name in enumerate(NAMES):
                value = reference.measure(curve, name, config.normalization)
                assert rep.values[run, col] == value and per_window[j, col] == value, name
            band = reference.band(reference.measure(curve, "tdc"), config.normalization)
            assert tuple(rep.linf_bounds[run]) == band

    if reports and all(rep.end_dates == reports[0].end_dates for rep in reports):
        if not reports[0].end_dates:  # every window skipped
            with pytest.raises(DataError):
                cross_section(reports)
            return
        cross = cross_section(reports)
        index = cross["index"]
        assert len(index) == len(reports[0].end_dates) and index[0] == 0
        assert set(np.diff(index).tolist()) <= {0, 1}
        for col, name in enumerate(NAMES):
            assert len(cross["per_date"][name]) == index[-1] + 1
            for t in range(len(index)):
                column = np.array([rep.values[rep.index[t], col] for rep in reports])
                assert cross["per_date"][name][index[t]].tolist() == stats_list(column)


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


def _kernel_corners(values, k, tail, need):
    """The kernel's k-th values and corners of the windows ``need`` marks, each
    row of ``values`` one series; window o starts at point o and spans
    ``values.shape[1] - need.shape[1] + 1`` points.  Corners are returned as
    positions within their window."""
    window = values.shape[1] - need.shape[1] + 1
    kth, ranked, corners = _chunk_corners(values, need, np.arange(need.shape[1]), window, k,
                                          need.shape[1], tail == "upper")
    return kth, corners[ranked].astype(np.intp)


def _check_windows(values, k, tail, need):
    """Every needed window's corner is the stable order prefix of that window,
    and its k-th value the last value of that prefix."""
    window = values.shape[1] - need.shape[1] + 1
    kth, corner = _kernel_corners(values, k, tail, need)
    for o in range(need.shape[1]):
        rows = np.flatnonzero(need[:, o])
        part = values[rows, o:o + window]
        prefix = _stable_prefix(part, k, tail)
        assert np.array_equal(corner[rows, o], prefix), o
        last = part[np.arange(len(rows)), prefix[:, -1]]
        assert np.array_equal(kth[rows, o], -last if tail == "upper" else last)
    assert np.isnan(kth[~need]).all()


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "integer", "copies", "tied_at_kth"])
@pytest.mark.parametrize("window, k", [(200, 14), (200, 1), (200, 199), (200, 200),
                                       (500, 22), (600, 24), (600, 150), (600, 600)])
def test_corner_order_is_the_stable_order_prefix(tail, kind, window, k):
    """The partial selection must equal the first k columns of the full stable
    argsort (reversed for the upper tail), also where the k-th value is tied
    across the corner boundary and only the first ties (for the upper tail,
    the last) belong to the corner.  Each row is one lone window, a span of
    its own."""
    rng = np.random.default_rng([window, k, len(kind), len(tail)])
    values = _corner_data(rng, kind, (64, window))
    if kind == "tied_at_kth":
        values = _tie_at_kth(rng, values, k, tail)
    _check_windows(values, k, tail, np.ones((64, 1), dtype=bool))
    if kind != "continuous" and k < window:
        # Ties straddle the corner boundary: some row has more than k points
        # at or beyond its k-th value.
        kth = np.sort(values, axis=1)[:, window - k if tail == "upper" else k - 1]
        beyond = values >= kth[:, None] if tail == "upper" else values <= kth[:, None]
        assert np.any(beyond.sum(axis=1) > k)


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "integer", "copies", "tied_at_kth"])
@pytest.mark.parametrize("window, k", [(200, 14), (200, 1), (200, 200), (600, 24), (600, 600)])
@pytest.mark.parametrize("c", [2, 5, 33])
def test_shared_span_corners_are_the_stable_order_prefix(tail, kind, window, k, c):
    """Windows with consecutive starts share one span: c windows read one
    union of window + c - 1 points, and each one's corner is still its own
    stable order prefix, also where the union's (k + c - 1)-th value, the
    candidate threshold, is tied ("tied_at_kth" copies it to a few points).
    Windows that no pair needs split the row into spans of other lengths and
    lone windows, ranked in the same call."""
    rng = np.random.default_rng([window, k, len(kind), len(tail), c])
    values = _corner_data(rng, kind, (16, window + c - 1))
    if kind == "tied_at_kth":
        values = _tie_at_kth(rng, values, k + c - 1, tail)
    need = np.ones((16, c), dtype=bool)
    need[8:] = rng.random((8, c)) < 0.6
    _check_windows(values, k, tail, need)
    if kind == "tied_at_kth" and k < window:
        # More points than k + c - 1 lie at or beyond the threshold.
        sign = -1.0 if tail == "upper" else 1.0
        cut = np.sort(sign * values, axis=1)[:, [k + c - 2]]
        assert np.any((sign * values <= cut).sum(axis=1) > k + c - 1)


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
    for start, row in zip(rolling.starts, rolling.rows[rolling.index]):
        stop = start + window
        assert np.array_equal(row, reference_window(x[start:stop], y[start:stop], config))


def _reuse_data(rng, kind, tail, n):
    """A dependent series pair whose windows often drop or add a point equal
    to their k-th value (all kinds but "continuous" and "comonotone")."""
    x = rng.standard_normal(n)
    y = 0.7 * x + 0.7 * rng.standard_normal(n)
    if kind == "comonotone":
        y = np.exp(x)
    elif kind == "integer":
        x, y = np.floor(x * 2.0), np.floor(y * 2.0)
    elif kind == "integer_comonotone":
        x = np.floor(x * 2.0)
        y = 3.0 * x
    elif kind == "signed_zeros":
        # Most values are zeros of either sign, so the k-th value is 0.0 or
        # -0.0 and the dropped or added point is often the other zero.
        x = np.where(x < 0.5, rng.choice([0.0, -0.0], n), x)
        y = np.where(y < 0.4, rng.choice([0.0, -0.0], n), y)
    if tail == "upper":  # the same corners, mirrored
        x, y = -x, -y
    return x, y


def _boundary_ties(x, y, starts, window, k, tail):
    """How many windows one point after the one before drop or add a point
    equal to the earlier window's k-th value in x or in y."""
    count = 0
    for prev, start in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if start != prev + 1:
            continue
        for v in (x, y):
            u = -v[prev:prev + window + 1] if tail == "upper" else v[prev:prev + window + 1]
            kth = np.sort(u[:-1])[k - 1]
            count += int(u[0] == kth or u[-1] == kth)
    return count


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "comonotone", "integer", "integer_comonotone",
                                  "signed_zeros"])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("k", [None, 1, 120])
@pytest.mark.parametrize("gap", [False, True])
def test_rolling_rows_reuse_only_windows_with_the_same_corners(tail, kind, step, k, gap, monkeypatch):
    """A window reuses the row before it only when it is that window moved by
    one point and the dropped and the added point lie strictly beyond its
    k-th value in x and y; every row stays == the one-window estimate, where
    those points tie the k-th value (also 0.0 against -0.0), across NaN gaps
    that break the run of starts, and for step > 1."""
    window = 120
    rng = np.random.default_rng([len(kind), step, k or 0, gap, len(tail)])
    x, y = _reuse_data(rng, kind, tail, window + 300)
    if gap:  # skipped windows, so the starts jump twice
        x[140] = np.nan
        y[290] = np.nan
    counted = []
    count = estimator._corner_counts
    monkeypatch.setattr(estimator, "_corner_counts",
                        lambda xs, *args: (counted.append(len(xs)), count(xs, *args))[1])
    config = EstimatorConfig(k=k, grid_size=20, tail=tail)
    rolling = rolling_estimate(x, y, window, step=step, config=config)
    monkeypatch.undo()
    assert len(rolling) > 10 and (len(rolling.skipped) > 0) == gap
    for start, row in zip(rolling.starts.tolist(), rolling.rows[rolling.index]):
        stop = start + window
        assert np.array_equal(row, reference_window(x[start:stop], y[start:stop], config))
    k_eff = config.resolve_k(window)
    if step > 1 or k_eff == window:
        assert sum(counted) == len(rolling)  # nothing lies strictly beyond the largest value
    else:
        assert sum(counted) < len(rolling)  # some rows really were reused
    if kind in ("integer", "integer_comonotone", "signed_zeros") and step == 1 and k is None:
        assert _boundary_ties(x, y, rolling.starts, window, k_eff, tail) > 0


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "levels"])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("chunk_elements", [None, 400])
def test_rolling_runs_are_exact_and_maximal(tail, kind, step, chunk_elements, monkeypatch):
    """The estimator's runs: every window's row rows[index] is == its
    one-window estimate bit for bit, consecutive rows differ in their bits
    (equal rows merge whether computed or reused), and index starts at 0 and
    steps by 0 or 1; also with small chunks, so that runs cross chunk
    boundaries."""
    window = 80
    rng = np.random.default_rng([len(kind), step, len(tail), chunk_elements or 0])
    n = window + 240
    if kind == "levels":  # 30 integer levels: heavy ties, many equal computed rows
        x = rng.integers(0, 30, n).astype(float)
        y = np.floor((x + rng.integers(0, 30, n)) / 2.0)
    else:
        x = rng.standard_normal(n)
        y = 0.7 * x + 0.7 * rng.standard_normal(n)
    if chunk_elements is not None:
        monkeypatch.setattr(estimator, "CHUNK_ELEMENTS", chunk_elements)
    config = EstimatorConfig(grid_size=20, tail=tail)
    rolling = rolling_estimate(x, y, window, step=step, config=config)
    rows, index = rolling.rows, rolling.index
    assert len(index) == len(rolling.starts) == len(rolling) > 50
    assert index[0] == 0 and set(np.diff(index).tolist()) <= {0, 1}
    assert index[-1] == len(rows) - 1
    bits = rows.view(np.uint64)
    assert (bits[1:] != bits[:-1]).any(axis=1).all()
    for start, run in zip(rolling.starts.tolist(), index.tolist()):
        stop = start + window
        assert rows[run].tobytes() == reference_window(x[start:stop], y[start:stop], config).tobytes()
    assert len(rows) < len(index)  # some windows share a run
    if chunk_elements is not None and step == 1:
        per_chunk, _ = estimator._chunking(2, window, config.resolve_k(window), step)
        cuts = np.arange(per_chunk, len(index), per_chunk)
        assert (index[cuts] == index[cuts - 1]).any()  # a run crosses a chunk boundary


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("kind", ["continuous", "integer"])
def test_many_pairs_equal_one_pair_calls(tail, step, kind, monkeypatch):
    """One estimator pass over a base and four others (and a pair without the
    base) gives every pair the rows, index, starts and skipped windows of its
    own one-pair call, bit for bit.  One other has a NaN gap, so pairs of the
    same base hold different windows; the chunks are small, so runs cross
    them, and the one-pair calls cut their chunks elsewhere."""
    window, n = 60, 400
    rng = np.random.default_rng([step, len(tail), len(kind)])
    columns = rng.standard_normal((5, n))
    columns[1:] += rng.random((4, 1)) * columns[0]
    if kind == "integer":
        columns = np.floor(columns * 2.0)
    columns[2, 150:153] = np.nan
    monkeypatch.setattr(estimator, "CHUNK_ELEMENTS", 1000)
    config = EstimatorConfig(grid_size=20, tail=tail)
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 2)]
    together = estimator._window_estimates(columns, pairs, window, step, config)
    assert together[0].starts.size != together[1].starts.size  # the gap is the pair's own
    for (i, j), got in zip(pairs, together):
        alone = rolling_estimate(columns[i], columns[j], window, step, config)
        assert got.starts.tolist() == alone.starts.tolist()
        assert got.skipped == alone.skipped
        assert got.index.tolist() == alone.index.tolist()
        assert got.rows.tobytes() == alone.rows.tobytes()
        assert len(got.rows) < len(got.starts)


def _module_spans(starts, window, k, step):
    """The spans the estimator forms over gap-free starts: chunks of
    positions, each cut into spans, as ``_chunking`` sizes them."""
    size, span = estimator._chunking(2, window, k, step)
    for lo in range(0, len(starts), size):
        hi = min(lo + size, len(starts))
        for first in range(lo, hi, span):
            yield starts[first], min(span, hi - first)


@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["integer", "signed_zeros", "zeros_at_threshold"])
@pytest.mark.parametrize("k", [None, 1, 30])
def test_rolling_rows_with_ties_at_the_span_threshold(tail, kind, k):
    """Ties exactly at a shared span's candidate threshold (the union's
    (k + c - 1)-th value) and at windows' k-th values, zeros of both signs
    among them: every row is still == the one-window estimate."""
    window = 120
    rng = np.random.default_rng([len(kind), k or 0, len(tail)])
    n = window + 200
    config = EstimatorConfig(k=k, grid_size=20, tail=tail)
    k_eff = config.resolve_k(window)
    if kind == "zeros_at_threshold":
        # The smallest values are zeros of either sign, about as many as a
        # span's candidates, so a span's threshold is often a zero and often
        # not.
        x, y = rng.standard_normal((2, n))
        y = 0.7 * x + 0.7 * y
        _, span = estimator._chunking(2, window, k_eff, 1)
        share = (k_eff + span - 1) / (window + span - 1)
        x = np.where(x < np.quantile(x, share), rng.choice([0.0, -0.0], n), x + 5.0)
        y = np.where(y < np.quantile(y, share), rng.choice([0.0, -0.0], n), y + 5.0)
        if tail == "upper":
            x, y = -x, -y
    else:
        x, y = _reuse_data(rng, kind, tail, n)
    rolling = rolling_estimate(x, y, window, step=1, config=config)
    for start, row in zip(rolling.starts.tolist(), rolling.rows[rolling.index]):
        stop = start + window
        assert np.array_equal(row, reference_window(x[start:stop], y[start:stop], config))
    sign = -1.0 if tail == "upper" else 1.0
    tied_threshold = tied_kth = signed = 0
    for v in (x, y):
        u = sign * v
        for first, c in _module_spans(rolling.starts, window, k_eff, 1):
            union = u[first:first + window + c - 1]
            cut = np.sort(union)[k_eff + c - 2]
            at_cut = union[union == cut]
            tied_threshold += at_cut.size > 1 and (union <= cut).sum() > k_eff + c - 1
            signed += cut == 0.0 and len(set(np.signbit(at_cut).tolist())) == 2
        for t in rolling.starts.tolist():
            kth = np.sort(u[t:t + window])[k_eff - 1]
            tied_kth += (u[t:t + window] <= kth).sum() > k_eff
    assert tied_threshold > 0 and tied_kth > 0
    if kind != "integer":
        assert signed > 0


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
        assert np.array_equal(row, reference.projection(raw))


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
        assert np.array_equal(row, reference.projection(raw))


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
        assert np.array_equal(row, reference.projection(raw))


def test_projection_rows_needs_c_order():
    with pytest.raises(ParameterError):
        least_concave_majorant_rows(np.asfortranarray(np.zeros((4, 11))))


@pytest.mark.parametrize("m", [3, 10, 51, 200])
@pytest.mark.parametrize("normalization", ["raw", "doubled"])
def test_measure_rows_equal_one_curve(m, normalization):
    rng = np.random.default_rng(m)
    curves = np.array([make_random_tdf(rng, grid_size=m).values for _ in range(150)])
    values = meas.measure_rows(curves, NAMES, normalization)
    for curve, row in zip(curves, values):
        assert row.tolist() == [reference.measure(curve, name, normalization) for name in NAMES]


def test_fortran_ordered_rows_still_exact():
    """Regression: summing a Fortran-ordered (windows, m + 1) array along axis 1
    drifted l1 by an ulp or two on most windows.  The row functions must put
    rows in C order before any reduction."""
    rng = np.random.default_rng(2001)
    curves = np.array([make_random_tdf(rng, grid_size=200).values for _ in range(300)])
    names = ("l1", "spearman_ev", "lp:2")
    values = meas.measure_rows(np.asfortranarray(curves), names, "doubled")
    for curve, row in zip(curves, values):
        assert row.tolist() == [reference.measure(curve, name, "doubled") for name in names]
    columns = np.asfortranarray(rng.standard_normal((60, 49)))
    stats = series_stats_rows(columns)
    for series, row in zip(columns, stats):
        assert row.tolist() == stats_list(np.array(series))


def test_measure_names_fail_cleanly():
    curves = np.zeros((1, 11))
    for bad in ("entropy", "lp:abc", "point:", "tdc:2", "lp"):
        with pytest.raises(ConfigError):
            meas.measure_rows(curves, (bad,))
    with pytest.raises(ParameterError):
        meas.measure_rows(curves, ("lp:0.5",))
    with pytest.raises(DomainError):
        meas.measure_rows(curves, ("point:1.5",))


# -- the one-curve functions are one-row calls of the kernels ------------------

@pytest.mark.parametrize("tail", ["lower", "upper"])
@pytest.mark.parametrize("kind", ["continuous", "integer", "copies"])
@pytest.mark.parametrize("m", [2, 20, 200])
def test_empirical_tdf_equals_reference(tail, kind, m):
    rng = np.random.default_rng([m, len(kind), len(tail)])
    for n in (2, 3, 10, 57, 300):
        x, y = _corner_data(rng, kind, (2, n))
        y = np.floor(y + x) if kind == "integer" else y + x
        for k in sorted({1, max(1, int(np.sqrt(n))), n // 2 or 1, n}):
            config = EstimatorConfig(k=k, grid_size=m, tail=tail)
            est = empirical_tdf(ranks(x, y), config)
            assert est.kind is TDFKind.EMPIRICAL
            assert np.array_equal(est.values, reference_window(x, y, config))


@pytest.mark.parametrize("m", [2, 7, 200])
def test_least_concave_majorant_equals_reference(m):
    rng = np.random.default_rng(m)
    grids = [_lattice_grid(rng, m, d) for d in (2, 16, 1000) for _ in range(20)]
    grids += [_concave_pieces(rng, m) for _ in range(20)]
    for raw in grids:
        tdf = least_concave_majorant(TailDependenceFunction(m, raw, TDFKind.EMPIRICAL))
        assert tdf.kind is TDFKind.VALIDATED
        assert np.array_equal(tdf.values, reference.projection(raw))


@pytest.mark.parametrize("normalization", ["raw", "doubled"])
def test_scalar_measures_equal_reference(normalization):
    rng = np.random.default_rng(5)
    for m in (2, 3, 50, 200):
        for _ in range(10):
            f = make_random_tdf(rng, grid_size=m)
            cases = [
                (meas.tdc(f), "tdc", "tdc", "raw", {}),
                (meas.point_eval(f, 0.3), "point:0.3", "point_eval", "raw", {"s0": 0.3}),
                (meas.max_tail_dependence(f, normalization), "linf", "max_td", normalization, {}),
                (meas.average_tail_dependence(f, normalization), "l1", "avg_td", normalization, {}),
                (meas.lp_norm(f, 2.5, normalization), "lp:2.5", "lp_norm", normalization,
                 {"p": 2.5}),
                (meas.spearman_ev(f), "spearman_ev", "spearman_ev", "raw", {}),
                (meas.extremal_dependence(f), "extremal_dep", "extremal_dep", "raw", {}),
            ]
            for got, report_name, name, norm, params in cases:
                value = reference.measure(f.values, report_name, norm)
                assert got == meas.MeasureValue(name, value, norm, params), report_name
