"""Rank-based tail dependence estimation.

The empirical tail copula at direction (x, y) counts points whose componentwise
ranks fall in the joint tail:

    Lhat(x, y) = (1/k) * #{ j : Rx_j <= k*x and Ry_j <= k*y }

with k the effective tail sample size.  Ranks make the estimator invariant
under strictly increasing marginal transforms; comparing integer ranks against
k*x is equivalent to the integer threshold floor(k*x), which is how it is
computed so results are bit-reproducible.

Rolling estimation is batched: the windows of a series pair are taken
together from a sliding-window view, and only each window's k corner points
are ranked (``np.partition`` along axis 1 finds the k-th value, the points
below it and the first points equal to it form the corner, and a stable sort
of those k orders them).  The corner points fill a (k+1) x (k+1) cumulative
count table that is read at the integer thresholds.  ``empirical_tdf`` is
the same computation on one window.

With step 1, most windows are not ranked at all: window j is then window
j - 1 less its first point and plus one new point.  When both of those
points lie strictly beyond window j - 1's k-th value in x and in y (above it
for the lower tail, below it for the upper), the two windows have the same
k-th values and the same corner points, in the same relative position
order.  Their stable corner ranks, count tables and rows are then the same,
and window j joins window j - 1's run.  A point equal to the k-th value (0.0
and -0.0 are equal) can decide which of the tied points fill the corner, so
it sends the window to the full computation, as does a window that is not
the one before moved by one point (step > 1, or skipped windows in
between).  Every window still gets its k-th values, from one
``np.partition`` per window and series.

Estimates come in runs, not copies: the distinct rows and each window's
run.  A computed row starts a run only when its bits differ from the row
before it, so runs are maximal; the later stages of the report read this
index and decide no runs of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ParameterError
from .tdf import DEFAULT_GRID_SIZE, TailDependenceFunction, TDFKind, upper_bound

LOWER = "lower"
UPPER = "upper"

# Windows per chunk of the batched estimator are chosen so that its largest
# temporaries (window-length partitions and corner masks, count tables) hold
# about this many numbers each.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class RankedSample:
    """Componentwise ranks of a bivariate sample (1 = smallest, ties by position)."""

    n: int
    rank_x: np.ndarray = field(repr=False)
    rank_y: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator knobs.

    ``k`` defaults to floor(sqrt(sample size)) when left as None.  ``grid_size``
    must be even so the simplex midpoint is a grid node.  ``tail`` selects the
    lower-left or (via rank reflection) upper-right corner.
    """

    k: int | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    tail: str = LOWER

    def __post_init__(self):
        if self.k is not None and (not isinstance(self.k, (int, np.integer)) or self.k < 1):
            raise ConfigError("k must be a positive integer or None")
        if self.grid_size < 2 or self.grid_size % 2 != 0:
            raise ConfigError("grid_size must be an even integer >= 2")
        if self.tail not in (LOWER, UPPER):
            raise ConfigError(f"tail must be {LOWER!r} or {UPPER!r}")

    def resolve_k(self, n: int) -> int:
        k = self.k if self.k is not None else math.isqrt(n)
        if k > n:
            raise ConfigError(f"k={k} exceeds sample size n={n}")
        return k


def ranks(x, y) -> RankedSample:
    """Componentwise ranks with the stable tie rule (ties keep input order)."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1 or x_arr.size != y_arr.size:
        raise DataError("x and y must be one-dimensional and equally long")
    if x_arr.size < 2:
        raise DataError("need at least two observations")
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(y_arr))):
        raise DataError("observations must be finite")
    return RankedSample(x_arr.size, _stable_ranks(x_arr), _stable_ranks(y_arr))


def _stable_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    out = np.empty(values.size, dtype=np.int64)
    out[order] = np.arange(1, values.size + 1)
    return out


def empirical_tdf(sample: RankedSample, config: EstimatorConfig = EstimatorConfig()) -> TailDependenceFunction:
    """Estimate the tail dependence function on the simplex grid.

    Grid node i carries Lhat(s_i, 1 - s_i) with thresholds floor(k*i/m) and
    floor(k*(m-i)/m); endpoints are exactly zero.  The result is EMPIRICAL
    (bounds hold by construction, concavity is not enforced).  A one-window
    call of ``_window_estimates`` on the ranks as floats; ranks are distinct,
    so its corner is the points with both ranks <= k (reflected if upper).
    """
    k = config.resolve_k(sample.n)
    rows, _ = _window_estimates(sample.rank_x.astype(float), sample.rank_y.astype(float),
                                np.zeros(1, dtype=np.intp), sample.n, k, config)
    return TailDependenceFunction(config.grid_size, rows[0], TDFKind.EMPIRICAL)


@dataclass(frozen=True)
class RollingEstimate:
    """Per-window estimates in runs, plus the starts of windows skipped for
    missing data.

    The window that starts at ``starts[j]`` has the EMPIRICAL grid estimate
    ``rows[index[j]]``.  ``rows`` holds each run of equal consecutive
    estimates once, and consecutive rows differ in their bits; ``index`` is
    non-decreasing, starts at 0 and steps by 0 or 1.
    """

    starts: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)  # (runs, grid_size + 1)
    index: np.ndarray = field(repr=False)  # (windows,) run of each window
    skipped: tuple[int, ...]

    @property
    def values(self) -> np.ndarray:
        """One row per window, ``rows[index]``, expanded on each access (read-only)."""
        values = self.rows[self.index]
        values.setflags(write=False)
        return values

    def __len__(self) -> int:
        return len(self.starts)


def rolling_estimate(
    x,
    y,
    window: int,
    step: int = 1,
    config: EstimatorConfig = EstimatorConfig(),
) -> RollingEstimate:
    """Estimate over rolling windows [t, t + window) for t = 0, step, 2*step, ...

    Produces floor((n - window) / step) + 1 window positions.  A window
    containing NaN in either series is skipped and reported in ``skipped``.
    The estimates of the other windows come in runs of bitwise-equal
    consecutive rows: ``rows`` holds each run once and ``index`` gives each
    window's run, so ``values`` is ``rows[index]``.

    A window that only drops and adds a point strictly beyond the previous
    window's k-th value in both series has the previous window's corners, so
    it joins that window's run without being computed (the module docstring
    says why that is exact); with step 1 that is most windows.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1 or x_arr.size != y_arr.size:
        raise DataError("x and y must be one-dimensional and equally long")
    n = x_arr.size
    if window < 2 or window > n:
        raise DataError(f"window must be in [2, n]; got window={window}, n={n}")
    if step < 1:
        raise ParameterError("step must be >= 1")
    positions = np.arange(0, n - window + 1, step)
    bad = np.concatenate([[0], np.cumsum(~(np.isfinite(x_arr) & np.isfinite(y_arr)))])
    has_bad = bad[positions + window] > bad[positions]
    starts = positions[~has_bad]
    rows, index = _window_estimates(x_arr, y_arr, starts, window, config.resolve_k(window), config)
    rows.setflags(write=False)
    return RollingEstimate(starts, rows, index, tuple(positions[has_bad].tolist()))


def _window_estimates(x, y, starts, window, k, config) -> tuple[np.ndarray, np.ndarray]:
    """The estimates of the windows [t, t + window), t in starts, as runs: the
    distinct rows and each window's run (non-decreasing from 0).  A window
    with the corners of the one before joins its run, as the module docstring
    says; a computed row starts a new run only if its bits differ from the
    row before it."""
    m = config.grid_size
    i = np.arange(m + 1)
    tx = (k * i) // m
    ty = (k * (m - i)) // m
    bound = upper_bound(m)
    # Values in the lower tail's order: the k-th values are those of the negated
    # series for the upper tail (``_kth``).
    ux, uy = (-x, -y) if config.tail == UPPER else (x, y)
    kth_x = np.empty(starts.size)
    kth_y = np.empty(starts.size)
    follows = np.zeros(starts.size, dtype=bool)  # window j is window j - 1 moved by one point
    follows[1:] = starts[1:] == starts[:-1] + 1
    new_run = np.zeros(starts.size, dtype=bool)  # window j starts a run
    runs = [np.empty((0, m + 1))]  # the distinct rows, per chunk
    last = None  # the bits of the last run's row
    x_windows = sliding_window_view(x, window)
    y_windows = sliding_window_view(y, window)
    rows = max(1, CHUNK_ELEMENTS // max(window, (k + 1) ** 2))
    for lo in range(0, starts.size, rows):
        chunk = starts[lo:lo + rows]
        hi = lo + chunk.size
        # Gather each window once: a view when the starts are consecutive.
        picked = slice(chunk[0], chunk[-1] + 1) if chunk[-1] - chunk[0] == chunk.size - 1 else chunk
        xs, ys = x_windows[picked], y_windows[picked]
        kth_x[lo:hi] = _kth(xs, k, config.tail)
        kth_y[lo:hi] = _kth(ys, k, config.tail)
        same = follows[lo:hi].copy()
        j = lo + np.flatnonzero(same)
        if j.size:
            dropped = starts[j - 1]
            added = dropped + window
            kx, ky = kth_x[j - 1], kth_y[j - 1]
            same[j - lo] = ((ux[dropped] > kx) & (uy[dropped] > ky)
                            & (ux[added] > kx) & (uy[added] > ky))
        if same.all():
            continue  # every window joins the run before it
        fresh = np.flatnonzero(~same) if same.any() else slice(None)
        table = _corner_counts(xs[fresh], ys[fresh], k, config.tail,
                               kth_x[lo:hi][fresh], kth_y[lo:hi][fresh])
        counts = table[:, tx, ty] / k
        # What from_grid does to the counts: np.clip(counts, 0.0, bound),
        # where counts >= 0 (and the endpoint counts are already zero).
        np.minimum(counts, bound, out=counts)
        # A computed row starts a run if its bits differ from the row before
        # its window, which is the computed row before it or the last run's.
        bits = counts.view(np.uint64)
        new = np.ones(len(bits), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        if last is not None:
            new[0] = (bits[0] != last).any()
        last = bits[-1]
        new_run[lo:hi][fresh] = new
        runs.append(counts[new])
    return np.concatenate(runs), np.cumsum(new_run) - 1


def _kth(values: np.ndarray, k: int, tail: str) -> np.ndarray:
    """Each row's k-th smallest value, of the negated row for the upper tail."""
    part = -values if tail == UPPER else np.array(values)
    part.partition(k - 1, axis=1)
    return part[:, k - 1]


def _corner_counts(xs, ys, k: int, tail: str, kth_x, kth_y) -> np.ndarray:
    """Cumulative corner counts of windows stacked as rows.

    ``table[w, a, b]`` is the number of points of window w with x-rank <= a and
    y-rank <= b (stable ranks, reflected for the upper tail), for a, b <= k.
    Only the k points of each corner are ranked (``_corner_order``, given the
    rows' ``_kth`` values).
    """
    order_x = _corner_order(xs, k, tail, kth_x)
    order_y = _corner_order(ys, k, tail, kth_y)
    rows = np.arange(xs.shape[0])[:, None]
    rank_y = np.zeros(ys.shape, dtype=np.intp)  # y-rank where it is <= k, else 0
    rank_y[rows, order_y] = np.arange(1, k + 1)
    table = np.zeros((xs.shape[0], k + 1, k + 1), dtype=np.intp)
    # x-ranks are distinct, so each (a, b) cell receives at most one point.
    table[rows, np.arange(1, k + 1), rank_y[rows, order_x]] = 1
    table[:, :, 0] = 0  # points outside the y-corner landed in column 0
    return table.cumsum(axis=1).cumsum(axis=2)


def _corner_order(values: np.ndarray, k: int, tail: str, kth: np.ndarray) -> np.ndarray:
    """The first k columns of each row's stable argsort, or for the upper tail
    of its reverse (largest first, later positions first among ties).

    The corner is every point below the row's k-th smallest value plus the
    first points equal to it, as many as fit; a stable sort of those k values,
    taken in position order, orders them.  The upper tail is the lower tail of
    the negated row read backwards.  ``kth`` is ``_kth``'s result.
    """
    if tail == UPPER:
        return values.shape[1] - 1 - _corner_order(-values[:, ::-1], k, LOWER, kth)
    n = values.shape[1]
    kth = kth[:, None]
    corner = values < kth
    room = k - np.count_nonzero(corner, axis=1)
    ties = np.flatnonzero(values == kth)  # row-major, so in position order per row
    row = ties // n
    rank = np.arange(ties.size) - np.searchsorted(row, row)  # among its row's ties
    corner.flat[ties[rank < room[row]]] = True
    picked = (np.flatnonzero(corner) % n).reshape(-1, k)
    rows = np.arange(values.shape[0])[:, None]
    within = np.argsort(values[rows, picked], axis=1, kind="stable")
    return picked[rows, within]
