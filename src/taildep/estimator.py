"""Rank-based tail dependence estimation.

The empirical tail copula at direction (x, y) counts points whose componentwise
ranks fall in the joint tail:

    Lhat(x, y) = (1/k) * #{ j : Rx_j <= k*x and Ry_j <= k*y }

with k the effective tail sample size.  Ranks make the estimator invariant
under strictly increasing marginal transforms; comparing integer ranks against
k*x is equivalent to the integer threshold floor(k*x), which is how it is
computed so results are bit-reproducible.

Rolling estimation is batched: the windows of a series pair are ranked
together (one stable argsort along axis 1 of a sliding-window view) and each
window's corner points fill a (k+1) x (k+1) cumulative count table that is
read at the integer thresholds.  Rows match ``empirical_tdf`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ParameterError
from .tdf import DEFAULT_GRID_SIZE, TailDependenceFunction, TDFKind, from_grid, upper_bound

LOWER = "lower"
UPPER = "upper"

# Windows per chunk of the batched estimator are chosen so that its largest
# temporaries (window-length sort orders, count tables) hold about this many
# numbers each.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class RankedSample:
    """Componentwise ranks of a bivariate sample (1 = smallest, ties by position)."""

    n: int
    rank_x: np.ndarray = field(repr=False)
    rank_y: np.ndarray = field(repr=False)
    tie_policy: str = "stable"


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


def empirical_tail_2d(sample: RankedSample, k: int, x: float, y: float) -> float:
    """Empirical tail copula at one quadrant point (x, y >= 0)."""
    if k < 1 or k > sample.n:
        raise ConfigError(f"k must be in [1, n]; got k={k}, n={sample.n}")
    if x < 0.0 or y < 0.0:
        raise ParameterError("tail copula arguments must be >= 0")
    tx = math.floor(k * x)
    ty = math.floor(k * y)
    count = int(np.sum((sample.rank_x <= tx) & (sample.rank_y <= ty)))
    return count / k


def empirical_tdf(sample: RankedSample, config: EstimatorConfig = EstimatorConfig()) -> TailDependenceFunction:
    """Estimate the tail dependence function on the simplex grid.

    Grid node i carries Lhat(s_i, 1 - s_i) with thresholds floor(k*i/m) and
    floor(k*(m-i)/m); endpoints are exactly zero.  The result is EMPIRICAL
    (bounds hold by construction, concavity is not enforced).
    """
    n, m = sample.n, config.grid_size
    k = config.resolve_k(n)
    rx, ry = sample.rank_x, sample.rank_y
    if config.tail == UPPER:
        rx = n + 1 - rx
        ry = n + 1 - ry

    # Only points with both ranks <= k can ever be counted.
    in_corner = (rx <= k) & (ry <= k)
    cx = rx[in_corner]
    cy = ry[in_corner]

    i = np.arange(m + 1)
    tx = (k * i) // m  # floor(k * i / m), exact in integers
    ty = (k * (m - i)) // m
    counts = np.sum((cx[:, None] <= tx) & (cy[:, None] <= ty), axis=0)
    values = counts / k
    values[0] = 0.0
    values[m] = 0.0

    out = from_grid(values, enforce_concavity=False)
    assert isinstance(out, TailDependenceFunction)
    return out


@dataclass(frozen=True)
class RollingEstimate:
    """Per-window estimates plus the starts of windows skipped for missing data.

    Row j of ``values`` is the EMPIRICAL grid estimate of the window that
    starts at ``starts[j]``.  Iterating yields (start index, estimate) pairs in
    window order.
    """

    starts: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    skipped: tuple[int, ...]

    @property
    def windows(self) -> tuple[tuple[int, TailDependenceFunction], ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[tuple[int, TailDependenceFunction]]:
        m = self.values.shape[1] - 1
        for start, row in zip(self.starts.tolist(), self.values):
            yield start, TailDependenceFunction(m, row, TDFKind.EMPIRICAL)

    def __len__(self) -> int:
        return len(self.starts)


def window_starts(x: np.ndarray, y: np.ndarray, window: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts t = 0, step, ... of the windows [t, t + window), split into the
    windows without and with a non-finite value in either series."""
    n = x.size
    if window < 2 or window > n:
        raise DataError(f"window must be in [2, n]; got window={window}, n={n}")
    if step < 1:
        raise ParameterError("step must be >= 1")
    starts = np.arange(0, n - window + 1, step)
    bad = np.concatenate([[0], np.cumsum(~(np.isfinite(x) & np.isfinite(y)))])
    has_bad = bad[starts + window] > bad[starts]
    return starts[~has_bad], starts[has_bad]


def rolling_estimate(
    x,
    y,
    window: int,
    step: int = 1,
    config: EstimatorConfig = EstimatorConfig(),
    out: np.ndarray | None = None,
) -> RollingEstimate:
    """Estimate over rolling windows [t, t + window) for t = 0, step, 2*step, ...

    Produces floor((n - window) / step) + 1 window positions.  A window
    containing NaN in either series is skipped and reported in ``skipped``.
    ``out``, if given, is a C-contiguous (windows, grid_size + 1) array that
    receives the estimates, one row per window that is not skipped.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1 or x_arr.size != y_arr.size:
        raise DataError("x and y must be one-dimensional and equally long")
    starts, skipped = window_starts(x_arr, y_arr, window, step)
    k = config.resolve_k(window)
    shape = (starts.size, config.grid_size + 1)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ParameterError(f"out must be a C-contiguous array of shape {shape}")
    _window_estimates(x_arr, y_arr, starts, window, k, config, out)
    values = out.view()
    values.setflags(write=False)
    return RollingEstimate(starts, values, tuple(skipped.tolist()))


def _window_estimates(x, y, starts, window, k, config, out) -> None:
    """``empirical_tdf`` of every window [t, t + window), t in starts, into rows of out."""
    m = config.grid_size
    i = np.arange(m + 1)
    tx = (k * i) // m
    ty = (k * (m - i)) // m
    x_windows = sliding_window_view(x, window)
    y_windows = sliding_window_view(y, window)
    rows = max(1, CHUNK_ELEMENTS // max(window, (k + 1) ** 2))
    for lo in range(0, starts.size, rows):
        chunk = starts[lo:lo + rows]
        table = _corner_counts(x_windows[chunk], y_windows[chunk], k, config.tail)
        out[lo:lo + chunk.size] = table[:, tx, ty] / k
    # What from_grid does to the counts (the endpoint counts are already zero).
    np.clip(out, 0.0, upper_bound(m), out=out)
    out[:, 0] = 0.0
    out[:, m] = 0.0


def _corner_counts(xs: np.ndarray, ys: np.ndarray, k: int, tail: str) -> np.ndarray:
    """Cumulative corner counts of windows stacked as rows.

    ``table[w, a, b]`` is the number of points of window w with x-rank <= a and
    y-rank <= b (stable ranks, reflected for the upper tail), for a, b <= k.
    """
    order_x = np.argsort(xs, axis=1, kind="stable")
    order_y = np.argsort(ys, axis=1, kind="stable")
    if tail == UPPER:
        # Reflected rank n + 1 - r: the largest values come first.
        order_x = order_x[:, ::-1]
        order_y = order_y[:, ::-1]
    rows = np.arange(xs.shape[0])[:, None]
    rank_y = np.zeros(ys.shape, dtype=np.intp)  # y-rank where it is <= k, else 0
    rank_y[rows, order_y[:, :k]] = np.arange(1, k + 1)
    table = np.zeros((xs.shape[0], k + 1, k + 1), dtype=np.intp)
    # x-ranks are distinct, so each (a, b) cell receives at most one point.
    table[rows, np.arange(1, k + 1), rank_y[rows, order_x[:, :k]]] = 1
    table[:, :, 0] = 0  # points outside the y-corner landed in column 0
    return table.cumsum(axis=1).cumsum(axis=2)
