"""Rank-based tail dependence estimation.

The empirical tail copula at direction (x, y) counts points whose componentwise
ranks fall in the joint tail:

    Lhat(x, y) = (1/k) * #{ j : Rx_j <= k*x and Ry_j <= k*y }

with k the effective tail sample size.  Ranks make the estimator invariant
under strictly increasing marginal transforms; comparing integer ranks against
k*x is equivalent to the integer threshold floor(k*x), which is how it is
computed so results are bit-reproducible.

Rolling estimation is batched over series and pairs: each series of a
report is ranked once however many pairs it enters (the base enters all of
them), and the fresh windows of all pairs are counted together.  Only each
window's k corner points are ranked, through candidate spans.  With step 1 a
series' windows with consecutive starts are cut into spans of about
sqrt(window) windows; with step > 1 each window is a span of its own.  A
span of c windows reads their union, c - 1 points longer than a window.  A
window misses at most c - 1 of its points, so its k smallest values lie at
or below the union's (k + c - 1)-th smallest value.  One ``np.partition``
per span finds that threshold, and the union's points at or below it, in
position order and with every tie at the threshold, are the span's
candidates.  One stable sort of them serves every window of the span: a
window's corner is its first k candidates in that order (so among points
equal to its k-th value the first ones by position), and the last of them
holds its k-th value.  The upper tail is the lower tail of the negated
series with the spans read backwards, so among ties the later points come
first.  A corner point of x-rank a and y-rank b counts at the grid nodes i
with floor(k*i/m) >= a and floor(k*(m-i)/m) >= b, an interval of nodes.
``empirical_tdf`` and ``rolling_estimate`` are one-window and one-pair calls
of the same kernel.

With step 1, most windows are not counted at all: window j is then window
j - 1 less its first point and plus one new point.  When both of those
points lie strictly beyond window j - 1's k-th value in x and in y (above it
for the lower tail, below it for the upper), the two windows have the same
k-th values and the same corner points, in the same relative position
order.  Their stable corner ranks, counts and rows are then the same,
and window j joins window j - 1's run.  A point equal to the k-th value (0.0
and -0.0 are equal) can decide which of the tied points fill the corner, so
it sends the window to the counts, as does a window that is not the one
before moved by one point (step > 1, or skipped windows in between).  The
test runs per series and is combined per pair, so a NaN in one series changes
only the windows of its own pairs.

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
from .tdf import DEFAULT_GRID_SIZE, TailDependenceFunction, from_grid, snap_rows, upper_bound

LOWER = "lower"
UPPER = "upper"

# Window positions per chunk of the batched estimator are chosen so that its
# largest temporary (the spans' candidates, or with step > 1 the partitioned
# windows) holds about this many numbers.
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
    columns = np.stack([sample.rank_x, sample.rank_y]).astype(float)
    rows, _ = _window_estimates(columns, [(0, 1)], sample.n, 1, config)
    return from_grid(rows[0], enforce_concavity=False)


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
    window's run, so window j's estimate is ``rows[index[j]]``.

    A window that only drops and adds a point strictly beyond the previous
    window's k-th value in both series has the previous window's corners, so
    it joins that window's run without being counted (the module docstring
    says why that is exact); with step 1 that is most windows.  A one-pair
    call of ``_window_estimates``.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1 or x_arr.size != y_arr.size:
        raise DataError("x and y must be one-dimensional and equally long")
    # One pair's runs are all the rows, in order.
    rows, ((_, starts, index, skipped),) = _window_estimates(np.stack([x_arr, y_arr]), [(0, 1)],
                                                             window, step, config)
    rows.setflags(write=False)
    return RollingEstimate(starts, rows, index, skipped)


def _chunking(series: int, window: int, k: int, step: int) -> tuple[int, int]:
    """Window positions per chunk and windows per span.  Each window of a span
    of c pays about (window + c) / c partitioned points and k + c candidates,
    least near c = sqrt(window); with step > 1 no two windows share a span.  A
    chunk holds about CHUNK_ELEMENTS candidates, series * size * (k + span),
    in whole spans and at least one, or with step > 1 that many partitioned
    points, series * size * window."""
    per_series = CHUNK_ELEMENTS // series
    if step > 1:
        return max(1, per_series // window), 1
    span = math.isqrt(window)
    size = per_series // (k + span)
    return max(span, size - size % span), span


def _window_estimates(columns, pairs, window, step, config):
    """The rolling estimates of ``pairs`` (row numbers of ``columns``,
    (series, n)): ``rows``, the distinct rows of every pair in the order they
    were computed (writable, C-contiguous), and per pair ``(runs, starts,
    index, skipped)`` as in ``RollingEstimate``, where the pair's run r is
    ``rows[runs[r]]`` and ``runs`` increases.

    A pair's windows are those where both series are finite.  Per chunk, each
    series ranks the windows some pair of it needs (``_chunk_corners``), the
    reuse test runs per series and is combined per pair, and the fresh
    windows of every pair are counted in one ``_corner_counts`` call.
    """
    n = columns.shape[1]
    if window < 2 or window > n:
        raise DataError(f"window must be in [2, n]; got window={window}, n={n}")
    if step < 1:
        raise ParameterError("step must be >= 1")
    k = config.resolve_k(window)
    m = config.grid_size
    bound = upper_bound(m)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    px, py = pairs.T
    positions = np.arange(0, n - window + 1, step)
    # Windows without a non-finite point, (series, positions).
    bad = np.flatnonzero(~np.isfinite(columns))  # sorted, as series * n + point
    first = np.arange(len(columns))[:, None] * n + positions
    finite = np.searchsorted(bad, first) == np.searchsorted(bad, first + window)
    ok = finite[px] & finite[py]  # (pairs, positions): the pairs' windows
    need = np.zeros_like(finite)  # the windows some pair of the series needs
    np.logical_or.at(need, px, ok)
    np.logical_or.at(need, py, ok)
    upper = config.tail == UPPER
    sign = -1.0 if upper else 1.0  # to the lower tail's order
    new_run = np.zeros_like(ok)  # a pair's window starts a run
    # Each pair's last run row, in bits; a NaN pattern, which no count row
    # has, before its first run.
    last = np.full((len(pairs), m + 1), np.iinfo(np.uint64).max, dtype=np.uint64)
    found, found_pair = [np.empty((0, m + 1))], [np.empty(0, dtype=np.intp)]
    kth_before = np.full(len(columns), np.nan)  # the k-th values of the position before the chunk
    size, span = _chunking(max(1, len(set(pairs.ravel().tolist()))), window, k, step)
    for lo in range(0, positions.size, size):
        hi = min(lo + size, positions.size)
        kth, ranked, corners = _chunk_corners(columns, need[:, lo:hi], positions[lo:hi], window, k,
                                              span, upper)
        fresh = ok[:, lo:hi].copy()
        if step == 1:
            # Window q joins window q - 1's run when the point it drops and the
            # one it adds lie strictly beyond window q - 1's k-th value in both
            # series.  NaN k-th values (before window 0, or of windows no pair
            # needs) compare false, so window 0 reads any points (index -1).
            prev = np.arange(lo, hi) - 1
            kth_prev = np.column_stack([kth_before, kth[:, :-1]])
            dropped, added = sign * columns[:, prev], sign * columns[:, prev + window]
            beyond = (dropped > kth_prev) & (added > kth_prev)
            fresh &= ~(beyond[px] & beyond[py] & ok[:, prev])
        kth_before = kth[:, -1]
        pair, at = np.nonzero(fresh)  # pair by pair, in window order
        if pair.size == 0:
            continue  # every window joins the run before it
        counts = _corner_counts(corners[ranked[px[pair], at]], corners[ranked[py[pair], at]], k, m)
        counts = counts / k
        snap_rows(counts, bound)
        # A computed row starts a run if its bits differ from the row before
        # its window, which is its pair's computed row before it or the
        # pair's last run's.
        bits = counts.view(np.uint64)
        head = np.flatnonzero(np.diff(pair, prepend=-1))  # each pair's first fresh window
        before = np.roll(bits, 1, axis=0)
        before[head] = last[pair[head]]
        new = (bits != before).any(axis=1)
        last[pair[head]] = bits[np.append(head[1:], pair.size) - 1]
        new_run[pair[new], lo + at[new]] = True
        found.append(counts[new])
        found_pair.append(pair[new])
    # The rows in the order computed, and each pair's of them; rebinding
    # found frees the chunks' rows before the pairs' arrays are made.
    found, found_pair = np.concatenate(found), np.concatenate(found_pair)
    order = np.argsort(found_pair, kind="stable")
    cuts = np.searchsorted(found_pair[order], np.arange(len(pairs) + 1))
    return found, [(order[cuts[p]:cuts[p + 1]], positions[ok[p]], np.cumsum(new_run[p, ok[p]]) - 1,
                    tuple(positions[~ok[p]].tolist())) for p in range(len(pairs))]


def _chunk_corners(columns, need, starts, window: int, k: int, span: int, upper: bool):
    """The k-th values and corners of a chunk of window positions, by
    candidate spans of at most ``span`` windows (the module docstring).

    ``columns`` holds the series (rows), ``need`` (series, c) marks the
    windows to rank and ``starts`` gives each position's first point.
    Returns ``kth`` (series, c), in the lower tail's order and NaN where not
    needed, ``ranked`` (series, c), the row of ``corners`` that holds a needed
    window's corner, and ``corners`` (windows, k): corner points by their
    place in the window, in stable order (reflected for the upper tail).
    """
    series, width = need.shape
    kth = np.full((series, width), np.nan)
    ranked = np.zeros((series, width), dtype=np.intp)
    corners = [np.empty((0, k), dtype=np.uint32)]
    done = 0  # rows of corners so far
    # The spans: runs of needed windows within blocks of ``span`` positions.
    blocks = -(-width // span)
    grid = np.zeros((series, blocks * span), dtype=bool)
    grid[:, :width] = need
    edge = np.flatnonzero(np.diff(grid.reshape(-1, span), axis=1, prepend=False, append=False))
    block, first = np.divmod(edge[::2], span + 1)
    row, first = block // blocks, block % blocks * span + first
    length = edge[1::2] - edge[::2]
    for c in sorted(set(length.tolist())):
        chosen = length == c
        s, a = row[chosen], first[chosen]
        spans = np.arange(len(s))
        union = window + c - 1
        values = sliding_window_view(columns, union, axis=1)[s, starts[a]]  # (spans, union)
        if upper:  # to the lower tail's order
            np.negative(values, out=values)
        kk = k + c - 2  # the union's (k + c - 1)-th value bounds every corner
        candidate = values <= np.partition(values, kk, axis=1)[:, [kk]]
        if upper:  # read backwards, so that later points come first among ties
            at = np.flatnonzero(candidate[:, ::-1])
            at = at // union * union + union - 1 - at % union
        else:
            at = np.flatnonzero(candidate)
        owner = at // union
        # The candidates, one row per span, padded at the end with +inf at a
        # position inside no window; sorted stably by value.
        count = np.bincount(owner, minlength=len(s))
        slot = np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)
        pos = np.full((len(s), count.max()), -1, dtype=np.int32)
        key = np.full(pos.shape, np.inf)
        pos[owner, slot] = at % union
        key[owner, slot] = values.flat[at]
        order = np.argsort(key, axis=1, kind="stable")
        pos = np.take_along_axis(pos, order, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        # Window o of a span takes the first k candidates inside it: the k
        # smallest slots, where a slot outside the window (at a place in it
        # below 0 or from window on, as unsigned) counts as the last.
        place = (pos[:, None, :] - np.arange(c, dtype=np.int32)[:, None]).view(np.uint32)
        slots = np.where(place < window, np.arange(pos.shape[1], dtype=np.int32), pos.shape[1])
        slots.sort(axis=2)
        slots = slots[:, :, :k]
        windows = (s[:, None], a[:, None] + np.arange(c))
        kth[windows] = key[spans[:, None], slots[:, :, -1]]
        ranked[windows] = done + np.arange(len(s) * c).reshape(len(s), c)
        done += len(s) * c
        corners.append(np.take_along_axis(place, slots, axis=2).reshape(-1, k))
    return kth, ranked, np.concatenate(corners)


def _corner_counts(corner_x, corner_y, k: int, m: int) -> np.ndarray:
    """The corner counts of windows stacked as rows, at the grid nodes.

    ``counts[w, i]`` is the number of points of window w with x-rank <=
    floor(k*i/m) and y-rank <= floor(k*(m-i)/m) (stable ranks, reflected for
    the upper tail).  ``corner_x`` and ``corner_y`` (windows, k) hold each
    window's corner points in rank order, so a point of rank a in x and b in
    y is the one that both name at those columns.  It counts at the nodes i
    with ceil(a*m/k) <= i <= m - ceil(b*m/k), so each row is the running sum
    of +1 where such an interval starts and -1 past where it ends.
    """
    windows = len(corner_x)
    hit = np.flatnonzero(corner_x[:, :, None] == corner_y[:, None, :])
    row, rank = np.divmod(hit, k * k)
    a, b = np.divmod(rank, k)
    start = -(-(a + 1) * m // k)
    stop = m + 1 - -(-(b + 1) * m // k)
    some = start < stop
    row = row[some] * (m + 2)
    steps = (np.bincount(row + start[some], minlength=windows * (m + 2))
             - np.bincount(row + stop[some], minlength=windows * (m + 2)))
    return np.cumsum(steps.reshape(windows, m + 2), axis=1)[:, :m + 1]
