"""Feasible ranges of measures over the admissible class, given pinned values.

The admissible functions on an m-grid are concave, zero at both ends and
bounded by min(s_i, 1 - s_i); pins fix some of their values.  The anchors (pins
plus zero endpoints) fix the envelopes of this class: their interpolant is the
pointwise smallest member, and the Frechet bound clipped by the extended chords
of neighbouring anchor intervals is the pointwise largest value, attained by a
tent (the interpolant of the anchors plus one point).  Every minimum, the
``max_td`` and ``point_eval`` maxima and the mixtures of tents drawn by
``random_feasible`` are closed forms.  The ``avg_td`` maximum is exact by a
dynamic program over the LP dual along the pins, certified by its dual value.
``linf_range_given_tdc`` is the continuous closed form for the sup-measure
given the coefficient.  Grid ranges inherit a +-2/grid_size resolution,
reported on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError, SolverError
from .measures import RAW, scale_factor
from .rng import SplitMix64
from .tdf import CONCAVITY_TOL, DEFAULT_GRID_SIZE, TailDependenceFunction
from .tdf import from_grid, snap_rows, upper_bound

MAX_TD = "max_td"
AVG_TD = "avg_td"
POINT_EVAL = "point_eval"

PinPair = tuple[float, float]
N_MIX = 3  # tents mixed by one random_feasible draw
GAP_TOL = 1e-13  # dual bound minus best curve value at which the avg_td maximum is exact
SLOPE_TOL = 1e-15  # per unit of budget: complementary slackness the splits may miss by


@dataclass(frozen=True)
class EnvelopeResult:
    """Exact range of one measure over the pinned polytope."""

    measure: str
    normalization: str
    grid_size: int
    pins: tuple[PinPair, ...]
    min_value: float
    max_value: float
    argmin: TailDependenceFunction
    argmax: TailDependenceFunction
    resolution: float

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "normalization": self.normalization,
            "grid_size": self.grid_size,
            "pins": [list(p) for p in self.pins],
            "min": self.min_value,
            "max": self.max_value,
            "resolution": self.resolution,
            "argmin": {"m": self.grid_size, "values": [float(v) for v in self.argmin.values]},
            "argmax": {"m": self.grid_size, "values": [float(v) for v in self.argmax.values]},
        }


def _grid_index(s: float, m: int) -> int:
    if not math.isfinite(s):
        raise ParameterError(f"location {s} is not a finite grid point")
    idx = s * m
    i = int(round(idx))
    if abs(idx - i) > 1e-9 or not 0 <= i <= m:
        raise ParameterError(f"location {s} is not a grid point for grid_size {m}")
    return i


def _pin_indices(pins, m: int) -> dict[int, float]:
    if m < 2:
        raise ParameterError("grid_size must be >= 2")
    out = {}
    for s, value in pins:
        i = _grid_index(s, m)
        bound = min(i, m - i) / m
        if not 0.0 <= value <= bound + 1e-12:
            raise InfeasibleError(
                f"pin ({s}, {value}) violates the admissible bound {bound:.6g}"
            )
        if i in out:
            raise ParameterError(f"duplicate pin at grid point {s}")
        out[i] = float(value) + 0.0  # a -0.0 pin reads as 0.0
    return out


def _as_tdf(x: np.ndarray, m: int) -> TailDependenceFunction:
    snap_rows(x, upper_bound(m))  # in place, so x is never the shared bound; a second snap is a no-op
    try:
        return from_grid(x, enforce_concavity=True)
    except ParameterError as exc:
        raise SolverError(f"curve failed validation: {exc}") from None


def _envelopes(pins, m: int):
    """Anchors (pins plus zero endpoints) as grid indices and values, their
    chord slopes per grid step and their interpolant (the pointwise smallest
    admissible curve): ``_upper_envelope``'s arguments.  InfeasibleError unless
    the slope rises by at most ``from_grid``'s concavity tolerance per grid step."""
    points = {0: 0.0, m: 0.0} | _pin_indices(pins, m)
    idx, val = map(np.array, zip(*sorted(points.items())))
    slope = (val[1:] - val[:-1]) / (idx[1:] - idx[:-1])
    rise = slope[1:] - slope[:-1]
    if rise.size and rise.max() > CONCAVITY_TOL:
        k = int(rise.argmax())
        raise InfeasibleError(
            f"pins are not jointly concave: the slope rises by {rise[k]:.3e} "
            f"per grid step at s = {idx[k + 1] / m:.6g}"
        )
    return idx, val, slope, np.interp(np.arange(m + 1), idx, val)


def _upper_envelope(idx: np.ndarray, val: np.ndarray, slope: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Pointwise largest admissible value at each grid point.

    Between anchors k and k + 1 an admissible curve lies under min(s, 1 - s) and
    under the chords of the intervals before and after, extended; the tent
    through the anchors and that point attains the bound.  Clamping at the
    interpolant ``lower`` keeps that tent concave when the anchors are concave
    only within tolerance.  The bound is 0 at both ends, which keeps ``lower``;
    inside, no missing line (slope +-inf) meets its own anchor, so no inf * 0.
    """
    i = np.arange(1, lower.size - 1)
    k = idx.searchsorted(i, "right") - 1  # i in [idx[k], idx[k + 1])
    ext = np.concatenate(([np.inf], slope, [-np.inf]))
    left = val[k] + ext[k] * (i - idx[k])
    right = val[1:][k] - ext[2:][k] * (idx[1:][k] - i)
    upper = lower.copy()
    np.fmax(lower[1:-1], np.fmin(upper_bound(lower.size - 1)[1:-1], np.fmin(left, right)), out=upper[1:-1])
    return upper


def _tent(idx: np.ndarray, val: np.ndarray, i: int, value: float, lower: np.ndarray) -> np.ndarray:
    """Interpolant of the anchors plus the point (i, value): ``lower`` redrawn
    on the anchor interval around i (``np.interp`` reads one interval per point)."""
    j = int(idx.searchsorted(i))
    if idx[j] == i:
        return lower
    a, b = idx[j - 1], idx[j]
    tent = lower.copy()
    tent[a:b + 1] = np.interp(np.arange(a, b + 1), (a, i, b), (val[j - 1], value, val[j]))
    return tent


def _pl(xs, ys, tail, at):
    """The convex polyline through (xs, ys), rising by ``tail`` per unit past xs[-1]."""
    return np.interp(at, xs, ys) + tail * np.maximum(at - xs[-1], 0.0)


def _end_sum(phi, slope, w):
    """For G(y) = sum w min(phi, slope y): the breakpoints S (ascending) and values
    of max_y G(y) - pi y, and G's kinks from 0 to inf; G's slope after kinks[j] is S[-j - 1]."""
    pos = phi > 0.0
    y = phi[pos] / slope[pos]
    order = y.argsort(kind="stable")
    S = np.concatenate(([0.0], (w * slope)[pos][order][::-1].cumsum()))
    e = w[~pos] @ phi[~pos] + np.concatenate(([0.0], (w * phi)[pos][order].cumsum()))
    return S, e[::-1], np.concatenate([[0.0], y[order], [np.inf]])


def _argmax_range(S, kinks, pi):
    """The y where G's slope passes pi, within SLOPE_TOL (a slope test: near-flat pieces are long)."""
    return (kinks[S.size - S.searchsorted(pi + SLOPE_TOL, "right")],
            kinks[S.size - S.searchsorted(pi - SLOPE_TOL, "left")])


def _ratio_range(A, B, a, b):
    """alpha / beta where a alpha + b beta - min_c (A_c alpha + B_c beta) <= SLOPE_TOL
    (alpha + beta): the widened normal cone at (a, b); (inf, 0) if only zero is left."""
    u, v = a - A - SLOPE_TOL, b - B - SLOPE_TOL
    neg, pos = u < 0.0, u > 0.0
    r_lo = (-v[neg] / u[neg]).max(initial=np.inf if (v[u == 0.0] > 0.0).any() else 0.0)
    r_hi = (-v[pos] / u[pos]).min(initial=np.inf)
    return (float(r_lo), float(r_hi)) if r_lo <= r_hi else (np.inf, 0.0)


def _unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` for x without NaN: its sort, then each run's first (0.0 or -0.0 too)."""
    x = np.sort(x)
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))


def _weighted_sum_max(idx: np.ndarray, val: np.ndarray, slope: np.ndarray, w: np.ndarray):
    """Maximum of ``w @ x`` (w >= 0) over admissible curves through the
    anchors, and a curve attaining it.

    At each interior anchor j a concave curve lies under a supporting line,
    which rises alpha_j dl over the chord of interval j and beta_{j-1} |dr|
    over that of interval j - 1 (dl, dr: offsets from the interval's
    anchors); alpha_j + beta_{j-1} = D_j, the drop of the chord slope at j.
    The curve is the least of F and the lines, and F binds only on the end
    intervals: a middle one adds min_c (alpha A_c + beta B_c), A_c and B_c the
    prefix sums of w dl and suffix sums of w |dr|.  The LP dual, a price pi_j
    per budget, is  min sum_j D_j pi_j + e_0(pi_1) + e_p(pi_p)  over pi >= 0
    with pi_{k+1} >= Psi_k(pi_k) (Psi_k: the polyline through the (A_c, B_c);
    e_0, e_p: conjugates of the end sums).  A dynamic program solves it
    exactly: J_1 = D_1 pi + e_0, J_{k+1}(pi') = D_{k+1} pi' + min of J_k over
    pi >= Psi_k^-1(pi'), convex piecewise linear with breakpoints from two
    sets, and min J_p + e_p.  By complementary slackness the backtracked
    prices bound alpha / beta on middle intervals and the budget an end one
    takes; a forward and a backward pass choose each split nearest an even
    one.  SolverError unless the curve is within GAP_TOL of the dual value.
    """
    m = w.size - 1
    p = idx.size - 2  # interior anchors, one budget each
    if p == 0:  # F itself
        return float(w @ upper_bound(m)), upper_bound(m).copy()
    chord = slope * m  # per unit s
    # Right of an anchor the line rises by the slope rise the slope test
    # tolerates, so near-tolerance anchors keep both sides on their chords.
    rise = np.maximum(chord[1:] - chord[:-1], 0.0)
    budget = np.maximum(chord[:-1] - chord[1:], 0.0)
    i = np.delete(np.arange(m + 1), idx)  # grid points strictly inside an interval
    k = idx.searchsorted(i) - 1
    dl, dr = (i - idx[k]) / m, (i - idx[k + 1]) / m  # offsets from both anchors
    wi, bound = w[i], upper_bound(m)[i]
    chord_x = val[k] + chord[k] * dl
    seg = k.searchsorted(np.arange(p + 2))
    first, last = slice(seg[0], seg[1]), slice(seg[p], seg[p + 1])
    S0, e0, kinks0 = _end_sum((bound - chord_x)[first], -dr[first], wi[first])
    Sp, ep, kinksp = _end_sum((bound - chord_x)[last], dl[last], wi[last])
    xs, ys, stages = S0, budget[0] * S0 + e0, []
    for j in range(1, p):  # middle interval j, from anchor j to j + 1
        s = slice(seg[j], seg[j + 1])
        A = np.concatenate(([0.0], (wi[s] * dl[s]).cumsum()))
        B = np.concatenate(((-(wi[s] * dr[s])[::-1]).cumsum()[::-1], [0.0]))
        star = xs[ys.argmin()]
        pis = _unique(np.concatenate((np.interp(xs[xs >= star], A, B), B[B < np.interp(star, A, B)])))
        ys = budget[j] * pis + _pl(xs, ys, budget[j - 1], np.maximum(np.interp(pis, B[::-1], A[::-1]), star))
        xs = pis
        stages.append((A, B, star))
    pis = _unique(np.concatenate((xs, Sp)))
    total = _pl(xs, ys, budget[-1], pis) + np.interp(pis, Sp, ep)
    dual = float(w[idx] @ val + wi @ chord_x + total.min())
    pi = [pis[total.argmin()]]
    for A, B, star in stages[::-1]:
        pi.append(max(np.interp(pi[-1], B[::-1], A[::-1]), star))
    pi = [float(v) for v in pi[::-1]]  # pi[j] prices budget[j]
    # The last budget has no middle interval on its right: any ratio.
    cones = [_ratio_range(A, B, pi[j], pi[j + 1]) for j, (A, B, _) in enumerate(stages)] + [(0.0, np.inf)]
    # Forward: the alpha_{j+1} the intervals on its left can complete (budgets bind hard).
    b_lo, b_hi = _argmax_range(S0, kinks0, pi[0])
    reach = []
    for j in range(p):
        b_lo, b_hi = min(max(b_lo, 0.0), budget[j]), min(max(b_hi, 0.0), budget[j])
        lo, hi = budget[j] - b_hi, budget[j] - b_lo
        r_lo, r_hi = cones[j]
        if r_hi == 0.0:  # alpha = 0 only
            lo = hi = min(max(0.0, lo), hi)
        b_lo, b_hi = lo / r_hi if r_hi else 0.0, hi / r_lo if r_lo else np.inf
        reach.append((lo, hi))
    # Backward: in its reach, the alpha nearest an even split that its range allows.
    beta = np.zeros(p)
    c_lo, c_hi = _argmax_range(Sp, kinksp, pi[-1])
    for j in range(p - 1, -1, -1):
        lo, hi = reach[j]
        beta[j] = budget[j] - min(max(min(max(0.5 * budget[j], c_lo), c_hi), lo), hi)
        r_lo, r_hi = cones[j - 1]
        c_lo, c_hi = r_lo * beta[j] if beta[j] > 0.0 else 0.0, r_hi * beta[j] if r_hi < np.inf else np.inf
    t = chord[:-1] - beta  # supporting slopes
    x = np.zeros(m + 1)
    x[idx] = val
    # Interval 0 has no left line and interval p no right line.
    left = val[k] + np.concatenate([[0.0], rise])[k] * dl + np.concatenate([[np.inf], t])[k] * dl
    right = val[k + 1] + np.concatenate([t, [-np.inf]])[k] * dr
    x[i] = np.minimum(np.minimum(left, right), np.where((k == 0) | (k == p), bound, np.inf))
    gap = dual - float(w @ x)
    if gap > GAP_TOL:
        raise SolverError(f"avg_td maximum: the dual bound exceeds the best curve by {gap:.3e}")
    # F binds on a middle interval only where the pin or concavity tolerance
    # lets a chord slope pass 1 in size: clipping there costs at most that.
    x[i] = np.minimum(x[i], bound)
    return float(w @ x), x


def measure_range(
    pins=(),
    measure: str = MAX_TD,
    grid_size: int = DEFAULT_GRID_SIZE,
    s0: float | None = None,
    normalization: str = RAW,
) -> EnvelopeResult:
    """Exact min and max of a measure over the pinned admissible polytope.

    Closed forms: every minimum is the measure of the anchor interpolant, which
    is also the argmin; the ``max_td`` and ``point_eval`` maxima are read off
    the upper envelope, attained by the tent through the anchors and the
    maximising grid point.  The ``avg_td`` maximum splits each interior pin's
    kink between its two neighbouring intervals, chosen by a dynamic program
    over the LP dual along the pins (``_weighted_sum_max``), and holds only
    once the dual value certifies it within ``GAP_TOL``.
    """
    m = grid_size
    scale = scale_factor(normalization)
    if measure not in (MAX_TD, AVG_TD, POINT_EVAL):
        raise ParameterError(f"unknown envelope measure {measure!r}")
    if measure == POINT_EVAL and normalization != RAW:
        raise ParameterError("point_eval has no doubled form")
    if measure == POINT_EVAL and s0 is None:
        raise ParameterError("point_eval needs s0")
    idx, val, slope, lower = env = _envelopes(pins, m)
    if measure == AVG_TD:
        c = np.full(m + 1, 1.0 / m)
        c[0] = c[-1] = 0.5 / m
        min_value = float(c @ lower)
        max_value, x = _weighted_sum_max(idx, val, slope, c)
        argmax = _as_tdf(x, m)
    else:
        upper = _upper_envelope(*env)
        top = int(upper.argmax()) if measure == MAX_TD else _grid_index(s0, m)
        min_value = float(lower.max() if measure == MAX_TD else lower[top])
        max_value = float(upper[top])
        argmax = _as_tdf(_tent(idx, val, top, max_value, lower), m)

    return EnvelopeResult(measure, normalization, m, tuple((float(a), float(b) + 0.0) for a, b in pins),
                          scale * min_value, scale * max_value, _as_tdf(lower, m), argmax,
                          resolution=2.0 / m)


def linf_range_given_tdc(lam, normalization: str = RAW) -> tuple:
    """Closed-form sup-measure range when only the coefficient is known.

    Raw scale: [lam/2, lam/(1+lam)].  The lower end is the peak of the least
    concave function through the midpoint pin; the upper end comes from the
    chords joining the pin to the boundary zeros.  The acceptance tests check
    it against the grid envelopes of ``measure_range``.  ``lam`` may be an
    array, giving arrays of lower and upper ends.
    """
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ParameterError("tail dependence coefficient must lie in [0, 1]")
    lam = lam + 0.0  # a -0.0 coefficient reads as 0.0
    scale = scale_factor(normalization)
    return scale * lam / 2.0, scale * lam / (1.0 + lam)


def random_feasible(
    pins=(),
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
) -> TailDependenceFunction:
    """Random admissible curve through the pins: a convex mixture of tents.

    Each tent is the interpolant of the anchors plus one point, taken at a
    seeded grid index and uniformly between the two envelopes there; every
    tent is admissible, and so is their mixture.  The draw is deterministic in
    (pins, grid_size, seed) and meets every pin exactly.
    """
    m = grid_size
    idx, val, _, lower = env = _envelopes(pins, m)
    upper = _upper_envelope(*env)
    rng = SplitMix64(seed)
    tents = []
    for _ in range(N_MIX):
        i = rng.next_u64() % (m + 1)
        tents.append(_tent(idx, val, i, lower[i] + rng.uniform() * (upper[i] - lower[i]), lower))
    weights = np.array([rng.uniform() for _ in range(N_MIX)])
    weights /= weights.sum()
    return _as_tdf(weights @ np.array(tents), m)
