"""Feasible ranges of measures over the admissible class, given pinned values.

The admissible functions on an m-grid are concave, zero at both ends and
bounded by min(s_i, 1 - s_i); pins fix some of their values.  The anchors (pins
plus zero endpoints) fix the envelopes of this class: their interpolant is the
pointwise smallest member, and the Frechet bound clipped by the extended chords
of neighbouring anchor intervals is the pointwise largest value, attained by a
tent (the interpolant of the anchors plus one point).  Every minimum, the
``max_td`` and ``point_eval`` maxima and the mixtures of tents drawn by
``random_feasible`` are closed forms.  The ``avg_td`` maximum is a cutting
plane over one slope per interior pin, whose small master LP runs on the
in-repo simplex and gains each round's cuts as rows of one live tableau.
``linf_range_given_tdc`` is the continuous closed form for the sup-measure
given the coefficient.  Grid ranges inherit a +-2/grid_size
resolution, reported on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError, SolverError
from .lp import TOL_RC, SimplexSolver
from .measures import RAW, scale_factor
from .rng import SplitMix64
from .tdf import CONCAVITY_TOL, DEFAULT_GRID_SIZE, TailDependenceFunction
from .tdf import from_grid, upper_bound

MAX_TD = "max_td"
AVG_TD = "avg_td"
POINT_EVAL = "point_eval"

PinPair = tuple[float, float]
N_MIX = 3  # tents mixed by one random_feasible draw
MAX_ROUNDS = 30  # cutting-plane rounds of the avg_td maximum before SolverError
GAP_TOL = 1e-13  # master bound minus best curve value at which the maximum is exact


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
    lp_iterations: int = 0  # dual pivots plus a pricing pass per solve; 0 for closed forms

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


def _pin_indices(pins, m: int) -> list[tuple[int, float]]:
    if m < 2:
        raise ParameterError("grid_size must be >= 2")
    out = []
    seen = set()
    for s, value in pins:
        i = _grid_index(s, m)
        bound = min(i, m - i) / m
        if not 0.0 <= value <= bound + 1e-12:
            raise InfeasibleError(
                f"pin ({s}, {value}) violates the admissible bound {bound:.6g}"
            )
        if i in seen:
            raise ParameterError(f"duplicate pin at grid point {s}")
        seen.add(i)
        out.append((i, float(value)))
    return out


def _as_tdf(x: np.ndarray, m: int) -> TailDependenceFunction:
    try:
        return from_grid(np.clip(x, 0.0, upper_bound(m)), enforce_concavity=True)
    except ParameterError as exc:
        raise SolverError(f"curve failed validation: {exc}") from None


def _envelopes(pins, m: int):
    """Anchors (pins plus zero endpoints) as grid indices and values, their
    interpolant (the pointwise smallest admissible curve) and the upper
    envelope.  InfeasibleError unless the slope between anchors rises by at
    most ``from_grid``'s concavity tolerance per grid step."""
    points = {0: 0.0, m: 0.0}
    points.update(_pin_indices(pins, m))
    idx = np.array(sorted(points))
    val = np.array([points[i] for i in idx])
    rise = np.diff(np.diff(val) / np.diff(idx))
    if rise.size and rise.max() > CONCAVITY_TOL:
        k = int(np.argmax(rise))
        raise InfeasibleError(
            f"pins are not jointly concave: the slope rises by {rise[k]:.3e} "
            f"per grid step at s = {idx[k + 1] / m:.6g}"
        )
    lower = np.interp(np.arange(m + 1), idx, val)
    return idx, val, lower, _upper_envelope(idx, val, lower)


def _upper_envelope(idx: np.ndarray, val: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Pointwise largest admissible value at each grid point.

    Between anchors k and k + 1 an admissible curve lies under min(s, 1 - s) and
    under the chords of the intervals before and after, extended; the tent
    through the anchors and that point attains the bound.  Clamping at the
    interpolant ``lower`` keeps that tent concave when the anchors are concave
    only within tolerance.
    """
    i = np.arange(lower.size)
    k = np.minimum(np.searchsorted(idx, i, side="right") - 1, idx.size - 2)
    slope = np.concatenate([[np.inf], np.diff(val) / np.diff(idx), [-np.inf]])
    with np.errstate(invalid="ignore"):  # inf * 0 at the end anchors; fmin skips the NaN
        left = val[k] + slope[k] * (i - idx[k])
        right = val[k + 1] - slope[k + 2] * (idx[k + 1] - i)
    return np.fmax(lower, np.fmin(upper_bound(lower.size - 1), np.fmin(left, right)))


def _tent(idx: np.ndarray, val: np.ndarray, i: int, value: float, lower: np.ndarray) -> np.ndarray:
    """Interpolant of the anchors plus the point (i, value): ``lower`` redrawn
    on the anchor interval around i (``np.interp`` reads one interval per point)."""
    if np.any(idx == i):
        return lower
    j = int(np.searchsorted(idx, i))
    a, b = idx[j - 1], idx[j]
    tent = lower.copy()
    tent[a:b + 1] = np.interp(np.arange(a, b + 1), (a, i, b), (val[j - 1], value, val[j]))
    return tent


def _weighted_sum_max(idx: np.ndarray, val: np.ndarray, upper: np.ndarray, w: np.ndarray):
    """Maximum of ``w @ x`` (w >= 0) over admissible curves through the
    anchors, a curve attaining it, and the simplex iterations spent.

    A concave curve lies under its supporting line at each interior anchor j,
    whose slope t_j lies between the chords on either side.  Given the slopes,
    the best curve on anchor interval k is min(F, line of anchor k, line of
    anchor k + 1), with F the Frechet bound, and its weighted sum B_k over the
    interval is concave and piecewise linear in (t_k, t_{k+1}).  Kelley's
    cutting-plane method maximises sum_k B_k: a master LP with one epigraph
    variable per interval, at most the interval's sum under the upper
    envelope, gains each round the active affine piece of B_k wherever it
    overestimates B_k.  There are finitely many pieces, so the master bound
    meets the best curve found at the exact maximum.  One master lives for the
    whole call, with the scaled objective fixed at construction: each round
    appends its cuts to the live simplex tableau, whose dual pass re-optimises
    from the last basis, and the iterations returned are that one solver's
    dual pivots plus one pricing pass per solve, over every round.
    """
    m = w.size - 1
    p = idx.size - 2  # interior anchors, one slope each (per unit s)
    chord = np.diff(val) / np.diff(idx) * m
    # t_j lies in [min(s_j, s_{j-1}), s_{j-1}]; right of the anchor the line
    # rises by the slope rise the slope test tolerates, so near-tolerance
    # anchors keep both sides on their chords.
    t_lo, t_hi = np.minimum(chord[1:], chord[:-1]), chord[:-1]
    rise = np.maximum(chord[1:] - chord[:-1], 0.0)
    i = np.setdiff1d(np.arange(m + 1), idx)  # grid points strictly inside an interval
    k = np.searchsorted(idx, i) - 1
    dl, dr = (i - idx[k]) / m, (i - idx[k + 1]) / m  # offsets from both anchors
    wi, bound = w[i], upper_bound(m)[i]
    const = np.stack([bound, val[k] + np.concatenate([[0.0], rise])[k] * dl, val[k + 1]])
    n = p + 1  # interval k runs from anchor k to k + 1; anchor j's slope is column j - 1
    rows = np.arange(n)
    lo = np.concatenate([t_lo, np.zeros(n)])
    hi = np.concatenate([t_hi, np.bincount(k, wi * upper[i], minlength=n)])
    obj = np.concatenate([np.zeros(p), np.ones(n)])
    scale = np.where(hi > lo, hi - lo, 1.0)
    x = np.zeros(m + 1)
    x[idx] = val
    anchored = float(w[idx] @ val)

    # Mid-range slopes first, against the upper envelope as the first estimate.
    t, eta = 0.5 * (t_lo + t_hi), hi[p:]
    # The simplex's tolerances are absolute, so it sees every variable over
    # [0, 1], every row with a unit epigraph coefficient, and an objective
    # in which its reduced-cost tolerance is worth GAP_TOL.
    master = SimplexSolver(np.zeros((0, p + n)), [], np.zeros(p + n), (hi - lo) / scale,
                           obj * scale * (TOL_RC / GAP_TOL))
    best, argmax = -np.inf, x
    for _ in range(MAX_ROUNDS):
        # Interval 0 has no left line and interval p no right line.
        left = const[1] + np.concatenate([[np.inf], t])[k] * dl
        right = const[2] + np.concatenate([t, [-np.inf]])[k] * dr
        active = np.argmin(np.stack([bound, left, right]), axis=0)
        x[i] = np.choose(active, (bound, left, right))
        value = float(w @ x)
        if value > best:
            best, argmax = value, x.copy()
        if float(eta.sum()) + anchored - best <= GAP_TOL:
            return best, argmax, master.iterations
        part = np.bincount(k, wi * x[i], minlength=n)
        # The active pieces summed per interval: eta_k <= const + weights . slopes.
        cut = np.zeros((n, p + n))
        cut[rows, p + rows] = 1.0
        cut[rows[1:], rows[:-1]] = -np.bincount(k, wi * dl * (active == 1), minlength=n)[1:]
        cut[rows[:-1], rows[:-1]] = -np.bincount(k, wi * dr * (active == 2), minlength=n)[:-1]
        rhs = np.bincount(k, wi * np.choose(active, const), minlength=n)
        new = eta > part
        a, b = cut[new], rhs[new]
        # Scaling is per row, so each round appends only its own rows to
        # the live master and the rows before them never change.
        az = a * scale
        row = az[:, p:].max(axis=1)
        master.add_rows(az / row[:, None], (b - a @ lo) / row)
        sol = master.solve()
        t, eta = t_lo + scale[:p] * sol.x[:p], scale[p:] * sol.x[p:]
    raise SolverError(f"avg_td maximum did not converge in {MAX_ROUNDS} cutting-plane rounds")


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
    maximising grid point.  The ``avg_td`` maximum optimises one supporting
    slope per interior pin by an exact cutting plane (``_weighted_sum_max``);
    ``lp_iterations`` counts the dual pivots of its one live master LP plus
    one pricing pass per solve.
    """
    m = grid_size
    scale = scale_factor(normalization)
    if measure not in (MAX_TD, AVG_TD, POINT_EVAL):
        raise ParameterError(f"unknown envelope measure {measure!r}")
    if measure == POINT_EVAL and normalization != RAW:
        raise ParameterError("point_eval has no doubled form")
    if measure == POINT_EVAL and s0 is None:
        raise ParameterError("point_eval needs s0")
    idx, val, lower, upper = _envelopes(pins, m)
    iterations = 0
    if measure == AVG_TD:
        c = np.full(m + 1, 1.0 / m)
        c[0] = c[-1] = 0.5 / m
        min_value = float(c @ lower)
        max_value, x, iterations = _weighted_sum_max(idx, val, upper, c)
        argmax = _as_tdf(x, m)
    else:
        top = int(np.argmax(upper)) if measure == MAX_TD else _grid_index(s0, m)
        min_value = float(lower.max() if measure == MAX_TD else lower[top])
        max_value = float(upper[top])
        argmax = _as_tdf(_tent(idx, val, top, max_value, lower), m)

    return EnvelopeResult(measure, normalization, m, tuple((float(a), float(b)) for a, b in pins),
                          scale * min_value, scale * max_value, _as_tdf(lower, m), argmax,
                          resolution=2.0 / m, lp_iterations=iterations)


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
    idx, val, lower, upper = _envelopes(pins, m)
    rng = SplitMix64(seed)
    tents = []
    for _ in range(N_MIX):
        i = rng.next_u64() % (m + 1)
        tents.append(_tent(idx, val, i, lower[i] + rng.uniform() * (upper[i] - lower[i]), lower))
    weights = np.array([rng.uniform() for _ in range(N_MIX)])
    weights /= weights.sum()
    return _as_tdf(weights @ np.array(tents), m)
