"""Feasible ranges of measures over the admissible class, given pinned values.

The admissible functions on an m-grid form a polytope: zero endpoints, the
pointwise bounds 0 <= L_i <= min(s_i, 1 - s_i), concavity as second
differences <= 0, and any pinned values as equalities.  The anchors (pins plus
zero endpoints) fix its envelopes: their interpolant is the pointwise smallest
member, and the Frechet bound clipped by the extended chords of neighbouring
anchor intervals is the pointwise largest value.  Every minimum and the
``max_td`` and ``point_eval`` maxima are closed forms; only the ``avg_td``
maximum and ``random_feasible`` solve linear programs.  ``linf_range_given_tdc``
is the continuous closed form for the sup-measure given the coefficient.  Grid
ranges inherit a +-2/grid_size resolution, reported on the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError, SolverError
from .lp import SimplexSolver
from .measures import RAW, scale_factor
from .rng import SplitMix64
from .tdf import CONCAVITY_TOL, DEFAULT_GRID_SIZE, TailDependenceFunction, ValidationReport
from .tdf import from_grid, upper_bound

MAX_TD = "max_td"
AVG_TD = "avg_td"
POINT_EVAL = "point_eval"

PinPair = tuple[float, float]


@dataclass(frozen=True)
class FeasiblePolytope:
    """Constraint system for admissible grid functions with pins applied.

    Rows of ``A x <= b`` are the concavity constraints; bounds carry the
    pointwise constraints, the zero endpoints, and the pins (as equalities).
    """

    grid_size: int
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    pins: tuple[PinPair, ...]


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
    lp_iterations: int = 0  # simplex iterations spent; 0 when both ends are closed forms

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


def feasible_polytope(pins=(), grid_size: int = DEFAULT_GRID_SIZE) -> FeasiblePolytope:
    """Assemble the constraint system for the admissible class with pins."""
    m = grid_size
    pin_indices = _pin_indices(pins, m)
    lower = np.zeros(m + 1)
    upper = upper_bound(m)
    for i, value in pin_indices:
        lower[i] = upper[i] = value

    A = np.diff(np.eye(m + 1), n=2, axis=0)  # rows of second differences
    return FeasiblePolytope(m, A, np.zeros(m - 1), lower, upper, tuple((float(a), float(b)) for a, b in pins))


def _as_tdf(x: np.ndarray, m: int) -> TailDependenceFunction:
    out = from_grid(np.clip(x, 0.0, upper_bound(m)), enforce_concavity=True)
    if isinstance(out, ValidationReport):
        worst = out.worst()
        raise SolverError(f"curve failed validation: {worst}")
    return out


def _anchors(pins, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and values of the pins plus the zero endpoints; InfeasibleError
    unless the slope between anchors rises by at most ``from_grid``'s concavity
    tolerance per grid step."""
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
    return idx, val


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
    """Interpolant of the anchors plus the point (i, value)."""
    if np.any(idx == i):
        return lower
    j = int(np.searchsorted(idx, i))
    return np.interp(np.arange(lower.size), np.insert(idx, j, i), np.insert(val, j, value))


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
    maximising grid point.  The ``avg_td`` maximum is one simplex solve.
    """
    m = grid_size
    scale = scale_factor(normalization)
    if measure not in (MAX_TD, AVG_TD, POINT_EVAL):
        raise ParameterError(f"unknown envelope measure {measure!r}")
    if measure == POINT_EVAL and normalization != RAW:
        raise ParameterError("point_eval has no doubled form")
    if measure == POINT_EVAL and s0 is None:
        raise ParameterError("point_eval needs s0")
    idx, val = _anchors(pins, m)
    lower = np.interp(np.arange(m + 1), idx, val)
    iterations = 0
    if measure == AVG_TD:
        c = np.full(m + 1, 1.0 / m)
        c[0] = c[-1] = 0.5 / m
        poly = feasible_polytope(pins, m)
        hi = SimplexSolver(poly.A, poly.b, poly.lower, poly.upper).solve(c)
        min_value, max_value = float(c @ lower), hi.value
        argmax, iterations = _as_tdf(hi.x, m), hi.iterations
    else:
        upper = _upper_envelope(idx, val, lower)
        top = int(np.argmax(upper)) if measure == MAX_TD else _grid_index(s0, m)
        min_value = float(lower.max() if measure == MAX_TD else lower[top])
        max_value = float(upper[top])
        argmax = _as_tdf(_tent(idx, val, top, max_value, lower), m)

    return EnvelopeResult(measure, normalization, m, tuple((float(a), float(b)) for a, b in pins),
                          scale * min_value, scale * max_value, _as_tdf(lower, m), argmax,
                          resolution=2.0 / m, lp_iterations=iterations)


def linf_range_given_tdc(lam: float, normalization: str = RAW) -> tuple[float, float]:
    """Closed-form sup-measure range when only the coefficient is known.

    Raw scale: [lam/2, lam/(1+lam)].  The lower end is the peak of the least
    concave function through the midpoint pin; the upper end comes from the
    chords joining the pin to the boundary zeros.  The acceptance tests check
    it against the grid envelopes of ``measure_range``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ParameterError("tail dependence coefficient must lie in [0, 1]")
    scale = scale_factor(normalization)
    return scale * lam / 2.0, scale * lam / (1.0 + lam)


def random_feasible(
    pins=(),
    grid_size: int = DEFAULT_GRID_SIZE,
    seed: int = 0,
    n_mix: int = 3,
) -> TailDependenceFunction:
    """Random point of the pinned polytope: a convex mixture of LP vertices.

    Vertices come from maximizing seeded random objectives, so the draw is
    deterministic in (pins, grid_size, seed) and satisfies every pin exactly.
    """
    if n_mix < 1:
        raise ParameterError("n_mix must be >= 1")
    poly = feasible_polytope(pins, grid_size)
    solver = SimplexSolver(poly.A, poly.b, poly.lower, poly.upper)
    rng = SplitMix64(seed)
    m = poly.grid_size
    vertices = []
    for _ in range(n_mix):
        c = np.array([2.0 * rng.uniform() - 1.0 for _ in range(m + 1)])
        vertices.append(solver.solve(c).x)
    weights = np.array([rng.uniform() for _ in range(n_mix)])
    weights /= weights.sum()
    mix = np.einsum("i,ij->j", weights, np.asarray(vertices))
    return _as_tdf(mix, m)
