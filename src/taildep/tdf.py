"""Tail dependence functions on the unit simplex.

A (lower) tail dependence function, restricted to the simplex direction
``(s, 1 - s)``, is a concave function ``L : [0, 1] -> R`` with ``L(0) = L(1) = 0``
and ``0 <= L(s) <= min(s, 1 - s)``.  The two-argument form on the positive
quadrant is recovered by homogeneity:

    L(x, y) = (x + y) * L(x / (x + y)),    L(0, 0) = 0.

This module holds the grid representation (uniform grid, piecewise-linear
interpolation), constructors for the standard parametric shapes, the concave
projection (one curve, or every row of a stacked array: one monotone chain
over all rows at once, then ``np.interp`` per row), and JSON serialization.
Every curve is built by ``from_grid``, the one admissibility gate: it
returns the function or raises ``ParameterError`` naming the worst violated
constraint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError

DEFAULT_GRID_SIZE = 200

# Constraint slack accepted at construction; violations beyond these raise.
BOUND_TOL = 1e-9
CONCAVITY_TOL = 1e-9


class TDFKind(Enum):
    """Whether concavity was enforced (VALIDATED) or only bounds (EMPIRICAL)."""

    VALIDATED = "validated"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class TailDependenceFunction:
    """Piecewise-linear tail dependence function on a uniform grid.

    ``values[i]`` is the function value at ``s = i / grid_size``; endpoints are
    exactly zero.  Instances are immutable; construct through ``from_grid`` or
    the parametric constructors, which establish the invariants.
    """

    grid_size: int
    values: np.ndarray = field(repr=False)
    kind: TDFKind = TDFKind.VALIDATED

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> np.ndarray:
        """Grid abscissae ``i / grid_size`` for ``i = 0..grid_size``."""
        return np.arange(self.grid_size + 1) / self.grid_size

    def eval(self, s):
        """Evaluate at ``s`` in [0, 1] (scalar or array) by linear interpolation."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0) or np.any(s_arr > 1.0) or not np.all(np.isfinite(s_arr)):
            raise DomainError("evaluation point must lie in [0, 1]")
        out = np.interp(s_arr, self.grid, self.values)
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    def extend_2d(self, x, y):
        """Homogeneous extension to the quadrant: (x + y) * eval(x / (x + y))."""
        x_arr = np.asarray(x, dtype=float)
        y_arr = np.asarray(y, dtype=float)
        if (
            np.any(x_arr < 0.0)
            or np.any(y_arr < 0.0)
            or not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(y_arr)))
        ):
            raise DomainError("extension requires finite x >= 0 and y >= 0")
        total = x_arr + y_arr
        with np.errstate(invalid="ignore"):
            ratio = np.where(total > 0.0, x_arr / np.where(total > 0.0, total, 1.0), 0.0)
        out = total * np.interp(ratio, self.grid, self.values)
        scalar = np.isscalar(x) and np.isscalar(y)
        return float(out) if scalar or out.ndim == 0 else out

    def to_json(self) -> str:
        """Serialize; round-trips bit-exactly for finite doubles."""
        return json.dumps(
            {
                "m": self.grid_size,
                "values": [float(v) for v in self.values],
                "kind": self.kind.value,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TailDependenceFunction":
        data = json.loads(text)
        values = np.asarray(data["values"], dtype=float)
        if len(values) != data["m"] + 1:
            raise ParameterError("values length must be m + 1")
        kind = TDFKind(data["kind"])
        return from_grid(values, enforce_concavity=(kind is TDFKind.VALIDATED))


def upper_bound(m: int) -> np.ndarray:
    """The admissible bound min(s, 1 - s) on the m-grid."""
    s = np.arange(m + 1) / m
    return np.minimum(s, 1.0 - s)


def from_grid(values, enforce_concavity: bool = True) -> TailDependenceFunction:
    """Build a function from grid values; the one gate every curve passes.

    Returns a VALIDATED function when bounds, boundary zeros, and concavity all
    hold within tolerance; with ``enforce_concavity=False`` concavity is skipped
    and the result is EMPIRICAL.  Admissible-within-tolerance values are snapped
    onto the exact constraint set by ``snap_rows``, so invariants hold exactly.  An
    inadmissible grid raises ``ParameterError`` naming its worst violation:
    "grid violates <constraint> at index <i> by <magnitude>", with constraint
    ``nonnegative``, ``upper_bound`` or ``concavity`` (a positive second
    difference, at its middle node).
    """
    v = np.array(values, dtype=float)  # a copy: snapped in place below
    if v.ndim != 1 or v.size < 3:
        raise ParameterError("grid needs at least 3 values on one axis")
    if not np.all(np.isfinite(v)):
        raise ParameterError("grid values must be finite")
    m = v.size - 1
    bound = upper_bound(m)
    second = v[2:] - 2.0 * v[1:-1] + v[:-2] if enforce_concavity else None
    if ((v < -BOUND_TOL).any() or (v > bound + BOUND_TOL).any()
            or (second is not None and (second > CONCAVITY_TOL).any())):
        raise ParameterError(_worst_violation(v, bound, second))

    snap_rows(v, bound)
    kind = TDFKind.VALIDATED if enforce_concavity else TDFKind.EMPIRICAL
    return TailDependenceFunction(m, v, kind)


def snap_rows(values: np.ndarray, bound: np.ndarray) -> None:
    """The one snap onto the admissible bounds, in place along the last axis:
    clip to [0, bound] (``upper_bound`` of the grid), both ends exactly 0.0."""
    np.clip(values, 0.0, bound, out=values)
    values[..., 0] = 0.0
    values[..., -1] = 0.0


def _worst_violation(v: np.ndarray, bound: np.ndarray, second: np.ndarray | None) -> str:
    """The message for the largest violation; ties go to the first constraint
    in the order below, then to the lowest index.  Called only when a check
    failed, so the largest excess is beyond its tolerance."""
    checks = [("nonnegative", -v, 0), ("upper_bound", v - bound, 0)]
    if second is not None:
        checks.append(("concavity", second, 1))  # second[j] belongs to node j + 1
    worst = (0.0, "", 0)
    for constraint, excess, offset in checks:
        i = int(np.argmax(excess))
        if excess[i] > worst[0]:
            worst = (float(excess[i]), constraint, i + offset)
    return f"grid violates {worst[1]} at index {worst[2]} by {worst[0]:.3e}"


def comonotone(grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Strongest admissible function, min(s, 1 - s)."""
    _check_grid_size(grid_size)
    return from_grid(upper_bound(grid_size))


def independence(grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Identically zero (asymptotic tail independence)."""
    _check_grid_size(grid_size)
    return from_grid(np.zeros(grid_size + 1))


def clayton(theta: float, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Clayton family, (s^-theta + (1-s)^-theta)^(-1/theta), theta > 0.

    Computed as lo * (1 + r^theta)^(-1/theta) with lo = min(s, 1 - s) and
    r = lo / (1 - lo) <= 1, so no power overflows at a large theta and the
    curve tends to min(s, 1 - s).
    """
    _check_grid_size(grid_size)
    if not (theta > 0.0) or not np.isfinite(theta):
        raise ParameterError("clayton requires theta > 0")
    lo = upper_bound(grid_size)
    return from_grid(lo * (1.0 + (lo / (1.0 - lo)) ** theta) ** (-1.0 / theta))


def tent(a: float, b: float, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """min(a*s, b*(1-s)) clipped at the admissible bound; a, b >= 0."""
    _check_grid_size(grid_size)
    if a < 0.0 or b < 0.0 or not np.isfinite(a) or not np.isfinite(b):
        raise ParameterError("tent requires a >= 0 and b >= 0")
    s = np.arange(grid_size + 1) / grid_size
    values = np.minimum(np.minimum(a * s, b * (1.0 - s)), upper_bound(grid_size))
    return from_grid(values)


def parabola(c: float = 1.0, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """c * s * (1 - s) with 0 < c <= 1, the bound that keeps it admissible."""
    _check_grid_size(grid_size)
    if not (0.0 < c <= 1.0):
        raise ParameterError("parabola requires c in (0, 1]")
    s = np.arange(grid_size + 1) / grid_size
    return from_grid(c * s * (1.0 - s))


def least_concave_majorant(tdf: TailDependenceFunction) -> TailDependenceFunction:
    """Project onto the admissible class: smallest concave function above the grid.

    The result is the upper convex hull of the grid points, clipped at
    min(s, 1 - s); it is VALIDATED, idempotent on validated inputs, and
    monotone in the pointwise order.  Every value must be finite.  A one-row
    call of ``least_concave_majorant_rows``.
    """
    values = np.array(tdf.values, dtype=float, ndmin=2)
    least_concave_majorant_rows(values)
    return from_grid(values[0])


def least_concave_majorant_rows(values: np.ndarray) -> None:
    """Overwrite each row of a C-contiguous (rows, m + 1) array with its
    ``least_concave_majorant``: a monotone chain runs column by column with
    one stack per row, ``np.interp`` fills each row between its hull
    vertices, and ``snap_rows`` ends it.  Every value must be finite.

    The chain scans only the points where a row changes level: a point equal
    to both its neighbours is never a hull vertex, and it pops nothing that
    the next scanned point would not pop, so skipping it leaves every stack
    as the full scan leaves it.  That holds in floating point when the
    products of value gaps neither underflow nor tie; a row with a value
    below 0, above 1, or in (0, 2**53 * m * tiny) is flagged and scans every
    point.  An estimate is a step function of count / k in [0, 1] with at
    most 2k steps, so a report row scans at most 4k + 1 points (about 27 of
    199 on the report's rows, with k = 22 and m = 200).  The skip proof in
    the body gives the argument case by case.
    """
    if values.ndim != 2 or not values.flags.c_contiguous or values.shape[1] < 3:
        raise ParameterError("expected a C-contiguous (rows, m + 1) array with m >= 2")
    if not np.isfinite(values).all():
        raise ParameterError("grid values must be finite")
    v = values
    rows, n = v.shape
    m = n - 1
    s = np.arange(n) / m
    r = np.arange(rows)
    # Upper hull, left to right; stack[j, :top[j]] is row j's chain so far.
    #
    # Column i's pass takes only the rows whose value at i differs from the
    # value at i - 1 or at i + 1; column m takes every row.  A skipped point
    # lies inside a flat run a..e (v_a = ... = v_e = c), whose ends are
    # scanned; it changes no chain, in floating point too.  Let x be the chain
    # vertex below a once a is pushed, d = v_a - v_x, and p a run point > a.
    # - d > 0: p tests (x, a) by d * (s_p - s_x) <= d * (s_a - s_x), false,
    #   so a stays; a scanned p is popped by p + 1 with 0 <= 0.  Either way
    #   the chain after e ends x, a, e.
    # - d = 0: p drops a by 0 <= 0.  The exposed x (v_x = c) then has, for
    #   the vertex u below it, the test (c - v_u) * (s_p - s_u) <=
    #   (c - v_u) * (s_x - s_u): it keeps x for every p if c > v_u, and pops
    #   it for every p otherwise, exposing u with v_u >= c: this case again
    #   (v_u = c), or an exposed vertex above c as below.
    # - d < 0: p drops a, strictly.  The exposed vertex w has v_w > c, and
    #   the vertex u below it is tested by (v_w - v_u) * (s_p - s_u) <=
    #   (c - v_u) * (s_w - s_u), whose right side does not depend on p.  If
    #   v_w < v_u, the left side falls as s_p grows: a pop at p is a pop at
    #   every later p, and it exposes u with v_u > c.  If v_w >= v_u, w stays
    #   for every p: the right side is negative if c < v_u; otherwise it is at
    #   most (v_z - v_u) * (s_w - s_u) for w's successor z (v_z > c), which
    #   did not pop w from s_z < s_p when z was pushed.
    # So the pops made over a + 1..e are the pops made at e.  The strict steps
    # need a uniform grid, and products of value gaps that neither underflow
    # nor tie: gaps between values in {0} u [T, 1], T = 2**53 * m * tiny, are
    # at least m * tiny, and grid gaps are at least 1/m.  A row with a value
    # below 0, above 1 or in (0, T) scans every point.
    full = (((v < 2.0 ** 53 * m * np.finfo(float).tiny) & (v != 0.0)).any(axis=1)
            | (v.max(axis=1) > 1.0))
    # Every chain starts at vertices 0 and 1; np.zeros writes the first.
    stack = np.zeros((rows, n), dtype=np.min_scalar_type(m))
    stack[:, 1] = 1
    top = np.full(rows, 2)
    behind = v[:, 2] != v[:, 1]
    for i in range(2, n):
        vi = v[:, i]
        if i < m:
            ahead = vi != v[:, i + 1]
            scan = np.flatnonzero(behind | ahead | full)
            behind = ahead
        else:
            scan = r
        live = scan
        while live.size:
            t = top[live]
            i1 = stack[live, t - 1]
            i0 = stack[live, t - 2]
            v0 = v[live, i0]
            drop = (v[live, i1] - v0) * (s[i] - s[i0]) <= (vi[live] - v0) * (s[i1] - s[i0])
            live = live[drop]
            top[live] -= 1
            live = live[top[live] >= 2]
        stack[scan, top[scan]] = i
        top[scan] += 1

    for j in range(rows):
        hull = stack[j, :top[j]]
        v[j] = np.interp(s, s[hull], v[j, hull])
    snap_rows(v, upper_bound(m))


def _check_grid_size(grid_size: int):
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
        raise ParameterError("grid_size must be an integer >= 2")
