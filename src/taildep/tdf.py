"""Tail dependence functions on the unit simplex.

A (lower) tail dependence function, restricted to the simplex direction
``(s, 1 - s)``, is a concave function ``L : [0, 1] -> R`` with ``L(0) = L(1) = 0``
and ``0 <= L(s) <= min(s, 1 - s)``.  The two-argument form on the positive
quadrant is recovered by homogeneity:

    L(x, y) = (x + y) * L(x / (x + y)),    L(0, 0) = 0.

This module holds the grid representation (uniform grid, piecewise-linear
interpolation), constructors for the standard parametric shapes, validation,
the concave projection (one curve, or every row of a stacked array), and JSON
serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParameterError

DEFAULT_GRID_SIZE = 200

# Constraint slack accepted at construction; violations beyond these are reported.
BOUND_TOL = 1e-9
CONCAVITY_TOL = 1e-9

# Rows projected together by ``least_concave_majorant_rows``; the hull keeps
# one stack of grid indices per row.
HULL_CHUNK_ROWS = 8192


class TDFKind(Enum):
    """Whether concavity was enforced (VALIDATED) or only bounds (EMPIRICAL)."""

    VALIDATED = "validated"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class Violation:
    """One constraint violation found by ``from_grid``."""

    constraint: str  # "nonnegative" | "upper_bound" | "concavity"
    index: int
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    """Returned by ``from_grid`` instead of a function when constraints fail."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self) -> Violation:
        return max(self.violations, key=lambda v: v.magnitude)


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
        out = from_grid(values, enforce_concavity=(kind is TDFKind.VALIDATED))
        if isinstance(out, ValidationReport):
            worst = out.worst()
            raise ParameterError(
                f"serialized grid violates {worst.constraint} at index {worst.index} "
                f"by {worst.magnitude:.3e}"
            )
        return out


def upper_bound(m: int) -> np.ndarray:
    """The admissible bound min(s, 1 - s) on the m-grid."""
    s = np.arange(m + 1) / m
    return np.minimum(s, 1.0 - s)


def from_grid(values, enforce_concavity: bool = True):
    """Build a function from grid values, or report why the grid is inadmissible.

    Returns a VALIDATED function when bounds, boundary zeros, and concavity all
    hold within tolerance; with ``enforce_concavity=False`` concavity is skipped
    and the result is EMPIRICAL.  Admissible-within-tolerance values are snapped
    onto the exact constraint set, so invariants hold exactly afterwards.
    Constraint violations come back as a ``ValidationReport``.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ParameterError("grid needs at least 3 values on one axis")
    if not np.all(np.isfinite(v)):
        raise ParameterError("grid values must be finite")
    m = v.size - 1
    bound = upper_bound(m)

    violations = []
    for i in np.flatnonzero(v < -BOUND_TOL):
        violations.append(Violation("nonnegative", int(i), float(-v[i])))
    for i in np.flatnonzero(v > bound + BOUND_TOL):
        violations.append(Violation("upper_bound", int(i), float(v[i] - bound[i])))
    if enforce_concavity:
        second = v[2:] - 2.0 * v[1:-1] + v[:-2]
        for j in np.flatnonzero(second > CONCAVITY_TOL):
            violations.append(Violation("concavity", int(j + 1), float(second[j])))
    if violations:
        return ValidationReport(tuple(violations))

    clipped = np.clip(v, 0.0, bound)
    clipped[0] = 0.0
    clipped[m] = 0.0
    kind = TDFKind.VALIDATED if enforce_concavity else TDFKind.EMPIRICAL
    return TailDependenceFunction(m, clipped, kind)


def _build(values: np.ndarray, what: str) -> TailDependenceFunction:
    out = from_grid(values, enforce_concavity=True)
    if isinstance(out, ValidationReport):  # pragma: no cover - constructors are exact
        worst = out.worst()
        raise ParameterError(f"{what}: {worst.constraint} violated by {worst.magnitude:.3e}")
    return out


def comonotone(grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Strongest admissible function, min(s, 1 - s)."""
    _check_grid_size(grid_size)
    return _build(upper_bound(grid_size), "comonotone")


def independence(grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Identically zero (asymptotic tail independence)."""
    _check_grid_size(grid_size)
    return _build(np.zeros(grid_size + 1), "independence")


def clayton(theta: float, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Clayton family, (s^-theta + (1-s)^-theta)^(-1/theta), theta > 0."""
    _check_grid_size(grid_size)
    if not (theta > 0.0) or not np.isfinite(theta):
        raise ParameterError("clayton requires theta > 0")
    s = np.arange(1, grid_size) / grid_size
    interior = (s ** -theta + (1.0 - s) ** -theta) ** (-1.0 / theta)
    values = np.zeros(grid_size + 1)
    values[1:-1] = interior
    return _build(values, "clayton")


def tent(a: float, b: float, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """min(a*s, b*(1-s)) clipped at the admissible bound; a, b >= 0."""
    _check_grid_size(grid_size)
    if a < 0.0 or b < 0.0 or not np.isfinite(a) or not np.isfinite(b):
        raise ParameterError("tent requires a >= 0 and b >= 0")
    s = np.arange(grid_size + 1) / grid_size
    values = np.minimum(np.minimum(a * s, b * (1.0 - s)), upper_bound(grid_size))
    return _build(values, "tent")


def parabola(c: float = 1.0, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """c * s * (1 - s) with 0 < c <= 1, the bound that keeps it admissible."""
    _check_grid_size(grid_size)
    if not (0.0 < c <= 1.0):
        raise ParameterError("parabola requires c in (0, 1]")
    s = np.arange(grid_size + 1) / grid_size
    return _build(c * s * (1.0 - s), "parabola")


_FAMILIES = {
    "comonotone": (comonotone, ()),
    "independence": (independence, ()),
    "clayton": (clayton, ("theta",)),
    "tent": (tent, ("a", "b")),
    "parabola": (parabola, ("c",)),
}


def from_parametric(family: str, grid_size: int = DEFAULT_GRID_SIZE, **params) -> TailDependenceFunction:
    """Dispatch to a parametric constructor by family name."""
    try:
        ctor, names = _FAMILIES[family]
    except KeyError:
        raise ParameterError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}") from None
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise ParameterError(f"family {family!r} takes parameters {list(names)}")
    return ctor(*[params[n] for n in names], grid_size=grid_size)


def least_concave_majorant(tdf: TailDependenceFunction) -> TailDependenceFunction:
    """Project onto the admissible class: smallest concave function above the grid.

    The result is the upper convex hull of the grid points, clipped at
    min(s, 1 - s); it is VALIDATED, idempotent on validated inputs, and
    monotone in the pointwise order.  Every value must be finite.  A one-row
    call of ``least_concave_majorant_rows``.
    """
    values = np.array(tdf.values, dtype=float, ndmin=2)
    least_concave_majorant_rows(values)
    return _build(values[0], "least_concave_majorant")


def least_concave_majorant_rows(values: np.ndarray) -> None:
    """Overwrite each row of a C-contiguous (rows, m + 1) array with its
    ``least_concave_majorant``: a monotone chain runs column by column with
    one stack per row, the interpolation repeats ``np.interp``'s arithmetic,
    and the clipping is ``from_grid``'s.  Every value must be finite.

    The chain scans only the points where a row changes level: a point equal
    to both its neighbours is never a hull vertex, and it pops nothing that
    the next scanned point would not pop, so skipping it leaves every stack
    as the full scan leaves it.  That holds in floating point when the
    products of value gaps neither underflow nor tie; a row with a value
    below 0, above 1, or in (0, 2**53 * m * tiny) is flagged and scans every
    point.  An estimate is a step function of count / k in [0, 1] with at
    most 2k steps, so a report row scans at most 4k + 1 points (about 27 of
    199 on the report's rows, with k = 22 and m = 200).  ``_project_chunk``
    gives the argument case by case.
    """
    if values.ndim != 2 or not values.flags.c_contiguous or values.shape[1] < 3:
        raise ParameterError("expected a C-contiguous (rows, m + 1) array with m >= 2")
    if not np.isfinite(values).all():
        raise ParameterError("grid values must be finite")
    for lo in range(0, values.shape[0], HULL_CHUNK_ROWS):
        _project_chunk(values[lo:lo + HULL_CHUNK_ROWS])


def _project_chunk(v: np.ndarray) -> None:
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
    # below 0, above 1 or in (0, T) scans every point.  Row reductions over
    # the stack's memory, unused until the chain starts, find it: it has more
    # values below T than zeros, or a maximum above 1.
    # np.zeros, though every entry is written before it is read: with
    # np.empty the report's peak RSS rose by about 0.25 MB.
    stack = np.zeros((rows, n), dtype=np.min_scalar_type(m))
    np.less(v, 2.0 ** 53 * m * np.finfo(float).tiny, out=stack)
    below = stack.sum(axis=1, dtype=np.intp)
    np.equal(v, 0.0, out=stack)
    full = (below != stack.sum(axis=1, dtype=np.intp)) | (v.max(axis=1) > 1.0)
    stack[:, 0] = 0
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

    # np.interp(s, s[hull], v[hull]), in place: hull vertices keep their value,
    # the points between two vertices lo < i < hi get slope * (s_i - s_lo) + v_lo
    # with slope = (v_hi - v_lo) / (s_hi - s_lo).  Vertices are never
    # overwritten, so v stays readable at every vertex.
    lo = np.zeros(rows, dtype=np.intp)
    v_lo = v[:, 0].copy()
    pos = np.ones(rows, dtype=np.intp)  # stack position of the segment's right end
    hi = stack[:, 1].astype(np.intp)
    slope = (v[r, hi] - v_lo) / (s[hi] - s[0])
    for i in range(1, m):
        at = hi == i
        v[:, i] = np.where(at, v[:, i], slope * (s[i] - s[lo]) + v_lo)
        moved = np.flatnonzero(at)
        if moved.size:
            pos[moved] += 1
            lo[moved] = i
            v_lo[moved] = v[moved, i]
            hi[moved] = stack[moved, pos[moved]]
            slope[moved] = (v[moved, hi[moved]] - v_lo[moved]) / (s[hi[moved]] - s[i])
    # from_grid's clip to [0, min(s, 1 - s)], and exact zero endpoints.
    np.clip(v, 0.0, upper_bound(m), out=v)
    v[:, 0] = 0.0
    v[:, m] = 0.0


def _check_grid_size(grid_size: int):
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
        raise ParameterError("grid_size must be an integer >= 2")
