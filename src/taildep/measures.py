"""Monotone scalar measures of tail dependence.

Every function here is monotone for the pointwise order on tail dependence
functions: if L1 <= L2 everywhere then each measure of L1 is <= that of L2.
Max/average/Lp measures exist on two scales: ``raw`` (max <= 1/2 on the
simplex) and ``doubled`` (exactly 2x raw, so the comonotone value is 1 and the
scale matches the coefficient).

``measure_rows`` measures many curves at once, by the names the report and
the ``measures`` command use; see the table at the end of the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .tdf import TailDependenceFunction

RAW = "raw"
DOUBLED = "doubled"

# Each grid cell is split into 4 subintervals for composite Simpson quadrature.
SIMPSON_REFINEMENT = 4


@dataclass(frozen=True)
class MeasureValue:
    """A named scalar measurement of one tail dependence function."""

    name: str
    value: float
    normalization: str = RAW
    params: Mapping[str, float] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "value": self.value,
            "normalization": self.normalization,
        }


def scale_factor(normalization: str) -> float:
    if normalization == RAW:
        return 1.0
    if normalization == DOUBLED:
        return 2.0
    raise ParameterError(f"normalization must be {RAW!r} or {DOUBLED!r}")


def tdc(tdf: TailDependenceFunction) -> MeasureValue:
    """Tail dependence coefficient, 2 * L(1/2); in [0, 1]."""
    return MeasureValue("tdc", 2.0 * tdf.eval(0.5))


def point_eval(tdf: TailDependenceFunction, s0: float) -> MeasureValue:
    """L evaluated at a single simplex point s0 in [0, 1]."""
    return MeasureValue("point_eval", tdf.eval(s0), params={"s0": float(s0)})


def max_tail_dependence(tdf: TailDependenceFunction, normalization: str = RAW) -> MeasureValue:
    """Sup of L over the simplex; exact for the piecewise-linear representation."""
    value = scale_factor(normalization) * float(np.max(tdf.values))
    return MeasureValue("max_td", value, normalization)


def average_tail_dependence(tdf: TailDependenceFunction, normalization: str = RAW) -> MeasureValue:
    """Integral of L over [0, 1] (trapezoid; exact for piecewise-linear)."""
    v = tdf.values
    integral = (v.sum() - 0.5 * (v[0] + v[-1])) / tdf.grid_size
    return MeasureValue("avg_td", scale_factor(normalization) * float(integral), normalization)


def lp_norm(tdf: TailDependenceFunction, p: float, normalization: str = RAW) -> MeasureValue:
    """(integral of L^p)^(1/p) for finite p >= 1 (the sup case is max_td)."""
    if not np.isfinite(p) or p < 1.0:
        raise ParameterError("lp_norm requires finite p >= 1")
    integral = _simpson(tdf, lambda t: t ** p)
    value = scale_factor(normalization) * integral ** (1.0 / p)
    return MeasureValue("lp_norm", value, normalization, params={"p": float(p)})


def spearman_ev(tdf: TailDependenceFunction) -> MeasureValue:
    """Spearman's rho of the extreme-value copula with stable tail function L.

    Equals 12 * integral (2 - L(s))^-2 ds - 3; 0 for the zero function, 1 for
    the comonotone one.  Quadrature error is far below the 1e-8 contract.
    """
    integral = _simpson(tdf, lambda t: (2.0 - t) ** -2)
    return MeasureValue("spearman_ev", 12.0 * integral - 3.0)


def extremal_dependence(tdf: TailDependenceFunction) -> MeasureValue:
    """Coefficient lam / (2 - lam) built from the tail dependence coefficient."""
    lam = tdc(tdf).value
    return MeasureValue("extremal_dep", lam / (2.0 - lam))


def ev_copula(tdf: TailDependenceFunction, u, v):
    """Extreme-value copula with stable tail dependence function L.

    C(u, v) = exp(log u + log v + L(-log u, -log v)) for u, v in (0, 1];
    zero coordinates take the limit value 0.  Accepts scalars or arrays and
    always satisfies u*v <= C(u, v) <= min(u, v).
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    # Written so that NaN fails the check too.
    if not (np.all((u_arr >= 0.0) & (u_arr <= 1.0)) and np.all((v_arr >= 0.0) & (v_arr <= 1.0))):
        raise DomainError("copula arguments must lie in [0, 1]")
    inner_u = np.where(u_arr > 0.0, u_arr, 0.5)
    inner_v = np.where(v_arr > 0.0, v_arr, 0.5)
    lu = -np.log(inner_u)
    lv = -np.log(inner_v)
    out = np.exp(-(lu + lv) + tdf.extend_2d(lu, lv))
    out = np.where((u_arr > 0.0) & (v_arr > 0.0), out, 0.0)
    scalar = np.isscalar(u) and np.isscalar(v)
    return float(out) if scalar or out.ndim == 0 else out


def combine(f: Callable[..., float], parts: list[MeasureValue], name: str = "combined") -> MeasureValue:
    """Apply a scalar function to already-computed measure values."""
    if not parts:
        raise ParameterError("combine needs at least one measure value")
    return MeasureValue(name, float(f(*[p.value for p in parts])))


def _simpson(tdf: TailDependenceFunction, integrand: Callable[[np.ndarray], np.ndarray]) -> float:
    """Composite Simpson over a refinement of the grid.

    Each grid cell is split into SIMPSON_REFINEMENT subintervals so that the
    kinks of the piecewise-linear function sit on quadrature breakpoints.
    """
    m = tdf.grid_size
    n_sub = m * SIMPSON_REFINEMENT
    s = np.arange(n_sub + 1) / n_sub
    g = integrand(np.interp(s, tdf.grid, tdf.values))
    h = 1.0 / n_sub
    weights = np.full(n_sub + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return float(h / 3.0 * np.dot(weights, g))


# -- many curves at once ------------------------------------------------------
#
# Curves come as a (rows, m + 1) array of grid values, one curve per row.  Each
# row function repeats the float operations of its one-curve counterpart above
# in the same order, and reduces only along the contiguous last axis of a
# C-contiguous array (numpy sums a Fortran-ordered array along axis 1 in a
# different order), so each row's value equals the one-curve measure bit for
# bit.

# Rows measured together; bounds the (rows, 4m + 1) quadrature temporaries.
MEASURE_CHUNK_ROWS = 64


def _interp_rows(v: np.ndarray, x) -> np.ndarray:
    """``np.interp(x, grid, row)`` for every row: the same search and formula."""
    m = v.shape[1] - 1
    grid = np.arange(m + 1) / m
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(grid, x, side="right") - 1  # grid[j] <= x < grid[j + 1]
    jc = np.minimum(j, m - 1)
    slope = (v[:, jc + 1] - v[:, jc]) / (grid[jc + 1] - grid[jc])
    # Column fancy-indexing yields Fortran order; the sums downstream need rows.
    return np.ascontiguousarray(np.where(grid[j] == x, v[:, j], slope * (x - grid[jc]) + v[:, jc]))


def _simpson_rows(v: np.ndarray, integrand) -> np.ndarray:
    m = v.shape[1] - 1
    n_sub = m * SIMPSON_REFINEMENT
    s = np.arange(n_sub + 1) / n_sub
    g = integrand(_interp_rows(v, s))
    h = 1.0 / n_sub
    weights = np.full(n_sub + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    # np.dot per row: a matrix-vector product may sum in another order.
    return h / 3.0 * np.array([np.dot(weights, row) for row in g])


def _tdc_rows(v, scale, arg):
    return 2.0 * _interp_rows(v, 0.5)


def _l1_rows(v, scale, arg):
    return scale * ((v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1])) / (v.shape[1] - 1))


def _linf_rows(v, scale, arg):
    return scale * v.max(axis=1)


def _spearman_rows(v, scale, arg):
    return 12.0 * _simpson_rows(v, lambda t: (2.0 - t) ** -2) - 3.0


def _extremal_rows(v, scale, arg):
    lam = _tdc_rows(v, scale, arg)
    return lam / (2.0 - lam)


def _lp_rows(v, scale, p):
    integral = _simpson_rows(v, lambda t: t ** p)
    # Python's float power, as in lp_norm; numpy's array power may round differently.
    return np.array([scale * x ** (1.0 / p) for x in integral.tolist()])


def _point_rows(v, scale, s0):
    return _interp_rows(v, s0)


def _check_p(p: float) -> float:
    if not np.isfinite(p) or p < 1.0:
        raise ParameterError("lp_norm requires finite p >= 1")
    return p


def _check_s0(s0: float) -> float:
    if not 0.0 <= s0 <= 1.0:
        raise DomainError("evaluation point must lie in [0, 1]")
    return s0


# Measure names of the report and the ``measures`` command.  Plain names map to
# a row function; ``lp:<p>`` and ``point:<s0>`` carry a number checked by the
# second entry.
MEASURES = {
    "tdc": (_tdc_rows, None),
    "l1": (_l1_rows, None),
    "linf": (_linf_rows, None),
    "spearman_ev": (_spearman_rows, None),
    "extremal_dep": (_extremal_rows, None),
    "lp": (_lp_rows, _check_p),
    "point": (_point_rows, _check_s0),
}


def parse_measure(name: str):
    """(row function, argument) for a measure name; ConfigError if unknown or malformed."""
    key, sep, text = name.partition(":")
    try:
        fn, check = MEASURES[key]
    except KeyError:
        raise ConfigError(f"unknown measure {name!r}") from None
    if check is None:
        if sep:
            raise ConfigError(f"measure {key!r} takes no parameter; got {name!r}")
        return fn, None
    try:
        arg = float(text)
    except ValueError:
        raise ConfigError(f"measure {name!r} needs a number after {key + ':'!r}") from None
    return fn, check(arg)


def measure_rows(curves: np.ndarray, names, normalization: str = RAW) -> np.ndarray:
    """(rows, len(names)) values of the named measures of each curve (row)."""
    parsed = [parse_measure(name) for name in names]
    scale = scale_factor(normalization)
    curves = np.ascontiguousarray(curves, dtype=float)
    out = np.empty((curves.shape[0], len(parsed)))
    for lo in range(0, curves.shape[0], MEASURE_CHUNK_ROWS):
        chunk = curves[lo:lo + MEASURE_CHUNK_ROWS]
        for col, (fn, arg) in enumerate(parsed):
            out[lo:lo + chunk.shape[0], col] = fn(chunk, scale, arg)
    return out
