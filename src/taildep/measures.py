"""Monotone scalar measures of tail dependence.

Every function here is monotone for the pointwise order on tail dependence
functions: if L1 <= L2 everywhere then each measure of L1 is <= that of L2.
Max/average/Lp measures exist on two scales: ``raw`` (max <= 1/2 on the
simplex) and ``doubled`` (exactly 2x raw, so the comonotone value is 1 and the
scale matches the coefficient).

``measure_rows`` measures many curves at once, by the names the report and
the ``measures`` command use; see the table at the end of the module.  Each
one-curve function is a one-row call of its row function there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, ParameterError
from .tdf import TailDependenceFunction

RAW = "raw"
DOUBLED = "doubled"


@dataclass(frozen=True)
class MeasureValue:
    """A named scalar measurement of one tail dependence function."""

    name: str
    value: float
    normalization: str = RAW
    params: Mapping[str, float] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


def scale_factor(normalization: str) -> float:
    if normalization == RAW:
        return 1.0
    if normalization == DOUBLED:
        return 2.0
    raise ParameterError(f"normalization must be {RAW!r} or {DOUBLED!r}")


def tdc(tdf: TailDependenceFunction) -> MeasureValue:
    """Tail dependence coefficient, 2 * L(1/2); in [0, 1]."""
    return _measure(tdf, "tdc")


def point_eval(tdf: TailDependenceFunction, s0: float) -> MeasureValue:
    """L evaluated at a single simplex point s0 in [0, 1]."""
    return _measure(tdf, "point", arg=s0, params={"s0": float(s0)})


def max_tail_dependence(tdf: TailDependenceFunction, normalization: str = RAW) -> MeasureValue:
    """Sup of L over the simplex; exact for the piecewise-linear representation."""
    return _measure(tdf, "linf", normalization)


def average_tail_dependence(tdf: TailDependenceFunction, normalization: str = RAW) -> MeasureValue:
    """Integral of L over [0, 1] (trapezoid; exact for piecewise-linear)."""
    return _measure(tdf, "l1", normalization)


def lp_norm(tdf: TailDependenceFunction, p: float, normalization: str = RAW) -> MeasureValue:
    """(integral of L^p)^(1/p) for finite p >= 1 (the sup case is max_td).

    Computed as M * (integral of (L / M)^p)^(1/p) with M the maximum of L, so
    the value stays positive for a nonzero L at any p; exact for the
    piecewise-linear representation.
    """
    return _measure(tdf, "lp", normalization, p, {"p": float(p)})


def spearman_ev(tdf: TailDependenceFunction) -> MeasureValue:
    """Spearman's rho of the extreme-value copula with stable tail function L.

    Equals 12 * integral (2 - L(s))^-2 ds - 3, exact for the piecewise-linear
    representation and capped at 1: 0 for the zero function, 1 for comonotone.
    """
    return _measure(tdf, "spearman_ev")


def extremal_dependence(tdf: TailDependenceFunction) -> MeasureValue:
    """Coefficient lam / (2 - lam) built from the tail dependence coefficient."""
    return _measure(tdf, "extremal_dep")


def _measure(tdf, key: str, normalization: str = RAW, arg=None, params=None) -> MeasureValue:
    """The ``MEASURES[key]`` row function on the one row of ``tdf``."""
    measure = MEASURES[key]
    arg = arg if measure.check is None else measure.check(arg)
    row = np.array(tdf.values, dtype=float, ndmin=2)
    value = measure.rows(row, scale_factor(normalization), arg)[0]
    return MeasureValue(measure.name, float(value), normalization, params or {})


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


# -- many curves at once ------------------------------------------------------
#
# Curves come as a (rows, m + 1) array of grid values, one curve per row.  Row
# functions reduce only along the contiguous last axis of a C-contiguous array
# (numpy sums a Fortran-ordered array along axis 1 in another order), so a
# row's value has the same bits however many rows are measured with it.

# Rows measured together; bounds the (rows, m) per-cell temporaries.
MEASURE_CHUNK_ROWS = 64


def _interp_rows(v: np.ndarray, x: float) -> np.ndarray:
    """``np.interp(x, grid, row)`` for every row: the same search and formula."""
    m = v.shape[1] - 1
    grid = np.arange(m + 1) / m
    j = int(np.searchsorted(grid, x, side="right")) - 1  # grid[j] <= x < grid[j + 1]
    if grid[j] == x:
        return v[:, j]
    slope = (v[:, j + 1] - v[:, j]) / (grid[j + 1] - grid[j])
    return slope * (x - grid[j]) + v[:, j]


def _tdc_rows(v, scale, arg):
    return 2.0 * _interp_rows(v, 0.5)


def _l1_rows(v, scale, arg):
    return scale * ((v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1])) / (v.shape[1] - 1))


def _linf_rows(v, scale, arg):
    return scale * v.max(axis=1)


def _spearman_rows(v, scale, arg):
    # A cell from a to b adds h / ((2 - a)(2 - b)) >= h / 4, so the value is
    # >= 0; rounding can lift the comonotone value past 1 by a few ulps.
    t = 2.0 - v
    integral = (1.0 / (t[:, :-1] * t[:, 1:])).sum(axis=1) / (v.shape[1] - 1)
    return np.minimum(12.0 * integral - 3.0, 1.0)


def _extremal_rows(v, scale, arg):
    lam = _tdc_rows(v, scale, arg)
    return lam / (2.0 - lam)


def _lp_rows(v, scale, p):
    # M * (integral of (L / M)^p)^(1/p), M the row maximum: L^p itself
    # underflows to 0 at large p.  A zero row gives 0.
    top = v.max(axis=1)
    y = v / np.where(top > 0.0, top, 1.0)[:, None]
    lo, hi = np.minimum(y[:, :-1], y[:, 1:]), np.maximum(y[:, :-1], y[:, 1:])
    # A cell from lo to hi adds h hi^p (1 - r^(p+1)) / ((p+1)(1 - r)), r = lo / hi,
    # in expm1/log1p form (r = 0: log_r = -inf); lo == hi adds h hi^p, 0 if hi == 0.
    hi_p = hi ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log1p((lo - hi) / hi)
        cell = hi_p * np.expm1((p + 1.0) * log_r) / ((p + 1.0) * np.expm1(log_r))
    integral = np.where(lo == hi, hi_p, cell).sum(axis=1) / (v.shape[1] - 1)
    # Python's float power: numpy's array power may round differently.
    return scale * top * np.array([x ** (1.0 / p) for x in integral.tolist()])


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


class Measure(NamedTuple):
    rows: Callable  # (curves, scale, argument) -> one value per row
    check: Callable | None  # validates the number after "name:"; None: takes none
    name: str  # the MeasureValue name, which is also the envelope measure name


# Measure names of the report and the ``measures`` command.  ``lp:<p>`` and
# ``point:<s0>`` carry a number; the other names take none.
MEASURES = {
    "tdc": Measure(_tdc_rows, None, "tdc"),
    "l1": Measure(_l1_rows, None, "avg_td"),
    "linf": Measure(_linf_rows, None, "max_td"),
    "spearman_ev": Measure(_spearman_rows, None, "spearman_ev"),
    "extremal_dep": Measure(_extremal_rows, None, "extremal_dep"),
    "lp": Measure(_lp_rows, _check_p, "lp_norm"),
    "point": Measure(_point_rows, _check_s0, "point_eval"),
}


def parse_measure(name: str):
    """(``MEASURES`` key, argument) for a measure name; ConfigError if unknown
    or malformed."""
    key, sep, text = name.partition(":")
    try:
        check = MEASURES[key].check
    except KeyError:
        raise ConfigError(f"unknown measure {name!r}") from None
    if check is None:
        if sep:
            raise ConfigError(f"measure {key!r} takes no parameter; got {name!r}")
        return key, None
    try:
        arg = float(text)
    except ValueError:
        raise ConfigError(f"measure {name!r} needs a number after {key + ':'!r}") from None
    return key, check(arg)


def measure_rows(curves: np.ndarray, names, normalization: str = RAW) -> np.ndarray:
    """(rows, len(names)) values of the named measures of each curve (row)."""
    parsed = [parse_measure(name) for name in names]
    scale = scale_factor(normalization)
    curves = np.ascontiguousarray(curves, dtype=float)
    out = np.empty((curves.shape[0], len(parsed)))
    for lo in range(0, curves.shape[0], MEASURE_CHUNK_ROWS):
        chunk = curves[lo:lo + MEASURE_CHUNK_ROWS]
        for col, (key, arg) in enumerate(parsed):
            out[lo:lo + chunk.shape[0], col] = MEASURES[key].rows(chunk, scale, arg)
    return out
