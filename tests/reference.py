"""Independent one-curve loops: the oracle of the batch kernels.

Each function computes one window, one curve or one series as the formulas
state it, with a plain loop or one numpy call per quantity, on a 1-D array.
The integral measures (``spearman_ev``, ``lp:<p>``) sum one closed-form term
per grid cell, exact for a piecewise-linear curve; the ``lp`` terms take
numpy's ``log1p``, ``expm1`` and ``**`` on 1-D arrays of cells, since the
``math`` module's functions may round them differently.
The package's one-curve functions are one-row calls of its batch kernels, so
the tests check every kernel row against these functions instead, by ``==``.
This file imports no kernel of the package; ``test_reference.py`` checks that.
"""

import numpy as np

LOWER, UPPER = "lower", "upper"


def _grid(m):
    return np.arange(m + 1) / m


def _bound(m):
    s = _grid(m)
    return np.minimum(s, 1.0 - s)


def _stable_ranks(values):
    order = np.argsort(values, kind="stable")
    out = np.empty(values.size, dtype=np.int64)
    out[order] = np.arange(1, values.size + 1)
    return out


def window_tdf(x, y, k, m, tail=LOWER):
    """Grid values of the empirical estimate of one window.

    Node i counts the points whose stable ranks (reflected for the upper tail)
    are at most floor(k*i/m) in x and floor(k*(m-i)/m) in y, over k; the
    endpoints are zero and the values are clipped at min(s, 1 - s).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = x.size
    rx, ry = _stable_ranks(x), _stable_ranks(y)
    if tail == UPPER:
        rx, ry = n + 1 - rx, n + 1 - ry
    in_corner = (rx <= k) & (ry <= k)  # only these can ever be counted
    cx, cy = rx[in_corner], ry[in_corner]
    counts = np.zeros(m + 1)
    for i in range(1, m):
        counts[i] = np.sum((cx <= (k * i) // m) & (cy <= (k * (m - i)) // m))
    return np.clip(counts / k, 0.0, _bound(m))


def projection(values):
    """Least concave majorant of one grid: the upper hull of its points by a
    monotone chain, interpolated, clipped at min(s, 1 - s), zero endpoints."""
    v = np.asarray(values, dtype=float)
    m = v.size - 1
    s = _grid(m)
    hull = []
    for i in range(m + 1):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # Drop i1 when it lies on or below the chord i0 -> i.
            if (v[i1] - v[i0]) * (s[i] - s[i0]) <= (v[i] - v[i0]) * (s[i1] - s[i0]):
                hull.pop()
            else:
                break
        hull.append(i)
    out = np.clip(np.interp(s, s[hull], v[hull]), 0.0, _bound(m))
    out[0] = out[m] = 0.0
    return out


def spearman(values):
    """12 * integral of (2 - L)^-2 - 3, capped at 1: one exact term per grid
    cell, 1 / ((2 - a)(2 - b)) for a cell from a to b, in Python floats."""
    v = [float(x) for x in values]
    m = len(v) - 1
    terms = [1.0 / ((2.0 - v[i]) * (2.0 - v[i + 1])) for i in range(m)]
    return min(12.0 * (float(np.sum(terms)) / m) - 3.0, 1.0)


def power_integral(values, p):
    """Integral of y^p over [0, 1] for grid values y in [0, 1]: per cell from
    lo to hi, h hi^p expm1((p+1)x) / ((p+1) expm1(x)) with x = log(lo / hi);
    hi^p when lo == hi."""
    y = np.asarray(values, dtype=float)
    m = y.size - 1
    lo = np.array([min(y[i], y[i + 1]) for i in range(m)])
    hi = np.array([max(y[i], y[i + 1]) for i in range(m)])
    hi_p = hi ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log1p((lo - hi) / hi)
        closed = hi_p * np.expm1((p + 1.0) * x) / ((p + 1.0) * np.expm1(x))
    cells = [hi_p[i] if lo[i] == hi[i] else closed[i] for i in range(m)]
    return float(np.sum(cells)) / m


def measure(values, name, normalization="raw"):
    """The value of one report measure name (``tdc``, ``l1``, ``lp:2.5``,
    ``point:0.3``, ...) of one grid."""
    v = np.asarray(values, dtype=float)
    m = v.size - 1
    scale = {"raw": 1.0, "doubled": 2.0}[normalization]
    key, _, arg = name.partition(":")
    if key == "tdc":
        return 2.0 * float(np.interp(0.5, _grid(m), v))
    if key == "point":
        return float(np.interp(float(arg), _grid(m), v))
    if key == "linf":
        return scale * float(np.max(v))
    if key == "l1":
        return scale * float((v.sum() - 0.5 * (v[0] + v[-1])) / m)
    if key == "spearman_ev":
        return spearman(v)
    if key == "extremal_dep":
        lam = measure(v, "tdc")
        return lam / (2.0 - lam)
    assert key == "lp", name
    p, top = float(arg), float(np.max(v))
    if top == 0.0:
        return 0.0
    return scale * top * power_integral(v / top, p) ** (1.0 / p)


def band(lam, normalization="raw"):
    """Closed-form range of the sup measure given the coefficient lam."""
    scale = {"raw": 1.0, "doubled": 2.0}[normalization]
    return scale * lam / 2.0, scale * lam / (1.0 + lam)


def series_stats(values):
    """Mean, median, sample st. dev., extremes and 5%/95% quantiles of the
    finite values of one series."""
    clean = values[np.isfinite(values)]
    return {
        "mean": float(np.mean(clean)),
        "median": float(np.median(clean)),
        "st_dev": float(np.std(clean, ddof=1)) if clean.size > 1 else 0.0,
        "minimum": float(np.min(clean)),
        "maximum": float(np.max(clean)),
        "q05": float(np.quantile(clean, 0.05, method="linear")),
        "q95": float(np.quantile(clean, 0.95, method="linear")),
    }


def aggregate(values):
    """5%/10%/90%/95% quantiles, mean and median of one statistic across
    series, one numpy call per quantity."""
    q = {level: float(np.quantile(values, level, method="linear")) for level in (0.05, 0.10, 0.90, 0.95)}
    return {"q05": q[0.05], "q10": q[0.10], "mean": float(np.mean(values)),
            "median": float(np.median(values)), "q90": q[0.90], "q95": q[0.95]}
