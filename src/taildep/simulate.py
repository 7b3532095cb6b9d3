"""Copula samplers with known tail dependence, for testing the estimator.

Each family comes with its analytic tail dependence function so estimates can
be checked against ground truth.  Sampling is fully deterministic given the
seed: the same spec yields the same pairs on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import SplitMix64, normal_cdf
from .tdf import (
    DEFAULT_GRID_SIZE,
    TailDependenceFunction,
    clayton as clayton_tdf,
    comonotone as comonotone_tdf,
    from_grid,
    independence as independence_tdf,
    upper_bound,
)

CLAYTON = "clayton"
GUMBEL_SURVIVAL = "gumbel_survival"
GAUSSIAN = "gaussian"
COMONOTONE = "comonotone"
INDEPENDENCE = "independence"


@dataclass(frozen=True)
class CopulaSpec:
    """A sampling request: family, parameter, sample size, seed."""

    family: str
    n: int
    seed: int
    theta: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if self.family in (CLAYTON, GUMBEL_SURVIVAL):
            if self.theta is None:
                raise ParameterError(f"{self.family} requires theta")
            if not math.isfinite(self.theta):
                raise ParameterError(f"{self.family} requires a finite theta")
            if self.family == CLAYTON and not self.theta > 0.0:
                raise ParameterError("clayton requires theta > 0")
            if self.family == GUMBEL_SURVIVAL and not self.theta >= 1.0:
                raise ParameterError("gumbel_survival requires theta >= 1")
        elif self.family == GAUSSIAN:
            if self.rho is None or not -1.0 <= self.rho <= 1.0:
                raise ParameterError("gaussian requires rho in [-1, 1]")
        elif self.family in (COMONOTONE, INDEPENDENCE):
            pass
        else:
            raise ParameterError(f"unknown family {self.family!r}")


def sample(spec: CopulaSpec) -> np.ndarray:
    """Draw n pseudo-uniform pairs from the copula; shape (n, 2).

    A theta so large that a draw leaves the float range raises ParameterError.
    """
    try:
        return _sample(spec)
    except (OverflowError, ZeroDivisionError):  # or a division by a power underflowed to 0.0
        raise ParameterError(f"{spec.family} with theta={spec.theta} leaves the float range; "
                             "use a smaller theta") from None


def _sample(spec: CopulaSpec) -> np.ndarray:
    rng = SplitMix64(spec.seed)
    out = np.empty((spec.n, 2))
    if spec.family == INDEPENDENCE:
        for i in range(spec.n):
            out[i, 0] = rng.uniform()
            out[i, 1] = rng.uniform()
    elif spec.family == COMONOTONE:
        for i in range(spec.n):
            out[i, 0] = out[i, 1] = rng.uniform()
    elif spec.family == CLAYTON:
        theta = spec.theta
        for i in range(spec.n):
            u = rng.uniform()
            t = rng.uniform()
            # v = ((t^(-theta/(1+theta)) - 1) * u^-theta + 1)^(-1/theta), with
            # expm1 and log1p so that a tiny theta keeps its digits.
            excess = math.expm1(-theta / (1.0 + theta) * math.log(t)) * u ** -theta
            if excess == math.inf:  # a product that overflowed without raising
                raise OverflowError
            v = math.exp(-math.log1p(excess) / theta)
            out[i, 0] = u
            out[i, 1] = v
    elif spec.family == GUMBEL_SURVIVAL:
        _sample_gumbel_survival(rng, spec.theta, out)
    else:
        _sample_gaussian(rng, spec.rho, out)
    return out


def _sample_gumbel_survival(rng: SplitMix64, theta: float, out: np.ndarray):
    """Gumbel pairs by the positive-stable frailty construction, then reflected.

    With S positive stable of index 1/theta (Chambers-Mallows-Stuck) and E1, E2
    unit exponentials, exp(-(E_i/S)^(1/theta)) are Gumbel-coupled uniforms;
    reflection moves the dependence to the lower-left corner.  theta = 1 is
    exactly independence.
    """
    if theta == 1.0:
        for i in range(out.shape[0]):
            out[i, 0] = 1.0 - rng.uniform()
            out[i, 1] = 1.0 - rng.uniform()
        return
    alpha = 1.0 / theta
    for i in range(out.shape[0]):
        angle = math.pi * rng.uniform()
        w = rng.exponential()
        s = (math.sin(alpha * angle) / math.sin(angle) ** theta) * (
            math.sin((1.0 - alpha) * angle) / w
        ) ** ((1.0 - alpha) / alpha)
        if not s < math.inf:  # a quotient that overflowed without raising, or NaN
            raise OverflowError
        u = math.exp(-((rng.exponential() / s) ** alpha))
        v = math.exp(-((rng.exponential() / s) ** alpha))
        out[i, 0] = 1.0 - u
        out[i, 1] = 1.0 - v


def _sample_gaussian(rng: SplitMix64, rho: float, out: np.ndarray):
    if rho == 1.0:
        for i in range(out.shape[0]):
            out[i, 0] = out[i, 1] = rng.uniform()
        return
    if rho == -1.0:
        for i in range(out.shape[0]):
            u = rng.uniform()
            out[i, 0] = u
            out[i, 1] = 1.0 - u
        return
    spread = math.sqrt(1.0 - rho * rho)
    for i in range(out.shape[0]):
        z1 = rng.normal()
        z2 = rng.normal()
        out[i, 0] = normal_cdf(z1)
        out[i, 1] = normal_cdf(rho * z1 + spread * z2)


def analytic_tdf(spec: CopulaSpec, grid_size: int = DEFAULT_GRID_SIZE) -> TailDependenceFunction:
    """Ground-truth lower tail dependence function of the family."""
    if spec.family == CLAYTON:
        return clayton_tdf(spec.theta, grid_size)
    if spec.family == COMONOTONE:
        return comonotone_tdf(grid_size)
    if spec.family == INDEPENDENCE:
        return independence_tdf(grid_size)
    if spec.family == GAUSSIAN:
        # Tail independent for rho < 1 (including rho = -1); comonotone at rho = 1.
        if spec.rho == 1.0:
            return comonotone_tdf(grid_size)
        return independence_tdf(grid_size)
    # Gumbel survival: L(s) = s + (1-s) - (s^theta + (1-s)^theta)^(1/theta),
    # as lo - hi * expm1(log1p(r^theta) / theta) with lo = min(s, 1 - s),
    # hi = 1 - lo and r = lo / hi <= 1, so no power underflows at a large theta.
    lo = upper_bound(grid_size)
    hi = 1.0 - lo
    return from_grid(lo - hi * np.expm1(np.log1p((lo / hi) ** spec.theta) / spec.theta))
