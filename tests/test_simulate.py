"""Copula sampling and the analytic functions each family should recover.

Recovery tests run the full chain: sample, rank, estimate, project.  The
tolerances budget roughly three standard errors of the k = 141 estimator,
so failures point at the sampler, not at noise.
"""

import math
import warnings

import numpy as np
import pytest

from taildep import simulate
from taildep.errors import ParameterError
from taildep.estimator import EstimatorConfig, empirical_tdf, ranks
from taildep.measures import tdc
from taildep.simulate import CopulaSpec, analytic_tdf, sample
from taildep.tdf import least_concave_majorant


def fitted_tdc(spec: CopulaSpec, k: int = 141) -> float:
    u = sample(spec)
    est = empirical_tdf(ranks(u[:, 0], u[:, 1]), EstimatorConfig(k=k))
    return float(tdc(least_concave_majorant(est)))


def test_sample_shape_and_range():
    u = sample(CopulaSpec("clayton", n=500, seed=1, theta=1.0))
    assert u.shape == (500, 2)
    assert u.min() > 0.0 and u.max() < 1.0


def test_sampling_is_deterministic():
    a = sample(CopulaSpec("gumbel_survival", n=200, seed=8, theta=2.0))
    b = sample(CopulaSpec("gumbel_survival", n=200, seed=8, theta=2.0))
    c = sample(CopulaSpec("gumbel_survival", n=200, seed=9, theta=2.0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_margins_are_uniform():
    u = sample(CopulaSpec("clayton", n=40000, seed=2, theta=2.0))
    for col in (u[:, 0], u[:, 1]):
        assert abs(col.mean() - 0.5) < 0.01
        assert abs(np.quantile(col, 0.25) - 0.25) < 0.01


def test_spec_validation():
    with pytest.raises(ParameterError):
        CopulaSpec("clayton", n=10, seed=0)  # theta required
    with pytest.raises(ParameterError):
        CopulaSpec("clayton", n=10, seed=0, theta=-1.0)
    with pytest.raises(ParameterError):
        CopulaSpec("gumbel_survival", n=10, seed=0, theta=0.5)
    with pytest.raises(ParameterError):
        CopulaSpec("gaussian", n=10, seed=0, rho=1.5)
    with pytest.raises(ParameterError):
        CopulaSpec("gaussian", n=0, seed=0, rho=0.5)
    with pytest.raises(ParameterError):
        CopulaSpec("levy", n=10, seed=0)


@pytest.mark.parametrize("family", ["clayton", "gumbel_survival"])
@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_theta(family, theta):
    with pytest.raises(ParameterError, match=f"{family} requires a finite theta"):
        CopulaSpec(family, n=10, seed=0, theta=theta)


@pytest.mark.parametrize("family, theta", [("clayton", 200.0), ("gumbel_survival", 500.0),
                                           ("gumbel_survival", 150.0)])
def test_draws_beyond_the_float_range_raise_parameter_error(family, theta):
    # Python's float power raises OverflowError, and a power that underflows
    # to 0.0 can be divided by; both end in ParameterError.
    with pytest.raises(ParameterError) as exc:
        sample(CopulaSpec(family, n=1000, seed=1, theta=theta))
    assert str(exc.value).startswith(f"{family} with theta={theta} leaves the float range")


class _Draws:
    """Stands in for SplitMix64: returns the given draws in order."""

    def __init__(self, uniforms, exponentials):
        self._uniforms, self._exponentials = iter(uniforms), iter(exponentials)

    def uniform(self):
        return next(self._uniforms)

    def exponential(self):
        return next(self._exponentials)


@pytest.mark.parametrize("family, uniforms, exponentials", [
    # (t^(-theta/(1+theta)) - 1) * u^-theta is about 99.5 * 1e307: a product,
    # which overflows to inf without raising, and v would read 0.0.
    ("clayton", [10 ** -3.07, 0.0095], []),
    # sin(angle)^theta is the subnormal 1e-320, so the stable variable is
    # inf without raising, and the pair would read (0.0, 0.0).
    ("gumbel_survival", [10 ** -3.2 / math.pi], [1.0, 1.0, 1.0]),
])
def test_silent_float_overflow_raises_parameter_error(monkeypatch, family, uniforms, exponentials):
    monkeypatch.setattr(simulate, "SplitMix64", lambda seed: _Draws(uniforms, exponentials))
    with pytest.raises(ParameterError, match="leaves the float range"):
        sample(CopulaSpec(family, n=1, seed=0, theta=100.0))


def test_clayton_keeps_the_family_at_a_tiny_theta():
    # t^(-theta/(1+theta)) - 1 rounds to 0 here, which must not make v = 1.0;
    # near theta = 0 the copula is independence, v = t.
    u = sample(CopulaSpec("clayton", n=2000, seed=1, theta=1e-20))
    assert np.unique(u[:, 1]).size >= 1990
    assert 0.0 < u[:, 1].min() and u[:, 1].max() < 1.0
    rng = simulate.SplitMix64(1)
    t = [(rng.uniform(), rng.uniform())[1] for _ in range(2000)]
    np.testing.assert_allclose(u[:, 1], t, rtol=1e-12)


def test_clayton_recovers_tdc():
    for theta in (1.0, 2.0):
        err = fitted_tdc(CopulaSpec("clayton", n=20000, seed=2, theta=theta)) \
            - 2.0 ** (-1.0 / theta)
        assert abs(err) < 0.1


def test_gumbel_survival_recovers_tdc():
    # lower tail of the survival copula carries 2 - 2^(1/theta)
    for theta, seed in ((1.5, 2), (2.0, 2)):
        err = fitted_tdc(CopulaSpec("gumbel_survival", n=20000, seed=seed,
                                    theta=theta)) - (2.0 - 2.0 ** (1.0 / theta))
        assert abs(err) < 0.12


def test_gumbel_theta_one_is_independence():
    u = sample(CopulaSpec("gumbel_survival", n=20000, seed=3, theta=1.0))
    assert fitted_tdc(CopulaSpec("gumbel_survival", n=20000, seed=3, theta=1.0)) < 0.15
    # empirical correlation of normal scores should be near zero
    assert abs(np.corrcoef(u[:, 0], u[:, 1])[0, 1]) < 0.02


def test_gaussian_between_the_extremes():
    assert fitted_tdc(CopulaSpec("gaussian", n=20000, seed=2, rho=0.5)) < 0.15
    u = sample(CopulaSpec("gaussian", n=5000, seed=4, rho=0.8))
    assert np.corrcoef(u[:, 0], u[:, 1])[0, 1] > 0.7


def test_gaussian_degenerate_rho():
    u = sample(CopulaSpec("gaussian", n=100, seed=5, rho=1.0))
    assert np.allclose(u[:, 0], u[:, 1])
    v = sample(CopulaSpec("gaussian", n=100, seed=5, rho=-1.0))
    assert np.allclose(v[:, 0], 1.0 - v[:, 1])


def test_comonotone_and_independence_families():
    u = sample(CopulaSpec("comonotone", n=50, seed=6))
    assert np.allclose(u[:, 0], u[:, 1])
    v = sample(CopulaSpec("independence", n=20000, seed=7))
    assert abs(np.corrcoef(v[:, 0], v[:, 1])[0, 1]) < 0.02


# ---------------------------------------------------------------------------
# Analytic curves
# ---------------------------------------------------------------------------

def test_analytic_tdf_clayton_midpoint():
    f = analytic_tdf(CopulaSpec("clayton", n=1, seed=0, theta=2.0))
    assert 2.0 * f.eval(0.5) == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_analytic_tdf_gumbel_survival():
    theta = 2.0
    f = analytic_tdf(CopulaSpec("gumbel_survival", n=1, seed=0, theta=theta))
    s = 0.3
    expected = 1.0 - (s ** theta + (1.0 - s) ** theta) ** (1.0 / theta)
    assert f.eval(s) == pytest.approx(expected, abs=1e-9)
    assert 2.0 * f.eval(0.5) == pytest.approx(2.0 - 2.0 ** 0.5, abs=1e-12)


def test_analytic_tdf_gumbel_survival_at_a_large_theta():
    # 0.5^theta underflows to 0 here, which must not lift the midpoint to 1;
    # the limit is the comonotone curve.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = analytic_tdf(CopulaSpec("gumbel_survival", n=1, seed=0, theta=2000.0))
    s = f.grid
    assert np.max(np.abs(f.values - np.minimum(s, 1.0 - s))) <= 1e-3
    assert 2.0 * f.eval(0.5) == pytest.approx(2.0 - 2.0 ** (1.0 / 2000.0), abs=1e-12)


def test_analytic_tdf_gaussian_cases():
    tail_free = analytic_tdf(CopulaSpec("gaussian", n=1, seed=0, rho=0.9))
    assert not tail_free.values.any()
    full = analytic_tdf(CopulaSpec("gaussian", n=1, seed=0, rho=1.0))
    assert full.eval(0.5) == pytest.approx(0.5)


def test_estimated_curve_tracks_analytic_curve():
    spec = CopulaSpec("clayton", n=20000, seed=2, theta=2.0)
    u = sample(spec)
    proj = least_concave_majorant(
        empirical_tdf(ranks(u[:, 0], u[:, 1]), EstimatorConfig(k=141)))
    assert np.max(np.abs(proj.values - analytic_tdf(spec).values)) < 0.05
