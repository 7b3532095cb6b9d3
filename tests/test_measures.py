"""Scalar summaries of a tail dependence function.

Frozen oracle values come from closed-form integrals of the parametric
families, including the exact piecewise-linear discretization bias where
the grid makes it visible.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taildep.errors import DomainError, ParameterError
from taildep.measures import (
    DOUBLED,
    RAW,
    MeasureValue,
    average_tail_dependence,
    ev_copula,
    extremal_dependence,
    lp_norm,
    max_tail_dependence,
    point_eval,
    scale_factor,
    spearman_ev,
    tdc,
)
from taildep.tdf import clayton, comonotone, from_grid, independence, parabola, tent

from conftest import make_random_tdf, make_symmetric_tdf


@pytest.fixture(scope="module")
def top():
    return comonotone()


@pytest.fixture(scope="module")
def bottom():
    return independence()


# ---------------------------------------------------------------------------
# Point measures
# ---------------------------------------------------------------------------

def test_tdc_endpoints(top, bottom):
    assert float(tdc(top)) == pytest.approx(1.0, abs=1e-12)
    assert float(tdc(bottom)) == 0.0


def test_tdc_is_twice_midpoint(top):
    assert float(tdc(top)) == pytest.approx(2.0 * top.eval(0.5), abs=1e-15)


def test_point_eval_records_location(top):
    mv = point_eval(top, 0.25)
    assert mv.value == pytest.approx(0.25)
    assert mv.params["s0"] == 0.25


# ---------------------------------------------------------------------------
# Integral measures, exact values for piecewise-linear grids
# ---------------------------------------------------------------------------

def test_max_exact_on_grid():
    t = tent(0.5, 1.0, grid_size=300)
    # peak at s = 2/3 lies on the 300-point grid, so no interpolation loss
    assert float(max_tail_dependence(t)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_average_comonotone(top):
    assert float(average_tail_dependence(top)) == pytest.approx(0.25, abs=1e-15)


def test_average_parabola_exact_discretization():
    # Trapezoid rule on s(1-s) with spacing h underestimates 1/6 by h^2/6.
    f = parabola(grid_size=200)
    expected = 1.0 / 6.0 - (1.0 / 200.0) ** 2 / 6.0
    assert float(average_tail_dependence(f)) == pytest.approx(expected, abs=1e-15)


def test_lp_norm_limits(top):
    one = lp_norm(top, 1.0)
    assert float(one) == pytest.approx(0.25, abs=1e-9)
    big = lp_norm(top, 64.0)
    # high p approaches the sup norm from below
    assert 0.4 < float(big) < 0.5 + 1e-9


def test_l2_norm_parabola():
    # integral of (s - s^2)^2 is 1/30; refined grid keeps the bias tiny
    f = parabola(grid_size=1000)
    assert float(lp_norm(f, 2.0)) == pytest.approx((1.0 / 30.0) ** 0.5, abs=1e-6)


@pytest.mark.parametrize("f, floor", [(comonotone(200), 0.49), (clayton(1.0, 200), 0.24)])
def test_lp_norm_at_large_p_approaches_the_sup(f, floor):
    # max(L)^p underflows from p ~ 1000 on; the value must not fall to 0.
    values = [lp_norm(f, p).value for p in (500, 1000, 1100, 1e4, 1e6)]
    assert values == sorted(values)
    assert values[-1] <= max_tail_dependence(f).value
    assert values[0] > floor
    assert lp_norm(independence(200), 1e6).value == 0.0


def test_lp_norm_requires_p_at_least_one(top):
    with pytest.raises(ParameterError):
        lp_norm(top, 0.5)


@pytest.mark.parametrize("m", [100, 200, 400])
@pytest.mark.parametrize("p", [1.5, 10.0, 1000.0, 1e6])
def test_lp_norm_exact_on_comonotone(m, p):
    # integral of min(s, 1 - s)^p is 2^-p / (p + 1) on any even grid.
    expected = 0.5 * (p + 1.0) ** (-1.0 / p)
    assert abs(lp_norm(comonotone(m), p).value - expected) <= 2 * math.ulp(expected)


@pytest.mark.parametrize("m", [2, 3, 50, 201])
def test_lp_one_is_the_average(m):
    rng = np.random.default_rng(m)
    for _ in range(50):
        f = make_random_tdf(rng, grid_size=m)
        average = average_tail_dependence(f).value
        assert abs(lp_norm(f, 1.0).value - average) <= 4 * math.ulp(average)


# ---------------------------------------------------------------------------
# Spearman and extremal coefficients
# ---------------------------------------------------------------------------

def test_spearman_ev_range(top, bottom):
    assert float(spearman_ev(top)) == pytest.approx(1.0, abs=1e-6)
    assert float(spearman_ev(bottom)) == pytest.approx(0.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 400), symmetric=st.booleans(),
       scale=st.sampled_from([None, 1.0]))
@settings(max_examples=200, deadline=None)
def test_spearman_ev_stays_in_unit_interval(seed, m, symmetric, scale):
    rng = np.random.default_rng(seed)
    if symmetric:
        f = make_symmetric_tdf(rng, grid_size=m - m % 2)
    else:
        f = make_random_tdf(rng, grid_size=m, scale=scale)
    assert 0.0 <= spearman_ev(f).value <= 1.0


@pytest.mark.parametrize("m", [54, 108, 1076])
def test_spearman_ev_comonotone_rounds_to_at_most_one(m):
    # The exact cell sum rounds above 1 on these grids; the cap holds it.
    value = spearman_ev(comonotone(m)).value
    assert 1.0 - 1e-15 <= value <= 1.0
    assert spearman_ev(independence(m)).value == 0.0


def test_extremal_dependence_formula(top, bottom):
    assert float(extremal_dependence(top)) == pytest.approx(1.0, abs=1e-12)
    assert float(extremal_dependence(bottom)) == 0.0
    half = from_grid(0.5 * comonotone().values)
    # lambda = 1/2 maps to (1/2) / (2 - 1/2) = 1/3
    assert float(extremal_dependence(half)) == pytest.approx(1.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_scale_factor():
    assert scale_factor(RAW) == 1.0
    assert scale_factor(DOUBLED) == 2.0
    with pytest.raises(ParameterError):
        scale_factor("triple")


def test_doubled_is_exactly_twice_raw(top):
    for fn in (max_tail_dependence, average_tail_dependence):
        raw = fn(top, normalization=RAW)
        dbl = fn(top, normalization=DOUBLED)
        assert dbl.value == 2.0 * raw.value
        assert dbl.normalization == DOUBLED
    raw = lp_norm(top, 3.0, normalization=RAW)
    dbl = lp_norm(top, 3.0, normalization=DOUBLED)
    assert dbl.value == 2.0 * raw.value


def test_doubled_comonotone_hits_one(top):
    assert float(max_tail_dependence(top, normalization=DOUBLED)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Monotonicity in the pointwise order
# ---------------------------------------------------------------------------

def test_all_measures_monotone_under_scaling():
    rng = np.random.default_rng(12)
    fns = (
        tdc,
        lambda f: point_eval(f, 0.3),
        max_tail_dependence,
        average_tail_dependence,
        lambda f: lp_norm(f, 2.0),
        spearman_ev,
        extremal_dependence,
    )
    for _ in range(25):
        f = make_random_tdf(rng, grid_size=80)
        g = from_grid(f.values * rng.uniform(0.2, 0.95))
        for fn in fns:
            assert float(fn(g)) <= float(fn(f)) + 1e-10


# ---------------------------------------------------------------------------
# Extreme value copula
# ---------------------------------------------------------------------------

def test_ev_copula_independence_and_comonotone(top, bottom):
    u, v = 0.37, 0.81
    assert ev_copula(bottom, u, v) == pytest.approx(u * v, abs=1e-14)
    assert ev_copula(top, u, v) == pytest.approx(min(u, v), abs=1e-9)


def test_ev_copula_between_frechet_bounds():
    rng = np.random.default_rng(21)
    f = make_random_tdf(rng, grid_size=100)
    u = rng.uniform(0.01, 0.99, size=200)
    v = rng.uniform(0.01, 0.99, size=200)
    c = ev_copula(f, u, v)
    assert np.all(c >= u * v - 1e-12)
    assert np.all(c <= np.minimum(u, v) + 1e-12)


def test_ev_copula_boundary():
    f = comonotone()
    assert ev_copula(f, 0.0, 0.5) == 0.0
    assert ev_copula(f, 1.0, 0.5) == pytest.approx(0.5)


def test_ev_copula_rejects_nan():
    f = comonotone()
    with pytest.raises(DomainError):
        ev_copula(f, float("nan"), 0.5)
    with pytest.raises(DomainError):
        ev_copula(f, 0.5, np.array([0.2, np.nan]))


@given(u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99))
@settings(max_examples=100)
def test_ev_copula_symmetric_for_symmetric_tdf(u, v):
    f = comonotone()
    assert ev_copula(f, u, v) == pytest.approx(ev_copula(f, v, u), rel=1e-12)


# ---------------------------------------------------------------------------
# MeasureValue container
# ---------------------------------------------------------------------------

def test_measure_value_float_and_dict(top):
    mv = tdc(top)
    assert isinstance(mv, MeasureValue)
    assert float(mv) == mv.value
    d = mv.to_dict()
    assert d["name"] == "tdc"
    assert d["value"] == mv.value
