"""Deterministic generator and the inverse normal CDF."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from taildep.rng import SplitMix64, normal_cdf, normal_inverse_cdf


def test_stream_is_reproducible():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_seeds_decorrelate():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert a.next_u64() != b.next_u64()


def test_uniform_strictly_inside_unit_interval():
    g = SplitMix64(99)
    u = np.array([g.uniform() for _ in range(100000)])
    assert u.min() > 0.0
    assert u.max() < 1.0
    # crude uniformity screen, mean of U(0,1) has sd ~ 0.0009 here
    assert abs(u.mean() - 0.5) < 0.005


def test_known_float_mapping():
    # (bits >> 12) + 0.5 scaled by 2^-52 pins each draw to its integer
    g = SplitMix64(42)
    bits = SplitMix64(42).next_u64()
    assert g.uniform() == ((bits >> 12) + 0.5) * 2.0 ** -52


def test_inverse_cdf_matches_scipy_everywhere():
    g = SplitMix64(7)
    ps = np.array([g.uniform() for _ in range(20000)]
                  + [1e-12, 1e-9, 1e-5, 0.02425, 0.5, 0.97575, 1 - 1e-9]
                  + [1.0 - 2.0 ** -k for k in range(20, 54)])
    ours = np.array([normal_inverse_cdf(p) for p in ps])
    assert np.max(np.abs(ours - ndtri(ps))) < 1e-9


def test_inverse_cdf_round_trips_through_cdf():
    for p in (0.001, 0.2, 0.5, 0.77, 0.999):
        assert normal_cdf(normal_inverse_cdf(p)) == pytest.approx(p, abs=1e-12)


def test_inverse_cdf_symmetry_and_center():
    assert normal_inverse_cdf(0.5) == 0.0
    assert normal_inverse_cdf(0.25) == pytest.approx(-normal_inverse_cdf(0.75))


def test_inverse_cdf_rejects_boundary():
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            normal_inverse_cdf(bad)


def test_normal_and_exponential_moments():
    g = SplitMix64(5)
    z = np.array([g.normal() for _ in range(50000)])
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    e = np.array([g.exponential() for _ in range(50000)])
    assert e.min() > 0.0
    assert abs(e.mean() - 1.0) < 0.03
