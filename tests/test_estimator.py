"""Rank-based empirical tail dependence estimation."""

import math

import numpy as np
import pytest

from taildep.errors import ConfigError, DataError, ParameterError
from taildep.estimator import (
    EstimatorConfig,
    RankedSample,
    empirical_tdf,
    ranks,
    rolling_estimate,
)
from taildep.measures import tdc
from taildep.tdf import TDFKind, least_concave_majorant


def test_ranks_small_example():
    r = ranks([0.1, 0.9, 2.0, 0.4], [5.0, 1.0, 3.0, 2.0])
    assert r.n == 4
    assert list(r.rank_x) == [1, 3, 4, 2]
    assert list(r.rank_y) == [4, 1, 3, 2]


def test_ranks_ties_are_stable():
    # Equal values keep input order: first occurrence gets the lower rank.
    r = ranks([1.0, 1.0, 1.0], [3.0, 2.0, 2.0])
    assert list(r.rank_x) == [1, 2, 3]
    assert list(r.rank_y) == [3, 1, 2]


def test_ranks_rejects_mismatch_and_nan():
    with pytest.raises(DataError):
        ranks([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        ranks([1.0, np.nan], [1.0, 2.0])


def test_empirical_tdf_hand_count():
    # 4 points, k = 4, m = 4: node i counts x-ranks <= i and y-ranks <= 4 - i.
    r = ranks([0.1, 0.9, 2.0, 0.4], [5.0, 1.0, 3.0, 2.0])  # (1,4) (3,1) (4,3) (2,2)
    est = empirical_tdf(r, EstimatorConfig(k=4, grid_size=4))
    assert est.values.tolist() == [0.0, 0.0, 0.25, 0.25, 0.0]  # (2,2), then (3,1)
    # Upper tail: reflected ranks 5 - r, (4,1) (2,4) (1,2) (3,3).
    upper = empirical_tdf(r, EstimatorConfig(k=4, grid_size=4, tail="upper"))
    assert upper.values.tolist() == [0.0, 0.25, 0.25, 0.0, 0.0]  # (1,2) at nodes 1 and 2


def test_empirical_tdf_endpoints_and_kind():
    rng = np.random.default_rng(0)
    r = ranks(rng.random(500), rng.random(500))
    est = empirical_tdf(r, EstimatorConfig(k=22))
    assert est.kind is TDFKind.EMPIRICAL
    assert est.values[0] == 0.0 and est.values[-1] == 0.0


def test_empirical_tdf_within_bounds():
    rng = np.random.default_rng(1)
    x = rng.random(2000)
    r = ranks(x, x * 0.5 + rng.random(2000))
    est = empirical_tdf(r, EstimatorConfig(k=44))
    s = est.grid
    assert np.all(est.values >= 0.0)
    assert np.all(est.values <= np.minimum(s, 1.0 - s) + 1e-12)


def test_perfectly_dependent_sample_recovers_comonotone():
    x = np.arange(1.0, 1001.0)
    est = empirical_tdf(ranks(x, x), EstimatorConfig(k=100))
    # on the diagonal the count at the midpoint is floor(k/2)
    assert est.eval(0.5) == pytest.approx(math.floor(100 / 2) / 100)
    assert float(tdc(least_concave_majorant(est))) == pytest.approx(1.0)


def test_independent_sample_stays_low():
    rng = np.random.default_rng(7)
    est = empirical_tdf(ranks(rng.random(20000), rng.random(20000)),
                        EstimatorConfig(k=141))
    assert float(tdc(least_concave_majorant(est))) < 0.15


def test_antithetic_sample_has_no_lower_tail_dependence():
    u = np.linspace(0.001, 0.999, 5000)
    est = empirical_tdf(ranks(u, 1.0 - u), EstimatorConfig(k=70))
    assert est.values.max() == 0.0


def test_upper_tail_mirrors_reflected_sample():
    rng = np.random.default_rng(3)
    x, y = rng.random(4000), rng.random(4000)
    up = empirical_tdf(ranks(-x, -y), EstimatorConfig(k=63, tail="lower"))
    lo = empirical_tdf(ranks(x, y), EstimatorConfig(k=63, tail="upper"))
    assert np.array_equal(up.values, lo.values)


def test_default_k_is_sqrt_of_sample():
    rng = np.random.default_rng(5)
    r = ranks(rng.random(500), rng.random(500))
    cfg = EstimatorConfig()
    assert cfg.resolve_k(r.n) == math.isqrt(500)
    est_default = empirical_tdf(r, cfg)
    est_explicit = empirical_tdf(r, EstimatorConfig(k=22))
    assert np.array_equal(est_default.values, est_explicit.values)


def test_config_validation():
    with pytest.raises(ConfigError):
        EstimatorConfig(k=0)
    with pytest.raises(ConfigError):
        EstimatorConfig(grid_size=3)  # odd grids cannot hit s = 1/2
    with pytest.raises(ConfigError):
        EstimatorConfig(tail="sideways")
    with pytest.raises(ConfigError):
        EstimatorConfig(k=50).resolve_k(20)  # k beyond the sample


# ---------------------------------------------------------------------------
# Rolling windows
# ---------------------------------------------------------------------------

def test_rolling_window_count_and_starts():
    rng = np.random.default_rng(11)
    x, y = rng.random(120), rng.random(120)
    roll = rolling_estimate(x, y, window=100, step=5)
    assert len(roll) == 5  # starts 0, 5, 10, 15, 20
    assert roll.starts.tolist() == [0, 5, 10, 15, 20]


def test_rolling_skips_windows_with_missing_data():
    rng = np.random.default_rng(13)
    x, y = rng.random(60), rng.random(60)
    x[25] = np.nan
    roll = rolling_estimate(x, y, window=20, step=10,
                            config=EstimatorConfig(grid_size=10))
    assert roll.skipped == (10, 20)
    assert roll.starts.tolist() == [0, 30, 40]


def test_rolling_estimates_match_direct_calls():
    rng = np.random.default_rng(17)
    x, y = rng.random(300), rng.random(300)
    cfg = EstimatorConfig(k=12, grid_size=40)
    roll = rolling_estimate(x, y, window=150, step=75, config=cfg)
    for start, row in zip(roll.starts.tolist(), roll.rows[roll.index], strict=True):
        direct = empirical_tdf(ranks(x[start:start + 150], y[start:start + 150]), cfg)
        assert np.array_equal(row, direct.values)


def test_rolling_validates_window():
    # window is checked against the data, step on its own
    with pytest.raises(DataError):
        rolling_estimate([1.0] * 10, [1.0] * 10, window=20)
    with pytest.raises(ParameterError):
        rolling_estimate([1.0] * 10, [1.0] * 10, window=5, step=0)
