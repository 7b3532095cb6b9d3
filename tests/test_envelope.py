"""Feasible sets under pin constraints and measure ranges over them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import taildep.envelope
from taildep.envelope import (
    EnvelopeResult,
    linf_range_given_tdc,
    measure_range,
    random_feasible,
)
from taildep.errors import InfeasibleError, ParameterError, SolverError
from taildep.measures import average_tail_dependence, max_tail_dependence, tdc
from taildep.tdf import TailDependenceFunction


def test_pin_must_sit_inside_bound():
    for build in (lambda pins: measure_range(pins, "max_td", grid_size=10),
                  lambda pins: random_feasible(pins, grid_size=10)):
        with pytest.raises(InfeasibleError):
            build([(0.5, 0.7)])
        with pytest.raises(ParameterError):
            build([(0.5, 0.1), (0.5, 0.2)])
        with pytest.raises(ParameterError):
            build([(0.503, 0.1)])  # off the grid


def test_max_range_under_midpoint_pin():
    res = measure_range([(0.5, 0.25)], "max_td", grid_size=100)
    assert isinstance(res, EnvelopeResult)
    # chord through the pin floors the peak; ceiling follows the closed form
    assert res.min_value == pytest.approx(0.25, abs=1e-9)
    assert res.max_value == pytest.approx(1.0 / 3.0, abs=res.resolution)
    assert res.resolution == pytest.approx(0.02)


def test_argmin_argmax_are_feasible_and_attain():
    res = measure_range([(0.5, 0.25)], "max_td", grid_size=100)
    for f, target in ((res.argmin, res.min_value), (res.argmax, res.max_value)):
        assert isinstance(f, TailDependenceFunction)
        assert f.eval(0.5) == pytest.approx(0.25, abs=1e-9)
        assert float(max_tail_dependence(f)) == pytest.approx(target, abs=1e-8)


def test_avg_range_under_midpoint_pin():
    # ceiling: symmetric concave through the pin caps at min(s, 1/4),
    # area 3/16; floor is the chord with area 1/8
    res = measure_range([(0.5, 0.25)], "avg_td", grid_size=100)
    assert res.min_value == pytest.approx(0.125, abs=1e-9)
    assert res.max_value == pytest.approx(0.1875, abs=1e-9)
    assert float(average_tail_dependence(res.argmax)) == pytest.approx(0.1875, abs=1e-9)


def test_avg_td_gap_above_tolerance_raises_solver_error(monkeypatch):
    # A certificate no curve can meet: the dual bound never undercuts the best
    # curve by more than rounding.
    monkeypatch.setattr(taildep.envelope, "GAP_TOL", -1e-9)
    pins = [(s, (s ** -2.0 + (1.0 - s) ** -2.0) ** -0.5) for s in (0.25, 0.5, 0.75)]
    with pytest.raises(SolverError, match=r"^avg_td maximum: the dual bound exceeds the best curve by "):
        measure_range(pins, "avg_td", grid_size=100)


def test_curve_failing_validation_raises_solver_error():
    # A vertex that is not concave is a solver fault, not a user parameter.
    with pytest.raises(SolverError, match=r"^curve failed validation: grid violates "
                                          r"concavity at index 2 by 3\.000e-01$"):
        taildep.envelope._as_tdf(np.array([0.0, 0.2, 0.05, 0.2, 0.0]), 4)


def test_point_eval_range():
    res = measure_range([(0.5, 0.2)], "point_eval", grid_size=100, s0=0.25)
    # floor is the chord through the pin, ceiling hits the Frechet bound
    assert res.min_value == pytest.approx(0.1, abs=1e-9)
    assert res.max_value == pytest.approx(0.25, abs=1e-9)
    # a higher pin lifts the floor: slopes must keep decreasing into it
    res = measure_range([(0.5, 0.45)], "point_eval", grid_size=100, s0=0.25)
    assert res.min_value == pytest.approx(0.225, abs=1e-9)
    assert res.max_value == pytest.approx(0.25, abs=1e-9)


def test_degenerate_pins_collapse_range():
    zero = measure_range([(0.5, 0.0)], "max_td", grid_size=50)
    assert zero.min_value == pytest.approx(0.0, abs=1e-12)
    assert zero.max_value == pytest.approx(0.0, abs=1e-12)
    full = measure_range([(0.5, 0.5)], "max_td", grid_size=50)
    assert full.min_value == pytest.approx(0.5, abs=1e-9)
    assert full.max_value == pytest.approx(0.5, abs=1e-9)


def test_negative_zero_pin_is_held_as_zero():
    (pin,) = measure_range(((0.5, -0.0),), "max_td", grid_size=4).pins
    assert pin == (0.5, 0.0) and np.copysign(1.0, pin[1]) == 1.0


def test_no_pins_recovers_frechet_extremes():
    res = measure_range([], "max_td", grid_size=60)
    assert res.min_value == pytest.approx(0.0, abs=1e-12)
    assert res.max_value == pytest.approx(0.5, abs=1e-9)


def test_doubled_normalization_scales_range():
    raw = measure_range([(0.5, 0.25)], "max_td", grid_size=50)
    dbl = measure_range([(0.5, 0.25)], "max_td", grid_size=50,
                        normalization="doubled")
    assert dbl.min_value == pytest.approx(2.0 * raw.min_value)
    assert dbl.max_value == pytest.approx(2.0 * raw.max_value)


def test_multiple_pins_narrow_the_band():
    wide = measure_range([(0.5, 0.2)], "avg_td", grid_size=60)
    narrow = measure_range([(0.5, 0.2), (0.25, 0.15)], "avg_td", grid_size=60)
    assert narrow.min_value >= wide.min_value - 1e-9
    assert narrow.max_value <= wide.max_value + 1e-9


def test_unknown_measure_rejected():
    with pytest.raises(ParameterError):
        measure_range([(0.5, 0.1)], "volume", grid_size=20)
    with pytest.raises(ParameterError):
        measure_range([(0.5, 0.1)], "point_eval", grid_size=20)  # s0 missing


# ---------------------------------------------------------------------------
# Closed-form band for the sup norm given the midpoint value
# ---------------------------------------------------------------------------

def test_linf_range_closed_form_raw():
    lo, hi = linf_range_given_tdc(0.5)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(1.0 / 3.0)


def test_linf_range_closed_form_doubled():
    lo, hi = linf_range_given_tdc(0.5, normalization="doubled")
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(2.0 / 3.0)


def test_linf_range_degenerate_ends():
    assert linf_range_given_tdc(0.0) == (0.0, 0.0)
    lo, hi = linf_range_given_tdc(1.0)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


def test_negative_zero_pin_or_coefficient_reads_as_zero():
    for measure in ("max_td", "avg_td", "point_eval"):
        res = measure_range(((0.5, -0.0),), measure, grid_size=10, s0=0.5)
        assert not np.signbit([res.min_value, res.max_value]).any(), measure
    assert not np.signbit(linf_range_given_tdc(-0.0)).any()
    assert not np.signbit(linf_range_given_tdc(np.array([-0.0, 0.5]))).any()


def test_linf_band_width_peaks_near_sqrt2_minus_1():
    # doubled width lam mapsto 2 lam / (1 + lam) - lam maximizes at sqrt(2) - 1
    lams = np.linspace(0.01, 0.99, 981)
    widths = [np.diff(linf_range_given_tdc(l, normalization="doubled"))[0]
              for l in lams]
    best = lams[int(np.argmax(widths))]
    assert best == pytest.approx(np.sqrt(2.0) - 1.0, abs=2e-3)
    assert max(widths) == pytest.approx(3.0 - 2.0 * np.sqrt(2.0), abs=1e-5)


def test_linf_range_rejects_bad_tdc():
    with pytest.raises(ParameterError):
        linf_range_given_tdc(-0.1)
    with pytest.raises(ParameterError):
        linf_range_given_tdc(1.1)


def test_lp_band_matches_closed_form():
    m = 100
    for lam in (0.1, 0.5, 0.9):
        res = measure_range([(0.5, lam / 2.0)], "max_td", grid_size=m)
        lo, hi = linf_range_given_tdc(lam)
        assert res.min_value == pytest.approx(lo, abs=2.0 / m)
        assert res.max_value == pytest.approx(hi, abs=2.0 / m)


# ---------------------------------------------------------------------------
# Random members of the feasible set
# ---------------------------------------------------------------------------

def test_random_feasible_holds_pins_exactly():
    pins = [(0.5, 0.2), (0.25, 0.12)]
    f = random_feasible(pins, grid_size=100, seed=4)
    assert isinstance(f, TailDependenceFunction)
    assert f.eval(0.5) == pytest.approx(0.2, abs=1e-12)
    assert f.eval(0.25) == pytest.approx(0.12, abs=1e-12)


def test_random_feasible_is_deterministic_in_seed():
    a = random_feasible([(0.5, 0.3)], grid_size=60, seed=9)
    b = random_feasible([(0.5, 0.3)], grid_size=60, seed=9)
    c = random_feasible([(0.5, 0.3)], grid_size=60, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_random_feasible_measures_stay_in_band():
    res = measure_range([(0.5, 0.3)], "max_td", grid_size=80)
    for seed in range(30):
        f = random_feasible([(0.5, 0.3)], grid_size=80, seed=seed)
        v = float(max_tail_dependence(f))
        assert res.min_value - 1e-8 <= v <= res.max_value + 1e-8


def test_random_feasible_tdc_matches_pin():
    f = random_feasible([(0.5, 0.15)], grid_size=40, seed=1)
    assert float(tdc(f)) == pytest.approx(0.3, abs=1e-12)


def test_envelope_result_dict():
    d = measure_range([(0.5, 0.25)], "max_td", grid_size=50).to_dict()
    assert d["measure"] == "max_td"
    assert d["grid_size"] == 50
    assert d["pins"] == [[0.5, 0.25]]
    assert d["min"] <= d["max"]
    assert d["resolution"] == pytest.approx(2.0 / 50.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, 1e-300]), max_size=40))
def test_unique_matches_numpy_byte_for_byte(values):
    # Ties, 0.0 against -0.0 (which one numpy keeps rests on its sort) and +-inf.
    x = np.array(values, dtype=float)
    assert taildep.envelope._unique(x).tobytes() == np.unique(x).tobytes()
