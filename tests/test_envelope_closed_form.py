"""Closed-form envelopes of ``measure_range`` against an independent LP solver.

scipy.optimize.linprog (HiGHS) solves the pinned polytope, built in this file
without envelope code: one LP per grid coordinate for the ``max_td`` maximum,
an epigraph LP for its minimum, and one LP each way for ``avg_td`` and
``point_eval``.  ``random_feasible`` draws are checked against the envelopes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from taildep.envelope import measure_range, random_feasible
from taildep.errors import InfeasibleError
from taildep.lp import SimplexSolver
from taildep.measures import average_tail_dependence, max_tail_dependence, point_eval
from taildep.tdf import CONCAVITY_TOL, TDFKind

TOL = 1e-12
INFEASIBLE = 2  # linprog status


def oracle_lp(m, pins):
    """Second-difference rows and box bounds of the pinned admissible class."""
    A = np.zeros((m - 1, m + 1))
    for r in range(m - 1):
        A[r, r:r + 3] = (1.0, -2.0, 1.0)
    bounds = [(0.0, min(i, m - i) / m) for i in range(m + 1)]
    for s, v in pins:
        i = round(s * m)
        bounds[i] = (v, v)
    return A, bounds


def oracle_min(c, A, bounds):
    res = linprog(c, A_ub=A, b_ub=np.zeros(len(A)), bounds=bounds, method="highs")
    return res.status, res.fun


def oracle_range(m, pins, measure, i0):
    """(min, max) from HiGHS, or None when HiGHS reports the pins infeasible."""
    A, bounds = oracle_lp(m, pins)
    if measure == "max_td":
        # min t over (x, t) with x_i <= t; max = best single-coordinate maximum
        A_t = np.vstack([np.hstack([A, np.zeros((m - 1, 1))]),
                         np.hstack([np.eye(m + 1), -np.ones((m + 1, 1))])])
        c = np.zeros(m + 2)
        c[-1] = 1.0
        status, lo = oracle_min(c, A_t, bounds + [(0.0, 0.5)])
        if status == INFEASIBLE:
            return None
        assert status == 0
        his = [-oracle_min(-np.eye(m + 1)[i], A, bounds)[1] for i in range(m + 1)]
        return lo, max(his)
    if measure == "avg_td":
        c = np.full(m + 1, 1.0 / m)
        c[0] = c[-1] = 0.5 / m
    else:
        c = np.eye(m + 1)[i0]
    status, lo = oracle_min(c, A, bounds)
    if status == INFEASIBLE:
        return None
    assert status == 0
    status, neg_hi = oracle_min(-c, A, bounds)
    assert status == 0
    return lo, -neg_hi


def measure_of(f, measure, s0):
    if measure == "max_td":
        return max_tail_dependence(f).value
    if measure == "avg_td":
        return average_tail_dependence(f).value
    return point_eval(f, s0).value


def concave_curve(rng, m, kind):
    """Admissible grid values of one of three shapes."""
    s = np.arange(m + 1) / m
    bound = np.minimum(s, 1.0 - s)
    if kind == "bound":  # flat top, equal to the bound on both flanks
        return np.minimum(bound, rng.uniform(0.0, 0.5))
    if kind == "chord":  # one tent: pins on a flank are collinear up to rounding
        peak = int(rng.integers(1, m))
        return np.interp(np.arange(m + 1), [0, peak, m], [0.0, rng.uniform(0.0, bound[peak]), 0.0])
    inc = np.sort(rng.standard_normal(m))[::-1]  # decreasing slopes
    v = np.concatenate([[0.0], np.cumsum(inc - inc.mean())])
    v[-1] = 0.0
    ratio = np.max(v[1:-1] / bound[1:-1])
    v = v * (rng.uniform(0.0, 1.0) / ratio) if ratio > 0.0 else np.zeros(m + 1)
    return np.clip(v, 0.0, bound)


@st.composite
def pin_sets(draw, perturb=False):
    """(m, pins, s0): 1 to 4 pins read off a concave curve, optionally with one
    pin moved up or down (kept inside the admissible bound)."""
    m = 2 * draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = concave_curve(rng, m, draw(st.sampled_from(["random", "bound", "chord"])))
    n = draw(st.integers(1, min(4, m + 1)))
    idx = draw(st.lists(st.integers(0, m), min_size=n, max_size=n, unique=True))
    if perturb:
        i = idx[0]
        v = v.copy()
        v[i] = np.clip(v[i] + rng.uniform(-0.3, 0.3), 0.0, min(i, m - i) / m)
    s0 = draw(st.integers(0, m)) / m
    return m, [(i / m, float(v[i])) for i in idx], s0


MEASURES = ("max_td", "avg_td", "point_eval")
ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           suppress_health_check=[HealthCheck.too_slow])


@ORACLE_SETTINGS
@given(case=pin_sets(), measure=st.sampled_from(MEASURES))
def test_closed_form_matches_highs(case, measure):
    m, pins, s0 = case
    res = measure_range(pins, measure, grid_size=m, s0=s0 if measure == "point_eval" else None)
    lo, hi = oracle_range(m, pins, measure, round(s0 * m))
    assert abs(res.min_value - lo) <= TOL
    assert abs(res.max_value - hi) <= TOL
    assert res.lp_iterations == 0 or measure == "avg_td"
    for f, target in ((res.argmin, res.min_value), (res.argmax, res.max_value)):
        for s, v in pins:
            assert abs(f.values[round(s * m)] - v) <= TOL
        assert abs(measure_of(f, measure, s0) - target) <= TOL


@ORACLE_SETTINGS
@given(case=pin_sets(perturb=True))
def test_infeasible_exactly_when_highs_says_so(case):
    m, pins, _ = case
    expected = oracle_range(m, pins, "avg_td", 0)
    if expected is None:
        with pytest.raises(InfeasibleError, match="not jointly concave"):
            measure_range(pins, "max_td", grid_size=m)
    else:
        res = measure_range(pins, "avg_td", grid_size=m)
        assert abs(res.min_value - expected[0]) <= TOL
        assert abs(res.max_value - expected[1]) <= TOL


@ORACLE_SETTINGS
@given(case=pin_sets(), seed=st.integers(0, 2**64 - 1))
def test_random_feasible_lies_between_the_envelopes(case, seed):
    m, pins, _ = case
    f = random_feasible(pins, grid_size=m, seed=seed)
    assert f.kind is TDFKind.VALIDATED
    for s, v in pins:
        assert abs(f.values[round(s * m)] - v) <= TOL
    lower = measure_range(pins, "max_td", grid_size=m).argmin.values
    upper = [measure_range(pins, "point_eval", grid_size=m, s0=i / m).max_value
             for i in range(m + 1)]
    assert np.all(lower - TOL <= f.values) and np.all(f.values <= np.add(upper, TOL))
    assert np.array_equal(random_feasible(pins, grid_size=m, seed=seed).values, f.values)


def kinked_pins(m, i1, i2, rise):
    """Pins at i1 < i2 whose slope rises by ``rise`` per grid step at i1."""
    slope = 0.1 / m
    v1 = slope * i1
    return [(i1 / m, v1), (i2 / m, v1 + (slope + rise) * (i2 - i1))]


def simplex_accepts(pins, m):
    A, bounds = oracle_lp(m, pins)
    lower, upper = np.array(bounds).T
    try:
        SimplexSolver(A, np.zeros(m - 1), lower, upper).solve(np.zeros(m + 1))
    except InfeasibleError:
        return False
    return True


@pytest.mark.parametrize("m, i1, i2", [(20, 5, 10), (60, 10, 30), (400, 100, 200)])
def test_concavity_tolerance_near_the_edge(m, i1, i2):
    # Within the grid's concavity tolerance both the slope test and the
    # simplex's phase 1 accept, the curves returned validate, and the upper
    # envelope never dips under the lower one.
    pins = kinked_pins(m, i1, i2, 0.5 * CONCAVITY_TOL)
    assert simplex_accepts(pins, m)
    assert measure_range(pins, "max_td", grid_size=m).lp_iterations == 0
    for i0 in (i1 - 1, i1 + 1, (i1 + i2) // 2, i2 - 1):
        res = measure_range(pins, "point_eval", grid_size=m, s0=i0 / m)
        assert res.min_value <= res.max_value
    res = measure_range(pins, "avg_td", grid_size=m)
    assert res.argmax.kind is TDFKind.VALIDATED and res.min_value <= res.max_value
    for seed in range(20):
        assert random_feasible(pins, grid_size=m, seed=seed).kind is TDFKind.VALIDATED
    # Well past the phase-1 residual (1e-8) both reject.
    pins = kinked_pins(m, i1, i2, 2e-8)
    assert not simplex_accepts(pins, m)
    for build in (lambda: measure_range(pins, "max_td", grid_size=m),
                  lambda: random_feasible(pins, grid_size=m)):
        with pytest.raises(InfeasibleError, match="not jointly concave"):
            build()
    # In between, phase 1 accepts but no curve through the pins passes the
    # grid's concavity check, so the slope test rejects.
    pins = kinked_pins(m, i1, i2, 5e-9)
    assert simplex_accepts(pins, m)
    for build in (lambda: measure_range(pins, "avg_td", grid_size=m),
                  lambda: random_feasible(pins, grid_size=m)):
        with pytest.raises(InfeasibleError, match="not jointly concave"):
            build()


def test_lp_iterations_count_only_the_avg_td_maximum():
    pins = [(0.25, 0.2), (0.5, 0.3)]
    assert measure_range(pins, "max_td", grid_size=40).lp_iterations == 0
    assert measure_range(pins, "point_eval", grid_size=40, s0=0.1).lp_iterations == 0
    first = measure_range(pins, "avg_td", grid_size=40).lp_iterations
    assert first > 0
    assert measure_range(pins, "avg_td", grid_size=40).lp_iterations == first
    assert "lp_iterations" not in measure_range(pins, "avg_td", grid_size=40).to_dict()
