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
TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


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


def oracle_min(c, A, bounds, options=TIGHT):
    """HiGHS at feasibility tolerances of 1e-10: at its default of 1e-7 the
    second differences may go positive by about 1e-7, which lifts an
    ``avg_td`` maximum above the exact one by up to ~1e-9."""
    res = linprog(c, A_ub=A, b_ub=np.zeros(len(A)), bounds=bounds, method="highs",
                  options=options)
    return res.status, res.fun


def oracle_range(m, pins, measure, i0, options=TIGHT):
    """(min, max) from HiGHS, or None when HiGHS reports the pins infeasible.
    ``options`` go to HiGHS for ``avg_td`` and ``point_eval``."""
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
    status, lo = oracle_min(c, A, bounds, options)
    if status == INFEASIBLE:
        return None
    assert status == 0
    status, neg_hi = oracle_min(-c, A, bounds, options)
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
        SimplexSolver(A, np.zeros(m - 1), lower, upper, np.zeros(m + 1)).solve()
    except InfeasibleError:
        return False
    return True


@pytest.mark.parametrize("m, i1, i2", [(20, 5, 10), (60, 10, 30), (400, 100, 200)])
def test_concavity_tolerance_near_the_edge(m, i1, i2):
    # Within the grid's concavity tolerance both the slope test and the
    # simplex's dual pass accept, the curves returned validate, and the upper
    # envelope never dips under the lower one.
    pins = kinked_pins(m, i1, i2, 0.5 * CONCAVITY_TOL)
    assert simplex_accepts(pins, m)
    for i0 in (i1 - 1, i1 + 1, (i1 + i2) // 2, i2 - 1):
        res = measure_range(pins, "point_eval", grid_size=m, s0=i0 / m)
        assert res.min_value <= res.max_value
    res = measure_range(pins, "avg_td", grid_size=m)
    assert res.argmax.kind is TDFKind.VALIDATED and res.min_value <= res.max_value
    for seed in range(20):
        assert random_feasible(pins, grid_size=m, seed=seed).kind is TDFKind.VALIDATED
    # Well past the dual pass's accepted miss (1e-8) both reject.
    pins = kinked_pins(m, i1, i2, 2e-8)
    assert not simplex_accepts(pins, m)
    for build in (lambda: measure_range(pins, "max_td", grid_size=m),
                  lambda: random_feasible(pins, grid_size=m)):
        with pytest.raises(InfeasibleError, match="not jointly concave"):
            build()
    # In between, the dual pass accepts but no curve through the pins passes the
    # grid's concavity check, so the slope test rejects.
    pins = kinked_pins(m, i1, i2, 5e-9)
    assert simplex_accepts(pins, m)
    for build in (lambda: measure_range(pins, "avg_td", grid_size=m),
                  lambda: random_feasible(pins, grid_size=m)):
        with pytest.raises(InfeasibleError, match="not jointly concave"):
            build()


def clayton_pins(theta=2.0):
    return [(s, (s ** -theta + (1.0 - s) ** -theta) ** (-1.0 / theta)) for s in (0.25, 0.5, 0.75)]


def curve_pins(m, n, seed):
    """n pins read off a random concave curve on the m-grid."""
    rng = np.random.default_rng(seed)
    v = concave_curve(rng, m, "random")
    return [(i / m, float(v[i])) for i in sorted(rng.choice(m + 1, n, replace=False))]


def sweep_case(seed):
    """Grid, curve shape, pin count and pin places all drawn from one seed."""
    rng = np.random.default_rng(seed)
    m = 2 * int(rng.integers(1, 201))
    v = concave_curve(rng, m, rng.choice(["random", "bound", "chord"]))
    idx = rng.choice(m + 1, int(rng.integers(1, min(m + 1, 100) + 1)), replace=False)
    return m, [(i / m, float(v[i])) for i in idx]


def check_avg_td_maximum(m, pins):
    """The avg_td maximum against HiGHS, and its argmax: validated, through
    the pins and attaining the maximum."""
    res = measure_range(pins, "avg_td", grid_size=m)
    assert abs(res.max_value - oracle_range(m, pins, "avg_td", 0, TIGHT)[1]) <= TOL
    assert res.argmax.kind is TDFKind.VALIDATED
    for s, v in pins:
        assert abs(res.argmax.values[round(s * m)] - v) <= TOL
    assert abs(measure_of(res.argmax, "avg_td", None) - res.max_value) <= TOL


@pytest.mark.parametrize("m, pins", [
    (400, [(0.5, 0.25)]),
    (400, clayton_pins()),
    (200, curve_pins(200, 16, 1)),
    (200, curve_pins(200, 64, 2)),
    sweep_case(3032071001),
    sweep_case(1184),
    sweep_case(1340),
    sweep_case(748),
    sweep_case(860),
    (174, [(1 / 174, 1 / 174 - 2e-13), (6 / 174, 6 / 174), (89 / 174, 0.279), (167 / 174, 0.04)]),
], ids=["midpoint-400", "clayton3-400", "pins16-200", "pins64-200", "pins53-192", "sweep1184",
        "sweep1340", "sweep748", "sweep860", "flank-174"])
def test_avg_td_maximum_at_scale_matches_highs(m, pins):
    # The dynamic program runs along the pins, so check grids and pin counts
    # well beyond the hypothesis test's m <= 60 and 4 pins.  The 53 pins have
    # values near 1e-4, far below the Frechet bound; there HiGHS's default
    # feasibility tolerance of 1e-7 would lift its own maximum by 9e-10, so it
    # runs tighter.  Sweep cases 1184 and 1340 (pins on the Frechet bound,
    # zero kinks) have ranges of budget splits that touch in one point and
    # can cross by rounding; in 748 and 860 (collinear pins, kinks of
    # rounding size) a near-zero ratio would carry a rounding error into a
    # zero budget.  In flank-174 a pin 2e-13 under the Frechet bound lets the
    # concavity tolerance carry a chord slope to 1 + 7e-12, so the bound cuts
    # a middle interval's line by 2.3e-13.
    check_avg_td_maximum(m, pins)


@pytest.mark.parametrize("seed", range(200))
def test_avg_td_maximum_matches_highs_on_sweep_cases(seed):
    check_avg_td_maximum(*sweep_case(seed))


@pytest.mark.parametrize("m", [100, 200, 400, 2000])
@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.77, 1.0])
def test_avg_td_maximum_under_one_midpoint_pin_is_the_trapezoid(m, lam):
    # Under the pin (1/2, lam/2) the best curve is min(s, 1 - s, lam/2): its
    # trapezoid sum is the maximum.
    s = np.arange(m + 1) / m
    top = np.minimum(np.minimum(s, 1.0 - s), lam / 2.0)
    res = measure_range([(0.5, lam / 2.0)], "avg_td", grid_size=m)
    assert abs(res.max_value - (top.sum() - 0.5 * (top[0] + top[-1])) / m) <= TOL
    assert abs(measure_of(res.argmax, "avg_td", None) - res.max_value) <= TOL
