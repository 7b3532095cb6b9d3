"""Grid representation, validation, parametric families, projection."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taildep.errors import DomainError, ParameterError
from taildep.tdf import (
    BOUND_TOL,
    CONCAVITY_TOL,
    DEFAULT_GRID_SIZE,
    TailDependenceFunction,
    TDFKind,
    clayton,
    comonotone,
    from_grid,
    independence,
    least_concave_majorant,
    least_concave_majorant_rows,
    parabola,
    tent,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

unit_open = st.floats(min_value=0.0, max_value=1.0,
                      exclude_min=True, exclude_max=True,
                      allow_nan=False, allow_infinity=False)

clayton_theta = st.floats(min_value=0.05, max_value=20.0,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_grid_shape_and_defaults():
    f = comonotone()
    assert f.grid_size == DEFAULT_GRID_SIZE
    assert f.values.shape == (DEFAULT_GRID_SIZE + 1,)
    assert f.kind is TDFKind.VALIDATED
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_values_are_read_only():
    f = comonotone()
    with pytest.raises(ValueError):
        f.values[3] = 0.9


def test_from_grid_accepts_admissible():
    out = from_grid([0.0, 0.25, 0.5, 0.25, 0.0])
    assert isinstance(out, TailDependenceFunction)
    assert out.grid_size == 4


def test_from_grid_reports_upper_bound_violation():
    with pytest.raises(ParameterError, match=r"^grid violates upper_bound at index 1 by 1\.000e-01$"):
        from_grid([0.0, 0.6, 0.0])
    # Equal excesses at nodes 1 and 3: the lowest index is named.
    with pytest.raises(ParameterError, match=r"^grid violates upper_bound at index 1 by 1\.000e-01$"):
        from_grid([0.0, 0.35, 0.5, 0.35, 0.0])


def test_from_grid_reports_negative_value():
    with pytest.raises(ParameterError, match=r"^grid violates nonnegative at index 1 by 2\.000e-01$"):
        from_grid([0.0, -0.2, 0.0], enforce_concavity=False)
    # The dip is also a convex kink of second difference 0.4, the worst violation.
    with pytest.raises(ParameterError, match=r"^grid violates concavity at index 1 by 4\.000e-01$"):
        from_grid([0.0, -0.2, 0.0])


def test_from_grid_reports_convex_kink():
    # A dip in the middle breaks concavity without touching the bounds.
    with pytest.raises(ParameterError, match=r"^grid violates concavity at index 2 by 3\.000e-01$"):
        from_grid([0.0, 0.2, 0.05, 0.2, 0.0])


def _violations(v, enforce_concavity):
    """Every violation as (magnitude, constraint, index), in from_grid's tie order."""
    v = [float(x) for x in v]
    m = len(v) - 1
    out = [(-x, "nonnegative", i) for i, x in enumerate(v) if x < -BOUND_TOL]
    out += [(x - min(i / m, 1.0 - i / m), "upper_bound", i) for i, x in enumerate(v)
            if x > min(i / m, 1.0 - i / m) + BOUND_TOL]
    if enforce_concavity:
        second = [v[i + 1] - 2.0 * v[i] + v[i - 1] for i in range(1, m)]
        out += [(d, "concavity", i + 1) for i, d in enumerate(second) if d > CONCAVITY_TOL]
    return out


@pytest.mark.parametrize("seed", range(40))
def test_from_grid_names_the_worst_violation(seed):
    # A concave curve with a few values moved up or down, some within the
    # tolerances; exact ties between constraints go to the first listed.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 30))
    v = clayton(float(rng.uniform(0.2, 5.0)), grid_size=m).values.copy()
    for i in rng.integers(0, m + 1, size=int(rng.integers(1, 4))):
        v[i] += rng.choice([-1.0, 1.0]) * rng.choice([0.5 * BOUND_TOL, rng.uniform(0.0, 0.3)])
    for enforce in (True, False):
        found = _violations(v, enforce)
        if not found:
            assert from_grid(v, enforce_concavity=enforce).grid_size == m
            continue
        magnitude, constraint, index = max(found, key=lambda x: x[0])
        with pytest.raises(ParameterError) as exc:
            from_grid(v, enforce_concavity=enforce)
        assert str(exc.value) == f"grid violates {constraint} at index {index} by {magnitude:.3e}"


def test_from_grid_concavity_check_optional():
    out = from_grid([0.0, 0.2, 0.05, 0.2, 0.0], enforce_concavity=False)
    assert isinstance(out, TailDependenceFunction)
    assert out.kind is TDFKind.EMPIRICAL


def test_from_grid_snaps_tolerable_noise():
    # Violations below tolerance are repaired, not reported.
    vals = np.array([0.0, 0.25, 0.5 + 0.5 * BOUND_TOL, 0.25, 0.0])
    out = from_grid(vals)
    assert isinstance(out, TailDependenceFunction)
    assert out.values[2] <= 0.5


def test_from_grid_rejects_bad_preconditions():
    with pytest.raises(ParameterError):
        from_grid([0.0, 0.1])  # fewer than 3 points
    with pytest.raises(ParameterError):
        from_grid([0.0, np.nan, 0.0])


def test_from_grid_nonzero_endpoint_is_a_violation():
    # Endpoints lie on the boundary where the envelope is zero, so a bad
    # endpoint surfaces as a bound violation, not as a precondition error.
    with pytest.raises(ParameterError, match=r"^grid violates upper_bound at index 0 by 1\.000e-01$"):
        from_grid([0.1, 0.2, 0.0])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_interpolates_linearly():
    f = from_grid([0.0, 0.1, 0.1, 0.1, 0.0])
    assert f.eval(0.125) == pytest.approx(0.05)
    assert f.eval(0.5) == pytest.approx(0.1)
    assert f.eval([0.0, 1.0]) == pytest.approx([0.0, 0.0])


def test_eval_rejects_outside_domain():
    f = comonotone()
    with pytest.raises(DomainError):
        f.eval(-0.01)
    with pytest.raises(DomainError):
        f.eval([0.5, 1.5])


@given(s=unit_open)
@settings(max_examples=200)
def test_eval_within_frechet_bound(s):
    f = clayton(1.5)
    v = f.eval(s)
    assert -1e-12 <= v <= min(s, 1.0 - s) + 1e-12


# ---------------------------------------------------------------------------
# Homogeneous two-argument extension
# ---------------------------------------------------------------------------

def test_extend_2d_homogeneity():
    f = clayton(1.0)
    base = f.extend_2d(0.3, 0.7)
    for t in (0.5, 2.0, 7.5):
        assert f.extend_2d(0.3 * t, 0.7 * t) == pytest.approx(t * base, rel=1e-12)


def test_extend_2d_known_value():
    # (x + y) * L(x / (x + y)) with L from the theta = 1 family:
    # L(1/3) = (3 + 3/2)^-1 = 2/9, so extension at (1, 2) is 3 * 2/9 = 2/3.
    f = clayton(1.0, grid_size=6000)
    assert f.extend_2d(1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_extend_2d_zero_edges():
    f = clayton(2.0)
    assert f.extend_2d(0.0, 5.0) == 0.0
    assert f.extend_2d(0.0, 0.0) == 0.0


def test_extend_2d_rejects_bad_input():
    f = comonotone()
    with pytest.raises(DomainError):
        f.extend_2d(-1.0, 2.0)
    with pytest.raises(DomainError):
        f.extend_2d(np.inf, 1.0)


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

def test_comonotone_is_frechet_upper_bound():
    f = comonotone(grid_size=100)
    s = f.grid
    assert np.allclose(f.values, np.minimum(s, 1.0 - s))


def test_independence_is_zero():
    f = independence(grid_size=50)
    assert not f.values.any()


@given(theta=clayton_theta)
@settings(max_examples=100)
def test_clayton_midpoint_formula(theta):
    f = clayton(theta)
    assert 2.0 * f.eval(0.5) == pytest.approx(2.0 ** (-1.0 / theta), rel=1e-12)


def test_clayton_ordered_in_theta():
    # From theta ~ 134, s^-theta overflows on the default grid; the curve
    # must still rise with theta, towards min(s, 1 - s).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = [clayton(theta) for theta in (1e-3, 0.5, 3.0, 134.0, 200.0, 1e4, 1e6)]
    for weak, strong in zip(curves, curves[1:]):
        assert np.all(weak.values <= strong.values + 1e-12)
    s = curves[-1].grid
    assert np.max(np.abs(curves[-1].values - np.minimum(s, 1.0 - s))) <= 1e-6


def test_tent_and_parabola_values():
    t = tent(0.5, 1.0, grid_size=300)
    assert t.eval(2.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    p = parabola(grid_size=200)
    assert p.eval(0.25) == pytest.approx(0.1875)


def test_tent_clips_at_frechet_bound():
    # Slopes above 1 are legal; the surplus is cut by min(s, 1 - s).
    t = tent(0.5, 1.5, grid_size=8)
    assert t.eval(0.75) == pytest.approx(0.25)
    assert t.eval(0.625) == pytest.approx(0.3125)


def test_constructors_reject_bad_parameters():
    assert comonotone().values[100] == 0.5
    with pytest.raises(ParameterError, match="clayton requires theta > 0"):
        clayton(-1.0)
    with pytest.raises(ParameterError, match="parabola requires c in"):
        parabola(c=1.5)
    with pytest.raises(ParameterError, match="tent requires a >= 0 and b >= 0"):
        tent(a=-0.5, b=1.0)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    f = clayton(1.7, grid_size=64)
    g = TailDependenceFunction.from_json(f.to_json())
    assert g.grid_size == f.grid_size
    assert g.kind == f.kind
    assert np.array_equal(g.values, f.values)


def test_from_json_revalidates():
    f = comonotone(grid_size=4)
    doc = json.loads(f.to_json())
    doc["values"][2] = 0.9
    with pytest.raises(ParameterError, match=r"^grid violates upper_bound at index 2 by 4\.000e-01$"):
        TailDependenceFunction.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Least concave majorant
# ---------------------------------------------------------------------------

def test_lcm_hand_case():
    raw = from_grid([0.0, 0.1, 0.05, 0.1, 0.0], enforce_concavity=False)
    proj = least_concave_majorant(raw)
    assert proj.values == pytest.approx([0.0, 0.1, 0.1, 0.1, 0.0])
    assert proj.kind is TDFKind.VALIDATED


def test_lcm_idempotent_on_concave(random_tdf):
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_tdf(rng, grid_size=60)
        again = least_concave_majorant(f)
        assert np.allclose(again.values, f.values, atol=1e-12)


def test_lcm_dominates_and_is_minimal(random_tdf):
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_tdf(rng, grid_size=80)
        noisy = from_grid(
            np.clip(f.values * (0.6 + 0.4 * rng.random(81)), 0.0, None),
            enforce_concavity=False,
        )
        proj = least_concave_majorant(noisy)
        assert np.all(proj.values >= noisy.values - 1e-12)
        # minimality: projecting the projection changes nothing
        assert np.allclose(least_concave_majorant(proj).values, proj.values)


def test_lcm_monotone(random_tdf):
    # g <= f pointwise implies lcm(g) <= lcm(f) pointwise.
    rng = np.random.default_rng(5)
    f = random_tdf(rng, grid_size=100)
    g_vals = f.values * rng.uniform(0.2, 1.0)
    g = from_grid(g_vals, enforce_concavity=False)
    lf = least_concave_majorant(f)
    lg = least_concave_majorant(g)
    assert np.all(lg.values <= lf.values + 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lcm_rows_reject_non_finite(bad):
    row = np.array([0.0, 0.1, bad, 0.2, 0.0])
    if math.isnan(bad):  # the one-curve form fails the same way on NaN
        with pytest.raises(ParameterError, match="grid values must be finite"):
            least_concave_majorant(TailDependenceFunction(4, row, TDFKind.EMPIRICAL))
    rows = np.array([[0.0, 0.2, 0.1, 0.2, 0.0], row, [0.0] * 5])
    before = rows.copy()
    with pytest.raises(ParameterError, match="grid values must be finite"):
        least_concave_majorant_rows(rows)
    assert np.array_equal(rows, before, equal_nan=True)  # no row was projected


@pytest.mark.parametrize("row", [
    [0.0, 0.1, math.nan, 0.2, 0.0],
    [0.0, 0.1, math.inf, 0.2, 0.0],  # used to come back as the Frechet bound
    [0.0, 0.1, -math.inf, 0.2, 0.0],  # used to drop out of the hull
    [0.0, -math.inf, 0.3, math.inf, 0.0],
])
def test_lcm_rejects_non_finite(row):
    tdf = TailDependenceFunction(4, np.array(row), TDFKind.EMPIRICAL)
    with pytest.raises(ParameterError, match="grid values must be finite"):
        least_concave_majorant(tdf)
