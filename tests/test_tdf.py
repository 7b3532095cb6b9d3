"""Grid representation, validation, parametric families, projection."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taildep.errors import DomainError, ParameterError
from taildep.tdf import (
    BOUND_TOL,
    DEFAULT_GRID_SIZE,
    TailDependenceFunction,
    TDFKind,
    ValidationReport,
    clayton,
    comonotone,
    from_grid,
    from_parametric,
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
    out = from_grid([0.0, 0.6, 0.0])
    assert isinstance(out, ValidationReport)
    (v,) = out.violations
    assert v.constraint == "upper_bound"
    assert v.index == 1
    assert v.magnitude == pytest.approx(0.1)


def test_from_grid_reports_negative_value():
    out = from_grid([0.0, -0.2, 0.0])
    assert isinstance(out, ValidationReport)
    assert any(v.constraint == "nonnegative" for v in out.violations)


def test_from_grid_reports_convex_kink():
    # A dip in the middle breaks concavity without touching the bounds.
    out = from_grid([0.0, 0.2, 0.05, 0.2, 0.0])
    assert isinstance(out, ValidationReport)
    assert any(v.constraint == "concavity" for v in out.violations)


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
    # endpoint surfaces through the report, not as a precondition error.
    out = from_grid([0.1, 0.2, 0.0])
    assert isinstance(out, ValidationReport)


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
    f = from_parametric("clayton", theta=theta)
    assert 2.0 * f.eval(0.5) == pytest.approx(2.0 ** (-1.0 / theta), rel=1e-12)


def test_clayton_ordered_in_theta():
    weak, strong = clayton(0.5), clayton(3.0)
    assert np.all(weak.values <= strong.values + 1e-12)


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


def test_parametric_dispatch_and_validation():
    assert from_parametric("comonotone").values[100] == 0.5
    with pytest.raises(ParameterError):
        from_parametric("nosuchfamily")
    with pytest.raises(ParameterError):
        from_parametric("clayton", theta=-1.0)
    with pytest.raises(ParameterError):
        from_parametric("parabola", c=1.5)
    with pytest.raises(ParameterError):
        from_parametric("tent", a=-0.5, b=1.0)


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
    with pytest.raises(ParameterError):
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
