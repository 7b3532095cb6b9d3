"""Bounded-variable simplex, cross-checked against scipy.

The solver only sees problems of the form max c'x s.t. Ax <= b with box
bounds, so the tests stay in that shape.  scipy.optimize.linprog is a dev
dependency used purely as an oracle here.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import taildep.lp
from taildep.errors import InfeasibleError, SolverError, TailDepError, UnboundedError
from taildep.lp import SimplexSolver, solve_lp


def scipy_max(c, A, b, lower, upper):
    res = linprog(-np.asarray(c), A_ub=A, b_ub=b,
                  bounds=list(zip(lower, upper)), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def random_problem(rng, n, m):
    """Random bounded feasible problem: box always contains the origin."""
    A = rng.standard_normal((m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    lower = rng.uniform(-2.0, -0.5, size=n)
    upper = rng.uniform(0.5, 2.0, size=n)
    c = rng.standard_normal(n)
    return c, A, b, lower, upper


def test_simple_box_problem():
    # max x + y inside the unit square with x + y <= 1.5
    sol = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    assert sol.value == pytest.approx(1.5)
    assert sol.x.sum() == pytest.approx(1.5)


def test_binding_upper_bounds():
    # no rows at all: optimum sits at the box corner
    sol = solve_lp([2.0, -3.0], np.zeros((0, 2)), [], [-1.0, -1.0], [4.0, 5.0])
    assert sol.value == pytest.approx(2.0 * 4.0 + 3.0 * 1.0)
    assert sol.x == pytest.approx([4.0, -1.0])


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 13))
        c, A, b, lower, upper = random_problem(rng, n, m)
        ours = solve_lp(c, A, b, lower, upper)
        ref = scipy_max(c, A, b, lower, upper)
        assert ours.value == pytest.approx(ref, abs=1e-7), f"trial {trial}"
        # the reported point must be feasible and achieve the value
        assert np.all(A @ ours.x <= b + 1e-8)
        assert np.all(ours.x >= lower - 1e-9)
        assert np.all(ours.x <= upper + 1e-9)
        assert c @ ours.x == pytest.approx(ours.value, abs=1e-9)


def test_phase1_needed_when_origin_infeasible():
    # -x <= -1 forces x >= 1 while the box alone would start at x = 0
    sol = solve_lp([-1.0], [[-1.0]], [-1.0], [0.0, ], [5.0])
    assert sol.value == pytest.approx(-1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0
    with pytest.raises(InfeasibleError):
        solve_lp([1.0], [[1.0]], [-1.0], [0.0], [2.0])


def test_infeasible_pair_of_rows():
    A = [[1.0, 1.0], [-1.0, -1.0]]
    b = [1.0, -3.0]  # x + y <= 1 and x + y >= 3
    with pytest.raises(InfeasibleError):
        solve_lp([1.0, 0.0], A, b, [0.0, 0.0], [10.0, 10.0])


def test_unbounded_detected():
    with pytest.raises(UnboundedError):
        solve_lp([1.0], np.zeros((0, 1)), [], [0.0], [np.inf])


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex exercise the Bland switch
    n = 6
    A = np.vstack([np.eye(n), np.eye(n) * 2.0, np.ones((1, n))])
    b = np.concatenate([np.ones(n), np.ones(n) * 2.0, [float(n)]])
    sol = solve_lp(np.ones(n), A, b, np.zeros(n), np.full(n, 10.0))
    assert sol.value == pytest.approx(float(n))


def test_warm_restart_across_objectives():
    rng = np.random.default_rng(7)
    c0, A, b, lower, upper = random_problem(rng, 6, 8)
    solver = SimplexSolver(A, b, lower, upper)
    for _ in range(10):
        c = rng.standard_normal(6)
        ours = solver.solve(c)
        assert ours.value == pytest.approx(scipy_max(c, A, b, lower, upper), abs=1e-7)


def test_equality_via_tight_box():
    # pin x = 0.7 through lower == upper
    sol = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0],
                   [0.7, 0.0], [0.7, 1.0])
    assert sol.x[0] == pytest.approx(0.7)
    assert sol.value == pytest.approx(1.0)


def test_singular_pivot_raises_solver_error(monkeypatch):
    # phase 1 pivots the artificial in at magnitude 1, below this tolerance
    monkeypatch.setattr(taildep.lp, "TOL_PIV", 10.0)
    with pytest.raises(SolverError, match="singular pivot") as info:
        solve_lp([-1.0], [[-1.0]], [-1.0], [0.0], [5.0])
    assert isinstance(info.value, TailDepError)
    assert isinstance(info.value, RuntimeError)


def test_vertex_breaking_a_row_raises_solver_error(monkeypatch):
    # max x + y inside the unit square with x + y <= 1.5; a vertex drifted
    # 1e-6 past the row, relative to its scale of 3, must not be returned.
    extract = SimplexSolver._extract
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) + 1e-6)
    with pytest.raises(SolverError, match="breaks row 0 by 2.000e-06"):
        solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    # Within TOL_FEAS of the row's scale the vertex passes.
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) + 1e-9)
    sol = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])
    assert sol.value == pytest.approx(1.5)


def test_vertex_breaking_a_bound_raises_solver_error(monkeypatch):
    extract = SimplexSolver._extract
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) - [0.0, 1e-6])
    with pytest.raises(SolverError, match="bounds of variable 1"):
        solve_lp([1.0, -1.0], [[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0])


def test_unscaled_cutting_plane_master_raises_solver_error():
    # Entries from 1e-5 to 1 defeat the absolute pivot and reduced-cost
    # tolerances: the pivots end on a vertex that breaks row 48 by 7.0e-11,
    # 3.7e-4 of the row's scale, and falls 2e-10 short of HiGHS.
    path = Path(__file__).parent / "data" / "unscaled_master_53pins.json"
    data = json.loads(path.read_text())
    A = np.zeros((len(data["rows"]), data["n"]))
    for i, row in enumerate(data["rows"]):
        for j, value in row:
            A[i, j] = value
    b, lower, upper, c = (np.array(data[key]) for key in ("b", "lower", "upper", "c"))
    with pytest.raises(SolverError, match="breaks row 48 by 6.998e-11"):
        SimplexSolver(A, b, lower, upper).solve(c)
