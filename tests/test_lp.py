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
from taildep.errors import InfeasibleError, SolverError, TailDepError
from taildep.lp import AT_LOWER, AT_UPPER, SimplexSolver


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
    sol = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]).solve()
    assert sol.value == pytest.approx(1.5)
    assert sol.x.sum() == pytest.approx(1.5)


def test_binding_upper_bounds():
    # no rows at all: optimum sits at the box corner
    sol = SimplexSolver(np.zeros((0, 2)), [], [-1.0, -1.0], [4.0, 5.0], [2.0, -3.0]).solve()
    assert sol.value == pytest.approx(2.0 * 4.0 + 3.0 * 1.0)
    assert sol.x == pytest.approx([4.0, -1.0])


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 13))
        c, A, b, lower, upper = random_problem(rng, n, m)
        ours = SimplexSolver(A, b, lower, upper, c).solve()
        ref = scipy_max(c, A, b, lower, upper)
        assert ours.value == pytest.approx(ref, abs=1e-7), f"trial {trial}"
        # the reported point must be feasible and achieve the value
        assert np.all(A @ ours.x <= b + 1e-8)
        assert np.all(ours.x >= lower - 1e-9)
        assert np.all(ours.x <= upper + 1e-9)
        assert c @ ours.x == pytest.approx(ours.value, abs=1e-9)


def test_dual_pass_needed_when_origin_infeasible():
    # -x <= -1 forces x >= 1 while the box alone would start at x = 0
    sol = SimplexSolver([[-1.0]], [-1.0], [0.0, ], [5.0], [-1.0]).solve()
    assert sol.value == pytest.approx(-1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0
    with pytest.raises(InfeasibleError):
        SimplexSolver([[1.0]], [-1.0], [0.0], [2.0], [1.0]).solve()


def test_infeasible_pair_of_rows():
    A = [[1.0, 1.0], [-1.0, -1.0]]
    b = [1.0, -3.0]  # x + y <= 1 and x + y >= 3
    with pytest.raises(InfeasibleError):
        SimplexSolver(A, b, [0.0, 0.0], [10.0, 10.0], [1.0, 0.0]).solve()


def test_unbounded_detected():
    # Every bound must be finite, so no objective can be unbounded.
    for lower, upper in (([0.0], [np.inf]), ([-np.inf], [0.0]), ([np.nan], [1.0])):
        with pytest.raises(ValueError, match="finite bounds"):
            SimplexSolver(np.zeros((0, 1)), [], lower, upper, [1.0])


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex exercise the Bland switch
    n = 6
    A = np.vstack([np.eye(n), np.eye(n) * 2.0, np.ones((1, n))])
    b = np.concatenate([np.ones(n), np.ones(n) * 2.0, [float(n)]])
    sol = SimplexSolver(A, b, np.zeros(n), np.full(n, 10.0), np.ones(n)).solve()
    assert sol.value == pytest.approx(float(n))


def test_equality_via_tight_box():
    # pin x = 0.7 through lower == upper
    sol = SimplexSolver([[1.0, 1.0]], [1.0], [0.7, 0.0], [0.7, 1.0], [1.0, 1.0]).solve()
    assert sol.x[0] == pytest.approx(0.7)
    assert sol.value == pytest.approx(1.0)


def test_singular_pivot_raises_solver_error():
    # The tableau entry of x in the row is 1e-12, below TOL_PIV.
    solver = SimplexSolver([[1e-12, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert abs(solver.T[0, 0]) < taildep.lp.TOL_PIV
    with pytest.raises(SolverError, match="singular pivot") as info:
        solver._pivot(0, 0, AT_LOWER)
    assert isinstance(info.value, TailDepError)
    assert isinstance(info.value, RuntimeError)


def test_vertex_breaking_a_row_raises_solver_error(monkeypatch):
    # max x + y inside the unit square with x + y <= 1.5; a vertex drifted
    # 1e-6 past the row, relative to its scale of 3, must not be returned.
    extract = SimplexSolver._extract
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) + 1e-6)
    with pytest.raises(SolverError, match="breaks row 0 by 2.000e-06"):
        SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]).solve()
    # Within TOL_FEAS of the row's scale the vertex passes.
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) + 1e-9)
    sol = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]).solve()
    assert sol.value == pytest.approx(1.5)


def test_vertex_breaking_a_bound_raises_solver_error(monkeypatch):
    extract = SimplexSolver._extract
    monkeypatch.setattr(SimplexSolver, "_extract", lambda self: extract(self) - [0.0, 1e-6])
    with pytest.raises(SolverError, match="bounds of variable 1"):
        SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, -1.0]).solve()


def test_unscaled_cutting_plane_master_falls_short_of_highs():
    # Entries from 1e-5 to 1 defeat the absolute pivot and reduced-cost
    # tolerances: the dual pass ends on a vertex that meets every row but
    # lies 2.16e-10 below HiGHS run at feasibility tolerances of 1e-10.
    # The scaled master of the same 53 pins meets 1e-12, so the envelope
    # code must scale it.
    path = Path(__file__).parent / "data" / "unscaled_master_53pins.json"
    data = json.loads(path.read_text())
    A = np.zeros((len(data["rows"]), data["n"]))
    for i, row in enumerate(data["rows"]):
        for j, value in row:
            A[i, j] = value
    b, lower, upper, c = (np.array(data[key]) for key in ("b", "lower", "upper", "c"))
    sol = SimplexSolver(A, b, lower, upper, c).solve()
    assert np.max(A @ sol.x - b) <= 1e-15
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(-c, A_ub=A, b_ub=b, bounds=list(zip(lower, upper)), method="highs",
                  options=tight)
    assert res.status == 0, res.message
    assert -res.fun - sol.value == pytest.approx(2.16e-10, abs=1e-11)


def test_appended_batches_match_scipy_on_random_problems():
    rng = np.random.default_rng(2025)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        c, A, b, lower, upper = random_problem(rng, n, int(rng.integers(1, 9)))
        # One solver built with the first rows; one built with none, solved
        # at the box corner, then fed the first rows through add_rows.
        built = SimplexSolver(A, b, lower, upper, c)
        fed = SimplexSolver(np.zeros((0, n)), [], lower, upper, c)
        corner = fed.solve()
        assert corner.value == pytest.approx(np.maximum(c * lower, c * upper).sum())
        fed.add_rows(A, b)
        solvers = (built, fed)
        before = [solver.solve().iterations for solver in solvers]
        for batch in range(int(rng.integers(1, 6))):
            _, A_new, b_new, _, _ = random_problem(rng, n, int(rng.integers(1, 5)))
            A, b = np.vstack([A, A_new]), np.concatenate([b, b_new])
            ref = scipy_max(c, A, b, lower, upper)
            for s, solver in enumerate(solvers):
                solver.add_rows(A_new, b_new)
                ours = solver.solve()
                assert ours.iterations >= before[s]
                before[s] = ours.iterations
                assert ours.value == pytest.approx(ref, abs=1e-7), \
                    f"trial {trial}, batch {batch}, solver {s}"
                assert np.all(A @ ours.x <= b + 1e-8)
                assert np.all(ours.x >= lower - 1e-9) and np.all(ours.x <= upper + 1e-9)
                assert c @ ours.x == pytest.approx(ours.value, abs=1e-9)


def test_dual_infeasible_end_raises_solver_error():
    # x starts at its lower bound although its cost favours the upper one;
    # the dual pass has no row to repair, so the certificate must catch it.
    solver = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert solver.status[0] == AT_UPPER
    solver.status[0] = AT_LOWER
    with pytest.raises(SolverError, match="reduced cost 1.000e\\+00 of column 0"):
        solver.solve()
    # The same start with x's cost negative is dual feasible.
    solver = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [-1.0, 1.0])
    assert solver.status[0] == AT_LOWER
    assert solver.solve().x == pytest.approx([0.0, 1.0])


def test_rows_appended_before_the_first_solve_go_through_the_dual_pass():
    solver = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [-1.0, 1.0])
    solver.add_rows([[-1.0, 0.0]], [-0.75])  # x >= 0.75
    sol = solver.solve()
    assert sol.x == pytest.approx([0.75, 0.75])


def test_appended_row_cutting_off_the_vertex_moves_it():
    solver = SimplexSolver([[1.0, 2.0]], [2.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    first = solver.solve()
    assert first.x == pytest.approx([1.0, 0.75])
    # 2x + y <= 2 cuts (1, 0.75) off; the new vertex is where both rows bind.
    solver.add_rows([[2.0, 1.0]], [2.0])
    assert 2.0 * first.x[0] + first.x[1] > 2.0
    second = solver.solve()
    assert second.x == pytest.approx([0.5, 1.0])
    assert second.value == pytest.approx(1.5)
    assert second.iterations > first.iterations


def test_appended_rows_that_empty_the_region_raise_infeasible_error():
    solver = SimplexSolver([[1.0, 1.0]], [1.5], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    solver.solve()
    solver.add_rows([[-1.0, 0.0], [-1.0, -1.0]], [-0.5, -2.5])  # x + y >= 2.5
    with pytest.raises(InfeasibleError):
        solver.solve()


@pytest.mark.parametrize("miss, feasible", [(1e-9, True), (1e-7, False)])
def test_appended_row_missed_by_a_residual_matches_a_cold_solve(miss, feasible):
    # x <= 1 leaves x >= 1 + miss unreachable by miss; appended after a
    # solve or stacked from the start, the dual pass accepts a miss up to
    # TOL_FEAS.
    live = SimplexSolver([[1.0]], [1.0], [0.0], [1.0], [1.0])
    live.solve()
    live.add_rows([[-1.0]], [-(1.0 + miss)])
    cold = SimplexSolver([[1.0], [-1.0]], [1.0, -(1.0 + miss)], [0.0], [1.0], [1.0])
    for solver in (live, cold):
        if feasible:
            assert solver.solve().x == pytest.approx([1.0])
        else:
            with pytest.raises(InfeasibleError):
                solver.solve()
