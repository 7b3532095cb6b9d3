"""Dense bounded-variable dual simplex.  No module of the package uses it: the
benchmark's tracer and the tests' ``simplex_accepts`` still import it.

Solves   max c.x   subject to   A x <= b,  lower <= x <= upper,

for one objective, fixed at construction, over a region that gains rows.
Every structural bound must be finite; slacks get [0, inf).  The first basis
is then dual feasible: every slack basic and every structural at the bound
its cost favours.  Rows enter only through ``add_rows``, which expresses each
in the current basis with its slack basic, so every reduced cost stays as it
was.  Each ``solve`` is therefore one bounded dual simplex back to primal
feasibility, followed by an optimality certificate: one pricing pass that
raises ``SolverError`` if a nonbasic reduced cost is on the wrong side.
Pricing is Dantzig with a switch to Bland's rule after a run of degenerate
steps, which guarantees termination.  ``iterations`` counts every dual pivot
plus one pricing pass per solve, summed over the solver's life.  ``solve``
raises ``SolverError`` rather than return a vertex that breaks a row or a
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError

TOL_RC = 1e-9      # reduced-cost optimality tolerance
TOL_PIV = 1e-10    # smallest acceptable pivot magnitude
TOL_FEAS = 1e-8    # row miss the dual pass accepts as feasible
TOL_DUAL = 1e-13   # bound violation at which the dual pass moves a basic variable
DEGEN_LIMIT = 60   # degenerate steps before switching to Bland's rule
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


def _grow(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` with k zero rows and k zero columns appended."""
    out = np.zeros((a.shape[0] + k, a.shape[1] + k))
    out[: a.shape[0], : a.shape[1]] = a
    return out


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    value: float
    iterations: int


class SimplexSolver:
    """Solver for one objective over a region that gains rows."""

    def __init__(self, A, b, lower, upper, c):
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        n = c.size
        if lower.size != n or upper.size != n:
            raise ValueError("inconsistent LP dimensions")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ValueError("every variable needs finite bounds")
        if np.any(lower > upper + 1e-12):
            raise InfeasibleError("a variable has lower bound above its upper bound")

        self.n_struct = n
        self.n_rows = 0
        # Columns: structural, then one slack per row.
        self.cols = np.zeros((0, n))
        self.T = np.zeros((0, n))
        self.tb = np.zeros(0)
        self.b = np.zeros(0)
        self.lower = np.minimum(lower, upper)
        self.upper = upper.copy()
        self.c = c.copy()  # over every column; slacks cost nothing
        self.basis = np.zeros(0, dtype=int)
        # Each structural at the bound its cost favours: dual feasible.
        self.status = np.where(c > 0.0, AT_UPPER, AT_LOWER).astype(np.int8)
        self.iterations = 0
        self._infeasibility = 0.0  # the largest row miss accepted as feasible
        self.add_rows(A, b)

    # -- public ------------------------------------------------------------

    def solve(self) -> LPSolution:
        """Maximize c.x from the current basis: dual pivots back to primal
        feasibility, then the optimality certificate."""
        self._dual()
        self._certify()
        x = self._extract()
        self._check_vertex(x)
        return LPSolution(x, float(self.c[: self.n_struct] @ x), self.iterations)

    def add_rows(self, A, b):
        """Append the rows A x <= b; the next ``solve`` starts from the kept basis."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        k, n = A.shape
        if n != self.n_struct or b.size != k:
            raise ValueError("inconsistent LP dimensions")
        m, width = self.T.shape
        self.cols, self.T = _grow(self.cols, k), _grow(self.T, k)
        for M in (self.cols, self.T):
            M[m:, :n] = A
            M[m:, width:] = np.eye(k)
        # In the basis, subtract each basic structural column's tableau row.
        rows = np.flatnonzero(self.basis < n)
        coef = A[:, self.basis[rows]]
        self.T[m:] -= coef @ self.T[rows]
        self.T[m:, self.basis[rows]] = 0.0
        self.tb = np.concatenate([self.tb, b - coef @ self.tb[rows]])
        self.b = np.concatenate([self.b, b])
        self.lower = np.concatenate([self.lower, np.zeros(k)])
        self.upper = np.concatenate([self.upper, np.full(k, np.inf)])
        self.c = np.concatenate([self.c, np.zeros(k)])
        self.status = np.concatenate([self.status, np.full(k, BASIC, dtype=np.int8)])
        self.basis = np.concatenate([self.basis, np.arange(width, width + k)])
        self.n_rows += k

    # -- internals ----------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.status == AT_UPPER, self.upper, self.lower)
        vals[self.status == BASIC] = 0.0
        return vals

    def _basic_solution(self) -> np.ndarray:
        return self.tb - self.T @ self._nonbasic_values()

    def _reduced_costs(self) -> np.ndarray:
        return self.c - self.c[self.basis] @ self.T

    def _dual(self):
        """Bounded dual simplex from a dual feasible basis: pivot out the
        basic variable furthest outside its bounds until none is.  A row no
        column can repair proves the region infeasible, unless it misses by
        at most TOL_FEAS, which is accepted as feasible."""
        bland = False
        degen_streak = 0
        accepted = np.zeros(self.n_rows, dtype=bool)
        max_iter = 10_000 + 50 * (self.n_rows + self.T.shape[1])
        for _ in range(max_iter):
            xb = self._basic_solution()
            lo_b, up_b = self.lower[self.basis], self.upper[self.basis]
            outside = np.maximum(lo_b - xb, xb - up_b)
            rows = np.flatnonzero((outside > TOL_DUAL) & ~accepted)
            if rows.size == 0:
                return
            if bland:
                row = int(rows[np.argmin(self.basis[rows])])
            else:
                row = int(rows[np.argmax(outside[rows])])
            rise = xb[row] < lo_b[row]
            # x_B[row] = tb[row] - T[row] . x_N rises as a column at its lower
            # bound grows with alpha < 0 or one at its upper shrinks with alpha > 0.
            alpha = self.T[row] if rise else -self.T[row]
            at_lower = self.status == AT_LOWER
            eligible = (self.status != BASIC) & (self.lower < self.upper)
            eligible &= np.where(at_lower, alpha < -TOL_PIV, alpha > TOL_PIV)
            candidates = np.flatnonzero(eligible)
            if candidates.size == 0:
                if outside[row] > TOL_FEAS:
                    raise InfeasibleError(
                        f"constraints are infeasible (residual {outside[row]:.3e})")
                self._infeasibility = max(self._infeasibility, float(outside[row]))
                accepted[row] = True
                continue
            # The ratio test keeps every reduced cost on its optimal side.
            r = self._reduced_costs()
            r = np.maximum(np.where(at_lower, -r, r)[candidates], 0.0)
            ratio = r / np.abs(alpha[candidates])
            theta = float(ratio.min())
            tied = candidates[ratio <= theta + TOL_PIV]
            q = int(tied[0] if bland else tied[np.argmax(np.abs(alpha[tied]))])
            self.iterations += 1
            self._pivot(row, q, AT_LOWER if rise else AT_UPPER)
            if theta <= TOL_PIV:
                degen_streak += 1
                bland = bland or degen_streak >= DEGEN_LIMIT
            else:
                degen_streak = 0
                bland = False
        raise SolverError("dual simplex iteration limit exceeded")

    def _certify(self):
        """One pricing pass: raise SolverError unless no nonbasic variable
        could improve the objective by leaving its bound."""
        self.iterations += 1
        r = self._reduced_costs()
        movable = (self.status != BASIC) & (self.lower < self.upper)
        wrong = movable & np.where(self.status == AT_LOWER, r > TOL_RC, r < -TOL_RC)
        if np.any(wrong):
            j = int(np.flatnonzero(wrong)[0])
            raise SolverError(f"dual simplex ended off the optimum: reduced cost "
                              f"{r[j]:.3e} of column {j}")

    def _pivot(self, row: int, col: int, leaves_at: int):
        """Column ``col`` enters the basis in ``row``; the variable there
        leaves at its lower or upper bound (``leaves_at``)."""
        self.status[self.basis[row]] = leaves_at
        self.basis[row] = col
        self.status[col] = BASIC
        piv = self.T[row, col]
        if abs(piv) < TOL_PIV:
            raise SolverError("numerically singular pivot")
        self.T[row, :] /= piv
        self.tb[row] /= piv
        factor = self.T[:, col].copy()
        factor[row] = 0.0
        self.T -= np.outer(factor, self.T[row, :])
        self.tb -= factor * self.tb[row]
        # Clean the pivot column exactly.
        self.T[:, col] = 0.0
        self.T[row, col] = 1.0

    def _extract(self) -> np.ndarray:
        """Recompute the vertex from the basis by a direct solve (no pivot drift)."""
        x = self._nonbasic_values()
        B = self.cols[:, self.basis]
        rhs = self.b - self.cols @ x
        try:
            xb = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError:  # pragma: no cover - basis is nonsingular
            xb = self._basic_solution()
        x[self.basis] = xb
        return x[: self.n_struct].copy()

    def _check_vertex(self, x: np.ndarray):
        """Raise SolverError unless x meets every row and bound.

        The tolerances above are absolute, so on a badly scaled problem the
        pivots can end on a basis whose vertex breaks a row.  A row may break
        by the largest miss the dual pass accepted, plus TOL_FEAS times the
        row's scale |b_i| + sum_j |A_ij x_j|; a bound by TOL_FEAS times the
        bound, with a floor of 1.
        """
        A = self.cols[:, : self.n_struct]
        residual = A @ x - self.b
        scale = np.abs(A) @ np.abs(x) + np.abs(self.b)
        broken = np.flatnonzero(residual > self._infeasibility + TOL_FEAS * scale)
        if broken.size:
            i = int(broken[np.argmax(residual[broken])])
            raise SolverError(f"simplex vertex breaks row {i} by {residual[i]:.3e}")
        lower, upper = self.lower[: self.n_struct], self.upper[: self.n_struct]
        below = lower - x > TOL_FEAS * np.maximum(np.abs(lower), 1.0)
        above = x - upper > TOL_FEAS * np.maximum(np.abs(upper), 1.0)
        if np.any(below | above):
            j = int(np.flatnonzero(below | above)[0])
            raise SolverError(f"simplex vertex breaks the bounds of variable {j}")

