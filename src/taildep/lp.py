"""Dense bounded-variable simplex, kept in-repo so the envelope code has no
external solver dependency.  It solves the master LP of the cutting plane
behind the ``avg_td`` maximum in ``taildep.envelope``: a few epigraph and
slope variables per interior pin, not one variable per grid point.

Solves   max c.x   subject to   A x <= b,  lower <= x <= upper.

Nonbasic variables sit at one of their bounds; slacks get [0, inf).  Phase 1
introduces artificial columns only on rows whose slack starts negative and
maximizes minus their sum; afterwards the artificials are frozen at zero (they
act as fixed columns, so no tableau surgery is needed).  Pricing is Dantzig
with a switch to Bland's rule after a run of degenerate steps, which
guarantees termination.  The solver keeps its basis between ``solve`` calls,
so sweeping many objectives over one feasible region is cheap.

``add_rows`` appends cuts to the live tableau, each expressed in the current
basis with its slack basic.  Appending rows leaves every reduced cost as it
was, so the last optimal basis stays dual feasible, and the next ``solve``
first runs a bounded dual simplex back to primal feasibility, then the primal
loop; phase 1 runs only once per solver.  ``iterations`` counts every pricing
pass of phase 1 and the primal loop and every dual pivot, summed over the
solver's life.  ``solve`` raises ``SolverError`` rather than return a vertex
that breaks a row or a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError, UnboundedError

TOL_RC = 1e-9      # reduced-cost optimality tolerance
TOL_PIV = 1e-10    # smallest acceptable pivot magnitude
TOL_FEAS = 1e-8    # phase-1 residual accepted as feasible
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
    """Reusable solver for one feasible region and many objectives."""

    def __init__(self, A, b, lower, upper):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        m, n = A.shape
        if b.size != m or lower.size != n or upper.size != n:
            raise ValueError("inconsistent LP dimensions")
        if np.any(lower > upper + 1e-12):
            raise InfeasibleError("a variable has lower bound above its upper bound")

        self.n_struct = n
        self.n_rows = m
        # Columns: structural, slack, then (appended lazily) artificial.
        self.cols = np.hstack([A, np.eye(m)])
        self.lower = np.concatenate([np.minimum(lower, upper), np.full(m, 0.0)])
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.b = b.copy()

        self.T = self.cols.copy()
        self.tb = b.copy()
        self.basis = np.arange(n, n + m)
        self.status = np.full(n + m, AT_LOWER, dtype=np.int8)
        self.status[self.basis] = BASIC
        self.iterations = 0
        self._c = None  # objective the basis is optimal for; None before phase 1
        self._infeasibility = 0.0  # the residual accepted as feasible

    # -- public ------------------------------------------------------------

    def solve(self, c) -> LPSolution:
        """Maximize c.x from the current basis: phase 1 on the first call, a
        dual pass over appended rows on later ones, then the primal loop."""
        c = np.asarray(c, dtype=float).ravel()
        if c.size != self.n_struct:
            raise ValueError("objective length must match the structural variables")
        if self._c is None:
            self._phase1()
        else:
            self._dual(self._c)
        c_full = np.zeros(self.T.shape[1])
        c_full[: self.n_struct] = c
        self._optimize(c_full)
        self._c = c_full
        x = self._extract()
        self._check_vertex(x)
        return LPSolution(x, float(c @ x), self.iterations)

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
        self.status = np.concatenate([self.status, np.full(k, BASIC, dtype=np.int8)])
        self.basis = np.concatenate([self.basis, np.arange(width, width + k)])
        if self._c is not None:
            self._c = np.concatenate([self._c, np.zeros(k)])
        self.n_rows += k

    # -- internals ----------------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.status == AT_UPPER, self.upper, self.lower)
        vals[self.status == BASIC] = 0.0
        return vals

    def _basic_solution(self) -> np.ndarray:
        return self.tb - self.T @ self._nonbasic_values()

    def _phase1(self):
        xb = self._basic_solution()
        bad = np.flatnonzero(xb < self.lower[self.basis] - TOL_FEAS)
        if bad.size:
            n_old = self.T.shape[1]
            art_cols = np.zeros((self.n_rows, bad.size))
            for j, row in enumerate(bad):
                art_cols[row, j] = -1.0
            self.cols = np.hstack([self.cols, art_cols])
            # B^-1 is the slack block of the tableau.
            binv = self.T[:, self.n_struct : self.n_struct + self.n_rows]
            self.T = np.hstack([self.T, binv @ art_cols])
            self.lower = np.concatenate([self.lower, np.zeros(bad.size)])
            self.upper = np.concatenate([self.upper, np.full(bad.size, np.inf)])
            self.status = np.concatenate([self.status, np.full(bad.size, AT_LOWER, dtype=np.int8)])
            for j, row in enumerate(bad):
                # Swap the negative slack out for the artificial, directly.
                self._pivot(row, n_old + j, AT_LOWER)
            c_art = np.zeros(self.T.shape[1])
            c_art[n_old:] = -1.0
            self._optimize(c_art)
            residual = -float(c_art @ self._full_solution())
            if residual > TOL_FEAS:
                raise InfeasibleError(f"constraints are infeasible (residual {residual:.3e})")
            self._infeasibility = residual
            # Freeze artificials at zero; fixed columns never re-enter.
            self.upper[n_old:] = 0.0

    def _full_solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self._basic_solution()
        return x

    def _dual(self, c_full: np.ndarray):
        """Bounded dual simplex from a basis optimal for ``c_full``: pivot out
        the basic variable furthest outside its bounds until none is.  A row
        no column can repair proves the region infeasible, unless it misses by
        at most TOL_FEAS, which is accepted like a phase-1 residual."""
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
            r = c_full - c_full[self.basis] @ self.T
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

    def _optimize(self, c_full: np.ndarray):
        bland = False
        degen_streak = 0
        max_iter = 10_000 + 50 * (self.n_rows + self.T.shape[1])
        for _ in range(max_iter):
            self.iterations += 1
            xb = self._basic_solution()
            r = c_full - c_full[self.basis] @ self.T
            movable = self.status != BASIC
            movable &= self.lower < self.upper  # fixed columns never move
            improving = movable & (
                ((self.status == AT_LOWER) & (r > TOL_RC))
                | ((self.status == AT_UPPER) & (r < -TOL_RC))
            )
            candidates = np.flatnonzero(improving)
            if candidates.size == 0:
                return
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmax(np.abs(r[candidates]))])
            direction = 1.0 if self.status[q] == AT_LOWER else -1.0

            d = direction * self.T[:, q]
            lo_b = self.lower[self.basis]
            up_b = self.upper[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = np.where(d > TOL_PIV, (xb - lo_b) / d, np.inf)
                inc = np.where(d < -TOL_PIV, (up_b - xb) / (-d), np.inf)
            limits = np.minimum(dec, inc)
            limits = np.maximum(limits, 0.0)  # degenerate rows clamp at zero
            row_step = float(np.min(limits)) if limits.size else np.inf
            flip_step = self.upper[q] - self.lower[q]

            if flip_step <= row_step:
                if not np.isfinite(flip_step):
                    raise UnboundedError("objective is unbounded over the feasible region")
                self.status[q] = AT_UPPER if self.status[q] == AT_LOWER else AT_LOWER
                step = flip_step
            else:
                tied = np.flatnonzero(limits <= row_step + TOL_PIV)
                if bland:
                    leave = tied[np.argmin(self.basis[tied])]
                else:
                    leave = tied[np.argmax(np.abs(d[tied]))]
                self._pivot(int(leave), q, AT_LOWER if d[leave] > 0 else AT_UPPER)
                step = row_step

            if step <= TOL_PIV:
                degen_streak += 1
                if degen_streak >= DEGEN_LIMIT:
                    bland = True
            else:
                degen_streak = 0
                bland = False
        raise SolverError("simplex iteration limit exceeded")

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
        by the residual phase 1 accepted, plus TOL_FEAS times the row's scale
        |b_i| + sum_j |A_ij x_j|; a bound by TOL_FEAS times the bound, with a
        floor of 1.
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

