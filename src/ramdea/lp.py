"""Dense linear-programming kernel with native per-variable bounds.

Solves problems of the form

    optimize   c . x
    such that  A x = b,   l <= x <= u   (componentwise)

with a two-phase revised simplex in which every nonbasic variable rests
at one of its finite bounds (or at zero when both bounds are infinite).
Bounds never become extra rows, so the basis stays as large as the
number of equality rows regardless of how many variables are boxed.
Callers that need inequality rows add their own slack variables.

Pricing is Dantzig's rule with an automatic and reversible fallback to
Bland's rule once a run of degenerate pivots is detected; DEA-style
instances are routinely degenerate.  Feasibility is established by a
phase-1 subproblem over signed artificial columns (no big-M terms).

Every pivot factors the basis afresh with numpy's LAPACK solver: a
solve with the transposed basis gives the row duals for pricing, and one
solve with the basis itself gives the basic values and the entering
column together.  A singular basis or a non-finite solve raises
``LpError`` rather than carrying NaN into the result.

A ``LinearProgram`` is immutable after construction and safe to share
across concurrent solves; each ``solve`` call owns all of its state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LpError",
    "IterationLimitError",
    "SolverSettings",
    "LinearProgram",
    "LpSolution",
    "solve",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Smallest magnitude accepted as a pivot / ratio-test denominator.
_PIVOT_TOL = 1e-10


class LpError(Exception):
    """Numerical failure inside the simplex kernel."""


class IterationLimitError(LpError):
    """Pivot budget exhausted before any conclusive status was reached."""


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and limits shared by every solve.

    ``max_iterations`` of ``None`` means 50 * (rows + columns) of the
    problem being solved.
    """

    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.feas_tol <= 0.0 or self.opt_tol <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


class LinearProgram:
    """Equality-constrained LP with per-variable bounds, immutable once built.

    Parameters
    ----------
    sense : "maximize" or "minimize"
    objective : length-q cost vector
    constraint_matrix : dense p x q matrix of equality rows
    rhs : length-p right-hand side
    lower_bounds : length-q vector, default all zeros; -inf entries allowed
    upper_bounds : length-q vector, default all +inf
    """

    def __init__(self, sense, objective, constraint_matrix, rhs,
                 lower_bounds=None, upper_bounds=None):
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"sense must be 'maximize' or 'minimize', got {sense!r}")
        # private copies, so freezing them below cannot affect the caller
        A = np.array(constraint_matrix, dtype=float, ndmin=2)
        c = np.array(objective, dtype=float, ndmin=1)
        b = np.array(rhs, dtype=float, ndmin=1)
        if A.ndim != 2:
            raise ValueError("constraint_matrix must be two-dimensional")
        p, q = A.shape
        if p < 1 or q < 1:
            raise ValueError("constraint matrix needs at least one row and one column")
        if c.shape != (q,):
            raise ValueError(f"objective has length {c.shape[0]}, expected {q}")
        if b.shape != (p,):
            raise ValueError(f"rhs has length {b.shape[0]}, expected {p}")
        lo = np.zeros(q) if lower_bounds is None else \
            np.array(lower_bounds, dtype=float, ndmin=1)
        hi = np.full(q, np.inf) if upper_bounds is None else \
            np.array(upper_bounds, dtype=float, ndmin=1)
        if lo.shape != (q,) or hi.shape != (q,):
            raise ValueError(f"bound vectors must have length {q}")
        for name, arr in (("objective", c), ("constraint_matrix", A), ("rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not contain NaN")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        for arr in (A, c, b, lo, hi):
            arr.setflags(write=False)
        self.sense = sense
        self.objective = c
        self.constraint_matrix = A
        self.rhs = b
        self.lower_bounds = lo
        self.upper_bounds = hi

    @property
    def rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.constraint_matrix.shape[1]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Outcome of one solve; ``primal``/``objective_value`` only when optimal."""

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0


def solve(lp: LinearProgram, settings: SolverSettings | None = None) -> LpSolution:
    """Run the two-phase bounded-variable simplex on ``lp``.

    Returns an ``LpSolution`` whose status is one of ``optimal``,
    ``infeasible`` or ``unbounded``.  Raises ``IterationLimitError`` when
    the pivot budget runs out, which signals numerical trouble rather
    than a property of the problem.
    """
    return _SimplexState(lp, settings or SolverSettings()).run()


class _SimplexState:
    """One solve's worth of mutable simplex state.

    Variable states: -1 basic, 0 nonbasic at lower bound, 1 nonbasic at
    upper bound, 2 nonbasic free (resting at zero).  ``x_off`` holds the
    resting value of every nonbasic variable and zero for the basics;
    ``x_basic`` holds the basic values in basis order.
    """

    def __init__(self, lp: LinearProgram, settings: SolverSettings):
        self.lp = lp
        self.settings = settings
        p, q = lp.rows, lp.cols
        self.p = p
        self.q = q
        self.max_iter = settings.max_iterations or 50 * (p + q)
        lo, hi = lp.lower_bounds, lp.upper_bounds
        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        resid = lp.rhs - lp.constraint_matrix @ x0
        sg = np.where(resid >= 0.0, 1.0, -1.0)
        self.A = np.hstack([lp.constraint_matrix, np.diag(sg)])
        self.lo = np.concatenate([lo, np.zeros(p)])
        self.hi = np.concatenate([hi, np.full(p, np.inf)])
        self.x_off = np.concatenate([x0, np.zeros(p)])
        self.x_basic = np.abs(resid)
        struct_state = np.where(np.isfinite(lo), 0, np.where(np.isfinite(hi), 1, 2))
        self.state = np.concatenate([struct_state, np.full(p, -1)]).astype(np.int64)
        self.basis = np.arange(q, q + p, dtype=np.int64)
        # right-hand sides of the primal solve: basic values, entering column
        self.primal_rhs = np.empty((p, 2))
        self.iterations = 0
        self.consec_degenerate = 0
        self.bland = False

    def run(self) -> LpSolution:
        p, q = self.p, self.q
        phase1_cost = np.zeros(q + p)
        phase1_cost[q:] = 1.0
        status = self._minimize(phase1_cost)
        if status != OPTIMAL:
            raise LpError("phase-1 subproblem reported unbounded")  # cost >= 0 always
        infeas = float(phase1_cost @ self._primal())
        if infeas > self.settings.feas_tol * (p + float(np.abs(self.lp.rhs).sum())):
            return LpSolution(INFEASIBLE, iterations=self.iterations)
        self._evict_artificials()
        self.lo[q:] = 0.0
        self.hi[q:] = 0.0  # artificials stay pinned at zero from here on
        sign = 1.0 if self.lp.sense == "minimize" else -1.0
        phase2_cost = np.concatenate([sign * self.lp.objective, np.zeros(p)])
        status = self._minimize(phase2_cost)
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, iterations=self.iterations)
        x = self._primal()[:q]
        self._verify(x)
        return LpSolution(
            OPTIMAL,
            primal=x,
            objective_value=float(self.lp.objective @ x),
            iterations=self.iterations,
        )

    # -- simplex core -------------------------------------------------

    def _minimize(self, cost: np.ndarray) -> str:
        # bounds change only between phases; variables pinned by equal
        # bounds never price
        self.movable = self.hi > self.lo
        A, rhs = self.A, self.primal_rhs
        while True:
            basic_cols = A[:, self.basis]
            y = _checked_solve(basic_cols.T, cost[self.basis])
            reduced = cost - y @ A
            rhs[:, 0] = self.lp.rhs - A @ self.x_off
            chosen = self._entering(reduced)
            if chosen is None:
                self.x_basic = _checked_solve(basic_cols, rhs[:, 0])
                return OPTIMAL
            if self.iterations >= self.max_iter:
                raise IterationLimitError(
                    f"no conclusion within {self.max_iter} pivots"
                )
            j, sigma = chosen
            rhs[:, 1] = A[:, j]
            solved = _checked_solve(basic_cols, rhs)
            self.x_basic = solved[:, 0]
            step, pos, hits_upper = self._ratio_test(j, sigma, solved[:, 1])
            if step is None:
                return UNBOUNDED
            self._pivot(j, step, pos, hits_upper)
            self.iterations += 1

    def _entering(self, reduced: np.ndarray):
        # gain: how fast the objective falls per unit step of a variable
        # moving in a direction its state allows; -inf where none is.
        # A free variable (state 2) may move either way.
        st = self.state
        can_inc = self.movable & ((st == 0) | (st == 2))
        can_dec = self.movable & (st >= 1)
        gain = np.maximum(np.where(can_inc, -reduced, -np.inf),
                          np.where(can_dec, reduced, -np.inf))
        if self.bland:
            j = int(np.argmax(gain > self.settings.opt_tol))
        else:
            j = int(np.argmax(gain))  # Dantzig: steepest, first on ties
        if not gain[j] > self.settings.opt_tol:
            return None
        return j, 1.0 if reduced[j] < 0.0 else -1.0

    def _ratio_test(self, j: int, sigma: float, w: np.ndarray):
        bi = self.basis
        xb = self.x_basic
        move = sigma * w  # basics change by -move * step
        # an infinite bound gives an infinite limit, so it never binds
        limits = np.full(self.p, np.inf)
        np.divide(xb - self.lo[bi], move, out=limits, where=move > _PIVOT_TOL)
        np.divide(self.hi[bi] - xb, -move, out=limits, where=move < -_PIVOT_TOL)
        np.maximum(limits, 0.0, out=limits)
        own_range = float(self.hi[j] - self.lo[j])
        basic_limit = float(limits.min())
        step = min(own_range, basic_limit)
        if step == np.inf:
            return None, None, None
        if own_range <= basic_limit:
            return step, None, None  # bound-to-bound flip, basis unchanged
        ties = limits <= basic_limit * (1.0 + 1e-12) + 1e-15
        if self.bland:
            tied = np.flatnonzero(ties)
            pos = int(tied[np.argmin(bi[tied])])
        else:
            # the largest pivot element among the ties, first on ties
            pos = int(np.argmax(np.where(ties, np.abs(move), -1.0)))
        return step, pos, bool(move[pos] < 0.0)

    def _pivot(self, j, step, pos, hits_upper) -> None:
        # basic values come afresh from the next solve with the basis,
        # so only nonbasic values move here
        if step <= self.settings.feas_tol:
            self.consec_degenerate += 1
            if self.consec_degenerate >= self.p + self.q:
                self.bland = True
        else:
            self.consec_degenerate = 0
            self.bland = False
        if pos is None:
            # entering variable flips to its opposite bound
            self._rest(j, self.state[j] == 0)
        else:
            self._swap(pos, j, hits_upper)

    def _rest(self, k: int, at_upper: bool) -> None:
        """Make variable ``k`` nonbasic at its upper or lower bound."""
        self.state[k] = 1 if at_upper else 0
        self.x_off[k] = self.hi[k] if at_upper else self.lo[k]

    def _swap(self, pos: int, j: int, leaves_at_upper: bool) -> None:
        """Variable ``j`` takes basis position ``pos``; its occupant leaves."""
        leaving = int(self.basis[pos])
        self.basis[pos] = j
        self.state[j] = -1
        self.x_off[j] = 0.0
        self._rest(leaving, leaves_at_upper)

    def _primal(self) -> np.ndarray:
        x = self.x_off.copy()
        x[self.basis] = self.x_basic
        return x

    def _evict_artificials(self) -> None:
        # Degenerate pivots that swap leftover artificials for structural
        # columns; redundant rows keep their artificial, pinned at zero.
        q = self.q
        for pos in range(self.p):
            if self.basis[pos] < q:
                continue
            unit = np.zeros(self.p)
            unit[pos] = 1.0
            row = _checked_solve(self.A[:, self.basis].T, unit) @ self.A[:, :q]
            nonbasic = np.flatnonzero(self.state[:q] != -1)
            if nonbasic.size == 0:
                continue
            best = int(nonbasic[np.argmax(np.abs(row[nonbasic]))])
            if abs(row[best]) <= 1e-9:
                continue
            self._swap(pos, best, False)

    def _verify(self, x: np.ndarray) -> None:
        # phrased so that a NaN anywhere fails every check
        lp, tol = self.lp, self.settings.feas_tol
        if not np.all(np.isfinite(x)):
            raise LpError("non-finite value at claimed optimum")
        if not np.all((x >= lp.lower_bounds - tol) & (x <= lp.upper_bounds + tol)):
            raise LpError("variable bound violated at claimed optimum")
        resid = np.abs(lp.constraint_matrix @ x - lp.rhs)
        if not np.all(resid <= tol * (1.0 + np.abs(lp.rhs))):
            raise LpError("equality row violated at claimed optimum")


def _checked_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` that raises ``LpError`` instead of returning NaN."""
    try:
        solved = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise LpError("singular basis matrix") from None
    if not np.isfinite(solved).all():
        raise LpError("basis solve gave non-finite values")
    return solved
