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
instances are routinely degenerate.

The ratio test is Harris's two-pass test (Harris 1973, "Pivot selection
methods of the Devex LP code").  Pass 1 finds the longest step along
the entering direction with every basic bound relaxed by ``feas_tol``.
Pass 2 takes, among the rows whose exact ratio lies within that step,
the one with the largest pivot element (under Bland's rule, the lowest
variable index) and moves by its exact ratio, never by less than zero;
a bounded entering variable whose range fits within the pass-1 step
flips to its other bound instead.
A near-tie between a noise entry and a real pivot thus goes to the real
pivot, at the price of leaving other basic values up to ``feas_tol``
outside their bounds, which ``_verify`` accepts.  An entry of the
entering column counts as a pivot only above ``_PIVOT_TOL`` times the
larger of 1 and the column's largest magnitude, so the tolerance
follows the column's scale.

A solve starts from one basis and runs phase 1 only when that start is
infeasible.  By default the start is one signed artificial column per
row, with every structural variable resting on a bound; it is feasible
when the residual ``b - A x0`` of that resting point is all zero, as for
a zero right-hand side.  A caller that knows a feasible point may pass
``basis``, one structural column index per row (a crash basis).  The
kernel factors it once and takes the basic values with every other
variable at its resting bound; if the basis is non-singular and those
values lie within their bounds to ``feas_tol``, the artificials are
pinned at zero and the solve goes straight to phase 2.  Otherwise the
hint is dropped for the artificial start.  Phase 1 is a subproblem over
the artificial columns (no big-M terms).  Phase 2 pins every artificial
at zero, so one still basic there leaves through the ratio test, by a
degenerate pivot, once an entering column would move it; one on a
redundant row stays basic at zero.

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
    "RamdeaError",
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

# Smallest magnitude accepted as a pivot / ratio-test denominator,
# relative to the entering column's largest entry when that exceeds 1.
_PIVOT_TOL = 1e-10
# Smallest objective gain per unit step that counts as an improvement.
_OPT_TOL = 1e-9
# Pivot budget of one solve, per row and column of its program.
_PIVOTS_PER_DIMENSION = 50


class RamdeaError(Exception):
    """Base of every error the package raises about its data or its solves."""


class LpError(RamdeaError):
    """Numerical failure inside the simplex kernel."""


class IterationLimitError(LpError):
    """Pivot budget exhausted before any conclusive status was reached."""


@dataclass(frozen=True)
class SolverSettings:
    """Feasibility tolerance shared by every solve."""

    feas_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (np.isfinite(self.feas_tol) and self.feas_tol > 0.0):
            raise ValueError("feas_tol must be finite and strictly positive")


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
    """Outcome of one solve; ``primal``/``objective_value``/``duals`` only when optimal.

    ``duals`` holds one multiplier per equality row in the caller's
    sense: the objective's rate of change per unit of that row's
    right-hand side, so ``objective - duals @ constraint_matrix`` are the
    reduced costs of the optimal basis.
    """

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    duals: np.ndarray | None = None
    phase1_iterations: int = 0


def solve(lp: LinearProgram, settings: SolverSettings | None = None,
          basis=None) -> LpSolution:
    """Run the two-phase bounded-variable simplex on ``lp``.

    ``basis``, if given, is a starting basis of ``lp.rows`` distinct
    structural column indices (``ValueError`` otherwise); it is used
    only when it is non-singular and feasible, and otherwise ignored.

    Returns an ``LpSolution`` whose status is one of ``optimal``,
    ``infeasible`` or ``unbounded``.  ``iterations`` counts every pivot
    and bound flip, ``phase1_iterations`` those spent finding a feasible
    basis.  Raises ``IterationLimitError`` when the pivot budget of
    50 * (rows + columns) runs out, which signals numerical trouble
    rather than a property of the problem.
    """
    return _SimplexState(lp, settings or SolverSettings(), basis).run()


class _SimplexState:
    """One solve's worth of mutable simplex state.

    Variable states: -1 basic, 0 nonbasic at lower bound, 1 nonbasic at
    upper bound, 2 nonbasic free (resting at zero).  ``x_off`` holds the
    resting value of every nonbasic variable and zero for the basics;
    ``x_basic`` holds the basic values in basis order.
    """

    def __init__(self, lp: LinearProgram, settings: SolverSettings, basis=None):
        self.lp = lp
        self.settings = settings
        p, q = lp.rows, lp.cols
        self.p = p
        self.q = q
        self.max_iter = _PIVOTS_PER_DIMENSION * (p + q)
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
        self.phase1_iterations = 0
        self.consec_degenerate = 0
        self.bland = False
        if basis is not None:
            self._crash(basis)

    def _crash(self, basis) -> None:
        """Start from the caller's structural basis if it is feasible."""
        p, q = self.p, self.q
        basis = np.array(basis, dtype=np.int64, ndmin=1)
        if (basis.shape != (p,) or np.unique(basis).size != p
                or basis.min() < 0 or basis.max() >= q):
            raise ValueError(f"basis must hold {p} distinct column indices below {q}")
        x_off = self.x_off.copy()
        x_off[basis] = 0.0
        A = self.lp.constraint_matrix
        try:
            x_basic = _checked_solve(A[:, basis], self.lp.rhs - A @ x_off[:q])
        except LpError:
            return  # singular: keep the artificial start
        tol = self.settings.feas_tol
        if not np.all((x_basic >= self.lo[basis] - tol) & (x_basic <= self.hi[basis] + tol)):
            return  # infeasible: keep the artificial start
        self.basis = basis
        self.x_basic = x_basic
        self.x_off = x_off
        self.state[basis] = -1
        self.state[q:] = 0  # every artificial nonbasic at zero

    def run(self) -> LpSolution:
        p, q = self.p, self.q
        # phase 1 runs only when the start leaves an artificial non-zero
        if np.any(self.x_basic[self.basis >= q]):
            phase1_cost = np.zeros(q + p)
            phase1_cost[q:] = 1.0
            status = self._minimize(phase1_cost)
            if status != OPTIMAL:
                raise LpError("phase-1 subproblem reported unbounded")  # cost >= 0 always
            self.phase1_iterations = self.iterations
            infeas = float(phase1_cost @ self._primal())
            if infeas > self.settings.feas_tol * (p + float(np.abs(self.lp.rhs).sum())):
                return LpSolution(INFEASIBLE, iterations=self.iterations,
                                  phase1_iterations=self.phase1_iterations)
        self.lo[q:] = 0.0
        self.hi[q:] = 0.0  # artificials stay pinned at zero from here on
        sign = 1.0 if self.lp.sense == "minimize" else -1.0
        phase2_cost = np.concatenate([sign * self.lp.objective, np.zeros(p)])
        status = self._minimize(phase2_cost)
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, iterations=self.iterations,
                              phase1_iterations=self.phase1_iterations)
        x = self._primal()[:q]
        self._verify(x)
        return LpSolution(
            OPTIMAL,
            primal=x,
            objective_value=float(self.lp.objective @ x),
            iterations=self.iterations,
            duals=sign * self.duals,
            phase1_iterations=self.phase1_iterations,
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
                self.duals = y
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
            j = int(np.argmax(gain > _OPT_TOL))
        else:
            j = int(np.argmax(gain))  # Dantzig: steepest, first on ties
        if not gain[j] > _OPT_TOL:
            return None
        return j, 1.0 if reduced[j] < 0.0 else -1.0

    def _ratio_test(self, j: int, sigma: float, w: np.ndarray):
        bi = self.basis
        xb = self.x_basic
        move = sigma * w  # basics change by -move * step
        size = np.abs(move)
        pivot_tol = _PIVOT_TOL * max(1.0, float(size.max()))
        # exact step to each basic's bound; an infinite bound, or an entry
        # too small to pivot on, gives an infinite limit that never binds
        exact = np.full(self.p, np.inf)
        np.divide(xb - self.lo[bi], move, out=exact, where=move > pivot_tol)
        np.divide(self.hi[bi] - xb, -move, out=exact, where=move < -pivot_tol)
        # pass 1: the longest step with every basic bound relaxed by feas_tol
        longest = float((exact + self.settings.feas_tol
                         / np.maximum(size, pivot_tol)).min())
        own_range = float(self.hi[j] - self.lo[j])
        if own_range <= longest:
            if own_range == np.inf:
                return None, None, None
            return own_range, None, None  # bound-to-bound flip, basis unchanged
        # pass 2: among the rows that bind within that step, the largest
        # pivot element (Bland: the lowest variable index), first on ties
        within = exact <= longest
        if self.bland:
            rows = np.flatnonzero(within)
            pos = int(rows[np.argmin(bi[rows])])
        else:
            pos = int(np.argmax(np.where(within, size, -1.0)))
        return max(float(exact[pos]), 0.0), pos, bool(move[pos] < 0.0)

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
