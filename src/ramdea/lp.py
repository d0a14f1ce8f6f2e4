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
outside their bounds, which the final check accepts.  An entry of the
entering column counts as a pivot only above ``_PIVOT_TOL`` times the
larger of 1 and the column's largest magnitude, so the tolerance
follows the column's scale.

A solve starts from one basis and runs phase 1 only when that start is
infeasible.  By default the start is one artificial column per row, the
unit vector of that row, with every structural variable resting on a
bound; the artificial of a row whose residual ``b - A x0`` at that
resting point is negative is bounded by ``(-inf, 0]``, the others by
``[0, inf)``, so the start is feasible when that residual is all zero,
as for a zero right-hand side.  A caller that knows a feasible point
may pass ``basis``, one structural column index per row (a crash
basis).  The kernel factors it once and takes the basic values with
every other variable at its resting bound; if the basis is non-singular
and those values lie within their bounds to ``feas_tol``, the
artificials are pinned at zero and the solve goes straight to phase 2.
Otherwise the hint is dropped for the artificial start.  Phase 1 is a
subproblem over the artificial columns (no big-M terms).  Phase 2 pins
every artificial at zero, so one still basic there leaves through the
ratio test, by a degenerate pivot, once an entering column would move
it; one on a redundant row stays basic at zero.

Every pivot factors the basis afresh with numpy's LAPACK solver: a
solve with the transposed basis gives the row duals for pricing, and one
solve with the basis itself gives the basic values and the entering
column together.  A singular basis or a non-finite solve ends that LP
with ``LpError`` rather than carrying NaN into the result.

The kernel's state has a leading batch axis: ``solve_many`` advances a
stack of LPs of one shape in lockstep, each pivot round making one
stacked LAPACK call for all of them, which spreads numpy's per-call
overhead over the stack.  Programs that share one constraint matrix
object share it in the stack too.  Each LP keeps its own basis, phase,
Bland switch, pivot budget and checks, so it takes the pivots it would
take alone; it leaves the stack as soon as it concludes or fails, and
a failure (a singular basis, an exhausted budget, a failed check) ends
that LP alone with its typed error.  ``solve`` is a stack of one.

A ``LinearProgram`` is immutable after construction and safe to share
across concurrent solves; each ``solve`` or ``solve_many`` call owns
all of its mutable state.
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
    "solve_many",
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
# Most LPs advanced in one lockstep stack; bounds the memory of stacked
# constraint matrices.
_STACK_LPS = 128


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


def _frozen(values, ndmin: int) -> np.ndarray:
    """A read-only float array of ``values``: the array itself when it is
    one already, so programs built from one frozen array share it, and a
    private copy otherwise."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim >= ndmin and not values.flags.writeable):
        return values
    frozen = np.array(values, dtype=float, ndmin=ndmin)
    frozen.setflags(write=False)
    return frozen


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

    Array arguments are copied, except read-only float arrays, which are
    immutable already and are shared.
    """

    def __init__(self, sense, objective, constraint_matrix, rhs,
                 lower_bounds=None, upper_bounds=None):
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"sense must be 'maximize' or 'minimize', got {sense!r}")
        A = _frozen(constraint_matrix, 2)
        c = _frozen(objective, 1)
        b = _frozen(rhs, 1)
        if A.ndim != 2:
            raise ValueError("constraint_matrix must be two-dimensional")
        p, q = A.shape
        if p < 1 or q < 1:
            raise ValueError("constraint matrix needs at least one row and one column")
        if c.shape != (q,):
            raise ValueError(f"objective has length {c.shape[0]}, expected {q}")
        if b.shape != (p,):
            raise ValueError(f"rhs has length {b.shape[0]}, expected {p}")
        lo = _frozen(np.zeros(q) if lower_bounds is None else lower_bounds, 1)
        hi = _frozen(np.full(q, np.inf) if upper_bounds is None else upper_bounds, 1)
        if lo.shape != (q,) or hi.shape != (q,):
            raise ValueError(f"bound vectors must have length {q}")
        for name, arr in (("objective", c), ("constraint_matrix", A), ("rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not contain NaN")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
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
    rather than a property of the problem, and ``LpError`` on any other
    numerical failure.
    """
    (outcome,) = solve_many([lp], settings, [basis])
    return unwrap(outcome)


def solve_many(programs, settings: SolverSettings | None = None,
               bases=None) -> list[LpSolution | LpError]:
    """Solve every program of ``programs``, in lockstep stacks by shape.

    ``bases``, if given, holds one entry per program: a starting basis
    as for ``solve``, or None.  Returns one outcome per program, in
    order: the ``LpSolution`` that ``solve`` returns for it, or the
    ``LpError`` that ``solve`` raises.  Programs of the same number of
    rows and columns are solved together, at most ``_STACK_LPS`` at a
    time.
    """
    programs = list(programs)
    bases = [None] * len(programs) if bases is None else list(bases)
    if len(bases) != len(programs):
        raise ValueError(f"got {len(bases)} bases for {len(programs)} programs")
    settings = settings or SolverSettings()
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, program in enumerate(programs):
        shapes.setdefault((program.rows, program.cols), []).append(i)
    outcomes: list = [None] * len(programs)
    for members in shapes.values():
        for start in range(0, len(members), _STACK_LPS):
            stack = members[start:start + _STACK_LPS]
            state = _SimplexState([programs[i] for i in stack], settings,
                                  [bases[i] for i in stack])
            for i, outcome in zip(stack, state.run()):
                outcomes[i] = outcome
    return outcomes


def unwrap(outcome):
    """``outcome`` itself, or raise it when it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _SimplexState:
    """Mutable simplex state of a stack of same-shaped LPs.

    Every array has a leading axis with one row per LP still running;
    ``ids`` maps those rows to positions in ``programs``, and an LP's
    row is dropped once its outcome is recorded.  Columns are the q
    structural variables, then the p artificials.  ``toward`` tells how
    a nonbasic variable may move: -1 up from its lower bound, +1 down
    from its upper bound, 0 not at all (a basic or pinned variable, or a
    free one, which ``free`` marks and which may move either way from
    zero).  ``x_off`` holds the resting value of every nonbasic variable
    and zero for the basics; ``x_basic`` holds the basic values in basis
    order.  ``A`` is the stack of constraint matrices with the
    artificial columns appended, or one such matrix shared by every LP.
    """

    def __init__(self, programs, settings: SolverSettings, bases):
        first = programs[0]
        k, p, q = len(programs), first.rows, first.cols
        self.programs = programs
        self.settings = settings
        self.p, self.q = p, q
        self.max_iter = _PIVOTS_PER_DIMENSION * (p + q)
        self.outcomes: list = [None] * k
        self.ids = np.arange(k)
        if all(program.constraint_matrix is first.constraint_matrix
               for program in programs):
            self.A = np.hstack([first.constraint_matrix, np.eye(p)])[None]
        else:
            self.A = np.empty((k, p, q + p))
            for matrix, program in zip(self.A, programs):
                matrix[:, :q] = program.constraint_matrix
            self.A[:, :, q:] = np.eye(p)
        self.b = np.array([program.rhs for program in programs])
        self.sign = np.array([1.0 if program.sense == "minimize" else -1.0
                              for program in programs])
        lo = np.array([program.lower_bounds for program in programs])
        hi = np.array([program.upper_bounds for program in programs])
        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        self.x_off = np.concatenate([x0, np.zeros((k, p))], axis=1)
        self.x_basic = np.array([program.rhs - program.constraint_matrix @ x
                                 for program, x in zip(programs, x0)])
        below = self.x_basic < 0.0
        self.lo = np.concatenate([lo, np.where(below, -np.inf, 0.0)], axis=1)
        self.hi = np.concatenate([hi, np.where(below, 0.0, np.inf)], axis=1)
        free = np.isinf(lo) & np.isinf(hi)
        self.free = np.concatenate([free, np.zeros((k, p), dtype=bool)], axis=1)
        self.any_free = bool(free.any())
        # x0 is the lower bound where that is finite, else the upper one;
        # every artificial starts basic
        self.toward = np.zeros((k, q + p))
        self.toward[:, :q] = np.where(free | (hi == lo), 0.0,
                                      np.where(np.isfinite(lo), -1.0, 1.0))
        self.basis = np.tile(np.arange(q, q + p), (k, 1))
        self.iterations = np.zeros(k, dtype=np.int64)
        self.phase1_iterations = np.zeros(k, dtype=np.int64)
        self.consec_degenerate = np.zeros(k, dtype=np.int64)
        self.bland = np.zeros(k, dtype=bool)
        self.any_bland = False
        self._crash(bases)
        # phase 1 runs only where the start leaves an artificial non-zero;
        # its cost is the artificials' total magnitude
        self.phase1 = np.any((self.basis >= q) & (self.x_basic != 0.0), axis=1)
        self.cost = np.zeros((k, q + p))
        self.cost[:, q:] = np.where(below, -1.0, 1.0)
        self._start_phase2(np.flatnonzero(~self.phase1))

    # -- start ---------------------------------------------------------

    def _crash(self, bases) -> None:
        """Start each LP from its caller's structural basis if that is feasible."""
        p, q = self.p, self.q
        rows, hints, rhs = [], [], []
        for i, basis in enumerate(bases):
            if basis is None:
                continue
            basis = np.array(basis, dtype=np.int64, ndmin=1)
            if (basis.shape != (p,) or np.unique(basis).size != p
                    or basis.min() < 0 or basis.max() >= q):
                raise ValueError(f"basis must hold {p} distinct column indices below {q}")
            x_off = self.x_off[i, :q].copy()
            x_off[basis] = 0.0
            program = self.programs[i]
            rows.append(i)
            hints.append(basis)
            rhs.append(program.rhs - program.constraint_matrix @ x_off)
        if not rows:
            return
        rows, hints = np.array(rows), np.array(hints)
        x_basic, failed = _solve_stack(_gather(self._matrices(rows), hints), np.array(rhs))
        tol = self.settings.feas_tol
        lo, hi = self.lo[rows[:, None], hints], self.hi[rows[:, None], hints]
        # a singular or infeasible hint keeps the artificial start
        usable = np.all((x_basic >= lo - tol) & (x_basic <= hi + tol), axis=1)
        usable[list(failed)] = False
        rows, hints = rows[usable], hints[usable]
        self.basis[rows] = hints
        self.x_basic[rows] = x_basic[usable]
        self.x_off[rows[:, None], hints] = 0.0
        self.toward[rows[:, None], hints] = 0.0
        self.free[rows[:, None], hints] = False
        # every artificial is nonbasic now, and pinned in phase 2

    def _start_phase2(self, rows: np.ndarray) -> None:
        """Pin the artificials of the LPs ``rows`` at zero and price their objective."""
        q = self.q
        self.lo[rows, q:] = 0.0
        self.hi[rows, q:] = 0.0
        self.toward[rows, q:] = 0.0
        objective = np.array([self.programs[i].objective for i in self.ids[rows]])
        self.cost[rows, :q] = self.sign[rows, None] * objective.reshape(len(rows), q)
        self.cost[rows, q:] = 0.0
        self.phase1[rows] = False

    # -- simplex core ----------------------------------------------------

    def run(self) -> list:
        while self.ids.size:
            self._round()
        return self.outcomes

    def _round(self) -> None:
        """One pricing, and one pivot or bound flip, for every running LP."""
        k = self.ids.size
        lps = np.arange(k)
        self.ended = np.zeros(k, dtype=bool)
        A, basis = self.A, self.basis
        basic_cols = _gather(A, basis)
        y, failed = _solve_stack(basic_cols.transpose(0, 2, 1), self.cost[lps[:, None], basis])
        self._fail(lps, failed)
        j, sigma, improving = self._entering(self.cost - _price(A, y))
        if self.iterations.max() >= self.max_iter:
            for i in np.flatnonzero(improving & ~self.ended
                                    & (self.iterations >= self.max_iter)):
                self._record(i, IterationLimitError(
                    f"no conclusion within {self.max_iter} pivots"))
        resid = self.b - _times(A, self.x_off)

        rows = (improving & ~self.ended).nonzero()[0]
        if rows.size:
            # the basic values and the entering column, in one solve
            rhs = np.empty((rows.size, self.p, 2))
            rhs[:, :, 0] = resid[rows]
            rhs[:, :, 1] = _gather(self._matrices(rows), j[rows, None])[:, :, 0]
            solved, failed = _solve_stack(basic_cols[rows], rhs)
            if failed:
                self._fail(rows, failed)
                rows, solved = rows[~self.ended[rows]], solved[~self.ended[rows]]
            self.x_basic[rows] = solved[:, :, 0]
            step, pos, hits_upper = self._ratio_test(rows, j[rows], sigma[rows],
                                                     solved[:, :, 1])
            unbounded = np.isinf(step)
            if unbounded.any():
                for i in rows[unbounded]:
                    if self.phase1[i]:  # its cost is bounded below by 0
                        self._record(i, LpError("phase-1 subproblem reported unbounded"))
                    else:
                        self._record(i, self._ending(i, UNBOUNDED))
                bounded = ~unbounded
                rows, step, pos, hits_upper = (rows[bounded], step[bounded], pos[bounded],
                                               hits_upper[bounded])
            self._pivot(rows, j[rows], step, pos, hits_upper)

        rows = (~improving & ~self.ended).nonzero()[0]
        if rows.size:
            x_basic, failed = _solve_stack(basic_cols[rows], resid[rows])
            if failed:
                self._fail(rows, failed)
                rows, x_basic = rows[~self.ended[rows]], x_basic[~self.ended[rows]]
            self.x_basic[rows] = x_basic
            x = self.x_off[rows]
            x[np.arange(rows.size)[:, None], self.basis[rows]] = x_basic
            phase1 = self.phase1[rows]
            if phase1.any():
                self._end_phase1(rows[phase1], x[phase1])
            self._conclude(rows[~phase1], x[~phase1], y[rows[~phase1]])
        if self.ended.any():
            self._drop(~self.ended)

    def _entering(self, reduced: np.ndarray):
        # gain: how fast the objective falls per unit step of a variable
        # moving in a direction it may move; 0 where it may not move
        gain = reduced * self.toward
        if self.any_free:
            gain = np.where(self.free, np.abs(reduced), gain)
        j = gain.argmax(axis=1)  # Dantzig: steepest, first on ties
        if self.any_bland:
            j = np.where(self.bland, (gain > _OPT_TOL).argmax(axis=1), j)
        lps = np.arange(j.size)
        sigma = np.where(reduced[lps, j] < 0.0, 1.0, -1.0)
        return j, sigma, gain[lps, j] > _OPT_TOL

    def _ratio_test(self, lps, j, sigma, w):
        """Step, basis position and leaving bound of the pivots of the LPs ``lps``.

        ``j`` and ``sigma`` are each one's entering variable and its
        direction, ``w`` its column solved with the basis.  The position
        is -1 for a bound-to-bound flip of the entering variable (basis
        unchanged), and the step is infinite when nothing limits it.
        """
        rows = np.arange(lps.size)
        bi = self.basis[lps]
        xb = self.x_basic[lps]
        move = sigma[:, None] * w  # basics change by -move * step
        size = np.abs(move)
        pivot_tol = _PIVOT_TOL * np.maximum(1.0, size.max(axis=1))[:, None]
        # exact step to each basic's bound; an infinite bound, or an entry
        # too small to pivot on, gives an infinite limit that never binds
        at = lps[:, None], bi
        gap = np.where(move > 0.0, xb - self.lo[at], self.hi[at] - xb)
        exact = np.full(move.shape, np.inf)
        np.divide(gap, size, out=exact, where=size > pivot_tol)
        # pass 1: the longest step with every basic bound relaxed by feas_tol
        longest = (exact + self.settings.feas_tol
                   / np.maximum(size, pivot_tol)).min(axis=1)
        own_range = self.hi[lps, j] - self.lo[lps, j]
        flip = own_range <= longest
        # pass 2: among the rows that bind within that step, the largest
        # pivot element (Bland: the lowest variable index), first on ties
        within = exact <= longest[:, None]
        pos = np.where(within, size, -1.0).argmax(axis=1)
        if self.any_bland:
            lowest = np.where(within, bi, np.iinfo(bi.dtype).max).argmin(axis=1)
            pos = np.where(self.bland[lps], lowest, pos)
        step = np.where(flip, own_range, np.maximum(exact[rows, pos], 0.0))
        return step, np.where(flip, -1, pos), move[rows, pos] < 0.0

    def _pivot(self, lps, j, step, pos, hits_upper) -> None:
        """Apply the pivots or bound flips of the LPs ``lps``."""
        # basic values come afresh from the next solve with the basis,
        # so only nonbasic values move here
        degenerate = step <= self.settings.feas_tol
        run = np.where(degenerate, self.consec_degenerate[lps] + 1, 0)
        self.consec_degenerate[lps] = run
        self.bland[lps] = degenerate & (self.bland[lps] | (run >= self.p + self.q))
        self.any_bland = bool(self.bland.any())
        self.iterations[lps] += 1
        flips = pos < 0
        if flips.any():
            # an entering variable that flips rests at its opposite bound
            self._rest(lps[flips], j[flips], self.toward[lps[flips], j[flips]] < 0.0)
            swaps = ~flips
            lps, j, pos, hits_upper = lps[swaps], j[swaps], pos[swaps], hits_upper[swaps]
        # in a swap the entering variable takes the basis position, and
        # its occupant leaves at the bound it hit
        leaving = self.basis[lps, pos]
        self.basis[lps, pos] = j
        self.toward[lps, j] = 0.0
        self.free[lps, j] = False
        self.x_off[lps, j] = 0.0
        self._rest(lps, leaving, hits_upper)

    def _rest(self, lps, cols, at_upper) -> None:
        """Make variable ``cols[i]`` of LP ``lps[i]`` nonbasic at a bound."""
        lo, hi = self.lo[lps, cols], self.hi[lps, cols]
        self.toward[lps, cols] = np.where(hi > lo, np.where(at_upper, 1.0, -1.0), 0.0)
        self.x_off[lps, cols] = np.where(at_upper, hi, lo)

    # -- conclusions -----------------------------------------------------

    def _end_phase1(self, rows: np.ndarray, x: np.ndarray) -> None:
        """Phase 1 optimal at ``x``: infeasible, or on to phase 2 from this basis."""
        self.phase1_iterations[rows] = self.iterations[rows]
        infeas = np.array([self.cost[i] @ x_i for i, x_i in zip(rows, x)])
        slack = self.settings.feas_tol * (self.p + np.abs(self.b[rows]).sum(axis=1))
        for i in rows[infeas > slack]:
            self._record(i, self._ending(i, INFEASIBLE))
        self._start_phase2(rows[infeas <= slack])

    def _conclude(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Phase 2 optimal at ``x`` with duals ``y``: check and record each optimum."""
        tol = self.settings.feas_tol
        for i, x_i, y_i in zip(rows, x[:, :self.q], y):
            program = self.programs[self.ids[i]]
            # phrased so that a NaN anywhere fails every check
            resid = np.abs(program.constraint_matrix @ x_i - program.rhs)
            if not np.all(np.isfinite(x_i)):
                self._record(i, LpError("non-finite value at claimed optimum"))
            elif not np.all((x_i >= program.lower_bounds - tol)
                            & (x_i <= program.upper_bounds + tol)):
                self._record(i, LpError("variable bound violated at claimed optimum"))
            elif not np.all(resid <= tol * (1.0 + np.abs(program.rhs))):
                self._record(i, LpError("equality row violated at claimed optimum"))
            else:
                self._record(i, self._ending(
                    i, OPTIMAL, primal=x_i, objective_value=float(program.objective @ x_i),
                    duals=self.sign[i] * y_i))

    def _ending(self, i: int, status: str, **values) -> LpSolution:
        return LpSolution(status, iterations=int(self.iterations[i]),
                          phase1_iterations=int(self.phase1_iterations[i]), **values)

    def _fail(self, lps, failed: dict) -> None:
        """End the LPs ``lps[i]`` whose basis solve failed, by ``_solve_stack``."""
        for i, reason in failed.items():
            self._record(lps[i], LpError(reason))

    def _record(self, i: int, outcome) -> None:
        """Give LP ``i`` its outcome; it leaves the stack after this round."""
        self.outcomes[self.ids[i]] = outcome
        self.ended[i] = True

    def _matrices(self, rows) -> np.ndarray:
        """Constraint matrices of the LPs ``rows``, or the shared one."""
        return self.A if self.A.shape[0] == 1 else self.A[rows]

    def _drop(self, keep: np.ndarray) -> None:
        """Keep only the LPs of ``keep`` in every per-LP array."""
        for name in ("ids", "b", "sign", "lo", "hi", "x_off", "x_basic",
                     "toward", "free", "basis", "iterations", "phase1_iterations",
                     "consec_degenerate", "bland", "phase1", "cost"):
            setattr(self, name, getattr(self, name)[keep])
        self.A = self._matrices(keep)


def _gather(A: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols[i]`` of matrix i of ``A`` (or of its one shared
    matrix), as a stack of shape (len(cols), p, cols.shape[1])."""
    if A.shape[0] == 1:
        return A[0][:, cols].transpose(1, 0, 2)
    lps = np.arange(cols.shape[0])[:, None, None]
    return A[lps, np.arange(A.shape[1])[None, :, None], cols[:, None, :]]


# The two products below are stacks of matrix-vector products, never one
# matrix-matrix product: each LP's numbers are then bitwise those of a
# solve on its own, whatever the stack around it.

def _times(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix i of ``A`` (or its one shared matrix) times row i of ``x``."""
    return (A @ x[:, :, None])[:, :, 0]


def _price(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row i of ``y`` times matrix i of ``A`` (or its one shared matrix)."""
    return (y[:, None, :] @ A)[:, 0, :]


def _solve_stack(matrices: np.ndarray, rhs: np.ndarray):
    """Solve each system of a stack; returns the solutions and the failures.

    ``rhs`` is (k, p) or (k, p, r).  The failures map the position of
    each system that could not be solved to the reason; its solution
    comes back as zeros, so that it carries no NaN into the rest of its
    round.  A singular matrix makes numpy fail the whole stack, so the
    systems are then solved one by one.
    """
    vector = rhs.ndim == 2
    columns = rhs[:, :, None] if vector else rhs
    failed = {}
    try:
        solved = np.linalg.solve(matrices, columns)
    except np.linalg.LinAlgError:
        solved = np.zeros(columns.shape)
        for i, (matrix, column) in enumerate(zip(matrices, columns)):
            try:
                solved[i] = np.linalg.solve(matrix, column)
            except np.linalg.LinAlgError:
                failed[i] = "singular basis matrix"
    # a finite total, the common case, means every entry is finite
    if not np.isfinite(solved.sum()):
        for i in np.flatnonzero(~np.isfinite(solved).all(axis=(1, 2))):
            failed[i] = "basis solve gave non-finite values"
            solved[i] = 0.0
    return (solved[:, :, 0] if vector else solved), failed
