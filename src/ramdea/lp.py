"""Dense linear-programming kernel with native per-variable bounds.

Solves problems of the form

    optimize   c . x
    such that  A x = b,   l <= x <= u   (componentwise)

with a two-phase revised simplex in which every nonbasic variable rests
at one of its finite bounds (or at zero when both bounds are infinite).
Bounds never become extra rows, so the basis stays as large as the
number of equality rows regardless of how many variables are boxed.
Callers that need inequality rows add their own slack variables.
The kernel's one tolerance, ``feas_tol``, is a keyword float defaulting
to ``FEAS_TOL``; ``_tolerance``, the package's one test that a tolerance
is finite and strictly positive, checks it on entry to ``solve_many``.

Pricing is Dantzig's rule.  DEA-style instances are routinely degenerate,
so an LP in phase 2 whose run of degenerate pivots reaches
``_PERTURB_AFTER`` has its rhs, unless zero, shifted once (``_perturb``,
after Wolfe 1963); at its optimum the checks below judge the basic values
of the true rhs, and an LP that fails after a shift is solved again,
unshifted.  An LP of p rows and q columns prices by Bland's rule while
its run is at least min(p + q, 6p), and by Dantzig's again from its
first pivot that is not degenerate.

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
as for a zero right-hand side.  A caller may pass ``basis``, one
column index per row (a crash basis), where index q + i names row i's
artificial.  The kernel factors it once and takes the basic values with
every other variable at its resting bound; if the basis is non-singular
and those values lie within their bounds to ``feas_tol`` (an
artificial's being the ones above), the solve starts there, and runs
phase 1 only when an artificial of that basis is non-zero.  Otherwise
the hint is dropped for the artificial start.  Phase 1 is a subproblem
over the artificial columns (no big-M terms).  Phase 2 pins every
artificial at zero, so one still basic there leaves through the
ratio test, by a degenerate pivot, once an entering column would move
it; one on a redundant row stays basic at zero.

Every pivot factors the basis afresh with numpy's LAPACK solver: a
solve with the transposed basis gives the row duals for pricing, and one
solve with the basis itself gives the basic values and the entering
column together.  A singular basis or a non-finite solve ends that LP
with ``LpError`` rather than carrying NaN into the result.  So does an
optimum that fails its checks: finite values, bounds held to ``feas_tol``
and each equality row to ``feas_tol * (1 + |b_i| + max_j |a_ij x_j|)``, a
backward-error bound that follows the row's own scale (Higham 2002,
"Accuracy and Stability of Numerical Algorithms", ch. 7).

A ``LinearProgram`` is one program, or a stack of k programs of one
shape and sense.  Each array has one program's shape, or that shape under
a leading axis of k when, and only when, the rhs is k x p.  Its columns
come in two blocks, optional leading columns and the constraint matrix,
so programs that differ in a few columns can share all the others.  It
checks its arguments once when it is built.  The kernel takes every
product from its one copy of each matrix, [leading | constraint matrix],
so how a caller splits and lays out its columns changes no bit of a
result.  ``solve_many`` advances the programs of a stack in lockstep,
each pivot round making one stacked LAPACK call for all of them, which
spreads numpy's per-call overhead over the stack.  Every other step
works on the whole stack as well, with a fixed number of numpy calls:
starting from the stack's arrays, factoring the crash bases (checked
for every stack before any runs), the phase-1 verdict, the optimum
checks and dropping the LPs that are done, whose per-LP state, the
objective included, is a few blocks of arrays beside the matrix, which
a stack may share.  A Python loop remains only to build each LP's
outcome.  A lockstep stack holds as many LPs as fit in ``_STACK_BYTES``.
Each LP keeps its own basis, phase, degenerate run, shift of its rhs,
pivot budget and checks, so it takes the pivots it would take alone, and
its products are stacks of matrix-vector products, so its numbers are
bitwise those of a solve on its own; it leaves the stack as soon as it
concludes or fails, and a failure (a singular basis, an exhausted
budget, a failed check) ends that LP alone with its typed error.
``solve`` is a stack of one.

A ``LinearProgram`` owns a read-only copy of every array it is given,
so it is immutable after construction and safe to share across
concurrent solves; each ``solve`` or ``solve_many`` call owns all of its
mutable state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "RamdeaError",
    "LpError",
    "IterationLimitError",
    "FEAS_TOL",
    "LinearProgram",
    "LpSolution",
    "solve",
    "solve_many",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Feasibility tolerance of every solve: on bounds, rows and the ratio test.
FEAS_TOL = 1e-9

# Smallest magnitude accepted as a pivot / ratio-test denominator,
# relative to the entering column's largest entry when that exceeds 1.
_PIVOT_TOL = 1e-10
# Smallest objective gain per unit step that counts as an improvement.
_OPT_TOL = 1e-9
# Pivot budget of one solve, per row and column of its program.
_PIVOTS_PER_DIMENSION = 50
# Most bytes of per-LP state in one lockstep stack: the LPs' state blocks and,
# unless they share both blocks of columns, their p x (q + p) matrices.
_STACK_BYTES = 1 << 23
# Fewest bytes of state in a stack whose dropped LPs ``_drop`` fills by moving
# others: below it, ``take`` of every LP kept is faster than fancy assignment.
_MOVE_BYTES = 1 << 19
# The degenerate run after which a phase-2 LP's rhs is shifted, and its size.
_PERTURB_AFTER, _PERTURB_SIZE = 4, 1e-6


class RamdeaError(Exception):
    """Base of every error of a solve or a stage, and of ``DataFormatError``."""


class LpError(RamdeaError):
    """Numerical failure inside the simplex kernel."""


class IterationLimitError(LpError):
    """Pivot budget exhausted before any conclusive status was reached."""


def _tolerance(name: str, value) -> float:
    """``value`` as a float if finite and strictly positive, else ``ValueError``."""
    tol = float(value)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be finite and strictly positive, got {value}")
    return tol


def _frozen(values, ndmin: int) -> np.ndarray:
    """A private read-only float copy of ``values``."""
    frozen = np.array(values, dtype=float, ndmin=ndmin)
    frozen.setflags(write=False)
    return frozen


# the arrays of a ``LinearProgram``, each with its dimensions in one program;
# the rhs comes first, since its leading axis sets the size of a stack
_ARRAYS = (("rhs", 1), ("objective", 1), ("leading_columns", 2), ("constraint_matrix", 2),
           ("lower_bounds", 1), ("upper_bounds", 1))


def _checked(sense, rhs, objective, leading, constraint_matrix, lower_bounds, upper_bounds):
    """The arguments of ``LinearProgram`` as read-only float arrays, in the
    order of ``_ARRAYS``, after every check."""
    if sense not in ("maximize", "minimize"):
        raise ValueError(f"sense must be 'maximize' or 'minimize', got {sense!r}")
    A = _frozen(constraint_matrix, 2)
    p, q = A.shape[-2:]
    if p < 1 or q < 1:
        raise ValueError("constraint matrix needs at least one row and one column")
    L = _frozen(np.zeros((p, 0)) if leading is None else leading, 2)
    q += L.shape[-1]
    b, c = _frozen(rhs, 1), _frozen(objective, 1)
    lo = _frozen(np.zeros(q) if lower_bounds is None else lower_bounds, 1)
    hi = _frozen(np.full(q, np.inf) if upper_bounds is None else upper_bounds, 1)
    # each array has one program's shape, or (k,) + that shape beside a k x p rhs
    stack = b.shape[:1] if b.ndim == 2 else ()
    shapes = ((p,), (q,), (p, L.shape[-1]), A.shape[-2:], (q,), (q,))
    for (name, _), arr, shape in zip(_ARRAYS, (b, c, L, A, lo, hi), shapes):
        if arr.shape not in (shape, stack + shape):
            stacked = [f"(k, {p})"] if arr is b else [stack + shape] if stack else []
            message = f"{name} has shape {arr.shape}, expected " + " or ".join(
                map(str, [shape] + stacked))
            if b.ndim == 1 and arr.ndim == len(shape) + 1:
                message += f"; only a k x {p} rhs makes a stack"
            raise ValueError(message)
    for (name, _), arr in zip(_ARRAYS, (b, c, L, A)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("bounds must not contain NaN")
    if (lo == np.inf).any() or (hi == -np.inf).any():
        raise ValueError("a lower bound of +inf or an upper bound of -inf "
                         "admits no value")
    if (lo > hi).any():
        raise ValueError("lower bound exceeds upper bound")
    return b, c, L, A, lo, hi


class LinearProgram:
    """Equality-constrained LPs with per-variable bounds, immutable once built:
    one program, or a stack of k programs of one shape and sense.

    Parameters
    ----------
    sense : "maximize" or "minimize"
    objective : length-q cost vector
    constraint_matrix : dense p x q matrix of equality rows, or its last
        q - r columns when ``leading_columns`` holds the first r
    rhs : length-p right-hand side, or k x p for a stack of k programs
    lower_bounds : length-q vector, default all zeros; -inf entries allowed
    upper_bounds : length-q vector, default all +inf; +inf entries allowed
    leading_columns : p x r matrix, default p x 0

    In a stack, each other array is either the one above, shared by all k
    programs, or one per program along a leading axis of length k.  Array
    arguments are copied, so writing to them later changes no program.
    ``len`` is the number of programs; indexing with an integer gives one
    program, with a slice a smaller stack, and iterating gives each
    program in turn, all sharing this stack's arrays; any other index
    raises ``TypeError``.
    """

    def __init__(self, sense, objective, constraint_matrix, rhs,
                 lower_bounds=None, upper_bounds=None, leading_columns=None):
        self.sense = sense
        (self.rhs, self.objective, self.leading_columns, self.constraint_matrix,
         self.lower_bounds, self.upper_bounds) = _checked(
            sense, rhs, objective, leading_columns, constraint_matrix, lower_bounds,
            upper_bounds)

    def __len__(self) -> int:
        return len(self.rhs) if self.rhs.ndim == 2 else 1

    def __getitem__(self, index) -> LinearProgram:
        if not isinstance(index, slice):
            try:
                index = operator.index(index)
            except TypeError:
                raise TypeError("a LinearProgram is indexed by an integer or a slice, "
                                f"not {type(index).__name__}") from None
        program = LinearProgram.__new__(LinearProgram)
        program.sense = self.sense
        program.rhs = np.atleast_2d(self.rhs)[index]  # one program is a stack of one
        for name, ndim in _ARRAYS[1:]:
            array = getattr(self, name)
            setattr(program, name, array[index] if array.ndim > ndim else array)
        return program

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def rows(self) -> int:
        return self.constraint_matrix.shape[-2]

    @property
    def cols(self) -> int:
        return self.leading_columns.shape[-1] + self.constraint_matrix.shape[-1]


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Outcome of one solve; ``primal``/``objective_value``/``duals`` only when optimal.

    ``duals`` holds one multiplier per equality row in the caller's
    sense: the objective's rate of change per unit of that row's
    right-hand side, so ``objective - duals @ [leading_columns |
    constraint_matrix]`` are the reduced costs of the optimal basis.
    """

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0
    duals: np.ndarray | None = None
    phase1_iterations: int = 0
    perturbed: bool = False


def solve(lp: LinearProgram, feas_tol: float = FEAS_TOL, basis=None) -> LpSolution:
    """Run the two-phase bounded-variable simplex on ``lp``, one program.

    ``feas_tol`` bounds every feasibility test of the solve; it must be
    finite and strictly positive (``ValueError`` otherwise).  ``basis``,
    if given, is a starting basis of ``lp.rows`` distinct column indices
    below ``lp.cols + lp.rows``, where ``lp.cols + i`` is row i's
    artificial (``ValueError`` otherwise); it is used only when it is
    non-singular and feasible, and otherwise ignored.

    Returns an ``LpSolution`` whose status is one of ``optimal``,
    ``infeasible`` or ``unbounded``.  ``iterations`` counts every pivot
    and bound flip, ``phase1_iterations`` those spent finding a feasible
    basis.  Raises ``IterationLimitError`` when the pivot budget of
    50 * (rows + columns) runs out, which signals numerical trouble
    rather than a property of the problem, and ``LpError`` on any other
    numerical failure.
    """
    (outcome,) = solve_many(lp, feas_tol, [basis])
    return unwrap(outcome)


def solve_many(stack: LinearProgram, feas_tol: float = FEAS_TOL,
               bases=None) -> list[LpSolution | LpError]:
    """Solve every program of ``stack``, in lockstep.

    ``bases``, if given, holds one entry per program: a starting basis
    as for ``solve``, or None.  Returns one outcome per program, in
    order: the ``LpSolution`` that ``solve`` returns for it, or the
    ``LpError`` that ``solve`` raises.  ``feas_tol``, as for ``solve``,
    then every basis are checked before any program is solved, in as
    few lockstep stacks of equal size as keep each one's state within
    ``_STACK_BYTES``.
    """
    feas_tol = _tolerance("feas_tol", feas_tol)
    k, p, q = len(stack), stack.rows, stack.cols
    bases = _checked_bases(bases, k, p, q)
    if not k:
        return []
    shared = stack.leading_columns.ndim == stack.constraint_matrix.ndim == 2
    per_lp = _state_bytes(p, q) + (0 if shared else 8 * p * (q + p))
    size = -(-k // -(-k * per_lp // _STACK_BYTES))
    outcomes: list = []
    for start in range(0, k, size):
        outcomes += _SimplexState(stack[start:start + size], feas_tol,
                                  bases[start:start + size]).run()
    return outcomes


def _checked_bases(bases, k: int, p: int, q: int) -> list:
    """``bases``, an integer array or None per program, after every check."""
    bases = [None] * k if bases is None else [
        None if basis is None else np.atleast_1d(basis) for basis in bases]
    if len(bases) != k:
        raise ValueError(f"got {len(bases)} bases for {k} programs")
    hints = [basis for basis in bases if basis is not None]
    # integer dtypes only: 0.7 would truncate to 0, and True read as 1
    valid = all(hint.shape == (p,) and hint.dtype.kind in "iu" for hint in hints)
    if valid and hints:
        ordered = np.sort(hints, axis=1)
        valid = ordered.min() >= 0 and ordered.max() < q + p and np.all(np.diff(ordered, axis=1))
    if not valid:
        raise ValueError(f"basis must hold {p} distinct column indices below {q + p}")
    return bases


def unwrap(outcome):
    """``outcome`` itself, or raise it when it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# The per-LP state of ``_SimplexState``, in blocks of one dtype and row
# width (q + p, p or one): dropping the LPs that are done indexes each
# block once, and every field stays a contiguous array.
_STATE = (
    (np.float64, "w", ("lo", "hi", "x_off", "toward", "cost", "objective")),
    (bool, "w", ("free",)),
    (np.float64, "p", ("b",)),
    (np.int64, "p", ("basis",)),
    (np.int64, "", ("ids", "iterations", "phase1_iterations", "consec_degenerate")),
    (bool, "", ("phase1", "perturbed")),
)


def _state_bytes(p: int, q: int) -> int:
    """Bytes of ``_STATE`` per LP of p x q programs."""
    widths = {"w": q + p, "p": p, "": 1}
    return sum(np.dtype(dtype).itemsize * widths[width] * len(names)
               for dtype, width, names in _STATE)


class _SimplexState:
    """Mutable simplex state of the LPs of one ``LinearProgram`` stack.

    Each field of ``_STATE`` is an attribute viewing one row of its
    block, so every per-LP array has a leading axis with one row per LP
    still running.  ``ids`` maps those rows to positions in the
    programs.  In a round, ``live`` marks the LPs with no outcome yet; no
    other outcome is recorded for the rest, and the round ends by
    dropping them.  Columns are the q structural variables, then
    the p artificials.  ``toward`` tells how a nonbasic variable may
    move: -1 up from its lower bound, +1 down from its upper bound, 0 not
    at all (a basic or pinned variable, or a free one, which ``free``
    marks and which may move either way from zero).  ``x_off`` holds the
    resting value of every nonbasic variable and zero for the basics; no
    basic values are kept, since each round solves them afresh.  An LP
    prices by Bland's rule while ``consec_degenerate``, its run of
    degenerate pivots, is at least ``bland_after``; ``perturbed`` marks one
    whose ``b`` holds the shift of ``_perturb``.  ``objective`` is zero
    on the artificials.  ``A``, the one array outside the blocks, is the
    stack of the programs' matrices, [leading | constraint matrix |
    artificials]: per-LP when either block has a leading axis, else
    shared under a leading axis of one.  The start, crash and optimum
    residuals all come from ``A`` with the artificials at zero, and the
    optimum check scales each row's bound with that row's largest term.
    """

    def __init__(self, lp: LinearProgram, feas_tol: float, bases, perturb: bool = True):
        k, p, q = len(lp), lp.rows, lp.cols
        self.feas_tol = feas_tol
        self.p, self.q = p, q
        self.max_iter = _PIVOTS_PER_DIMENSION * (p + q)
        self.bland_after = min(p + q, 6 * p)  # degenerate pivots before Bland's rule
        self.perturb_after = _PERTURB_AFTER if perturb and lp.rhs.any() else np.inf
        self.lp, self.bases, self.retry, self.any_perturbed = lp, bases, [], False
        self.outcomes: list = [None] * k
        widths = {"w": (q + p,), "p": (p,), "": ()}
        self.blocks = [np.zeros((len(names), k) + widths[width], dtype)
                       for dtype, width, names in _STATE]
        self._view()
        self.ids[:] = np.arange(k)
        L, M = lp.leading_columns, lp.constraint_matrix
        lo, hi = lp.lower_bounds, lp.upper_bounds
        r = L.shape[-1]
        self.A = np.empty((k if max(L.ndim, M.ndim) == 3 else 1, p, q + p))
        self.A[:, :, :r], self.A[:, :, r:q], self.A[:, :, q:] = L, M, np.eye(p)
        self.b[:] = lp.rhs
        self.objective[:, :q] = lp.objective
        self.sign = 1.0 if lp.sense == "minimize" else -1.0
        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        self.x_off[:, :q] = x0
        start = self.b - _times(self.A, self.x_off)  # the artificials' values
        below = start < 0.0
        self.lo[:, :q], self.lo[:, q:] = lo, np.where(below, -np.inf, 0.0)
        self.hi[:, :q], self.hi[:, q:] = hi, np.where(below, 0.0, np.inf)
        free = (lo == -np.inf) & (hi == np.inf)
        self.free[:, :q] = free
        self.any_free = bool(free.any())
        # x0 is the lower bound where that is finite, else the upper one;
        # every artificial starts basic
        self.toward[:, :q] = np.where(free | (hi == lo), 0.0,
                                      np.where(np.isfinite(lo), -1.0, 1.0))
        self.basis[:] = np.arange(q, q + p)
        self.any_bland = self.any_stall = False
        self._crash(bases, start)
        # phase 1 runs only where the start leaves a basic artificial
        # non-zero; its cost is the artificials' total magnitude
        self.phase1[:] = np.any((self.basis >= q) & (start != 0.0), axis=1)
        self.cost[:, q:] = np.where(below, -1.0, 1.0)
        self._start_phase2(np.flatnonzero(~self.phase1))

    def _view(self) -> None:
        for block, (_, _, names) in zip(self.blocks, _STATE):
            for name, field in zip(names, block):
                setattr(self, name, field)

    # -- start ---------------------------------------------------------

    def _crash(self, bases, start: np.ndarray) -> None:
        """Start each LP from its caller's checked basis, if any and feasible,
        and put its basic values, in basis order, in its row of ``start``."""
        rows = [i for i, basis in enumerate(bases) if basis is not None]
        if not rows:
            return
        hints = np.array([bases[i] for i in rows])
        rows = np.array(rows)
        A = _lps_of(self.A, rows)
        x_off = self.x_off[rows]
        x_off[np.arange(rows.size)[:, None], hints] = 0.0
        x_basic, failed = _solve_stack(_gather(A, hints), self.b[rows] - _times(A, x_off))
        tol = self.feas_tol
        lo, hi = self.lo[rows[:, None], hints], self.hi[rows[:, None], hints]
        # a singular or infeasible hint keeps the artificial start
        usable = np.all((x_basic >= lo - tol) & (x_basic <= hi + tol), axis=1)
        usable[list(failed)] = False
        rows, hints = rows[usable], hints[usable]
        start[rows] = x_basic[usable]
        self.basis[rows] = hints
        self.x_off[rows[:, None], hints] = 0.0
        self.toward[rows[:, None], hints] = 0.0
        self.free[rows[:, None], hints] = False

    def _start_phase2(self, rows: np.ndarray) -> None:
        """Pin the artificials of the LPs ``rows`` at zero and price their objective."""
        q = self.q
        self.lo[rows, q:] = 0.0
        self.hi[rows, q:] = 0.0
        self.toward[rows, q:] = 0.0
        self.cost[rows, :q] = self.sign * self.objective[rows, :q]
        self.cost[rows, q:] = 0.0
        self.phase1[rows] = False

    # -- simplex core ----------------------------------------------------

    def run(self) -> list:
        while self.ids.size:
            self._round()
        for i in self.retry:  # solved again, unperturbed, from its caller's start
            (self.outcomes[i],) = _SimplexState(self.lp[i], self.feas_tol, self.bases[i:i + 1],
                                                perturb=False).run()
        return self.outcomes

    def _round(self) -> None:
        """One pricing, and one pivot or bound flip, for every running LP."""
        lps = np.arange(self.ids.size)
        self.live = np.ones(lps.size, dtype=bool)  # no outcome yet this round
        A, basis = self.A, self.basis
        basic_cols = _gather(A, basis)
        y, failed = _solve_stack(basic_cols.transpose(0, 2, 1), self.cost[lps[:, None], basis])
        self._fail(lps, failed)
        j, sigma, improving = self._entering(self.cost - _price(A, y))
        if self.iterations.max() >= self.max_iter:
            for i in self._running(improving & (self.iterations >= self.max_iter)):
                self._record(i, IterationLimitError(
                    f"no conclusion within {self.max_iter} pivots"))
        if self.any_perturbed:  # an LP that concludes gets its true rhs back
            back = np.flatnonzero(self.perturbed & ~improving)
            self.b[back] = np.atleast_2d(self.lp.rhs)[self.ids[back]]
        resid = self.b - _times(A, self.x_off)

        rows = self._running(improving)
        if rows.size:
            # the basic values and the entering column, in one solve
            rhs = np.empty((rows.size, self.p, 2))
            rhs[:, :, 0] = resid[rows]
            rhs[:, :, 1] = _gather(A, j[rows, None], rows)[:, :, 0]
            solved, failed = _solve_stack(basic_cols[rows], rhs)
            self._fail(rows, failed)
            if self.any_stall:
                self._perturb(rows, basic_cols[rows], solved[:, :, 0])
            step, pos, hits_upper = self._ratio_test(rows, j[rows], sigma[rows],
                                                     solved[:, :, 1], solved[:, :, 0])
            for i in rows[(step == np.inf) & self.live[rows]]:
                if self.phase1[i]:  # its cost is bounded below by 0
                    self._record(i, LpError("phase-1 subproblem reported unbounded"))
                else:
                    self._record(i, self._ending(i, UNBOUNDED))
            # an LP given its outcome here (a failed solve is zeros) pivots too,
            # and its state is dropped unread
            self._pivot(rows, j[rows], step, pos, hits_upper)

        rows = self._running(~improving)
        if rows.size:
            x_basic, failed = _solve_stack(basic_cols[rows], resid[rows])
            self._fail(rows, failed)
            x = self.x_off[rows]
            x[np.arange(rows.size)[:, None], self.basis[rows]] = x_basic
            live, phase1 = self.live[rows], self.phase1[rows]
            if phase1.any():
                self._end_phase1(rows[live & phase1], x[live & phase1])
            done = live & ~phase1
            self._conclude(rows[done], x[done], y[rows[done]])
        if not self.live.all():
            self._drop(self.live)

    def _running(self, mask: np.ndarray) -> np.ndarray:
        """Positions of the LPs of ``mask`` that have no outcome yet."""
        return (mask & self.live).nonzero()[0]

    def _entering(self, reduced: np.ndarray):
        # gain: how fast the objective falls per unit step of a variable
        # moving in a direction it may move; 0 where it may not move
        gain = reduced * self.toward
        if self.any_free:
            gain = np.where(self.free, np.abs(reduced), gain)
        j = gain.argmax(axis=1)  # Dantzig: steepest, first on ties
        if self.any_bland:
            j = np.where(self.consec_degenerate >= self.bland_after,
                         (gain > _OPT_TOL).argmax(axis=1), j)
        lps = np.arange(j.size)
        sigma = np.where(reduced[lps, j] < 0.0, 1.0, -1.0)
        return j, sigma, gain[lps, j] > _OPT_TOL

    def _ratio_test(self, lps, j, sigma, w, xb):
        """Step, basis position and leaving bound of the pivots of the LPs ``lps``.

        ``j`` and ``sigma`` are each one's entering variable and its
        direction, ``w`` its column solved with the basis, and ``xb`` its
        basic values, in basis order.  The position
        is -1 for a bound-to-bound flip of the entering variable (basis
        unchanged), and the step is infinite when nothing limits it.
        """
        rows = np.arange(lps.size)
        bi = self.basis[lps]
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
        longest = (exact + self.feas_tol
                   / np.maximum(size, pivot_tol)).min(axis=1)
        own_range = self.hi[lps, j] - self.lo[lps, j]
        flip = own_range <= longest
        # pass 2: among the rows that bind within that step, the largest
        # pivot element (Bland: the lowest variable index), first on ties
        within = exact <= longest[:, None]
        pos = np.where(within, size, -1.0).argmax(axis=1)
        if self.any_bland:
            lowest = np.where(within, bi, np.iinfo(bi.dtype).max).argmin(axis=1)
            pos = np.where(self.consec_degenerate[lps] >= self.bland_after, lowest, pos)
        step = np.where(flip, own_range, np.maximum(exact[rows, pos], 0.0))
        return step, np.where(flip, -1, pos), move[rows, pos] < 0.0

    def _perturb(self, lps, B, xb) -> None:
        """Add B r to the rhs of each LP of ``lps`` that stalls (``B`` its basis
        matrix) and r to its basic values ``xb``, so that each basic value
        within ``feas_tol`` of a bound moves inside it by r_i =
        ``_PERTURB_SIZE`` u_i min_k (1 + |b_k|) / |B_ki|, u_i in (0.5, 1]
        drawn from the LP's basis and pivot count (Huangfu & Hall 2018).
        Pricing does not read the rhs, so only the ratio tests see the shift."""
        pick = ((self.consec_degenerate[lps] >= self.perturb_after) & self.live[lps]
                & ~self.phase1[lps] & ~self.perturbed[lps] & self.b[lps].any(axis=1))
        if not pick.any():  # a stalled LP that was shifted, is in phase 1 or has b = 0
            return
        lps, B, x = lps[pick], B[pick], xb[pick]
        at, tol = (lps[:, None], self.basis[lps]), self.feas_tol
        inward = (x - self.lo[at] <= tol) * 1.0 - (self.hi[at] - x <= tol)
        u = 1.0 - 0.5 * np.modf(0.6180339887498949 * (at[1] + self.iterations[lps, None]))[0]
        crowding = (np.abs(B) / (1.0 + np.abs(self.b[lps]))[:, :, None]).max(axis=1)
        r = _PERTURB_SIZE * u * inward / crowding
        xb[pick] = x + r
        self.b[lps] += _times(B, r)
        self.perturbed[lps] = inward.any(axis=1)
        self.any_perturbed |= bool(inward.any())

    def _pivot(self, lps, j, step, pos, hits_upper) -> None:
        """Apply the pivots or bound flips of the LPs ``lps``."""
        # basic values come afresh from the next solve with the basis,
        # so only nonbasic values move here
        degenerate = step <= self.feas_tol
        run = np.where(degenerate, self.consec_degenerate[lps] + 1, 0)
        self.consec_degenerate[lps] = run
        longest = self.consec_degenerate.max()
        self.any_bland, self.any_stall = longest >= self.bland_after, longest >= self.perturb_after
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
        infeas = _dots(self.cost[rows], x)
        slack = self.feas_tol * (self.p + np.abs(self.b[rows]).sum(axis=1))
        for i in rows[infeas > slack]:
            self._record(i, self._ending(i, INFEASIBLE))
        self._start_phase2(rows[infeas <= slack])

    def _conclude(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Phase 2 optimal at ``x`` with duals ``y``: check and record each
        optimum.  ``x`` spans every column; its artificials are zeroed here.
        Row i holds within ``feas_tol * (1 + |b_i| + max_j |a_ij x_j|)``; the
        max term is at least 0, so it is computed only for the LPs with a
        residual beyond ``feas_tol * (1 + |b_i|)``, with the same verdicts."""
        tol, q = self.feas_tol, self.q
        x[:, q:] = 0.0
        b = self.b[rows]
        resid = np.abs(_times(_lps_of(self.A, rows), x) - b)
        held = (resid <= tol * (1.0 + np.abs(b))).all(axis=1)
        beyond = np.flatnonzero(~held)
        if beyond.size:
            terms = np.abs(_lps_of(self.A, rows[beyond]) * x[beyond, None, :]).max(axis=2)
            bound = tol * (1.0 + np.abs(b[beyond]) + terms)
            held[beyond] = (resid[beyond] <= bound).all(axis=1)
        x = x[:, :q]
        # the first of the checks each optimum fails, or -1; phrased so that
        # a NaN anywhere fails every check
        passed = np.array([
            np.isfinite(x).all(axis=1),
            ((x >= self.lo[rows, :q] - tol) & (x <= self.hi[rows, :q] + tol)).all(axis=1),
            held])
        failed = np.where(passed.all(axis=0), -1, passed.argmin(axis=0)).tolist()
        values = _dots(self.objective[rows, :q], x).tolist()
        duals = self.sign * y
        for i, check, x_i, value, y_i, iterations, phase1_iterations, perturbed in zip(
                rows, failed, x, values, duals, self.iterations[rows].tolist(),
                self.phase1_iterations[rows].tolist(), self.perturbed[rows].tolist()):
            self._record(i, LpError(_FAILED_CHECKS[check]) if check >= 0 else LpSolution(
                OPTIMAL, primal=x_i, objective_value=value, iterations=iterations,
                duals=y_i, phase1_iterations=phase1_iterations, perturbed=perturbed))

    def _ending(self, i: int, status: str) -> LpSolution:
        return LpSolution(status, iterations=int(self.iterations[i]),
                          phase1_iterations=int(self.phase1_iterations[i]),
                          perturbed=bool(self.perturbed[i]))

    def _fail(self, lps, failed: dict) -> None:
        """End the LPs ``lps[i]`` whose basis solve failed, by ``_solve_stack``."""
        for i, reason in failed.items():
            self._record(lps[i], LpError(reason))

    def _record(self, i: int, outcome) -> None:
        """Give LP ``i`` its outcome; it leaves the stack after this round."""
        if self.perturbed[i] and isinstance(outcome, LpError):  # ``run`` solves it again
            self.retry.append(int(self.ids[i]))
        self.outcomes[self.ids[i]] = outcome
        self.live[i] = False

    def _drop(self, live: np.ndarray) -> None:
        """Keep only the n LPs that ``live`` marks, in the first n positions.
        A stack of ``_MOVE_BYTES`` or more moves only its kept LPs beyond
        them, into the places of dropped ones (``ids`` follows); a smaller
        one is copied in order by ``take``, whose call costs less there."""
        keep = live.nonzero()[0]
        n = keep.size
        # a shared matrix has one row, which every LP keeps
        per_lp = [self.A] if len(self.A) > 1 else []
        if sum(x.nbytes for x in self.blocks + per_lp) < _MOVE_BYTES:
            self.blocks = [block.take(keep, axis=1) for block in self.blocks]
            self.A = self.A.take(keep, axis=0) if per_lp else self.A
        else:
            holes, moving = (~live[:n]).nonzero()[0], live[n:].nonzero()[0] + n
            for x in [block.swapaxes(0, 1) for block in self.blocks] + per_lp:
                x[holes] = x[moving]
            self.blocks = [block[:, :n] for block in self.blocks]
            self.A = self.A[:n]
        self._view()


# the reasons ``_conclude`` gives for an optimum that fails its checks
_FAILED_CHECKS = ("non-finite value at claimed optimum",
                  "variable bound violated at claimed optimum",
                  "equality row violated at claimed optimum")


def _lps_of(stack: np.ndarray, rows) -> np.ndarray:
    """Entries ``rows`` of a per-LP ``stack``, or its one shared entry."""
    return stack if stack.shape[0] == 1 else stack[rows]


def _gather(A: np.ndarray, cols: np.ndarray, lps=None) -> np.ndarray:
    """Columns ``cols[i]`` of matrix ``lps[i]`` of ``A`` (default: matrix i),
    or of its one shared matrix, as a stack of shape (len(cols), p,
    cols.shape[1]).  Only those entries are copied, never whole matrices."""
    if A.shape[0] == 1:
        return A[0][:, cols].transpose(1, 0, 2)
    lps = np.arange(cols.shape[0]) if lps is None else lps
    return A[lps[:, None, None], np.arange(A.shape[1])[None, :, None], cols[:, None, :]]


# The two products below are stacks of matrix-vector products, never one
# matrix-matrix product: each LP's numbers are then bitwise those of a
# solve on its own, whatever the stack around it.

def _times(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix i of ``A`` (or its one shared matrix) times row i of ``x``."""
    return (A @ x[:, :, None])[:, :, 0]


def _price(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row i of ``y`` times matrix i of ``A`` (or its one shared matrix)."""
    return (y[:, None, :] @ A)[:, 0, :]


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i of ``u`` dotted with row i of ``v``."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


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
