import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from ramdea import lp


def random_bounded_lp(rng):
    """Random equality LP whose box keeps the feasible region bounded."""
    p = int(rng.integers(1, 5))
    q = int(rng.integers(p + 1, 9))
    A = rng.uniform(-2.0, 2.0, (p, q))
    hi = rng.uniform(0.5, 3.0, q)
    feasible = rng.uniform(0.0, 1.0, q) * hi
    sense = "maximize" if rng.integers(2) else "minimize"
    return lp.LinearProgram(sense, rng.uniform(-1.0, 1.0, q), A, A @ feasible,
                            upper_bounds=hi)


def test_pinned_variable():
    program = lp.LinearProgram("maximize", [1.0], [[1.0]], [1.0], upper_bounds=[2.0])
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.iterations >= 1


def test_bound_contradiction_is_infeasible():
    program = lp.LinearProgram("minimize", [0.0], [[1.0]], [-1.0])
    sol = lp.solve(program)
    assert sol.status == lp.INFEASIBLE
    assert sol.primal is None


def test_improving_ray_is_unbounded():
    program = lp.LinearProgram("maximize", [1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert lp.solve(program).status == lp.UNBOUNDED


def test_free_variable_both_senses():
    for sense in ("minimize", "maximize"):
        program = lp.LinearProgram(sense, [1.0], [[1.0]], [5.0],
                                   lower_bounds=[-np.inf])
        sol = lp.solve(program)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)


def test_redundant_rows_are_tolerated():
    program = lp.LinearProgram("maximize", [1.0], [[1.0], [1.0]], [1.0, 1.0],
                               upper_bounds=[2.0])
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


# one program of one row and one column
ONE = dict(objective=[1.0], constraint_matrix=[[1.0]], rhs=[1.0])
# a stack of four programs of two rows, two leading columns and three others
FOUR = dict(objective=np.ones(5), constraint_matrix=np.ones((2, 3)), rhs=np.ones((4, 2)),
            leading_columns=np.ones((4, 2, 2)))
# a stack of five programs of two rows and four columns
FIVE = lp.LinearProgram("maximize", [1.0, 2.0, 1.0, -1.0],
                        [[1.0, 1.0, 2.0, 0.0], [1.0, -1.0, 2.0, 1.0]], np.ones((5, 2)),
                        upper_bounds=np.full(4, 4.0))
NO_VALUE = "a lower bound of +inf or an upper bound of -inf admits no value"
BASIS = "basis must hold 2 distinct column indices below 6"
INDEX = "a LinearProgram is indexed by an integer or a slice, not "


def built(base=ONE, sense="minimize", **changed):
    """A call building the program ``base`` with the arrays ``changed``."""
    return lambda: lp.LinearProgram(sense, **{**base, **changed})


def started(basis):
    """A call solving ``FIVE`` with ``basis`` as its third program's start."""
    return lambda: lp.solve_many(FIVE, bases=[[0, 1], None, basis, [0, 1], None])


# each rejection of the kernel's arguments but the shape of each array
# for each stack size, which the next test sweeps
REJECTIONS = [
    (built(sense="argmax"), ValueError, "sense must be 'maximize' or 'minimize', got 'argmax'"),
    (built(constraint_matrix=np.ones((1, 0))), ValueError,
     "constraint matrix needs at least one row and one column"),
    (built(objective=[1.0, 2.0]), ValueError, "objective has shape (2,), expected (1,)"),
    (built(rhs=[1.0, 2.0]), ValueError, "rhs has shape (2,), expected (1,) or (k, 1)"),
    (built(lower_bounds=[0.0, 0.0]), ValueError, "lower_bounds has shape (2,), expected (1,)"),
    # leading columns whose rows do not match the matrix's, three blocks
    # of them for four programs, and costs that leave them out or whose
    # count does not match the programs'
    (built(FOUR, leading_columns=np.ones((3, 2))), ValueError,
     "leading_columns has shape (3, 2), expected (2, 2) or (4, 2, 2)"),
    (built(FOUR, leading_columns=np.ones((3, 2, 2))), ValueError,
     "leading_columns has shape (3, 2, 2), expected (2, 2) or (4, 2, 2)"),
    (built(FOUR, objective=np.ones(3)), ValueError,
     "objective has shape (3,), expected (5,) or (4, 5)"),
    (built(FOUR, objective=np.ones((3, 5))), ValueError,
     "objective has shape (3, 5), expected (5,) or (4, 5)"),
    (built(objective=[np.nan]), ValueError, "objective contains non-finite entries"),
    (built(FOUR, leading_columns=[[1.0, np.nan], [1.0, 1.0]]), ValueError,
     "leading_columns contains non-finite entries"),
    (built(FOUR, rhs=[[1.0, 1.0]] * 3 + [[1.0, np.inf]]), ValueError,
     "rhs contains non-finite entries"),
    (built(lower_bounds=[np.nan]), ValueError, "bounds must not contain NaN"),
    # no value lies in [+inf, u] or [l, -inf], for one program or one of a stack
    (built(lower_bounds=[np.inf]), ValueError, NO_VALUE),
    (built(upper_bounds=[-np.inf]), ValueError, NO_VALUE),
    (built(FOUR, lower_bounds=[[0.0] * 5] * 2 + [[np.inf] + [0.0] * 4] + [[0.0] * 5]),
     ValueError, NO_VALUE),
    (built(lower_bounds=[2.0], upper_bounds=[1.0]), ValueError, "lower bound exceeds upper bound"),
    # integer indices only: 0.7 would truncate to 0, and True read as 1;
    # q + p = 6 names no column, and every basis of a stack is checked
    (started([0]), ValueError, BASIS),
    (started([0, 1, 2]), ValueError, BASIS),
    (started([0, 0]), ValueError, BASIS),
    (started([0, 6]), ValueError, BASIS),
    (started([-1, 2]), ValueError, BASIS),
    (started([0.7, 1.7]), ValueError, BASIS),
    (started([True, False]), ValueError, BASIS),
    (lambda: lp.solve(FIVE[0], basis=[0, 6]), ValueError, BASIS),
    (lambda: lp.solve_many(FIVE, bases=[[0, 1]]), ValueError, "got 1 bases for 5 programs"),
    # fancy indexing would copy, so the program it gave could be written to
    (lambda: FIVE[[0, 2]], TypeError, INDEX + "list"),
    (lambda: FIVE[np.array([0, 2])], TypeError, INDEX + "ndarray"),
    (lambda: FIVE[np.arange(5) < 2], TypeError, INDEX + "ndarray"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS,
                         ids=[message for _, _, message in REJECTIONS])
def test_each_rejection_names_its_fault(call, error, message, assert_rejects):
    assert_rejects(call, error, message)


# one program has p = 1 row and q = 2 columns: one leading, one of the matrix
@pytest.mark.parametrize("name, shape, rhs, expected", [
    # the rhs sets a stack's size, so only its row length and its axes count
    ("rhs", (2,), (1,), "(1,) or (k, 1)"),
    ("rhs", (2, 2), (1,), "(1,) or (k, 1)"),
    ("rhs", (2, 1, 1), (1,), "(1,) or (k, 1)"),
    ("objective", (3,), (2, 1), "(2,) or (2, 2)"),
    ("objective", (3, 2), (2, 1), "(2,) or (2, 2)"),
    ("objective", (3, 2), (1,), "(2,); only a k x 1 rhs makes a stack"),
    ("leading_columns", (2, 1), (2, 1), "(1, 1) or (2, 1, 1)"),
    ("leading_columns", (3, 1, 1), (2, 1), "(1, 1) or (2, 1, 1)"),
    ("leading_columns", (3, 1, 1), (1,), "(1, 1); only a k x 1 rhs makes a stack"),
    # the matrix sets p and its own width, so only its axes can be wrong
    ("constraint_matrix", (2, 2, 1, 1), (2, 1), "(1, 1) or (2, 1, 1)"),
    ("constraint_matrix", (3, 1, 1), (2, 1), "(1, 1) or (2, 1, 1)"),
    ("constraint_matrix", (3, 1, 1), (1,), "(1, 1); only a k x 1 rhs makes a stack"),
    ("lower_bounds", (3,), (2, 1), "(2,) or (2, 2)"),
    ("lower_bounds", (3, 2), (2, 1), "(2,) or (2, 2)"),
    ("lower_bounds", (3, 2), (1,), "(2,); only a k x 1 rhs makes a stack"),
    ("upper_bounds", (3,), (2, 1), "(2,) or (2, 2)"),
    ("upper_bounds", (3, 2), (2, 1), "(2,) or (2, 2)"),
    ("upper_bounds", (3, 2), (1,), "(2,); only a k x 1 rhs makes a stack")])
def test_each_array_has_one_programs_shape_or_one_per_program(name, shape, rhs, expected,
                                                              assert_rejects):
    arrays = dict(objective=np.ones(2), leading_columns=np.ones((1, 1)),
                  constraint_matrix=np.ones((1, 1)), rhs=np.ones(rhs),
                  lower_bounds=np.zeros(2), upper_bounds=np.ones(2))
    assert len(lp.LinearProgram("minimize", **arrays)) == rhs[0]
    arrays[name] = np.ones(shape)
    assert_rejects(built(arrays), ValueError, f"{name} has shape {shape}, expected {expected}")


def test_one_program_is_a_stack_of_one():
    one = lp.LinearProgram("maximize", [1.0, 2.0], [[1.0, 1.0]], [3.0],
                           upper_bounds=[2.0, 2.0])
    with pytest.raises(IndexError, match="^index 1 is out of bounds for axis 0 with size 1$"):
        one[1]
    assert len(one) == len(list(one)) == 1 and len(one[0:0]) == 0
    for name, _ in lp._ARRAYS:
        assert np.array_equal(getattr(one[0], name), getattr(one[-1], name))
        assert np.array_equal(getattr(one[0], name), getattr(one, name))
    assert lp.solve(one[0]).primal.tolist() == lp.solve(one).primal.tolist()


def test_a_stack_is_indexed_only_by_an_integer_or_a_slice():
    # any other index is a row of the rejection table
    stack = lp.LinearProgram("maximize", [1.0, 2.0], [[1.0, 1.0]], [[1.0], [2.0], [3.0]],
                             upper_bounds=[[2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    for part, rhs in ((stack[np.int64(1)], [2.0]), (stack[1:], [[2.0], [3.0]])):
        assert part.rhs.tolist() == rhs
        for name, _ in lp._ARRAYS:
            assert not getattr(part, name).flags.writeable, name


def test_iteration_limit_raises(monkeypatch):
    program = lp.LinearProgram("minimize", [0.0, 0.0],
                               [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with monkeypatch.context() as patch:
        # a budget of one pivot for this 2 x 2 program
        patch.setattr(lp, "_PIVOTS_PER_DIMENSION", 1 / 4)
        with pytest.raises(lp.IterationLimitError):
            lp.solve(program)
    # both artificials must be pivoted out, one iteration each
    assert lp.solve(program).iterations == 2


def test_bound_flips_count_as_iterations():
    # phase 1 flips x1, then x2, to its upper bound, then swaps the slack
    # for the artificial; phase 2 starts optimal
    program = lp.LinearProgram("maximize", [1.0, 2.0, 0.0], [[1.0, 1.0, 1.0]], [3.0],
                               upper_bounds=[1.0, 1.0, np.inf])
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.iterations == 3
    assert sol.phase1_iterations == 3
    assert sol.primal == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_upper_bound_one_never_exceeded():
    rng = np.random.default_rng(7)
    for _ in range(25):
        program = random_bounded_lp(rng)
        capped = program.upper_bounds.copy()
        capped[int(rng.integers(program.cols))] = 1.0
        program = lp.LinearProgram(program.sense, program.objective,
                                   program.constraint_matrix, program.rhs,
                                   upper_bounds=capped)
        sol = lp.solve(program)
        if sol.status == lp.OPTIMAL:
            assert np.all(sol.primal <= capped + 1e-9)


def test_determinism():
    rng = np.random.default_rng(11)
    for _ in range(10):
        program = random_bounded_lp(rng)
        first = lp.solve(program)
        second = lp.solve(program)
        assert first.status == second.status
        if first.status == lp.OPTIMAL:
            assert first.objective_value == second.objective_value
            assert np.array_equal(first.primal, second.primal)


def test_optimal_solutions_are_feasible():
    rng = np.random.default_rng(13)
    tol = lp.FEAS_TOL
    for _ in range(25):
        program = random_bounded_lp(rng)
        sol = lp.solve(program, tol)
        assert sol.status == lp.OPTIMAL  # built around a feasible point
        assert np.all(sol.primal >= program.lower_bounds - tol)
        assert np.all(sol.primal <= program.upper_bounds + tol)
        resid = np.abs(program.constraint_matrix @ sol.primal - program.rhs)
        assert np.all(resid <= tol * (1.0 + np.abs(program.rhs)))


def test_matches_exhaustive_vertex_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        program = random_bounded_lp(rng)
        sol = lp.solve(program)
        assert sol.status == lp.OPTIMAL
        best = oracles.best_vertex_objective(program)
        assert best is not None
        assert sol.objective_value == pytest.approx(best, abs=1e-7)


def random_mixed_lp(rng, degenerate):
    """Random equality LP with free, boxed, pinned and one-sided variables.

    Built around a feasible point and a dual-feasible cost, so that an
    optimum exists.  With ``degenerate`` the feasible point rests every
    bounded variable on a bound, so the right-hand side sits on a vertex
    and ties in the ratio test are common.
    """
    p = int(rng.integers(1, 6))
    q = int(rng.integers(p + 1, 11))
    A = np.where(rng.random((p, q)) < 0.25, 0.0, rng.uniform(-2.0, 2.0, (p, q)))
    kind = rng.choice(["free", "boxed", "pinned", "lower", "upper"], q,
                      p=[0.15, 0.35, 0.1, 0.25, 0.15])
    lo = np.where(np.isin(kind, ["free", "upper"]), -np.inf, rng.uniform(-2.0, 1.0, q))
    hi = np.where(np.isin(kind, ["free", "lower"]), np.inf,
                  np.where(kind == "pinned", lo, lo + rng.uniform(0.5, 3.0, q)))
    hi[kind == "upper"] = rng.uniform(-1.0, 2.0, int(np.sum(kind == "upper")))
    if degenerate:
        feasible = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        boxed = np.flatnonzero(kind == "boxed")
        flip = boxed[rng.random(boxed.size) < 0.5]
        feasible[flip] = hi[flip]
    else:
        low = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi - 3.0, -3.0))
        high = np.where(np.isfinite(hi), hi, low + 3.0)
        feasible = rng.uniform(low, high)
    # reduced costs of the right sign at the bounds make the optimum finite
    d = rng.uniform(0.0, 1.0, q)
    d[kind == "free"] = 0.0
    d[kind == "upper"] *= -1.0
    boxed_or_pinned = np.isin(kind, ["boxed", "pinned"])
    d[boxed_or_pinned] = rng.uniform(-1.0, 1.0, int(boxed_or_pinned.sum()))
    cost = A.T @ rng.uniform(-1.0, 1.0, p) + d
    sense = "maximize" if rng.integers(2) else "minimize"
    if sense == "maximize":
        cost = -cost
    return lp.LinearProgram(sense, cost, A, A @ feasible,
                            lower_bounds=lo, upper_bounds=hi)


def random_support_lp(rng):
    """Random program boxed like the GRS step's maximal-support program.

    Over [cols | companions | slacks] with ``cols`` the unit columns and
    a normalising column -d, it maximises the companions' total, each
    companion boxed into [0, 1], subject to ``cols (x + z) + B v = 0``.
    The right-hand side is zero, so phase 2 starts at once, with every
    artificial basic at zero.  Small integer entries make ties common.
    """
    p = int(rng.integers(2, 6))
    k = int(rng.integers(1, 7))
    A = rng.integers(-2, 4, (p, k)).astype(float)
    B = np.hstack([np.eye(p), -np.eye(p)])[:, rng.random(2 * p) < 0.5]
    d = A @ rng.integers(0, 3, k) + B @ rng.integers(0, 2, B.shape[1])
    cols = np.hstack([A, -d[:, None]])
    q = cols.shape[1]
    cost = np.concatenate([np.zeros(q), np.ones(q), np.zeros(B.shape[1])])
    upper = np.concatenate([np.full(q, np.inf), np.ones(q), np.full(B.shape[1], np.inf)])
    return lp.LinearProgram("maximize", cost, np.hstack([cols, cols, B]), np.zeros(p),
                            upper_bounds=upper)


def test_matches_highs_on_mixed_bounds():
    rng = np.random.default_rng(29)
    programs = [random_mixed_lp(rng, degenerate=trial % 3 == 0) for trial in range(240)]
    programs += [random_support_lp(rng) for _ in range(120)]
    for program in programs:
        sol = lp.solve(program)
        assert sol.status == lp.OPTIMAL
        best, duals = oracles.lp_optimum_highs(program)
        assert sol.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)
        x, lo, hi = sol.primal, program.lower_bounds, program.upper_bounds
        assert np.all(x >= lo - 1e-9)
        assert np.all(x <= hi + 1e-9)
        # the duals prove optimality: every reduced cost, in the sense of
        # minimisation, has the sign the bound its variable rests on allows
        sign = 1.0 if program.sense == "minimize" else -1.0
        reduced = sign * (program.objective - sol.duals @ program.constraint_matrix)
        at_lo, at_hi = x <= lo + 1e-9, x >= hi - 1e-9
        assert np.all(at_lo | (reduced <= 1e-9))
        assert np.all(at_hi | (reduced >= -1e-9))
        # and are the only duals when the columns strictly between their
        # bounds span the rows
        between = program.constraint_matrix[:, ~(at_lo | at_hi)]
        if np.linalg.matrix_rank(between) == program.rows:
            assert sol.duals == pytest.approx(duals, rel=1e-7, abs=1e-7)


def lp_with_feasible_basis(rng):
    """Random boxed LP and a basis built to be feasible for it.

    The basic values are drawn inside their bounds and every other
    variable rests on its lower bound, so the right-hand side
    ``B x_B + N x_N`` makes that basis a feasible start.
    """
    p = int(rng.integers(1, 6))
    q = int(rng.integers(p + 1, 11))
    A = rng.uniform(-2.0, 2.0, (p, q))
    lo = rng.uniform(-2.0, 1.0, q)
    hi = lo + np.where(rng.random(q) < 0.15, 0.0, rng.uniform(0.5, 3.0, q))
    basis = rng.choice(q, p, replace=False)
    x = lo.copy()
    x[basis] = rng.uniform(lo[basis], hi[basis])
    sense = "maximize" if rng.integers(2) else "minimize"
    program = lp.LinearProgram(sense, rng.uniform(-1.0, 1.0, q), A, A @ x,
                               lower_bounds=lo, upper_bounds=hi)
    return program, basis


def test_feasible_basis_skips_phase_one():
    rng = np.random.default_rng(31)
    for _ in range(200):
        program, basis = lp_with_feasible_basis(rng)
        sol = lp.solve(program, basis=basis)
        assert sol.status == lp.OPTIMAL
        assert sol.phase1_iterations == 0
        best, _ = oracles.lp_optimum_highs(program)
        assert sol.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)


def test_unusable_basis_falls_back_to_phase_one():
    # x3 = 2 x1, so {x1, x3} is singular; {x1, x2} puts x2 at -1 < 0
    A = [[1.0, 1.0, 2.0, 0.0], [1.0, -1.0, 2.0, 1.0]]
    program = lp.LinearProgram("maximize", [1.0, 2.0, 1.0, -1.0], A, [1.0, 3.0],
                               upper_bounds=[4.0, 4.0, 4.0, 4.0])
    cold = lp.solve(program)
    assert cold.status == lp.OPTIMAL and cold.phase1_iterations > 0
    for basis in ([0, 2], [0, 1]):
        sol = lp.solve(program, basis=basis)
        assert sol.phase1_iterations > 0
        assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-9)


def test_basis_with_an_artificial_runs_phase_one_on_its_row():
    # the program above, where q + i = 4 + i names row i's artificial: at
    # x = 0 both rows' residuals are positive, so both artificials are
    # bounded by [0, inf)
    A = [[1.0, 1.0, 2.0, 0.0], [1.0, -1.0, 2.0, 1.0]]
    program = lp.LinearProgram("maximize", [1.0, 2.0, 1.0, -1.0], A, [1.0, 3.0],
                               upper_bounds=[4.0, 4.0, 4.0, 4.0])
    cold = lp.solve(program)
    # {x4, a0} puts x4 at 3 and a0 at 1: phase 1 on row 0 alone
    state = lp._SimplexState(program, lp.FEAS_TOL, [np.array([3, 4])])
    assert state.basis[0].tolist() == [3, 4] and state.phase1[0]
    sol = lp.solve(program, basis=[3, 4])
    assert 0 < sol.phase1_iterations < cold.phase1_iterations
    assert sol.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert sol.primal == pytest.approx(cold.primal, abs=1e-9)
    # {x1, a0} puts a0 at 1 - 3 = -2, below its bound: the artificial start
    state = lp._SimplexState(program, lp.FEAS_TOL, [np.array([0, 4])])
    assert state.basis[0].tolist() == [4, 5]
    assert lp.solve(program, basis=[0, 4]).phase1_iterations == cold.phase1_iterations
    # the artificial basis itself is the cold start, and a zero artificial
    # needs no phase 1
    assert lp.solve(program, basis=[4, 5]).iterations == cold.iterations
    zero = lp.LinearProgram("maximize", [1.0, 2.0, 1.0, -1.0], A, [0.0, 3.0],
                            upper_bounds=[4.0, 4.0, 4.0, 4.0])
    sol = lp.solve(zero, basis=[3, 4])
    assert sol.status == lp.OPTIMAL and sol.phase1_iterations == 0
    assert sol.objective_value == pytest.approx(lp.solve(zero).objective_value, abs=1e-9)


def test_zero_right_hand_side_skips_phase_one():
    # max x2 + x3 over x1 - x2 - x3 = 0, x2 - x3 = 0 with x1 in [0, 2]:
    # the resting point x = 0 is already feasible
    program = lp.LinearProgram("maximize", [0.0, 1.0, 1.0],
                               [[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]], [0.0, 0.0],
                               upper_bounds=[2.0, np.inf, np.inf])
    sol = lp.solve(program)
    assert sol.status == lp.OPTIMAL
    assert sol.phase1_iterations == 0
    assert sol.iterations > 0
    assert sol.primal == pytest.approx([2.0, 1.0, 1.0], abs=1e-12)


def test_ratio_test_passes_over_a_noise_pivot():
    # x2 enters with column (1e-9, 1): the 1e-9 is noise, yet its row
    # binds first, at step 0 against 1e-10 for the row below it.  Both
    # steps lie within feas_tol of each other, so the Harris passes take
    # the large pivot of row 1.
    program = lp.LinearProgram("maximize", [0.0, 0.0, 1.0],
                               [[1.0, 0.0, 1e-9], [0.0, 1.0, 1.0]], [0.0, 1e-10])
    state = lp._SimplexState(program, lp.FEAS_TOL, [[0, 1]])
    (step,), (pos,), (hits_upper,) = state._ratio_test(
        np.array([0]), np.array([2]), np.array([1.0]), np.array([[1e-9, 1.0]]),
        np.array([[0.0, 1e-10]]))
    assert (pos, hits_upper) == (1, False)
    assert step == pytest.approx(1e-10, abs=1e-20)
    sol = lp.solve(program, basis=[0, 1])
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)


def test_bland_rule_follows_the_degenerate_run():
    # two copies of one program from the crash basis [1, 0]; column 4 is
    # pinned, so flipping it is a degenerate pivot that changes nothing else
    program = lp.LinearProgram("maximize", np.zeros(5),
                               [[1.0, 0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 2.0, 1.0]],
                               np.zeros((2, 2)), upper_bounds=[np.inf] * 4 + [0.0])
    state = lp._SimplexState(program, lp.FEAS_TOL, [[1, 0], [1, 0]])
    lps, no = np.arange(2), np.zeros(2, dtype=bool)
    for _ in range(state.bland_after - 1):
        state._pivot(lps, np.array([4, 4]), np.zeros(2), np.array([-1, -1]), no)
    state._pivot(lps[1:], np.array([4]), np.zeros(1), np.array([-1]), no[1:])
    assert state.consec_degenerate.tolist() == [state.bland_after - 1, state.bland_after]
    # columns 2 and 3 improve, 3 the steeper: Dantzig's rule takes 3 and
    # Bland's the lower index, 2
    reduced = np.array([[0.0, 0.0, -1.0, -5.0, 0.0, 0.0, 0.0]] * 2)
    j, _, improving = state._entering(reduced)
    assert j.tolist() == [3, 2] and improving.all()
    # both basic rows bind at step 0: Harris's pass takes the larger pivot
    # element, at position 0 (variable 1), and Bland's rule the lower
    # variable index, at position 1 (variable 0)
    step, pos, _ = state._ratio_test(lps, np.array([2, 2]), np.ones(2),
                                     np.array([[2.0, 1.0]] * 2), np.zeros((2, 2)))
    assert pos.tolist() == [0, 1] and step.tolist() == [0.0, 0.0]
    # a pivot that is not degenerate ends the second LP's run, and with it
    # Bland's rule: 3 enters at position 0, and variable 1 rests at 0
    state._pivot(lps[1:], np.array([3]), np.ones(1), np.array([0]), no[1:])
    assert state.consec_degenerate.tolist() == [state.bland_after - 1, 0]
    reduced[1] = [0.0, -1.0, -5.0, 0.0, 0.0, 0.0, 0.0]
    j, _, _ = state._entering(reduced)
    assert j.tolist() == [3, 2]
    _, pos, _ = state._ratio_test(lps, np.array([2, 2]), np.ones(2),
                                  np.array([[2.0, 1.0]] * 2), np.zeros((2, 2)))
    assert pos.tolist() == [0, 0]


def mixed_batch(rng):
    """Programs and starting bases for one ``solve_many`` call.

    Several shapes, free, boxed and pinned variables, zero right-hand
    sides, feasible and unusable crash bases, and one infeasible and one
    unbounded program.
    """
    programs = [random_mixed_lp(rng, degenerate=trial % 3 == 0) for trial in range(60)]
    programs += [random_support_lp(rng) for _ in range(20)]  # zero right-hand side
    bases = [None] * len(programs)
    for _ in range(20):
        program, basis = lp_with_feasible_basis(rng)
        # the same program from its feasible basis and from a shuffled,
        # most often singular or infeasible one
        programs += [program, program]
        bases += [basis, rng.choice(program.cols, program.rows, replace=False)]
    programs.append(lp.LinearProgram("minimize", [0.0, 1.0], [[1.0, 1.0]], [-1.0]))
    programs.append(lp.LinearProgram("maximize", [1.0, 0.0], [[1.0, -1.0]], [0.0]))
    bases += [None, None]
    return programs, bases


def solve_in_stacks(programs, bases):
    """``lp.solve_many`` of the programs of ``mixed_batch``, one stack per
    shape and sense; the outcomes in the programs' order."""
    groups = {}
    for i, program in enumerate(programs):
        groups.setdefault((program.constraint_matrix.shape, program.sense), []).append(i)
    outcomes = [None] * len(programs)
    for (_, sense), members in groups.items():
        stack = lp.LinearProgram(sense, *(
            np.array([getattr(programs[i], name) for i in members])
            for name in ("objective", "constraint_matrix", "rhs", "lower_bounds",
                         "upper_bounds")))
        for i, outcome in zip(members, lp.solve_many(stack, bases=[bases[i] for i in members])):
            outcomes[i] = outcome
    return outcomes


def test_batch_matches_solving_alone(assert_bitwise):
    rng = np.random.default_rng(43)
    programs, bases = mixed_batch(rng)
    outcomes = solve_in_stacks(programs, bases)
    statuses = set()
    for program, basis, got in zip(programs, bases, outcomes):
        alone = lp.solve(program, basis=basis)
        assert_bitwise(got, alone)
        statuses.add(alone.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
    # a crash basis that is used skips phase 1, an unusable one does not
    assert {outcome.phase1_iterations > 0 for outcome, basis in zip(outcomes, bases)
            if basis is not None} == {True, False}


def test_pinned_zero_columns_change_no_optimum():
    # the programs of each row count and sense padded at their end to the
    # widest one's columns, with zero columns pinned at zero and priced at
    # zero, as the GRS step stacks its programs
    rng = np.random.default_rng(61)
    programs, bases = mixed_batch(rng)
    groups = {}
    for i, program in enumerate(programs):
        groups.setdefault((program.rows, program.sense), []).append(i)
    for (p, sense), members in groups.items():
        q = max(programs[i].cols for i in members)
        matrices = np.zeros((len(members), p, q))
        cost, lower, upper = np.zeros((3, len(members), q))
        for g, i in enumerate(members):
            own = programs[i].cols
            matrices[g, :, :own] = programs[i].constraint_matrix
            cost[g, :own] = programs[i].objective
            lower[g, :own] = programs[i].lower_bounds
            upper[g, :own] = programs[i].upper_bounds
        matrices.setflags(write=False)
        stack = lp.LinearProgram(sense, cost, matrices,
                                 np.array([programs[i].rhs for i in members]), lower, upper)
        for i, got in zip(members, lp.solve_many(stack, bases=[bases[i] for i in members])):
            program, own = programs[i], programs[i].cols
            alone = lp.solve(program, basis=bases[i])
            assert got.status == alone.status
            if alone.status != lp.OPTIMAL:
                continue
            assert not got.primal[own:].any()
            # the longer rows round the kernel's products otherwise, which
            # can settle a tie between pivots otherwise; the optimum stays
            assert got.objective_value == pytest.approx(alone.objective_value,
                                                        rel=1e-9, abs=1e-9)
            if not (program.rhs.any() or program.lower_bounds.any()):
                # a program that starts where it rests, at zero, as a GRS
                # program does, takes the same pivots to the same bits
                assert (got.iterations, got.phase1_iterations) \
                    == (alone.iterations, alone.phase1_iterations)
                assert np.array_equal(got.primal[:own], alone.primal)
                assert np.array_equal(got.duals, alone.duals)


@pytest.mark.parametrize("move_bytes", [0, lp._MOVE_BYTES])
def test_dropping_ended_lps_changes_no_outcome(move_bytes, monkeypatch, assert_bitwise):
    # LPs that end leave their stack: on a stack holding ``_MOVE_BYTES`` or
    # more, as every stack does when that is 0, the LPs beyond the kept
    # count move into the places of those dropped; a smaller stack is
    # copied in order.  Either way each outcome is bitwise the one alone,
    # in the programs' order.  An LP that moves while still in phase 1
    # prices its objective only after the move, so its outcome shows that
    # the objective moved with it.
    programs, bases = mixed_batch(np.random.default_rng(89))
    alone = [lp.solve_many(program, bases=[basis])[0]
             for program, basis in zip(programs, bases)]
    real_drop = lp._SimplexState._drop
    first_and_middle, reordered, moved_in_phase1 = [], [], []

    def drop(state, live):
        ended = np.flatnonzero(~live)
        # the first LP and a middle one end while a later one runs on
        first_and_middle.append(ended[0] == 0 and ended.size > 1
                                and live[ended[1] + 1:].any())
        was_at = {i: at for at, i in enumerate(state.ids.tolist())}
        real_drop(state, live)
        reordered.append(bool(np.any(np.diff(state.ids) < 0)))
        moved_in_phase1.append(any(was_at[i] != at and phase1 for at, (i, phase1) in
                                   enumerate(zip(state.ids.tolist(), state.phase1))))

    monkeypatch.setattr(lp, "_MOVE_BYTES", move_bytes)
    monkeypatch.setattr(lp._SimplexState, "_drop", drop)
    outcomes = solve_in_stacks(programs, bases)
    assert any(first_and_middle)
    assert any(reordered) == (move_bytes == 0)
    assert any(moved_in_phase1)
    for got, expected in zip(outcomes, alone):
        assert_bitwise(got, expected)


def rescaled_rows(program, rng):
    """``program`` with each row and its right-hand side scaled by 10^-5 to
    10^5, which leaves its optimum where it was."""
    scale = 10.0 ** rng.integers(-5, 6, program.rows)
    return lp.LinearProgram(program.sense, program.objective,
                            program.constraint_matrix * scale[:, None], program.rhs * scale,
                            program.lower_bounds, program.upper_bounds)


@pytest.mark.parametrize("per_lp", [False, True])
def test_optimum_check_keeps_the_verdict_of_the_full_row_scaled_bound(per_lp):
    # ``_conclude`` computes a row's max |a_ij x_j| term only for the LPs
    # whose residual exceeds feas_tol (1 + |b_i|); its verdicts stay those
    # of the full bound feas_tol (1 + |b_i| + max_j |a_ij x_j|) on every
    # point, here each optimum of ``mixed_batch`` and of the same programs
    # with rescaled rows, moved by relative amounts from 0 to 1e-7
    rng = np.random.default_rng(97)
    programs, bases = mixed_batch(rng)
    programs += [rescaled_rows(program, rng) for program in programs]
    bases += bases
    tol = lp.FEAS_TOL
    verdicts = set()
    for program, basis in zip(programs, bases):
        sol = lp.solve_many(program, bases=[basis])[0]
        if not isinstance(sol, lp.LpSolution) or sol.status != lp.OPTIMAL:
            continue
        shifts = np.array([0.0, 1e-13, 1e-11, 1e-10, 1e-9, 1e-7])
        k, p, q = shifts.size, program.rows, program.cols
        matrix = program.constraint_matrix
        stack = lp.LinearProgram(program.sense, program.objective,
                                 np.repeat(matrix[None], k, axis=0) if per_lp else matrix,
                                 np.tile(program.rhs, (k, 1)), program.lower_bounds,
                                 program.upper_bounds)
        state = lp._SimplexState(stack, lp.FEAS_TOL, [None] * k)
        state.live = np.ones(k, dtype=bool)
        x = np.zeros((k, q + p))
        x[:, :q] = sol.primal * (1.0 + shifts[:, None] * rng.uniform(-1.0, 1.0, (k, q)))
        # the full check, on the kernel's own arrays
        resid = np.abs(lp._times(state.A, x) - state.b)
        plain = (resid <= tol * (1.0 + np.abs(state.b))).all(axis=1)
        terms = np.abs(state.A * x[:, None, :]).max(axis=2)
        full = (resid <= tol * (1.0 + np.abs(state.b) + terms)).all(axis=1)
        bounded = ((x[:, :q] >= program.lower_bounds - tol)
                   & (x[:, :q] <= program.upper_bounds + tol)).all(axis=1)
        state._conclude(np.arange(k), x, np.zeros((k, p)))
        for outcome, plain_i, full_i, bounded_i in zip(state.outcomes, plain, full, bounded):
            expected = (lp.OPTIMAL if full_i else "equality row violated at claimed optimum"
                        ) if bounded_i else "variable bound violated at claimed optimum"
            got = outcome.status if isinstance(outcome, lp.LpSolution) else str(outcome)
            assert got == expected
            if bounded_i:
                verdicts.add((bool(plain_i), bool(full_i)))
    # points within the plain bound, beyond it but within the full one,
    # and beyond both
    assert verdicts == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("seed", [43, 47, 53, 59, 61])
def test_array_layout_changes_no_bit(seed, assert_bitwise):
    # the kernel pivots and checks with its own copy of each matrix, so a
    # Fortran-ordered, read-only matrix, which a program copies as it does
    # every array, gives the same pivots and bits as the program's own
    programs, bases = mixed_batch(np.random.default_rng(seed))
    for program, basis in zip(programs, bases):
        matrix = np.asfortranarray(program.constraint_matrix)
        matrix.setflags(write=False)
        transposed = lp.LinearProgram(program.sense, program.objective, matrix, program.rhs,
                                      program.lower_bounds, program.upper_bounds)
        assert transposed.constraint_matrix is not matrix
        (own,), (got,) = (lp.solve_many(one, bases=[basis]) for one in (program, transposed))
        assert_bitwise(got, own)


def test_writing_to_inputs_changes_no_outcome(assert_bitwise):
    # a program copies its arrays, so its caller may reuse them at once
    programs, bases = mixed_batch(np.random.default_rng(67))
    for program, basis in zip(programs, bases):
        r = program.cols // 2
        arrays = [program.objective.copy(), program.constraint_matrix[:, r:].copy(),
                  program.rhs.copy(), program.lower_bounds.copy(),
                  program.upper_bounds.copy(), program.constraint_matrix[:, :r].copy()]
        built = lp.LinearProgram(program.sense, *arrays)
        (expected,) = lp.solve_many(built, bases=[basis])
        for array in arrays:
            array[...] = 7.0
        (got,) = lp.solve_many(built, bases=[basis])
        assert_bitwise(got, expected)


@pytest.mark.parametrize("shared", ["leading", "matrix", "neither"])
def test_leading_columns_change_no_bit(shared, assert_bitwise):
    # each group of ``mixed_batch`` programs of one shape and sense, its
    # columns split in two blocks, one of which its programs may share
    programs, bases = mixed_batch(np.random.default_rng(73))
    groups = {}
    for i, program in enumerate(programs):
        groups.setdefault((program.cols, program.rows, program.sense), []).append(i)
    for (q, _, sense), members in groups.items():
        r = q // 2
        matrices = np.array([programs[i].constraint_matrix for i in members])
        leading, matrix = matrices[:, :, :r], matrices[:, :, r:]
        if shared == "leading":
            leading = matrices[0, :, :r].copy()
            matrices[:, :, :r] = leading
        elif shared == "matrix":
            matrix = matrices[0, :, r:].copy()
            matrices[:, :, r:] = matrix
        objective, rhs, lower, upper = (
            np.array([getattr(programs[i], name) for i in members])
            for name in ("objective", "rhs", "lower_bounds", "upper_bounds"))
        split = lp.LinearProgram(sense, objective, matrix, rhs, lower, upper, leading)
        whole = lp.LinearProgram(sense, objective, matrices, rhs, lower, upper)
        assert split.cols == whole.cols == q
        starts = [bases[i] for i in members]
        expected = lp.solve_many(whole, bases=starts)
        for got, outcome in zip(lp.solve_many(split, bases=starts), expected):
            assert_bitwise(got, outcome)
        # one program of the split stack keeps its own columns
        (alone,) = lp.solve_many(split[-1], bases=starts[-1:])
        assert_bitwise(alone, expected[-1])


def test_leading_columns_are_checked():
    # the table's stack, whose leading columns each rejection row spoils
    program = lp.LinearProgram("maximize", **FOUR)
    assert (program.rows, program.cols, program[1].leading_columns.shape) == (2, 5, (2, 2))


def test_a_failed_system_fails_alone():
    # a singular matrix fails numpy's solve of the whole stack, so each
    # system is solved alone; a solve that overflows fails the check of
    # the stack's sum; either way the other system is solved exactly
    regular, rhs = [[2.0, 0.0], [0.0, 4.0]], [1.0, 2.0]
    for matrix, column, reason in (
            ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], "singular basis matrix"),
            ([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0], "basis solve gave non-finite values")):
        matrices, columns = np.array([matrix, regular]), np.array([column, rhs])
        for given in (columns, columns[:, :, None]):
            solved, failed = lp._solve_stack(matrices, given)
            assert failed == {0: reason}
            assert solved.shape == given.shape
            assert solved.ravel().tolist() == [0.0, 0.0, 0.5, 0.5]


# entries no generator above produces: the basis solve of a program
# holding the first fails as singular, and that of one holding the second
# as non-finite
MARKS = {2.75 + 1e-7: "singular basis matrix", 3.25 + 1e-7: "basis solve gave non-finite values"}


def test_failures_end_only_their_own_lp(monkeypatch, assert_bitwise):
    rng = np.random.default_rng(47)
    programs, bases = mixed_batch(rng)
    alone = [lp.solve(program, basis=basis) for program, basis in zip(programs, bases)]
    # the budget: just below the pivots per dimension of the LP that
    # needs the most, and enough for every other
    ratios = [sol.iterations / (program.rows + program.cols)
              for program, sol in zip(programs, alone)]
    exhausted = int(np.argmax(ratios))
    budget = max(r for i, r in enumerate(ratios) if i != exhausted)
    assert ratios[exhausted] > budget
    # x1 enters at the first pivot, and its basis then fails to factor,
    # or its solve gives NaN
    programs[7:7] = [lp.LinearProgram("maximize", [1.0, 0.0], [[mark, 1.0]], [1.0])
                     for mark in MARKS]
    bases[7:7] = alone[7:7] = [None, None]
    exhausted += 2 * (exhausted >= 7)
    real_solve = lp._solve_stack

    def marked(matrices, rhs):
        solved, failed = real_solve(matrices, rhs)
        for mark, reason in MARKS.items():
            for i in np.flatnonzero(np.any(matrices == mark, axis=(1, 2))):
                failed[i] = reason
                solved[i] = 0.0
        return solved, failed

    monkeypatch.setattr(lp, "_solve_stack", marked)
    monkeypatch.setattr(lp, "_PIVOTS_PER_DIMENSION", budget)
    outcomes = solve_in_stacks(programs, bases)
    assert type(outcomes[7]) is lp.LpError
    assert str(outcomes[7]) == "singular basis matrix"
    assert type(outcomes[8]) is lp.LpError
    assert str(outcomes[8]) == "basis solve gave non-finite values"
    assert type(outcomes[exhausted]) is lp.IterationLimitError
    for i in (7, 8, exhausted):
        # the same error as when solved alone
        with pytest.raises(type(outcomes[i]), match=str(outcomes[i])):
            lp.solve(programs[i], basis=bases[i])
    for i, (got, expected) in enumerate(zip(outcomes, alone)):
        if i not in (7, 8, exhausted):
            assert_bitwise(got, expected)



@pytest.mark.parametrize("solve", ["improving", "ending phase 1", "concluding"])
def test_a_solve_failing_mid_round_ends_only_its_lp(solve, monkeypatch, assert_bitwise):
    # one LP of a stack fails, as on a singular basis, at the solve of its
    # basic values with the entering column in phase 2, or at the solve
    # that ends its phase 1 or concludes it
    programs, bases = mixed_batch(np.random.default_rng(83))
    alone = [lp.solve(program, basis=basis) for program, basis in zip(programs, bases)]
    groups = {}
    for i, program in enumerate(programs):
        groups.setdefault((program.constraint_matrix.shape, program.sense), []).append(i)
    # an LP with both phases and another of its stack at its pace, so that
    # the two share every solve of their rounds
    pace = [(sol.status, sol.iterations, sol.phase1_iterations) for sol in alone]
    members, chosen = next((members, i) for members in groups.values() for i in members
                           if pace[i][0] == lp.OPTIMAL and pace[i][1] > pace[i][2] > 0
                           and [pace[j] for j in members].count(pace[i]) > 1)
    program = programs[chosen]
    seen = {"state": None, "rows": None, "solves": 0, "failed": None}
    real_round, real_running = lp._SimplexState._round, lp._SimplexState._running
    real_solve = lp._solve_stack

    def round_(state):
        seen["state"], seen["solves"] = state, 0
        real_round(state)
        seen["state"] = None

    def running(state, mask):
        seen["rows"] = real_running(state, mask)
        return seen["rows"]

    def solve_stack(matrices, rhs):
        solved, failed = real_solve(matrices, rhs)
        state = seen["state"]
        if state is None or seen["failed"] is not None:
            return solved, failed
        seen["solves"] += 1
        if seen["solves"] == 1 or (state.p, state.q, state.sign) != (
                program.rows, program.cols, 1.0 if program.sense == "minimize" else -1.0):
            return solved, failed
        (at,) = np.flatnonzero(state.ids == members.index(chosen))
        rows = seen["rows"]
        which = ("improving" if rhs.ndim == 3
                 else "ending phase 1" if state.phase1[at] else "concluding")
        if which == solve and at in rows and not (solve == "improving" and state.phase1[at]):
            row = int(np.flatnonzero(rows == at)[0])
            failed[row] = "injected failure"
            solved[row] = 0.0
            seen["failed"] = len(rows)
        return solved, failed

    monkeypatch.setattr(lp._SimplexState, "_round", round_)
    monkeypatch.setattr(lp._SimplexState, "_running", running)
    monkeypatch.setattr(lp, "_solve_stack", solve_stack)
    outcomes = solve_in_stacks(programs, bases)
    # the failure struck in a solve that other LPs of the stack shared
    assert seen["failed"] > 1
    assert type(outcomes[chosen]) is lp.LpError
    assert str(outcomes[chosen]) == "injected failure"
    for i, (got, expected) in enumerate(zip(outcomes, alone)):
        if i != chosen:
            assert_bitwise(got, expected)


def test_import_does_not_load_scipy():
    # scipy backs only the test oracles; importing it would triple start-up
    src = Path(lp.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ramdea; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, encoding="utf-8", timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
