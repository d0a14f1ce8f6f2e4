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


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        lp.LinearProgram("minimize", [1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0], lower_bounds=[0.0, 0.0])


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        lp.LinearProgram("argmax", [1.0], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram("minimize", [np.nan], [[1.0]], [1.0])
    with pytest.raises(ValueError):
        lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0],
                         lower_bounds=[2.0], upper_bounds=[1.0])
    with pytest.raises(ValueError):
        lp.SolverSettings(feas_tol=0.0)


def test_iteration_limit_raises():
    program = lp.LinearProgram("minimize", [0.0, 0.0],
                               [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(lp.IterationLimitError):
        lp.solve(program, lp.SolverSettings(max_iterations=1))
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
    settings = lp.SolverSettings()
    for _ in range(25):
        program = random_bounded_lp(rng)
        sol = lp.solve(program, settings)
        assert sol.status == lp.OPTIMAL  # built around a feasible point
        assert np.all(sol.primal >= program.lower_bounds - settings.feas_tol)
        assert np.all(sol.primal <= program.upper_bounds + settings.feas_tol)
        resid = np.abs(program.constraint_matrix @ sol.primal - program.rhs)
        assert np.all(resid <= settings.feas_tol * (1.0 + np.abs(program.rhs)))


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


def test_matches_highs_on_mixed_bounds():
    rng = np.random.default_rng(29)
    for trial in range(240):
        program = random_mixed_lp(rng, degenerate=trial % 3 == 0)
        sol = lp.solve(program)
        assert sol.status == lp.OPTIMAL
        best = oracles.lp_optimum_highs(program)
        assert sol.objective_value == pytest.approx(best, rel=1e-7, abs=1e-7)
        assert np.all(sol.primal >= program.lower_bounds - 1e-9)
        assert np.all(sol.primal <= program.upper_bounds + 1e-9)


def test_import_does_not_load_scipy():
    # scipy backs only the test oracles; importing it would triple start-up
    src = Path(lp.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ramdea; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
