"""Batched entry points against their single-unit forms, and the checks
that a stack of programs must still make one program at a time."""

import numpy as np
import pytest

from ramdea import dea, grs, lp, rts
from recorder import recording


@pytest.fixture(scope="module")
def forty(random_dataset):
    return random_dataset(np.random.default_rng(61), 40, 2, 2)


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_batched_stages_equal_single_unit_calls(forty, scheme, regime, monkeypatch,
                                                kernel_calls, assert_bitwise):
    # bam varies the cost and the pinned slacks by unit, so its programs
    # share only their matrix
    units = range(forty.n_dmus)
    results = dea.evaluate_many(forty, units, scheme, regime)
    for o, result in zip(units, results):
        assert_bitwise(result, dea.evaluate(forty, o, scheme, regime))
    with monkeypatch.context() as patch:
        # the GRS programs of every width share one stack
        calls = kernel_calls(grs, patch)
        references = grs.identify_grs_many(forty, results)
    assert len(calls) == 1
    for o, reference in zip(units, references):
        assert_bitwise(reference, grs.identify_grs(forty, o, results[o]))
    anchors = [(reference.interior_projection_inputs, reference.interior_projection_outputs)
               for reference in references]
    for anchor, bounds in zip(anchors, rts.intercept_bounds_many(forty, anchors)):
        try:
            alone = rts.intercept_bounds(forty, anchor)
        except lp.RamdeaError as error:
            alone = error
        assert_bitwise(bounds, alone)


def random_system(rng, p):
    """A feasible system (A, B, d) of float arrays for
    ``grs._max_support_many`` with p rows: with or without B columns,
    homogeneous or not."""
    A = rng.uniform(-1.0, 2.0, (p, int(rng.integers(1, 7))))
    B = np.hstack([np.eye(p), -np.eye(p)])[:, rng.random(2 * p) < 0.5]
    if rng.random() < 0.3:
        B = B[:, :0]
    if rng.random() < 0.3:
        return A, B, np.zeros(p)
    d = A @ (rng.uniform(0.0, 1.0, A.shape[1]) * (rng.random(A.shape[1]) < 0.6))
    return A, B, d + B @ rng.uniform(0.0, 1.0, B.shape[1])


def test_max_support_stacks_each_row_count_once(kernel_calls, assert_bitwise):
    rng = np.random.default_rng(71)
    systems = [random_system(rng, 4) for _ in range(40)]
    alone = []
    for A, B, d in systems:
        try:
            alone.append(grs.max_support_solution(A, B, d))
        except lp.RamdeaError as error:
            alone.append(error)
    calls = kernel_calls(grs)
    got = grs._max_support_many(systems, lp.FEAS_TOL, grs.SUPPORT_TOL)
    # one stack, its programs padded to its widest
    ((stack, _, _),) = calls
    assert (len(stack), stack.rows) == (40, 4)
    own = [np.flatnonzero(upper)[-1] + 1 for upper in stack.upper_bounds]
    assert min(own) < max(own) == stack.cols
    for solution, expected in zip(got, alone):
        assert_bitwise(solution, expected)


def stack_layout(k=5, p=2, q=4):
    rng = np.random.default_rng(67)
    A = rng.uniform(-1.0, 1.0, (p, q))
    return np.ones(q), A, rng.uniform(0.0, 1.0, (k, p)), np.zeros(q), np.full(q, 3.0)


def test_stack_checks_every_program():
    cost, A, rhs, lower, upper = stack_layout()
    programs = lp.LinearProgram("maximize", cost, A, rhs, lower, upper)
    assert len({id(program.constraint_matrix) for program in programs}) == 1
    assert [program.rhs.tolist() for program in programs] == rhs.tolist()
    # one matrix of the wrong length among per-program matrices makes no
    # array; every other fault of one program of a stack is a row of the
    # rejection table of tests/test_lp.py
    with pytest.raises(ValueError, match=r"^setting an array element with a sequence\. "):
        lp.LinearProgram("maximize", cost, [A, A, A[:, :3], A, A], rhs, lower, upper)


def test_an_empty_stack_solves_to_nothing():
    empty = lp.LinearProgram("minimize", [1.0], [[1.0]], np.zeros((0, 1)))
    assert len(empty) == 0 and lp.solve_many(empty) == []


def test_bases_are_checked_before_any_stack_runs(monkeypatch):
    # one program a stack, and a bad basis on the last of six
    programs = lp.LinearProgram("maximize", *stack_layout(k=6))
    monkeypatch.setattr(lp, "_STACK_BYTES", 1)
    with recording() as kernel:
        assert len(grs.solve_many(programs, bases=[[0, 1]] * 6)) == len(kernel["grs"]) == 6
    with recording() as kernel, pytest.raises(
            ValueError, match="^basis must hold 2 distinct column indices below 6$"):
        grs.solve_many(programs, bases=[[0, 1]] * 5 + [[0, 0]])
    assert kernel["grs"] == []


def test_stack_budget_counts_each_matrix_with_its_artificials(monkeypatch):
    # a stack of per-LP matrices holds each as p x (q + p) for the kernel;
    # one byte short of room for k of them takes two stacks
    cost, A, rhs, lower, upper = stack_layout(k=6)
    (k, p), q = rhs.shape, A.shape[1]
    programs = lp.LinearProgram("maximize", cost, np.stack([A] * k), rhs, lower, upper)
    monkeypatch.setattr(lp, "_STACK_BYTES", k * (lp._state_bytes(p, q) + 8 * p * (q + p)) - 1)
    with recording() as kernel:
        grs.solve_many(programs)
    assert [lps for lps, _, _ in kernel["grs"]] == [3, 3]


def test_intercepts_of_every_anchor_make_one_kernel_call(forty, monkeypatch, assert_bitwise):
    results = dea.evaluate_many(forty, range(forty.n_dmus))
    anchors = [(reference.interior_projection_inputs, reference.interior_projection_outputs)
               for reference in grs.identify_grs_many(forty, results)]
    alone = []
    for anchor in anchors:
        try:
            alone.append(rts.intercept_bounds(forty, anchor))
        except lp.RamdeaError as error:
            alone.append(error)
    distinct = len({(x.tobytes(), y.tobytes()) for x, y in anchors})
    assert distinct == 22
    # a stack budget small enough to split the call into several stacks
    monkeypatch.setattr(lp, "_STACK_BYTES", 50_000)
    sizes = []
    with recording(lambda stage, stack, bases, outcomes: sizes.append(len(stack))) as kernel:
        got = rts.intercept_bounds_many(forty, anchors)
    # both ends of every distinct anchor, then at most the zero
    # right-hand-side programs of a few
    assert sizes[0] == 2 * distinct
    assert len(sizes) == 1 or (len(sizes) == 2 and sizes[1] < distinct)
    stacks = [lps for lps, _, _ in kernel["rts"]]
    assert len(stacks) > 2 and sum(stacks) == sum(sizes)
    for bounds, expected in zip(got, alone):
        assert_bitwise(bounds, expected)


def test_repeated_anchors_get_the_entry_of_their_first(forty, kernel_calls, assert_bitwise):
    results = dea.evaluate_many(forty, range(6))
    anchors = [(reference.interior_projection_inputs, reference.interior_projection_outputs)
               for reference in grs.identify_grs_many(forty, results)]
    # an anchor whose inputs are all non-positive has no interval
    nowhere = (np.zeros(2), np.ones(2))
    points = [nowhere] + anchors + [(x.copy(), y.copy()) for x, y in anchors[::-1]] + [
        (nowhere[0].copy(), nowhere[1].copy()), anchors[2]]
    alone = []
    for point in points:
        try:
            alone.append(rts.intercept_bounds(forty, point))
        except lp.RamdeaError as error:
            alone.append(error)
    calls = kernel_calls(rts)
    got = rts.intercept_bounds_many(forty, points)
    distinct = len({(x.tobytes(), y.tobytes()) for x, y in anchors})
    # both ends of each distinct solvable anchor, once
    assert len(calls[0][0]) == 2 * distinct
    assert len(got) == len(points)
    for bounds, expected in zip(got, alone):
        assert_bitwise(bounds, expected)
    assert type(got[0]) is type(got[-2]) is rts.NormalizationUnattainableError


def test_grs_takes_results_of_one_model(forty):
    # results of two models are a row of the rejection table of
    # tests/test_grs.py; no results are of one model
    assert grs.identify_grs_many(forty, []) == []
