"""Batched entry points against their single-unit forms, and the checks
that a stack of programs must still make one program at a time."""

import dataclasses

import numpy as np
import pytest

from ramdea import dea, grs, lp, rts
from recorder import recording


def assert_bitwise(got, expected):
    """The same type and fields, every float and array bit for bit."""
    assert type(got) is type(expected)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
        return
    pairs = (zip(dataclasses.astuple(got), dataclasses.astuple(expected))
             if dataclasses.is_dataclass(expected) else zip(got, expected))
    for a, b in pairs:
        if isinstance(b, (np.ndarray, float)):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@pytest.fixture(scope="module")
def forty():
    rng = np.random.default_rng(61)
    return dea.Dataset([f"u{j}" for j in range(40)], rng.uniform(1.0, 10.0, (2, 40)),
                       rng.uniform(1.0, 10.0, (2, 40)))


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_batched_stages_equal_single_unit_calls(forty, scheme, regime, monkeypatch,
                                                kernel_calls):
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


def test_max_support_stacks_each_row_count_once(kernel_calls):
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
    # one non-finite right-hand side among the shared arrays
    bad = rhs.copy()
    bad[3, 1] = np.inf
    with pytest.raises(ValueError, match="rhs"):
        lp.LinearProgram("maximize", cost, A, bad, lower, upper)
    # one program's bounds impossible
    bad = np.tile(lower, (5, 1))
    bad[2, 0] = np.inf
    with pytest.raises(ValueError):
        lp.LinearProgram("maximize", cost, A, rhs, bad, upper)
    # one matrix of the wrong length among per-program matrices
    with pytest.raises(ValueError):
        lp.LinearProgram("maximize", cost, [A, A, A[:, :3], A, A], rhs, lower, upper)
    # a stack of costs whose count does not match the programs'
    with pytest.raises(ValueError):
        lp.LinearProgram("maximize", np.ones((4, 4)), A, rhs, lower, upper)


def test_solve_many_checks_every_basis():
    programs = lp.LinearProgram("maximize", *stack_layout())
    good = [0, 1]
    for bad in ([0, 1, 2], [1, 1], [0, 4], [0.5, 1.0], [True, False]):
        with pytest.raises(ValueError, match="basis"):
            lp.solve_many(programs, bases=[good, None, bad, good, None])


def test_bases_are_checked_before_any_stack_runs(monkeypatch):
    # one program a stack, and a bad basis on the last of six
    programs = lp.LinearProgram("maximize", *stack_layout(k=6))
    stacks = []
    run = lp._SimplexState.run
    monkeypatch.setattr(lp._SimplexState, "run", lambda state: stacks.append(state) or run(state))
    monkeypatch.setattr(lp, "_STACK_BYTES", 1)
    assert len(lp.solve_many(programs, bases=[[0, 1]] * 6)) == len(stacks) == 6
    stacks.clear()
    with pytest.raises(ValueError, match="basis"):
        lp.solve_many(programs, bases=[[0, 1]] * 5 + [[0, 0]])
    assert stacks == []


def test_intercepts_of_every_anchor_make_one_kernel_call(forty, monkeypatch):
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


def test_repeated_anchors_get_the_entry_of_their_first(forty, kernel_calls):
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


def test_grs_takes_results_of_one_model():
    ds = dea.Dataset(["a", "b", "c"], [[1.0, 2.0, 3.0]], [[1.0, 3.0, 2.0]])
    results = [dea.evaluate(ds, 0, "ram", "vrs"), dea.evaluate(ds, 1, "bam", "vrs"),
               dea.evaluate(ds, 2, "ram", "crs")]
    with pytest.raises(ValueError, match="bam/vrs, ram/crs, ram/vrs"):
        grs.identify_grs_many(ds, results)
    assert grs.identify_grs_many(ds, []) == []
