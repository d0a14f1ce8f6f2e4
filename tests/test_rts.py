import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ramdea import dea, grs, lp, reporting, rts
from recorder import recorded
from reference import Inconclusive, intercept_interval


def test_intercepts_at_non_vertex_frontier_point(frontier8):
    ds = frontier8
    omega_min, omega_max = rts.intercept_bounds(ds, ([3.0], [6.0]))
    assert omega_min == pytest.approx(1.0, abs=1e-7)
    assert omega_max == pytest.approx(1.0, abs=1e-7)


def test_interior_point_is_rejected(frontier8):
    ds = frontier8
    with pytest.raises(rts.NotOnFrontierError):
        rts.intercept_bounds(ds, ([4.0], [5.0]))


def test_nonpositive_inputs_are_rejected(frontier8):
    ds = frontier8
    with pytest.raises(rts.NormalizationUnattainableError):
        rts.intercept_bounds(ds, ([-1.0], [2.0]))
    with pytest.raises(rts.NormalizationUnattainableError):
        rts.intercept_bounds(ds, ([0.0], [2.0]))


@pytest.mark.parametrize("point", [([1.0, 1.0], [2.0]), ([1.0], [2.0, 2.0]), ([], [2.0])])
def test_anchor_of_the_wrong_length_is_rejected(frontier8, point):
    with pytest.raises(ValueError, match="^anchor point does not match the dataset's dimensions$"):
        rts.intercept_bounds_many(frontier8, [([1.0], [2.0]), point])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["inputs", "outputs"])
def test_non_finite_anchors_are_rejected(frontier8, side, value):
    # a bad argument, not a verdict about the data such as an unattainable
    # normalisation, and one that names no argument of the kernel
    bad = ([value], [2.0]) if side == "inputs" else ([1.0], [value])
    with pytest.raises(ValueError, match="^anchor point must be finite$"):
        rts.intercept_bounds(frontier8, bad)
    with pytest.raises(ValueError, match="^anchor point must be finite$"):
        rts.intercept_bounds_many(frontier8, [([1.0], [2.0]), bad])


def test_classification_rule():
    assert rts.classify_rts((0.6, 1.0)) == rts.DECREASING
    assert rts.classify_rts((-1.0, -1.0 / 3.0)) == rts.INCREASING
    assert rts.classify_rts((-1.0 / 6.0, 1.0)) == rts.CONSTANT
    assert rts.classify_rts((0.0, 0.0)) == rts.CONSTANT
    # zero attainability is judged against rts_tol
    assert rts.classify_rts((1e-7, 1.0)) == rts.CONSTANT
    assert rts.classify_rts((1e-5, 1.0)) == rts.DECREASING
    assert rts.classify_rts((-1.0, -1e-5)) == rts.INCREASING


def test_program_shape(frontier8, kernel_calls):
    # each endpoint is one envelopment LP: an s + m + 1 row basis over
    # theta, alpha, one pi per unit and one slack per output and input
    ds = frontier8
    calls = kernel_calls(rts)
    rts.intercept_bounds(ds, ([5.0], [8.0]))
    programs = [program for stack, _, _ in calls for program in stack]
    n, m, s = ds.n_dmus, ds.n_inputs, ds.n_outputs
    assert [program.rhs[-1] for program in programs] == [1.0, -1.0]
    for program in programs:
        assert program.sense == "maximize"
        assert program.rows == m + s + 1
        assert program.cols == n + m + s + 2


def assert_ends_match(got, expected):
    """Each end equals the reference's; where that is unbounded, it equals
    the substitute, 1.0 in magnitude or pushed past the other end."""
    for end, other, reference, side in zip(got, got[::-1], expected, (-1.0, 1.0)):
        if np.isinf(reference):
            assert side * end == max(1.0, side * other)
        else:
            assert end == pytest.approx(reference, rel=1e-6, abs=1e-12)


def solved(calls):
    """The (basis, solution) of every LP of the recorded kernel ``calls``."""
    return [pair for stack, bases, outcomes in calls
            for pair in zip(bases or [None] * len(stack), outcomes)]


def slack_basis(ds):
    """The slack basis of a program over every unit of ``ds``: its s + m
    slack columns and the intercept row's artificial, column q + s + m."""
    q = ds.n_dmus + 2 + ds.n_inputs + ds.n_outputs
    return np.r_[ds.n_dmus + 2:q, q + ds.n_inputs + ds.n_outputs].tolist()


def test_min_end_starts_feasible_for_nonnegative_outputs(kernel_calls):
    rng = np.random.default_rng(23)
    calls = kernel_calls(rts)
    for _ in range(6):
        ds, anchors = random_instance(rng, "plain")
        for anchor in anchors:
            calls.clear()
            got = rts.intercept_bounds(ds, anchor)
            (min_basis, min_end), (max_basis, _) = solved(calls)[:2]
            assert min_basis[:2].tolist() == [0, 1]
            assert max_basis.tolist() == slack_basis(ds)
            assert min_end.status == lp.OPTIMAL
            assert min_end.phase1_iterations == 0
            expected = intercept_interval(ds.inputs, ds.outputs, *anchor)
            assert got[0] == pytest.approx(expected[0], rel=1e-6, abs=1e-12)


def test_min_end_with_negative_outputs_gets_no_start(kernel_calls):
    # at the anchor with a negative output, theta = alpha = -1 would give
    # a negative output slack, so that min end gets no feasible start and
    # starts from the slack basis; the other anchors of the same data
    # still get the start
    ds = dea.Dataset(["a", "b", "c"], [[1.0, 2.0, 4.0]], [[-1.0, 2.0, 3.0]])
    calls = kernel_calls(rts)
    for x_hat, y_hat in np.array([[[2.0], [2.0]], [[1.0], [-1.0]], [[3.0], [2.5]]]):
        calls.clear()
        got = rts.intercept_bounds(ds, (x_hat, y_hat))
        assert (solved(calls)[0][0].tolist() == slack_basis(ds)) == (y_hat[0] < 0.0)
        assert_ends_match(got, intercept_interval(ds.inputs, ds.outputs, x_hat, y_hat))


@pytest.mark.parametrize("variant", ["plain", "negative", "rescaled"])
def test_programs_without_the_min_end_start_begin_at_the_slacks(kernel_calls, variant):
    # every max end, zero right-hand side and min end with a negative
    # output starts from its s + m slacks and the intercept row's
    # artificial, so its phase 1 runs on that one row
    rng = np.random.default_rng([29, VARIANTS.index(variant)])
    calls = kernel_calls(rts)
    for _ in range(6):
        ds, anchors = random_instance(rng, variant)
        for anchor in anchors:
            calls.clear()
            got = rts.intercept_bounds(ds, anchor)
            programs = [program for stack, _, _ in calls for program in stack]
            started = [program.rhs[-1] > 0.0 and min(anchor[1]) >= 0.0 for program in programs]
            for start, (basis, _) in zip(started, solved(calls)):
                assert (basis.tolist() == slack_basis(ds)) != start
            assert_ends_match(got, intercept_interval(ds.inputs, ds.outputs, *anchor))


def test_nan_bounds_are_rejected():
    for bounds in ((np.nan, np.nan), (np.nan, 1.0), (0.5, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            rts.classify_rts(bounds)


def test_non_finite_tolerance_is_rejected():
    for rts_tol in (np.nan, np.inf, 0.0, -1e-6):
        with pytest.raises(ValueError, match="rts_tol"):
            rts.classify_rts((0.6, 1.0), rts_tol)


def test_clamp_substitute_never_crosses_a_finite_endpoint():
    # at the last vertex of a steep frontier the smallest intercept can
    # exceed the clamp while the largest is unbounded; the substituted
    # endpoint must then ride up to keep the interval ordered
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[10.0, 11.0]])
    omega_min, omega_max = rts.intercept_bounds(ds, ([2.0], [11.0]))
    assert omega_min == pytest.approx(4.5, abs=1e-7)
    assert omega_max >= omega_min
    assert rts.classify_rts((omega_min, omega_max)) == rts.DECREASING


def test_single_point_interval_stays_ordered():
    # the README's three units: C lies on the segment AB, so its interval
    # is the single point -2/9, whose two solves differ by rounding
    ds = dea.Dataset(["A", "B", "C"], [[2.0, 4.0, 3.0]], [[2.0, 5.0, 3.5]])
    reference = grs.identify_grs(ds, 2, dea.evaluate(ds, 2))
    omega_min, omega_max = rts.intercept_bounds(
        ds, (reference.interior_projection_inputs, reference.interior_projection_outputs))
    assert omega_min <= omega_max
    assert omega_min == pytest.approx(-2.0 / 9.0, abs=1e-12)
    assert omega_max == pytest.approx(-2.0 / 9.0, abs=1e-12)


def test_ends_crossing_beyond_rounding_are_an_error(frontier8, monkeypatch):
    ds = frontier8
    # the solves claim omega_min = 0.5 and omega_max = 0.4
    def claimed(stage, stack, bases, outcomes):
        outcomes[:] = [lp.LpSolution(lp.OPTIMAL, objective_value=value) for value in (0.5, -0.4)]

    monkeypatch.setattr(rts, "solve_many", recorded("rts", rts.solve_many, claimed))
    with pytest.raises(lp.LpError, match="cross"):
        rts.intercept_bounds(ds, ([3.0], [6.0]))


def test_negative_output_makes_lower_side_clamp():
    # anchoring at the unit with the largest (negative) output leaves the
    # output multiplier uncapped, so the intercept falls without bound;
    # here the largest intercept is -1, so the substituted minimum is -1
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[-1.0, -3.0]])
    omega_min, omega_max = rts.intercept_bounds(ds, ([1.0], [-1.0]))
    assert omega_max == pytest.approx(-1.0, abs=1e-9)
    assert omega_min == -1.0
    assert rts.classify_rts((omega_min, omega_max)) == rts.INCREASING


def test_intercepts_unbounded_both_ways_clamp_both_ends():
    # the first output is negative: with v = 1 the intercept at unit a is
    # -u1 + u2 - 1, and unit b stays below every such hyperplane
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[-1.0, -2.0], [1.0, 0.5]])
    assert intercept_interval(ds.inputs, ds.outputs, np.array([1.0]),
                              np.array([-1.0, 1.0])) == (-np.inf, np.inf)
    assert rts.intercept_bounds(ds, ([1.0], [-1.0, 1.0])) == (-1.0, 1.0)


def test_failed_zero_rhs_solve_is_an_error(monkeypatch):
    # both endpoint duals of this anchor are infeasible, so a second kernel
    # call solves its zero right-hand side; that solve's error is the anchor's
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[-1.0, -2.0], [1.0, 0.5]])
    calls = []

    def second_fails(stage, stack, bases, outcomes):
        calls.append(len(outcomes))
        if len(calls) == 2:
            outcomes[:] = [lp.LpError("injected")] * len(outcomes)

    monkeypatch.setattr(rts, "solve_many", recorded("rts", rts.solve_many, second_fails))
    with pytest.raises(lp.LpError, match="^injected$"):
        rts.intercept_bounds(ds, ([1.0], [-1.0, 1.0]))
    assert calls == [2, 1]


def test_anchor_off_frontier_with_both_endpoint_duals_infeasible_is_rejected():
    # unit a has the same outputs for less input, so no hyperplane with
    # v . x = 1 supports the anchor, yet both endpoint duals are
    # infeasible rather than unbounded: only the zero right-hand side
    # tells this case from the one above
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[-1.0, -2.0], [1.0, 0.5]])
    with pytest.raises(Inconclusive, match="status 2"):
        intercept_interval(ds.inputs, ds.outputs, np.array([2.0]), np.array([-1.0, 1.0]))
    with pytest.raises(rts.NotOnFrontierError):
        rts.intercept_bounds(ds, ([2.0], [-1.0, 1.0]))


# additive/vrs data translated by 1e4 (``robustness`` seed 1, small-049);
# the multiplier-form program solved by the package's kernel put U002's
# smallest intercept at -0.800042
def test_translated_data_endpoints_match_highs(bench_dataset):
    ds = reporting.parse_dataset(bench_dataset("robustness", 1, 49).csv_text())
    o = ds.index("U002")
    result = dea.evaluate(ds, o, "additive")
    reference = grs.identify_grs(ds, o, result)
    anchor = (reference.interior_projection_inputs,
              reference.interior_projection_outputs)
    expected = intercept_interval(ds.inputs, ds.outputs, *anchor)
    assert expected[0] == pytest.approx(-0.806014, abs=1e-6)
    assert rts.intercept_bounds(ds, anchor) == pytest.approx(expected, abs=1e-6)


# additive/vrs data shifted by 1e4 (``robustness`` seed 1, small-001)
def test_anchors_a_rounding_apart_give_the_same_interval(bench_dataset):
    # two interior projections of U001 with the same members, 1e-11
    # apart; a bound blind to the rows' scale failed the optimum check
    # at the first one and not at the second
    ds = reporting.parse_dataset(bench_dataset("robustness", 1, 1).csv_text())
    first, second = (rts.intercept_bounds(ds, ([10007.363973577707], outputs)) for outputs in (
        [10009.005471745171, 10008.634960609614], [10009.005471745182, 10008.634960609605]))
    assert rts.classify_rts(first) == rts.classify_rts(second)
    assert first == pytest.approx(second, abs=1e-6)


VARIANTS = ("plain", "translated", "rescaled", "negative")


def random_instance(rng, variant):
    """Random data of one variant, with frontier anchors mapped along.

    The anchors are the vrs ram projections of every unit, found on the
    untransformed data and carried through the same translation or
    rescaling, so they lie on the frontier of the transformed data.
    """
    n, m, s = int(rng.integers(4, 13)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    X = rng.uniform(1.0, 10.0, (m, n))
    Y = rng.uniform(-5.0 if variant == "negative" else 1.0, 10.0, (s, n))
    names = [f"u{j}" for j in range(n)]
    base = dea.Dataset(names, X, Y)
    anchors = [(r.projection_inputs, r.projection_outputs)
               for r in (dea.evaluate(base, o) for o in range(n))]
    shift, scale_in, scale_out = 0.0, np.ones(m), np.ones(s)
    if variant == "translated":
        shift = 1e4
    elif variant == "rescaled":
        scale_in = 10.0 ** rng.uniform(-5.0, 5.0, m)
        scale_out = 10.0 ** rng.uniform(-5.0, 5.0, s)
    moved = dea.Dataset(names, (X + shift) * scale_in[:, None],
                        (Y + shift) * scale_out[:, None])
    return moved, [((x + shift) * scale_in, (y + shift) * scale_out) for x, y in anchors]


@pytest.mark.parametrize("variant", VARIANTS)
def test_intercepts_match_the_primal_program(variant):
    rng = np.random.default_rng([17, VARIANTS.index(variant)])
    for _ in range(8):
        ds, anchors = random_instance(rng, variant)
        for anchor in anchors:
            expected = intercept_interval(ds.inputs, ds.outputs, *anchor)
            got = rts.intercept_bounds(ds, anchor)
            assert_ends_match(got, expected)
            if variant in ("plain", "negative"):
                # the kernel on the primal program itself, where its
                # rows are well scaled
                for sense, end, reference in zip(("minimize", "maximize"), got, expected):
                    sol = lp.solve(oracles.hyperplane_program(ds, *anchor, sense))
                    if np.isinf(reference):
                        assert sol.status == lp.UNBOUNDED
                    else:
                        assert sol.objective_value == pytest.approx(end, rel=1e-6, abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the kernel ends these bounded maximisations UNBOUNDED")
def test_kernel_verdict_on_rescaled_intercept_programs():
    # the max end of the primal intercept program on rows rescaled by up
    # to 10^+-5; HiGHS and rts.intercept_bounds agree on a finite optimum.
    # A typed error is an honest answer, any other status is a wrong one
    rng = np.random.default_rng([3, 99])
    instances = [random_instance(rng, "rescaled") for _ in range(14)]
    for (ds, anchors), o, value in ((instances[5], 0, 439.9546), (instances[13], 6, 5.0275)):
        expected = intercept_interval(ds.inputs, ds.outputs, *anchors[o])[1]
        assert expected == pytest.approx(value, abs=1e-4)
        try:
            sol = lp.solve(oracles.hyperplane_program(ds, *anchors[o], "maximize"))
        except lp.LpError:
            continue
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(expected, rel=1e-6)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_interval_is_invariant_to_unit_order_and_row_scale(data):
    n = data.draw(st.integers(3, 8))
    m = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(1.0, 10.0, (m, n))
    Y = rng.uniform(1.0, 10.0, (s, n))
    names = [f"u{j}" for j in range(n)]
    ds = dea.Dataset(names, X, Y)
    result = dea.evaluate(ds, data.draw(st.integers(0, n - 1)))
    x_hat, y_hat = result.projection_inputs, result.projection_outputs
    order = data.draw(st.permutations(range(n)))
    exponent = st.floats(-3.0, 3.0)
    scale_in = 10.0 ** np.array(data.draw(st.lists(exponent, min_size=m, max_size=m)))
    scale_out = 10.0 ** np.array(data.draw(st.lists(exponent, min_size=s, max_size=s)))
    moved = dea.Dataset([names[j] for j in order], X[:, order] * scale_in[:, None],
                        Y[:, order] * scale_out[:, None])
    before = rts.intercept_bounds(ds, (x_hat, y_hat))
    after = rts.intercept_bounds(moved, (x_hat * scale_in, y_hat * scale_out))
    assert after == pytest.approx(before, rel=1e-6, abs=1e-9)
    assert rts.classify_rts(after) == rts.classify_rts(before)


def test_hyperplane_above_a_left_out_unit_by_more_than_tol_is_rejected(frontier8):
    # the min end at DMU4 = (5, 8) is the hyperplane through DMU2, DMU3
    # and DMU4 (row duals 1.6, 1.6 and w = 0.6); lowering w by delta
    # leaves those three units above it by delta
    units = rts._unit_columns(frontier8)[0]
    tol = lp.FEAS_TOL
    for delta, rejected in ((0.0, False), (0.5 * tol, False), (10.0 * tol, True)):
        duals = np.array([[1.6, 1.6, 0.6 - delta]])
        assert rts._priced_in(duals, units, tol).tolist() == [rejected]
        assert rts._priced_in(duals, units[:, [0, 4, 5, 6, 7]], tol).tolist() == [False]


def test_frame_leaving_out_a_binding_unit_is_caught_and_repaired(frontier8, kernel_calls):
    # the min end at DMU4 binds at DMU2 and DMU3: over a frame without
    # them it is a wrong optimum, which prices them in, so the anchor is
    # solved again over every unit and gets the full answer
    anchor = ([5.0], [8.0])
    full = rts.intercept_bounds(frontier8, anchor)
    calls = kernel_calls(rts)
    frame = np.ones(8, dtype=bool)
    frame[[1, 2]] = False
    (got,) = rts.intercept_bounds_many(frontier8, [anchor], frame=frame)
    assert got == full == pytest.approx((0.6, 1.0), abs=1e-12)
    (framed, _, (min_end, _)), (again, _, _) = calls
    assert min_end.objective_value == pytest.approx(1.0 / 15.0, abs=1e-12)
    assert [stack.cols for stack in (framed, again)] == [10, 12]
    with pytest.raises(ValueError, match="^frame must be a mask of 8 units$"):
        rts.intercept_bounds_many(frontier8, [anchor], frame=frame[:7])


def test_dmu_filter_keeps_the_units_it_leaves_out_in_the_frame(frontier8, eight_answers,
                                                                monkeypatch):
    # DMU5 and DMU6 are reported, with GRS {DMU4} and {DMU2}: the frame is
    # those members and every unit left out, whose GRS is not known
    frames = []
    bounds_many = rts.intercept_bounds_many
    monkeypatch.setattr(rts, "intercept_bounds_many",
                        lambda *args: frames.append(args[3]) or bounds_many(*args))
    config = reporting.AnalysisConfig(dmu_filter=("DMU5", "DMU6"))
    reports = reporting.run_analysis(config, frontier8)
    (frame,) = frames
    assert np.flatnonzero(frame).tolist() == [0, 1, 2, 3, 6, 7]
    assert [report.rts_class for report in reports] == list(eight_answers.classes[4:6])
    assert [(r.omega_min, r.omega_max) for r in reports] == pytest.approx(
        bounds_many(frontier8, report_anchors(reports)), abs=1e-12)


def report_anchors(reports):
    """The interior projection of each report, the anchor of its interval."""
    return [(list(r.projection_inputs.values()), list(r.projection_outputs.values()))
            for r in reports]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 14))
def test_frame_gives_the_full_answer(random_dataset, seed, n):
    # run_analysis solves over the frame; every unit's interval over all
    # units is the same to 1e-9, and so is its class
    ds = random_dataset(np.random.default_rng(seed), n)
    reports = reporting.run_analysis(reporting.AnalysisConfig(), ds)
    for report, full in zip(reports, rts.intercept_bounds_many(ds, report_anchors(reports))):
        assert (report.omega_min, report.omega_max) == pytest.approx(full, rel=0.0, abs=1e-9)
        assert report.rts_class == rts.classify_rts(full)
