import dataclasses

import numpy as np
import pytest

import oracles
from ramdea import dea, grs, lp, reporting
from recorder import recorded
from reference import slack_weights


# -- maximal-support primitive ---------------------------------------


def test_unique_solution():
    u, v = grs.max_support_solution([[1.0]], d=[2.0])
    assert u == pytest.approx([2.0], abs=1e-9)
    assert v.size == 0


def test_homogeneous_trivial_kernel():
    u, v = grs.max_support_solution(np.eye(2))
    assert np.all(u <= grs.SUPPORT_TOL)


def test_homogeneous_full_support():
    A = np.array([[1.0, 1.0, -2.0]])
    u, v = grs.max_support_solution(A)
    assert np.sum(u > grs.SUPPORT_TOL) == 3
    assert A @ u == pytest.approx([0.0], abs=1e-9)


def test_degenerate_normalizer_raises():
    with pytest.raises(grs.DegenerateNormalizerError):
        grs.max_support_solution([[1.0]], d=[-1.0])


def test_omitted_d_is_the_zero_normaliser():
    # d = 0 gets a zero normalising column, whose companion ends at 1, so
    # the solution is divided by exactly 1
    A = np.array([[1.0, 1.0, -2.0], [0.5, -1.0, 0.0]])
    B = np.array([[1.0], [-1.0]])
    omitted, zeros = grs.max_support_solution(A, B), grs.max_support_solution(A, B, np.zeros(2))
    for got, expected in zip(omitted, zeros):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert np.sum(omitted[0] > grs.SUPPORT_TOL) == 3


# three units of one input and one output
ABC = dea.Dataset(["a", "b", "c"], [[1.0, 2.0, 3.0]], [[1.0, 3.0, 2.0]])


REJECTIONS = [
    (lambda: grs.max_support_solution(np.eye(2), np.ones((3, 1))), ValueError,
     "B has 3 rows, expected 2"),
    (lambda: grs.max_support_solution(np.eye(2), d=np.ones(3)), ValueError,
     "d has length 3, expected 2"),
    (lambda: grs.identify_grs(ABC, 1, dea.evaluate(ABC, 0)), ValueError,
     "ram_result is for unit 0, not 1"),
    (lambda: grs.identify_grs_many(ABC, [
        dea.evaluate(ABC, 0, "ram", "vrs"), dea.evaluate(ABC, 1, "bam", "vrs"),
        dea.evaluate(ABC, 2, "ram", "crs")]), ValueError,
     "results of one scheme and regime expected, got bam/vrs, ram/crs, ram/vrs"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS,
                         ids=[message for _, _, message in REJECTIONS])
def test_each_rejection_names_its_fault(call, error, message, assert_rejects):
    assert_rejects(call, error, message)


def test_nonhomogeneous_solution_is_feasible():
    A = np.array([[1.0, -1.0], [2.0, 1.0]])
    B = np.array([[1.0], [0.0]])
    d = np.array([1.0, 5.0])
    u, v = grs.max_support_solution(A, B, d)
    assert np.all(u >= -1e-12) and np.all(v >= -1e-12)
    assert A @ u + B @ v == pytest.approx(d, abs=1e-9)


# -- GRS program construction ----------------------------------------


def screened_units(ds, result):
    """Units whose scoring reduced cost, scaled, is about zero."""
    columns = np.vstack([ds.inputs, ds.outputs]
                        + ([np.ones((1, ds.n_dmus))] if result.regime == "vrs" else []))
    reduced = -(result.duals @ columns)
    scale = np.maximum(1.0, np.linalg.norm(result.duals)
                       * np.linalg.norm(columns, axis=0))
    return [j for j, r in enumerate(reduced / scale) if r >= -1e-5]


def captured_program(kernel_calls, *args, **kwargs):
    """Run ``identify_grs`` and return the one LP it handed to the kernel."""
    calls = kernel_calls(grs)
    reference = grs.identify_grs(*args, **kwargs)
    (((program,), _, _),) = calls
    return program, reference


def test_program_shape(eight, kernel_calls):
    ds, results, _ = eight
    program, reference = captured_program(kernel_calls, ds, 6, results[6])
    units = screened_units(ds, results[6])
    k = len(units)
    assert set(reference.members) <= set(units)
    # k candidate units + target, doubled, plus one slack per input and output
    assert program.cols == 2 * (k + 1) + 2
    assert np.array_equal(program.constraint_matrix[:2, :k],
                          np.vstack([ds.inputs[:, units], ds.outputs[:, units]]))
    assert program.rows == 4
    assert program.sense == "maximize"
    # companion block is boxed into [0, 1]
    assert np.all(program.upper_bounds[k + 1:2 * (k + 1)] == 1.0)
    assert np.all(program.objective[k + 1:2 * (k + 1)] == 1.0)
    assert np.all(program.rhs == 0.0)


def test_program_shape_without_convexity(eight, kernel_calls):
    ds, _, _ = eight
    result = dea.evaluate(ds, 6, regime="crs")
    program, _ = captured_program(kernel_calls, ds, 6, result)
    assert program.rows == 3  # input, output, budget


def test_pinned_slack_has_no_column(eight, kernel_calls):
    # under bam, DMU5 has the largest output, so its output slack has
    # zero budget weight and is left out of the program
    ds, _, _ = eight
    result = dea.evaluate(ds, 4, scheme="bam")
    program, reference = captured_program(kernel_calls, ds, 4, result)
    t = len(screened_units(ds, result))
    assert program.cols == 2 * (t + 1) + 1  # the input slack only
    assert np.all(reference.output_slacks == 0.0)
    assert reference.members == oracles.oracle_grs(ds, 4, result)


def test_all_zero_unit_under_crs_takes_the_homogeneous_branch():
    # unit z sits at the origin: under crs its target system has d = 0, so
    # its normalising column is zero and scales the solution by exactly 1,
    # and only the units at the origin can carry weight
    ds = dea.Dataset(["a", "b", "z", "z2"],
                     [[1.0, 2.0, 0.0, 0.0]], [[2.0, 3.0, 0.0, 0.0]])
    result = dea.evaluate(ds, 2, regime="crs")
    assert result.slack_sum == 0.0
    reference = grs.identify_grs(ds, 2, result)
    assert reference.members == (2, 3)
    assert reference.members == oracles.oracle_grs(ds, 2, result)
    assert np.all(reference.interior_projection_inputs == 0.0)
    assert np.all(reference.interior_projection_outputs == 0.0)


def test_grs_program_starts_feasible(eight, kernel_calls):
    # the program's right-hand side is zero, so its resting point x = 0
    # is feasible and phase 1 never runs
    ds, results, _ = eight
    for o in range(ds.n_dmus):
        program, _ = captured_program(kernel_calls, ds, o, results[o])
        sol = lp.solve(program)
        assert sol.phase1_iterations == 0
        assert sol.iterations > 0


def test_efficient_unit_budget_pins_slacks(eight):
    ds, results, _ = eight
    reference = grs.identify_grs(ds, 1, results[1])
    assert np.all(np.abs(reference.input_slacks) <= 1e-10)
    assert np.all(np.abs(reference.output_slacks) <= 1e-10)


# -- identification on the 8-unit example ----------------------------


def test_interior_projection_of_units_with_unique_projection(eight):
    ds, results, _ = eight
    for o, expected_x, expected_y in ((0, 1.0, 2.0), (4, 5.0, 8.0)):
        reference = grs.identify_grs(ds, o, results[o])
        assert reference.interior_projection_inputs == pytest.approx(
            [expected_x], abs=1e-9
        )
        assert reference.interior_projection_outputs == pytest.approx(
            [expected_y], abs=1e-9
        )


def test_stage_one_support_is_dominated(eight):
    ds, results, _ = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        support = {j for j in range(ds.n_dmus)
                   if results[o].lambdas[j] > grs.SUPPORT_TOL}
        assert support <= set(reference.members)


def test_stage_one_projection_lies_in_member_hull(eight):
    ds, results, _ = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        members = list(reference.members)
        point = np.concatenate([results[o].projection_inputs,
                                results[o].projection_outputs])
        columns = np.vstack([
            np.vstack([ds.inputs[:, members], ds.outputs[:, members]]),
            np.ones((1, len(members))),
        ])
        rhs = np.concatenate([point, [1.0]])
        feasibility = lp.LinearProgram("minimize", np.zeros(len(members)),
                                       columns, rhs)
        assert lp.solve(feasibility).status == lp.OPTIMAL


def test_identification_under_crs(eight):
    ds, _, _ = eight
    result = dea.evaluate(ds, 2, regime="crs")
    reference = grs.identify_grs(ds, 2, result)
    assert reference.members == (1,)
    assert reference.members == oracles.oracle_grs(ds, 2, result)
    # conical weights need not sum to one: the projection is 1.5x unit 2
    assert reference.weights[1] == pytest.approx(1.5, abs=1e-9)


def test_identify_equals_oracle_for_other_schemes(eight):
    ds, _, _ = eight
    for scheme in ("additive", "bam"):
        for o in range(ds.n_dmus):
            result = dea.evaluate(ds, o, scheme=scheme)
            reference = grs.identify_grs(ds, o, result)
            assert reference.members == oracles.oracle_grs(ds, o, result)


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_result_fixes_the_scheme_and_regime(frontier8, scheme, regime):
    # the scoring result carries its scheme and regime, so its GRS needs
    # neither restated
    for o in range(frontier8.n_dmus):
        result = dea.evaluate(frontier8, o, scheme, regime)
        reference = grs.identify_grs(frontier8, o, result)
        assert reference.members == oracles.oracle_grs(frontier8, o, result)


def test_screen_keeps_every_optimal_projection(eight, kernel_calls):
    # DMU7 (3, 3) reaches the facet y = x + 3 through DMU2 (2, 5) alone and
    # through DMU3 (3, 6) alone, each at the optimal slack total: two
    # optimal projections with different members, so both must stay
    ds, results, _ = eight
    result = results[6]
    w_in, w_out = slack_weights(ds.inputs, ds.outputs, "ram", 6)
    for j in (1, 2):
        s_in = ds.inputs[0, 6] - ds.inputs[0, j]
        s_out = ds.outputs[0, j] - ds.outputs[0, 6]
        assert s_in >= 0.0 and s_out >= 0.0
        assert 2 * (w_in[0] * s_in + w_out[0] * s_out) == pytest.approx(result.slack_sum)
    program, reference = captured_program(kernel_calls, ds, 6, result)
    held = {tuple(column) for column in program.constraint_matrix[:2].T}
    assert {(2.0, 5.0), (3.0, 6.0)} <= held
    assert {1, 2} <= set(reference.members)


def test_empty_screen_falls_back_to_every_unit(kernel_calls):
    # under bam/crs the origin is z's only optimal projection, so the
    # scoring duals price every unit strictly below zero
    ds = dea.Dataset(["a", "b", "c", "z"], [[3.8, 2.3, 7.1, 5.6]],
                     [[2.1, 4.7, -4.7, -2.7], [5.8, -3.6, -2.0, -3.3]])
    result = dea.evaluate(ds, 3, scheme="bam", regime="crs")
    assert screened_units(ds, result) == []
    program, reference = captured_program(kernel_calls, ds, 3, result)
    assert program.cols == 2 * (ds.n_dmus + 1) + 3
    assert reference.members == ()
    assert reference.members == oracles.oracle_grs(ds, 3, result)
    assert reference.weights.shape == (ds.n_dmus,)


def test_screened_identification_equals_oracle_on_random_data(random_dataset):
    # larger n than above, so that the screen drops efficient units
    rng = np.random.default_rng(43)
    pairs = [(scheme, regime) for regime in dea.REGIMES for scheme in dea.SCHEMES]
    dropped = 0
    for trial in range(20):
        scheme, regime = pairs[trial % len(pairs)]
        n, m, s = int(rng.integers(8, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ds = random_dataset(rng, n, m, s)
        efficient = {j for j in range(n) if dea.evaluate(ds, j, scheme, regime).efficient}
        for o in rng.choice(n, 3, replace=False):
            o = int(o)
            result = dea.evaluate(ds, o, scheme, regime)
            dropped += len(efficient - set(screened_units(ds, result)))
            reference = grs.identify_grs(ds, o, result)
            assert reference.members == oracles.oracle_grs(ds, o, result)
            assert reference.weights.shape == (n,)
    assert dropped > 0


# -- every unit is a candidate ----------------------------------------


# bam/crs with negative outputs (``robustness`` seed 1, small-047): U002's
# only optimal projection leans on U004, which is inefficient under its
# own bam weights
def test_bam_crs_member_can_be_inefficient(bench_dataset):
    ds = reporting.parse_dataset(bench_dataset("robustness", 1, 47).csv_text())
    config = reporting.AnalysisConfig(scheme="bam", regime="crs")
    reports = {report.name: report for report in reporting.run_analysis(config, ds)}
    o = ds.index("U002")
    expected = [ds.names[j]
                for j in oracles.oracle_grs(ds, o, dea.evaluate(ds, o, "bam", "crs"))]
    members = [name for name, _ in reports["U002"].grs_members]
    assert members == expected
    assert any(not reports[name].efficient for name in members)


# ram/vrs and ram/crs data with rows rescaled by up to 10^5 (``robustness``
# seed 8, small-033 and seed 9, small-027)
@pytest.mark.parametrize("seed, index", [(8, 33), (9, 27)], ids=("ram-vrs", "ram-crs"))
def test_grs_succeeds_on_rescaled_rows(bench_dataset, seed, index):
    # A GRS program on each of these datasets ends with equality-row
    # residuals whose size hangs on the last bits of the kernel's
    # products.  Held to a bound blind to the row's scale, the optimum
    # check fails it or not depending on how those products round.
    data = bench_dataset("robustness", seed, index)
    ds = reporting.parse_dataset(data.csv_text())
    config = reporting.AnalysisConfig(scheme=data.scheme, regime=data.regime)
    reports = reporting.run_analysis(config, ds, stages="grs")
    assert [report.name for report in reports] == list(ds.names)
    assert all(report.grs_members is not None for report in reports)


# ram data with rows rescaled by up to 10^5 (``robustness`` seed 1,
# small-015, crs; seed 9, small-069, vrs; seed 8, small-135, crs)
@pytest.mark.parametrize("seed, index", [(1, 15), (9, 69), (8, 135)],
                         ids=("s1-015", "s9-069", "s8-135"))
def test_rescaled_rows_do_not_fail_the_optimum_check(bench_dataset, seed, index):
    # residuals of rounding size on rows of about 1e5 once failed a bound
    # blind to the row's scale ("equality row violated at claimed optimum")
    data = bench_dataset("robustness", seed, index)
    ds = reporting.parse_dataset(data.csv_text())
    config = reporting.AnalysisConfig(scheme=data.scheme, regime=data.regime)
    reports = reporting.run_analysis(config, ds)
    assert [report.name for report in reports] == list(ds.names)
    for o, report in enumerate(reports):
        expected = [ds.names[j] for j in oracles.oracle_grs(ds, o, dea.evaluate(
            ds, o, data.scheme, data.regime))]
        assert [name for name, _ in report.grs_members] == expected


def test_optimum_check_rejects_a_residual_beyond_its_row_scaled_bound():
    # x1 + x2 = 1 and 1e5 x1 - 1e5 x3 = 0, optimal at x = (1, 0, 1): the
    # rows' bounds are 1e-9 (1 + 1 + 1) and 1e-9 (1 + 0 + 1e5)
    program = lp.LinearProgram("minimize", [1.0, 1.0, 1.0],
                               [[1.0, 1.0, 0.0], [1e5, 0.0, -1e5]], [1.0, 0.0])

    def concluded(x):
        state = lp._SimplexState(program, lp.FEAS_TOL, [None])
        state.live = np.ones(1, dtype=bool)
        # the artificials' entries, the last two, are ignored
        state._conclude(np.array([0]), np.array([x + [7.0, 7.0]]), np.zeros((1, 2)))
        return state.outcomes[0]

    assert concluded([1.0, 0.0, 1.0]).status == lp.OPTIMAL
    # a residual of 1e-7 on the rescaled row is within its bound
    assert concluded([1.0, 0.0, 1.0 + 1e-12]).status == lp.OPTIMAL
    # one of 1e-7 on the unit-scale row, or of 1e2 on the rescaled one, is not
    for x in ([1.0, 1e-7, 1.0], [1.0, 0.0, 1.001]):
        failed = concluded(x)
        assert isinstance(failed, lp.LpError)
        assert str(failed) == "equality row violated at claimed optimum"


PAIRS =[(scheme, regime) for regime in dea.REGIMES for scheme in dea.SCHEMES]


@pytest.mark.parametrize("scheme, regime", [pair for pair in PAIRS if pair != ("bam", "crs")])
def test_members_are_efficient_outside_bam_crs(scheme, regime, random_dataset):
    """Every GRS member is efficient, except under bam/crs.

    Take a unit o and a row where o's bam weight is zero, say x_o = min x.
    Under "vrs" the input row  sum_j lambda_j x_j + s = x_o  with
    sum lambda = 1 and s >= 0 forces every active unit to x_j = min x, so
    that unit's own bam weight on the row is zero too.  On every row where
    o's weight is positive, optimality rules out a dominated member.  The
    ram and additive weights are positive on every row with a spread,
    under either regime.  Only bam under "crs" escapes this: there the
    active units need not sit at the row's minimum.
    """
    rng = np.random.default_rng([59, PAIRS.index((scheme, regime))])
    for _ in range(8):
        n, m, s = int(rng.integers(6, 15)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ds = random_dataset(rng, n, m, s)
        config = reporting.AnalysisConfig(scheme=scheme, regime=regime)
        reports = reporting.run_analysis(config, ds, stages="grs")
        efficient = {report.name for report in reports if report.efficient}
        for report in reports:
            assert {name for name, _ in report.grs_members} <= efficient


def members_and_classes(ds, scheme, regime):
    """Each unit's GRS member names and RTS class, by unit name."""
    config = reporting.AnalysisConfig(scheme=scheme, regime=regime)
    return {report.name: ({name for name, _ in report.grs_members}, report.rts_class)
            for report in reporting.run_analysis(config, ds)}


@pytest.mark.parametrize("scheme, regime", PAIRS)
def test_permuting_units_permutes_members_and_classes(scheme, regime, random_dataset):
    rng = np.random.default_rng([61, PAIRS.index((scheme, regime))])
    for _ in range(6):
        ds = random_dataset(rng)
        order = rng.permutation(ds.n_dmus)
        moved = dea.Dataset([ds.names[j] for j in order],
                            ds.inputs[:, order], ds.outputs[:, order])
        assert members_and_classes(moved, scheme, regime) \
            == members_and_classes(ds, scheme, regime)


@pytest.mark.parametrize("scheme, regime", PAIRS)
def test_duplicate_joins_exactly_the_sets_of_its_original(scheme, regime, random_dataset):
    rng = np.random.default_rng([67, PAIRS.index((scheme, regime))])
    for _ in range(6):
        ds = random_dataset(rng)
        k = int(rng.integers(ds.n_dmus))
        original = ds.names[k]
        twinned = dea.Dataset(ds.names + ("twin",),
                              np.hstack([ds.inputs, ds.inputs[:, [k]]]),
                              np.hstack([ds.outputs, ds.outputs[:, [k]]]))
        before = members_and_classes(ds, scheme, regime)
        after = members_and_classes(twinned, scheme, regime)
        for name, (members, rts_class) in before.items():
            if original in members:
                members = members | {"twin"}
            assert after[name] == (members, rts_class)
        assert after["twin"] == after[original]


# additive/crs data shifted by 1e4 (``robustness`` seed 1, small-007):
# U000's GRS program used to cycle with period 2 until the pivot budget
# ran out
def test_shifted_crs_grs_program_concludes(bench_dataset):
    ds = reporting.parse_dataset(bench_dataset("robustness", 1, 7).csv_text())
    config = reporting.AnalysisConfig(scheme="additive", regime="crs")
    reports = reporting.run_analysis(config, ds)
    assert [r.name for r in reports] == list(ds.names)
    result = dea.evaluate(ds, 0, "additive", "crs")
    expected = oracles.oracle_grs(ds, 0, result)
    assert [name for name, _ in reports[0].grs_members] == \
        [ds.names[j] for j in expected]


@pytest.mark.xfail(strict=True, raises=lp.LpError,
                   reason="U000's GRS LP concludes outside a variable bound once the "
                          "units of a shifted additive/crs dataset are reordered")
def test_grs_does_not_depend_on_unit_order(bench_dataset):
    # robustness seed 2 small-007 (16 units, m = 2, s = 3, shifted by 1e4):
    # in its generated order U000's GRS is {U010, U013}; reordered, the
    # kernel's optimum check rejects U000's GRS optimum ("variable bound
    # violated at claimed optimum"), as it does for 101 of the orders of
    # permutation seeds 0-199
    data = bench_dataset("robustness", 2, 7)
    for order in (np.arange(data.n), np.random.default_rng(4).permutation(data.n)):
        ds = dea.Dataset([data.units()[j] for j in order], data.inputs[:, order],
                         data.outputs[:, order])
        o = ds.index("U000")
        reference = grs.identify_grs(ds, o, dea.evaluate(ds, o, data.scheme, data.regime))
        assert {ds.names[j] for j in reference.members} == {"U010", "U013"}


# -- vertex faces ------------------------------------------------------

# one input, one output: A, B and C are efficient, and D, E and F
# project under ram onto the vertex B alone
CORNER = dea.Dataset(["A", "B", "C", "D", "E", "F"],
                     [[1.0, 2.0, 4.0, 3.0, 3.0, 2.5]],
                     [[1.0, 4.0, 5.0, 4.0, 3.5, 2.0]])


@pytest.mark.parametrize("scheme, units", [("ram", (1, 3, 4, 5)), ("bam", (5, 6, 7))])
def test_vertex_face_takes_no_solve(eight, kernel_calls, scheme, units):
    # under ram on CORNER and under bam on the 8-unit example, the screen
    # of each of these units keeps one unit
    ds = CORNER if scheme == "ram" else eight[0]
    calls = kernel_calls(grs)
    for o in units:
        result = dea.evaluate(ds, o, scheme)
        assert len(screened_units(ds, result)) == 1
        reference = grs.identify_grs(ds, o, result)
        assert reference.members == oracles.oracle_grs(ds, o, result)
        (k,) = reference.members
        assert reference.interior_projection_inputs.tobytes() \
            == ds.inputs[:, k].tobytes()
        assert reference.interior_projection_outputs.tobytes() \
            == ds.outputs[:, k].tobytes()
        assert np.array_equal(reference.weights, np.eye(ds.n_dmus)[k])
        assert np.array_equal(reference.input_slacks, ds.inputs[:, o] - ds.inputs[:, k])
        assert np.array_equal(reference.output_slacks, ds.outputs[:, k] - ds.outputs[:, o])
        if scheme == "ram":
            resid = oracles.optimal_pattern_residuals(ds, result, reference)
            assert np.all(np.abs(resid) <= 1e-12)
    # a vertex GRS never reaches the kernel
    assert calls == []


def test_one_kept_unit_under_crs_still_solves(eight, eight_answers, kernel_calls):
    # the crs frontier is DMU2 alone, which scores itself at intensity 1,
    # yet without a convexity row its GRS weight is not fixed at 1
    ds, _, _ = eight
    results = [dea.evaluate(ds, o, regime="crs") for o in range(ds.n_dmus)]
    assert [o for o, result in enumerate(results)
            if result.efficient] == list(eight_answers.crs_efficient)
    assert results[1].lambdas[1] == pytest.approx(1.0, abs=1e-12)
    for o, result in enumerate(results):
        _, reference = captured_program(kernel_calls, ds, o, result)
        assert reference.members == oracles.oracle_grs(ds, o, result)


def test_two_kept_units_still_solve(eight, eight_answers, kernel_calls):
    # under ram every unit of the 8-unit example keeps two or more units,
    # also DMU5, whose GRS is the vertex DMU4
    ds, results, _ = eight
    for o in range(ds.n_dmus):
        assert len(screened_units(ds, results[o])) >= 2
        _, reference = captured_program(kernel_calls, ds, o, results[o])
        assert reference.members == eight_answers.members[o]
        assert reference.members == oracles.oracle_grs(ds, o, results[o])


@pytest.mark.parametrize("lambdas", [
    # the kept unit's intensity too far below 1
    {1: 1.0 - 2 * grs.SUPPORT_TOL},
    # the others summing above the tolerance, each of them below it
    {0: 0.6 * grs.SUPPORT_TOL, 1: 1.0, 2: 0.6 * grs.SUPPORT_TOL},
])
def test_disagreeing_intensities_still_solve(kernel_calls, lambdas):
    result = dea.evaluate(CORNER, 3)
    assert screened_units(CORNER, result) == [1]
    disagreeing = np.zeros(CORNER.n_dmus)
    disagreeing[list(lambdas)] = list(lambdas.values())
    result = dataclasses.replace(result, lambdas=disagreeing)
    _, reference = captured_program(kernel_calls, CORNER, 3, result)
    assert reference.members == (1,)
    assert reference.members == oracles.oracle_grs(CORNER, 3, result)


def test_unbounded_support_program_is_an_error(eight, monkeypatch):
    # each companion is boxed into [0, 1], so only a faulty kernel ends the
    # program unbounded; the unit then fails with that verdict
    ds, results, _ = eight

    def unbounded(stage, stack, bases, outcomes):
        outcomes[:] = [lp.LpSolution(lp.UNBOUNDED)] * len(outcomes)

    monkeypatch.setattr(grs, "solve_many", recorded("grs", grs.solve_many, unbounded))
    with pytest.raises(lp.LpError, match="^maximal-support program ended unbounded$"):
        grs.identify_grs(ds, 7, results[7])


# -- minimum face ------------------------------------------------------


def test_face_dimension_counts_independent_directions():
    ds = dea.Dataset(
        ["a", "b", "c", "d"],
        [[1.0, 1.0, 1.0, 1.0]],
        [[2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 5.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
    )
    fake = grs.GrsResult(
        o=0, weights=np.array([0.4, 0.3, 0.3, 0.0]),
        members=(0, 1, 2), input_slacks=np.zeros(1), output_slacks=np.zeros(3),
        interior_projection_inputs=np.ones(1),
        interior_projection_outputs=np.zeros(3),
    )
    assert grs.minimum_face(ds, fake) == 2
