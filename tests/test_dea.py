import re

import numpy as np
import pytest

import oracles
from ramdea import dea, lp, reporting
from reference import weighted_optimum


def test_dataset_validation():
    with pytest.raises(ValueError):
        dea.Dataset(["a", "a"], [[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        dea.Dataset(["a", "b"], [[1.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        dea.Dataset(["a"], [[np.inf]], [[1.0]])
    with pytest.raises(ValueError):
        dea.Dataset([], [[]], [[]])


@pytest.mark.parametrize("arguments, message", [
    (dict(inputs=np.ones((1, 1, 2))), "inputs and outputs must be two-dimensional"),
    (dict(inputs=np.ones((0, 2))), "need at least one input row and one output row"),
    (dict(input_labels=["x", "z"]), "expected 1 labels, got 2"),
])
def test_dataset_names_each_bad_shape(arguments, message):
    given = {"names": ["a", "b"], "inputs": [[1.0, 2.0]], "outputs": [[1.0, 2.0]], **arguments}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dea.Dataset(**given)


def test_unknown_unit_name_is_a_key_error(frontier8):
    with pytest.raises(KeyError) as raised:
        frontier8.index("zz")
    assert raised.value.args == ("unknown unit name: 'zz'",)


def test_dataset_rejects_a_label_repeated_within_a_role():
    with pytest.raises(ValueError, match="distinct"):
        dea.Dataset(["a", "b"], [[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0]],
                    input_labels=["x", "x"])
    with pytest.raises(ValueError, match="distinct"):
        dea.Dataset(["a", "b"], [[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]],
                    output_labels=["y", "y"])
    # one label may still name an input and an output
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[1.0, 2.0]],
                     input_labels=["x"], output_labels=["x"])
    assert ds.input_labels == ds.output_labels == ("x",)


def test_dataset_is_immutable(frontier8):
    with pytest.raises(ValueError):
        frontier8.inputs[0, 0] = 99.0


def test_ranges_eight_units(frontier8):
    # both rows spread over 7, whichever unit is scored
    for o in range(frontier8.n_dmus):
        w_in, w_out = dea.slack_weights(frontier8, "ram", o)
        assert w_in == pytest.approx([1 / (2 * 7.0)])
        assert w_out == pytest.approx([1 / (2 * 7.0)])


def test_ranges_single_unit():
    # a single unit spreads over nothing, so every ram weight is zero
    lone = dea.Dataset(["only"], [[4.0], [2.0]], [[3.0]])
    w_in, w_out = dea.slack_weights(lone, "ram")
    assert np.all(w_in == 0.0)
    assert np.all(w_out == 0.0)


def test_ranges_negative_data():
    # the input row spreads from -1 to 3, over 4
    ds = dea.Dataset(["a", "b"], [[3.0, -1.0]], [[1.0, 2.0]])
    w_in, _ = dea.slack_weights(ds, "ram")
    assert w_in == pytest.approx([1 / (2 * 4.0)])


def test_additive_weights(frontier8):
    w_in, w_out = dea.slack_weights(frontier8, "additive", 0)
    assert np.all(w_in == 1.0) and np.all(w_out == 1.0)


def test_bam_weight_pinned_at_row_minimum(frontier8):
    # unit 0 attains the smallest input, so its one-sided spread is zero
    w_in, _ = dea.slack_weights(frontier8, "bam", 0)
    assert w_in[0] == 0.0
    result = dea.evaluate(frontier8, 0, scheme="bam")
    assert result.input_slacks[0] == pytest.approx(0.0, abs=1e-12)


def test_efficient_unit_projects_onto_itself(frontier8):
    result = dea.evaluate(frontier8, 1)
    assert np.all(np.abs(result.input_slacks) <= 1e-9)
    assert np.all(np.abs(result.output_slacks) <= 1e-9)
    assert result.projection_inputs == pytest.approx([2.0], abs=1e-9)
    assert result.projection_outputs == pytest.approx([5.0], abs=1e-9)


def test_unique_projection(frontier8):
    result = dea.evaluate(frontier8, 4)
    assert result.projection_inputs == pytest.approx([5.0], abs=1e-9)
    assert result.projection_outputs == pytest.approx([8.0], abs=1e-9)


def test_multi_optimal_projection_lands_on_frontier_segment(frontier8):
    # every optimal projection of unit 8 lies on the segment joining
    # (2, 5) and (5, 8), i.e. on the line y = x + 3
    result = dea.evaluate(frontier8, 7)
    x_hat = result.projection_inputs[0]
    y_hat = result.projection_outputs[0]
    assert y_hat - x_hat == pytest.approx(3.0, abs=1e-9)
    assert 2.0 - 1e-9 <= x_hat <= 5.0 + 1e-9


def efficient_units(ds, regime="vrs"):
    return [o for o in range(ds.n_dmus) if dea.evaluate(ds, o, regime=regime).efficient]


def test_single_unit_is_efficient():
    lone = dea.Dataset(["only"], [[4.0]], [[3.0]])
    assert efficient_units(lone) == [0]
    assert dea.evaluate(lone, 0).rho == pytest.approx(1.0)


def test_duplicated_unit_scores_like_the_original(frontier8, eight_answers):
    names = list(frontier8.names) + ["DMU6b"]
    inputs = np.hstack([frontier8.inputs, [[2.0]]])
    outputs = np.hstack([frontier8.outputs, [[1.0]]])
    extended = dea.Dataset(names, inputs, outputs)
    twin = dea.evaluate(extended, 8)
    assert twin.rho == pytest.approx(eight_answers.scores[5], abs=1e-9)
    assert twin.rho == pytest.approx(
        1.0 - weighted_optimum(extended.inputs, extended.outputs, 8, "ram", "vrs"), abs=1e-9)
    assert not twin.efficient


def test_crs_regime_drops_convexity(frontier8, eight_answers):
    assert efficient_units(frontier8, regime="crs") == list(eight_answers.crs_efficient)
    result = dea.evaluate(frontier8, 2, regime="crs")
    assert result.rho == pytest.approx(1.0 - 1.5 / 14.0, abs=1e-9)
    assert result.rho == pytest.approx(
        1.0 - weighted_optimum(frontier8.inputs, frontier8.outputs, 2, "ram", "crs"), abs=1e-9
    )


def test_scores_match_reference_solver_on_random_data(random_dataset):
    rng = np.random.default_rng(23)
    for _ in range(12):
        ds = random_dataset(rng)
        o = int(rng.integers(ds.n_dmus))
        mine = dea.evaluate(ds, o).rho
        assert mine == pytest.approx(
            1.0 - weighted_optimum(ds.inputs, ds.outputs, o, "ram", "vrs"), abs=1e-7)


def test_score_stays_in_unit_interval_on_positive_spreads(random_dataset):
    rng = np.random.default_rng(29)
    for _ in range(15):
        ds = random_dataset(rng, n=int(rng.integers(3, 10)))
        if np.any(np.ptp(ds.inputs, axis=1) == 0.0):
            continue
        for o in range(ds.n_dmus):
            result = dea.evaluate(ds, o)
            assert 0.0 < result.rho <= 1.0 + 1e-12
            assert result.efficient == (result.slack_sum <= dea.EFF_TOL)


def test_projection_is_efficient_when_added_to_the_dataset(frontier8):
    for o in (4, 5, 6, 7):
        result = dea.evaluate(frontier8, o)
        names = list(frontier8.names) + ["proj"]
        inputs = np.hstack([frontier8.inputs, result.projection_inputs[:, None]])
        outputs = np.hstack([frontier8.outputs, result.projection_outputs[:, None]])
        augmented = dea.Dataset(names, inputs, outputs)
        assert dea.evaluate(augmented, 8).efficient


def test_scores_invariant_under_row_rescaling(frontier8):
    scaled = dea.Dataset(frontier8.names, 3.7 * frontier8.inputs, frontier8.outputs)
    for o in range(frontier8.n_dmus):
        assert dea.evaluate(scaled, o).rho == pytest.approx(
            dea.evaluate(frontier8, o).rho, abs=1e-9
        )


def test_returned_solution_is_feasible(frontier8):
    tol = 1e-9
    for o in range(frontier8.n_dmus):
        result = dea.evaluate(frontier8, o)
        x_o, y_o = frontier8.inputs[:, o], frontier8.outputs[:, o]
        r_in = frontier8.inputs @ result.lambdas + result.input_slacks - x_o
        r_out = frontier8.outputs @ result.lambdas - result.output_slacks - y_o
        assert np.all(np.abs(r_in) <= tol * (1.0 + np.abs(x_o)))
        assert np.all(np.abs(r_out) <= tol * (1.0 + np.abs(y_o)))
        assert result.lambdas.sum() == pytest.approx(1.0, abs=tol)
        assert np.all(result.lambdas >= 0.0)
        assert np.allclose(
            result.projection_inputs, x_o - result.input_slacks, atol=1e-12
        )


def test_all_zero_spreads_pin_every_slack():
    lone = dea.Dataset(["only"], [[4.0], [1.0]], [[3.0]])
    result = dea.evaluate(lone, 0)
    assert result.rho == pytest.approx(1.0)
    assert result.efficient
    assert np.all(result.input_slacks == 0.0)
    assert np.all(result.output_slacks == 0.0)


def test_bad_arguments():
    ds = dea.Dataset(["a", "b"], [[1.0, 2.0]], [[1.0, 2.0]])
    for build in (dea.evaluate, dea.scoring_program):
        with pytest.raises(IndexError):
            build(ds, 5)
        with pytest.raises(ValueError):
            build(ds, 0, scheme="sbm")
        with pytest.raises(ValueError):
            build(ds, 0, regime="nirs")
    with pytest.raises(ValueError):
        dea.slack_weights(ds, "bam")


def test_unbounded_scoring_program_is_an_error():
    # under crs unit a gives an output for no input, so every scoring LP
    # can scale it, and its output slack, without end
    ds = dea.Dataset(["a", "b"], [[0.0, 1.0]], [[1.0, 2.0]])
    for o in range(ds.n_dmus):
        with pytest.raises(lp.LpError, match=f"^slack model for unit {o} ended unbounded$"):
            dea.evaluate(ds, o, regime="crs")


@pytest.mark.parametrize("regime", dea.REGIMES)
def test_scoring_program_layout(regime):
    # three units, two inputs (the second without spread, so its ram
    # slack is pinned), one output
    inputs = [[1.0, 4.0, 2.0], [5.0, 5.0, 5.0]]
    outputs = [[3.0, 6.0, 2.0]]
    ds = dea.Dataset(["a", "b", "c"], inputs, outputs)
    program = dea.scoring_program(ds, 2, "ram", regime)
    vrs = regime == "vrs"
    assert program.sense == "maximize"
    assert (program.rows, program.cols) == (3 + vrs, 3 + 2 + 1)
    A = program.constraint_matrix
    # columns: intensities, input slacks, output slacks; rows: inputs,
    # outputs, then the convexity row under vrs
    assert np.array_equal(A[:2], np.hstack([inputs, np.eye(2), np.zeros((2, 1))]))
    assert np.array_equal(A[2:3], np.hstack([outputs, np.zeros((1, 2)), -np.eye(1)]))
    if vrs:
        assert np.array_equal(A[3], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(program.rhs, [2.0, 5.0, 2.0] + [1.0] * vrs)
    assert np.array_equal(program.objective, [0.0, 0.0, 0.0, 1 / 9, 0.0, 1 / 12])
    assert np.array_equal(program.upper_bounds, [np.inf] * 4 + [0.0, np.inf])
    assert np.all(program.lower_bounds == 0.0)


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_evaluate_solves_the_scoring_program(frontier8, kernel_calls, scheme, regime):
    calls = kernel_calls(dea)
    result = dea.evaluate(frontier8, 6, scheme, regime)
    ((stack, _, _),) = calls
    (solved,) = stack
    expected = dea.scoring_program(frontier8, 6, scheme, regime)
    assert solved.sense == expected.sense
    for field in ("objective", "constraint_matrix", "rhs",
                  "lower_bounds", "upper_bounds"):
        assert np.array_equal(getattr(solved, field), getattr(expected, field)), field
    assert (result.scheme, result.regime) == (scheme, regime)


def test_degenerate_cycle_ends_early_on_an_efficient_unit(kernel_calls, bench_dataset):
    # ``score-large`` seed 11, score250-003: U247's scoring LP (p = 8 rows,
    # q = 258 columns) cycles on degenerate pivots under Dantzig's rule;
    # turning to Bland's after p + q = 266 of them took 286 pivots, after
    # 6p = 48 it takes 78
    ds = reporting.parse_dataset(bench_dataset("score-large", 11, 3).csv_text())
    calls = kernel_calls(dea)
    result = dea.evaluate(ds, 247, "ram", "crs")
    ((_, _, (sol,)),) = calls
    assert sol.iterations < 120
    assert result.rho == pytest.approx(
        1.0 - weighted_optimum(ds.inputs, ds.outputs, 247, "ram", "crs"), abs=1e-9)
    assert result.efficient


def crash_start_datasets(frontier8):
    rng = np.random.default_rng(37)
    # unit 0 sits at the origin
    inputs, outputs = rng.uniform(1.0, 10.0, (2, 7)), rng.uniform(1.0, 10.0, (2, 7))
    inputs[:, 0] = outputs[:, 0] = 0.0
    origin = dea.Dataset([f"u{k}" for k in range(7)], inputs, outputs)
    # the second input has no spread, so its ram slack is pinned
    inputs = rng.uniform(1.0, 10.0, (2, 6))
    inputs[1] = 5.0
    flat = dea.Dataset([f"u{k}" for k in range(6)], inputs, rng.uniform(1.0, 10.0, (2, 6)))
    negative = dea.Dataset([f"u{k}" for k in range(8)], rng.uniform(1.0, 10.0, (2, 8)),
                           rng.uniform(-5.0, 10.0, (3, 8)))
    return {"eight": frontier8, "origin": origin, "flat": flat, "negative": negative}


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_scoring_starts_feasible(frontier8, kernel_calls, scheme, regime):
    calls = kernel_calls(dea)
    for name, ds in crash_start_datasets(frontier8).items():
        for o in range(ds.n_dmus):
            result = dea.evaluate(ds, o, scheme, regime)
            (program,), _, (sol,) = calls[-1]
            assert sol.phase1_iterations == 0, (name, o)
            # the same optimum as the artificial start and as HiGHS
            assert sol.objective_value == pytest.approx(
                lp.solve(program).objective_value, abs=1e-9)
            best, _ = oracles.lp_optimum_highs(program)
            assert sol.objective_value == pytest.approx(best, abs=1e-9)
            if scheme == "ram":
                assert result.rho == pytest.approx(
                    1.0 - weighted_optimum(ds.inputs, ds.outputs, o, "ram", regime), abs=1e-9)


# ram/crs data with rows rescaled by up to 10^5 (``robustness`` seed 3,
# small-015)
@pytest.mark.xfail(strict=True, raises=lp.LpError,
                   reason="U009's scoring LP concludes with an output slack far below "
                          "its lower bound on rows rescaled by 10^5")
def test_scoring_succeeds_on_rescaled_rows(bench_dataset):
    # the kernel's optimum check catches the wrong optimum ("variable bound
    # violated at claimed optimum"), so the scoring stage raises
    ds = reporting.parse_dataset(bench_dataset("robustness", 3, 15).csv_text())
    o = ds.index("U009")
    result = dea.evaluate(ds, o, "ram", "crs")
    assert result.rho == pytest.approx(
        1.0 - weighted_optimum(ds.inputs, ds.outputs, o, "ram", "crs"), abs=1e-7)
