import numpy as np
import pytest

import oracles
from ramdea import dea, lp, reporting

# known scores for the 8-unit example: four frontier units, then
# 11/14, 5/7, 11/14 and 9/14 for the dominated ones
EIGHT_SCORES = (1.0, 1.0, 1.0, 1.0, 11 / 14, 5 / 7, 11 / 14, 9 / 14)


def random_dataset(rng, n=None, m=None, s=None, low=1.0, high=10.0):
    n = n or int(rng.integers(2, 10))
    m = m or int(rng.integers(1, 4))
    s = s or int(rng.integers(1, 4))
    return dea.Dataset(
        [f"u{k}" for k in range(n)],
        rng.uniform(low, high, (m, n)),
        rng.uniform(low, high, (s, n)),
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        dea.Dataset(["a", "a"], [[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        dea.Dataset(["a", "b"], [[1.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        dea.Dataset(["a"], [[np.inf]], [[1.0]])
    with pytest.raises(ValueError):
        dea.Dataset([], [[]], [[]])


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


def test_ram_weights(frontier8):
    w_in, w_out = dea.slack_weights(frontier8, "ram", 0)
    assert w_in == pytest.approx([1 / 14])
    assert w_out == pytest.approx([1 / 14])


def test_additive_weights(frontier8):
    w_in, w_out = dea.slack_weights(frontier8, "additive", 0)
    assert np.all(w_in == 1.0) and np.all(w_out == 1.0)


def test_bam_weight_pinned_at_row_minimum(frontier8):
    # unit 0 attains the smallest input, so its one-sided spread is zero
    w_in, _ = dea.slack_weights(frontier8, "bam", 0)
    assert w_in[0] == 0.0
    result = dea.evaluate(frontier8, 0, scheme="bam")
    assert result.input_slacks[0] == pytest.approx(0.0, abs=1e-12)


def test_scores_eight_units(frontier8):
    for o, expected in enumerate(EIGHT_SCORES):
        result = dea.evaluate(frontier8, o)
        assert result.rho == pytest.approx(expected, abs=1e-9)
        assert result.rho == pytest.approx(1.0 - result.slack_sum / 2.0, abs=1e-12)
        assert result.efficient == (expected == 1.0)


def test_efficient_unit_projects_onto_itself(frontier8):
    result = dea.evaluate(frontier8, 1)
    assert result.rho == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(result.input_slacks) <= 1e-9)
    assert np.all(np.abs(result.output_slacks) <= 1e-9)
    assert result.projection_inputs == pytest.approx([2.0], abs=1e-9)
    assert result.projection_outputs == pytest.approx([5.0], abs=1e-9)


def test_unique_projection(frontier8):
    result = dea.evaluate(frontier8, 4)
    assert result.rho == pytest.approx(11 / 14, abs=1e-9)
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


def test_efficient_set(frontier8):
    assert efficient_units(frontier8) == [0, 1, 2, 3]


def test_single_unit_is_efficient():
    lone = dea.Dataset(["only"], [[4.0]], [[3.0]])
    assert efficient_units(lone) == [0]
    assert dea.evaluate(lone, 0).rho == pytest.approx(1.0)


def test_duplicated_unit_scores_like_the_original(frontier8):
    names = list(frontier8.names) + ["DMU6b"]
    inputs = np.hstack([frontier8.inputs, [[2.0]]])
    outputs = np.hstack([frontier8.outputs, [[1.0]]])
    extended = dea.Dataset(names, inputs, outputs)
    twin = dea.evaluate(extended, 8)
    assert twin.rho == pytest.approx(5 / 7, abs=1e-9)
    assert twin.rho == pytest.approx(oracles.ram_score_linprog(extended, 8), abs=1e-9)
    assert not twin.efficient


def test_crs_regime_drops_convexity(frontier8):
    assert efficient_units(frontier8, regime="crs") == [1]
    result = dea.evaluate(frontier8, 2, regime="crs")
    assert result.rho == pytest.approx(1.0 - 1.5 / 14.0, abs=1e-9)
    assert result.rho == pytest.approx(
        oracles.ram_score_linprog(frontier8, 2, regime="crs"), abs=1e-9
    )


def test_scores_match_reference_solver_on_random_data():
    rng = np.random.default_rng(23)
    for _ in range(12):
        ds = random_dataset(rng)
        o = int(rng.integers(ds.n_dmus))
        mine = dea.evaluate(ds, o).rho
        assert mine == pytest.approx(oracles.ram_score_linprog(ds, o), abs=1e-7)


def test_score_stays_in_unit_interval_on_positive_spreads():
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


def test_degenerate_cycle_ends_early_on_an_efficient_unit(kernel_calls):
    # ``score-large`` seed 11, score250-003: U247's scoring LP (p = 8 rows,
    # q = 258 columns) cycles on degenerate pivots under Dantzig's rule;
    # turning to Bland's after p + q = 266 of them took 286 pivots, after
    # 6p = 48 it takes 78
    rng = np.random.default_rng([11, 7, 3])
    inputs = rng.uniform(1.0, 10.0, (5, 250))
    ds = dea.Dataset([f"U{k:03d}" for k in range(250)], inputs,
                     rng.uniform(1.0, 10.0, (3, 250)))
    calls = kernel_calls(dea)
    result = dea.evaluate(ds, 247, "ram", "crs")
    ((_, _, (sol,)),) = calls
    assert sol.iterations < 120
    assert result.rho == pytest.approx(oracles.ram_score_linprog(ds, 247, regime="crs"),
                                       abs=1e-9)
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
                    oracles.ram_score_linprog(ds, o, regime=regime), abs=1e-9)


# ram/crs data with rows rescaled by up to 10^5 (``robustness`` seed 3,
# small-015)
RESCALED_CRS = """dmu,in:x1,in:x2,in:x3,out:y1,out:y2,out:y3
U000,282.1816158993165,71135.94048427494,3.4438253646653524e-05,877.7199993620442,0.0007046529864704906,174481.0810785436
U001,781.9857033721551,150219.04245656249,8.702331400739754e-05,359.6265445988003,0.0009697255282780221,254290.12156873924
U002,739.3610148955496,633655.2189387347,8.34859000024455e-05,1217.9615380590878,0.000555449530843952,244405.8579505358
U003,1084.941822551287,353546.6378139163,5.888773957509471e-05,1623.241366636747,0.0007758716391575096,318333.12523018423
U004,261.62213037007143,207829.31145025356,6.609783382596718e-05,2276.955135447223,0.0002707897072497895,55095.67754247551
U005,633.0051619688152,257343.12335960218,9.707499975818349e-05,724.6119504542827,0.0005568094467884263,277276.77462468593
U006,817.0392965775063,238947.995786832,0.00010867459005283824,2590.1894188442784,0.00042525684076129353,207074.2629082586
U007,552.9546125934626,405688.1215105003,7.320571811259158e-05,1516.1933682402857,0.0012413049182415498,79569.92554773529
U008,711.1771404452355,466238.66246242175,0.00011888835652615028,1664.0794096062912,0.0012420235520742727,136706.58553960637
U009,672.7074430486708,228892.0538362532,5.253636768709411e-05,1563.960005093968,0.0001410063365275326,272859.5475203969
U010,809.5480836663405,123266.22895332903,9.140462130588331e-05,2041.9510651689038,0.000883642384068711,200219.37339976817
U011,384.29883796237925,97588.17181571506,4.4812717086731856e-05,1582.4557313913995,0.0003061458596487391,161242.39882218422
U012,545.7729340454175,182014.00685129125,8.876363082004638e-05,1984.2052575164053,0.0001812995417454804,280944.4505495212
U013,477.6241688632412,196244.53947338674,6.060538406664224e-05,1990.5630174012172,0.0001553728357678383,231716.48216427318
U014,899.5249135874884,392847.75628405745,5.442609550170326e-05,2606.0098047239503,0.0011354514606106627,271264.86145601346
U015,787.720630810547,606139.222603641,7.711959036258547e-05,2160.1859583642135,0.0004001379642625879,116336.65252290471
"""


@pytest.mark.xfail(strict=True, raises=lp.LpError,
                   reason="U009's scoring LP concludes with an output slack far below "
                          "its lower bound on rows rescaled by 10^5")
def test_scoring_succeeds_on_rescaled_rows():
    # the kernel's optimum check catches the wrong optimum ("variable bound
    # violated at claimed optimum"), so the scoring stage raises
    ds = reporting.parse_dataset(RESCALED_CRS)
    o = ds.index("U009")
    result = dea.evaluate(ds, o, "ram", "crs")
    assert result.rho == pytest.approx(oracles.ram_score_linprog(ds, o, regime="crs"),
                                       abs=1e-7)
