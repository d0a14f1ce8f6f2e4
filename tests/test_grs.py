import dataclasses
from pathlib import Path

import numpy as np
import pytest

import oracles
from ramdea import dea, grs, lp, reporting

# reference sets for the 8-unit example, 0-based: the three units whose
# projections are not unique all share {DMU2, DMU3, DMU4}
EIGHT_MEMBERS = (
    (0,), (1,), (1, 2, 3), (3,), (3,), (1,), (1, 2, 3), (1, 2, 3),
)


@pytest.fixture(scope="module")
def eight(frontier8):
    results = [dea.evaluate(frontier8, o) for o in range(frontier8.n_dmus)]
    return frontier8, results


@pytest.fixture(scope="module")
def demo8():
    demo = Path(__file__).resolve().parents[1] / "data" / "demo8.csv"
    return reporting.parse_dataset(demo.read_text(encoding="utf-8"))


def random_dataset(rng, low=1.0, high=10.0):
    n = int(rng.integers(2, 10))
    m = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    return dea.Dataset(
        [f"u{k}" for k in range(n)],
        rng.uniform(low, high, (m, n)),
        rng.uniform(low, high, (s, n)),
    )


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


@pytest.mark.parametrize("B, d, message", [
    (np.ones((3, 1)), None, "B has 3 rows, expected 2"),
    (None, np.ones(3), "d has length 3, expected 2"),
], ids=["B", "d"])
def test_system_of_wrong_shape_is_rejected(B, d, message):
    with pytest.raises(ValueError, match=message):
        grs.max_support_solution(np.eye(2), B, d)


def test_nonhomogeneous_solution_is_feasible():
    A = np.array([[1.0, -1.0], [2.0, 1.0]])
    B = np.array([[1.0], [0.0]])
    d = np.array([1.0, 5.0])
    u, v = grs.max_support_solution(A, B, d)
    assert np.all(u >= -1e-12) and np.all(v >= -1e-12)
    assert A @ u + B @ v == pytest.approx(d, abs=1e-9)


def test_support_size_matches_bruteforce():
    rng = np.random.default_rng(31)
    for trial in range(40):
        p = int(rng.integers(1, 5))
        q1 = int(rng.integers(1, 6))
        q2 = int(rng.integers(0, 7 - q1))
        A = np.where(rng.random((p, q1)) < 0.35, 0.0, rng.uniform(-3.0, 3.0, (p, q1)))
        B = np.where(rng.random((p, q2)) < 0.35, 0.0, rng.uniform(-3.0, 3.0, (p, q2)))
        if trial % 2:
            d = None
        else:
            d = A @ rng.uniform(0.0, 2.0, q1) + B @ rng.uniform(0.0, 2.0, q2)
        u, v = grs.max_support_solution(A, B if q2 else None, d)
        resid = A @ u + (B @ v if q2 else 0.0) - (0.0 if d is None else d)
        assert np.all(np.abs(resid) <= 1e-8)
        mine = int(np.sum(u > grs.SUPPORT_TOL))
        assert mine == oracles.max_support_size_bruteforce(A, B, d)


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
    ds, results = eight
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
    ds, _ = eight
    result = dea.evaluate(ds, 6, regime="crs")
    program, _ = captured_program(kernel_calls, ds, 6, result)
    assert program.rows == 3  # input, output, budget


def test_pinned_slack_has_no_column(eight, kernel_calls):
    # under bam, DMU5 has the largest output, so its output slack has
    # zero budget weight and is left out of the program
    ds, _ = eight
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
    ds, results = eight
    for o in range(ds.n_dmus):
        program, _ = captured_program(kernel_calls, ds, o, results[o])
        sol = lp.solve(program)
        assert sol.phase1_iterations == 0
        assert sol.iterations > 0


def test_efficient_unit_budget_pins_slacks(eight):
    ds, results = eight
    reference = grs.identify_grs(ds, 1, results[1])
    assert np.all(np.abs(reference.input_slacks) <= 1e-10)
    assert np.all(np.abs(reference.output_slacks) <= 1e-10)


# -- identification on the 8-unit example ----------------------------


def test_members_match_known_sets_and_oracle(eight):
    ds, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        assert reference.members == EIGHT_MEMBERS[o]
        assert oracles.oracle_grs(ds, o, results[o]) == EIGHT_MEMBERS[o]


def test_weights_are_a_strict_convex_combination(eight):
    ds, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        assert reference.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert reference.weights.shape == (ds.n_dmus,)
        for j in range(ds.n_dmus):
            if j in reference.members:
                assert reference.weights[j] > grs.SUPPORT_TOL
            else:
                assert reference.weights[j] <= grs.SUPPORT_TOL


def test_optimal_pattern_rows_hold(eight):
    ds, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        resid = oracles.optimal_pattern_residuals(ds, results[o], reference)
        assert np.all(np.abs(resid) <= 1e-9)


def test_interior_projection_of_units_with_unique_projection(eight):
    ds, results = eight
    for o, expected_x, expected_y in ((0, 1.0, 2.0), (4, 5.0, 8.0)):
        reference = grs.identify_grs(ds, o, results[o])
        assert reference.interior_projection_inputs == pytest.approx(
            [expected_x], abs=1e-9
        )
        assert reference.interior_projection_outputs == pytest.approx(
            [expected_y], abs=1e-9
        )


def test_interior_projection_strictly_inside_segment(eight):
    ds, results = eight
    reference = grs.identify_grs(ds, 7, results[7])
    x_hat = reference.interior_projection_inputs[0]
    y_hat = reference.interior_projection_outputs[0]
    assert y_hat - x_hat == pytest.approx(3.0, abs=1e-9)  # on the facet line
    assert x_hat > 2.0 + 1e-7 and x_hat < 5.0 - 1e-7
    # reconstruction from the weights gives the same point
    lam = reference.weights
    assert ds.inputs @ lam == pytest.approx([x_hat], abs=1e-9)
    assert ds.outputs @ lam == pytest.approx([y_hat], abs=1e-9)


def test_stage_one_support_is_dominated(eight):
    ds, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        support = {j for j in range(ds.n_dmus)
                   if results[o].lambdas[j] > grs.SUPPORT_TOL}
        assert support <= set(reference.members)


def test_stage_one_projection_lies_in_member_hull(eight):
    ds, results = eight
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


def test_budget_row_exactness(eight):
    ds, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o])
        total = (reference.input_slacks / np.ptp(ds.inputs, axis=1)).sum() \
            + (reference.output_slacks / np.ptp(ds.outputs, axis=1)).sum()
        budget = results[o].slack_sum
        assert abs(total - budget) <= 1e-9 * (1.0 + budget)


def test_identification_under_crs(eight):
    ds, _ = eight
    result = dea.evaluate(ds, 2, regime="crs")
    reference = grs.identify_grs(ds, 2, result)
    assert reference.members == (1,)
    assert reference.members == oracles.oracle_grs(ds, 2, result)
    # conical weights need not sum to one: the projection is 1.5x unit 2
    assert reference.weights[1] == pytest.approx(1.5, abs=1e-9)


def test_identify_equals_oracle_on_random_data():
    rng = np.random.default_rng(37)
    for trial in range(20):
        low = -5.0 if trial % 4 == 0 else 1.0
        ds = random_dataset(rng, low=low)
        o = int(rng.integers(ds.n_dmus))
        result = dea.evaluate(ds, o)
        reference = grs.identify_grs(ds, o, result)
        assert reference.members == oracles.oracle_grs(ds, o, result)
        resid = oracles.optimal_pattern_residuals(ds, result, reference)
        assert np.all(np.abs(resid) <= 1e-8)


def test_identify_equals_oracle_for_other_schemes(eight):
    ds, _ = eight
    for scheme in ("additive", "bam"):
        for o in range(ds.n_dmus):
            result = dea.evaluate(ds, o, scheme=scheme)
            reference = grs.identify_grs(ds, o, result)
            assert reference.members == oracles.oracle_grs(ds, o, result)


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_result_fixes_the_scheme_and_regime(demo8, scheme, regime):
    # the scoring result carries its scheme and regime, so its GRS needs
    # neither restated
    for o in range(demo8.n_dmus):
        result = dea.evaluate(demo8, o, scheme, regime)
        reference = grs.identify_grs(demo8, o, result)
        assert reference.members == oracles.oracle_grs(demo8, o, result)


def test_screen_keeps_every_optimal_projection(eight, kernel_calls):
    # DMU7 (3, 3) reaches the facet y = x + 3 through DMU2 (2, 5) alone and
    # through DMU3 (3, 6) alone, each at the optimal slack total: two
    # optimal projections with different members, so both must stay
    ds, results = eight
    result = results[6]
    w_in, w_out = dea.slack_weights(ds)
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


def test_screened_identification_equals_oracle_on_random_data():
    # larger n than above, so that the screen drops efficient units
    rng = np.random.default_rng(43)
    pairs = [(scheme, regime) for regime in dea.REGIMES for scheme in dea.SCHEMES]
    dropped = 0
    for trial in range(20):
        scheme, regime = pairs[trial % len(pairs)]
        n, m, s = int(rng.integers(8, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ds = dea.Dataset([f"u{k}" for k in range(n)], rng.uniform(1.0, 10.0, (m, n)),
                         rng.uniform(1.0, 10.0, (s, n)))
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

# bam/crs with negative outputs: U002's only optimal projection leans on
# U004, which is inefficient under its own bam weights
BAM_CRS = """dmu,in:x1,in:x2,in:x3,out:y1
U000,6.992665917182186,1.8189352563936296,3.847382933211552,9.26252979924862
U001,6.765140188720641,2.5627045017695558,7.501921878146536,9.646055444550296
U002,7.137467578425708,8.650943683818534,1.4642181136374575,-1.1166811813371798
U003,2.9228448741342774,6.587496830426332,7.185873153995152,-2.7240324010010712
U004,4.071505282482169,3.6791972164351345,9.76400283101046,3.7533930459387186
U005,2.7536466477141377,6.377358203386985,9.574751078327521,-1.348039817950601
U006,9.915096211580643,4.9656079464156395,9.838890309021712,0.8077078098510171
U007,6.879592922464641,1.9209411567543535,3.9092468174825177,6.969425170391702
U008,1.9093335660867128,5.779039331468029,8.564913046550421,-3.966033868673563
U009,1.7817048011127294,7.038236944429608,2.1381226766936727,6.3403611130672
U010,7.917244905424953,5.335208058507246,9.459795758170344,2.231437535157533
U011,7.689426915015879,2.90461505434997,2.538422868007778,3.725653331899551
U012,2.7395918223647375,9.58190040149354,7.7518171731543335,1.9663297574549823
U013,5.775790306561547,3.8400438558367753,7.048214900572981,4.083294626370618
U014,7.568802193797899,5.898819358662845,3.904854159493356,2.8904651900353215
U015,1.9884236655207626,3.564326125046259,3.53872457631537,-0.622191498528549
"""


def test_bam_crs_member_can_be_inefficient():
    ds = reporting.parse_dataset(BAM_CRS)
    config = reporting.AnalysisConfig(scheme="bam", regime="crs")
    reports = {report.name: report for report in reporting.run_analysis(config, ds)}
    o = ds.index("U002")
    expected = [ds.names[j]
                for j in oracles.oracle_grs(ds, o, dea.evaluate(ds, o, "bam", "crs"))]
    members = [name for name, _ in reports["U002"].grs_members]
    assert members == expected
    assert any(not reports[name].efficient for name in members)


# ram/vrs data with rows rescaled by up to 10^5 (``robustness`` seed 8,
# small-033)
RESCALED_VRS = """dmu,in:x1,in:x2,in:x3,out:y1,out:y2,out:y3
U000,25.399597089555353,0.1245809910903993,71557.94308655764,56.024412882772,0.07878411564457054,0.007190557183099086
U001,26.445253403180825,0.27528782289574755,79188.2694419286,30.39433087634876,0.025114933291112234,0.0128135305532426
U002,58.04623485318868,0.6172954465288328,21676.736972823328,78.88963838460694,0.026696031929291243,0.009692708736505934
U003,74.58137221159124,0.698683647226004,55655.40230839334,9.2600112029984,0.03644016972316305,0.00876322497875354
U004,99.4446617333302,0.4374566138945807,41452.33662048493,16.422272279749677,0.03541848168348119,0.02147625684462199
U005,86.02648287577865,0.6476359912898684,49365.80840270754,89.56962549463685,0.08549794610934192,0.031638910372934044
U006,80.58952495434073,0.7389709667869536,90757.53716751125,22.59268131291354,0.08854150883097787,0.0051289437441902706
U007,55.37680927476926,0.5877095531904603,45861.112977678364,78.91948981442923,0.09163809991484799,0.007815407043578486
U008,102.4733581152987,0.592063692935016,14158.784641679678,18.670980587913103,0.027306701865153528,0.028151939249217797
U009,64.69788417899056,0.30236898718655913,86756.48294443924,55.35104333194907,0.09448314998623393,0.0271835764989531
U010,32.33643405669549,0.1404475174527533,42481.56067233047,47.98412165872247,0.09161360955803381,0.008688023976983423
U011,92.23667227885996,0.2884545375503148,76172.92438521757,50.42069256976212,0.08358378735313711,0.02802476199944971
"""

# ram/crs data with rows rescaled by up to 10^5 (``robustness`` seed 9,
# small-027)
RESCALED_CRS = """dmu,in:x1,in:x2,out:y1,out:y2
U000,455332.0741385892,232.22944462469846,0.2369024396478263,0.00043548280677845947
U001,464036.3430688045,352.6771209719064,0.3011496650989652,0.00046688830103976716
U002,151388.3610795423,220.90801868535408,0.04776514434992711,0.0008085484558726769
U003,169323.78720079642,449.05523832499216,0.14267636082624868,0.00014195605549512197
U004,189705.77913603163,245.04167945297024,0.19701320236437106,0.0012407035798397714
U005,378451.240922405,330.25855151167815,0.2521592787326307,0.001259508954758721
U006,363007.9937312259,644.3141763768431,0.09947360019279468,0.0005839728672126152
U007,410756.1675430828,280.8065979814529,0.300675493648247,0.0002536411576553478
U008,50931.787677458466,437.42722313085204,0.2588493566102515,0.0008965414295337328
U009,327123.1000862658,448.960551355563,0.347204857143176,0.001185327236651639
U010,272886.28136319487,595.9669074484341,0.33291685939953247,0.001098154193541312
U011,347881.6465566381,364.92362401358696,0.3262386110420631,0.001345237593443277
U012,355141.3264410084,303.2036110877378,0.15595191912141085,0.00046446007236471994
U013,135683.48124107427,111.85797136522692,0.2972313993304499,0.0009465725734089929
"""


@pytest.mark.parametrize("data, regime", [(RESCALED_VRS, "vrs"), (RESCALED_CRS, "crs")],
                         ids=("ram-vrs", "ram-crs"))
def test_grs_succeeds_on_rescaled_rows(data, regime):
    # A GRS program on each of these datasets ends with equality-row
    # residuals whose size hangs on the last bits of the kernel's
    # products.  Held to a bound blind to the row's scale, the optimum
    # check fails it or not depending on how those products round.
    ds = reporting.parse_dataset(data)
    config = reporting.AnalysisConfig(scheme="ram", regime=regime)
    reports = reporting.run_analysis(config, ds, stages="grs")
    assert [report.name for report in reports] == list(ds.names)
    assert all(report.grs_members is not None for report in reports)


# ram/crs data with rows rescaled by up to 10^5 (``robustness`` seed 1,
# small-015)
RESCALED_CRS_ABORTING = """dmu,in:x1,in:x2,out:y1,out:y2,out:y3
U000,108024.99657106306,43542.43547106729,21842.33743473658,1.4676830855645588,0.14874390856865982
U001,62036.216982853126,182610.7498210786,92285.68790673098,0.9099298915499627,0.06101404259260844
U002,185982.36639901486,251976.50043804033,140596.98528278386,7.1725145300637525,0.056086017187421885
U003,173201.40994659183,278336.14007392735,190796.6547893217,5.523169847442309,0.04852961971645374
U004,160431.2947354733,281516.1630902979,189720.82065297102,4.819456322316048,0.039384126079694194
U005,316467.61142023915,39073.00038205432,31431.24178000523,2.845380958428423,0.16366039224428922
U006,73295.64434361133,119567.95894106686,133826.64428006392,1.1202577099434285,0.14868455713603387
U007,210245.96311233938,69189.46738697888,164937.64925746186,6.514014681310905,0.04607486232763352
U008,348053.03904016974,135087.19972296775,140179.37338563206,5.193997151665502,0.09747989394256582
U009,129141.93698316542,238863.10080207878,59500.45333031454,6.732809590058287,0.0910170542573227
U010,102469.01744490156,148780.86080489325,146830.81761340544,4.428770762477559,0.14440894311109032
U011,242662.0436488739,258371.812846347,135752.8992773666,7.362520004317447,0.039564210303412915
"""


# ram/vrs data with rows rescaled by up to 10^5 (``robustness`` seed 9,
# small-069)
RESCALED_VRS_ABORTING = """dmu,in:x1,in:x2,in:x3,out:y1,out:y2
U000,0.3343511166728777,264.29918154484335,198162.43812228096,26076.429883196397,132864.4019391269
U001,0.6267589474347415,316.3859620565335,84074.11580344242,5372.898415349074,47287.537047924714
U002,0.6385539110351353,394.07311697300804,47025.686286162985,24335.27331049863,61418.67341310588
U003,0.6569171822143695,251.59268157608514,83258.8867259846,17961.726146711975,161247.03421126064
U004,0.3710253080260067,296.37406648593986,90293.3231036063,15471.991883308925,60363.646544653944
U005,1.0653218089017773,148.7377292061524,223835.4456473061,20257.9698652978,135648.8458033573
U006,0.808025357087688,119.93666024646906,163370.48455516802,23668.08480381212,92068.80108716234
U007,1.0331778672612741,292.1385515326031,157723.65409874628,12957.811654287656,169255.36273260345
"""

# ram/crs data with rows rescaled by up to 10^5 (``robustness`` seed 8,
# small-135)
RESCALED_CRS_ABORTING_2 = """dmu,in:x1,in:x2,in:x3,out:y1,out:y2
U000,2.609235425851022,576804.5761026551,1600.322603446648,3.3622596220139855,41.08662833047066
U001,1.3438008968572268,880388.76908425,2501.41549372173,3.5335952215693394,77.90221302776514
U002,7.245509067888965,821799.8064966617,1941.0538669902805,1.7998783677190522,75.12267951905899
U003,6.898376388668463,554921.4607459087,1183.692783629245,2.865318588672271,61.73752272474021
U004,5.769164584278642,748178.1638822228,2334.38562730817,1.8160105824998527,38.19933266558856
U005,11.051324034104812,630015.1879508026,1797.5828265311616,3.846557356214125,64.71441092358631
U006,9.58317531711289,584328.1217139675,1966.8226947518597,2.8957523700639873,32.78494182727951
U007,9.17597090734775,874971.4969153485,2096.856329524435,1.342646519168131,57.114296773881954
U008,3.998583744662717,612817.8432064882,797.5962162745925,1.669947554181039,27.383320100033465
U009,3.651867350456431,899859.3919527695,1921.0986469026398,3.964840956527617,13.494228129341629
U010,10.909022906181042,672973.825798213,1812.8114908893883,3.0781794747067646,27.721808529125298
U011,1.6879286530508262,235738.7637717896,534.1837951341145,1.8039375105034614,43.24217669352814
U012,5.853895664154105,607385.2130371501,401.91503045574274,0.967575728435811,91.27833241729128
"""


@pytest.mark.parametrize("data, regime", [
    (RESCALED_CRS_ABORTING, "crs"), (RESCALED_VRS_ABORTING, "vrs"),
    (RESCALED_CRS_ABORTING_2, "crs")], ids=("s1-015", "s9-069", "s8-135"))
def test_rescaled_rows_do_not_fail_the_optimum_check(data, regime):
    # residuals of rounding size on rows of about 1e5 once failed a bound
    # blind to the row's scale ("equality row violated at claimed optimum")
    ds = reporting.parse_dataset(data)
    config = reporting.AnalysisConfig(scheme="ram", regime=regime)
    reports = reporting.run_analysis(config, ds)
    assert [report.name for report in reports] == list(ds.names)
    for o, report in enumerate(reports):
        expected = [ds.names[j] for j in oracles.oracle_grs(ds, o, dea.evaluate(
            ds, o, "ram", regime))]
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
def test_members_are_efficient_outside_bam_crs(scheme, regime):
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
        ds = dea.Dataset([f"u{k}" for k in range(n)], rng.uniform(1.0, 10.0, (m, n)),
                         rng.uniform(1.0, 10.0, (s, n)))
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
def test_permuting_units_permutes_members_and_classes(scheme, regime):
    rng = np.random.default_rng([61, PAIRS.index((scheme, regime))])
    for _ in range(6):
        ds = random_dataset(rng)
        order = rng.permutation(ds.n_dmus)
        moved = dea.Dataset([ds.names[j] for j in order],
                            ds.inputs[:, order], ds.outputs[:, order])
        assert members_and_classes(moved, scheme, regime) \
            == members_and_classes(ds, scheme, regime)


@pytest.mark.parametrize("scheme, regime", PAIRS)
def test_duplicate_joins_exactly_the_sets_of_its_original(scheme, regime):
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


# additive/crs data shifted by 1e4: U000's GRS program used to cycle
# with period 2 until the pivot budget ran out
SHIFTED = dea.Dataset(
    [f"U{j:03d}" for j in range(9)],
    [[10008.632802295268, 10007.289364609614, 10005.173094272071, 10002.013112583409,
      10006.288696919333, 10005.216442684066, 10005.96712956929, 10003.090624829649,
      10002.344506933838],
     [10006.520973182915, 10006.078039016953, 10009.434538591788, 10006.2142636866,
      10005.580801697472, 10005.57271443008, 10003.403171425289, 10001.139645320864,
      10005.427776610415]],
    [[10007.080641937147, 10008.75843500573, 10004.967961915172, 10003.632451125384,
      10001.486396295217, 10008.129609527528, 10003.595951037556, 10002.655222776419,
      10003.313149190917],
     [10005.600804380949, 10001.778505772476, 10004.704409301221, 10001.22734767324,
      10004.872439948156, 10001.71067591398, 10005.3723966574, 10004.151516658509,
      10006.50650346486]],
)


def test_shifted_crs_grs_program_concludes():
    config = reporting.AnalysisConfig(scheme="additive", regime="crs")
    reports = reporting.run_analysis(config, SHIFTED)
    assert [r.name for r in reports] == list(SHIFTED.names)
    result = dea.evaluate(SHIFTED, 0, "additive", "crs")
    expected = oracles.oracle_grs(SHIFTED, 0, result)
    assert [name for name, _ in reports[0].grs_members] == \
        [SHIFTED.names[j] for j in expected]


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


def test_one_kept_unit_under_crs_still_solves(eight, kernel_calls):
    # the crs frontier is DMU2 alone, which scores itself at intensity 1,
    # yet without a convexity row its GRS weight is not fixed at 1
    ds, _ = eight
    results = [dea.evaluate(ds, o, regime="crs") for o in range(ds.n_dmus)]
    assert [o for o, result in enumerate(results) if result.efficient] == [1]
    assert results[1].lambdas[1] == pytest.approx(1.0, abs=1e-12)
    for o, result in enumerate(results):
        _, reference = captured_program(kernel_calls, ds, o, result)
        assert reference.members == oracles.oracle_grs(ds, o, result)


def test_two_kept_units_still_solve(eight, kernel_calls):
    # under ram every unit of the 8-unit example keeps two or more units,
    # also DMU5, whose GRS is the vertex DMU4
    ds, results = eight
    for o in range(ds.n_dmus):
        assert len(screened_units(ds, results[o])) >= 2
        _, reference = captured_program(kernel_calls, ds, o, results[o])
        assert reference.members == EIGHT_MEMBERS[o]
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


def test_mismatched_result_rejected(eight):
    ds, results = eight
    with pytest.raises(ValueError):
        grs.identify_grs(ds, 3, results[2])


# -- minimum face ------------------------------------------------------


def test_face_of_collinear_members_is_a_segment(eight):
    ds, results = eight
    for o in (6, 7):
        reference = grs.identify_grs(ds, o, results[o])
        assert reference.members == (1, 2, 3)
        assert grs.minimum_face(ds, reference) == 1


def test_face_of_singleton_is_a_point(eight):
    ds, results = eight
    reference = grs.identify_grs(ds, 4, results[4])
    assert reference.members == (3,)
    assert grs.minimum_face(ds, reference) == 0


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
