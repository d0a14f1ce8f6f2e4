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
    frontier = dea.efficient_set(frontier8)
    results = [dea.evaluate(frontier8, o) for o in range(frontier8.n_dmus)]
    return frontier8, frontier, results


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


def screened_units(ds, result, frontier, regime="vrs"):
    """Efficient units whose scoring reduced cost, scaled, is about zero."""
    columns = np.vstack([ds.inputs[:, frontier], ds.outputs[:, frontier]]
                        + ([np.ones((1, len(frontier)))] if regime == "vrs" else []))
    reduced = -(result.duals @ columns)
    scale = np.maximum(1.0, np.linalg.norm(result.duals)
                       * np.linalg.norm(columns, axis=0))
    return [j for j, r in zip(frontier, reduced / scale) if r >= -1e-5]


def captured_program(monkeypatch, *args, **kwargs):
    """Run ``identify_grs`` and return the one LP it handed to the kernel."""
    programs = []

    def spy(program, settings=None):
        programs.append(program)
        return lp.solve(program, settings)

    monkeypatch.setattr(grs, "solve", spy)
    reference = grs.identify_grs(*args, **kwargs)
    (program,) = programs
    return program, reference


def test_program_shape(eight, monkeypatch):
    ds, frontier, results = eight
    program, reference = captured_program(monkeypatch, ds, 6, results[6],
                                          efficient_indices=frontier)
    units = screened_units(ds, results[6], frontier)
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


def test_program_shape_without_convexity(eight, monkeypatch):
    ds, _, _ = eight
    result = dea.evaluate(ds, 6, regime="crs")
    frontier = dea.efficient_set(ds, regime="crs")
    program, _ = captured_program(monkeypatch, ds, 6, result,
                                  efficient_indices=frontier)
    assert program.rows == 3  # input, output, budget


def test_pinned_slack_has_no_column(eight, monkeypatch):
    # under bam, DMU5 has the largest output, so its output slack has
    # zero budget weight and is left out of the program
    ds, _, _ = eight
    frontier = dea.efficient_set(ds, scheme="bam")
    result = dea.evaluate(ds, 4, scheme="bam")
    program, reference = captured_program(monkeypatch, ds, 4, result,
                                          efficient_indices=frontier)
    t = len(screened_units(ds, result, frontier))
    assert program.cols == 2 * (t + 1) + 1  # the input slack only
    assert np.all(reference.output_slacks == 0.0)
    assert reference.members == oracles.oracle_grs(ds, 4, result, scheme="bam",
                                                   efficient_indices=frontier)


def test_all_zero_unit_under_crs_takes_the_homogeneous_branch():
    # unit z sits at the origin: under crs its target system has d = 0,
    # and only the units at the origin can carry weight
    ds = dea.Dataset(["a", "b", "z", "z2"],
                     [[1.0, 2.0, 0.0, 0.0]], [[2.0, 3.0, 0.0, 0.0]])
    frontier = dea.efficient_set(ds, regime="crs")
    result = dea.evaluate(ds, 2, regime="crs")
    assert result.slack_sum == 0.0
    reference = grs.identify_grs(ds, 2, result, efficient_indices=frontier)
    assert reference.members == (2, 3)
    assert reference.members == oracles.oracle_grs(ds, 2, result, regime="crs",
                                                   efficient_indices=frontier)
    assert np.all(reference.interior_projection_inputs == 0.0)
    assert np.all(reference.interior_projection_outputs == 0.0)


def test_grs_program_starts_feasible(eight, monkeypatch):
    # the program's right-hand side is zero, so its resting point x = 0
    # is feasible and phase 1 never runs
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        program, _ = captured_program(monkeypatch, ds, o, results[o],
                                      efficient_indices=frontier)
        sol = lp.solve(program)
        assert sol.phase1_iterations == 0
        assert sol.iterations > 0


def test_efficient_unit_budget_pins_slacks(eight):
    ds, frontier, results = eight
    reference = grs.identify_grs(ds, 1, results[1], efficient_indices=frontier)
    assert np.all(np.abs(reference.input_slacks) <= 1e-10)
    assert np.all(np.abs(reference.output_slacks) <= 1e-10)


# -- identification on the 8-unit example ----------------------------


def test_members_match_known_sets_and_oracle(eight):
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        assert reference.members == EIGHT_MEMBERS[o]
        assert oracles.oracle_grs(ds, o, results[o], efficient_indices=frontier) \
            == EIGHT_MEMBERS[o]


def test_weights_are_a_strict_convex_combination(eight):
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        assert reference.weights.sum() == pytest.approx(1.0, abs=1e-9)
        for k, j in enumerate(reference.efficient_indices):
            if j in reference.members:
                assert reference.weights[k] > grs.SUPPORT_TOL
            else:
                assert reference.weights[k] <= grs.SUPPORT_TOL


def test_optimal_pattern_rows_hold(eight):
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        resid = oracles.optimal_pattern_residuals(ds, results[o], reference)
        assert np.all(np.abs(resid) <= 1e-9)


def test_interior_projection_of_units_with_unique_projection(eight):
    ds, frontier, results = eight
    for o, expected_x, expected_y in ((0, 1.0, 2.0), (4, 5.0, 8.0)):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        assert reference.interior_projection_inputs == pytest.approx(
            [expected_x], abs=1e-9
        )
        assert reference.interior_projection_outputs == pytest.approx(
            [expected_y], abs=1e-9
        )


def test_interior_projection_strictly_inside_segment(eight):
    ds, frontier, results = eight
    reference = grs.identify_grs(ds, 7, results[7], efficient_indices=frontier)
    x_hat = reference.interior_projection_inputs[0]
    y_hat = reference.interior_projection_outputs[0]
    assert y_hat - x_hat == pytest.approx(3.0, abs=1e-9)  # on the facet line
    assert x_hat > 2.0 + 1e-7 and x_hat < 5.0 - 1e-7
    # reconstruction from the weights gives the same point
    lam = np.zeros(ds.n_dmus)
    lam[list(reference.efficient_indices)] = reference.weights
    assert ds.inputs @ lam == pytest.approx([x_hat], abs=1e-9)
    assert ds.outputs @ lam == pytest.approx([y_hat], abs=1e-9)


def test_stage_one_support_is_dominated(eight):
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        support = {j for j in range(ds.n_dmus)
                   if results[o].lambdas[j] > grs.SUPPORT_TOL}
        assert support <= set(reference.members)


def test_stage_one_projection_lies_in_member_hull(eight):
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
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
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        total = (reference.input_slacks / np.ptp(ds.inputs, axis=1)).sum() \
            + (reference.output_slacks / np.ptp(ds.outputs, axis=1)).sum()
        budget = results[o].slack_sum
        assert abs(total - budget) <= 1e-9 * (1.0 + budget)


def test_identification_under_crs(eight):
    ds, _, _ = eight
    frontier = dea.efficient_set(ds, regime="crs")
    result = dea.evaluate(ds, 2, regime="crs")
    reference = grs.identify_grs(ds, 2, result, efficient_indices=frontier)
    assert reference.members == (1,)
    assert reference.members == oracles.oracle_grs(ds, 2, result, regime="crs",
                                                   efficient_indices=frontier)
    # conical weights need not sum to one: the projection is 1.5x unit 2
    assert reference.weights[frontier.index(1)] == pytest.approx(1.5, abs=1e-9)


def test_identify_equals_oracle_on_random_data():
    rng = np.random.default_rng(37)
    for trial in range(20):
        low = -5.0 if trial % 4 == 0 else 1.0
        ds = random_dataset(rng, low=low)
        frontier = dea.efficient_set(ds)
        o = int(rng.integers(ds.n_dmus))
        result = dea.evaluate(ds, o)
        reference = grs.identify_grs(ds, o, result, efficient_indices=frontier)
        assert reference.members == oracles.oracle_grs(ds, o, result,
                                                       efficient_indices=frontier)
        resid = oracles.optimal_pattern_residuals(ds, result, reference)
        assert np.all(np.abs(resid) <= 1e-8)


def test_identify_equals_oracle_for_other_schemes(eight):
    ds, _, _ = eight
    for scheme in ("additive", "bam"):
        frontier = dea.efficient_set(ds, scheme=scheme)
        for o in range(ds.n_dmus):
            result = dea.evaluate(ds, o, scheme=scheme)
            reference = grs.identify_grs(ds, o, result, efficient_indices=frontier)
            assert reference.members == oracles.oracle_grs(
                ds, o, result, scheme=scheme, efficient_indices=frontier
            )


@pytest.mark.parametrize("regime", dea.REGIMES)
@pytest.mark.parametrize("scheme", dea.SCHEMES)
def test_result_fixes_the_scheme_and_regime(demo8, scheme, regime):
    # the scoring result carries its scheme and regime, so its GRS needs
    # neither restated
    frontier = dea.efficient_set(demo8, scheme, regime)
    for o in range(demo8.n_dmus):
        result = dea.evaluate(demo8, o, scheme, regime)
        reference = grs.identify_grs(demo8, o, result, efficient_indices=frontier)
        assert reference.members == oracles.oracle_grs(
            demo8, o, result, frontier, scheme=scheme, regime=regime)


def test_screen_keeps_every_optimal_projection(eight, monkeypatch):
    # DMU7 (3, 3) reaches the facet y = x + 3 through DMU2 (2, 5) alone and
    # through DMU3 (3, 6) alone, each at the optimal slack total: two
    # optimal projections with different members, so both must stay
    ds, frontier, results = eight
    result = results[6]
    w_in, w_out = dea.slack_weights(ds)
    for j in (1, 2):
        s_in = ds.inputs[0, 6] - ds.inputs[0, j]
        s_out = ds.outputs[0, j] - ds.outputs[0, 6]
        assert s_in >= 0.0 and s_out >= 0.0
        assert 2 * (w_in[0] * s_in + w_out[0] * s_out) == pytest.approx(result.slack_sum)
    program, reference = captured_program(monkeypatch, ds, 6, result,
                                          efficient_indices=frontier)
    held = {tuple(column) for column in program.constraint_matrix[:2].T}
    assert {(2.0, 5.0), (3.0, 6.0)} <= held
    assert {1, 2} <= set(reference.members)


def test_empty_screen_falls_back_to_the_efficient_set(monkeypatch):
    # under bam/crs the origin is z's only optimal projection, so the
    # scoring duals price every efficient unit strictly below zero
    ds = dea.Dataset(["a", "b", "c", "z"], [[3.8, 2.3, 7.1, 5.6]],
                     [[2.1, 4.7, -4.7, -2.7], [5.8, -3.6, -2.0, -3.3]])
    frontier = dea.efficient_set(ds, scheme="bam", regime="crs")
    result = dea.evaluate(ds, 3, scheme="bam", regime="crs")
    assert screened_units(ds, result, frontier, regime="crs") == []
    program, reference = captured_program(monkeypatch, ds, 3, result,
                                          efficient_indices=frontier)
    assert program.cols == 2 * (len(frontier) + 1) + 3
    assert reference.members == ()
    assert reference.members == oracles.oracle_grs(ds, 3, result, scheme="bam",
                                                   regime="crs",
                                                   efficient_indices=frontier)
    assert reference.weights.shape == (len(frontier),)


def test_screened_identification_equals_oracle_on_random_data():
    # larger n than above, so that the screen drops units.  bam/crs is
    # left out: there an optimal projection can lean on a unit that is
    # inefficient under its own bam weights, so the optimal-pattern system
    # over the efficient set can be infeasible, for HiGHS as for the kernel
    rng = np.random.default_rng(43)
    pairs = [(scheme, regime) for regime in dea.REGIMES for scheme in dea.SCHEMES
             if (scheme, regime) != ("bam", "crs")]
    dropped = 0
    for trial in range(20):
        scheme, regime = pairs[trial % len(pairs)]
        n, m, s = int(rng.integers(8, 20)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ds = dea.Dataset([f"u{k}" for k in range(n)], rng.uniform(1.0, 10.0, (m, n)),
                         rng.uniform(1.0, 10.0, (s, n)))
        frontier = dea.efficient_set(ds, scheme, regime)
        for o in rng.choice(n, 3, replace=False):
            o = int(o)
            result = dea.evaluate(ds, o, scheme, regime)
            dropped += len(frontier) - len(screened_units(ds, result, frontier, regime))
            reference = grs.identify_grs(ds, o, result, efficient_indices=frontier)
            assert reference.members == oracles.oracle_grs(
                ds, o, result, scheme=scheme, regime=regime, efficient_indices=frontier)
            assert reference.weights.shape == (len(frontier),)
    assert dropped > 0


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
    frontier = dea.efficient_set(SHIFTED, "additive", "crs")
    result = dea.evaluate(SHIFTED, 0, "additive", "crs")
    expected = oracles.oracle_grs(SHIFTED, 0, result, frontier,
                                  scheme="additive", regime="crs")
    assert [name for name, _ in reports[0].grs_members] == \
        [SHIFTED.names[j] for j in expected]


# -- vertex faces ------------------------------------------------------

# one input, one output: A, B and C are efficient, and D, E and F
# project under ram onto the vertex B alone
CORNER = dea.Dataset(["A", "B", "C", "D", "E", "F"],
                     [[1.0, 2.0, 4.0, 3.0, 3.0, 2.5]],
                     [[1.0, 4.0, 5.0, 4.0, 3.5, 2.0]])


@pytest.mark.parametrize("scheme, units", [("ram", (1, 3, 4, 5)), ("bam", (5, 6, 7))])
def test_vertex_face_takes_no_solve(eight, monkeypatch, scheme, units):
    # under ram on CORNER and under bam on the 8-unit example, the screen
    # of each of these units keeps one efficient unit
    ds = CORNER if scheme == "ram" else eight[0]
    frontier = dea.efficient_set(ds, scheme)

    def spy(program, settings=None):
        raise AssertionError("a vertex GRS must not reach the kernel")

    monkeypatch.setattr(grs, "solve", spy)
    for o in units:
        result = dea.evaluate(ds, o, scheme)
        assert len(screened_units(ds, result, frontier)) == 1
        reference = grs.identify_grs(ds, o, result, efficient_indices=frontier)
        assert reference.members == oracles.oracle_grs(ds, o, result, frontier,
                                                       scheme=scheme)
        (k,) = reference.members
        assert reference.interior_projection_inputs.tobytes() \
            == ds.inputs[:, k].tobytes()
        assert reference.interior_projection_outputs.tobytes() \
            == ds.outputs[:, k].tobytes()
        assert np.array_equal(reference.weights, np.eye(len(frontier))[frontier.index(k)])
        assert np.array_equal(reference.input_slacks, ds.inputs[:, o] - ds.inputs[:, k])
        assert np.array_equal(reference.output_slacks, ds.outputs[:, k] - ds.outputs[:, o])
        if scheme == "ram":
            resid = oracles.optimal_pattern_residuals(ds, result, reference)
            assert np.all(np.abs(resid) <= 1e-12)


def test_one_kept_unit_under_crs_still_solves(eight, monkeypatch):
    # the crs frontier is DMU2 alone, which scores itself at intensity 1,
    # yet without a convexity row its GRS weight is not fixed at 1
    ds, _, _ = eight
    frontier = dea.efficient_set(ds, regime="crs")
    assert frontier == [1]
    for o in range(ds.n_dmus):
        result = dea.evaluate(ds, o, regime="crs")
        if o == 1:
            assert result.lambdas[1] == pytest.approx(1.0, abs=1e-12)
        _, reference = captured_program(monkeypatch, ds, o, result,
                                        efficient_indices=frontier)
        assert reference.members == oracles.oracle_grs(ds, o, result, frontier,
                                                       regime="crs")


def test_two_kept_units_still_solve(eight, monkeypatch):
    # under ram every unit of the 8-unit example keeps two or more units,
    # also DMU5, whose GRS is the vertex DMU4
    ds, frontier, results = eight
    for o in range(ds.n_dmus):
        assert len(screened_units(ds, results[o], frontier)) >= 2
        _, reference = captured_program(monkeypatch, ds, o, results[o],
                                        efficient_indices=frontier)
        assert reference.members == EIGHT_MEMBERS[o]
        assert reference.members == oracles.oracle_grs(ds, o, results[o], frontier)


@pytest.mark.parametrize("lambdas", [
    # the kept unit's intensity too far below 1
    {1: 1.0 - 2 * grs.SUPPORT_TOL},
    # the others summing above the tolerance, each of them below it
    {0: 0.6 * grs.SUPPORT_TOL, 1: 1.0, 2: 0.6 * grs.SUPPORT_TOL},
])
def test_disagreeing_intensities_still_solve(monkeypatch, lambdas):
    frontier = dea.efficient_set(CORNER)
    result = dea.evaluate(CORNER, 3)
    assert screened_units(CORNER, result, frontier) == [1]
    disagreeing = np.zeros(CORNER.n_dmus)
    disagreeing[list(lambdas)] = list(lambdas.values())
    result = dataclasses.replace(result, lambdas=disagreeing)
    _, reference = captured_program(monkeypatch, CORNER, 3, result,
                                    efficient_indices=frontier)
    assert reference.members == (1,)
    assert reference.members == oracles.oracle_grs(CORNER, 3, result, frontier)


def test_mismatched_result_rejected(eight):
    ds, frontier, results = eight
    with pytest.raises(ValueError):
        grs.identify_grs(ds, 3, results[2], efficient_indices=frontier)


# -- minimum face ------------------------------------------------------


def test_face_of_collinear_members_is_a_segment(eight):
    ds, frontier, results = eight
    for o in (6, 7):
        reference = grs.identify_grs(ds, o, results[o], efficient_indices=frontier)
        assert reference.members == (1, 2, 3)
        assert grs.minimum_face(ds, reference) == 1


def test_face_of_singleton_is_a_point(eight):
    ds, frontier, results = eight
    reference = grs.identify_grs(ds, 4, results[4], efficient_indices=frontier)
    assert reference.members == (3,)
    assert grs.minimum_face(ds, reference) == 0


def test_face_dimension_counts_independent_directions():
    ds = dea.Dataset(
        ["a", "b", "c", "d"],
        [[1.0, 1.0, 1.0, 1.0]],
        [[2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 5.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
    )
    fake = grs.GrsResult(
        o=0, efficient_indices=(0, 1, 2), weights=np.array([0.4, 0.3, 0.3]),
        members=(0, 1, 2), input_slacks=np.zeros(1), output_slacks=np.zeros(3),
        interior_projection_inputs=np.ones(1),
        interior_projection_outputs=np.zeros(3),
    )
    assert grs.minimum_face(ds, fake) == 2
