"""End-to-end acceptance checks, one test per contract item.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces its stated tolerance and, where given, its time budget.
Each is the one test of its fact: the module tests check how each stage
works, not these answers again.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
import stages
from ramdea import cli, dea, grs, reporting, rts


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_efficiency_scores(frontier8, eight_answers):
    with criterion(1, "efficiency scores on the 8-unit example"):
        start = time.perf_counter()
        results = [dea.evaluate(frontier8, o) for o in range(8)]
        elapsed = time.perf_counter() - start
        for result, expected in zip(results, eight_answers.scores, strict=True):
            assert result.rho == pytest.approx(expected, abs=1e-9)
            # one input and one output: rho = 1 - slack_sum / (m + s)
            assert result.rho == pytest.approx(1.0 - result.slack_sum / 2.0, abs=1e-12)
            assert result.efficient == (expected == 1.0)
        assert elapsed < 1.0, f"scoring took {elapsed:.3f}s"


def test_criterion_2_reference_sets(eight, eight_answers):
    with criterion(2, "global reference sets"):
        ds, results, references = eight
        for o, reference in enumerate(references):
            assert reference.members == eight_answers.members[o]
            assert oracles.oracle_grs(ds, o, results[o]) == reference.members
            # a strict convex combination of the members
            assert reference.weights.shape == (ds.n_dmus,)
            member = np.isin(np.arange(ds.n_dmus), reference.members)
            assert np.all(reference.weights[member] > grs.SUPPORT_TOL)
            assert np.all(reference.weights[~member] <= grs.SUPPORT_TOL)
            assert reference.weights.sum() == pytest.approx(1.0, abs=1e-9)
            resid = oracles.optimal_pattern_residuals(ds, results[o], reference)
            assert np.all(np.abs(resid) <= 1e-9)


def test_criterion_3_interior_projection(eight):
    with criterion(3, "interior projection of the most inefficient unit"):
        ds, _, references = eight
        reference = references[7]
        x_hat = reference.interior_projection_inputs[0]
        y_hat = reference.interior_projection_outputs[0]
        # on the facet line y = x + 3, strictly between DMU2 (2, 5) and DMU4 (5, 8)
        assert y_hat - x_hat == pytest.approx(3.0, abs=1e-9)
        assert 2.0 + 1e-7 < x_hat < 5.0 - 1e-7
        # and the point the GRS weights make
        assert ds.inputs @ reference.weights == pytest.approx([x_hat], abs=1e-9)
        assert ds.outputs @ reference.weights == pytest.approx([y_hat], abs=1e-9)


def test_criterion_4_minimum_faces(eight, eight_answers):
    with criterion(4, "minimum-face geometry"):
        ds, _, references = eight
        faces = tuple(grs.minimum_face(ds, reference) for reference in references)
        assert faces == eight_answers.faces


def test_criterion_5_scale_classes_and_intercepts(eight, eight_answers):
    with criterion(5, "returns-to-scale classes and intercept spot checks"):
        ds, _, _ = eight
        reports = reporting.run_analysis(reporting.AnalysisConfig(), ds)
        assert tuple(report.rts_class for report in reports) == eight_answers.classes
        assert all(report.omega_min <= report.omega_max + 1e-9 for report in reports)
        # the steepest vertex DMU1: the smallest intercept is attained, not clamped
        omega_min, omega_max = rts.intercept_bounds(ds, ([1.0], [2.0]))
        assert omega_min == pytest.approx(-1.0, abs=1e-9)
        assert omega_max == pytest.approx(-1.0 / 3.0, abs=1e-7)
        # the kink DMU2: the largest intercept exceeds the nominal clamp 1
        omega_min, omega_max = rts.intercept_bounds(ds, ([2.0], [5.0]))
        assert omega_min == pytest.approx(-1.0 / 6.0, abs=1e-6)
        assert omega_max == pytest.approx(1.5, abs=1e-6)
        # the flat end DMU4: the largest intercept is unbounded, reported as the clamp
        omega_min, omega_max = rts.intercept_bounds(ds, ([5.0], [8.0]))
        assert omega_min == pytest.approx(0.6, abs=1e-6)
        assert omega_max == 1.0


def test_criterion_6_oracle_equivalence_on_random_instances():
    with criterion(6, "one-solve identification equals the per-unit oracle"):
        rng = np.random.default_rng(20250811)
        start = time.perf_counter()
        cases = [(1.0, 10.0)] * 100 + [(-5.0, 10.0)] * 20
        for low, high in cases:
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            ds = dea.Dataset(
                [f"u{k}" for k in range(n)],
                rng.uniform(low, high, (m, n)),
                rng.uniform(low, high, (s, n)),
            )
            o = int(rng.integers(n))
            result = dea.evaluate(ds, o)
            reference = grs.identify_grs(ds, o, result)
            assert reference.members == oracles.oracle_grs(ds, o, result)
            resid = oracles.optimal_pattern_residuals(ds, result, reference)
            assert np.all(np.abs(resid) <= 1e-8)
            support = {j for j in range(n) if result.lambdas[j] > grs.SUPPORT_TOL}
            assert support <= set(reference.members)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"120 instances took {elapsed:.1f}s"


def test_criterion_7_maximal_support_kernel():
    with criterion(7, "maximal-support size equals brute-force enumeration"):
        rng = np.random.default_rng(97)
        for trial in range(200):
            p = int(rng.integers(1, 5))
            q1 = int(rng.integers(1, 6))
            q2 = int(rng.integers(0, 7 - q1))
            A = np.where(rng.random((p, q1)) < 0.35, 0.0,
                         rng.uniform(-3.0, 3.0, (p, q1)))
            B = np.where(rng.random((p, q2)) < 0.35, 0.0,
                         rng.uniform(-3.0, 3.0, (p, q2)))
            if trial % 2:
                d = None
            else:
                d = A @ rng.uniform(0.0, 2.0, q1) + B @ rng.uniform(0.0, 2.0, q2)
            u, v = grs.max_support_solution(A, B if q2 else None, d)
            resid = A @ u + B @ v - (0.0 if d is None else d)
            assert np.all(np.abs(resid) <= 1e-8)
            mine = int(np.sum(u > grs.SUPPORT_TOL))
            assert mine == oracles.max_support_size_bruteforce(A, B, d)


def test_criterion_8_anchor_independence(eight, eight_answers):
    with criterion(8, "classification is anchor-independent on the minimum face"):
        ds, _, references = eight
        rng = np.random.default_rng(101)
        for o in (4, 5, 6, 7):
            members = list(references[o].members)
            classes = set()
            for _ in range(5):
                weights = rng.uniform(0.1, 1.0, len(members))
                weights /= weights.sum()
                anchor = (ds.inputs[:, members] @ weights,
                          ds.outputs[:, members] @ weights)
                classes.add(rts.classify_rts(rts.intercept_bounds(ds, anchor)))
            assert classes == {eight_answers.classes[o]}


def test_criterion_9_seventy_unit_report(tmp_path, capsys):
    with criterion(9, "70-unit five-input three-output report under 10s"):
        path = tmp_path / "schools.csv"
        path.write_text(stages.report_csv(70), encoding="utf-8")

        start = time.perf_counter()
        code = cli.main(["report", "--data", str(path), "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 70
        assert all({"rho", "grs", "rts"} <= set(obj) for obj in reports)
        assert elapsed < 10.0, f"full report took {elapsed:.1f}s"
