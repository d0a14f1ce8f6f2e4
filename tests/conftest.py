import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ramdea import dea, grs, reporting, rts
from recorder import recorded

ROOT = Path(__file__).resolve().parents[1]
DEMO8 = ROOT / "data" / "demo8.csv"
# last, so the bench's bare module names shadow no entry already there
sys.path.append(str(ROOT / "bench"))

import workloads  # noqa: E402


@pytest.fixture(scope="session")
def frontier8_csv():
    """The CSV text of ``data/demo8.csv``, the eight-unit example."""
    return DEMO8.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def frontier8(frontier8_csv):
    """Single-input single-output example with four efficient units."""
    return reporting.parse_dataset(frontier8_csv)


@pytest.fixture(scope="session")
def eight(frontier8):
    """(dataset, results, references) of the eight-unit example: each
    unit's default scoring result and its global reference set."""
    results = [dea.evaluate(frontier8, o) for o in range(frontier8.n_dmus)]
    references = [grs.identify_grs(frontier8, o, result) for o, result in enumerate(results)]
    return frontier8, results, references


@pytest.fixture(scope="session")
def eight_answers():
    """The answers of the eight-unit example under ram and vrs, one per
    unit in dataset order: its exact score, its GRS members (0-based),
    the dimension of its minimum face and its returns-to-scale class;
    and under ram and crs, the efficient units (0-based).  Each answer
    is written here and nowhere else under ``tests/``."""
    return SimpleNamespace(
        scores=(1.0, 1.0, 1.0, 1.0, 11 / 14, 5 / 7, 11 / 14, 9 / 14),
        members=((0,), (1,), (1, 2, 3), (3,), (3,), (1,), (1, 2, 3), (1, 2, 3)),
        faces=(0, 0, 1, 0, 0, 0, 1, 1),
        classes=(rts.INCREASING, rts.CONSTANT, rts.DECREASING, rts.DECREASING,
                 rts.DECREASING, rts.CONSTANT, rts.DECREASING, rts.DECREASING),
        crs_efficient=(1,),
    )


@pytest.fixture(scope="session")
def bench_dataset():
    """``bench_dataset(workload, seed, index)`` is the ``index``-th dataset
    of the ``bench/workloads.py`` workload named ``workload`` under
    ``seed``: its arrays, ``csv_text()``, scheme, regime and variant.
    Each benchmark dataset a test pins is read here, not written out."""

    def generate(workload, seed, index):
        return workloads.dataset(workloads.WORKLOADS[workload], seed, index)

    return generate


@pytest.fixture(scope="session")
def random_dataset():
    """``random_dataset(rng, n, m, s, low, high)`` draws a dataset of n
    units (2-9 by default), m inputs and s outputs (1-3 each), every
    entry ``uniform(low, high)``."""

    def draw(rng, n=None, m=None, s=None, low=1.0, high=10.0):
        n = n or int(rng.integers(2, 10))
        m = m or int(rng.integers(1, 4))
        s = s or int(rng.integers(1, 4))
        return dea.Dataset(
            [f"u{k}" for k in range(n)],
            rng.uniform(low, high, (m, n)),
            rng.uniform(low, high, (s, n)),
        )

    return draw


@pytest.fixture(scope="session")
def assert_bitwise():
    """``assert_bitwise(got, expected)``: the same type and fields, every
    float and array bit for bit, or an error of the same type and text."""

    def check(got, expected):
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

    return check


@pytest.fixture
def kernel_calls(monkeypatch):
    """``kernel_calls(module)`` routes ``module.solve_many`` through
    ``recorder.recorded`` and returns the list that gains one ``(stack,
    bases, outcomes)`` per call, the outcomes copied since callers may
    reuse theirs; ``patch``, by default this test's ``monkeypatch``,
    undoes it."""

    def record(module, patch=monkeypatch):
        calls = []
        patch.setattr(module, "solve_many", recorded(
            module.__name__.rpartition(".")[2], module.solve_many,
            lambda stage, stack, bases, outcomes: calls.append((stack, bases, list(outcomes)))))
        return calls

    return record
