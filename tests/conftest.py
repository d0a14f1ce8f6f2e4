import pytest

from ramdea import dea
from recorder import recorded

EIGHT_NAMES = tuple(f"DMU{k}" for k in range(1, 9))
EIGHT_INPUTS = (1.0, 2.0, 3.0, 5.0, 8.0, 2.0, 3.0, 6.0)
EIGHT_OUTPUTS = (2.0, 5.0, 6.0, 8.0, 8.0, 1.0, 3.0, 4.0)


@pytest.fixture(scope="session")
def frontier8():
    """Single-input single-output example with four efficient units."""
    return dea.Dataset(EIGHT_NAMES, [EIGHT_INPUTS], [EIGHT_OUTPUTS])


@pytest.fixture(scope="session")
def frontier8_csv():
    lines = ["# eight units, one input, one output", "dmu,in:x,out:y"]
    for name, x, y in zip(EIGHT_NAMES, EIGHT_INPUTS, EIGHT_OUTPUTS):
        lines.append(f"{name},{x:g},{y:g}")
    return "\n".join(lines) + "\n"


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
