import inspect

import pytest

from ramdea import dea, lp

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
    """``kernel_calls(module)`` routes ``module.solve_many`` through a
    recorder, which passes every argument on, and returns the list that
    gains one ``(stack, bases, outcomes)`` per call; ``patch``, by
    default this test's ``monkeypatch``, undoes it."""
    signature = inspect.signature(lp.solve_many)

    def record(module, patch=monkeypatch):
        calls = []
        solve_many = module.solve_many

        def recorder(stack, *args, **kwargs):
            outcomes = solve_many(stack, *args, **kwargs)
            bases = signature.bind(stack, *args, **kwargs).arguments.get("bases")
            calls.append((stack, bases, list(outcomes)))  # callers may reuse theirs
            return outcomes

        patch.setattr(module, "solve_many", recorder)
        return calls

    return record
