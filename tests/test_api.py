import inspect
import math
import re
from pathlib import Path

import pytest

import oracles
import ramdea
from ramdea import cli

ROOT = Path(__file__).resolve().parents[1]


def exported():
    return {name: getattr(ramdea, name) for name in ramdea.__all__}


def test_every_exported_exception_derives_from_the_package_base():
    errors = {name: obj for name, obj in exported().items()
              if inspect.isclass(obj) and issubclass(obj, BaseException)}
    assert "RamdeaError" in errors
    for name, error in errors.items():
        assert issubclass(error, ramdea.RamdeaError), name


def test_no_test_oracle_is_exported():
    own = {name for name, obj in vars(oracles).items()
           if callable(obj) and getattr(obj, "__module__", None) == oracles.__name__}
    assert "oracle_grs" in own
    assert not own & set(ramdea.__all__)
    assert not any(hasattr(module, name) for name in own
                   for module in (ramdea, ramdea.grs, ramdea.rts))


def test_package_exports_every_module_export():
    modules = (ramdea.lp, ramdea.dea, ramdea.grs, ramdea.rts, ramdea.reporting)
    assert set(ramdea.__all__) == set().union(*(module.__all__ for module in modules))


# A-D, one input and one output: C lies on the segment AB, B dominates D
ABCD = ramdea.Dataset("ABCD", [[2.0, 4.0, 3.0, 5.0]], [[2.0, 5.0, 3.5, 4.0]])


def tolerance_calls():
    """(entry, tolerance, call) for each tolerance of every public entry;
    ``call(value)`` runs the entry with that tolerance at ``value``, on
    data whose every solve reaches the kernel."""
    program = ramdea.LinearProgram("minimize", [1.0], [[1.0]], [1.0])
    scored = ramdea.evaluate(ABCD, 2)  # its GRS {A, B, C} takes a solve
    point = ([3.0], [3.5])
    entries = {
        "solve": lambda **tol: ramdea.solve(program, **tol),
        "solve_many": lambda **tol: ramdea.solve_many(program, **tol),
        "evaluate": lambda **tol: ramdea.evaluate(ABCD, 2, **tol),
        "evaluate_many": lambda **tol: ramdea.evaluate_many(ABCD, [2], **tol),
        "identify_grs": lambda **tol: ramdea.identify_grs(ABCD, 2, scored, **tol),
        "identify_grs_many": lambda **tol: ramdea.identify_grs_many(ABCD, [scored], **tol),
        "max_support_solution": lambda **tol: ramdea.max_support_solution(
            [[1.0, 2.0]], d=[1.0], **tol),
        "intercept_bounds": lambda **tol: ramdea.intercept_bounds(ABCD, point, **tol),
        "intercept_bounds_many": lambda **tol: ramdea.intercept_bounds_many(
            ABCD, [point], **tol),
        "classify_rts": lambda **tol: ramdea.classify_rts((-0.5, 0.5), **tol),
    }
    for entry, run in entries.items():
        parameters = inspect.signature(getattr(ramdea, entry)).parameters
        for name in parameters:
            if name.endswith("_tol"):
                yield entry, name, lambda value, run=run, name=name: run(**{name: value})


def test_every_tolerance_is_checked_where_it_enters():
    calls = list(tolerance_calls())
    # every public callable that takes a tolerance is covered
    takers = {name for name, obj in exported().items() if callable(obj)
              and not inspect.isclass(obj)
              and any(p.endswith("_tol") for p in inspect.signature(obj).parameters)}
    assert takers == {entry for entry, _, _ in calls}
    assert {name for _, name, _ in calls} == {"feas_tol", "eff_tol", "support_tol", "rts_tol"}
    unchecked = []
    for entry, name, call in calls:
        call(getattr(ramdea, name.upper()))  # the default is accepted
        for value in (0.0, -1.0, math.nan, math.inf):
            try:
                call(value)
            except ValueError as error:
                if str(error) == f"{name} must be finite and strictly positive, got {value}":
                    continue
            unchecked.append((entry, name, value))
    assert unchecked == []


def test_bad_tolerances_give_no_wrong_answer():
    scored = ramdea.evaluate(ABCD, 3)
    reference = ramdea.identify_grs(ABCD, 3, scored)
    assert reference.members == (1,) and reference.weights[1] == 1.0
    # unchecked, NaN would leave B out of the members at a weight of 1,
    # and -1 would make members of the three units of weight 0
    for support_tol in (math.nan, -1.0):
        with pytest.raises(ValueError, match="support_tol"):
            ramdea.identify_grs(ABCD, 3, scored, support_tol=support_tol)
    # unchecked, NaN would call C inefficient at a slack sum of about 1e-16
    assert ramdea.evaluate(ABCD, 2).efficient
    with pytest.raises(ValueError, match="eff_tol"):
        ramdea.evaluate(ABCD, 2, eff_tol=math.nan)
    # unchecked, -1 would accept a zero normaliser and divide by it
    with pytest.raises(ramdea.DegenerateNormalizerError):
        ramdea.max_support_solution([[1.0]], d=[-1.0])
    with pytest.raises(ValueError, match="support_tol"):
        ramdea.max_support_solution([[1.0]], d=[-1.0], support_tol=-1.0)


def test_feas_tol_is_checked_even_where_no_lp_is_solved(kernel_calls):
    # B's GRS is the vertex B itself, an anchor with no positive input
    # has no interval, and no units means no solve: each call reaches no
    # kernel, yet rejects the tolerance it was given
    scored = ramdea.evaluate(ABCD, 1)
    solves = [kernel_calls(module) for module in (ramdea.dea, ramdea.grs, ramdea.rts)]
    calls = [lambda tol: ramdea.identify_grs(ABCD, 1, scored, feas_tol=tol),
             lambda tol: ramdea.intercept_bounds_many(ABCD, [([0.0], [1.0])], feas_tol=tol),
             lambda tol: ramdea.evaluate_many(ABCD, [], feas_tol=tol),
             lambda tol: ramdea.identify_grs_many(ABCD, [], feas_tol=tol)]
    message = "feas_tol must be finite and strictly positive, got nan"
    for call in calls:
        call(ramdea.FEAS_TOL)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(math.nan)
    assert solves == [[], [], []]


def readme_blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks under the README's ``## section``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", body, re.MULTILINE | re.DOTALL)


def test_readme_examples_run_as_shown(monkeypatch, capsys):
    namespace: dict = {}
    for block in readme_blocks("Library", "python"):
        exec(block, namespace)
    assert namespace["verdict"] == "increasing"
    assert [outcome.status for outcome in namespace["outcomes"]] == ["optimal"] * 2
    (shown,) = readme_blocks("CLI", "text")
    monkeypatch.chdir(ROOT)
    assert cli.main(["report", "--data", "data/demo8.csv", "--dmu", "DMU8"]) == 0
    assert capsys.readouterr().out == shown
