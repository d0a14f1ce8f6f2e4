"""The measuring tools under ``tools/`` still run against the program.

``tools/recorder.py`` is the one seam through which ``tools/census.py``
and ``tools/stages.py`` read the kernel; it restores every binding it
wraps, so it and the census's records run here in process.  Each tool's
command line runs in a process of its own, as from the repository root,
and so does ``stages.measure``, which wraps the stages' entry points
for good."""

import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import census
from ramdea import dea, grs, lp, rts
from recorder import recording

ROOT = Path(__file__).resolve().parents[1]


def run(args, **env):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, **env), timeout=600)


def test_census_matches_itself(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    census = ["tools/census.py", "--workload", "many-small", "--seeds", "0"]
    made = run([*census, "--out", str(first)])
    assert made.returncode == 0, made.stderr
    again = run([*census, "--out", str(second), "--against", str(first)])
    assert again.returncode == 0, again.stdout + again.stderr
    assert "same: 27, different: 0" in again.stdout


def test_census_records_every_calling_form():
    # one argument, then ``bases`` by keyword: both are recorded, the
    # second with its basis
    records = []
    with recording(lambda *call: records.extend(census.records(*call))) as kernel:
        program = lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0])
        grs.solve_many(program)
        grs.solve_many(program, bases=[[0]])
    assert [(stage, status) for stage, _, status, *_ in records] == [("grs", "optimal")] * 2
    assert records[0][1] != records[1][1]  # the digest holds the basis
    assert len(kernel["grs"]) == 2


def test_recording_restores_every_binding():
    def bound():
        return [dea.solve_many, grs.solve_many, rts.solve_many, lp._SimplexState.run,
                lp._SimplexState._round]

    originals = bound()
    with recording():
        assert not any(map(operator.is_, bound(), originals))
    assert all(map(operator.is_, bound(), originals))
    with pytest.raises(ZeroDivisionError), recording():
        1 / 0
    assert all(map(operator.is_, bound(), originals))


def test_a_kernel_call_outside_every_stage_counts_for_none():
    # after a stage's call, a direct one adds to no stage's calls or stacks
    one = lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0])
    with recording() as alone:
        grs.solve_many(one)
    calls = []
    with recording(lambda *call: calls.append(call)) as kernel:
        grs.solve_many(one)
        outcomes = lp.solve_many(lp.LinearProgram("minimize", [1.0], [[1.0]], [[1.0], [2.0]]))
    assert [outcome.status for outcome in outcomes] == ["optimal"] * 2
    assert [stage for stage, *_ in calls] == ["grs"]
    assert kernel == alone and len(alone["grs"]) == 1


def test_stacks_of_one_lp_take_only_one_lp_rounds(monkeypatch):
    rng = np.random.default_rng(67)
    stack = lp.LinearProgram("maximize", np.ones(4), rng.uniform(-1.0, 1.0, (2, 4)),
                             rng.uniform(0.0, 1.0, (6, 2)), np.zeros(4), np.full(4, 3.0))
    monkeypatch.setattr(lp, "_STACK_BYTES", 1)
    with recording() as kernel:
        assert len(grs.solve_many(stack)) == 6
    assert [lps for lps, _, _ in kernel["grs"]] == [1] * 6
    assert all(rounds == one_lp > 0 for _, rounds, one_lp in kernel["grs"])
    assert kernel["dea"] == kernel["rts"] == []


def test_stages_counts_every_stage():
    measured = run(["-c", "import json, stages; print(json.dumps(stages.measure(70, 1)))"],
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
    assert measured.returncode == 0, measured.stderr
    result = json.loads(measured.stdout)
    assert result["n"] == 70 and set(result["counts"]) == {"scoring", "GRS", "RTS"}
    # kernel calls, stacks and rounds
    for stage, counts in result["counts"].items():
        assert len(counts) == 3 and all(count > 0 for count in counts), stage


def test_sweep_sorts_identical_close_and_different(tmp_path):
    first = tmp_path / "first.json"
    sweep = ["tools/sweep.py", "--workload", "many-small", "--seeds", "0"]
    made = run([*sweep, "--out", str(first)])
    assert made.returncode == 0, made.stderr
    outputs = json.loads(first.read_text(encoding="utf-8"))
    # one nonzero decimal of one dataset that passed, to be scaled
    name, number = next((name, match) for name, (code, stdout, _) in outputs.items()
                        if code == 0 for match in re.finditer(r"\d+\.\d+", stdout)
                        if float(match[0]) != 0.0)
    for scale, counts, code in ((None, "identical: 27", 0),
                                (1 + 1e-9, "within 1e-6: 1", 0),
                                (1 + 1e-3, "different: 1", 1)):
        earlier = first
        if scale is not None:
            earlier = tmp_path / f"scaled {scale}.json"
            _, stdout, stderr = outputs[name]
            stdout = (stdout[:number.start()] + repr(float(number[0]) * scale)
                      + stdout[number.end():])
            earlier.write_text(json.dumps({**outputs, name: [0, stdout, stderr]}),
                               encoding="utf-8")
        compared = run([*sweep, "--out", str(tmp_path / "again.json"),
                        "--against", str(earlier)])
        assert compared.returncode == code, compared.stdout + compared.stderr
        assert counts in compared.stdout.splitlines()
