"""The measuring tools under ``tools/`` still run against the program.

``tools/census.py`` and ``tools/stages.py`` wrap the stages' ``solve_many``
bindings and ``lp._SimplexState.run`` and ``_round``; each runs here in a
process of its own, so its wrappers stay out of the other tests, and so
does ``tools/sweep.py``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
    script = """if True:
        import json, census
        from ramdea import grs, lp
        records, kernel = [], {stage: [0, 0, 0] for stage in census.STAGES}
        census.install(records, kernel)
        program = lp.LinearProgram("minimize", [1.0], [[1.0]], [1.0])
        grs.solve_many(program)
        grs.solve_many(program, bases=[[0]])
        print(json.dumps([records, kernel]))
    """
    recorded = run(["-c", script],
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
    assert recorded.returncode == 0, recorded.stderr
    records, kernel = json.loads(recorded.stdout)
    assert [(stage, status) for stage, _, status, *_ in records] == [("grs", "optimal")] * 2
    assert records[0][1] != records[1][1]  # the digest holds the basis
    assert kernel["grs"][0] == 2


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
