"""The measuring tools under ``tools/`` still run against the program.

``tools/census.py`` and ``tools/stages.py`` wrap the stages' ``solve_many``
bindings and ``lp._SimplexState.run`` and ``_round``; each runs here in a
process of its own, so its wrappers stay out of the other tests."""

import json
import os
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


def test_stages_counts_every_stage():
    measured = run(["-c", "import json, stages; print(json.dumps(stages.measure(70, 1)))"],
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
    assert measured.returncode == 0, measured.stderr
    result = json.loads(measured.stdout)
    assert result["n"] == 70 and set(result["counts"]) == {"scoring", "GRS", "RTS"}
    # kernel calls, stacks and rounds
    for stage, counts in result["counts"].items():
        assert len(counts) == 3 and all(count > 0 for count in counts), stage
