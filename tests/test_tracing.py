"""The bench tracer must keep working on the program as it is.

``bench/tracing.py`` wraps public functions of ``ramdea`` by name and
reads their arguments and results; a traced bench run replays each
dataset under those wrappers and is judged incorrect if the output
changes.  This runs the same wrappers around the CLI.
"""

from pathlib import Path

import pytest

import tracing
from ramdea import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command", ["efficiency", "grs", "rts", "report"])
def test_traced_run_prints_the_same_output(command, capsys):
    argv = [command, "--data", str(ROOT / "data" / "demo8.csv"), "--format", "json"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out

    tracer = tracing.Tracer()
    tracer.dataset = 0
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    assert capsys.readouterr().out == untraced
    assert not [span for span in tracer.spans if "error" in span]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.main.self_s"] >= 0.0
