"""Time each stage of a report and count its kernel calls, stacks and rounds.

Usage (from the repository root):

    python3 tools/stages.py
    python3 tools/stages.py --src OTHER_CHECKOUT/src

The data is the five-input, three-output report of acceptance criterion
9: unit k's row is ``uniform(1, 10)`` from ``numpy.random.default_rng(103)``,
eight values a unit, written with four decimals, so the first 70 units
of every size are the same.  The sizes are 70, 200 and 500 units, those
of the north star.  ``ramdea.reporting.run_analysis`` runs on it in
process with the default configuration (ram, vrs): once to warm up,
while ``tools/recorder.py`` counts each stage's kernel calls, stacks and
rounds, then three times, timing the report and each stage's entry
point: scoring (``dea.evaluate_many``), GRS (``grs.identify_grs_many``)
and RTS (``rts.intercept_bounds_many``).  Each size runs in a process of
its own, so the peak RSS (``ru_maxrss``) is its own.  ``--src`` imports
``ramdea`` from another checkout, so two versions can be measured with
the same script.

Prints one row per size: the fastest and slowest timed run of the report
and of each stage in ms, each stage's kernel calls, stacks and rounds,
and the peak RSS in MB.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = (70, 200, 500)
RUNS = 3

STAGES = {"scoring": ("dea", "evaluate_many"), "GRS": ("grs", "identify_grs_many"),
          "RTS": ("rts", "intercept_bounds_many")}


def report_csv(n: int) -> str:
    """The CSV of the ``n``-unit report of acceptance criterion 9."""
    import numpy as np

    rng = np.random.default_rng(103)
    lines = ["dmu," + ",".join(f"in:x{i}" for i in range(1, 6))
             + "," + ",".join(f"out:y{r}" for r in range(1, 4))]
    for k in range(n):
        lines.append(f"S{k + 1}," + ",".join(f"{v:.4f}" for v in rng.uniform(1.0, 10.0, 8)))
    return "\n".join(lines) + "\n"


def measure(n: int, runs: int) -> dict:
    """Times (seconds, per run) and counts of the ``n``-unit report."""
    from ramdea import reporting
    from recorder import recording

    times = {name: [] for name in ["report", *STAGES]}
    calls = []  # the stage of each kernel call

    def timed(name, entry):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return entry(*args, **kwargs)
            finally:
                times[name].append(time.perf_counter() - start)
        return wrapper

    dataset = reporting.parse_dataset(report_csv(n))
    config = reporting.AnalysisConfig()
    # an untimed run warms up and is counted, since every run makes the same counts
    with recording(lambda stage, *_: calls.append(stage)) as kernel:
        reporting.run_analysis(config, dataset)
    for name, (module_name, entry) in STAGES.items():
        module = importlib.import_module(f"ramdea.{module_name}")
        setattr(module, entry, timed(name, getattr(module, entry)))
    for _ in range(runs):
        start = time.perf_counter()
        reports = reporting.run_analysis(config, dataset)
        times["report"].append(time.perf_counter() - start)
        assert len(reports) == n and all(report.rts_class for report in reports)
    # kernel calls, stacks and rounds
    counts = {name: [calls.count(module), len(kernel[module]),
                     sum(rounds for _, rounds, _ in kernel[module])]
              for name, (module, _) in STAGES.items()}
    return {"n": n, "times": times, "counts": counts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def row(result: dict) -> str:
    def span(values):
        return f"{min(values) * 1e3:.0f}-{max(values) * 1e3:.0f} ms"

    cells = [f"n = {result['n']}", f"report {span(result['times']['report'])}"]
    for name in STAGES:
        calls, stacks, rounds = result["counts"][name]
        cells.append(f"{name} {span(result['times'][name])}, "
                     f"{calls} calls / {stacks} stacks / {rounds} rounds")
    cells.append(f"peak RSS {result['peak_rss_mb']:.1f} MB")
    return " | ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(HERE.parent / "src"),
                        help="directory holding the ramdea package to run")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([args.src, str(HERE)]))
    for n in SIZES:
        # a process per size, whose peak RSS is that size's alone
        child = subprocess.run(
            [sys.executable, "-c",
             f"import json, stages; print(json.dumps(stages.measure({n}, {RUNS})))"],
            env=env, capture_output=True, text=True, check=True)
        print(row(json.loads(child.stdout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
