"""Time each stage of a report and count its kernel calls, stacks and rounds.

Usage (from the repository root):

    python3 tools/stages.py
    python3 tools/stages.py --src OTHER_CHECKOUT/src

The data is the five-input, three-output report of acceptance criterion
9: unit k's row is ``uniform(1, 10)`` from ``numpy.random.default_rng(103)``,
eight values a unit, written with four decimals, so the first 70 units
of every size are the same.  The sizes are 70, 200 and 500 units, those
of the north star.  ``ramdea.reporting.run_analysis`` runs on it with
the default configuration (ram, vrs), in process: once untimed, then
three timed times.  Each stage's entry point is timed:
scoring (``dea.evaluate_many``), GRS (``grs.identify_grs_many``) and RTS
(``rts.intercept_bounds_many``), and so is the whole ``run_analysis``.
Each stage's calls of ``solve_many`` (kernel calls), the lockstep stacks
they make (``lp._SimplexState.run``) and those stacks' rounds
(``lp._SimplexState._round``) are counted; the counts are those of one
run, since every run makes the same.  Each size runs in a process of
its own, so the peak RSS of its run (``ru_maxrss``, after the timed
runs) is its own.  ``--src`` imports ``ramdea`` from another checkout,
so two versions of the program can be measured with the same script.

Prints one row per size: for the report and each stage, the fastest and
slowest of the timed runs in ms, and for each stage its kernel calls,
stacks and rounds, then the peak RSS in MB.
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
    from ramdea import lp, reporting

    times = {name: [] for name in ["report", *STAGES]}
    counts = {name: [0, 0, 0] for name in STAGES}  # kernel calls, stacks, rounds
    running = [None]  # the stage whose entry point runs

    def timed(name, entry):
        def wrapper(*args, **kwargs):
            running[0] = name
            start = time.perf_counter()
            try:
                return entry(*args, **kwargs)
            finally:
                times[name].append(time.perf_counter() - start)
                running[0] = None
        return wrapper

    def counted(method, at):
        def wrapper(*args, **kwargs):
            if running[0] is not None:
                counts[running[0]][at] += 1
            return method(*args, **kwargs)
        return wrapper

    for name, (module_name, entry) in STAGES.items():
        module = importlib.import_module(f"ramdea.{module_name}")
        setattr(module, entry, timed(name, getattr(module, entry)))
        module.solve_many = counted(module.solve_many, 0)
    lp._SimplexState.run = counted(lp._SimplexState.run, 1)
    lp._SimplexState._round = counted(lp._SimplexState._round, 2)

    dataset = reporting.parse_dataset(report_csv(n))
    config = reporting.AnalysisConfig()
    for run in range(runs + 1):
        if run == 1:
            # the first run warms up; the counts are the last run's
            for values in times.values():
                values.clear()
        for values in counts.values():
            values[:] = [0, 0, 0]
        start = time.perf_counter()
        reports = reporting.run_analysis(config, dataset)
        times["report"].append(time.perf_counter() - start)
        assert len(reports) == n and all(report.rts_class for report in reports)
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
