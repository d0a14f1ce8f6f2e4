"""End-to-end benchmark of the ramdea report pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload many-small --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; their reasons and every
metric's meaning are in ``glossary.json``.  One run:

 1. generates the workload's datasets from the seed and writes them as CSV;
 2. measures ``setup_s``: the median, over fresh interpreters, of
    ``import ramdea`` plus ``parse_dataset`` of the workload's files;
 3. starts one workload process (``worker.py``) with BLAS pinned to one
    thread, which warms up and then calls ``ramdea.cli.main`` in a
    closed loop over the datasets for ``--seconds`` (each at least once);
    with ``--trace 1`` it then replays each dataset once under the trace
    wrappers;
 4. checks every output against an independent HiGHS reference
    (``reference.py``), outside the timed region;
 5. prints a readable summary, then one JSON line: with ``--trace 0`` the
    end-to-end metrics, with ``--trace 1`` the per-layer metrics.

A unit fails when its report exits non-zero (every unit of that dataset
fails) or when its output disagrees with the reference.  ``attempted``
and ``failed`` count every unit of the workload once, however often the
loop repeated its dataset, so they depend on the seed alone.  ``units_per_s``
counts the verified units of the datasets whose report exited 0, over
the sum of those datasets' median wall times in the loop; failures are
counted by ``failed`` instead.
``units_per_cal`` is the same rate per median calibration-block time of
the run instead of per second, which cancels most of the host's drift
in speed; it is the end-to-end throughput metric.  ``correct`` is
false only when an output was wrong, not when the program refused with
an error.  Details of every run, with its failure ledger, go to
``bench/out/<workload>-s<seed>-t<trace>.json``; traced runs also write
their spans to ``bench/out/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
LEDGER_LINES = 20
# printed and kept with the run's details, not declared in BENCHMARK.json
EXTRA_UNITS = {"units_per_s": "1/s", "calibration_block_s": "s"}

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, dataset  # noqa: E402

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ramdea
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as source:
        ramdea.parse_dataset(source.read())
print(time.perf_counter() - start)
"""


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup(paths) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *map(str, paths)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def failing_unit(stderr: str) -> str | None:
    # the CLI reports "solver error: <unit>: <message>"
    for line in stderr.splitlines():
        if line.startswith("solver error: "):
            return line.split(": ")[1]
    return None


def verify(workload, datasets, result, spans):
    """Outcome of every distinct dataset run: failed units and ledger entries."""
    outcomes = {}
    for key, first in result["first"].items():
        k = int(key)
        ds = datasets[k]
        entry = {"workload": workload, "dataset": ds.name, "variant": ds.variant,
                 "scheme": ds.scheme, "regime": ds.regime}
        if first["code"] != 0:
            where = tracing.innermost_error(spans, k) if spans is not None else None
            unit = failing_unit(first["stderr"])
            if unit is None and where and where["unit"] is not None:
                unit = ds.units()[where["unit"]]
            ledger = [dict(entry, unit=unit, units_failed=ds.n,
                           exit=first["code"],
                           stage=where["stage"] if where else None,
                           layer=where["name"] if where else None,
                           error=where["error"] if where else None,
                           message=first["stderr"].strip().splitlines()[-1][:200])]
            outcomes[k] = {"failed": ds.n, "wrong": 0, "inconclusive": [], "ledger": ledger}
            continue
        try:
            wrong, inconclusive = reference.check(ds, json.loads(first["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            wrong = {unit: ("shape", f"unreadable report: {exc}") for unit in ds.units()}
            inconclusive = []
        ledger = [dict(entry, unit=unit, units_failed=1, exit=0, stage=f"check.{check}",
                       layer=None, error="Mismatch", message=reason[:200])
                  for unit, (check, reason) in sorted(wrong.items())]
        outcomes[k] = {"failed": len(wrong), "wrong": len(wrong),
                       "inconclusive": inconclusive, "ledger": ledger}
    return outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "ramdea" / "__init__.py").is_file() or \
            not (ROOT / "data" / "demo8.csv").is_file():
        print(f"error: no ramdea checkout at {ROOT} (src/ramdea and data/demo8.csv)",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    workload = WORKLOADS[args.workload]
    datasets = [dataset(workload, args.seed, k) for k in range(workload.count)]
    tag = f"{workload.name}-s{args.seed}"

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{tag}-t{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        paths = []
        for ds in datasets:
            path = work / f"{ds.name}.csv"
            path.write_text(ds.csv_text(), encoding="utf-8")
            paths.append(path)
        setup_s = measure_setup(paths)

        spans_path = OUT / f"spans-{tag}.jsonl"
        manifest = {
            "src": str(ROOT / "src"),
            "warmup": ["report", "--data", str(ROOT / "data" / "demo8.csv")],
            "datasets": [ds.argv(path) for ds, path in zip(datasets, paths)],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans": str(spans_path),
            "result": str(work / "result.json"),
        }
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "manifest.json")],
                       timeout=WORKER_TIMEOUT_S, check=True)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = tracing.read_spans(spans_path) if args.trace else None
    outcomes = verify(workload.name, datasets, result, spans)
    unstable = set(result["unstable"])
    lost = {k: ds.n if k in unstable else outcomes[k]["failed"]
            for k, ds in enumerate(datasets)}
    # each dataset once, so that both repeat exactly for a seed; the
    # timed loop's own count depends on how far it got
    attempted = sum(ds.n for ds in datasets)
    failed = sum(lost.values())
    fail_frac = failed / attempted
    walls = {}
    for k, _code, seconds in result["calls"]:
        walls.setdefault(k, []).append(seconds)
    # one pass over the datasets, each timed by the median of its calls,
    # so that the loop's partial last pass weighs no dataset more than
    # another; an aborted report adds neither units nor time
    passed = [k for k in range(len(datasets)) if result["first"][str(k)]["code"] == 0]
    verified = sum(datasets[k].n - lost[k] for k in passed)
    wall = sum(statistics.median(walls[k]) for k in passed)
    wrong = sum(o["wrong"] for o in outcomes.values())
    inconclusive = [f"{datasets[k].name} {reason}"
                    for k in sorted(outcomes) for reason in outcomes[k]["inconclusive"]]
    correct = wrong == 0 and not unstable and not result.get("changed_by_trace")
    ledger = [line for k in sorted(outcomes) for line in outcomes[k]["ledger"]]

    units_per_s = verified / wall if wall else 0.0
    block_s = statistics.median(result["blocks"])
    e2e = {"units_per_cal": units_per_s * block_s, "units_per_s": units_per_s,
           "calibration_block_s": block_s, "setup_s": setup_s,
           "peak_rss_mb": result["peak_rss_mb"]}
    if args.trace:
        metrics = tracing.layer_metrics(spans)
        untraced = sum(statistics.median(times) for times in walls.values())
        metrics["trace.overhead_frac"] = sum(result["traced_walls"]) / untraced - 1.0
        metrics["fail_frac"] = fail_frac
        declared = per_layer
    else:
        metrics = {name: e2e[name] for name in end_to_end}
        declared = end_to_end

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(result['calls'])} report calls over {len(outcomes)} datasets, "
          f"{attempted} units attempted, {failed} failed, {wrong} wrong, "
          f"{len(inconclusive)} checks inconclusive")
    print(f"  fail_frac = {fail_frac:.6f} share")
    for name, value in {**e2e, **metrics}.items():
        unit = end_to_end.get(name) or per_layer.get(name) or EXTRA_UNITS[name]
        print(f"  {name} = {value:.6g} {unit}")
    for line in ledger[:LEDGER_LINES]:
        print(f"  failed: {line['dataset']} unit {line['unit']} stage {line['stage']} "
              f"{line['error']}: {line['message'][:100]}")
    if len(ledger) > LEDGER_LINES:
        print(f"  ... {len(ledger) - LEDGER_LINES} more in {OUT / f'{tag}-t{args.trace}.json'}")

    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "attempted": attempted, "failed": failed, "wrong": wrong,
               "fail_frac": fail_frac, "end_to_end": e2e, "metrics": metrics,
               "ledger": ledger, "inconclusive": inconclusive}
    (OUT / f"{tag}-t{args.trace}.json").write_text(json.dumps(details, indent=1),
                                                   encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
