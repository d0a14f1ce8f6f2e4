"""Repeat the benchmark over seeds and record a baseline.

Usage (from the repository root):

    python3 bench/prove.py --workload many-small --seeds 1-10 --trace-seed 1

For every seed it runs ``run.py --trace 0`` and reports, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound.
With ``--trace-seed`` it also makes two traced runs on that seed and
checks that the exact counts (``lp.<c>.solves``, ``.pivots``,
``.flops_est``) and ``fail_frac`` repeat exactly.  The results, with the
traced run's per-layer metrics and failure ledger, are merged into
``bench/baseline.json`` under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
EXACT = [f"lp.{stage}.{count}" for stage in ("dea", "grs", "rts")
         for count in ("solves", "pivots", "flops_est")] + ["fail_frac"]


def machine() -> str:
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return {"result": result, "details": details}


def summary(values: list[float], bound: float | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    entry = {"median": median, "q1": q1, "q3": q3,
             "spread": (q3 - q1) / median if median else None, "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs = []
    for seed in seed_range(args.seeds):
        outcome = run(args.workload, seed, seconds, 0)
        runs.append(outcome)
        metrics = outcome["result"]["metrics"]
        print(f"seed {seed}: " + "  ".join(f"{name}={value['value']:.5g}"
                                            for name, value in metrics.items())
              + f"  fail_frac={outcome['details']['fail_frac']:.4f}", flush=True)

    entry = {"run_seconds": seconds, "seeds": seed_range(args.seeds), "end_to_end": {}}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        entry["end_to_end"][metric["name"]] = summary(values, metric["bound"])
        stats = entry["end_to_end"][metric["name"]]
        print(f"{metric['name']}: median {stats['median']:.5g} {metric['unit']}, "
              f"quartile spread {stats['spread']:.2%} of median (bound {metric['bound']:.0%}, "
              f"target below {metric['bound'] / 3:.1%})")
    raw = summary([r["details"]["end_to_end"]["units_per_s"] for r in runs])
    print(f"units_per_s (not normalised): median {raw['median']:.5g} 1/s, "
          f"quartile spread {raw['spread']:.2%} of median")
    entry["units_per_s"] = raw
    entry["fail_frac"] = summary([r["details"]["fail_frac"] for r in runs])
    entry["units_attempted"] = [r["result"]["attempted"] for r in runs]
    entry["units_failed"] = [r["result"]["failed"] for r in runs]
    entry["all_correct"] = all(r["result"]["correct"] for r in runs)

    if args.trace_seed is not None:
        first, second = (run(args.workload, args.trace_seed, seconds, 1) for _ in range(2))
        layers = first["details"]["metrics"]
        repeats = {name: layers[name] == second["details"]["metrics"][name] for name in EXACT}
        print(f"exact counts repeat on seed {args.trace_seed}: {all(repeats.values())}")
        entry["traced"] = {"seed": args.trace_seed, "per_layer": layers,
                           "exact_counts_repeat": repeats,
                           "ledger": first["details"]["ledger"]}

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    baseline["machine"] = machine()
    baseline.setdefault("workloads", {})[args.workload] = entry
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
