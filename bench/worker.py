"""The workload process: one warm interpreter calling ``ramdea.cli.main``.

Usage: python3 bench/worker.py MANIFEST

MANIFEST is a JSON file written by run.py.  The worker warms the
interpreter with one report on the demo data, then runs the datasets in
a closed loop with a single caller (the next call starts only after the
previous one returned), cycling through them until each has run once
and ``seconds`` have passed.  Calibration blocks (``calibration.py``)
run before the first call and after calls, one for every two seconds
since the last block, so that workloads with long calls get as many
samples per second of loop as those with short ones.  With ``trace`` set the
worker then replays each dataset once with the trace wrappers
installed, restores the original functions and writes the spans.  Results go to the
manifest's ``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration  # noqa: E402  (after pinning BLAS)

CALIBRATE_EVERY_S = 2.0


def call(cli, argv):
    """One closed-loop request; returns (exit code, wall seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an untyped error escaping the CLI fails the dataset
        code = f"raised {type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def main(manifest_path: str) -> None:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    sys.path.insert(0, manifest["src"])
    import ramdea.cli as cli

    datasets = manifest["datasets"]
    seconds = manifest["seconds"]
    call(cli, manifest["warmup"])
    calibration.block()

    calls = []        # [dataset index, exit code, wall seconds]
    blocks = []       # calibration block times, interleaved with the calls
    first = {}        # dataset index -> {"code", "stdout", "stderr"}
    digests = {}
    unstable = set()  # datasets whose output changed between repeats
    gc.collect()
    start = time.perf_counter()
    blocks.append(calibration.block())
    last_block = time.perf_counter()
    while True:
        k = len(calls) % len(datasets)
        code, wall, out, err = call(cli, datasets[k])
        calls.append([k, code, wall])
        for _ in range(int((time.perf_counter() - last_block) // CALIBRATE_EVERY_S)):
            blocks.append(calibration.block())
            last_block = time.perf_counter()
        digest = hashlib.sha256((str(code) + out).encode()).hexdigest()
        if k not in first:
            first[k] = {"code": code, "stdout": out, "stderr": err}
            digests[k] = digest
        elif digests[k] != digest:
            unstable.add(k)
        if len(calls) >= len(datasets) and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"calls": calls, "blocks": blocks, "first": first,
              "unstable": sorted(unstable), "peak_rss_mb": peak_rss_mb}
    if manifest["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        traced_walls = []
        changed = []
        gc.collect()
        tracer.install()
        try:
            for k in range(len(datasets)):
                tracer.dataset = k
                code, wall, out, _ = call(cli, datasets[k])
                traced_walls.append(wall)
                if hashlib.sha256((str(code) + out).encode()).hexdigest() != digests[k]:
                    changed.append(k)
        finally:
            tracer.restore()
        tracer.write(manifest["spans"])
        result["traced_walls"] = traced_walls
        result["changed_by_trace"] = changed
    Path(manifest["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
