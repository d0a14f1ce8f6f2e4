"""Record every LP the program solves on benchmark datasets, and compare two censuses.

Usage (from the repository root):

    python3 tools/census.py --workload many-small --seeds 11-14 \\
        --src OTHER_CHECKOUT/src --out old.json
    python3 tools/census.py --workload many-small --seeds 11-14 --out new.json \\
        --against old.json

Datasets and their runs are those of ``tools/sweep.py`` (same
``--workload``, ``--seeds`` and ``--src``; every run prints json).  Each
LP the stages hand the kernel, as ``tools/recorder.py`` passes it on, is
recorded: its stage, a digest of the program it stands for (see
``full_matrix`` and ``own_columns``) and of its starting basis, its
status or the error's class and text, its pivot and phase-1 pivot
counts, and the bytes of its objective value, primal and duals
(digested).  The result is a JSON object ``{dataset: {"exit": exit
code, "lps": [record, ...], "kernel": {stage: [stacks, rounds, one-LP
rounds]}}}``, the records sorted, since the order in which a stage hands
its LPs over is not compared.  Each stage's total stacks, rounds and
one-LP rounds (rounds whose stack held one LP) are printed.

With ``--against`` the new census is compared with an earlier one on the
datasets both hold.  The earlier census's total stacks, rounds and one-LP
rounds over them are printed, then the count of datasets whose exit code
and LP records are all the same, then each other dataset's records that
only one side holds.  The exit status is 1 when any dataset differs, and
0 otherwise, so a gate of bit-identical solves is the exit status.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from recorder import STAGES, recording
from sweep import ROOT, WORKLOADS, runs, seed_range


def _digest(*parts) -> str:
    """A short digest of ``parts``; arrays by dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = (part.dtype.str, part.shape, part.tobytes())
        h.update(repr(part).encode())
    return h.hexdigest()


def full_matrix(program):
    """The whole matrix of one program: its leading columns, which versions
    of ``ramdea`` before them lack, then its constraint matrix, so a
    program split in two blocks is recorded as the one it stands for."""
    leading = getattr(program, "leading_columns", None)
    return program.constraint_matrix if leading is None else np.hstack(
        [leading, program.constraint_matrix])


def own_columns(program, matrix) -> int:
    """The columns of ``program``, whose whole matrix is ``matrix``, before
    its trailing padding: columns pinned at zero, with zero cost and an
    all-zero matrix column, so a program padded to its stack's width is
    recorded as the one it pads."""
    padding = ((program.lower_bounds == 0.0) & (program.upper_bounds == 0.0)
               & (program.objective == 0.0) & ~matrix.any(axis=0))
    own = np.flatnonzero(~padding)
    return int(own[-1]) + 1 if own.size else 0


def records(stage: str, stack, bases, outcomes):
    """The census entries of one ``solve_many`` call, one per LP, each
    without its padding columns."""
    for program, basis, outcome in zip(stack, bases or [None] * len(outcomes), outcomes):
        matrix = full_matrix(program)
        q = own_columns(program, matrix)
        entry = [stage, _digest(program.sense, program.objective[:q], matrix[:, :q],
                                program.rhs, program.lower_bounds[:q], program.upper_bounds[:q],
                                None if basis is None else np.asarray(basis, dtype=np.int64))]
        if isinstance(outcome, Exception):
            entry += [f"{type(outcome).__name__}: {outcome}", None, None, None, None, None]
        else:
            value = outcome.objective_value
            entry += [outcome.status, outcome.iterations, outcome.phase1_iterations,
                      None if value is None else float(value).hex(),
                      None if outcome.primal is None else _digest(outcome.primal[:q]),
                      None if outcome.duals is None else _digest(outcome.duals)]
        yield entry


def census(workloads, seeds) -> dict:
    lps: list = []
    entries = {}
    with recording(lambda *call: lps.extend(records(*call))) as kernel:
        for name, (code, _, _) in runs(workloads, seeds, "json"):
            entries[name] = {"exit": code, "lps": sorted(lps, key=json.dumps), "kernel": {
                stage: [len(stacks), sum(e[1] for e in stacks), sum(e[2] for e in stacks)]
                for stage, stacks in kernel.items()}}
            lps.clear()
            for stacks in kernel.values():
                stacks.clear()
    return entries


def kernel_totals(entries: dict, names) -> str:
    """Each stage's stacks, rounds and one-LP rounds, summed over the
    datasets ``names``; a census of an earlier version of this script
    holds no one-LP rounds."""
    totals = {stage: [0, 0, 0] for stage in STAGES}
    for name in names:
        for stage, counts in entries[name]["kernel"].items():
            for at, count in enumerate(counts):
                totals[stage][at] += count
    return ", ".join(f"{stage} {stacks} / {rounds} / {tail}"
                     for stage, (stacks, rounds, tail) in totals.items())


def differences(old: dict, new: dict) -> dict[str, list[str]]:
    """For each dataset of both censuses that differs, the lines telling how."""
    found = {}
    for name in sorted(old.keys() & new.keys()):
        before, after = old[name], new[name]
        lines = []
        if before["exit"] != after["exit"]:
            lines.append(f"exit code {before['exit']} -> {after['exit']}")
        counts = collections.Counter(json.dumps(entry) for entry in before["lps"])
        counts.subtract(json.dumps(entry) for entry in after["lps"])
        for entry, count in sorted(counts.items()):
            if count:
                side = "only earlier" if count > 0 else "only new"
                lines.append(f"{side} x{abs(count)}: {entry}")
        if lines:
            found[name] = lines
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(WORKLOADS), help="repeatable")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help='e.g. "11", "0-99" or "1,3,5-7"')
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the ramdea package to run")
    parser.add_argument("--out", required=True, help="where to write the census JSON")
    parser.add_argument("--against", help="an earlier census to compare with")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    entries = census(args.workload, args.seeds)
    Path(args.out).write_text(json.dumps(entries, indent=0), encoding="utf-8")
    per_stage = collections.Counter(entry[0] for data in entries.values()
                                    for entry in data["lps"])
    aborted = sum(data["exit"] != 0 for data in entries.values())
    print(f"{len(entries)} datasets, {aborted} aborted; LPs "
          + ", ".join(f"{stage} {per_stage[stage]}" for stage in STAGES))
    print(f"stacks / rounds / one-LP rounds: {kernel_totals(entries, entries)}")
    if args.against:
        old = json.loads(Path(args.against).read_text(encoding="utf-8"))
        print("earlier stacks / rounds / one-LP rounds: "
              f"{kernel_totals(old, old.keys() & entries.keys())}")
        found = differences(old, entries)
        print(f"same: {len(old.keys() & entries.keys()) - len(found)}, "
              f"different: {len(found)}")
        for name, lines in found.items():
            print(f"  {name}")
            for line in lines:
                print(f"    {line}")
        if found:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
