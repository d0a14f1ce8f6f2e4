"""Record every LP the program solves on benchmark datasets, and compare two censuses.

Usage (from the repository root):

    python3 tools/census.py --workload many-small --seeds 11-14 \\
        --src OTHER_CHECKOUT/src --out old.json
    python3 tools/census.py --workload many-small --seeds 11-14 --out new.json \\
        --against old.json

Datasets and their runs are those of ``tools/sweep.py`` (same
``--workload``, ``--seeds`` and ``--src``; every run prints json).  While
they run, the ``solve_many`` binding of ``ramdea.dea``, ``ramdea.grs``
and ``ramdea.rts`` is wrapped, and every LP handed to it is recorded:
the calling stage, a digest of the LP (sense, the shape and bytes of
each array, and the starting basis), its outcome (the status, or the
error's class and text), its pivot and phase-1 pivot counts, and the
bytes of its objective value, primal and duals (digested).  An LP's
matrix is recorded whole, its leading columns and its constraint matrix
in one, so a program whose columns are split in two blocks is recorded
as the same program given as one matrix.  An LP's trailing padding
columns, each pinned at zero with zero cost and an all-zero matrix
column, are trimmed from it and from its primal first, so a program
padded to the width of its stack is recorded as the program it pads.
``lp._SimplexState.run`` and ``_round`` are wrapped too, to count each
stage's kernel calls (lockstep stacks), lockstep rounds, and the rounds
whose stack held one LP, the tail in which the whole stack waits on its
slowest LP.  The result is a JSON object ``{dataset: {"exit": exit code,
"lps": [record, ...], "kernel": {stage: [stacks, rounds, one-LP
rounds]}}}``, each dataset's records sorted, since the order in which
one stage hands its LPs to the kernel is not part of what is compared.
Each stage's total stacks, rounds and one-LP rounds are printed.

With ``--against`` the new census is compared with an earlier one on the
datasets both hold: the earlier census's total stacks, rounds and one-LP
rounds over those datasets are printed, then the count of datasets whose
exit code and LP records are all the same, then, for each other dataset,
the records that only one side holds.  The kernel counts are not
compared.
The exit status is then 1 when any dataset differs, and 0 otherwise, so
a gate of bit-identical solves is the command's exit status.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import sys
from pathlib import Path

from sweep import ROOT, WORKLOADS, runs, seed_range

STAGES = ("dea", "grs", "rts")


def _digest(*parts) -> str:
    """A short digest of ``parts``; arrays by dtype, shape and bytes."""
    import numpy as np

    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = (part.dtype.str, part.shape, part.tobytes())
        h.update(repr(part).encode())
    return h.hexdigest()


def full_matrix(program):
    """The whole matrix of one program: its leading columns, which versions
    of ``ramdea`` before them lack, then its constraint matrix."""
    import numpy as np

    leading = getattr(program, "leading_columns", None)
    return program.constraint_matrix if leading is None else np.hstack(
        [leading, program.constraint_matrix])


def own_columns(program, matrix) -> int:
    """The columns of ``program``, whose whole matrix is ``matrix``, before
    its trailing padding: columns pinned at zero, with zero cost and an
    all-zero matrix column."""
    import numpy as np

    padding = ((program.lower_bounds == 0.0) & (program.upper_bounds == 0.0)
               & (program.objective == 0.0) & ~matrix.any(axis=0))
    own = np.flatnonzero(~padding)
    return int(own[-1]) + 1 if own.size else 0


def lp_digest(program, matrix, basis, q: int) -> str:
    """A digest of the first ``q`` columns of ``program``, whose whole matrix
    is ``matrix``, and ``basis``."""
    import numpy as np

    return _digest(program.sense, program.objective[:q], matrix[:, :q],
                   program.rhs, program.lower_bounds[:q], program.upper_bounds[:q],
                   None if basis is None else np.asarray(basis, dtype=np.int64))


def record(stage: str, program, basis, outcome) -> list:
    """One LP's census entry, without its padding columns."""
    matrix = full_matrix(program)
    q = own_columns(program, matrix)
    head = [stage, lp_digest(program, matrix, basis, q)]
    if isinstance(outcome, Exception):
        return head + [f"{type(outcome).__name__}: {outcome}", None, None, None, None, None]
    value = outcome.objective_value
    return head + [outcome.status, outcome.iterations, outcome.phase1_iterations,
                   None if value is None else float(value).hex(),
                   None if outcome.primal is None else _digest(outcome.primal[:q]),
                   None if outcome.duals is None else _digest(outcome.duals)]


def install(records: list, kernel: dict) -> None:
    """Wrap each stage's ``solve_many`` so that its LPs land in ``records``,
    and the kernel so that each stage's stacks, rounds and one-LP rounds
    add up in ``kernel[stage]``.  A wrapper passes every argument on and
    reads ``bases`` as ``lp.solve_many``'s signature binds it."""
    import importlib
    import inspect

    from ramdea import lp

    signature = inspect.signature(lp.solve_many)
    calling = [None]  # the stage whose ``solve_many`` call ran last
    for stage in STAGES:
        module = importlib.import_module(f"ramdea.{stage}")

        def recorded(programs, *args, stage=stage, solve_many=module.solve_many, **kwargs):
            calling[0] = stage
            outcomes = solve_many(programs, *args, **kwargs)
            bases = signature.bind(programs, *args, **kwargs).arguments.get("bases")
            for program, basis, outcome in zip(programs, bases or [None] * len(outcomes),
                                               outcomes):
                records.append(record(stage, program, basis, outcome))
            return outcomes

        module.solve_many = recorded

    def counted(method, at):
        def wrapper(state):
            counts = kernel[calling[0]]
            counts[at] += 1
            if at == 1 and state.ids.size == 1:
                counts[2] += 1
            return method(state)
        return wrapper

    lp._SimplexState.run = counted(lp._SimplexState.run, 0)
    lp._SimplexState._round = counted(lp._SimplexState._round, 1)


def census(workloads, seeds) -> dict:
    records: list = []
    kernel = {stage: [0, 0, 0] for stage in STAGES}
    install(records, kernel)
    entries = {}
    for name, (code, _, _) in runs(workloads, seeds, "json"):
        entries[name] = {"exit": code, "lps": sorted(records, key=json.dumps),
                         "kernel": {stage: list(counts) for stage, counts in kernel.items()}}
        records.clear()
        for counts in kernel.values():
            counts[:] = [0, 0, 0]
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
