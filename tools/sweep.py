"""Run the CLI over benchmark-generated datasets and compare two sweeps.

Usage (from the repository root):

    python3 tools/sweep.py --workload many-small --seeds 0-99 --out new.json
    python3 tools/sweep.py --workload robustness --seeds 1-3 \\
        --src OTHER_CHECKOUT/src --out old.json
    python3 tools/sweep.py --workload many-small --seeds 0-99 --out new.json \\
        --against old.json

Datasets come from the generators in ``bench/workloads.py``, each run with
its own scheme, regime and command through ``ramdea.cli.main`` in this
process; every run prints json.  ``--src`` imports ``ramdea`` from
another checkout, so two versions of the program can be swept with the
same script.  The result is a JSON object ``{dataset: [exit code,
stdout, stderr]}``.
With ``--against`` the new sweep is compared with an earlier one on the
datasets both hold, and the counts of identical outputs (same exit code
and stdout), outputs equal within 1e-6 (same text apart from numbers
that agree to 1e-6, absolute or relative), other differences, newly
aborting and newly passing datasets are printed, then the result of
``bench/reference.py``'s independent check of each newly passing json
output (the units it finds wrong and the checks it cannot decide),
followed by the names of the datasets in the last three groups; a newly
aborting or newly passing name carries the first stderr line of the side
that aborts, which names the unit, the stage and the cause, and a checked
one its reference counts.  For the "different" datasets whose output is
json on both sides, a contract breakdown follows: how many keep the same
exit code, efficient flags, GRS member names, face dimensions and RTS
classes, and rho within 1e-6, how many keep all of these, and the largest
change of an omega end (relative, as for 1e-6 above).  Last come the
abort counts of each side per cause, the text after the "[stage]: " tag
of the first stderr line, and the datasets that abort on both sides with
a different first stderr line, which names another unit, stage or cause.
The exit status is then 1 when any dataset is different or newly
aborting, or the reference check finds a unit wrong, and 0 otherwise, so
an identity gate is the command's exit status.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# last, so the bench's bare module names shadow no entry already there
sys.path.append(str(ROOT / "bench"))

from workloads import WORKLOADS, dataset  # noqa: E402

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|-?Infinity")
_STAGE_TAG = re.compile(r"\[\w+\]: ")


def seed_range(text: str) -> list[int]:
    """Seeds from "3", "0-99" or "1,4,7-9"."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def datasets(workloads, seeds):
    """(name, generated dataset) of each dataset of ``workloads`` and ``seeds``."""
    for name in workloads:
        workload = WORKLOADS[name]
        for seed in seeds:
            for k in range(workload.count):
                data = dataset(workload, seed, k)
                yield f"{name} s{seed} {data.name}", data


def runs(workloads, seeds):
    """(dataset, [exit code, stdout, stderr]) of each dataset, run in turn."""
    import ramdea.cli as cli

    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "data.csv"
        for name, data in datasets(workloads, seeds):
            path.write_text(data.csv_text(), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(data.argv(path))
            yield name, [code, out.getvalue(), err.getvalue()]


def _scaled(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def close(old: str, new: str, tol: float = 1e-6) -> bool:
    """Same text apart from numbers that agree to ``tol``."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return False
    for x, y in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if x == y:
            continue
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if _scaled(x, y) > tol:
            return False
    return True


def compare(old: dict, new: dict) -> dict[str, list[str]]:
    """Datasets of both sweeps, grouped by how the new output differs."""
    groups = {key: [] for key in ("identical", "within 1e-6", "different",
                                  "newly aborting", "newly passing", "aborting in both")}
    for name in sorted(old.keys() & new.keys()):
        (old_code, old_out, _), (new_code, new_out, _) = old[name], new[name]
        if old_code == new_code and old_out == new_out:
            group = "identical" if new_code == 0 else "aborting in both"
        elif old_code == 0 and new_code != 0:
            group = "newly aborting"
        elif old_code != 0 and new_code == 0:
            group = "newly passing"
        elif old_code == new_code and close(old_out, new_out):
            group = "within 1e-6"
        else:
            group = "different"
        groups[group].append(name)
    return groups


def _units(output: str):
    try:
        return json.loads(output)
    except ValueError:
        return None


# the fields the paper fixes, each read off one unit's json report
CONTRACT = {
    "efficient flags": lambda unit: unit.get("efficient"),
    "GRS members": lambda unit: [member["name"] for member in unit.get("grs", [])],
    "face dimensions": lambda unit: unit.get("minimum_face_dimension"),
    "RTS classes": lambda unit: unit.get("rts", {}).get("class"),
}


def contract_breakdown(old: dict, new: dict, names) -> str:
    """How many of the json outputs among ``names`` keep each contract field."""
    kept = dict.fromkeys(["exit code", *CONTRACT, "rho within 1e-6", "all of these"], 0)
    count, omega = 0, 0.0
    for name in names:
        (old_code, old_out, _), (new_code, new_out, _) = old[name], new[name]
        before, after = _units(old_out), _units(new_out)
        if before is None or after is None:
            continue
        count += 1
        same = {"exit code": old_code == new_code}
        pairs = list(zip(before, after))
        same_units = len(before) == len(after) and \
            all(a["name"] == b["name"] for a, b in pairs)
        for field, read in CONTRACT.items():
            same[field] = same_units and all(read(a) == read(b) for a, b in pairs)
        same["rho within 1e-6"] = same_units and all(
            _scaled(a["rho"], b["rho"]) <= 1e-6 for a, b in pairs if "rho" in a)
        same["all of these"] = all(same.values())
        for field, kept_here in same.items():
            kept[field] += kept_here
        if same_units:
            omega = max([omega] + [_scaled(a["rts"][end], b["rts"][end])
                                   for a, b in pairs if "rts" in a and "rts" in b
                                   for end in ("omega_min", "omega_max")])
    fields = ", ".join(f"{field} {n}" for field, n in kept.items())
    return f"different json outputs: {count}; keeping {fields}; " \
        f"largest omega change {omega:.2g}"


def reference_checks(workloads, seeds, results: dict, names) -> dict:
    """``bench/reference.py``'s check of the json output of each of ``names``:
    {name: (units found wrong, inconclusive checks)}."""
    from reference import check

    found = {}
    for name, data in datasets(workloads, seeds):
        report = _units(results[name][1]) if name in names else None
        if report is not None:
            wrong, inconclusive = check(data, report)
            found[name] = (len(wrong), len(inconclusive))
    return found


def _first_line(run) -> str:
    return run[2].partition("\n")[0]


def abort_causes(runs) -> collections.Counter:
    """Aborted runs per cause, the first stderr line after its stage tag."""
    causes = collections.Counter()
    for run in runs:
        if run[0] != 0:
            line = _first_line(run)
            tag = _STAGE_TAG.search(line)
            causes[line[tag.end():] if tag else line] += 1
    return causes


def abort_report(old: dict, new: dict) -> list[str]:
    """Each side's aborts per cause, then the both-side aborts that changed."""
    names = sorted(old.keys() & new.keys())
    before = abort_causes(old[name] for name in names)
    after = abort_causes(new[name] for name in names)
    causes = sorted(before.keys() | after.keys())
    lines = ["aborts per cause (earlier / new):" + ("" if causes else " none")]
    for cause in causes:
        lines.append(f"  {before[cause]} / {after[cause]}: {cause}")
    for name in names:
        if old[name][0] != 0 and new[name][0] != 0 \
                and _first_line(old[name]) != _first_line(new[name]):
            lines.append(f"  aborting in both, changed: {name}  "
                         f"({_first_line(old[name])} -> {_first_line(new[name])})")
    return lines


def arguments(doc: str, what: str) -> argparse.ArgumentParser:
    """The command line this script shares with ``census.py``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(WORKLOADS), help="repeatable")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help='e.g. "11", "0-99" or "1,3,5-7"')
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the ramdea package to run")
    parser.add_argument("--out", required=True, help=f"where to write the {what} JSON")
    parser.add_argument("--against", help=f"an earlier {what} to compare with")
    return parser


def main(argv=None) -> int:
    args = arguments(__doc__, "sweep").parse_args(argv)

    sys.path.insert(0, args.src)
    results = dict(runs(args.workload, args.seeds))
    Path(args.out).write_text(json.dumps(results, indent=0), encoding="utf-8")
    aborted = sum(code != 0 for code, _, _ in results.values())
    print(f"{len(results)} datasets, {aborted} aborted")
    if args.against:
        old = json.loads(Path(args.against).read_text(encoding="utf-8"))
        groups = compare(old, results)
        for group, names in groups.items():
            print(f"{group}: {len(names)}")
        print(contract_breakdown(old, results, groups["different"]))
        checked = reference_checks(args.workload, args.seeds, results,
                                   set(groups["newly passing"]))
        wrong = sum(w for w, _ in checked.values())
        print(f"reference check of {len(checked)} newly passing json outputs: "
              f"{wrong} units wrong, "
              f"{sum(i for _, i in checked.values())} checks inconclusive")
        # the side whose run aborted, whose stderr gives the cause
        aborted_in = {"newly aborting": results, "newly passing": old}
        for group in ("different", "newly aborting", "newly passing"):
            for name in groups[group]:
                line = f"  {group}: {name}"
                if group in aborted_in:
                    line += f"  ({_first_line(aborted_in[group][name])})"
                if name in checked:
                    line += "  [reference: {} wrong, {} inconclusive]".format(*checked[name])
                print(line)
        print("\n".join(abort_report(old, results)))
        if groups["different"] or groups["newly aborting"] or wrong:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
