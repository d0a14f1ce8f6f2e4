"""``bench/reference.py``'s ``check``, the judge of the program's outputs,
on reports it must pass and reports it must find wrong."""

import json

import pytest

import oracles
import reference
from ramdea import cli, dea, reporting


def report_of(data, tmp_path, capsys):
    """The parsed json output of ``cli.main`` on the generated ``data``,
    run with the dataset's own command, scheme and regime."""
    path = tmp_path / f"{data.name}.csv"
    path.write_text(data.csv_text(), encoding="utf-8")
    assert cli.main(data.argv(path)) == 0
    return json.loads(capsys.readouterr().out)


def drop_last_member(report):
    report[4]["grs"].pop()


def make_increasing(report):
    assert report[0]["rts"]["class"] == "constant"
    report[0]["rts"]["class"] = "increasing"


# ram/vrs, 10 units (``many-small`` seed 0, small-003): the judge samples
# units U000, U004 and U009
@pytest.mark.parametrize("edit, verdict", [
    (None, {}),
    (drop_last_member, {"U004": "grs"}),
    (make_increasing, {"U000": "rts"}),
], ids=["as-reported", "grs-member-dropped", "rts-class-changed"])
def test_judge_passes_the_report_and_finds_each_edit(tmp_path, capsys, bench_dataset,
                                                     edit, verdict):
    data = bench_dataset("many-small", 0, 3)
    report = report_of(data, tmp_path, capsys)
    if edit:
        edit(report)
    wrong, inconclusive = reference.check(data, report)
    assert {name: kind for name, (kind, _) in wrong.items()} == verdict
    assert inconclusive == []


# bam/crs with negative outputs (``robustness`` seed 2, small-083); the
# judge draws GRS candidates from the efficient units only, while a bam
# GRS may hold a unit reported inefficient.  It says the same of s3
# small-143, s4 small-071, s5 small-107, s5 small-143 and s6 small-023
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="reference.check calls U004's GRS member U006 off the frontier, "
                          "as U006 is reported inefficient")
def test_judge_passes_a_bam_grs_that_holds_an_inefficient_unit(tmp_path, capsys,
                                                               bench_dataset):
    data = bench_dataset("robustness", 2, 83)
    report = report_of(data, tmp_path, capsys)
    ds = reporting.parse_dataset(data.csv_text())
    o = ds.index("U004")
    expected = [ds.names[j] for j in oracles.oracle_grs(ds, o, dea.evaluate(ds, o, "bam", "crs"))]
    members = [member["name"] for member in report[o]["grs"]]
    by_name = {row["name"]: row for row in report}
    if members != expected or members != ["U003", "U006"] or by_name["U006"]["efficient"]:
        pytest.fail(f"U004's GRS {members}, oracle {expected}, "
                    f"U006 efficient {by_name['U006']['efficient']}")
    assert reference.check(data, report) == ({}, [])
