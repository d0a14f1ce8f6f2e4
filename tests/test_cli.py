import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ramdea import cli, dea, grs, lp, reporting, rts
from recorder import recorded


def analyse(csv_text, stages="all", **config_kwargs):
    dataset = reporting.parse_dataset(csv_text)
    config = reporting.AnalysisConfig(**config_kwargs)
    return reporting.run_analysis(config, dataset, stages=stages)


# -- parsing -----------------------------------------------------------


def test_parse_eight_units(frontier8_csv):
    ds = reporting.parse_dataset(frontier8_csv)
    assert ds.n_dmus == 8 and ds.n_inputs == 1 and ds.n_outputs == 1
    assert ds.names[0] == "DMU1"
    assert ds.input_labels == ("x",)
    assert ds.output_labels == ("y",)
    assert ds.inputs[0, 4] == 8.0


def test_parse_preserves_column_order_with_interleaving():
    text = "dmu,out:b,in:a,out:c,in:d\nu1,1,2,3,4\nu2,5,6,7,8\n"
    ds = reporting.parse_dataset(text)
    assert ds.input_labels == ("a", "d")
    assert ds.output_labels == ("b", "c")
    assert ds.inputs[:, 0] == pytest.approx([2.0, 4.0])
    assert ds.outputs[:, 1] == pytest.approx([5.0, 7.0])


def test_parse_accepts_negative_and_comment_lines():
    text = "# comment\ndmu,in:x,out:y\n\nu1,-2.5,1\n# tail\nu2,3,4\n"
    ds = reporting.parse_dataset(text)
    assert ds.inputs[0, 0] == -2.5


def test_parse_accepts_a_label_of_both_roles_and_a_sum_that_overflows():
    # labels must differ within a role only
    ds = reporting.parse_dataset("dmu,in:x,out:x\nu1,1,2\n")
    assert ds.input_labels == ds.output_labels == ("x",)
    # finite values whose sum overflows are no error
    ds = reporting.parse_dataset("dmu,in:x,out:y\nu1,1e308,1e308\n")
    assert ds.inputs[0, 0] == ds.outputs[0, 0] == 1e308


# a well-formed dataset, for the rejections of everything else
TWO_UNITS = "dmu,in:x,out:y\nu1,1,2\nu2,2,3\n"
# the options that the CLI takes as flags
FLAGS = {"dmu_filter": "--dmu", "feas_tol": "--tol-feas", "eff_tol": "--tol-eff",
         "support_tol": "--tol-support", "rts_tol": "--tol-rts"}


REJECTIONS = [
    ("# a comment\n\n# another\n", {}, "no header row found"),
    ("name,in:x,out:y\nu1,1,2\n", {}, "line 1: first column must be 'dmu', got 'name'"),
    ("dmu,in:x,y\nu1,1,2\n", {},
     "line 1, column 3: expected 'in:<label>' or 'out:<label>', got 'y'"),
    ("dmu,in:x,in:x,out:y\nu1,1,2,3\n", {}, "line 1, column 3: duplicate input label 'x'"),
    ("dmu,in:x,out:y,out:y\nu1,1,2,3\n", {}, "line 1, column 4: duplicate output label 'y'"),
    ("dmu,in:x,in:z\nu1,1,2\n", {}, "line 1: need at least one 'in:' and one 'out:' column"),
    ("dmu,in:x,out:y\n", {}, "no data rows after the header"),
    ("dmu,in:x,out:y\nu1,1,2\nu1,3,4\n", {}, "line 3: duplicate DMU name 'u1'"),
    ("dmu,in:x,out:y\nu1,1,abc\n", {}, "line 2, column 3: non-numeric value 'abc'"),
    ("dmu,in:x,out:y\nu1,1,nan\n", {}, "line 2, column 3: non-numeric value 'nan'"),
    ("dmu,in:x,out:y\nu1,1,2\nu2,3\n", {}, "line 3: expected 3 cells, got 2"),
    # the first error in line order: a bad cell comes before a later
    # ragged line and a later duplicate name
    ("dmu,in:x,out:y\nu1,1,abc\nu2,3\nu1,3,4\n", {},
     "line 2, column 3: non-numeric value 'abc'"),
    ("dmu,in:x,out:y\nu1,1,inf\nu1,3,4\n", {}, "line 2, column 3: non-numeric value 'inf'"),
    # the first bad cell of a line, and within one line a ragged row
    # before a duplicate name before a bad cell
    ("dmu,in:x,in:z,out:y\nu1,nan,abc,2\n", {}, "line 2, column 2: non-numeric value 'nan'"),
    ("dmu,in:x,out:y\nu1,1,2\nu1,abc\n", {}, "line 3: expected 3 cells, got 2"),
    ("dmu,in:x,out:y\nu1,1,2\nu1,abc,3\n", {}, "line 3: duplicate DMU name 'u1'"),
    # the configuration, whose scheme and regime the stages' own checks check
    (TWO_UNITS, {"scheme": "sbm"},
     "unknown scheme 'sbm'; expected one of ('ram', 'additive', 'bam')"),
    (TWO_UNITS, {"regime": "xrs"}, "unknown regime 'xrs'; expected one of ('vrs', 'crs')"),
    # NaN and infinity pass a plain "<= 0" check; unchecked, these flags
    # give a wrong report with exit 0 (or, for --tol-feas, a solver error)
    (TWO_UNITS, {"feas_tol": math.nan}, "feas_tol must be finite and strictly positive, got nan"),
    (TWO_UNITS, {"eff_tol": math.inf}, "eff_tol must be finite and strictly positive, got inf"),
    (TWO_UNITS, {"eff_tol": 0.0}, "eff_tol must be finite and strictly positive, got 0.0"),
    (TWO_UNITS, {"support_tol": math.nan},
     "support_tol must be finite and strictly positive, got nan"),
    (TWO_UNITS, {"rts_tol": math.nan}, "rts_tol must be finite and strictly positive, got nan"),
    (TWO_UNITS, {"dmu_filter": ("u1", "u9", "u8")}, "unknown DMU name(s) in filter: u9, u8"),
    (TWO_UNITS, {"output_format": "xml"}, "unknown output format 'xml'"),
    # the one programming error: the CLI passes only stages it knows
    (TWO_UNITS, {"stages": "bogus"}, "unknown stages 'bogus'"),
]


@pytest.mark.parametrize("text, options, message", REJECTIONS,
                         ids=[message for _, _, message in REJECTIONS])
def test_each_rejection_names_its_fault(text, options, message, assert_rejects, tmp_path,
                                        capsys):
    config = dict(options)
    stages, output_format = config.pop("stages", "all"), config.pop("output_format", "table")
    error = ValueError if "stages" in options else reporting.DataFormatError
    assert_rejects(lambda: reporting.render_report(analyse(text, stages, **config),
                                                   output_format), error, message)
    if set(options) <= set(FLAGS):
        # the CLI prints the message and exits 1
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        flags = [arg for name, value in options.items() for given in np.atleast_1d(value)
                 for arg in (FLAGS[name], str(given))]
        assert cli.main(["report", "--data", str(path), *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


# -- analysis ----------------------------------------------------------


def member_names(eight_answers, o):
    """The names of unit ``o``'s GRS members in the eight-unit example."""
    return [f"DMU{j + 1}" for j in eight_answers.members[o]]


def test_full_run_matches_known_results(frontier8_csv, eight_answers):
    reports = analyse(frontier8_csv)
    assert [r.name for r in reports] == [f"DMU{k}" for k in range(1, 9)]
    assert [r.rho for r in reports] == pytest.approx(eight_answers.scores, abs=1e-9)
    assert [[name for name, _ in r.grs_members] for r in reports] \
        == [member_names(eight_answers, o) for o in range(8)]
    assert tuple(r.rts_class for r in reports) == eight_answers.classes
    for r in reports:
        total = sum(weight for _, weight in r.grs_members)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(weight > 1e-7 for _, weight in r.grs_members)


def test_filter_restricts_reports(frontier8_csv, eight_answers):
    reports = analyse(frontier8_csv, dmu_filter=("DMU8",))
    assert len(reports) == 1
    assert [n for n, _ in reports[0].grs_members] == member_names(eight_answers, 7)


def test_crs_run_has_no_rts_fields(frontier8_csv):
    reports = analyse(frontier8_csv, regime="crs")
    assert all(r.rts_class is None for r in reports)
    rendered = json.loads(reporting.render_report(reports, "json"))
    assert all("rts" not in obj for obj in rendered)
    assert all("grs" in obj for obj in rendered)


def test_stage_control(frontier8_csv):
    reports = analyse(frontier8_csv, stages="efficiency")
    assert all(r.grs_members is None and r.rts_class is None for r in reports)
    reports = analyse(frontier8_csv, stages="grs")
    assert all(r.grs_members is not None and r.rts_class is None for r in reports)


# -- rendering ---------------------------------------------------------


def test_json_round_trip(frontier8_csv):
    reports = analyse(frontier8_csv)
    parsed = json.loads(reporting.render_report(reports, "json"))
    assert len(parsed) == 8
    for obj, report in zip(parsed, reports):
        assert set(obj) >= {"name", "rho", "grs", "rts"}
        assert obj["rho"] == report.rho  # full precision survives
        assert obj["rts"]["omega_min"] == report.omega_min
        weights = {entry["name"]: entry["weight"] for entry in obj["grs"]}
        assert weights == dict(report.grs_members)
        assert obj["projection"]["inputs"] == report.projection_inputs


def test_csv_grs_cell_format(frontier8_csv, eight_answers):
    reports = analyse(frontier8_csv)
    lines = reporting.render_report(reports, "csv").splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["dmu", "rho", "efficient", "grs", "face_dim"]
    assert "proj_in:x" in header and "proj_out:y" in header
    assert header[-3:] == ["rts", "omega_min", "omega_max"]
    row8 = lines[8].split(",")
    assert row8[0] == "DMU8" and row8[1] == f"{eight_answers.scores[7]:.3f}"
    cell = row8[3]
    assert re.fullmatch(r"(DMU\d+:\d+\.\d{3};)*DMU\d+:\d+\.\d{3}", cell)
    assert [part.split(":")[0] for part in cell.split(";")] == member_names(eight_answers, 7)
    assert row8[-3] == "DRS"


def test_table_layout(frontier8_csv, eight_answers):
    reports = analyse(frontier8_csv)
    text = reporting.render_report(reports, "table")
    lines = text.splitlines()
    assert lines[0].startswith("dmu")
    assert len(lines) == 9
    assert "DRS" in lines[8] and f"{eight_answers.scores[7]:.3f}" in lines[8]


def test_empty_reports_render_header_only():
    assert json.loads(reporting.render_report([], "json")) == []
    # no report holds a stage's columns, so only the name column is left
    assert reporting.render_report([], "csv") == "dmu\n"
    assert reporting.render_report([], "table") == "dmu\n"


def test_rendering_is_deterministic(frontier8_csv):
    first = analyse(frontier8_csv)
    second = analyse(frontier8_csv)
    for fmt in ("json", "csv", "table"):
        assert reporting.render_report(first, fmt) \
            == reporting.render_report(second, fmt)


# one input, one output: D, E and F project onto the vertex B
CORNER_CSV = "dmu,in:x,out:y\nA,1,1\nB,2,4\nC,4,5\nD,3,4\nE,3,3.5\nF,2.5,2\n"


def test_intercept_interval_is_solved_once_per_anchor(tmp_path, capsys, monkeypatch,
                                                     kernel_calls):
    direct = rts.intercept_bounds
    with monkeypatch.context() as patch:
        calls = kernel_calls(rts, patch)
        reports = analyse(CORNER_CSV)
    programs = [program for stack, _, _ in calls for program in stack]
    points = [(np.array(list(r.projection_inputs.values())),
               np.array(list(r.projection_outputs.values()))) for r in reports]
    # both ends of every distinct anchor solved exactly once: A, C, and B
    # for B, D, E and F
    assert len({(x.tobytes(), y.tobytes()) for x, y in points}) == 3
    assert len(programs) == 6
    assert len({program.leading_columns.tobytes() for program in programs}) == 3

    dataset = reporting.parse_dataset(CORNER_CSV)
    for report, point in zip(reports, points):
        assert (report.omega_min, report.omega_max) == direct(dataset, point)

    path = tmp_path / "corner.csv"
    path.write_text(CORNER_CSV, encoding="utf-8")
    assert cli.main(["report", "--data", str(path), "--format", "json",
                     "--dmu", "E", "--dmu", "C"]) == 0
    kept = {obj["name"]: obj["rts"] for obj in json.loads(capsys.readouterr().out)}
    assert sorted(kept) == ["C", "E"]
    for report in reports:
        if report.name in kept:
            assert kept[report.name]["omega_min"] == report.omega_min
            assert kept[report.name]["omega_max"] == report.omega_max


# -- command line ------------------------------------------------------


@pytest.fixture()
def data_file(tmp_path, frontier8_csv):
    path = tmp_path / "units.csv"
    path.write_text(frontier8_csv, encoding="utf-8")
    return str(path)


def test_report_command(data_file, capsys, eight_answers):
    assert cli.main(["report", "--data", data_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("dmu,rho")
    assert f"DMU8,{eight_answers.scores[7]:.3f}" in out


def test_subcommands_select_their_fields(data_file, capsys):
    assert cli.main(["efficiency", "--data", data_file, "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "dmu,rho,efficient"

    assert cli.main(["grs", "--data", data_file, "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("dmu,grs,face_dim")
    assert "rho" not in header

    assert cli.main(["rts", "--data", data_file, "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "dmu,rts,omega_min,omega_max"


def test_dmu_flag(data_file, capsys):
    assert cli.main(["report", "--data", data_file, "--format", "json",
                     "--dmu", "DMU8"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert [obj["name"] for obj in parsed] == ["DMU8"]


def test_dmu_flag_scores_only_the_reported_unit(data_file, capsys, monkeypatch):
    assert cli.main(["report", "--data", data_file, "--format", "json"]) == 0
    unfiltered = json.loads(capsys.readouterr().out)
    scored = []

    def spy(dataset, units, *args):
        scored.extend(dataset.names[o] for o in units)
        return evaluate_many(dataset, units, *args)

    evaluate_many = dea.evaluate_many
    monkeypatch.setattr(dea, "evaluate_many", spy)
    assert cli.main(["report", "--data", data_file, "--format", "json",
                     "--dmu", "DMU8"]) == 0
    assert scored == ["DMU8"]
    assert json.loads(capsys.readouterr().out) == [unfiltered[7]]


def fail_in_kernel(patch, module, failing):
    """Make the kernel, as ``module`` calls it, fail the programs for which
    ``failing(program)`` holds, and solve every other as before; ``patch``
    undoes it."""

    def injected(stage, stack, bases, outcomes):
        outcomes[:] = [lp.LpError("injected") if failing(program) else outcome
                       for program, outcome in zip(stack, outcomes)]

    patch.setattr(module, "solve_many", recorded(module.__name__.rpartition(".")[2],
                                                 module.solve_many, injected))


def test_first_failing_unit_is_reported(data_file, capsys, monkeypatch):
    # unit 5's scoring LP and unit 2's GRS LP fail: a loop running every
    # stage of a unit before the next unit meets unit 2's GRS first
    ds = reporting.parse_dataset(Path(data_file).read_text(encoding="utf-8"))
    x, y = ds.inputs[0], ds.outputs[0]
    fail_in_kernel(monkeypatch, dea,
                   lambda program: np.array_equal(program.rhs, [x[5], y[5], 1.0]))
    with monkeypatch.context() as patch:
        # unit 2's GRS program holds its negated data as the normalising column
        fail_in_kernel(patch, grs, lambda program: np.any(np.all(
            program.constraint_matrix[:3].T == [-x[2], -y[2], -1.0], axis=1)))
        assert cli.main(["report", "--data", data_file]) == 2
        assert capsys.readouterr().err == "solver error: DMU3 [grs]: injected\n"
    # with the GRS failure at unit 6 instead, unit 5's scoring comes first
    fail_in_kernel(monkeypatch, grs, lambda program: np.any(np.all(
        program.constraint_matrix[:3].T == [-x[6], -y[6], -1.0], axis=1)))
    assert cli.main(["report", "--data", data_file]) == 2
    assert capsys.readouterr().err == "solver error: DMU6 [scoring]: injected\n"


def test_shared_anchor_failure_is_reported_at_its_first_unit(tmp_path, capsys,
                                                             monkeypatch):
    # B, D, E and F all anchor at B's data; B comes first
    path = tmp_path / "corner.csv"
    path.write_text(CORNER_CSV, encoding="utf-8")
    ds = reporting.parse_dataset(CORNER_CSV)
    # the anchor's programs are the ones holding its theta and alpha columns
    program, _ = rts._envelopment_programs(ds, np.array([[2.0]]), np.array([[4.0]]), [1.0],
                                           np.ones(ds.n_dmus, dtype=bool))
    (vertex,) = program.leading_columns
    fail_in_kernel(monkeypatch, rts,
                   lambda program: np.array_equal(program.leading_columns, vertex))
    assert cli.main(["report", "--data", str(path)]) == 2
    assert capsys.readouterr().err == "solver error: B [rts]: injected\n"
    # without B the same anchor's failure belongs to D
    assert cli.main(["report", "--data", str(path), "--dmu", "F", "--dmu", "D"]) == 2
    assert capsys.readouterr().err == "solver error: D [rts]: injected\n"


def test_cli_is_byte_identical_across_runs(data_file, capsys):
    cli.main(["report", "--data", data_file, "--format", "json"])
    first = capsys.readouterr().out
    cli.main(["report", "--data", data_file, "--format", "json"])
    assert capsys.readouterr().out == first


def test_report_with_perturbed_lps_is_byte_identical_across_processes(tmp_path, bench_dataset):
    # ``score-large`` seed 13, score250-002: the kernel perturbs many of its
    # scoring LPs, U137's among them, from each LP's own state, so two
    # processes print the same bytes
    data = bench_dataset("score-large", 13, 2)
    path = tmp_path / "score250.csv"
    path.write_text(data.csv_text(), encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    main = "import sys; from ramdea import cli; sys.exit(cli.main(sys.argv[1:]))"
    outputs = [subprocess.run(
        [sys.executable, "-c", main, "report", "--data", str(path), "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        capture_output=True, timeout=300, check=True).stdout for seed in ("1", "2")]
    assert outputs[0] == outputs[1] and json.loads(outputs[0])


def test_tolerance_flags_default_to_the_config():
    args = cli.build_parser().parse_args(["report", "--data", "d.csv"])
    defaults = reporting.AnalysisConfig()
    assert (args.tol_feas, args.tol_eff, args.tol_support, args.tol_rts) == (
        defaults.feas_tol, defaults.eff_tol, defaults.support_tol, defaults.rts_tol)
    assert defaults.feas_tol == lp.FEAS_TOL


@pytest.mark.parametrize("argv", [
    ["--help"], ["efficiency", "--help"], ["grs", "--help"], ["rts", "--help"],
    ["report", "--help"], [], ["report"], ["report", "--data", "d.csv", "--scheme", "sbm"],
])
def test_cached_parser_prints_what_a_fresh_one_prints(argv, capsys):
    # the one parser of the process, already used once, against a new build
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser().parse_args(["report", "--data", "d.csv", "--dmu", "A"])
    printed = []
    for parse in (cli.main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exit:
            parse(argv)
        printed.append((exit.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][1 if argv[-1:] == ["--help"] else 2] != ""


def test_dmu_lists_do_not_leak_between_calls(data_file, capsys):
    for dmus, expected in [(["DMU8", "DMU1"], ["DMU1", "DMU8"]), (["DMU2"], ["DMU2"]),
                           ([], [f"DMU{k}" for k in range(1, 9)])]:
        flags = [arg for name in dmus for arg in ("--dmu", name)]
        assert cli.main(["efficiency", "--data", data_file, "--format", "json", *flags]) == 0
        assert [obj["name"] for obj in json.loads(capsys.readouterr().out)] == expected


def test_missing_file_exits_1(capsys):
    assert cli.main(["report", "--data", "/nonexistent.csv"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    # spreadsheet programs write UTF-8 CSV with a leading byte-order mark
    plain = Path(__file__).resolve().parents[1] / "data" / "demo8.csv"
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        assert cli.main(["report", "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] != ""


def test_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("dmu,in:x,out:y\nM\u00fcller,1,2\n".encode("latin-1"))
    assert cli.main(["report", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")


def test_undefined_scale_class_exits_2(tmp_path, capsys):
    # all-negative inputs leave the multiplier normalisation unattainable
    path = tmp_path / "neg.csv"
    path.write_text("dmu,in:x,out:y\na,-1,1\nb,-2,2\n", encoding="utf-8")
    assert cli.main(["report", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error:")
    # the failing unit and the stage are named in the diagnostic
    assert re.search(r"\b[ab] \[rts\]: ", err)
    # the same data is fine when the scale stage is not requested
    assert cli.main(["grs", "--data", str(path)]) == 0


def test_unbounded_scoring_exits_2(tmp_path, capsys):
    # under crs unit a's output for no input leaves every scoring LP unbounded
    path = tmp_path / "free.csv"
    path.write_text("dmu,in:x,out:y\na,0,1\nb,1,2\n", encoding="utf-8")
    assert cli.main(["efficiency", "--data", str(path), "--regime", "crs"]) == 2
    assert capsys.readouterr().err \
        == "solver error: a [scoring]: slack model for unit 0 ended unbounded\n"


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the JSON report")


# a 14-unit ram/vrs dataset with rows rescaled by up to 10^+-5
# (``robustness`` seed 8, small-117); the intercept LPs of U000 once
# produced omega_max NaN and class increasing
def test_ill_conditioned_run_never_reports_nan(tmp_path, capsys, bench_dataset):
    path = tmp_path / "rescaled.csv"
    path.write_text(bench_dataset("robustness", 8, 117).csv_text(), encoding="utf-8")
    code = cli.main(["report", "--data", str(path), "--format", "json"])
    captured = capsys.readouterr()
    # either a finite report or a typed solver error, never NaN
    assert code in (0, 2)
    if code == 2:
        assert captured.err.startswith("solver error:")
        assert captured.out == ""
    else:
        for report in json.loads(captured.out, parse_constant=_reject_constant):
            assert report["rts"]["class"] in ("increasing", "constant", "decreasing")


# bam/crs data with non-positive outputs (``robustness`` seed 1,
# small-011): for U006 and U008 the origin is an optimal projection, so
# their global reference sets are empty
NONPOSITIVE_OUTPUTS = ("robustness", 1, 11)


def test_empty_reference_set_has_the_apex_as_its_face(tmp_path, capsys, bench_dataset):
    path = tmp_path / "apex.csv"
    path.write_text(bench_dataset(*NONPOSITIVE_OUTPUTS).csv_text(), encoding="utf-8")
    argv = ["report", "--data", str(path), "--format", "json",
            "--scheme", "bam", "--regime", "crs"]
    assert cli.main(argv) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    for name in ("U006", "U008"):
        assert reports[name]["grs"] == []
        assert reports[name]["minimum_face_dimension"] == 0
        for value in (*reports[name]["projection"]["inputs"].values(),
                      *reports[name]["projection"]["outputs"].values()):
            assert value == pytest.approx(0.0, abs=1e-9)


def test_values_that_round_to_zero_print_unsigned(tmp_path, capsys, bench_dataset):
    # on this data U004's rho and the apex projections of U006 and U008
    # come out as -0.0 or a few ulps below zero
    path = tmp_path / "apex.csv"
    path.write_text(bench_dataset(*NONPOSITIVE_OUTPUTS).csv_text(), encoding="utf-8")
    for output_format in ("table", "csv"):
        argv = ["report", "--data", str(path), "--format", output_format,
                "--scheme", "bam", "--regime", "crs"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "0.000" in out
        assert "-0.000" not in out
