import json
import re
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


def test_parse_rejects_missing_role_prefix():
    with pytest.raises(reporting.DataFormatError, match="column 3"):
        reporting.parse_dataset("dmu,in:x,y\nu1,1,2\n")


def test_parse_rejects_header_without_both_roles():
    with pytest.raises(reporting.DataFormatError, match="at least one"):
        reporting.parse_dataset("dmu,in:x,in:z\nu1,1,2\n")


def test_parse_rejects_wrong_first_column():
    with pytest.raises(reporting.DataFormatError, match="first column"):
        reporting.parse_dataset("name,in:x,out:y\nu1,1,2\n")


def test_parse_rejects_header_only():
    with pytest.raises(reporting.DataFormatError, match="no data rows"):
        reporting.parse_dataset("dmu,in:x,out:y\n")


def test_parse_rejects_duplicate_name():
    with pytest.raises(reporting.DataFormatError, match="line 3.*duplicate"):
        reporting.parse_dataset("dmu,in:x,out:y\nu1,1,2\nu1,3,4\n")


def test_parse_rejects_duplicate_label_within_a_role(tmp_path, capsys):
    with pytest.raises(reporting.DataFormatError, match="line 1, column 3.*duplicate"):
        reporting.parse_dataset("dmu,in:x,in:x,out:y\nu1,1,2,3\n")
    with pytest.raises(reporting.DataFormatError, match="line 1, column 4.*duplicate"):
        reporting.parse_dataset("dmu,in:x,out:y,out:y\nu1,1,2,3\n")
    # one label may still name an input and an output
    ds = reporting.parse_dataset("dmu,in:x,out:x\nu1,1,2\n")
    assert ds.input_labels == ds.output_labels == ("x",)
    path = tmp_path / "dup.csv"
    path.write_text("dmu,in:x,in:x,out:y\na,1,2,3\nb,2,1,3\n", encoding="utf-8")
    assert cli.main(["report", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate input label 'x'" in captured.err


def test_parse_rejects_non_numeric_cell():
    with pytest.raises(reporting.DataFormatError, match="line 2, column 3"):
        reporting.parse_dataset("dmu,in:x,out:y\nu1,1,abc\n")
    with pytest.raises(reporting.DataFormatError, match="non-numeric"):
        reporting.parse_dataset("dmu,in:x,out:y\nu1,1,nan\n")


def test_parse_rejects_ragged_row():
    with pytest.raises(reporting.DataFormatError, match="line 3.*expected 3"):
        reporting.parse_dataset("dmu,in:x,out:y\nu1,1,2\nu2,3\n")


def test_parse_reports_the_first_error_in_line_order():
    def first_error(text):
        with pytest.raises(reporting.DataFormatError) as raised:
            reporting.parse_dataset(text)
        return str(raised.value)

    # a bad cell comes before a later ragged line and a later duplicate name
    assert first_error("dmu,in:x,out:y\nu1,1,abc\nu2,3\nu1,3,4\n") \
        == "line 2, column 3: non-numeric value 'abc'"
    assert first_error("dmu,in:x,out:y\nu1,1,inf\nu1,3,4\n") \
        == "line 2, column 3: non-numeric value 'inf'"
    # the first bad cell of a line, and within one line a ragged row
    # before a duplicate name before a bad cell
    assert first_error("dmu,in:x,in:z,out:y\nu1,nan,abc,2\n") \
        == "line 2, column 2: non-numeric value 'nan'"
    assert first_error("dmu,in:x,out:y\nu1,1,2\nu1,abc\n") == "line 3: expected 3 cells, got 2"
    assert first_error("dmu,in:x,out:y\nu1,1,2\nu1,abc,3\n") \
        == "line 3: duplicate DMU name 'u1'"
    # finite values whose sum overflows are no error
    ds = reporting.parse_dataset("dmu,in:x,out:y\nu1,1e308,1e308\n")
    assert ds.inputs[0, 0] == ds.outputs[0, 0] == 1e308


# -- analysis ----------------------------------------------------------


def test_full_run_matches_known_results(frontier8_csv):
    reports = analyse(frontier8_csv)
    assert [r.name for r in reports] == [f"DMU{k}" for k in range(1, 9)]
    rhos = [round(r.rho, 3) for r in reports]
    assert rhos == [1.0, 1.0, 1.0, 1.0, 0.786, 0.714, 0.786, 0.643]
    members = [sorted(name for name, _ in r.grs_members) for r in reports]
    assert members[7] == ["DMU2", "DMU3", "DMU4"]
    assert members[4] == ["DMU4"]
    assert [r.rts_class for r in reports] == [
        "increasing", "constant", "decreasing", "decreasing",
        "decreasing", "constant", "decreasing", "decreasing",
    ]
    for r in reports:
        total = sum(weight for _, weight in r.grs_members)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(weight > 1e-7 for _, weight in r.grs_members)


def test_filter_restricts_reports(frontier8_csv):
    reports = analyse(frontier8_csv, dmu_filter=("DMU8",))
    assert len(reports) == 1
    assert sorted(n for n, _ in reports[0].grs_members) == ["DMU2", "DMU3", "DMU4"]


def test_filter_with_unknown_name_is_a_data_error(frontier8_csv):
    with pytest.raises(reporting.DataFormatError, match="unknown DMU"):
        analyse(frontier8_csv, dmu_filter=("DMU9",))


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


def test_bad_config_rejected(frontier8_csv):
    with pytest.raises(reporting.DataFormatError):
        analyse(frontier8_csv, scheme="sbm")
    # the scheme and regime are checked by the stages' own checks
    with pytest.raises(reporting.DataFormatError) as raised:
        analyse(frontier8_csv, regime="xrs")
    assert str(raised.value) == "unknown regime 'xrs'; expected one of ('vrs', 'crs')"
    with pytest.raises(reporting.DataFormatError):
        analyse(frontier8_csv, eff_tol=0.0)
    with pytest.raises(reporting.DataFormatError):
        reporting.render_report(analyse(frontier8_csv), "xml")


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


def test_csv_grs_cell_format(frontier8_csv):
    reports = analyse(frontier8_csv)
    lines = reporting.render_report(reports, "csv").splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["dmu", "rho", "efficient", "grs", "face_dim"]
    assert "proj_in:x" in header and "proj_out:y" in header
    assert header[-3:] == ["rts", "omega_min", "omega_max"]
    row8 = lines[8].split(",")
    assert row8[0] == "DMU8" and row8[1] == "0.643"
    cell = row8[3]
    assert re.fullmatch(r"(DMU\d+:\d+\.\d{3};)*DMU\d+:\d+\.\d{3}", cell)
    assert sorted(part.split(":")[0] for part in cell.split(";")) \
        == ["DMU2", "DMU3", "DMU4"]
    assert row8[-3] == "DRS"


def test_table_layout(frontier8_csv):
    reports = analyse(frontier8_csv)
    text = reporting.render_report(reports, "table")
    lines = text.splitlines()
    assert lines[0].startswith("dmu")
    assert len(lines) == 9
    assert "DRS" in lines[8] and "0.643" in lines[8]


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


def test_report_command(data_file, capsys):
    assert cli.main(["report", "--data", data_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("dmu,rho")
    assert "DMU8,0.643" in out


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
    _, (vertex,) = rts._envelopment_columns(ds, np.array([[2.0]]), np.array([[4.0]]))
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


# NaN and infinity pass a plain "<= 0" check; unchecked, these flags
# give a wrong report with exit 0 (or, for --tol-feas, a solver error)
@pytest.mark.parametrize("flag, value", [
    ("--tol-rts", "nan"),
    ("--tol-support", "nan"),
    ("--tol-eff", "inf"),
    ("--tol-feas", "nan"),
])
def test_non_finite_tolerance_exits_1(data_file, capsys, flag, value):
    assert cli.main(["report", "--data", str(data_file), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite and strictly positive" in captured.err


def test_tolerance_flags_default_to_the_config():
    args = cli.build_parser().parse_args(["report", "--data", "d.csv"])
    defaults = reporting.AnalysisConfig()
    assert (args.tol_feas, args.tol_eff, args.tol_support, args.tol_rts) == (
        defaults.feas_tol, defaults.eff_tol, defaults.support_tol, defaults.rts_tol)
    assert defaults.feas_tol == lp.FEAS_TOL


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


def test_malformed_data_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("dmu,in:x,out:y\nu1,1,oops\n", encoding="utf-8")
    assert cli.main(["report", "--data", str(path)]) == 1
    assert "non-numeric" in capsys.readouterr().err


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


# a 14-unit ram/vrs dataset with rows rescaled by up to 10^+-5; the
# intercept LPs of U000 once produced omega_max NaN and class increasing
RESCALED_ROWS = """dmu,in:x1,out:y1,out:y2,out:y3
U000,0.00040219225638468036,40542.78779946456,9.450722394992283,0.0004671367340646701
U001,0.0002243209184900597,47519.572913957025,6.038071920738691,0.001141276631852379
U002,0.00041650638741536956,67069.57891546414,6.004378997348122,0.0015651325569261496
U003,0.0005902809212277715,55382.09800699452,7.972445779010882,0.001477802703135802
U004,7.722879650228393e-05,18641.65301029469,4.319604415306453,0.001067297147258016
U005,0.000378031502871029,18041.92861441434,8.024136443927699,0.0016725139498949514
U006,0.00015619991173672403,8156.597885369145,1.459022387472419,0.002048491822135475
U007,6.553876533330614e-05,76948.4673562651,10.379157916627586,0.0007729454804650877
U008,0.0005870144650140954,21266.633667857175,9.953950714442845,0.001403882922325556
U009,0.00048363109784898265,14324.874488115429,1.698470340457442,0.0005747683632350005
U010,0.0004022406405981229,71408.22583040122,2.1698461455600504,0.0011230915084222413
U011,0.00025360694306821876,44062.9005000638,7.06342229822996,0.0007557556537087601
U012,0.00013038941545273045,62345.3412388039,2.5670397949212904,0.0013774579336733902
U013,0.0004279054974680185,63276.89802717507,2.2962395050507296,0.0010126971784654001
"""


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the JSON report")


def test_ill_conditioned_run_never_reports_nan(tmp_path, capsys):
    path = tmp_path / "rescaled.csv"
    path.write_text(RESCALED_ROWS, encoding="utf-8")
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


# bam/crs data with non-positive outputs: for U006 and U008 the origin is
# an optimal projection, so their global reference sets are empty
NONPOSITIVE_OUTPUTS = """dmu,in:x1,out:y1,out:y2
U000,6.6291596882221855,-4.709693258969881,6.203974544813109
U001,5.649678227499261,-4.630315846080825,7.647118358324715
U002,6.4469426126556595,8.443897244264132,1.865589864122164
U003,5.96075926870348,2.5271662589845336,4.050137875938752
U004,3.7782354752862455,2.0964665685154724,5.759158683545657
U005,5.637881257915321,-4.3116680524864055,6.927182052623479
U006,7.145248665790025,-4.688780675687273,-2.0386887652377887
U007,2.1709556420198224,-4.191162626430668,1.8560532518860118
U008,5.642821433160983,-2.7095835547145897,-3.253617871119631
U009,2.29629782860267,4.726433218696084,-3.615646358484976
"""


def test_empty_reference_set_has_the_apex_as_its_face(tmp_path, capsys):
    path = tmp_path / "apex.csv"
    path.write_text(NONPOSITIVE_OUTPUTS, encoding="utf-8")
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


def test_values_that_round_to_zero_print_unsigned(tmp_path, capsys):
    # on this data U004's rho and the apex projections of U006 and U008
    # come out as -0.0 or a few ulps below zero
    path = tmp_path / "apex.csv"
    path.write_text(NONPOSITIVE_OUTPUTS, encoding="utf-8")
    for output_format in ("table", "csv"):
        argv = ["report", "--data", str(path), "--format", output_format,
                "--scheme", "bam", "--regime", "crs"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "0.000" in out
        assert "-0.000" not in out
