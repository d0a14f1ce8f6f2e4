"""Dataset ingestion, pipeline orchestration, and report rendering.

The CSV dialect is self-describing: the first column is ``dmu`` and
every other column is headed ``in:<label>`` or ``out:<label>`` in any
order.  Lines starting with '#' and blank lines are ignored; decimal
separator is '.'.

Rendering mirrors the scoring tables common in the field: three decimal
places for table and csv output, full (round-trippable) precision for
json.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from . import dea, grs, rts
from .lp import FEAS_TOL, RamdeaError, _tolerance

__all__ = [
    "DataFormatError",
    "AnalysisConfig",
    "DmuReport",
    "parse_dataset",
    "run_analysis",
    "render_report",
]

OUTPUT_FORMATS = ("json", "csv", "table")

_RTS_SHORT = {rts.INCREASING: "IRS", rts.CONSTANT: "CRS", rts.DECREASING: "DRS"}


class DataFormatError(RamdeaError):
    """Malformed input data or configuration."""


@dataclass
class AnalysisConfig:
    """Knobs for one end-to-end run; defaults match the library modules."""

    scheme: str = "ram"
    regime: str = "vrs"
    feas_tol: float = FEAS_TOL
    eff_tol: float = dea.EFF_TOL
    support_tol: float = grs.SUPPORT_TOL
    rts_tol: float = rts.RTS_TOL
    dmu_filter: tuple[str, ...] | None = None


@dataclass
class DmuReport:
    """Per-unit results; a group of fields is None when its stage was skipped."""

    name: str
    rho: float | None = None
    efficient: bool | None = None
    grs_members: list[tuple[str, float]] | None = None
    projection_inputs: dict[str, float] | None = None
    projection_outputs: dict[str, float] | None = None
    minimum_face_dimension: int | None = None
    rts_class: str | None = None
    omega_min: float | None = None
    omega_max: float | None = None


def parse_dataset(source: str) -> dea.Dataset:
    """Parse CSV text into a Dataset, preserving column order.

    Raises DataFormatError with the offending line (and column, where it
    applies) for malformed headers, duplicate labels within a role,
    duplicate names, non-numeric cells and ragged rows.
    """
    rows = []
    for lineno, line in enumerate(source.splitlines(), 1):
        if line.startswith("#") or not line.strip():
            continue
        cells = next(csv.reader([line]))
        rows.append((lineno, [cell.strip() for cell in cells]))
    if not rows:
        raise DataFormatError("no header row found")

    header_line, header = rows[0]
    if not header or header[0].lower() != "dmu":
        raise DataFormatError(
            f"line {header_line}: first column must be 'dmu', got "
            f"{header[0] if header else ''!r}"
        )
    in_cols: list[tuple[int, str]] = []
    out_cols: list[tuple[int, str]] = []
    for pos, cell in enumerate(header[1:], start=2):
        if cell.startswith("in:") and len(cell) > 3:
            role, cols, label = "input", in_cols, cell[3:]
        elif cell.startswith("out:") and len(cell) > 4:
            role, cols, label = "output", out_cols, cell[4:]
        else:
            raise DataFormatError(
                f"line {header_line}, column {pos}: expected 'in:<label>' or "
                f"'out:<label>', got {cell!r}"
            )
        if any(label == seen for _, seen in cols):
            raise DataFormatError(
                f"line {header_line}, column {pos}: duplicate {role} label {label!r}"
            )
        cols.append((pos, label))
    if not in_cols or not out_cols:
        raise DataFormatError(
            f"line {header_line}: need at least one 'in:' and one 'out:' column"
        )
    if len(rows) == 1:
        raise DataFormatError("no data rows after the header")

    # the first error in line order; within a line: ragged, duplicate, non-numeric
    names: list[str] = []
    seen: set[str] = set()
    values: list[list[float]] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise DataFormatError(
                f"line {lineno}: expected {len(header)} cells, got {len(cells)}"
            )
        name = cells[0]
        if name in seen:
            raise DataFormatError(f"line {lineno}: duplicate DMU name {name!r}")
        seen.add(name)
        names.append(name)
        values.append(_numbers(lineno, cells[1:]))

    columns = list(zip(*values))
    inputs = [columns[pos - 2] for pos, _ in in_cols]
    outputs = [columns[pos - 2] for pos, _ in out_cols]
    return dea.Dataset(
        names, inputs, outputs,
        input_labels=[label for _, label in in_cols],
        output_labels=[label for _, label in out_cols],
    )


def _numbers(lineno: int, cells: list[str]) -> list[float]:
    """The values of a data row's cells from column 2 on; DataFormatError
    names the first that is not a finite number."""
    try:
        row = [float(cell) for cell in cells]
        if math.isfinite(sum(row)):  # then every value is finite
            return row
    except ValueError:
        pass
    for pos, cell in enumerate(cells, start=2):
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        raise DataFormatError(f"line {lineno}, column {pos}: non-numeric value {cell!r}")
    return row  # finite values whose sum overflows


def _validate_config(config: AnalysisConfig, dataset: dea.Dataset) -> None:
    try:
        dea._check_scheme(config.scheme)
        dea._check_regime(config.regime)
        for field in ("feas_tol", "eff_tol", "support_tol", "rts_tol"):
            _tolerance(field, getattr(config, field))
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
    if config.dmu_filter:
        unknown = [name for name in config.dmu_filter if name not in dataset.names]
        if unknown:
            raise DataFormatError(f"unknown DMU name(s) in filter: {', '.join(unknown)}")


def _first_error(outcomes) -> int:
    """Index of the first error among ``outcomes``, or their number."""
    return next((i for i, outcome in enumerate(outcomes)
                 if isinstance(outcome, RamdeaError)), len(outcomes))


def run_analysis(config: AnalysisConfig, dataset: dea.Dataset,
                 stages: str = "all") -> list[DmuReport]:
    """Score, reference and classify every (filtered) unit, in dataset order.

    ``stages`` limits the work: "efficiency" stops after scoring, "grs"
    adds reference sets and faces, "all" adds the scale classification
    (skipped under the "crs" regime, whose class is constant everywhere).
    Only the reported units are scored.  Each stage makes one call for
    all its units: ``dea.evaluate_many`` over the reported units,
    ``grs.identify_grs_many`` over the scored ones and
    ``rts.intercept_bounds_many`` over their interior projections, which
    solves each distinct anchor once (every unit whose GRS is the single
    vertex k anchors at k's own data), over the frame.

    A run raises the error of the first unit, in dataset order, whose
    scoring, GRS or RTS stage fails, as a loop running every stage for a
    unit before the next unit would: each stage runs only for the units
    before the earlier stages' first failure.  The error names the unit
    and the stage.
    """
    if stages not in ("efficiency", "grs", "all"):
        raise ValueError(f"unknown stages {stages!r}")
    _validate_config(config, dataset)
    wanted = set(config.dmu_filter) if config.dmu_filter else None
    units = [j for j, name in enumerate(dataset.names) if wanted is None or name in wanted]
    reports = [DmuReport(name=dataset.names[j]) for j in units]
    failure = None  # (position among the units, stage, error)

    results = dea.evaluate_many(dataset, units, config.scheme, config.regime,
                                config.feas_tol, config.eff_tol)
    count = _first_error(results)
    if count < len(units):
        failure = (count, "scoring", results[count])
    for report, result in zip(reports[:count], results):
        report.rho = float(result.rho)
        report.efficient = bool(result.efficient)

    if stages != "efficiency":
        references = grs.identify_grs_many(dataset, results[:count], config.feas_tol,
                                           config.support_tol)
        if _first_error(references) < count:
            count = _first_error(references)
            failure = (count, "grs", references[count])
        for report, reference in zip(reports[:count], references):
            report.grs_members = [(dataset.names[member], float(reference.weights[member]))
                                  for member in reference.members]
            report.projection_inputs = dict(zip(
                dataset.input_labels, reference.interior_projection_inputs.tolist()))
            report.projection_outputs = dict(zip(
                dataset.output_labels, reference.interior_projection_outputs.tolist()))
            report.minimum_face_dimension = grs.minimum_face(dataset, reference)

    if stages == "all" and config.regime == "vrs":
        # the frame: every known GRS member, and every unit whose GRS is not known
        known, members = set(units[:count]), {k for r in references[:count] for k in r.members}
        frame = [j in members or j not in known for j in range(dataset.n_dmus)]
        intervals = rts.intercept_bounds_many(dataset, [
            (reference.interior_projection_inputs, reference.interior_projection_outputs)
            for reference in references[:count]], config.feas_tol, frame)
        if _first_error(intervals) < count:
            count = _first_error(intervals)
            failure = (count, "rts", intervals[count])
        for report, (omega_min, omega_max) in zip(reports[:count], intervals):
            report.rts_class = rts.classify_rts((omega_min, omega_max), config.rts_tol)
            report.omega_min = omega_min
            report.omega_max = omega_max

    if failure is not None:
        i, stage, error = failure
        raise error.__class__(f"{reports[i].name} [{stage}]: {error}") from error
    return reports


def render_report(reports: list[DmuReport], output_format: str) -> str:
    """Serialise reports to json, csv or aligned table text.

    Field groups absent from the reports (skipped stages, or the scale
    classification under "crs") are omitted from the output.
    """
    renderers = {"json": _render_json, "csv": _render_csv, "table": _render_table}
    if output_format not in renderers:
        raise DataFormatError(f"unknown output format {output_format!r}")
    return renderers[output_format](reports)


def _groups(reports):
    first = reports[0] if reports else DmuReport(name="")
    return (
        first.rho is not None,
        first.grs_members is not None,
        first.rts_class is not None,
    )


def _render_json(reports) -> str:
    objects = []
    for report in reports:
        obj: dict = {"name": report.name}
        if report.rho is not None:
            obj["rho"] = report.rho
            obj["efficient"] = report.efficient
        if report.grs_members is not None:
            obj["grs"] = [{"name": name, "weight": weight}
                          for name, weight in report.grs_members]
            obj["projection"] = {"inputs": report.projection_inputs,
                                 "outputs": report.projection_outputs}
            obj["minimum_face_dimension"] = report.minimum_face_dimension
        if report.rts_class is not None:
            obj["rts"] = {"class": report.rts_class, "omega_min": report.omega_min,
                          "omega_max": report.omega_max}
        objects.append(obj)
    return json.dumps(objects, indent=2) + "\n"


def _fixed(value: float) -> str:
    """Three decimals; a value that rounds to zero prints without a sign."""
    text = f"{value:.3f}"
    return "0.000" if text == "-0.000" else text


def _grs_cell(members) -> str:
    return ";".join(f"{name}:{_fixed(weight)}" for name, weight in members)


def _render_csv(reports) -> str:
    has_eff, has_grs, has_rts = _groups(reports)
    header = ["dmu"]
    if has_eff:
        header += ["rho", "efficient"]
    if has_grs:
        header += ["grs", "face_dim"]
        header += [f"proj_in:{label}" for label in reports[0].projection_inputs]
        header += [f"proj_out:{label}" for label in reports[0].projection_outputs]
    if has_rts:
        header += ["rts", "omega_min", "omega_max"]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for report in reports:
        row = [report.name]
        if has_eff:
            row += [_fixed(report.rho), "true" if report.efficient else "false"]
        if has_grs:
            row += [_grs_cell(report.grs_members), str(report.minimum_face_dimension)]
            row += [_fixed(v) for v in report.projection_inputs.values()]
            row += [_fixed(v) for v in report.projection_outputs.values()]
        if has_rts:
            row += [
                _RTS_SHORT[report.rts_class],
                _fixed(report.omega_min),
                _fixed(report.omega_max),
            ]
        writer.writerow(row)
    return buffer.getvalue()


def _render_table(reports) -> str:
    has_eff, has_grs, has_rts = _groups(reports)
    header = ["dmu"]
    if has_eff:
        header += ["rho", "eff"]
    if has_grs:
        header += ["global reference set", "projection", "dim"]
    if has_rts:
        header += ["rts", "intercept range"]

    table = [header]
    for report in reports:
        row = [report.name]
        if has_eff:
            row += [_fixed(report.rho), "yes" if report.efficient else "no"]
        if has_grs:
            proj_in = ", ".join(_fixed(v) for v in report.projection_inputs.values())
            proj_out = ", ".join(_fixed(v) for v in report.projection_outputs.values())
            row += [
                " ".join(f"{name}:{_fixed(w)}" for name, w in report.grs_members),
                f"({proj_in} -> {proj_out})",
                str(report.minimum_face_dimension),
            ]
        if has_rts:
            row += [
                _RTS_SHORT[report.rts_class],
                f"[{_fixed(report.omega_min)}, {_fixed(report.omega_max)}]",
            ]
        table.append(row)

    widths = [max(len(row[k]) for row in table) for k in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
