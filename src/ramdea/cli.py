"""Command-line front end.

Subcommands cover the pipeline stages individually (`efficiency`,
`grs`, `rts`) plus the full `report`.  Exit codes: 0 success, 1 data
errors, 2 solver errors; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dea import REGIMES, SCHEMES
from .lp import RamdeaError
from .reporting import (
    OUTPUT_FORMATS,
    AnalysisConfig,
    DataFormatError,
    parse_dataset,
    render_report,
    run_analysis,
)

_STAGES = {"efficiency": "efficiency", "grs": "grs", "rts": "all", "report": "all"}
# the fields of the earlier stages, which each stage subcommand leaves out
_HIDDEN = {"grs": ("rho", "efficient"),
           "rts": ("rho", "efficient", "grs_members", "projection_inputs",
                   "projection_outputs", "minimum_face_dimension")}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, metavar="PATH",
                        help="input CSV (columns: dmu, in:<label>..., out:<label>...)")
    common.add_argument("--scheme", choices=SCHEMES, default="ram",
                        help="slack weighting scheme (default: ram)")
    common.add_argument("--regime", choices=REGIMES, default="vrs",
                        help="returns-to-scale regime of the technology (default: vrs)")
    common.add_argument("--format", choices=OUTPUT_FORMATS, default="table",
                        dest="output_format", help="output format (default: table)")
    common.add_argument("--dmu", action="append", metavar="NAME",
                        help="restrict to the named unit(s); repeatable")
    defaults = AnalysisConfig()
    common.add_argument("--tol-feas", type=float, default=defaults.feas_tol,
                        help="solver feasibility tolerance")
    common.add_argument("--tol-eff", type=float, default=defaults.eff_tol,
                        help="efficiency cutoff on the total normalised slack")
    common.add_argument("--tol-support", type=float, default=defaults.support_tol,
                        help="membership cutoff on normalised reference weights")
    common.add_argument("--tol-rts", type=float, default=defaults.rts_tol,
                        help="zero-attainability cutoff on the intercept interval")

    parser = argparse.ArgumentParser(
        prog="ramdea",
        description="Additive-DEA scoring, global reference sets, and "
                    "returns-to-scale classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("efficiency", parents=[common],
                   help="scores and efficient/inefficient flags")
    sub.add_parser("grs", parents=[common],
                   help="global reference sets, interior projections, face dimensions")
    sub.add_parser("rts", parents=[common],
                   help="returns-to-scale classes with intercept intervals")
    sub.add_parser("report", parents=[common],
                   help="everything the other subcommands produce, in one pass")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.data).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.data}: {exc}", file=sys.stderr)
        return 1

    config = AnalysisConfig(
        scheme=args.scheme,
        regime=args.regime,
        feas_tol=args.tol_feas,
        eff_tol=args.tol_eff,
        support_tol=args.tol_support,
        rts_tol=args.tol_rts,
        dmu_filter=tuple(args.dmu) if args.dmu else None,
    )
    try:
        dataset = parse_dataset(text)
        reports = run_analysis(config, dataset, stages=_STAGES[args.command])
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RamdeaError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        for field in _HIDDEN.get(args.command, ()):
            setattr(report, field, None)
    sys.stdout.write(render_report(reports, args.output_format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
