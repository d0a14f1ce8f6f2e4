"""Additive-DEA toolkit.

Range-adjusted efficiency scoring over named decision-making units,
identification of each unit's unique global reference set through a
single maximal-support solve, minimum-face geometry, and returns-to-
scale classification from supporting-hyperplane intercept intervals.
Backed by a bounded-variable two-phase simplex kernel.
"""

from .dea import (
    EFF_TOL,
    REGIMES,
    SCHEMES,
    Dataset,
    RamResult,
    Ranges,
    compute_ranges,
    efficient_set,
    evaluate,
    slack_weights,
)
from .grs import (
    SUPPORT_TOL,
    DegenerateNormalizerError,
    GrsResult,
    MinimumFace,
    identify_grs,
    max_support_solution,
    minimum_face,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    IterationLimitError,
    LinearProgram,
    LpError,
    LpSolution,
    RamdeaError,
    SolverSettings,
    solve,
)
from .reporting import (
    AnalysisConfig,
    DataFormatError,
    DmuReport,
    parse_dataset,
    render_report,
    run_analysis,
)
from .rts import (
    CONSTANT,
    DECREASING,
    INCREASING,
    RTS_TOL,
    NormalizationUnattainableError,
    NotOnFrontierError,
    classify_rts,
    intercept_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CONSTANT",
    "DECREASING",
    "DataFormatError",
    "Dataset",
    "DegenerateNormalizerError",
    "DmuReport",
    "EFF_TOL",
    "GrsResult",
    "INCREASING",
    "INFEASIBLE",
    "IterationLimitError",
    "LinearProgram",
    "LpError",
    "LpSolution",
    "MinimumFace",
    "NormalizationUnattainableError",
    "NotOnFrontierError",
    "OPTIMAL",
    "REGIMES",
    "RTS_TOL",
    "RamResult",
    "RamdeaError",
    "Ranges",
    "SCHEMES",
    "SUPPORT_TOL",
    "SolverSettings",
    "UNBOUNDED",
    "classify_rts",
    "compute_ranges",
    "efficient_set",
    "evaluate",
    "identify_grs",
    "intercept_bounds",
    "max_support_solution",
    "minimum_face",
    "parse_dataset",
    "render_report",
    "run_analysis",
    "slack_weights",
    "solve",
]
