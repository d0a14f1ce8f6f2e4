"""Additive-DEA toolkit.

Range-adjusted efficiency scoring over named decision-making units,
identification of each unit's unique global reference set through a
single maximal-support solve, minimum-face geometry, and returns-to-
scale classification from supporting-hyperplane intercept intervals.
Backed by a bounded-variable two-phase simplex kernel.
"""

from . import dea, grs, lp, reporting, rts
from .dea import *  # noqa: F403
from .grs import *  # noqa: F403
from .lp import *  # noqa: F403
from .reporting import *  # noqa: F403
from .rts import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(set().union(*(module.__all__
                               for module in (dea, grs, lp, reporting, rts))))
