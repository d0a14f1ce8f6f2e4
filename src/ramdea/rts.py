"""Returns-to-scale classification at frontier points.

Every hyperplane  u.y - v.x = w  (u, v >= 0) supporting the convex
technology at a frontier anchor confines its intercept w to an
interval.  The sign of that interval decides the local scale behaviour:
negative throughout means increasing returns, positive throughout means
decreasing returns, and an interval admitting zero means constant
returns.  Classifying at a point strictly inside a unit's minimum face
makes the verdict independent of which optimal projection the slack
model happened to return.

Each endpoint of the interval is the optimum of an LP over multipliers
normalised by  v . x_anchor = 1,  with one row per unit.  It is solved
in its dual, envelopment form (Banker & Thrall 1992; Banker, Cooper,
Seiford, Thrall & Zhu 2004): one row per input and output plus one for
the intercept, over a free radial factor theta, a free alpha and one
intensity  pi_j <= 0  per unit, maximising theta.  With a right-hand
side of +1 on the intercept row, max theta is the smallest intercept;
with -1, -max theta is the largest.  An infeasible dual means that
endpoint is unbounded; an unbounded dual means no supporting hyperplane
passes through the anchor.  When both duals are infeasible, the dual
with a zero right-hand side tells the two apart.

The min-end dual starts from a known feasible basis whenever y_hat >= 0:
theta = alpha = -1 with every pi_j = 0 leaves the output slacks at the
row-scaled y_hat and every input slack at zero.  Its basis holds theta,
alpha, the s output slacks and every input slack but the one on the row
where x_hat is largest, so that solve runs no phase 1.  Every other dual
(a max end, which may be infeasible, which is its answer; a zero
right-hand side; a min end with a negative output) starts from the
slack basis, the s + m slacks and the intercept row's artificial, so
its phase 1 runs on that one row.

A unit is dominated by its interior projection, a convex combination
of its GRS members, so its row of the intercept program is implied by
theirs.  A run passes a ``frame``, the GRS members of every unit and
every unit whose GRS is not known (Dula & Thrall 2001), and the
programs get pi columns for those units only, under the full data's
row scales.  The row duals of each optimal end price every unit left
out, and an anchor where one would enter is solved again over every
unit (sifting; Bixby, Gregory, Lustig, Marsten & Shanno 1992).

Finite endpoints are reported exactly and may fall outside [-1, 1];
an unbounded endpoint is substituted by -1 or +1, pushed just far
enough to never cross the finite endpoint.  Either way the sign
information, and hence the classification, is preserved.

``intercept_bounds_many`` solves each distinct anchor once, telling
anchors apart by their exact bytes, and a repeat gets the first's entry.
It solves both ends at every distinct anchor with one call of the
kernel, and the rare zero right-hand-side programs with one more.  One
function, ``_envelopment_programs``, lays out every program of a call:
the pi and slack columns are the data's own, so all programs share one
block of them, built once per kernel call, and each holds only its
anchor's theta and alpha columns, as its leading columns.  Each
multiplier row is divided by the data's largest magnitude on it, which
for an anchor within the data's range, such as an interior projection,
is the row's largest entry over theta, alpha and pi.  An anchor whose
solve fails gets its error in place of its interval, and the other
anchors' intervals come back as if each had been solved alone;
``intercept_bounds`` is the call for one anchor, and raises that error.
"""

from __future__ import annotations

import numpy as np

from . import dea
# ``solve`` stays bound here, as in ``dea`` and ``grs``, for wrappers that
# trace the kernel per calling module (bench/tracing.py)
from .lp import (  # noqa: F401
    FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpError, RamdeaError, _tolerance,
    solve, solve_many, unwrap,
)

__all__ = [
    "INCREASING",
    "CONSTANT",
    "DECREASING",
    "RTS_TOL",
    "NotOnFrontierError",
    "NormalizationUnattainableError",
    "intercept_bounds",
    "intercept_bounds_many",
    "classify_rts",
]

INCREASING = "increasing"
CONSTANT = "constant"
DECREASING = "decreasing"

# Attainability of a zero intercept is an LP-tolerance-dominated call.
RTS_TOL = 1e-6

# Magnitude reported for an unbounded end of the intercept interval.
_CLAMP = 1.0

class NotOnFrontierError(RamdeaError):
    """No supporting hyperplane passes through the anchor point."""


class NormalizationUnattainableError(RamdeaError):
    """The anchor's inputs admit no v >= 0 with v . x = 1 (all non-positive)."""


def _unit_columns(dataset):
    """Every unit's pi column of the envelopment programs, [y_j; -x_j; -1]
    with each multiplier row divided by the data's largest magnitude on
    it, and those magnitudes."""
    data = np.vstack([dataset.outputs, -dataset.inputs])
    row_scale = np.abs(data).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    return np.vstack([data / row_scale[:, None], np.full(dataset.n_dmus, -1.0)]), row_scale


def _envelopment_programs(dataset, x_hat, y_hat, omega_rhs, frame):
    """The stack of LP duals of the intercept program at the anchors
    (x_hat[i], y_hat[i]), where ``x_hat`` is K x m and ``y_hat`` K x s,
    with ``omega_rhs[i]`` on the intercept row and a pi column for each
    unit that the boolean mask ``frame`` picks, and each dual's starting
    basis.

    Each dual maximises theta over [theta | alpha | pi_1..pi_n | s+m slacks]
    subject to

        alpha y_hat + sum_j pi_j y_j + slack_out = 0          (s rows, dual u)
        (theta - alpha) x_hat - sum_j pi_j x_j + slack_in = 0 (m rows, dual v)
        -alpha - sum_j pi_j = omega_rhs                       (1 row, dual w)

    with theta and alpha free and pi_j <= 0.  A right-hand side of +1 is
    the dual of min w, -1 the dual of max w, and 0 the dual of the bare
    feasibility question.  Only the theta and alpha columns hold the
    anchor, as each dual's leading columns; the pi and slack columns make
    the block every dual shares.  Each multiplier row is divided by the
    data's largest magnitude on it, an exact change of variables that
    keeps the pi of translated data at the scale of the rows.
    """
    m, s = dataset.n_inputs, dataset.n_outputs
    units, row_scale = _unit_columns(dataset)
    units = units[:, frame]
    n = units.shape[1]
    shared = np.zeros((s + m + 1, n + s + m))
    shared[:, :n] = units
    shared[:-1, n:] = np.eye(s + m)
    k = x_hat.shape[0]
    anchored = np.zeros((k, s + m + 1, 2))
    anchored[:, s:-1, 0] = x_hat / row_scale[s:]
    anchored[:, :-1, 1] = np.hstack([y_hat, -x_hat]) / row_scale
    anchored[:, -1, 1] = -1.0
    rhs = np.zeros((k, s + m + 1))
    rhs[:, -1] = omega_rhs
    # theta and alpha free, every pi_j <= 0 and every slack >= 0
    lower = np.r_[np.full(n + 2, -np.inf), np.zeros(s + m)]
    upper = np.r_[np.inf, np.inf, np.zeros(n), np.full(s + m, np.inf)]
    program = LinearProgram("maximize", np.r_[1.0, np.zeros(n + s + m + 1)], shared, rhs,
                            lower, upper, leading_columns=anchored)
    # the min end's feasible start, else the slack basis (see the module docstring)
    q = n + 2 + s + m
    slacks = np.broadcast_to(np.arange(n + 2, q), (k, s + m))
    kept = np.arange(s + m) != s + np.argmax(x_hat, axis=1)[:, None]
    starts = np.hstack([np.broadcast_to([0, 1], (k, 2)), slacks[kept].reshape(k, -1)])
    started = (rhs[:, -1] > 0.0) & (y_hat.min(axis=1) >= 0.0)
    slack_basis = np.r_[n + 2:q, q + s + m]
    return program, [start if ok else slack_basis for start, ok in zip(starts, started.tolist())]


def _priced_in(duals, left_out, feas_tol):
    """Whether each row of ``duals``, an optimal end's row duals, prices
    some column of ``left_out`` above zero, so that unit would enter: its
    price beyond ``feas_tol`` times 1 plus the price's largest term."""
    # a stack of vector-matrix products, as in the kernel: one matrix
    # product this size would wake BLAS threads that slow every stage after
    price = (duals[:, None, :] @ left_out)[:, 0, :]
    ends, units = np.nonzero(price > feas_tol)  # the scaled bound is only larger
    scale = np.abs(duals[ends] * left_out[:, units].T).max(axis=1)
    over = np.zeros(price.shape, dtype=bool)
    over[ends, units] = price[ends, units] > feas_tol * (1.0 + scale)
    return over.any(axis=1)


def _off_frontier() -> NotOnFrontierError:
    return NotOnFrontierError(
        "no supporting hyperplane passes through the anchor; "
        "it does not lie on the efficient frontier"
    )


def intercept_bounds(dataset: dea.Dataset, point,
                     feas_tol: float = FEAS_TOL) -> tuple[float, float]:
    """Smallest and largest supporting intercept at ``point``.

    ``point`` is an (inputs, outputs) pair lying on the efficient
    frontier of the convex technology, e.g. a GRS interior projection.
    An unbounded endpoint is replaced by -1 / +1 (or by the finite
    endpoint when that lies beyond, so the interval stays ordered).
    Finite ends that cross by at most ``feas_tol`` (relative) are both
    reported as omega_min; a wider crossing raises ``LpError``.
    ``intercept_bounds_many`` of the one point.
    """
    (bounds,) = intercept_bounds_many(dataset, [point], feas_tol)
    return unwrap(bounds)


def intercept_bounds_many(dataset: dea.Dataset, points, feas_tol: float = FEAS_TOL,
                          frame=None) -> list:
    """``intercept_bounds`` at each of ``points``.

    Returns one entry per point, in order: its (omega_min, omega_max),
    or the ``RamdeaError`` that ``intercept_bounds`` raises for it.  Each
    distinct point is solved once, and a repeat of it, to the bit, gets
    the same entry.  ``frame``, a boolean mask over the units (default
    every unit), is the units the programs hold (see the module docstring).
    """
    feas_tol = _tolerance("feas_tol", feas_tol)
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    frame = np.ones(n, dtype=bool) if frame is None else np.asarray(frame, dtype=bool)
    if frame.shape != (n,):
        raise ValueError(f"frame must be a mask of {n} units")
    # by each anchor's exact bytes: the distinct anchors to solve, and
    # every anchor's entry
    keys, anchors, results = [], {}, {}
    for point in points:
        x_hat = np.atleast_1d(np.asarray(point[0], dtype=float))
        y_hat = np.atleast_1d(np.asarray(point[1], dtype=float))
        if x_hat.shape != (m,) or y_hat.shape != (s,):
            raise ValueError("anchor point does not match the dataset's dimensions")
        if not (np.isfinite(x_hat).all() and np.isfinite(y_hat).all()):
            raise ValueError("anchor point must be finite")
        keys.append((x_hat.tobytes(), y_hat.tobytes()))
        if float(x_hat.max()) <= 0.0:
            results[keys[-1]] = NormalizationUnattainableError(
                "anchor inputs are all non-positive; the multiplier normalisation "
                "v . x = 1 is unattainable and the scale class is undefined here"
            )
        else:
            anchors.setdefault(keys[-1], (x_hat, y_hat))
    if anchors:
        x_hat, y_hat = (np.array(side) for side in zip(*anchors.values()))
        results.update(zip(anchors, _intervals(dataset, x_hat, y_hat, feas_tol, frame)))
    return [results[key] for key in keys]


def _intervals(dataset, x_hat, y_hat, feas_tol, frame) -> list:
    """The ``_interval`` at each anchor (x_hat[i], y_hat[i]), or the error
    its solve gives, over the units of ``frame``: an anchor with an
    optimal end that a unit left out would better is solved again over
    every unit."""
    k = x_hat.shape[0]
    # the min ends (+1 on the intercept row) of every anchor, then the max
    # ends (-1)
    programs, bases = _envelopment_programs(dataset, np.vstack([x_hat, x_hat]),
                                            np.vstack([y_hat, y_hat]), np.repeat([1.0, -1.0], k),
                                            frame)
    ends = solve_many(programs, feas_tol, bases)
    optimal = [i for i, sol in enumerate(ends) if getattr(sol, "status", None) == OPTIMAL]
    again = []
    if optimal and not frame.all():
        priced = _priced_in(np.array([ends[i].duals for i in optimal]),
                            _unit_columns(dataset)[0][:, ~frame], feas_tol)
        again = sorted({optimal[i] % k for i in np.flatnonzero(priced)})
    results = []
    for min_end, max_end in zip(ends[:k], ends[k:]):
        bounds = []
        for omega_rhs, sol in ((1.0, min_end), (-1.0, max_end)):
            if isinstance(sol, LpError):
                bounds = sol
                break
            if sol.status == UNBOUNDED:
                bounds = _off_frontier()
                break
            # an infeasible dual leaves this endpoint of the intercept unbounded
            bounds.append(None if sol.status == INFEASIBLE
                          else omega_rhs * float(sol.objective_value))
        results.append(bounds)
    # both ends unbounded, or no supporting hyperplane at all: the dual with
    # a zero right-hand side is feasible at the origin and unbounded exactly
    # in the second case
    unsettled = [g for g, bounds in enumerate(results) if bounds == [None, None]]
    if unsettled:
        zero_rhs, bases = _envelopment_programs(dataset, x_hat[unsettled], y_hat[unsettled],
                                                np.zeros(len(unsettled)), frame)
        for g, sol in zip(unsettled, solve_many(zero_rhs, feas_tol, bases)):
            if isinstance(sol, LpError):
                results[g] = sol
            elif sol.status == UNBOUNDED:
                results[g] = _off_frontier()
    results = [bounds if isinstance(bounds, RamdeaError) else _interval(*bounds, feas_tol)
               for bounds in results]
    if again:
        for g, bounds in zip(again, _intervals(dataset, x_hat[again], y_hat[again], feas_tol,
                                               np.ones_like(frame))):
            results[g] = bounds
    return results


def _interval(omega_min, omega_max, tol):
    """The reported interval of two solved ends, None where unbounded."""
    if omega_min is not None and omega_max is not None and omega_min > omega_max:
        # two finite ends of one interval cross only by rounding, when
        # the interval is a single point
        gap = omega_min - omega_max
        if gap > tol * max(1.0, abs(omega_min)):
            return LpError(f"intercept interval ends cross by {gap:.3e}")
        omega_max = omega_min
    # a substituted endpoint must never cross the finite one
    if omega_min is None:
        omega_min = -_CLAMP if omega_max is None else min(-_CLAMP, omega_max)
    if omega_max is None:
        omega_max = max(_CLAMP, omega_min)
    return omega_min, omega_max


def classify_rts(bounds: tuple[float, float], rts_tol: float = RTS_TOL) -> str:
    """Scale class implied by an intercept interval.

    Constant when zero is attainable, decreasing when the whole interval
    is positive, increasing when it is negative.  A NaN bound, or an
    ``rts_tol`` that is not finite and positive, raises ``ValueError``.
    """
    rts_tol = _tolerance("rts_tol", rts_tol)
    omega_min, omega_max = bounds
    if np.isnan(omega_min) or np.isnan(omega_max):
        raise ValueError("intercept bounds must not be NaN")
    if omega_min <= rts_tol and omega_max >= -rts_tol:
        return CONSTANT
    if omega_min > rts_tol:
        return DECREASING
    return INCREASING
