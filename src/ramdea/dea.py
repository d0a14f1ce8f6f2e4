"""Slack-based additive DEA over an immutable observation matrix.

A dataset holds n named units, each consuming m inputs to produce s
outputs (negative values are allowed).  The evaluator scores one unit at
a time by maximising a weighted sum of input excesses and output
shortfalls reachable inside the production set spanned by all units:
the convex hull under the "vrs" regime, the conical hull under "crs".

Weight schemes:

  ram       slack on row k weighted by 1 / ((m+s) * spread of row k);
            the reported score is rho = 1 - weighted optimum, which
            lies in (0, 1] whenever every spread is positive
  additive  unit weights; the raw weighted optimum is reported
  bam       like ram but with one-sided spreads measured from the unit
            under evaluation

Whenever a weight's divisor is zero the weight is defined as zero and
the corresponding slack is pinned to zero.  ``_scoring_programs`` is the
one place that lays the slack model out, with each program's starting
basis; the GRS step reads its system off the programs it builds.

The scoring LP starts from a feasible basis, so the kernel never runs
phase 1 on it: the unit under evaluation alone is a feasible
combination (lambda_o = 1 with every slack at zero).  Its basis is
lambda_o plus the m+s slacks, less under "crs" (no convexity row) the
slack of the row where the unit is largest.  Pinned slacks may sit in
that basis at zero.

``evaluate_many`` scores a list of units with one call of the kernel,
``lp.solve_many``, which advances their programs in lockstep.  Only the
right-hand side, and under bam the cost and the pinned slacks, depend
on the unit, so the programs share one constraint matrix; they are laid
out as arrays over the units, which make one ``LinearProgram`` stack,
and their starting bases and results are assembled from stacked arrays
too.  A unit whose solve fails gets its error in place of its result,
and the others' results come back as if each had been scored alone;
``evaluate`` is the call for one unit, and raises that error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``solve`` stays bound here, as in ``grs`` and ``rts``, for wrappers that
# trace the kernel per calling module (bench/tracing.py)
from .lp import (  # noqa: F401
    FEAS_TOL, OPTIMAL, LinearProgram, LpError, _tolerance, solve, solve_many, unwrap,
)

__all__ = [
    "SCHEMES",
    "REGIMES",
    "EFF_TOL",
    "Dataset",
    "RamResult",
    "slack_weights",
    "scoring_program",
    "evaluate",
    "evaluate_many",
]

SCHEMES = ("ram", "additive", "bam")
REGIMES = ("vrs", "crs")

# A unit counts as efficient when its total range-normalised slack stays
# below this; two orders above the solver's feas_tol to absorb roundoff.
EFF_TOL = 1e-7


class Dataset:
    """Immutable m-input / s-output observation matrix over n named units.

    ``inputs`` is m x n and ``outputs`` is s x n: one column per unit.
    Labels are only used for reporting and default to x1..xm / y1..ys.
    """

    def __init__(self, names, inputs, outputs, input_labels=None, output_labels=None):
        names = tuple(str(n) for n in names)
        # private copies, so freezing them below cannot affect the caller
        inputs = np.array(inputs, dtype=float, ndmin=2)
        outputs = np.array(outputs, dtype=float, ndmin=2)
        n = len(names)
        if n < 1:
            raise ValueError("dataset needs at least one unit")
        if len(set(names)) != n:
            raise ValueError("unit names must be pairwise distinct")
        if inputs.ndim != 2 or outputs.ndim != 2:
            raise ValueError("inputs and outputs must be two-dimensional")
        if inputs.shape[1] != n or outputs.shape[1] != n:
            raise ValueError(
                f"expected {n} columns, got inputs {inputs.shape}, outputs {outputs.shape}"
            )
        if inputs.shape[0] < 1 or outputs.shape[0] < 1:
            raise ValueError("need at least one input row and one output row")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
            raise ValueError("observations must be finite")
        m, s = inputs.shape[0], outputs.shape[0]
        self.names = names
        self.inputs = inputs
        self.outputs = outputs
        self.input_labels = self._labels(input_labels, "x", m)
        self.output_labels = self._labels(output_labels, "y", s)
        inputs.setflags(write=False)
        outputs.setflags(write=False)

    @staticmethod
    def _labels(labels, prefix, count):
        if labels is None:
            return tuple(f"{prefix}{k + 1}" for k in range(count))
        labels = tuple(str(v) for v in labels)
        if len(labels) != count:
            raise ValueError(f"expected {count} labels, got {len(labels)}")
        if len(set(labels)) != count:
            raise ValueError(f"labels must be pairwise distinct, got {labels}")
        return labels

    @property
    def n_dmus(self) -> int:
        return len(self.names)

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[0]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown unit name: {name!r}") from None


@dataclass(frozen=True, eq=False)
class RamResult:
    """One unit's score, optimal slacks, intensities and projection.

    ``slack_sum`` is (m+s) times the optimal weighted slack total, kept
    exactly as the solver produced it; for the ram scheme it equals the
    total of the range-normalised slacks and rho = 1 - slack_sum/(m+s).
    For the additive and bam schemes ``rho`` holds the raw weighted
    optimum instead of a score in [0, 1].  ``duals`` are the optimal
    row duals of ``scoring_program``, as ``LpSolution.duals`` gives
    them; ``scheme`` and ``regime`` are the ones it was built with.
    """

    dmu_index: int
    rho: float
    input_slacks: np.ndarray
    output_slacks: np.ndarray
    lambdas: np.ndarray
    projection_inputs: np.ndarray
    projection_outputs: np.ndarray
    slack_sum: float
    efficient: bool
    duals: np.ndarray
    scheme: str
    regime: str


def slack_weights(dataset: Dataset, scheme: str = "ram", o: int | None = None):
    """Objective weights (w_in, w_out) for the slack variables.

    ``o`` is only consulted by the bam scheme, whose one-sided spreads
    are anchored at the evaluated unit.  Zero divisors yield zero
    weights (the matching slacks get pinned by ``scoring_program``).
    """
    if scheme == "bam" and o is None:
        raise ValueError("the bam scheme needs the evaluated unit index")
    w_in, w_out = _weights(dataset, scheme, [o])
    return w_in.reshape(-1), w_out.reshape(-1)


def _weights(dataset: Dataset, scheme: str, units):
    """``slack_weights`` of each unit of ``units``: one (m,) and one (s,)
    vector shared by every unit, or under bam one row per unit."""
    _check_scheme(scheme)
    m, s = dataset.n_inputs, dataset.n_outputs
    if scheme == "additive":
        return np.ones(m), np.ones(s)
    if scheme == "ram":
        den_in = (m + s) * np.ptp(dataset.inputs, axis=1)
        den_out = (m + s) * np.ptp(dataset.outputs, axis=1)
    else:  # bam
        den_in = (m + s) * (dataset.inputs[:, units].T - dataset.inputs.min(axis=1))
        den_out = (m + s) * (dataset.outputs.max(axis=1) - dataset.outputs[:, units].T)
    w_in = np.where(den_in > 0.0, 1.0 / np.where(den_in > 0.0, den_in, 1.0), 0.0)
    w_out = np.where(den_out > 0.0, 1.0 / np.where(den_out > 0.0, den_out, 1.0), 0.0)
    return w_in, w_out


def scoring_program(dataset: Dataset, o: int, scheme: str = "ram",
                    regime: str = "vrs") -> LinearProgram:
    """The slack model that scores unit ``o``.

    Columns: the n intensities, the m input slacks, the s output slacks.
    Rows: the inputs, the outputs, then the convexity row under "vrs",
    with unit ``o``'s own data (and 1) on the right-hand side.  The cost
    is the slack weights; a zero-weight slack is pinned by an upper
    bound of 0.
    """
    programs, _ = _scoring_programs(dataset, [o], scheme, regime)
    return programs[0]


def _scoring_programs(dataset: Dataset, units, scheme: str, regime: str):
    """The stack of ``scoring_program`` of every unit of ``units``, and
    each program's starting basis: lambda_o and the slacks (see the
    module docstring).

    Only the right-hand side, and under bam the cost and the pinned
    slacks, depend on the unit, so every program shares one constraint
    matrix, and under ram and additive one cost and one bound vector.
    """
    _check_scheme(scheme)
    _check_regime(regime)
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    units = np.array(units, ndmin=1)
    if units.size and not (0 <= units.min() and units.max() < n):
        bad = units[(units < 0) | (units >= n)][0]
        raise IndexError(f"unit index {bad} out of range for {n} units")
    convexity = regime == "vrs"
    q = n + m + s
    A = np.zeros((m + s + (1 if convexity else 0), q))
    A[:m, :n] = dataset.inputs
    A[:m, n:n + m] = np.eye(m)
    A[m:m + s, :n] = dataset.outputs
    A[m:m + s, n + m:] = -np.eye(s)
    if convexity:
        A[-1, :n] = 1.0
    rhs = np.ones((units.size, A.shape[0]))
    rhs[:, :m] = dataset.inputs[:, units].T
    rhs[:, m:m + s] = dataset.outputs[:, units].T
    w_in, w_out = _weights(dataset, scheme, units)
    cost = np.concatenate([np.zeros(w_in.shape[:-1] + (n,)), w_in, w_out], axis=-1)
    upper = np.where(cost == 0.0, 0.0, np.inf)
    upper[..., :n] = np.inf
    programs = LinearProgram("maximize", cost, A, rhs, np.zeros(q), upper)
    own = units.astype(np.int64)[:, None]
    slacks = np.broadcast_to(np.arange(n, q), (units.size, m + s))
    if convexity:
        return programs, list(np.hstack([own, slacks]))
    # under "crs" lambda_o takes the place of the slack of the row where
    # the unit is largest, and an all-zero unit keeps the slack basis
    # alone (b = 0)
    largest = np.argmax(np.abs(rhs), axis=1)
    rest = slacks[np.arange(m + s) != largest[:, None]].reshape(units.size, m + s - 1)
    return programs, list(np.where(np.any(rhs, axis=1)[:, None], np.hstack([own, rest]), slacks))


def evaluate(dataset: Dataset, o: int, scheme: str = "ram", regime: str = "vrs",
             feas_tol: float = FEAS_TOL, eff_tol: float = EFF_TOL) -> RamResult:
    """Score unit ``o`` and return one optimal slack pattern.

    Cannot be infeasible (the unit itself is a feasible combination,
    and the solve starts from it), so a non-optimal solver status is
    raised as LpError.  Efficient means a ``slack_sum`` of at most
    ``eff_tol``.  ``evaluate_many`` of the one unit.
    """
    (result,) = evaluate_many(dataset, [o], scheme, regime, feas_tol, eff_tol)
    return unwrap(result)


def evaluate_many(dataset: Dataset, units, scheme: str = "ram", regime: str = "vrs",
                  feas_tol: float = FEAS_TOL,
                  eff_tol: float = EFF_TOL) -> list[RamResult | LpError]:
    """Score every unit of ``units`` with one call of the kernel.

    Returns one entry per unit, in order: what ``evaluate`` returns for
    it, or the ``LpError`` that ``evaluate`` raises.
    """
    feas_tol = _tolerance("feas_tol", feas_tol)
    eff_tol = _tolerance("eff_tol", eff_tol)
    units = list(units)
    if not units:
        return []
    programs, bases = _scoring_programs(dataset, units, scheme, regime)
    results = solve_many(programs, feas_tol, bases)
    optimal = []
    for i, (o, sol) in enumerate(zip(units, results)):
        if isinstance(sol, LpError):
            continue
        if sol.status != OPTIMAL:
            results[i] = LpError(f"slack model for unit {o} ended {sol.status}")
        else:
            optimal.append(i)
    if optimal:
        for i, result in zip(optimal, _ram_results(
                [units[i] for i in optimal], programs.rhs[optimal], [results[i] for i in optimal],
                scheme, regime, dataset.n_inputs, dataset.n_outputs, eff_tol)):
            results[i] = result
    return results


def _ram_results(units, rhs, solutions, scheme, regime, m, s, eff_tol) -> list[RamResult]:
    """The ``RamResult`` of each unit from its optimal scoring solution."""
    primal = np.array([sol.primal for sol in solutions])
    n = primal.shape[1] - m - s
    lambdas = np.maximum(primal[:, :n], 0.0)
    s_in = np.maximum(primal[:, n:n + m], 0.0)
    s_out = np.maximum(primal[:, n + m:], 0.0)
    weighted = np.array([sol.objective_value for sol in solutions])
    slack_sum = (m + s) * weighted
    rho = 1.0 - weighted if scheme == "ram" else weighted
    projection_inputs = rhs[:, :m] - s_in
    projection_outputs = rhs[:, m:m + s] + s_out
    efficient = (slack_sum <= eff_tol).tolist()
    return [
        RamResult(dmu_index=o, rho=rho_o, input_slacks=s_in[i], output_slacks=s_out[i],
                  lambdas=lambdas[i], projection_inputs=projection_inputs[i],
                  projection_outputs=projection_outputs[i], slack_sum=slack_sum_o,
                  efficient=efficient[i], duals=sol.duals, scheme=scheme, regime=regime)
        for i, (o, sol, rho_o, slack_sum_o) in enumerate(
            zip(units, solutions, rho.tolist(), slack_sum.tolist()))
    ]


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _check_regime(regime: str) -> None:
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
