"""Global reference set identification and minimum-face geometry.

A scored unit may admit many optimal slack patterns and therefore many
frontier projections.  The global reference set (GRS) is the set of
units that can carry positive intensity in *some* optimal combination;
its convex hull is the smallest face of the technology containing every
projection.  Under the bam scheme with the "crs" regime such a unit
need not be efficient under its own weights: bam anchors each unit's
weights at that unit, so a slack that costs nothing for unit o can cost
something for a unit o leans on.

``max_support_solution`` is the one maximal-support primitive: given a
feasible system  A u + B v = d  over nonnegative u and v, it returns a
solution whose u-block has the largest possible number of positive
components.  It attaches a companion variable boxed into [0, 1] to
every u column and maximises their total.  Every system has this one
program: d is homogenised into a normalising column -d, with a
companion as a u column has, whose optimal value rescales the solution
back onto A u + B v = d.  When d = 0 that column is zero, its companion
goes to 1 at no cost, and the solution is divided by exactly 1.  The
program's right-hand side is zero, so its start with every variable at
zero is already feasible and the kernel skips phase 1.

``identify_grs`` states unit o's optimal slack patterns as such a
system and makes one call.  The system is the scoring program that
``dea._scoring_programs`` lays out, with one more row, the budget row,
that holds its objective at the optimum: the weighted slack total
equals the ``slack_sum`` of the scoring result.  The u-block holds
every unit's column, the v-block the slack columns whose budget weight
is non-zero, and d is the scoring right-hand side (the unit's own data,
and 1 on the convexity row under "vrs") followed by that total.  The
maximal support is the whole GRS, and the solution is a projection
strictly inside the minimum face (every member carries positive
weight).

The u-block is screened with the scoring LP's optimal row duals y,
which ``dea.evaluate`` hands over in ``RamResult.duals``.  By
complementary slackness every optimal solution of the scoring LP is
zero wherever y leaves a non-zero reduced cost, so the GRS lies among
the units whose reduced cost -(y . a_j) is zero, a_j being unit j's
column of the scoring LP (the system's column above the budget row).
A unit stays when that reduced cost, divided by max(1, |y| |a_j|), is
at least -1e-5: a kept extra column costs only pivots, a dropped member
would be a wrong answer.  The weights of the
screened-out units are zero, so ``GrsResult`` still spans every unit;
when the screen keeps no unit (the crs apex, where the origin is the
only projection), every unit stays.  The slack columns are never
screened.

The common case needs no solve at all.  Under "vrs", when the screen
keeps exactly one unit k, the GRS lies inside {k} and the convexity row
forces lambda_k = 1, so the only optimal pattern is k itself: weight 1
on k, input slacks x_o - x_k, output slacks y_k - y_o, and the minimum
face is the vertex (x_k, y_k), which becomes the interior projection
bitwise.  The scoring solution, already verified by the kernel, must
agree (lambda_k within ``support_tol`` of 1, the other intensities
summing to at most ``support_tol``) before this is taken; otherwise,
and always under "crs", where the weight of k is not fixed, the program
above is solved.

``identify_grs_many`` does this for a list of scoring results of one
scheme and regime, whose programs therefore share one row count, with
one call of the kernel.  It reads the matrix, the right-hand sides and
the objective off the scoring stack of ``dea._scoring_programs``,
screens every unit and tests the vertex case with array operations over
the units, and makes the programs one ``LinearProgram`` stack.  Each
program is padded at its end to the widest one's columns with zero
columns pinned at zero and priced at zero, which never enter the basis.
A unit whose solve fails gets its error in place of its result, and the
others' results come back as if each unit had been identified alone;
``identify_grs`` is the call for one unit, and raises that error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dea
# ``solve`` stays bound here, as in ``dea`` and ``rts``, for wrappers that
# trace the kernel per calling module (bench/tracing.py)
from .lp import (  # noqa: F401
    FEAS_TOL, OPTIMAL, LinearProgram, LpError, RamdeaError, _dots, _tolerance, solve,
    solve_many, unwrap,
)

__all__ = [
    "SUPPORT_TOL",
    "DegenerateNormalizerError",
    "GrsResult",
    "max_support_solution",
    "identify_grs",
    "identify_grs_many",
    "minimum_face",
]

# Threshold on normalised intensities deciding set membership; the
# rescaling by the normalising column makes the scale canonical, so an
# absolute cutoff is meaningful.
SUPPORT_TOL = 1e-7

# Relative cutoff on singular values when counting face directions.
_RANK_TOL = 1e-7

# Scaled scoring reduced cost below which a unit is screened out of
# the GRS program (see the module docstring).
_SCREEN_TOL = 1e-5


class DegenerateNormalizerError(RamdeaError):
    """The normalising column vanished at the optimum.

    For a feasible system this is a numerical breakdown of the solve;
    otherwise the caller handed in an infeasible system.
    """


@dataclass(frozen=True, eq=False)
class GrsResult:
    """GRS membership with strictly positive weights and the interior projection.

    ``weights`` has one entry per unit of the dataset.
    """

    o: int
    weights: np.ndarray
    members: tuple[int, ...]
    input_slacks: np.ndarray
    output_slacks: np.ndarray
    interior_projection_inputs: np.ndarray
    interior_projection_outputs: np.ndarray


def max_support_solution(A, B=None, d=None, feas_tol: float = FEAS_TOL,
                         support_tol: float = SUPPORT_TOL):
    """Feasible (u, v) of ``A u + B v = d`` maximising the support of u.

    ``B`` of None means no v block and ``d`` of None means zeros.  The
    caller must guarantee that the system is feasible; a normalising
    column that ends at or below ``support_tol`` raises
    ``DegenerateNormalizerError``.  ``ValueError`` names a ``B`` or ``d``
    that does not match ``A``'s rows, or a ``support_tol`` of NaN, inf or <= 0.
    """
    support_tol = _tolerance("support_tol", support_tol)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p = A.shape[0]
    B = np.zeros((p, 0)) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != p:
        raise ValueError(f"B has {B.shape[0]} rows, expected {p}")
    d = np.zeros(p) if d is None else np.atleast_1d(np.asarray(d, dtype=float))
    if d.shape != (p,):
        raise ValueError(f"d has length {d.shape[0]}, expected {p}")
    (solution,) = _max_support_many([(A, B, d)], feas_tol, support_tol)
    return unwrap(solution)


def _max_support_many(systems, feas_tol, support_tol) -> list:
    """``max_support_solution`` of each (A, B, d) of ``systems``, float
    arrays of one row count, with one call of the kernel; an error is
    returned in place of its solution."""
    # k: a system's u columns and its normalising column -d
    matrices = [np.hstack([A, -d[:, None], A, -d[:, None], B]) for A, B, d in systems]
    ks = np.array([A.shape[1] + 1 for A, _, _ in systems])
    # the companion of each of a program's k columns is boxed into [0, 1]
    # and priced at 1; each program is padded at its end to the widest one
    # with zero columns pinned at zero, which never enter the basis
    widths = np.array([matrix.shape[1] for matrix in matrices])
    column = np.arange(widths.max())
    companion = (ks[:, None] <= column) & (column < 2 * ks[:, None])
    upper = np.where(companion, 1.0, np.where(column < widths[:, None], np.inf, 0.0))
    stack = np.zeros((len(matrices), matrices[0].shape[0], column.size))
    for padded, matrix in zip(stack, matrices):
        padded[:, :matrix.shape[1]] = matrix
    programs = LinearProgram("maximize", np.where(companion, 1.0, 0.0), stack,
                             np.zeros(stack.shape[:2]), upper_bounds=upper)
    solutions = []
    for sol, width, k in zip(solve_many(programs, feas_tol), widths, ks):
        if isinstance(sol, LpError):
            solutions.append(sol)
        elif sol.status != OPTIMAL:
            solutions.append(LpError(f"maximal-support program ended {sol.status}"))
        else:
            solutions.append(_support_point(sol.primal[:width], k, support_tol))
    return solutions


def _support_point(primal, k, support_tol):
    """(u, v) from the optimum of the maximal-support program."""
    combined = primal[:k] + primal[k:2 * k]
    scale = combined[-1]
    if scale <= support_tol:
        return DegenerateNormalizerError(
            f"normalising column ended at {scale:.3e}; the system is infeasible "
            "or the solve broke down numerically"
        )
    return (
        np.maximum(combined[:-1] / scale, 0.0),
        np.maximum(primal[2 * k:] / scale, 0.0),
    )


def identify_grs(dataset: dea.Dataset, o: int, ram_result: dea.RamResult,
                 feas_tol: float = FEAS_TOL, support_tol: float = SUPPORT_TOL) -> GrsResult:
    """Identify unit ``o``'s global reference set with at most one solve.

    ``ram_result`` must come from ``dea.evaluate`` for the same unit.
    Its scheme and regime fix the scoring program, its exact
    ``slack_sum`` becomes the budget and its ``duals`` screen the units;
    a single kept unit under "vrs" is the GRS without a solve (see the
    module docstring).  The returned weights are indexed by unit and sum
    to one under "vrs"; members are exactly the units whose weight
    exceeds ``support_tol``.  The interior projection is the matching
    frontier point, strictly inside the minimum face.  ``identify_grs_many``
    of the one unit, which checks both tolerances.
    """
    if ram_result.dmu_index != o:
        raise ValueError(f"ram_result is for unit {ram_result.dmu_index}, not {o}")
    (reference,) = identify_grs_many(dataset, [ram_result], feas_tol, support_tol)
    return unwrap(reference)


def identify_grs_many(dataset: dea.Dataset, ram_results, feas_tol: float = FEAS_TOL,
                      support_tol: float = SUPPORT_TOL) -> list[GrsResult | RamdeaError]:
    """``identify_grs`` of the unit of each of ``ram_results``, which share
    one scheme and regime (``ValueError`` names the models otherwise).

    The units whose GRS needs a solve share one call of the kernel.
    Returns one entry per result, in order: its ``GrsResult``, or the
    ``RamdeaError`` that ``identify_grs`` raises for it.
    """
    feas_tol = _tolerance("feas_tol", feas_tol)
    support_tol = _tolerance("support_tol", support_tol)
    ram_results = list(ram_results)
    models = sorted({(r.scheme, r.regime) for r in ram_results})
    if len(models) > 1:
        raise ValueError("results of one scheme and regime expected, got "
                         + ", ".join(f"{scheme}/{regime}" for scheme, regime in models))
    if not ram_results:
        return []
    ((scheme, regime),) = models
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    scoring, _ = dea._scoring_programs(
        dataset, [r.dmu_index for r in ram_results], scheme, regime)
    A, rhs = scoring.constraint_matrix, scoring.rhs
    # the budget row holds the objective at its optimum (scaled by m+s, as
    # slack_sum is); the units' columns have no budget entry
    budget = np.broadcast_to((m + s) * scoring.objective, (len(ram_results), scoring.cols))
    # B: the slack columns whose budget weight is non-zero, the others
    # being pinned at zero
    free = budget[:, n:] != 0.0

    # screen the units' columns of the scoring LP with its duals
    columns = A[:, :n]
    y = np.array([r.duals for r in ram_results])
    scale = np.maximum(1.0, np.sqrt(_dots(y, y))[:, None] * np.linalg.norm(columns, axis=0))
    kept = -(y[:, None, :] @ columns)[:, 0, :] / scale >= -_SCREEN_TOL
    kept[~kept.any(axis=1)] = True

    lambdas = np.array([r.lambdas for r in ram_results])
    vertex = np.argmax(kept, axis=1)
    at_vertex = lambdas[np.arange(len(ram_results)), vertex]
    # the vertex case: the convexity row fixes the one kept unit's weight
    # at 1 (see the module docstring)
    vertices = ((regime == "vrs") & (kept.sum(axis=1) == 1)
                & (np.abs(at_vertex - 1.0) <= support_tol)
                & (lambdas.sum(axis=1) - at_vertex <= support_tol))
    systems = []
    for g in np.flatnonzero(~vertices):
        system = np.vstack([A, budget[g]])
        systems.append((system[:, :n][:, kept[g]], system[:, n:][:, free[g]],
                        np.append(rhs[g], ram_results[g].slack_sum)))
    solutions = iter(_max_support_many(systems, feas_tol, support_tol) if systems else [])

    references = []
    for g, ram_result in enumerate(ram_results):
        weights = np.zeros(n)
        if vertices[g]:
            weights[vertex[g]] = 1.0
            x_hat = dataset.inputs[:, vertex[g]].copy()
            y_hat = dataset.outputs[:, vertex[g]].copy()
            s_in, s_out = rhs[g, :m] - x_hat, y_hat - rhs[g, m:m + s]
        else:
            solution = next(solutions)
            if isinstance(solution, RamdeaError):
                references.append(solution)
                continue
            weights[kept[g]], v = solution
            slacks = np.zeros(m + s)
            slacks[free[g]] = v
            s_in, s_out = slacks[:m], slacks[m:]
            x_hat, y_hat = rhs[g, :m] - s_in, rhs[g, m:m + s] + s_out
        references.append(GrsResult(
            o=ram_result.dmu_index,
            weights=weights,
            members=tuple(np.flatnonzero(weights > support_tol).tolist()),
            input_slacks=s_in,
            output_slacks=s_out,
            interior_projection_inputs=x_hat,
            interior_projection_outputs=y_hat,
        ))
    return references


def minimum_face(dataset: dea.Dataset, grs: GrsResult) -> int:
    """Affine dimension of the minimum face, the hull of ``grs.members``.

    An empty GRS (possible under "crs", where the origin itself can be
    the projection) spans the cone's apex: dimension 0.
    """
    members = grs.members
    if len(members) <= 1:
        return 0
    points = np.vstack([dataset.inputs[:, members], dataset.outputs[:, members]])
    deltas = points[:, 1:] - points[:, :1]
    singular = np.linalg.svd(deltas, compute_uv=False)
    cutoff = _RANK_TOL * max(1.0, float(singular[0]))
    return int(np.sum(singular > cutoff))
