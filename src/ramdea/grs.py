"""Global reference set identification and minimum-face geometry.

A scored unit may admit many optimal slack patterns and therefore many
frontier projections.  The global reference set (GRS) is the set of
efficient units that can carry positive intensity in *some* optimal
combination; its convex hull is the smallest face of the technology
containing every projection.  One maximal-support solve recovers the
whole set at once, together with a projection that lies strictly inside
that face (every member carries strictly positive weight).

The maximal-support primitive itself is generic: given a feasible
system  A u + B v = d  with nonnegative blocks, it returns a solution
whose u-block has the largest possible number of positive components.
The homogeneous case (d = 0) attaches a boxed companion variable to
every u column and maximises their total; the non-homogeneous case
additionally homogenises d into a normalising column whose optimal
value rescales the solution back onto A u + B v = d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dea
from .lp import OPTIMAL, UNBOUNDED, LinearProgram, LpError, SolverSettings, solve

__all__ = [
    "SUPPORT_TOL",
    "DegenerateNormalizerError",
    "OmegaSystem",
    "GrsResult",
    "MinimumFace",
    "max_support_solution",
    "build_omega_system",
    "build_grs_program",
    "identify_grs",
    "oracle_grs",
    "minimum_face",
]

# Threshold on normalised intensities deciding set membership; the
# rescaling by the normalising column makes the scale canonical, so an
# absolute cutoff is meaningful.
SUPPORT_TOL = 1e-7


class DegenerateNormalizerError(RuntimeError):
    """The normalising column vanished at the optimum.

    This contradicts feasibility of the target system and signals either
    an infeasible system handed in by the caller or inconsistent inputs.
    """


@dataclass(frozen=True, eq=False)
class OmegaSystem:
    """Linear description of all optimal slack patterns of one unit.

    Rows: one per input, one per output, a convexity row under "vrs",
    and a budget row pinning the weighted slack total at the stage-1
    optimum ``slack_budget``.  ``budget_in``/``budget_out`` carry the
    budget-row coefficients (zero where the matching slack is pinned).
    """

    o: int
    efficient_indices: tuple[int, ...]
    member_inputs: np.ndarray
    member_outputs: np.ndarray
    target_inputs: np.ndarray
    target_outputs: np.ndarray
    budget_in: np.ndarray
    budget_out: np.ndarray
    slack_budget: float
    convexity: bool


@dataclass(frozen=True, eq=False)
class GrsResult:
    """GRS membership with strictly positive weights and the interior projection."""

    o: int
    efficient_indices: tuple[int, ...]
    weights: np.ndarray
    members: tuple[int, ...]
    input_slacks: np.ndarray
    output_slacks: np.ndarray
    interior_projection_inputs: np.ndarray
    interior_projection_outputs: np.ndarray


@dataclass(frozen=True)
class MinimumFace:
    """Vertices spanning the minimum face and its affine dimension."""

    vertex_indices: tuple[int, ...]
    dimension: int


def max_support_solution(A, B=None, d=None,
                         settings: SolverSettings | None = None,
                         support_tol: float = SUPPORT_TOL):
    """Feasible (u, v) of ``A u + B v = d`` maximising the support of u.

    ``B`` may be omitted (no v block) and ``d`` of None or all zeros
    selects the homogeneous case.  The caller must guarantee that the
    system is feasible; for a non-homogeneous system whose normalising
    column still vanishes, ``DegenerateNormalizerError`` is raised.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p, q1 = A.shape
    if B is None:
        B = np.zeros((p, 0))
    else:
        B = np.atleast_2d(np.asarray(B, dtype=float))
        if B.shape[0] != p:
            raise ValueError(f"B has {B.shape[0]} rows, expected {p}")
    q2 = B.shape[1]
    homogeneous = d is None or not np.any(np.asarray(d, dtype=float))
    if homogeneous:
        cols = A
    else:
        d = np.atleast_1d(np.asarray(d, dtype=float))
        if d.shape != (p,):
            raise ValueError(f"d has length {d.shape[0]}, expected {p}")
        cols = np.hstack([A, -d[:, None]])
    k = cols.shape[1]  # q1 plus the normalising column when present

    matrix = np.hstack([cols, cols, B])
    cost = np.concatenate([np.zeros(k), np.ones(k), np.zeros(q2)])
    upper = np.concatenate([np.full(k, np.inf), np.ones(k), np.full(q2, np.inf)])
    lp = LinearProgram("maximize", cost, matrix, np.zeros(p), upper_bounds=upper)
    sol = solve(lp, settings)
    if sol.status != OPTIMAL:
        raise LpError(f"maximal-support program ended {sol.status}")

    combined = sol.primal[:k] + sol.primal[k:2 * k]
    v = sol.primal[2 * k:]
    if homogeneous:
        return np.maximum(combined, 0.0), np.maximum(v, 0.0)
    scale = combined[-1]
    if scale <= support_tol:
        raise DegenerateNormalizerError(
            f"normalising column ended at {scale:.3e}; target system is infeasible"
        )
    return (
        np.maximum(combined[:q1] / scale, 0.0),
        np.maximum(v / scale, 0.0),
    )


def build_omega_system(dataset: dea.Dataset, o: int, ram_result: dea.RamResult,
                       scheme: str = "ram", regime: str = "vrs",
                       efficient_indices=None,
                       settings: SolverSettings | None = None,
                       eff_tol: float = dea.EFF_TOL) -> OmegaSystem:
    """Assemble the optimal-pattern system for unit ``o``.

    ``ram_result`` must come from ``dea.evaluate`` for the same unit,
    scheme and regime; its exact ``slack_sum`` becomes the budget.  Pass
    ``efficient_indices`` to reuse an already-computed efficient set.
    """
    if ram_result.dmu_index != o:
        raise ValueError(f"ram_result is for unit {ram_result.dmu_index}, not {o}")
    if efficient_indices is None:
        efficient_indices = dea.efficient_set(dataset, scheme, regime, settings, eff_tol)
    members = tuple(int(j) for j in efficient_indices)
    if not members:
        raise LpError("no efficient units found; cannot form the optimal-pattern system")
    m, s = dataset.n_inputs, dataset.n_outputs
    w_in, w_out = dea.slack_weights(dataset, scheme, o)
    x_o, y_o = dataset.unit(o)
    return OmegaSystem(
        o=o,
        efficient_indices=members,
        member_inputs=dataset.inputs[:, members].copy(),
        member_outputs=dataset.outputs[:, members].copy(),
        target_inputs=x_o,
        target_outputs=y_o,
        budget_in=(m + s) * w_in,
        budget_out=(m + s) * w_out,
        slack_budget=float(ram_result.slack_sum),
        convexity=regime == "vrs",
    )


def _program_from_omega(omega: OmegaSystem) -> LinearProgram:
    """Homogenised maximal-support program over one OmegaSystem.

    Variable layout: [lam (t+1) | mu (t+1) | s_in (m) | s_out (s)] where
    index t carries the evaluated unit's negated column and every mu is
    boxed into [0, 1].  All rows have zero right-hand side.
    """
    t = len(omega.efficient_indices)
    m = omega.member_inputs.shape[0]
    s = omega.member_outputs.shape[0]
    rows = m + s + (1 if omega.convexity else 0) + 1
    budget_row = rows - 1

    # one column per intensity: the t members, then the negated target
    intensity = np.zeros((rows, t + 1))
    intensity[:m, :t] = omega.member_inputs
    intensity[m:m + s, :t] = omega.member_outputs
    intensity[:m, t] = -omega.target_inputs
    intensity[m:m + s, t] = -omega.target_outputs
    if omega.convexity:
        intensity[m + s, :t] = 1.0
        intensity[m + s, t] = -1.0
    intensity[budget_row, t] = -omega.slack_budget

    slack_cols = np.zeros((rows, m + s))
    slack_cols[:m, :m] = np.eye(m)
    slack_cols[m:m + s, m:] = -np.eye(s)
    slack_cols[budget_row, :m] = omega.budget_in
    slack_cols[budget_row, m:] = omega.budget_out

    matrix = np.hstack([intensity, intensity, slack_cols])
    q = matrix.shape[1]
    cost = np.zeros(q)
    cost[t + 1:2 * (t + 1)] = 1.0
    upper = np.full(q, np.inf)
    upper[t + 1:2 * (t + 1)] = 1.0
    upper[2 * (t + 1):2 * (t + 1) + m][omega.budget_in == 0.0] = 0.0
    upper[2 * (t + 1) + m:][omega.budget_out == 0.0] = 0.0
    return LinearProgram("maximize", cost, matrix, np.zeros(rows), upper_bounds=upper)


def build_grs_program(dataset: dea.Dataset, o: int, ram_result: dea.RamResult,
                      scheme: str = "ram", regime: str = "vrs",
                      efficient_indices=None,
                      settings: SolverSettings | None = None,
                      eff_tol: float = dea.EFF_TOL) -> LinearProgram:
    """The single LP whose optimum exposes the whole GRS of unit ``o``."""
    omega = build_omega_system(dataset, o, ram_result, scheme, regime,
                               efficient_indices, settings, eff_tol)
    return _program_from_omega(omega)


def identify_grs(dataset: dea.Dataset, o: int, ram_result: dea.RamResult,
                 scheme: str = "ram", regime: str = "vrs",
                 efficient_indices=None,
                 settings: SolverSettings | None = None,
                 support_tol: float = SUPPORT_TOL,
                 eff_tol: float = dea.EFF_TOL) -> GrsResult:
    """Identify unit ``o``'s global reference set with one solve.

    The returned weights are rescaled by the normalising column, so they
    sum to one over the efficient set under "vrs"; members are exactly
    the indices whose weight exceeds ``support_tol``.  The interior
    projection is the matching frontier point, strictly inside the
    minimum face.
    """
    omega = build_omega_system(dataset, o, ram_result, scheme, regime,
                               efficient_indices, settings, eff_tol)
    sol = solve(_program_from_omega(omega), settings)
    if sol.status != OPTIMAL:
        raise LpError(f"GRS program for unit {o} ended {sol.status}")

    t = len(omega.efficient_indices)
    m, s = dataset.n_inputs, dataset.n_outputs
    lam = sol.primal[:t + 1]
    mu = sol.primal[t + 1:2 * (t + 1)]
    s_in = sol.primal[2 * (t + 1):2 * (t + 1) + m]
    s_out = sol.primal[2 * (t + 1) + m:]
    scale = lam[t] + mu[t]
    if scale <= support_tol:
        raise DegenerateNormalizerError(
            f"normalising column for unit {o} ended at {scale:.3e}"
        )
    weights = np.maximum((lam[:t] + mu[:t]) / scale, 0.0)
    s_in = np.maximum(s_in / scale, 0.0)
    s_out = np.maximum(s_out / scale, 0.0)
    members = tuple(
        j for k, j in enumerate(omega.efficient_indices) if weights[k] > support_tol
    )
    return GrsResult(
        o=o,
        efficient_indices=omega.efficient_indices,
        weights=weights,
        members=members,
        input_slacks=s_in,
        output_slacks=s_out,
        interior_projection_inputs=omega.target_inputs - s_in,
        interior_projection_outputs=omega.target_outputs + s_out,
    )


def oracle_grs(dataset: dea.Dataset, o: int, ram_result: dea.RamResult,
               scheme: str = "ram", regime: str = "vrs",
               efficient_indices=None,
               settings: SolverSettings | None = None,
               support_tol: float = SUPPORT_TOL,
               eff_tol: float = dea.EFF_TOL) -> tuple[int, ...]:
    """Reference implementation: one solve per efficient unit.

    Maximises each member intensity separately over the optimal-pattern
    system; a unit belongs to the GRS iff its maximum exceeds
    ``support_tol``.  One solve per efficient unit instead of one solve
    total, so this is the cross-check, not the fast path.
    """
    omega = build_omega_system(dataset, o, ram_result, scheme, regime,
                               efficient_indices, settings, eff_tol)
    t = len(omega.efficient_indices)
    m, s = dataset.n_inputs, dataset.n_outputs
    rows = m + s + (1 if omega.convexity else 0) + 1
    budget_row = rows - 1

    A = np.zeros((rows, t + m + s))
    A[:m, :t] = omega.member_inputs
    A[m:m + s, :t] = omega.member_outputs
    A[:m, t:t + m] = np.eye(m)
    A[m:m + s, t + m:] = -np.eye(s)
    if omega.convexity:
        A[m + s, :t] = 1.0
    A[budget_row, t:t + m] = omega.budget_in
    A[budget_row, t + m:] = omega.budget_out
    rhs = np.concatenate([
        omega.target_inputs,
        omega.target_outputs,
        [1.0] if omega.convexity else [],
        [omega.slack_budget],
    ])
    upper = np.full(t + m + s, np.inf)
    upper[t:t + m][omega.budget_in == 0.0] = 0.0
    upper[t + m:][omega.budget_out == 0.0] = 0.0

    members = []
    for k, j in enumerate(omega.efficient_indices):
        cost = np.zeros(t + m + s)
        cost[k] = 1.0
        sol = solve(LinearProgram("maximize", cost, A, rhs, upper_bounds=upper), settings)
        if sol.status == UNBOUNDED:
            members.append(j)
        elif sol.status == OPTIMAL:
            if sol.objective_value > support_tol:
                members.append(j)
        else:
            raise LpError(
                f"optimal-pattern system for unit {o} is numerically infeasible"
            )
    return tuple(members)


def minimum_face(dataset: dea.Dataset, grs: GrsResult,
                 rank_tol: float = 1e-7) -> MinimumFace:
    """Affine dimension of the face spanned by the GRS members.

    An empty GRS (possible under "crs", where the origin itself can be
    the projection) spans the cone's apex: no vertices, dimension 0.
    """
    members = grs.members
    if len(members) <= 1:
        return MinimumFace(members, 0)
    points = np.vstack([dataset.inputs[:, members], dataset.outputs[:, members]])
    deltas = points[:, 1:] - points[:, :1]
    singular = np.linalg.svd(deltas, compute_uv=False)
    cutoff = rank_tol * max(1.0, float(singular[0]))
    return MinimumFace(members, int(np.sum(singular > cutoff)))
