"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the package's own simplex kernel:
scores come from scipy's HiGHS solver, optima of small box-constrained
LPs from exhaustive basic-solution enumeration, and maximal support
sizes from feasibility tests over explicit support patterns.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog


def best_vertex_objective(program):
    """Optimum of a finitely-boxed equality LP by basic-solution enumeration.

    Enumerates every choice of basic columns and every lower/upper
    pattern for the remaining variables; requires all bounds finite.
    Returns None when no feasible basic solution exists.
    """
    A = program.constraint_matrix
    b = program.rhs
    lo, hi = program.lower_bounds, program.upper_bounds
    c = program.objective
    p, q = A.shape
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    best = None
    better = max if program.sense == "maximize" else min
    for basic in itertools.combinations(range(q), p):
        basic = list(basic)
        nonbasic = [j for j in range(q) if j not in basic]
        A_basic = A[:, basic]
        for pattern in itertools.product((0, 1), repeat=len(nonbasic)):
            x = np.empty(q)
            for j, bit in zip(nonbasic, pattern):
                x[j] = hi[j] if bit else lo[j]
            rhs = b - A[:, nonbasic] @ x[nonbasic] if nonbasic else b.copy()
            try:
                x[basic] = np.linalg.solve(A_basic, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.allclose(A_basic @ x[basic], rhs, atol=1e-7):
                continue  # near-singular basis, unreliable
            if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
                continue
            value = float(c @ x)
            best = value if best is None else better(best, value)
    return best


def lp_optimum_highs(program):
    """Optimal objective of a ``LinearProgram`` via scipy's HiGHS solver."""
    sign = -1.0 if program.sense == "maximize" else 1.0
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(program.lower_bounds, program.upper_bounds)]
    res = linprog(sign * program.objective, A_eq=program.constraint_matrix,
                  b_eq=program.rhs, bounds=bounds, method="highs")
    assert res.status == 0, f"reference solver failed with status {res.status}"
    return sign * res.fun


def ram_score_linprog(dataset, o, regime="vrs"):
    """Range-adjusted efficiency of unit ``o`` via scipy's HiGHS solver."""
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    spread_in = np.ptp(dataset.inputs, axis=1)
    spread_out = np.ptp(dataset.outputs, axis=1)
    w_in = np.where(spread_in > 0, 1.0 / ((m + s) * np.where(spread_in > 0, spread_in, 1.0)), 0.0)
    w_out = np.where(spread_out > 0, 1.0 / ((m + s) * np.where(spread_out > 0, spread_out, 1.0)), 0.0)

    q = n + m + s
    cost = np.concatenate([np.zeros(n), -w_in, -w_out])  # linprog minimises
    rows = m + s + (1 if regime == "vrs" else 0)
    A_eq = np.zeros((rows, q))
    A_eq[:m, :n] = dataset.inputs
    A_eq[:m, n:n + m] = np.eye(m)
    A_eq[m:m + s, :n] = dataset.outputs
    A_eq[m:m + s, n + m:] = -np.eye(s)
    b_eq = np.concatenate([dataset.inputs[:, o], dataset.outputs[:, o]])
    if regime == "vrs":
        A_eq[-1, :n] = 1.0
        b_eq = np.concatenate([b_eq, [1.0]])
    bounds = [(0, None)] * n
    bounds += [(0, 0) if w == 0 else (0, None) for w in w_in]
    bounds += [(0, 0) if w == 0 else (0, None) for w in w_out]
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, f"reference solver failed with status {res.status}"
    return 1.0 + res.fun


def support_pattern_attainable(A, B, d, subset, tol=1e-7):
    """Is there a feasible (u, v) with u strictly positive on ``subset``?

    Decided exactly by maximising the common margin tau with u_j >= tau
    on the subset and tau capped at one.
    """
    p, q1 = A.shape
    q2 = B.shape[1]
    nv = q1 + q2 + 1
    cost = np.zeros(nv)
    cost[-1] = -1.0
    A_eq = np.hstack([A, B, np.zeros((p, 1))])
    A_ub = b_ub = None
    if subset:
        A_ub = np.zeros((len(subset), nv))
        for r, j in enumerate(subset):
            A_ub[r, j] = -1.0
            A_ub[r, -1] = 1.0
        b_ub = np.zeros(len(subset))
    bounds = [(0, None)] * (q1 + q2) + [(0, 1)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.asarray(d, dtype=float),
                  bounds=bounds, method="highs")
    return res.status == 0 and -res.fun > tol


def max_support_size_bruteforce(A, B, d):
    """Largest attainable u-support size, by enumerating support patterns."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.zeros((A.shape[0], 0)) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    d = np.zeros(A.shape[0]) if d is None else np.asarray(d, dtype=float)
    q1 = A.shape[1]
    for size in range(q1, -1, -1):
        for subset in itertools.combinations(range(q1), size):
            if support_pattern_attainable(A, B, d, subset):
                return size
    return 0


def optimal_pattern_residuals(dataset, ram_result, grs_result, regime="vrs"):
    """Row residuals of the optimal-pattern system at an identified GRS.

    Re-derives every row from the raw data (range-adjusted weighting):
    input rows, output rows, the convexity row under "vrs", and the
    budget row pinning the weighted slack total at the stage-1 optimum.
    """
    o = grs_result.o
    members = list(grs_result.efficient_indices)
    lam = np.zeros(dataset.n_dmus)
    lam[members] = grs_result.weights
    r_in = dataset.inputs @ lam + grs_result.input_slacks - dataset.inputs[:, o]
    r_out = dataset.outputs @ lam - grs_result.output_slacks - dataset.outputs[:, o]
    rows = [r_in, r_out]
    if regime == "vrs":
        rows.append(np.array([lam.sum() - 1.0]))
    spread_in = np.ptp(dataset.inputs, axis=1)
    spread_out = np.ptp(dataset.outputs, axis=1)
    coeff_in = np.where(spread_in > 0, 1.0 / np.where(spread_in > 0, spread_in, 1.0), 0.0)
    coeff_out = np.where(spread_out > 0, 1.0 / np.where(spread_out > 0, spread_out, 1.0), 0.0)
    budget = coeff_in @ grs_result.input_slacks + coeff_out @ grs_result.output_slacks
    rows.append(np.array([budget - ram_result.slack_sum]))
    return np.concatenate(rows)
