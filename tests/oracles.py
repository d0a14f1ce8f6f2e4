"""Independent reference computations that only the tests need.

Everything here deliberately avoids the package's own simplex kernel:
optima and duals of a ``LinearProgram`` and global reference sets come
from scipy's HiGHS solver, optima of small box-constrained LPs from
exhaustive basic-solution enumeration, and maximal support sizes from
feasibility tests over explicit support patterns.  The supporting-intercept
program is built here as a ``LinearProgram`` in its primal, multiplier
form, one row per unit, for the package's kernel to solve beside its
envelopment form.  The slack weights, scoring optima and intercept
intervals come from ``bench/reference.py``, the one re-derivation of
each model outside the package.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from ramdea.grs import SUPPORT_TOL
from ramdea.lp import LinearProgram
from reference import slack_weights


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
    """Optimal objective and row duals of a ``LinearProgram`` via scipy's HiGHS.

    The duals are in the program's own sense: the objective's rate of
    change per unit of each right-hand side.
    """
    sign = -1.0 if program.sense == "maximize" else 1.0
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(program.lower_bounds, program.upper_bounds)]
    res = linprog(sign * program.objective, A_eq=program.constraint_matrix,
                  b_eq=program.rhs, bounds=bounds, method="highs")
    assert res.status == 0, f"reference solver failed with status {res.status}"
    return sign * res.fun, sign * res.eqlin.marginals


def hyperplane_program(dataset, x_hat, y_hat, sense):
    """Intercept LP over [u | v | omega | support slacks] anchored at (x_hat, y_hat).

    Optimises omega over hyperplanes u.y - v.x = omega with u, v >= 0,
    normalised by v . x_hat = 1, binding at the anchor and weakly above
    every observed unit.
    """
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=float))
    y_hat = np.atleast_1d(np.asarray(y_hat, dtype=float))
    q = s + m + 1 + n
    omega_col = s + m
    rows = 2 + n
    A = np.zeros((rows, q))
    rhs = np.zeros(rows)
    # multiplier normalisation at the anchor
    A[0, s:s + m] = x_hat
    rhs[0] = 1.0
    # the hyperplane is binding at the anchor
    A[1, :s] = y_hat
    A[1, s:s + m] = -x_hat
    A[1, omega_col] = -1.0
    # and weakly dominates every observed unit
    A[2:, :s] = dataset.outputs.T
    A[2:, s:s + m] = -dataset.inputs.T
    A[2:, omega_col] = -1.0
    A[2:, omega_col + 1:] = np.eye(n)
    lower = np.zeros(q)
    lower[omega_col] = -np.inf
    cost = np.zeros(q)
    cost[omega_col] = 1.0
    return LinearProgram(sense, cost, A, rhs, lower_bounds=lower)


def optimal_pattern_system(dataset, o, ram_result):
    """(A, b, bounds) of unit ``o``'s optimal-pattern system over
    [lambda | input slacks | output slacks], built from the raw data under
    the scheme and regime of ``ram_result``: input and output rows, the
    convexity row under "vrs", and the budget row pinning the weighted
    slack total at ``ram_result.slack_sum``, with zero-weight slacks
    pinned at zero."""
    n, m, s = dataset.n_dmus, dataset.n_inputs, dataset.n_outputs
    w_in, w_out = slack_weights(dataset.inputs, dataset.outputs, ram_result.scheme, o)
    rows = [
        np.hstack([dataset.inputs, np.eye(m), np.zeros((m, s))]),
        np.hstack([dataset.outputs, np.zeros((s, m)), -np.eye(s)]),
    ]
    rhs = [dataset.inputs[:, o], dataset.outputs[:, o]]
    if ram_result.regime == "vrs":
        rows.append(np.concatenate([np.ones(n), np.zeros(m + s)])[None, :])
        rhs.append([1.0])
    rows.append(np.concatenate([np.zeros(n), (m + s) * w_in, (m + s) * w_out])[None, :])
    rhs.append([ram_result.slack_sum])
    bounds = [(0, None)] * n + [(0, 0 if w == 0 else None) for w in np.concatenate([w_in, w_out])]
    return np.vstack(rows), np.concatenate(rhs), bounds


def oracle_grs(dataset, o, ram_result, support_tol=SUPPORT_TOL):
    """Global reference set of unit ``o``, one HiGHS solve per unit.

    Maximises each unit's intensity separately over the optimal-pattern
    system.  Every unit is a candidate, as the GRS is the union of the
    supports of all optimal solutions.  A unit belongs to the GRS iff its
    maximum exceeds ``support_tol`` (or is unbounded).  One solve per
    unit instead of one solve total, so this is the cross-check, not the
    fast path.
    """
    A, b, bounds = optimal_pattern_system(dataset, o, ram_result)
    problem = dict(A_eq=A, b_eq=b, bounds=bounds, method="highs")
    members = []
    for j in range(dataset.n_dmus):
        cost = np.zeros(A.shape[1])
        cost[j] = -1.0  # linprog minimises
        res = linprog(cost, **problem)
        if res.status == 2:
            # presolve may call an unbounded problem infeasible
            res = linprog(cost, options={"presolve": False}, **problem)
        assert res.status in (0, 3), f"reference solver failed with status {res.status}"
        if res.status == 3 or -res.fun > support_tol:
            members.append(j)
    return tuple(members)


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


def optimal_pattern_residuals(dataset, ram_result, grs_result):
    """Row residuals of the optimal-pattern system at an identified GRS."""
    A, b, _ = optimal_pattern_system(dataset, grs_result.o, ram_result)
    z = np.concatenate([grs_result.weights, grs_result.input_slacks, grs_result.output_slacks])
    return A @ z - b
