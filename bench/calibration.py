"""A fixed block of work that measures how fast the host runs right now.

The benchmark's hosts change speed by tens of percent over minutes
(shared cores), and the program's wall time follows.  The worker runs
this block between report calls; dividing the program's wall time by the
median block time of the same run gives a throughput in units of host
capacity, which drifts much less than a throughput in seconds.

The block mimics one revised-simplex pivot of the timed workloads' LPs,
on a wide problem (9 rows, 520 columns, like the scoring LPs at n=250)
and a narrow one (14 rows, 20 columns, like the tiny reports): gather
and factor the basis, two triangular solves, pricing with bound masks
over every column, a third solve and a ratio test, driven from a Python
loop.  It is benchmark code, so a change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

_REPEATS = 800
_rng = np.random.default_rng(0)
_PROBLEMS = []
for _p, _q in ((9, 520), (14, 20)):
    _A = _rng.uniform(1.0, 10.0, size=(_p, _q))
    _A[:, :_p] += 10.0 * np.eye(_p)
    _PROBLEMS.append((_A, np.arange(_p), _rng.standard_normal(_q),
                      np.zeros(_q, dtype=np.int64), _rng.uniform(0.0, 1.0, _q)))


def block() -> float:
    """Run the block once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        for A, basis, cost, state, x in _PROBLEMS:
            lu = lu_factor(A[:, basis], check_finite=False)
            off_basis = x.copy()
            off_basis[basis] = 0.0
            x_basic = lu_solve(lu, A.sum(axis=1) - A @ off_basis, check_finite=False)
            duals = lu_solve(lu, cost[basis], trans=1, check_finite=False)
            reduced = cost - duals @ A
            eligible = np.flatnonzero((x < 2.0) & (((state == 0) & (reduced < -1e-9))
                                                   | ((state == 1) & (reduced > 1e-9))))
            j = int(eligible[np.argmax(np.abs(reduced[eligible]))]) if eligible.size else 0
            direction = lu_solve(lu, A[:, j], check_finite=False)
            limits = np.full(basis.size, np.inf)
            moving = direction > 1e-10
            limits[moving] = x_basic[moving] / direction[moving]
            int(np.argmin(limits))
    return time.perf_counter() - start
