"""Independent check of ``ramdea report`` output, built on scipy's HiGHS.

Nothing here imports ramdea: the models are re-derived from their
definitions and solved with ``scipy.optimize.linprog(method="highs")``.

Checks, per dataset:
  rho  every unit's score, to 1e-6 relative to max(1, |rho|);
  efficient  (``efficiency`` output) every unit's flag, against the
       weighted optimum and the program's default cutoff;
  grs  on a fixed sample of units, membership of the global reference
       set over the optimal-pattern system: each reported member must be
       able to carry positive intensity, and the reported non-members
       together must not be;
  rts  on the same sample (vrs only), the returns-to-scale class implied
       by the supporting-intercept interval at the reported projection.

A check whose reference solve does not end optimal, or whose verdict
sits inside the tolerance band around a class boundary, is counted as
inconclusive rather than charged to the program.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

RHO_TOL = 1e-6
SAMPLE = 3            # units checked for grs and rts in every dataset
MEMBER_MIN = 1e-9     # a member's largest attainable intensity must exceed this
OUTSIDER_MAX = 1e-6   # non-members' largest total intensity must stay below this
RTS_TOL = 1e-6        # zero-attainability cutoff of the program's default
BAND = (0.5, 2.0)     # a verdict must agree at both ends of cutoff * band
EFF_TOL = 1e-7        # cutoff on (m+s) x the weighted optimum, the program's default


class Inconclusive(Exception):
    """The reference solver could not decide this check."""


def _linprog(cost, **problem):
    res = linprog(cost, method="highs", **problem)
    if res.status == 2:
        # HiGHS presolve can report an unbounded problem as infeasible;
        # without presolve the two are told apart
        res = linprog(cost, method="highs", options={"presolve": False}, **problem)
    return res


def slack_weights(X, Y, scheme, o):
    m, s = X.shape[0], Y.shape[0]
    if scheme == "additive":
        return np.ones(m), np.ones(s)
    if scheme == "ram":
        den_in = (m + s) * np.ptp(X, axis=1)
        den_out = (m + s) * np.ptp(Y, axis=1)
    else:  # bam: one-sided spreads from the evaluated unit
        den_in = (m + s) * (X[:, o] - X.min(axis=1))
        den_out = (m + s) * (Y.max(axis=1) - Y[:, o])
    w_in = np.divide(1.0, den_in, out=np.zeros(m), where=den_in > 0)
    w_out = np.divide(1.0, den_out, out=np.zeros(s), where=den_out > 0)
    return w_in, w_out


def _slack_bounds(w_in, w_out):
    return [(0, 0) if w == 0 else (0, None) for w in np.concatenate([w_in, w_out])]


def _pattern_system(Xc, Yc, x_o, y_o, vrs):
    """Rows [intensities | s_in | s_out] combining columns Xc, Yc into unit o."""
    m, s, t = Xc.shape[0], Yc.shape[0], Xc.shape[1]
    A = np.zeros((m + s + vrs, t + m + s))
    A[:m, :t] = Xc
    A[:m, t:t + m] = np.eye(m)
    A[m:m + s, :t] = Yc
    A[m:m + s, t + m:] = -np.eye(s)
    b = np.concatenate([x_o, y_o])
    if vrs:
        A[-1, :t] = 1.0
        b = np.append(b, 1.0)
    return A, b


def weighted_optimum(X, Y, o, scheme, regime):
    """Largest weighted slack total of unit o (the additive model)."""
    n, m, s = X.shape[1], X.shape[0], Y.shape[0]
    vrs = regime == "vrs"
    w_in, w_out = slack_weights(X, Y, scheme, o)
    A, b = _pattern_system(X, Y, X[:, o], Y[:, o], vrs)
    cost = np.concatenate([np.zeros(n), -w_in, -w_out])
    res = _linprog(cost, A_eq=A, b_eq=b,
                   bounds=[(0, None)] * n + _slack_bounds(w_in, w_out))
    if res.status != 0:
        raise Inconclusive(f"scoring reference ended with status {res.status}")
    return -float(res.fun)


def _grs_mismatch(X, Y, o, scheme, regime, frontier, members, optimum, names):
    """None when the reported GRS of unit o is right, else the reason."""
    m, s = X.shape[0], Y.shape[0]
    vrs = regime == "vrs"
    t = len(frontier)
    w_in, w_out = slack_weights(X, Y, scheme, o)
    A, b = _pattern_system(X[:, frontier], Y[:, frontier], X[:, o], Y[:, o], vrs)
    # the budget row pins the weighted slack total at the optimum, which
    # leaves exactly the optimal slack patterns
    A = np.vstack([A, np.concatenate([np.zeros(t), w_in, w_out])])
    b = np.append(b, optimum)
    bounds = [(0, None)] * t + _slack_bounds(w_in, w_out)

    def most(columns):
        cost = np.zeros(t + m + s)
        cost[columns] = -1.0
        res = _linprog(cost, A_eq=A, b_eq=b, bounds=bounds)
        if res.status == 3:
            return np.inf
        if res.status != 0:
            raise Inconclusive(f"optimal-pattern reference ended with status {res.status}")
        return -float(res.fun)

    position = {j: k for k, j in enumerate(frontier)}
    if any(j not in position for j in members):
        return "a reported member is not on the frontier"
    for j in members:
        if most([position[j]]) <= MEMBER_MIN:
            return f"member {names[j]} carries no weight in any optimal pattern"
    outsiders = [position[j] for j in frontier if j not in members]
    if outsiders and most(outsiders) >= OUTSIDER_MAX:
        return "a unit outside the reported GRS carries weight in an optimal pattern"
    return None


def intercept_interval(X, Y, x_hat, y_hat):
    """Smallest and largest supporting intercept at (x_hat, y_hat)."""
    m, s, n = X.shape[0], Y.shape[0], X.shape[1]
    # variables [u (s) | v (m) | omega]
    A_eq = np.zeros((2, s + m + 1))
    A_eq[0, s:s + m] = x_hat
    A_eq[1, :s] = y_hat
    A_eq[1, s:s + m] = -x_hat
    A_eq[1, -1] = -1.0
    A_ub = np.hstack([Y.T, -X.T, -np.ones((n, 1))])
    bounds = [(0, None)] * (s + m) + [(None, None)]
    ends = []
    for sign in (1.0, -1.0):
        cost = np.zeros(s + m + 1)
        cost[-1] = sign
        res = _linprog(cost, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=[1.0, 0.0],
                       bounds=bounds)
        if res.status == 3:
            ends.append(-sign * np.inf)
        elif res.status == 0:
            ends.append(sign * float(res.fun))
        else:
            raise Inconclusive(f"intercept reference ended with status {res.status}")
    return ends[0], ends[1]


def rts_class(omega_min, omega_max, tol):
    if omega_min <= tol and omega_max >= -tol:
        return "constant"
    return "decreasing" if omega_min > tol else "increasing"


def _rts_mismatch(X, Y, x_hat, y_hat, reported):
    lo, hi = intercept_interval(X, Y, x_hat, y_hat)
    classes = {rts_class(lo, hi, RTS_TOL * f) for f in BAND}
    if len(classes) > 1:
        raise Inconclusive("intercept interval sits on a class boundary")
    expected = classes.pop()
    if reported != expected:
        return f"rts class {reported}, reference {expected} ([{lo:.3g}, {hi:.3g}])"
    return None


def sample_units(n: int) -> list[int]:
    """First, middle and last unit: fixed, so every run checks the same ones."""
    return sorted({round(k * (n - 1) / (SAMPLE - 1)) for k in range(SAMPLE)})


def check(ds, report):
    """Verify one parsed ``report`` or ``efficiency`` json output against the reference.

    Returns ({unit name: (check, reason)} for every unit found wrong,
    [reason for every inconclusive check]).
    """
    X, Y = ds.inputs, ds.outputs
    names = ds.units()
    if [row.get("name") for row in report] != names:
        return {name: ("shape", "report does not list every unit in order") for name in names}, []
    wrong = {}
    inconclusive = []
    optima = {}
    for o, row in enumerate(report):
        try:
            optima[o] = weighted_optimum(X, Y, o, ds.scheme, ds.regime)
        except Inconclusive as exc:
            inconclusive.append(f"{names[o]} rho: {exc}")
            continue
        expected = 1.0 - optima[o] if ds.scheme == "ram" else optima[o]
        if not abs(row["rho"] - expected) <= RHO_TOL * max(1.0, abs(expected)):
            wrong[names[o]] = ("rho", f"rho {row['rho']!r}, reference {expected!r}")

    if ds.command == "efficiency":
        m_s = X.shape[0] + Y.shape[0]
        for o, optimum in optima.items():
            flags = {m_s * optimum <= EFF_TOL * f for f in BAND}
            if len(flags) > 1:
                inconclusive.append(f"{names[o]} efficient: optimum sits on the cutoff")
            elif report[o]["efficient"] != flags.pop() and names[o] not in wrong:
                wrong[names[o]] = ("efficient", f"efficient {report[o]['efficient']!r}, "
                                                f"weighted optimum {optimum!r}")
        return wrong, inconclusive

    frontier = [j for j, row in enumerate(report) if row["efficient"]]
    index = {name: j for j, name in enumerate(names)}
    for o in sample_units(len(names)):
        if names[o] in wrong or o not in optima:
            continue
        row = report[o]
        try:
            members = [index[g["name"]] for g in row["grs"]]
            reason = _grs_mismatch(X, Y, o, ds.scheme, ds.regime, frontier,
                                   members, optima[o], names)
            if reason:
                wrong[names[o]] = ("grs", reason)
                continue
            if ds.regime == "vrs":
                x_hat = np.array(list(row["projection"]["inputs"].values()))
                y_hat = np.array(list(row["projection"]["outputs"].values()))
                reason = _rts_mismatch(X, Y, x_hat, y_hat, row["rts"]["class"])
                if reason:
                    wrong[names[o]] = ("rts", reason)
        except Inconclusive as exc:
            inconclusive.append(f"{names[o]}: {exc}")
    return wrong, inconclusive
