"""Dense-tableau primal simplex with a Bland's-rule fallback.

Two-phase method over an explicit tableau; adequate for the desk-scale row
and column counts this package works with (up to roughly 10^4 tableau cells
per pivot).  It serves the general LPs only: the relaxation engine's node
relaxations and ``solve_lp`` for LP files.  Leaf transportation problems go
to the network kernel in ``transportation.py``.  A revised or sparse kernel
is the documented extension point for anything larger.

Pricing is Dantzig's rule, switching to Bland's rule after a degeneracy
streak; a run that stalls or hits a numerically unusable pivot is restarted
from scratch under pure Bland's rule before giving up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..milp import MilpModel

EPS_REDUCED_COST = 1e-9
EPS_PIVOT = 1e-10
EPS_FEASIBILITY = 1e-7
DEGENERACY_STREAK = 60


class SimplexError(RuntimeError):
    """The kernel failed even after the Bland's-rule restart."""


class _Stall(Exception):
    pass


@dataclass
class DenseLpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "time_limit"
    x: np.ndarray | None
    objective: float | None  # minimization sense
    iterations: int
    max_residual: float


def _pivot_loop(T: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                rule: str, max_iters: int, deadline: float | None) -> tuple[str, int]:
    """Run pivots on tableau T (objective in the last row, rhs in the last
    column) until the objective row is nonnegative over allowed columns, or
    until the clock passes ``deadline`` (None = never)."""
    m = T.shape[0] - 1
    degenerate_streak = 0
    bland = rule == "bland"
    for iteration in range(max_iters):
        if deadline is not None and time.perf_counter() > deadline:
            return "time_limit", iteration
        obj = T[-1, :-1]
        candidates = np.where(allowed & (obj < -EPS_REDUCED_COST))[0]
        if candidates.size == 0:
            return "optimal", iteration
        if bland or degenerate_streak > DEGENERACY_STREAK:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(obj[candidates])])

        column = T[:m, col]
        positive = np.where(column > EPS_PIVOT)[0]
        if positive.size == 0:
            return "unbounded", iteration
        ratios = T[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[ratios <= best + 1e-12]
        # lowest basis index among ties resists cycling
        if ties.size == 1:
            row = int(ties[0])
        else:
            row = int(ties[np.argmin(basis[ties])])

        if best <= 1e-12:
            degenerate_streak += 1
        else:
            degenerate_streak = 0

        _pivot(T, basis, row, col)
    raise _Stall(f"no convergence in {max_iters} pivots")


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Bring column ``col`` into the basis at ``row``, in place."""
    pivot = T[row, col]
    if abs(pivot) < EPS_PIVOT:
        raise _Stall(f"pivot element {pivot} too small")
    T[row, :] /= pivot
    col_vals = T[:, col].copy()
    col_vals[row] = 0.0
    T -= col_vals[:, None] * T[row, :]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _solve_once(c: np.ndarray, A: np.ndarray, senses: list[str], b: np.ndarray,
                rule: str, deadline: float | None) -> DenseLpResult:
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    senses = list(senses)
    for i in range(m):
        if b[i] < 0:
            A[i, :] *= -1.0
            b[i] *= -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_rows = [i for i, s in enumerate(senses) if s == "<="]
    surplus_rows = [i for i, s in enumerate(senses) if s == ">="]
    art_rows = [i for i, s in enumerate(senses) if s in (">=", "=")]
    n_slack, n_surplus, n_art = len(slack_rows), len(surplus_rows), len(art_rows)
    total = n + n_slack + n_surplus + n_art

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = np.empty(m, dtype=int)
    for idx, i in enumerate(slack_rows):
        T[i, n + idx] = 1.0
        basis[i] = n + idx
    for idx, i in enumerate(surplus_rows):
        T[i, n + n_slack + idx] = -1.0
    for idx, i in enumerate(art_rows):
        T[i, n + n_slack + n_surplus + idx] = 1.0
        basis[i] = n + n_slack + n_surplus + idx

    allowed = np.ones(total, dtype=bool)
    iterations = 0
    max_iters = 2000 + 60 * (m + total)

    if n_art:
        # phase 1: reduced costs of min(sum of artificials), canonicalized
        # (unit costs on the artificial columns themselves cancel to zero)
        art_start = n + n_slack + n_surplus
        T[-1, :] = 0.0
        for i in art_rows:
            T[-1, :] -= T[i, :]
        T[-1, art_start:-1] += 1.0
        status, used = _pivot_loop(T, basis, allowed, rule, max_iters, deadline)
        iterations += used
        if status == "time_limit":
            return DenseLpResult(status, None, None, iterations, 0.0)
        if status == "unbounded":
            raise _Stall("phase 1 unbounded; numerical trouble")
        if T[-1, -1] < -EPS_FEASIBILITY:
            return DenseLpResult("infeasible", None, None, iterations, 0.0)
        leftover = sum(
            T[row, -1] for row in range(m) if basis[row] >= art_start
        )
        if leftover > EPS_FEASIBILITY:
            raise _Stall(f"phase 1 left artificial mass {leftover}")
        # pivot leftover artificials out of the basis where possible
        for row in range(m):
            if basis[row] >= art_start:
                options = np.where(np.abs(T[row, :art_start]) > EPS_PIVOT)[0]
                options = options[allowed[options]]
                if options.size:
                    _pivot(T, basis, row, int(options[0]))
        allowed[art_start:] = False

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = c
    for row in range(m):
        col = basis[row]
        coeff = T[-1, col]
        if coeff != 0.0:
            T[-1, :] -= coeff * T[row, :]
    status, used = _pivot_loop(T, basis, allowed, rule, max_iters, deadline)
    iterations += used
    if status != "optimal":
        return DenseLpResult(status, None, None, iterations, 0.0)

    x = np.zeros(total)
    x[basis] = T[:m, -1]
    x_orig = x[:n]
    residual = 0.0
    lhs = A @ x_orig
    for i, sense in enumerate(senses):
        if sense == "<=":
            residual = max(residual, lhs[i] - b[i])
        elif sense == ">=":
            residual = max(residual, b[i] - lhs[i])
        else:
            residual = max(residual, abs(lhs[i] - b[i]))
    return DenseLpResult("optimal", x_orig, float(-T[-1, -1]), iterations,
                         float(max(residual, 0.0)))


def solve_dense_lp(c: np.ndarray, A: np.ndarray, senses: list[str],
                   b: np.ndarray) -> DenseLpResult:
    """Minimize c'x subject to A x {<=,>=,=} b and x >= 0."""
    return _solve_dense_lp(c, A, senses, b, None)


def _solve_dense_lp(c: np.ndarray, A: np.ndarray, senses: list[str],
                    b: np.ndarray, deadline: float | None) -> DenseLpResult:
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}")
    try:
        return _solve_once(c, A, senses, b, "dantzig", deadline)
    except _Stall:
        try:
            return _solve_once(c, A, senses, b, "bland", deadline)
        except _Stall as exc:
            raise SimplexError(f"simplex failed even under Bland's rule: {exc}") from exc


@dataclass
class LpSolution:
    """Continuous-relaxation solution of a model."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "time_limit"
    values: dict
    objective: float | None  # in the model's own sense
    max_residual: float = 0.0


def solve_lp(model: MilpModel, fixed: dict | None = None) -> LpSolution:
    """Solve the continuous relaxation of a model with the dense kernel.

    ``fixed`` maps variable tags or indices to values; those columns
    are substituted out before solving.  All model variables must have a zero
    lower bound (true for every model this package builds); finite upper
    bounds become explicit rows, except that single-variable constraint rows
    are folded into the bounds first.
    """
    return _solve_lp(model, fixed, None)


def _solve_lp(model: MilpModel, fixed: dict | None,
              deadline: float | None) -> LpSolution:
    """``solve_lp``, stopped with status ``time_limit`` past ``deadline``."""
    fixed_by_index = {
        key if isinstance(key, int) else model.var_index(key): float(value)
        for key, value in (fixed or {}).items()
    }

    free = [i for i in range(len(model.variables)) if i not in fixed_by_index]
    for i in free:
        if model.variables[i].lb != 0.0:
            raise SimplexError(
                f"variable {model.variables[i].name} has nonzero lower bound; "
                "the dense kernel expects x >= 0"
            )
    col_of = {idx: pos for pos, idx in enumerate(free)}
    n = len(free)

    sign = -1.0 if model.maximize else 1.0
    c = np.zeros(n)
    constant = 0.0
    for idx, coeff in model.objective.items():
        if idx in fixed_by_index:
            constant += coeff * fixed_by_index[idx]
        else:
            c[col_of[idx]] = sign * coeff

    rows: list[np.ndarray] = []
    senses: list[str] = []
    rhs: list[float] = []
    upper = {idx: model.variables[idx].ub for idx in free}
    for con in model.constraints:
        row = np.zeros(n)
        shift = 0.0
        entries: list[tuple[int, float]] = []
        for idx, coeff in con.coeffs.items():
            if coeff == 0.0:
                continue
            if idx in fixed_by_index:
                shift += coeff * fixed_by_index[idx]
            else:
                row[col_of[idx]] = coeff
                entries.append((idx, coeff))
        bound = con.rhs - shift
        if len(entries) == 1 and con.sense != "=":
            # single-variable row: fold into the bounds (x >= 0 throughout)
            idx, coeff = entries[0]
            le = con.sense == "<=" if coeff > 0 else con.sense == ">="
            limit = bound / coeff
            if le:
                upper[idx] = min(upper[idx], limit)
                continue
            if limit <= 0.0:
                continue  # implied by nonnegativity
        elif not entries:
            ok = ((con.sense == "<=" and 0.0 <= bound + EPS_FEASIBILITY)
                  or (con.sense == ">=" and 0.0 >= bound - EPS_FEASIBILITY)
                  or (con.sense == "=" and abs(bound) <= EPS_FEASIBILITY))
            if not ok:
                return LpSolution("infeasible", {}, None)
            continue
        rows.append(row)
        senses.append(con.sense)
        rhs.append(bound)
    for idx in free:
        ub = upper[idx]
        if ub < 0.0:
            return LpSolution("infeasible", {}, None)
        if np.isfinite(ub):
            row = np.zeros(n)
            row[col_of[idx]] = 1.0
            rows.append(row)
            senses.append("<=")
            rhs.append(ub)

    if n == 0:
        # everything fixed: every row was constant and is checked above
        values = {model.variables[i].name: v for i, v in fixed_by_index.items()}
        return LpSolution("optimal", values, constant)

    result = _solve_dense_lp(c, np.vstack(rows), senses, np.asarray(rhs), deadline)
    if result.status != "optimal":
        return LpSolution(result.status, {}, None)

    values = {}
    for idx in free:
        values[model.variables[idx].name] = float(result.x[col_of[idx]])
    for idx, value in fixed_by_index.items():
        values[model.variables[idx].name] = value
    objective = sign * result.objective + constant
    return LpSolution("optimal", values, objective, max_residual=result.max_residual)
