"""The LP-file route: any model, built or parsed from LP text, solved by HiGHS
(Huangfu & Hall 2018) through ``scipy.optimize.milp``.

``solve_lp`` solves the continuous relaxation and ``solve_milp`` the model
with its binaries integral; both hand HiGHS the same arrays from
``_arrays``.  scipy is imported inside each call, so ``import biloc`` loads
none of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..milp import MilpModel, Solution
from .bnb import _GAP_TOL, SolverError


@dataclass
class LpSolution:
    """Continuous-relaxation solution of a model."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: dict
    objective: float | None  # in the model's own sense


def _arrays(model: MilpModel, fixed: dict | None = None):
    """The model as HiGHS takes it: minimization-form costs, one sparse
    ``LinearConstraint`` and ``Bounds``.  ``fixed`` maps variable tags or
    indices to values, at which those columns are closed."""
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.sparse import csr_array

    n, cons = len(model.variables), model.constraints
    sign = -1.0 if model.maximize else 1.0
    cost = np.zeros(n)
    cost[list(model.objective)] = [sign * coef for coef in model.objective.values()]
    lower = np.array([var.lb for var in model.variables])
    upper = np.array([var.ub for var in model.variables])
    for key, value in (fixed or {}).items():
        idx = key if isinstance(key, int) else model.var_index(key)
        lower[idx] = upper[idx] = value
    sizes = [len(con.coeffs) for con in cons]
    rows = np.repeat(np.arange(len(cons)), sizes)
    cols = np.fromiter(chain.from_iterable(con.coeffs for con in cons), int, sum(sizes))
    vals = np.fromiter(chain.from_iterable(con.coeffs.values() for con in cons), float,
                       sum(sizes))
    rhs = np.array([con.rhs for con in cons])
    senses = np.array([con.sense for con in cons])
    matrix = csr_array((vals, (rows, cols)), shape=(len(cons), n))
    rows_in = LinearConstraint(matrix, np.where(senses == "<=", -np.inf, rhs),
                               np.where(senses == ">=", np.inf, rhs))
    return cost, rows_in, Bounds(lower, upper)


def _objective(model: MilpModel, fun: float) -> float:
    """HiGHS's minimum in the model's own sense; + 0.0 turns -0.0 into 0.0."""
    return float(-fun if model.maximize else fun) + 0.0


def solve_lp(model: MilpModel, fixed: dict | None = None) -> LpSolution:
    """Solve the continuous relaxation of a model, with the columns in
    ``fixed`` (variable tags or indices to values) closed at their values."""
    from scipy.optimize import milp

    cost, rows, bounds = _arrays(model, fixed)
    result = milp(cost, constraints=rows, bounds=bounds)
    if result.status != 0:
        return LpSolution("unbounded" if result.status == 3 else "infeasible", {}, None)
    return LpSolution("optimal", _named(model, result.x), _objective(model, result.fun))


def solve_milp(model: MilpModel, budget: float | None = None) -> Solution:
    """Solve any model, built or parsed from LP text, with its binaries
    integral, and report the objective in the model's own sense.  ``budget``
    is a wall-clock limit in seconds (None = none) from the call, which
    includes the conversion to arrays and a first call's import of scipy; a
    model with an unbounded relaxation raises ``SolverError``."""
    start = time.perf_counter()
    from scipy.optimize import milp

    cost, rows, bounds = _arrays(model)
    options = {"mip_rel_gap": _GAP_TOL}
    if budget is not None:
        options["time_limit"] = max(0.0, budget - (time.perf_counter() - start))
    integrality = np.array([var.kind == "binary" for var in model.variables], dtype=int)
    result = milp(cost, constraints=rows, integrality=integrality, bounds=bounds,
                  options=options)
    nodes = result.get("mip_node_count") or 0
    seconds = time.perf_counter() - start
    if result.status == 0:
        return _solution_from_values(model, _objective(model, result.fun),
                                     _named(model, result.x), "optimal", nodes, seconds, 0.0)
    if result.status != 1:
        # infeasible, unbounded, or HiGHS could not tell which: the relaxation
        # decides, since an unbounded one leaves no bound to prove optimality
        if solve_lp(model).status == "unbounded":
            raise SolverError("the model's continuous relaxation is unbounded")
        return Solution(status="infeasible", objective=float("-inf"), nodes=nodes,
                        seconds=time.perf_counter() - start)
    if result.x is not None:
        gap = max(0.0, result.fun - result.mip_dual_bound) / max(1.0, abs(result.fun))
        return _solution_from_values(model, _objective(model, result.fun),
                                     _named(model, result.x), "time_limit", nodes, seconds,
                                     gap)
    zero_ok = all(
        (con.sense == "<=" and con.rhs >= -1e-12)
        or (con.sense == ">=" and con.rhs <= 1e-12)
        or (con.sense == "=" and abs(con.rhs) <= 1e-12)
        for con in model.constraints
    ) and all(v.lb <= 0.0 <= v.ub for v in model.variables)
    if zero_ok:
        # the all-zero point is feasible: report it, with its gap open
        return _solution_from_values(model, 0.0, {}, "time_limit", nodes, seconds,
                                     float("inf"))
    return Solution(status="time_limit", objective=float("-inf"), nodes=nodes,
                    seconds=seconds, gap=float("inf"))


def _named(model: MilpModel, x: np.ndarray) -> dict:
    return dict(zip((var.name for var in model.variables), x.tolist()))


def _solution_from_values(model: MilpModel, objective: float, values: dict,
                          status: str, nodes: int, seconds: float,
                          gap: float) -> Solution:
    open_facilities = []
    price_choices = {}
    service_choices = {}
    allocation = {}
    revenue = cost = fixed = 0.0
    for idx, var in enumerate(model.variables):
        value = values.get(var.name, 0.0)
        tag = var.tag
        coef = model.objective.get(idx, 0.0)
        if tag[0] == "r" and value > 0.5:
            open_facilities.append(tag[1])
            fixed += -coef
        elif tag[0] == "y" and value > 0.5:
            price_choices[(tag[1], tag[2])] = tag[3]
        elif tag[0] == "z" and value > 0.5:
            service_choices[(tag[1], tag[2])] = tag[3]
        elif tag[0] == "w" and value > 1e-9:
            allocation[(tag[1], tag[2], tag[3])] = float(value)
        elif tag[0] == "pi":
            revenue += coef * value
        elif tag[0] == "nu":
            cost += -coef * value
    return Solution(
        status=status, objective=float(objective),
        open_facilities=tuple(sorted(open_facilities)),
        price_choices=price_choices, service_choices=service_choices,
        allocation=allocation, revenue=float(revenue),
        assignment_cost=float(cost), fixed_cost=float(fixed), nodes=nodes,
        seconds=seconds, gap=gap,
    )
