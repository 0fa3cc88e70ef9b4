"""Correctness checks on what the ``biloc`` command writes.

Every check reads the output files as plain CSV or JSON (CSV columns by
header name) and recomputes what it needs from the instance file with its
own logistic acceptance probability, so it shares no code with the program
under test.  A check returns the list of problems it found; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

#: Relative tolerance of every floating-point identity below.
REL_TOL = 1e-6
#: Slack of the capacity and assignment rows, as the program's own checks use.
FEAS_TOL = 1e-7


def read_csv(text: str) -> list[dict]:
    """Rows of a CSV whose header may follow '#' comment lines."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _inside(value: float, bracket: dict) -> bool:
    lo = bracket["best"] if bracket["best"] is not None else -math.inf
    hi = bracket["bound"] if bracket["bound"] is not None else math.inf
    slack = REL_TOL * max(1.0, abs(value))
    return lo - slack <= value <= hi + slack


# ---------------------------------------------------------------------------
# Instance arithmetic
# ---------------------------------------------------------------------------

def logistic_rho(inst: dict, n: int, k: int, m: int, p: int) -> float:
    """P(offer (m, p) beats the outside option for category k of shipper n)."""
    model = inst["choice_model"]
    price = ladder(inst, n, m)["prices"][p]
    t = (model["alpha"] * price + model["L"][n][k][m] - model["L_optout"][n][k]) / model["beta"]
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


def ladder(inst: dict, n: int, m: int) -> dict:
    for lad in inst["price_ladders"]:
        if lad["shipper"] == n and lad["service"] == m:
            return lad
    raise KeyError((n, m))


def offers(plan: dict) -> dict:
    """{(n, k): (m, p)} for every category the plan offers a price to."""
    prices = {(o["shipper"], o["service"]): o["price_index"] for o in plan["price_choices"]}
    out = {}
    for o in plan["service_choices"]:
        key = (o["shipper"], o["service"])
        if key in prices:
            out[(o["shipper"], o["category"])] = (o["service"], prices[key])
    return out


def category_demand(inst: dict, n: int, k: int) -> float:
    return sum(c["demand"] for c in inst["customers"]
               if c["shipper"] == n and c["category"] == k)


def plan_profit(inst: dict, plan: dict) -> tuple[float, float, float]:
    """(revenue, rho-weighted allocation cost, fixed cost) of the plan."""
    offered = offers(plan)
    revenue = sum(logistic_rho(inst, n, k, m, p) * category_demand(inst, n, k)
                  * ladder(inst, n, m)["prices"][p]
                  for (n, k), (m, p) in offered.items())
    costs = inst["costs"]
    cost = 0.0
    for a in plan["allocation"]:
        cust = inst["customers"][a["customer"]]
        m, p = offered[(cust["shipper"], cust["category"])]
        rho = logistic_rho(inst, cust["shipper"], cust["category"], m, p)
        cost += rho * costs[a["facility"]][a["customer"]][a["service"]] * a["fraction"]
    fixed = sum(inst["facilities"][i]["fixed_cost"] for i in plan["open_facilities"])
    return revenue, cost, fixed


# ---------------------------------------------------------------------------
# sweep-alpha
# ---------------------------------------------------------------------------

def check_sweep(rows: list[dict], brackets: list[dict]) -> list[str]:
    """Each point inside its HiGHS bracket, objectives never decreasing
    toward alpha = 0, and trivially certified rows an all-zero prefix."""
    problems = []
    if len(rows) != len(brackets):
        return [f"sweep wrote {len(rows)} rows for {len(brackets)} points"]
    rows = sorted(rows, key=lambda r: float(r["point"]))
    prev = -math.inf
    seen_nontrivial = False
    for row, ref in zip(rows, sorted(brackets, key=lambda b: b["alpha"])):
        alpha = float(row["point"])
        if not _close(alpha, ref["alpha"], 1e-12):
            problems.append(f"point {alpha!r} has no bracket (next is {ref['alpha']!r})")
            continue
        if row["status"] not in ("optimal", "trivial"):
            problems.append(f"alpha {alpha!r}: status {row['status']}")
            continue
        obj = float(row["objective"])
        if not _inside(obj, ref):
            problems.append(f"alpha {alpha!r}: objective {obj!r} outside HiGHS "
                            f"bracket [{ref['best']!r}, {ref['bound']!r}]")
        if obj < prev - REL_TOL * max(1.0, abs(prev)):
            problems.append(f"alpha {alpha!r}: objective {obj!r} below {prev!r} "
                            "of the more price-sensitive point before it")
        prev = obj
        if row["status"] == "trivial":
            if obj != 0.0:
                problems.append(f"alpha {alpha!r}: trivial row with objective {obj!r}")
            if seen_nontrivial:
                problems.append(f"alpha {alpha!r}: trivial row after a solved one")
        else:
            seen_nontrivial = True
    return problems


# ---------------------------------------------------------------------------
# full-7x140
# ---------------------------------------------------------------------------

def plan_violations(inst: dict, plan: dict) -> list[str]:
    """Valid services and prices, every offered customer fully assigned,
    only open facilities used, capacity respected."""
    out = []
    n_fac = len(inst["facilities"])
    services = {s["id"]: s for s in inst["service_levels"]}
    priced: dict = {}
    for o in plan["price_choices"]:
        n, m, p = o["shipper"], o["service"], o["price_index"]
        try:
            size = len(ladder(inst, n, m)["prices"])
        except KeyError:
            out.append(f"shipper {n}: no ladder for priced service {m}")
            continue
        if not 0 <= p < size:
            out.append(f"shipper {n} service {m}: price position {p} out of range")
        priced[n] = priced.get(n, 0) + 1
    for n, count in priced.items():
        if count > inst["shippers"][n]["n_categories"]:
            out.append(f"shipper {n}: {count} priced services exceed its categories")
    offered = offers(plan)
    for o in plan["service_choices"]:
        n, k, m = o["shipper"], o["category"], o["service"]
        if m not in inst["shippers"][n]["services_by_category"][k]:
            out.append(f"shipper {n} category {k}: service {m} not available")
        if (n, k) not in offered:
            out.append(f"shipper {n} category {k}: service {m} has no price")
    for o in plan["price_choices"]:
        n, m, p = o["shipper"], o["service"], o["price_index"]
        try:
            level = ladder(inst, n, m)["min_demands"][p]
        except (KeyError, IndexError):
            continue
        committed = sum(category_demand(inst, nn, k)
                        for (nn, k), (mm, _p) in offered.items() if nn == n and mm == m)
        if committed < level - FEAS_TOL:
            out.append(f"shipper {n} service {m}: committed {committed} below {level}")

    open_set = set(plan["open_facilities"])
    assigned = np.zeros(len(inst["customers"]))
    load = np.zeros(n_fac)
    for a in plan["allocation"]:
        i, j, m, w = a["facility"], a["customer"], a["service"], a["fraction"]
        cust = inst["customers"][j]
        if i not in open_set:
            out.append(f"customer {j} assigned to closed facility {i}")
        if offered.get((cust["shipper"], cust["category"]), (None,))[0] != m:
            out.append(f"customer {j} assigned at service {m} it is not offered")
        if w < -FEAS_TOL:
            out.append(f"negative fraction {w} for ({i}, {j}, {m})")
        assigned[j] += w
        load[i] += services[m]["gamma"] * cust["demand"] * w
    for j, cust in enumerate(inst["customers"]):
        want = 1.0 if (cust["shipper"], cust["category"]) in offered else 0.0
        if abs(assigned[j] - want) > FEAS_TOL:
            out.append(f"customer {j} assigned {assigned[j]!r}, expected {want}")
    for i, fac in enumerate(inst["facilities"]):
        if load[i] > fac["capacity"] * (1.0 + 1e-9) + FEAS_TOL:
            out.append(f"facility {i}: load {load[i]!r} over capacity {fac['capacity']!r}")
    return out


def transport_optimum(inst: dict, plan: dict) -> float:
    """Cheapest rho-weighted allocation of the plan's offers to its open
    facilities, by scipy's HiGHS linear programming."""
    from scipy.optimize import linprog

    offered = offers(plan)
    open_fac = sorted(plan["open_facilities"])
    served = [(j, c) for j, c in enumerate(inst["customers"])
              if (c["shipper"], c["category"]) in offered]
    F, C = len(open_fac), len(served)
    cost = np.empty((F, C))
    load = np.empty(C)
    for col, (j, c) in enumerate(served):
        n, k = c["shipper"], c["category"]
        m, p = offered[(n, k)]
        rho = logistic_rho(inst, n, k, m, p)
        load[col] = inst["service_levels"][m]["gamma"] * c["demand"]
        for row, i in enumerate(open_fac):
            cost[row, col] = rho * inst["costs"][i][j][m]
    a_eq = np.zeros((C, F * C))
    a_ub = np.zeros((F, F * C))
    for col in range(C):
        a_eq[col, col::C] = 1.0
    for row in range(F):
        a_ub[row, row * C:(row + 1) * C] = load
    caps = [inst["facilities"][i]["capacity"] for i in open_fac]
    res = linprog(cost.ravel(), A_ub=a_ub, b_ub=caps, A_eq=a_eq, b_eq=np.ones(C),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"transportation LP of the plan: {res.message}")
    return float(res.fun)


def check_full(inst: dict, plan: dict, ref: dict, transport_lp=transport_optimum
               ) -> list[str]:
    """Optimal with gap 0, feasible, objective = revenue - cost - fixed, the
    allocation an optimal transportation plan, and the objective inside the
    HiGHS bracket and equal to the recorded optimum."""
    problems = []
    if plan["status"] != "optimal" or plan["gap"] != 0.0:
        problems.append(f"status {plan['status']} with gap {plan['gap']!r}")
    problems += plan_violations(inst, plan)
    revenue, cost, fixed = plan_profit(inst, plan)
    obj = plan["objective"]
    if not _close(obj, revenue - cost - fixed):
        problems.append(f"objective {obj!r} is not revenue - cost - fixed = "
                        f"{revenue - cost - fixed!r}")
    best_cost = transport_lp(inst, plan)
    if not _close(cost, best_cost):
        problems.append(f"allocation cost {cost!r} differs from the "
                        f"transportation optimum {best_cost!r}")
    if not _inside(obj, ref):
        problems.append(f"objective {obj!r} outside HiGHS bracket "
                        f"[{ref['best']!r}, {ref['bound']!r}]")
    if not _close(obj, ref["recorded_objective"], 1e-9):
        problems.append(f"objective {obj!r} differs from the recorded optimum "
                        f"{ref['recorded_objective']!r}")
    return problems


# ---------------------------------------------------------------------------
# replay-desk
# ---------------------------------------------------------------------------

def check_replay(inst: dict, plan: dict, rho_rows: list[dict], sim_rows: list[dict],
                 scenarios: int) -> list[str]:
    """SAA rho within 5 sigma of the logistic value, reduced-mode mean within
    4 standard errors of the plan's expected profit, reallocation mean at
    least the reduced mean, no infeasible scenario."""
    problems = []
    expected_keys = sum(len(ladder(inst, s["id"], m)["prices"])
                        for s in inst["shippers"] for ms in s["services_by_category"]
                        for m in ms)
    if len(rho_rows) != expected_keys:
        problems.append(f"rho table has {len(rho_rows)} rows, expected {expected_keys}")
    for row in rho_rows:
        n, k, m, p = (int(row[c]) for c in ("shipper", "category", "service", "price_index"))
        rho = logistic_rho(inst, n, k, m, p)
        sigma = math.sqrt(rho * (1.0 - rho) / scenarios)
        saa = float(row["rho_saa"])
        if abs(saa - rho) > 5.0 * sigma + 0.5 / scenarios:
            problems.append(f"rho_saa({n},{k},{m},{p}) = {saa!r} is "
                            f"{abs(saa - rho) / sigma:.1f} sigma from {rho!r}")
    by_mode = {row["mode"]: row for row in sim_rows}
    reduced = by_mode.get("reduced-consistent")
    realloc = by_mode.get("per-scenario-reallocation")
    if reduced is None or realloc is None:
        return problems + [f"simulate wrote modes {sorted(by_mode)}"]
    for row in (reduced, realloc):
        if int(row["scenarios"]) != scenarios:
            problems.append(f"{row['mode']}: {row['scenarios']} scenarios")
        if int(row["infeasible"]) != 0:
            problems.append(f"{row['mode']}: {row['infeasible']} infeasible scenarios")
    revenue, cost, fixed = plan_profit(inst, plan)
    expected = revenue - cost - fixed
    mean, stderr = float(reduced["mean_profit"]), float(reduced["std_error"])
    if not abs(mean - expected) <= 4.0 * stderr:
        problems.append(f"reduced mean {mean!r} is not within 4 standard errors "
                        f"({stderr!r}) of the expected profit {expected!r}")
    realloc_mean = float(realloc["mean_profit"])
    if realloc_mean < mean - 1e-9 * max(1.0, abs(mean)):
        problems.append(f"reallocation mean {realloc_mean!r} below the reduced "
                        f"mean {mean!r}")
    return problems
