"""Shared first-stage evaluation: offers -> transportation -> profit.

An *offer map* assigns to some categories a (service, price-position) pair;
these helpers translate offer maps into transportation subproblems and
evaluate them against a fixed facility set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..choice import RhoTable
from ..milp import Solution
from .transportation import TransportResult, solve_transportation

if TYPE_CHECKING:  # pragma: no cover
    from ..instance import Instance


def offers_from_solution(inst: "Instance", solution: Solution) -> dict:
    """{(n, k): (m, p)} for every category the solution actually offers."""
    offers = {}
    for (n, k), m in solution.service_choices.items():
        p = solution.price_choices.get((n, m))
        if p is not None:
            offers[(n, k)] = (m, p)
    return offers


def serving_problem(inst: "Instance", offers: dict, open_facilities,
                    rho: RhoTable | None, accepted=None):
    """Transportation inputs for the given offers and open facilities.

    Returns (served customer ids, their services, cost matrix, loads,
    capacities).  Costs are probability-weighted when ``rho`` is given (the
    deterministic reduction) and raw otherwise (per-scenario realization).
    ``accepted`` optionally restricts to a subset of the offered categories.
    """
    open_facilities = list(open_facilities)
    served: list[int] = []
    services: list[int] = []
    weight: list[float] = []
    for (n, k), (m, p) in sorted(offers.items()):
        if accepted is not None and (n, k) not in accepted:
            continue
        factor = rho.get(n, k, m, p) if rho is not None else 1.0
        for j in inst.customers_by_category[(n, k)]:
            served.append(j)
            services.append(m)
            weight.append(factor)
    if not served:
        return [], [], np.zeros((len(open_facilities), 0)), np.zeros(0), np.array(
            [inst.facilities[i].capacity for i in open_facilities])
    cost = np.empty((len(open_facilities), len(served)))
    loads = np.empty(len(served))
    for col, (j, m, factor) in enumerate(zip(served, services, weight)):
        loads[col] = inst.service_levels[m].gamma * inst.customers[j].demand
        for row, i in enumerate(open_facilities):
            cost[row, col] = factor * inst.costs[i, j, m]
    caps = np.array([inst.facilities[i].capacity for i in open_facilities])
    return served, services, cost, loads, caps


def offer_revenue(inst: "Instance", rho: RhoTable, offers: dict) -> float:
    return sum(
        rho.get(n, k, m, p) * inst.category_demand(n, k) * inst.ladder(n, m).prices[p]
        for (n, k), (m, p) in offers.items()
    )


def transport_offers(inst: "Instance", offers: dict, open_facilities,
                     rho: RhoTable | None = None, accepted=None
                     ) -> tuple[TransportResult, dict]:
    """Solve the allocation for the offers; returns the result and the flow
    map {(i, j, m): w}."""
    served, services, cost, loads, caps = serving_problem(
        inst, offers, open_facilities, rho, accepted
    )
    result = solve_transportation(cost, loads, caps)
    flows: dict = {}
    if result.status == "optimal" and result.w is not None and served:
        open_list = list(open_facilities)
        for row in range(result.w.shape[0]):
            for col in range(result.w.shape[1]):
                w = result.w[row, col]
                if w > 1e-12:
                    flows[(open_list[row], served[col], services[col])] = float(w)
    return result, flows


def evaluate_offers(inst: "Instance", rho: RhoTable, offers: dict,
                    open_facilities) -> tuple[str, float, dict]:
    """(status, expected profit, flows) of a first stage with fixed facilities."""
    result, flows = transport_offers(inst, offers, open_facilities, rho)
    if result.status != "optimal":
        return "infeasible", float("-inf"), {}
    revenue = offer_revenue(inst, rho, offers)
    fixed = sum(inst.facilities[i].fixed_cost for i in open_facilities)
    return "optimal", revenue - result.cost - fixed, flows
