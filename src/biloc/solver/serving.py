"""Shared first-stage evaluation: offers -> transportation -> profit.

An *offer map* assigns to some categories a (service, price-position) pair;
these helpers translate offer maps into transportation subproblems and
evaluate them against a fixed facility set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..choice import RhoTable
from ..milp import Solution, offer_revenue, offer_summary, profit_report
from .transportation import TransportResult, solve_transportation

if TYPE_CHECKING:  # pragma: no cover
    from ..instance import Instance


def solution_from_offers(inst: "Instance", rho: RhoTable, status: str,
                         objective: float, offers: dict, open_facilities,
                         flows: dict, nodes: int, seconds: float = 0.0,
                         gap: float = 0.0) -> Solution:
    """Solution serving the offer map {(n, k): (m, p)} from the open
    facilities with the given flows, with its profit breakdown and offer
    summary; the inverse of ``Solution.offers``."""
    solution = Solution(
        status=status,
        objective=float(objective),
        open_facilities=tuple(sorted(open_facilities)),
        price_choices={(n, m): p for (n, _k), (m, p) in offers.items()},
        service_choices={(n, k): m for (n, k), (m, _p) in offers.items()},
        allocation=dict(flows),
        nodes=nodes,
        seconds=seconds,
        gap=gap,
    )
    solution.revenue, solution.assignment_cost, solution.fixed_cost = profit_report(
        inst, rho, solution)
    solution.offer_summary = offer_summary(inst, rho, solution)
    return solution


def serving_problem(inst: "Instance", offers: dict, open_facilities,
                    rho: RhoTable | None, accepted=None):
    """Transportation inputs for the given offers and open facilities.

    Returns (served customer ids, their services, cost matrix, loads,
    capacities), the first two as integer arrays.  Costs are
    probability-weighted when ``rho`` is given (the deterministic reduction)
    and raw otherwise (per-scenario realization).  ``accepted`` optionally
    restricts to a subset of the offered categories.
    """
    open_facilities = list(open_facilities)
    caps = np.array([inst.facilities[i].capacity for i in open_facilities])
    chosen = [(nk, mp) for nk, mp in sorted(offers.items())
              if accepted is None or nk in accepted]
    members = [inst.category_members[nk] for nk, _mp in chosen]
    counts = [len(ids) for ids, _demands in members]
    if not sum(counts):
        empty = np.zeros(0, dtype=int)
        return empty, empty, np.zeros((len(open_facilities), 0)), np.zeros(0), caps
    served = np.concatenate([ids for ids, _demands in members])
    services = np.repeat([m for _nk, (m, _p) in chosen], counts)
    loads = np.concatenate([inst.service_levels[m].gamma * demands
                            for (_nk, (m, _p)), (_ids, demands) in zip(chosen, members)])
    weight = np.repeat([rho.get(n, k, m, p) if rho is not None else 1.0
                        for (n, k), (m, p) in chosen], counts)
    rows = np.array(open_facilities, dtype=int)[:, None]
    cost = weight[None, :] * inst.costs[rows, served, services]
    return served, services, cost, loads, caps


def transport_offers(inst: "Instance", offers: dict, open_facilities,
                     rho: RhoTable | None = None, accepted=None
                     ) -> tuple[TransportResult, dict]:
    """Solve the allocation for the offers; returns the result and the flow
    map {(i, j, m): w}."""
    served, services, cost, loads, caps = serving_problem(
        inst, offers, open_facilities, rho, accepted
    )
    result = solve_transportation(cost, loads, caps)
    return result, flow_map(open_facilities, served, services, result)


def flow_map(open_facilities, served: np.ndarray, services: np.ndarray,
             result: TransportResult) -> dict:
    """The flow map {(i, j, m): w} of a transportation result over the
    ``serving_problem`` with these open facilities, served customers and
    services; empty when infeasible."""
    if result.status != "optimal" or result.w is None or not len(served):
        return {}
    rows, cols = np.nonzero(result.w > 1e-12)
    keys = zip(np.array(list(open_facilities), dtype=int)[rows].tolist(),
               served[cols].tolist(), services[cols].tolist())
    return dict(zip(keys, result.w[rows, cols].tolist()))


def evaluate_offers(inst: "Instance", rho: RhoTable, offers: dict,
                    open_facilities) -> tuple[str, float, dict]:
    """(status, expected profit, flows) of a first stage with fixed facilities."""
    result, flows = transport_offers(inst, offers, open_facilities, rho)
    if result.status != "optimal":
        return "infeasible", float("-inf"), {}
    revenue = offer_revenue(inst, rho, offers)
    fixed = sum(inst.facilities[i].fixed_cost for i in open_facilities)
    return "optimal", revenue - result.cost - fixed, flows
