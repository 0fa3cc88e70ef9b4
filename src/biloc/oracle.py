"""Scenario-level simulation of the two-stage program.

Validates the probability reduction empirically: a fixed first stage is
replayed against sampled noise, each shipper-category accepting its offer
exactly when the realized offer utility beats the realized outside option.
Two modes bracket the reduction: ``reduced-consistent`` reuses the
deterministic allocation restricted to the accepting categories (matching the
single-level model exactly in expectation), while ``per-scenario-reallocation``
re-solves the transportation problem on each scenario's accepted set with raw
costs (matching the literal two-stage recourse).  The per-scenario
minimum-demand shortfall is reported as a diagnostic; the deterministic model
enforces that gate only in expectation terms, never per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .choice import OPT_OUT, RhoTable, ScenarioSet
from .milp import Solution, first_stage_violations
from .solver.serving import offers_from_solution, transport_offers

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

REDUCED = "reduced-consistent"
REALLOC = "per-scenario-reallocation"

_CHUNK = 1 << 15


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario: which offered categories accepted, realized profit, the
    allocation used (reallocation mode only), and the (shipper, service)
    pairs whose realized committed demand fell short of the price's minimum."""

    scenario: int
    accepted: frozenset
    profit: float
    min_demand_violations: frozenset
    allocation: dict | None = None


@dataclass
class SimulationResult:
    mode: str
    count: int
    mean_profit: float
    std_error: float
    infeasible_scenarios: int
    violation_rate: dict
    outcomes: list | None = None


def min_demand_violation_rate(outcomes: list) -> dict:
    """Fraction of scenarios violating each (shipper, service) minimum-demand
    gate, over the keys that were ever violated (all-zero gates yield {})."""
    counts: dict = {}
    for outcome in outcomes:
        for key in outcome.min_demand_violations:
            counts[key] = counts.get(key, 0) + 1
    total = len(outcomes)
    return {key: c / total for key, c in counts.items()}


def simulate(inst: "Instance", first_stage: Solution, scenarios: ScenarioSet,
             mode: str = REDUCED, keep_outcomes: bool = False) -> SimulationResult:
    """Sample-average profit of a first stage under simulated acceptances.

    The first stage must satisfy the first-stage constraint families; its
    allocation is reused when present (and recomputed by the transportation
    fast path otherwise).  Draws are streamed in chunks keyed by
    (shipper, category, alternative), so they coincide with the draws behind
    the sample-average probability estimates for the same seed.
    """
    if mode not in (REDUCED, REALLOC):
        raise ValueError(f"unknown simulation mode '{mode}'")
    scenarios.require_match(inst.choice_model)
    problems = first_stage_violations(inst, first_stage)
    if problems:
        raise ValueError(
            "first stage violates its constraints:\n"
            + "\n".join("  - " + p for p in problems)
        )

    offers = offers_from_solution(inst, first_stage)
    open_facilities = tuple(sorted(first_stage.open_facilities))
    fixed_cost = sum(inst.facilities[i].fixed_cost for i in open_facilities)

    offer_list = sorted(offers.items())  # [((n,k),(m,p)), ...] fixed order
    n_offers = len(offer_list)
    model = inst.choice_model

    # realized (not probability-weighted) revenue and reduced-mode cost per offer
    revenue = np.zeros(n_offers)
    margins = np.zeros(n_offers)
    demand = np.zeros(n_offers)
    v_offer = np.zeros(n_offers)
    v_optout = np.zeros(n_offers)
    if mode == REDUCED:
        allocation = dict(first_stage.allocation)
        if n_offers and not _covers_offers(inst, offers, allocation):
            result, allocation = transport_offers(
                inst, offers, open_facilities, rho=RhoTable.closed_form(inst)
            )
            if result.status != "optimal":
                raise ValueError(
                    "the offered categories cannot be served by the open "
                    "facilities; reduced-consistent mode needs a serving plan"
                )
    else:
        allocation = {}

    cost_by_cat: dict = {key: 0.0 for key, _ in offer_list}
    for (i, j, m), w in allocation.items():
        cust = inst.customers[j]
        key = (cust.shipper, cust.category)
        if key in cost_by_cat and offers.get(key, (None,))[0] == m:
            cost_by_cat[key] += inst.costs[i, j, m] * w

    for idx, ((n, k), (m, p)) in enumerate(offer_list):
        d_k = inst.category_demand(n, k)
        q = inst.ladder(n, m).prices[p]
        revenue[idx] = d_k * q
        margins[idx] = d_k * q - cost_by_cat[(n, k)]
        demand[idx] = d_k
        v_offer[idx] = model.alpha * q + model.preference(n, k, m)
        v_optout[idx] = model.optout(n, k)

    # minimum-demand gates to monitor: every priced (n, m)
    gates = []
    for (n, m), p in sorted(first_stage.price_choices.items()):
        level = inst.ladder(n, m).min_demands[p]
        members = [idx for idx, ((nn, _kk), (mm, _pp)) in enumerate(offer_list)
                   if nn == n and mm == m]
        gates.append(((n, m), level, members))

    total = scenarios.count
    sum_profit = 0.0
    sum_sq = 0.0
    counted = 0
    infeasible = 0
    violation_counts = {key: 0 for key, _level, _members in gates}
    outcomes: list[ScenarioOutcome] | None = [] if keep_outcomes else None
    realloc_cache: dict = {}

    streams = [
        (scenarios.epsilon_chunks(n, k, m, _CHUNK),
         scenarios.epsilon_chunks(n, k, OPT_OUT, _CHUNK))
        for (n, k), (m, _p) in offer_list
    ]

    offset = 0
    while offset < total:
        take = min(_CHUNK, total - offset)
        if n_offers:
            accept = np.empty((n_offers, take), dtype=bool)
            for idx, (offer_stream, optout_stream) in enumerate(streams):
                eps_m = next(offer_stream)
                eps_0 = next(optout_stream)
                accept[idx] = (v_offer[idx] + eps_m) - (v_optout[idx] + eps_0) > 0.0
        else:
            accept = np.zeros((0, take), dtype=bool)

        if mode == REDUCED:
            profits = margins @ accept - fixed_cost
            feasible = np.ones(take, dtype=bool)
            alloc_for = None
        else:
            profits = np.empty(take)
            feasible = np.ones(take, dtype=bool)
            alloc_for = []
            for s in range(take):
                key = accept[:, s].tobytes()
                entry = realloc_cache.get(key)
                if entry is None:
                    accepted = {
                        offer_list[idx][0] for idx in range(n_offers)
                        if accept[idx, s]
                    }
                    result, flows = transport_offers(
                        inst, offers, open_facilities, rho=None, accepted=accepted
                    )
                    if result.status != "optimal":
                        entry = (None, None)
                    else:
                        gross = revenue[accept[:, s]].sum() if n_offers else 0.0
                        entry = (gross - result.cost - fixed_cost, flows)
                    realloc_cache[key] = entry
                value, flows = entry
                if value is None:
                    feasible[s] = False
                    profits[s] = np.nan
                else:
                    profits[s] = value
                if keep_outcomes:
                    alloc_for.append(flows)

        # minimum-demand shortfall per (shipper, service)
        violated = np.zeros((len(gates), take), dtype=bool)
        for g, (_key, level, members) in enumerate(gates):
            if level <= 0.0:
                continue
            committed = (
                demand[members] @ accept[members] if members else np.zeros(take)
            )
            violated[g] = committed < level - 1e-12
            violation_counts[gates[g][0]] += int(violated[g].sum())

        good = feasible
        counted += int(good.sum())
        infeasible += int((~good).sum())
        if good.any():
            vals = profits[good]
            sum_profit += float(vals.sum())
            sum_sq += float((vals * vals).sum())

        if keep_outcomes:
            for s in range(take):
                accepted = frozenset(
                    offer_list[idx][0] for idx in range(n_offers) if accept[idx, s]
                )
                flags = frozenset(
                    gates[g][0] for g in range(len(gates)) if violated[g, s]
                )
                outcomes.append(ScenarioOutcome(
                    scenario=offset + s,
                    accepted=accepted,
                    profit=float(profits[s]) if feasible[s] else float("nan"),
                    min_demand_violations=flags,
                    allocation=alloc_for[s] if alloc_for is not None else None,
                ))
        offset += take

    if counted == 0:
        mean = float("nan")
        stderr = float("nan")
    else:
        mean = sum_profit / counted
        if counted > 1:
            var = max(0.0, (sum_sq - counted * mean * mean) / (counted - 1))
            stderr = (var / counted) ** 0.5
        else:
            stderr = float("inf")
    return SimulationResult(
        mode=mode,
        count=total,
        mean_profit=mean,
        std_error=stderr,
        infeasible_scenarios=infeasible,
        violation_rate={key: c / total for key, c in violation_counts.items()},
        outcomes=outcomes,
    )


def _covers_offers(inst: "Instance", offers: dict, allocation: dict) -> bool:
    """True when the allocation fully assigns every offered customer."""
    for (n, k), (m, _p) in offers.items():
        for j in inst.customers_by_category[(n, k)]:
            total = sum(allocation.get((i, j, m), 0.0)
                        for i in range(inst.n_facilities))
            if abs(total - 1.0) > 1e-7:
                return False
    return True
