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
enforces that gate only in expectation terms, never per scenario.  A
scenario acts only through its acceptance pattern, the set of offers it
accepts, so one call draws every noise stream once, tables the distinct
patterns with their counts, and values each pattern once per requested mode:
``simulate(inst, plan, scenarios, modes=(REDUCED, REALLOC))`` replays both
modes from the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .choice import (OPT_OUT, SCENARIO_CHUNK, RhoTable, ScenarioSet, accept_rule,
                     deterministic_utility)
from .milp import InfeasibleSolutionError, Solution, first_stage_violations
from .solver.serving import transport_offers

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

REDUCED = "reduced-consistent"
REALLOC = "per-scenario-reallocation"


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


def simulate(inst: "Instance", first_stage: Solution, scenarios: ScenarioSet,
             modes: tuple[str, ...] = (REDUCED,), keep_outcomes: bool = False
             ) -> dict[str, SimulationResult]:
    """Sample-average profit of a first stage under simulated acceptances,
    as ``{mode: SimulationResult}`` for every mode in ``modes``.

    The first stage must satisfy the first-stage constraint families; its
    allocation is reused when present (and recomputed by the transportation
    kernel otherwise).  Draws are streamed in chunks keyed by
    (shipper, category, alternative), so they coincide with the draws behind
    the sample-average probability estimates for the same seed.

    The draws are tabled once as distinct acceptance patterns with counts;
    each pattern's gate shortfalls are worked out once and its profit once
    per mode, and means and standard errors weigh patterns by their counts.
    """
    for mode in modes:
        if mode not in (REDUCED, REALLOC):
            raise ValueError(f"unknown simulation mode '{mode}'")
    scenarios.require_match(inst.choice_model)
    problems = first_stage_violations(inst, first_stage)
    if problems:
        raise InfeasibleSolutionError(problems)

    offers = first_stage.offers
    offer_list = sorted(offers.items())  # [((n,k),(m,p)), ...] fixed order
    open_facilities = tuple(sorted(first_stage.open_facilities))
    fixed_cost = sum(inst.facilities[i].fixed_cost for i in open_facilities)

    # realized (not probability-weighted) demand and revenue per offer
    demand = np.array([inst.category_demand(n, k) for (n, k), _ in offer_list])
    price = np.array([inst.ladder(n, m).prices[p] for (n, _k), (m, p) in offer_list])
    revenue = demand * price
    if REDUCED in modes:
        allocation = first_stage.allocation
        if offers and not _covers_offers(inst, offers, allocation):
            result, allocation = transport_offers(
                inst, offers, open_facilities, rho=RhoTable.closed_form(inst)
            )
            if result.status != "optimal":
                raise InfeasibleSolutionError([
                    "the offered categories cannot be served by the open "
                    "facilities, and reduced-consistent mode needs a serving plan"])
        cost = dict.fromkeys(offers, 0.0)
        for (i, j, m), w in allocation.items():
            key = (inst.customers[j].shipper, inst.customers[j].category)
            if key in cost and offers[key][0] == m:
                cost[key] += inst.costs[i, j, m] * w
        margins = revenue - np.array([cost[key] for key, _ in offer_list])

    patterns, counts, pattern_ids = _pattern_table(inst, scenarios, offer_list,
                                                   keep_outcomes)

    # minimum-demand shortfall per (shipper, service) gate and pattern
    gates = [((n, m), inst.ladder(n, m).min_demands[p],
              [idx for idx, ((nn, _k), (mm, _p)) in enumerate(offer_list)
               if (nn, mm) == (n, m)])
             for (n, m), p in sorted(first_stage.price_choices.items())]
    short = np.array([
        demand[members] @ patterns[members] < level - 1e-12
        for _key, level, members in gates
    ], dtype=bool).reshape(len(gates), patterns.shape[1])
    total = scenarios.count
    violation_rate = {key: c / total for (key, _level, _members), c
                      in zip(gates, (short @ counts).tolist())}
    if keep_outcomes:
        accepted_sets = [frozenset(offer_list[idx][0] for idx in np.flatnonzero(column))
                         for column in patterns.T]
        flagged = [frozenset(gates[g][0] for g in np.flatnonzero(column))
                   for column in short.T]

    results = {}
    for mode in modes:
        flows = [None] * patterns.shape[1]
        if mode == REDUCED:
            values = margins @ patterns - fixed_cost
        else:
            values = np.full(patterns.shape[1], np.nan)
            for u, column in enumerate(patterns.T):
                accepted = {offer_list[idx][0] for idx in np.flatnonzero(column)}
                result, plan = transport_offers(inst, offers, open_facilities,
                                                accepted=accepted)
                if result.status == "optimal":
                    values[u] = revenue[column].sum() - result.cost - fixed_cost
                    flows[u] = plan
        feasible = ~np.isnan(values)
        moments = weighted_moments(values[feasible], counts[feasible])
        results[mode] = SimulationResult(
            mode=mode,
            count=total,
            mean_profit=moments[1] if moments[0] else float("nan"),
            std_error=standard_error(moments),
            infeasible_scenarios=total - moments[0],
            violation_rate=violation_rate,
            outcomes=None if pattern_ids is None else [
                ScenarioOutcome(s, accepted_sets[u], float(values[u]), flagged[u],
                                flows[u])
                for s, u in enumerate(pattern_ids.tolist())],
        )
    return results


def _pattern_table(inst: "Instance", scenarios: ScenarioSet, offer_list: list,
                   keep_ids: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The run's distinct acceptance patterns as (offers x patterns) columns,
    how many scenarios show each, and, when ``keep_ids``, each scenario's
    column.  Every noise stream is drawn once, one chunk at a time."""
    # per offer: its utility and noise, and those of its category's outside option
    rows = [(deterministic_utility(inst, n, k, m, p),
             scenarios.epsilon_chunks(n, k, m),
             deterministic_utility(inst, n, k, OPT_OUT),
             scenarios.epsilon_chunks(n, k, OPT_OUT))
            for (n, k), (m, p) in offer_list]
    chunks, chunk_counts, ids = [], [], []
    for offset in range(0, scenarios.count, SCENARIO_CHUNK):
        take = min(SCENARIO_CHUNK, scenarios.count - offset)
        accept = np.empty((len(offer_list), take), dtype=bool)
        for idx, (v, offer_stream, v0, optout_stream) in enumerate(rows):
            accept[idx] = accept_rule(v + next(offer_stream), v0 + next(optout_stream))
        patterns, index = _acceptance_patterns(accept)
        if keep_ids:
            ids.append(index + sum(chunk.shape[1] for chunk in chunks))
        chunks.append(patterns)
        chunk_counts.append(np.bincount(index))
    # the chunks' patterns, merged: one column per distinct pattern of the run
    table, where = _acceptance_patterns(np.hstack(chunks))
    counts = np.bincount(where, np.concatenate(chunk_counts)).astype(np.int64)
    return table, counts, where[np.concatenate(ids)] if keep_ids else None


def _acceptance_patterns(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct columns of an (offers x scenarios) acceptance matrix, and for
    each scenario the position of its column among them.  Without offers
    every scenario shows the one empty pattern."""
    n_offers, take = accept.shape
    if n_offers == 0:
        return np.zeros((0, 1), dtype=bool), np.zeros(take, dtype=np.intp)
    # bit i of byte row b is offer 8b+i: these keys sort like the bool rows
    packed = np.packbits(accept, axis=0, bitorder="little")
    order = np.lexsort(packed)
    ordered = packed[:, order]
    starts = np.ones(take, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    index = np.empty(take, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return accept[:, order[starts]], index


def weighted_moments(values: np.ndarray, counts: np.ndarray
                     ) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of values that
    occur ``counts`` times each, by two passes over the distinct values;
    unlike sum(x^2) - n*mean^2 it loses no precision when the spread is
    small against the mean."""
    n = int(counts.sum())
    if n == 0:
        return 0, 0.0, 0.0
    mean = float(np.sum(counts * values) / n)
    return n, mean, float(np.sum(counts * np.square(values - mean)))


def standard_error(moments: tuple[int, float, float]) -> float:
    """Standard error of the mean: nan without values, inf from one value."""
    n, _mean, m2 = moments
    if n == 0:
        return float("nan")
    if n == 1:
        return float("inf")
    return (m2 / (n - 1) / n) ** 0.5


def _covers_offers(inst: "Instance", offers: dict, allocation: dict) -> bool:
    """True when the allocation fully assigns every offered customer."""
    for (n, k), (m, _p) in offers.items():
        for j in inst.customers_by_category[(n, k)]:
            total = sum(allocation.get((i, j, m), 0.0)
                        for i in range(inst.n_facilities))
            if abs(total - 1.0) > 1e-7:
                return False
    return True
