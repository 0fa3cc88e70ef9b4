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
accepts, so each distinct pattern is valued once for all its scenarios.
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


def simulate(inst: "Instance", first_stage: Solution, scenarios: ScenarioSet,
             mode: str = REDUCED, keep_outcomes: bool = False) -> SimulationResult:
    """Sample-average profit of a first stage under simulated acceptances.

    The first stage must satisfy the first-stage constraint families; its
    allocation is reused when present (and recomputed by the transportation
    kernel otherwise).  Draws are streamed in chunks keyed by
    (shipper, category, alternative), so they coincide with the draws behind
    the sample-average probability estimates for the same seed.

    Each chunk's acceptance matrix is split into its distinct patterns.  A
    pattern's profit and gate shortfalls are worked out once (reallocation
    mode solves its transportation once per run) and counted per scenario.
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
    offer_list = sorted(offers.items())  # [((n,k),(m,p)), ...] fixed order
    open_facilities = tuple(sorted(first_stage.open_facilities))
    fixed_cost = sum(inst.facilities[i].fixed_cost for i in open_facilities)
    model = inst.choice_model

    # realized (not probability-weighted) demand, revenue and utilities per offer
    demand = np.array([inst.category_demand(n, k) for (n, k), _ in offer_list])
    price = np.array([inst.ladder(n, m).prices[p] for (n, _k), (m, p) in offer_list])
    revenue = demand * price
    v_offer = model.alpha * price + np.array(
        [model.preference(n, k, m) for (n, k), (m, _p) in offer_list])
    v_optout = np.array([model.optout(n, k) for (n, k), _ in offer_list])
    if mode == REDUCED:
        allocation = first_stage.allocation
        if offers and not _covers_offers(inst, offers, allocation):
            result, allocation = transport_offers(
                inst, offers, open_facilities, rho=RhoTable.closed_form(inst)
            )
            if result.status != "optimal":
                raise ValueError(
                    "the offered categories cannot be served by the open "
                    "facilities; reduced-consistent mode needs a serving plan")
        cost = dict.fromkeys(offers, 0.0)
        for (i, j, m), w in allocation.items():
            key = (inst.customers[j].shipper, inst.customers[j].category)
            if key in cost and offers[key][0] == m:
                cost[key] += inst.costs[i, j, m] * w
        margins = revenue - np.array([cost[key] for key, _ in offer_list])

    # minimum-demand gates to monitor: every priced (n, m) and its offers
    gates = [((n, m), inst.ladder(n, m).min_demands[p],
              [idx for idx, ((nn, _k), (mm, _p)) in enumerate(offer_list)
               if (nn, mm) == (n, m)])
             for (n, m), p in sorted(first_stage.price_choices.items())]

    total = scenarios.count
    moments = (0, 0.0, 0.0)
    infeasible = 0
    violation_counts = np.zeros(len(gates), dtype=np.int64)
    outcomes: list[ScenarioOutcome] | None = [] if keep_outcomes else None
    realloc_cache: dict = {}  # pattern bytes -> (profit or nan, flows or None)

    streams = [(scenarios.epsilon_chunks(n, k, m, _CHUNK),
                scenarios.epsilon_chunks(n, k, OPT_OUT, _CHUNK))
               for (n, k), (m, _p) in offer_list]

    offset = 0
    while offset < total:
        take = min(_CHUNK, total - offset)
        accept = np.empty((len(offer_list), take), dtype=bool)
        for idx, (offer_stream, optout_stream) in enumerate(streams):
            accept[idx] = ((v_offer[idx] + next(offer_stream))
                           - (v_optout[idx] + next(optout_stream)) > 0.0)
        patterns, index = _acceptance_patterns(accept)

        if mode == REDUCED:
            values = margins @ patterns - fixed_cost
            flows = [None] * patterns.shape[1]
        else:
            entries = []
            for column in patterns.T:
                key = column.tobytes()
                if key not in realloc_cache:
                    accepted = {offer_list[idx][0] for idx in np.flatnonzero(column)}
                    result, plan = transport_offers(
                        inst, offers, open_facilities, rho=None, accepted=accepted
                    )
                    realloc_cache[key] = (
                        (revenue[column].sum() - result.cost - fixed_cost, plan)
                        if result.status == "optimal" else (np.nan, None)
                    )
                entries.append(realloc_cache[key])
            values = np.array([value for value, _plan in entries])
            flows = [plan for _value, plan in entries]

        # minimum-demand shortfall per (shipper, service) and pattern
        short = np.array([
            demand[members] @ patterns[members] < level - 1e-12
            for _key, level, members in gates
        ], dtype=bool).reshape(len(gates), patterns.shape[1])
        violation_counts += short @ np.bincount(index, minlength=patterns.shape[1])

        profits = values[index]
        feasible = ~np.isnan(profits)
        infeasible += take - int(feasible.sum())
        moments = merge_moments(moments, chunk_moments(profits[feasible]))

        if keep_outcomes:
            accepted_sets = [frozenset(offer_list[idx][0] for idx in np.flatnonzero(column))
                             for column in patterns.T]
            flagged = [frozenset(gates[g][0] for g in np.flatnonzero(column))
                       for column in short.T]
            outcomes.extend(
                ScenarioOutcome(offset + s, accepted_sets[u], float(values[u]),
                                flagged[u], flows[u])
                for s, u in enumerate(index.tolist()))
        offset += take

    return SimulationResult(
        mode=mode,
        count=total,
        mean_profit=moments[1] if moments[0] else float("nan"),
        std_error=standard_error(moments),
        infeasible_scenarios=infeasible,
        violation_rate={key: c / total for (key, _level, _members), c
                        in zip(gates, violation_counts.tolist())},
        outcomes=outcomes,
    )


def _acceptance_patterns(accept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct columns of an (offers x scenarios) acceptance matrix, and for
    each scenario the position of its column among them.  Without offers
    every scenario shows the one empty pattern."""
    n_offers, take = accept.shape
    if n_offers == 0:
        return np.zeros((0, 1), dtype=bool), np.zeros(take, dtype=np.intp)
    order = np.lexsort(accept)
    ordered = accept[:, order]
    starts = np.ones(take, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    index = np.empty(take, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return ordered[:, starts], index


def chunk_moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of one chunk,
    by two passes over it."""
    if values.size == 0:
        return 0, 0.0, 0.0
    mean = float(values.mean())
    return values.size, mean, float(np.square(values - mean).sum())


def merge_moments(a: tuple[int, float, float],
                  b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Moments of two chunks together, by the pairwise update of Chan, Golub
    and LeVeque (1979); unlike sum(x^2) - n*mean^2 it loses no precision when
    the spread is small against the mean."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    if n == 0:
        return a
    delta = mean_b - mean_a
    return (n, mean_a + delta * (n_b / n),
            m2_a + m2_b + delta * delta * (n_a * n_b / n))


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
