"""Exhaustive ground truth for tiny instances.

Enumerates every feasible first stage (facility set, price menu, service
assignment), solves the continuous allocation for each, and returns the best.
Deliberately dumb: it shares nothing with the branch-and-bound search beyond
the transportation problem of an offer map on a facility subset
(``serving_problem`` and the kernel, which it reaches through
``evaluate_offers``), the offers' revenue and building the reported
``Solution`` from the winning offer map (``solution_from_offers``).  Its
enumeration, its minimum-demand gate and its choice of the optimum are its
own, so agreement between the two is a meaningful check of the whole
reduction.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from ..choice import RhoTable
from ..milp import Solution
from .serving import evaluate_offers, solution_from_offers

if TYPE_CHECKING:  # pragma: no cover
    from ..instance import Instance

GUARD_BITS = 22


class OracleSizeError(ValueError):
    """The instance has too many binary decisions for exhaustive search."""


def _count_binaries(inst: "Instance") -> int:
    count = inst.n_facilities
    for n in range(inst.n_shippers):
        for m in inst.shipper_services(n):
            count += len(inst.ladder(n, m).prices)
        for k in range(inst.categories_per_shipper[n]):
            count += len(inst.services_by_category[n][k])
    return count


def _shipper_plans(inst: "Instance", n: int) -> list[tuple[dict, dict]]:
    """All feasible (price menu, service assignment) pairs for one shipper.

    A menu picks at most one ladder position per service (or none), with at
    most as many priced services as the shipper has categories; an assignment
    gives each category a priced service or nothing; the committed demand of
    every priced service must reach its price's minimum level.
    """
    services = inst.shipper_services(n)
    menus = []
    for combo in product(*[
        [None] + list(range(len(inst.ladder(n, m).prices))) for m in services
    ]):
        menu = {m: p for m, p in zip(services, combo) if p is not None}
        if len(menu) <= inst.categories_per_shipper[n]:
            menus.append(menu)

    plans: list[tuple[dict, dict]] = []
    n_cats = inst.categories_per_shipper[n]
    for menu in menus:
        cat_options = [
            [None] + [m for m in inst.services_by_category[n][k] if m in menu]
            for k in range(n_cats)
        ]
        for combo in product(*cat_options):
            assignment = {k: m for k, m in enumerate(combo) if m is not None}
            if all(sum(inst.category_demand(n, k) for k, mm in assignment.items() if mm == m)
                   >= inst.ladder(n, m).min_demands[p] - 1e-9 for m, p in menu.items()):
                plans.append((menu, assignment))
    return plans


def enumerate_oracle(inst: "Instance", rho: RhoTable) -> Solution:
    """Exact optimum by complete enumeration (refuses above 2**GUARD_BITS)."""
    n_bin = _count_binaries(inst)
    if n_bin > GUARD_BITS:
        raise OracleSizeError(
            f"instance has {n_bin} binary decisions; exhaustive search over "
            f"2^{n_bin} assignments exceeds the 2^{GUARD_BITS} guard rail"
        )

    per_shipper = [_shipper_plans(inst, n) for n in range(inst.n_shippers)]
    facility_sets = [
        tuple(i for i in range(inst.n_facilities) if mask & (1 << i))
        for mask in range(1 << inst.n_facilities)
    ]

    best_value = 0.0
    best_payload: tuple | None = None
    combos = 0
    cache: dict = {}  # plans differing only in unused priced services coincide
    for plan_combo in product(*per_shipper):
        offers: dict = {}
        for n, (menu, assignment) in enumerate(plan_combo):
            for k, m in assignment.items():
                offers[(n, k)] = (m, menu[m])
        offer_key = tuple(sorted(offers.items()))
        for subset in facility_sets:
            combos += 1
            cached = cache.get((offer_key, subset))
            if cached is None:
                cached = evaluate_offers(inst, rho, offers, subset)
                cache[(offer_key, subset)] = cached
            status, profit, flows = cached
            if status != "optimal":
                continue
            if profit > best_value:
                best_value = profit
                best_payload = (dict(offers), subset, flows)

    if best_payload is None:
        return Solution(status="optimal", objective=0.0, nodes=combos)
    offers, subset, flows = best_payload
    return solution_from_offers(inst, rho, "optimal", best_value, offers,
                                subset, flows, nodes=combos)
