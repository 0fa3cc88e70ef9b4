"""Exact branch-and-bound over the first-stage binaries.

Two engines share the best-first search loop:

* The *structured* engine (``solve``) works from the instance and its
  acceptance-probability table.  It branches on category commitments: each
  child either binds one shipper-category to a concrete (service, ladder
  position) offer (which also pins that shipper-service price slot) or sends
  it to the outside option.  Fully decided nodes are evaluated exactly by
  enumerating facility subsets over the transportation fast path, so facility
  decisions never need their own tree levels.  Node bounds come from a
  relaxation that drops price coupling across categories, minimum-demand
  gates and per-facility capacity: for every candidate facility subset, each
  undecided category takes its best still-allowed offer priced against
  per-customer cheapest serving cost, and a fractional knapsack caps total
  gamma-scaled demand by the subset's aggregate capacity.  The bound only
  ever over-estimates and shrinks monotonically along any branch.

* The *relaxation* engine (``solve_milp``) works on any model, such as a
  parsed LP file: it solves the continuous relaxation per node with the dense
  simplex kernel and branches on the most fractional binary, preferring price
  variables, then service assignments, then facilities.  Intended for
  desk-scale models only.

Both return proven-optimal solutions or a time-limited incumbent with its
remaining gap.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import count as _counter
from typing import TYPE_CHECKING

import numpy as np

from ..choice import RhoTable
from ..milp import (
    MilpModel,
    Solution,
    certifies_trivial,
    offer_summary,
    profit_report,
    profit_upper_bound,
    upper_bound_offer_pattern,
)
from .serving import evaluate_offers
from .simplex import solve_lp

if TYPE_CHECKING:  # pragma: no cover
    from ..instance import Instance

_BIG = 1e18
_UNDECIDED = -2
_NONE = -1
#: Relative bound gap below which a search declares its incumbent optimal.
_GAP_TOL = 1e-9

#: Upper limit on tableau cells for the relaxation engine; larger models must
#: be solved through their instance (structured engine).
RELAXATION_CELL_LIMIT = 6_000_000


class SolverError(RuntimeError):
    pass


@dataclass
class SearchDiagnostics:
    """Optional instrumentation collected during a solve."""

    root_bound: float = float("nan")
    bound_pairs: list = field(default_factory=list)   # (parent bound, child bound)
    leaf_checks: list = field(default_factory=list)   # (node bound, exact value)


def _prune_tol(incumbent: float) -> float:
    return _GAP_TOL * max(1.0, abs(incumbent))


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() > deadline


# ---------------------------------------------------------------------------
# Structured engine
# ---------------------------------------------------------------------------

class _StructuredData:
    """Precomputed tensors for the knapsack bound.

    A category's *offer list* enumerates every (service, ladder position) it
    could take; ``val[mask, c, o]`` is the capacity-blind value of offer o for
    category c when the open facilities are exactly the bits of ``mask``:
    probability-weighted revenue minus probability-weighted cheapest serving
    cost.  Padding entries carry -BIG so vectorized maxima ignore them.
    """

    def __init__(self, inst: "Instance", rho: RhoTable):
        self.inst = inst
        self.rho = rho

        self.slots = [(n, m) for n in range(inst.n_shippers)
                      for m in inst.shipper_services(n)]
        self.slot_index = {sm: s for s, sm in enumerate(self.slots)}
        self.slot_min_demand = [inst.ladder(n, m).min_demands for n, m in self.slots]

        self.cats = [(n, k) for n in range(inst.n_shippers)
                     for k in range(inst.categories_per_shipper[n])]
        self.cat_demand = np.array([inst.category_demand(n, k) for n, k in self.cats])
        C = len(self.cats)

        offers: list[list[tuple]] = []
        for n, k in self.cats:
            per_cat = []
            for m in inst.services_by_category[n][k]:
                slot = self.slot_index[(n, m)]
                ladder = inst.ladder(n, m)
                for p, q in enumerate(ladder.prices):
                    r = rho.get(n, k, m, p)
                    per_cat.append((slot, m, p, r,
                                    r * inst.category_demand(n, k) * q,
                                    inst.service_levels[m].gamma
                                    * inst.category_demand(n, k)))
            offers.append(per_cat)
        self.offers = offers
        O = max((len(o) for o in offers), default=1)
        self.n_offers = O
        self.off_valid = np.zeros((C, O), dtype=bool)
        self.off_slot = np.full((C, O), 0, dtype=int)
        self.off_m = np.zeros((C, O), dtype=int)
        self.off_p = np.full((C, O), -1, dtype=int)
        self.off_rho = np.zeros((C, O))
        self.off_rev = np.zeros((C, O))
        self.off_weight = np.full((C, O), np.inf)
        for c, per_cat in enumerate(offers):
            for o, (slot, m, p, r, rev, weight) in enumerate(per_cat):
                self.off_valid[c, o] = True
                self.off_slot[c, o] = slot
                self.off_m[c, o] = m
                self.off_p[c, o] = p
                self.off_rho[c, o] = r
                self.off_rev[c, o] = rev
                self.off_weight[c, o] = weight

        I = inst.n_facilities
        self.n_masks = 1 << I
        caps = np.array([f.capacity for f in inst.facilities])
        fixed = np.array([f.fixed_cost for f in inst.facilities])
        members = [np.array([(1 << i) & mask != 0 for i in range(I)])
                   for mask in range(self.n_masks)]
        self.mask_capacity = np.array([caps[sel].sum() for sel in members])
        self.mask_fixed_cost = np.array([fixed[sel].sum() for sel in members])

        # cheapest serving cost per (facility mask, category, service), plus
        # the overflow machinery: per mask, which facility each customer's
        # cheapest assignment uses, the load that lands there, and the lowest
        # probability-weighted regret rate (second cheapest minus cheapest,
        # per unit of scaled load) anyone at that facility would pay to move
        M = inst.n_services
        J = inst.n_customers
        cheap = np.full((self.n_masks, C, M), _BIG)
        cat_members = [inst.customers_by_category[nk] for nk in self.cats]
        gamma = np.array([s.gamma for s in inst.service_levels])
        demand = np.array([c.demand for c in inst.customers])
        scaled_load = gamma[None, :] * demand[:, None]  # (J, M)

        self.loads_at = np.zeros((self.n_masks, C, M, I))
        raw_rate_min = np.full((self.n_masks, C, M, I), np.inf)
        for mask in range(1, self.n_masks):
            rows = [i for i in range(I) if mask & (1 << i)]
            sub = inst.costs[rows]  # (F', J, M)
            min_cost = sub.min(axis=0)
            arg_local = sub.argmin(axis=0)  # (J, M)
            arg_fac = np.array(rows)[arg_local]
            if len(rows) >= 2:
                second = np.partition(sub, 1, axis=0)[1]
            else:
                second = np.full((J, M), np.inf)
            regret_rate = (second - min_cost) / scaled_load  # (J, M)
            for c, js in enumerate(cat_members):
                if not js:
                    cheap[mask, c, :] = 0.0
                    continue
                js = list(js)
                cheap[mask, c, :] = min_cost[js, :].sum(axis=0)
                for m in range(M):
                    np.add.at(self.loads_at[mask, c, m], arg_fac[js, m],
                              scaled_load[js, m])
                    np.minimum.at(raw_rate_min[mask, c, m], arg_fac[js, m],
                                  regret_rate[js, m])
        rows = np.arange(C)[:, None]
        val = self.off_rev[None, :, :] - self.off_rho[None, :, :] * cheap[:, rows, self.off_m]
        val[:, ~self.off_valid] = -_BIG
        self.val = val

        # node-independent move rate: min over every offerable (category,
        # service) pair of (lowest acceptance probability on that ladder) x
        # (raw regret rate); pairs that cannot be offered contribute nothing
        min_rho = np.full((C, M), np.inf)
        for c, per_cat in enumerate(self.offers):
            for (_slot, m, _p, r, _rev, _wgt) in per_cat:
                min_rho[c, m] = min(min_rho[c, m], r)
        offerable = np.isfinite(min_rho)[None, :, :, None]
        finite_raw = np.isfinite(raw_rate_min)
        rho_safe = np.where(np.isfinite(min_rho), min_rho, 0.0)[None, :, :, None]
        raw_safe = np.where(finite_raw, raw_rate_min, 0.0)
        weighted = np.where(offerable & finite_raw, raw_safe * rho_safe, np.inf)
        self.overflow_rate = np.minimum(
            weighted.reshape(self.n_masks, C * M, I).min(axis=1), _BIG
        )
        self.facility_capacity = caps

        self.shipper_cats = [
            [c for c, (n, _k) in enumerate(self.cats) if n == shipper]
            for shipper in range(inst.n_shippers)
        ]

    def overflow_correction(self, state: tuple) -> np.ndarray:
        """Per-mask lower bound on extra transport cost the committed offers
        must pay beyond everyone-at-their-cheapest, from capacity overflow."""
        committed = [(c, int(self.off_m[c, o])) for c, o in enumerate(state)
                     if o >= 0]
        if not committed:
            return np.zeros(self.n_masks)
        loads = np.zeros((self.n_masks, len(self.facility_capacity)))
        for c, m in committed:
            loads += self.loads_at[:, c, m, :]
        overflow = np.maximum(loads - self.facility_capacity[None, :], 0.0)
        return np.minimum((overflow * self.overflow_rate).sum(axis=1), _BIG)


def _slot_fixes(data: _StructuredData, state: tuple) -> dict | None:
    """Price slots pinned by the committed offers; None on a price conflict."""
    fixes: dict[int, int] = {}
    for c, o in enumerate(state):
        if o < 0:
            continue
        slot = int(data.off_slot[c, o])
        p = int(data.off_p[c, o])
        if fixes.get(slot, p) != p:
            return None
        fixes[slot] = p
    return fixes


def _node_feasible(data: _StructuredData, state: tuple) -> bool:
    fixes = _slot_fixes(data, state)
    if fixes is None:
        return False
    for slot, p in fixes.items():
        level = data.slot_min_demand[slot][p]
        if level <= 0.0:
            continue
        n, m = data.slots[slot]
        achievable = 0.0
        for c in data.shipper_cats[n]:
            o = state[c]
            if o == _UNDECIDED:
                if any(data.off_valid[c, oo] and data.off_m[c, oo] == m
                       and data.off_p[c, oo] == p
                       for oo in range(data.n_offers)):
                    achievable += data.cat_demand[c]
            elif o >= 0 and data.off_m[c, o] == m:
                achievable += data.cat_demand[c]
        if achievable < level - 1e-9:
            return False
    return True


def _allowed_offers(data: _StructuredData, state: tuple) -> np.ndarray | None:
    fixes = _slot_fixes(data, state)
    if fixes is None:
        return None
    slot_state = np.full(len(data.slots), _UNDECIDED)
    for slot, p in fixes.items():
        slot_state[slot] = p
    allowed = data.off_valid.copy()
    ps = slot_state[data.off_slot]
    allowed &= (ps == _UNDECIDED) | (ps == data.off_p)
    for c, o in enumerate(state):
        if o == _NONE:
            allowed[c, :] = False
        elif o >= 0:
            row = np.zeros(data.n_offers, dtype=bool)
            row[o] = True
            allowed[c, :] = row
    return allowed


def _structured_bound(data: _StructuredData, state: tuple
                      ) -> tuple[float, int, np.ndarray]:
    """(bound, best facility mask, best-offer index per category)."""
    C = len(data.cats)
    allowed = _allowed_offers(data, state)
    if allowed is None:
        return -_BIG, 0, np.zeros(C, dtype=int)
    committed = np.array([o >= 0 for o in state])
    if np.any(committed & ~allowed.any(axis=1)):
        return -_BIG, 0, np.zeros(C, dtype=int)

    vals = np.where(allowed[None, :, :], data.val, -_BIG)  # (nMask, C, O)
    best = vals.max(axis=2)                                # (nMask, C)
    arg = vals.argmax(axis=2)                              # (nMask, C)
    weight = np.where(allowed, data.off_weight, np.inf).min(axis=1)  # (C,)

    forced_load = float(weight[committed].sum()) if committed.any() else 0.0
    base = best[:, committed].sum(axis=1) if committed.any() else np.zeros(data.n_masks)
    base = base - data.overflow_correction(state)

    opt_rows = np.where(~committed)[0]
    best_bound = -_BIG
    best_mask = 0
    for mask in range(data.n_masks):
        capacity = data.mask_capacity[mask]
        if forced_load > capacity + 1e-9:
            continue
        value = float(base[mask])
        room = capacity - forced_load
        if opt_rows.size:
            items = [(float(best[mask, c]), float(weight[c])) for c in opt_rows
                     if best[mask, c] > 0.0]
            items.sort(key=lambda it: it[0] / it[1], reverse=True)
            for v, w in items:
                if room <= 1e-12:
                    break
                take = min(1.0, room / w)
                value += v * take
                room -= w * take
        value -= float(data.mask_fixed_cost[mask])
        if value > best_bound:
            best_bound = value
            best_mask = mask
    return best_bound, best_mask, arg[best_mask]


def _unmet_gates(data: _StructuredData, state: tuple, fixes: dict) -> list[int]:
    """Pinned price slots (``fixes`` from ``_slot_fixes``) whose committed
    demand misses the pinned price's minimum level."""
    committed = np.zeros(len(data.slots))
    for c, o in enumerate(state):
        if o >= 0:
            committed[data.off_slot[c, o]] += data.cat_demand[c]
    return [slot for slot, p in fixes.items()
            if committed[slot] < data.slot_min_demand[slot][p] - 1e-9]


def _leaf_value(data: _StructuredData, state: tuple, floor: float,
                deadline: float | None = None):
    """Exact value of a fully decided node, or None when infeasible or unable
    to beat ``floor``.

    Facility subsets are ranked by their capacity-blind value bound and only
    transported while the bound still beats the best value seen, so most
    subsets are never solved exactly.  Past ``deadline`` the ranking stops
    early and the best value found so far is returned.
    """
    fixes = _slot_fixes(data, state)
    if fixes is None or _unmet_gates(data, state, fixes):
        return None
    offers: dict = {}
    committed_load = 0.0
    for c, o in enumerate(state):
        if o >= 0:
            n, k = data.cats[c]
            offers[(n, k)] = (int(data.off_m[c, o]), int(data.off_p[c, o]))
            committed_load += float(data.off_weight[c, o])

    # value bound per facility mask: committed offer values, overflow
    # correction, fixed cost
    mask_bound = -data.mask_fixed_cost.astype(float).copy()
    for c, o in enumerate(state):
        if o >= 0:
            mask_bound += data.val[:, c, o]
    mask_bound -= data.overflow_correction(state)
    mask_bound[data.mask_capacity + 1e-9 < committed_load] = -_BIG

    inst = data.inst
    best = None
    best_value = floor
    for mask in np.argsort(-mask_bound):
        if mask_bound[mask] <= best_value + 1e-12 or _past(deadline):
            break
        subset = tuple(i for i in range(inst.n_facilities) if mask & (1 << i))
        status, profit, flows = evaluate_offers(inst, data.rho, offers, subset)
        if status != "optimal":
            continue
        if profit > best_value:
            best_value = profit
            best = (profit, offers, subset, flows)
    return best


def _warm_start(data: _StructuredData, deadline: float | None):
    """Feasible offer pattern seeded from the preprocessing bound, repaired to
    respect slot uniqueness and minimum-demand gates, and valued like a leaf;
    None when it earns nothing."""
    pattern = upper_bound_offer_pattern(data.inst, data.rho)
    slot_price: dict[int, int] = {}
    state = [_NONE] * len(data.cats)
    full_mask = data.n_masks - 1
    for c, (n, k) in enumerate(data.cats):
        want = pattern.get((n, k))
        best_opt = None
        for o, (slot, m, p, _r, _rev, _wgt) in enumerate(data.offers[c]):
            if slot in slot_price and slot_price[slot] != p:
                continue
            value = float(data.val[full_mask, c, o])
            prefer = 1 if want == (m, p) else 0
            if best_opt is None or (prefer, value) > best_opt[0]:
                best_opt = ((prefer, value), o, slot, p)
        if best_opt is not None and best_opt[0][1] > 0.0:
            _key, o, slot, p = best_opt
            slot_price[slot] = p
            state[c] = o

    # dropping one slot's offers leaves every other slot's committed demand
    # unchanged, so a single pass repairs every gate
    for slot in _unmet_gates(data, state, slot_price):
        for c, o in enumerate(state):
            if o >= 0 and data.off_slot[c, o] == slot:
                state[c] = _NONE
    return _leaf_value(data, tuple(state), 0.0, deadline)


def _assemble_solution(inst: "Instance", rho: RhoTable, status: str,
                       payload, nodes: int, seconds: float, gap: float) -> Solution:
    if payload is None:
        return Solution(status=status, objective=0.0, nodes=nodes,
                        seconds=seconds, gap=gap)
    value, offers, subset, flows = payload
    price_choices = {}
    service_choices = {}
    for (n, k), (m, p) in offers.items():
        price_choices[(n, m)] = p
        service_choices[(n, k)] = m
    solution = Solution(
        status=status,
        objective=float(value),
        open_facilities=tuple(sorted(subset)),
        price_choices=price_choices,
        service_choices=service_choices,
        allocation=dict(flows),
        nodes=nodes,
        seconds=seconds,
        gap=gap,
    )
    revenue, cost, fixed = profit_report(inst, rho, solution)
    solution.revenue = revenue
    solution.assignment_cost = cost
    solution.fixed_cost = fixed
    solution.offer_summary = offer_summary(inst, rho, solution)
    return solution


def solve(inst: "Instance", rho: RhoTable, budget: float | None = None,
          diagnostics: SearchDiagnostics | None = None) -> Solution:
    """Solve the instance under ``rho`` to proven optimality (or best
    incumbent + gap) with the structured engine.

    ``budget`` is a wall-clock limit in seconds (None = none); it is checked
    before every node and inside the facility-subset ranking of every leaf.
    """
    start = time.perf_counter()
    deadline = None if budget is None else start + budget

    bound = profit_upper_bound(inst, rho)
    if certifies_trivial(bound):
        return Solution(status="trivial", objective=0.0, nodes=0,
                        seconds=time.perf_counter() - start, gap=0.0)

    data = _StructuredData(inst, rho)
    payload = _warm_start(data, deadline)
    incumbent = 0.0 if payload is None else payload[0]

    root = (_UNDECIDED,) * len(data.cats)
    root_bound, root_mask, root_arg = _structured_bound(data, root)
    if diagnostics is not None:
        diagnostics.root_bound = root_bound

    # heap entries: (-bound, -depth, tie, state, best_mask, best_arg)
    heap: list = []
    ticket = _counter()
    heapq.heappush(heap, (-root_bound, 0, next(ticket), root, root_mask, root_arg))
    nodes = 0
    open_bound = None  # bound of the node left unfinished when the budget ran out

    while heap:
        neg_bound, neg_depth, _tie, state, best_mask, best_arg = heapq.heappop(heap)
        bound = -neg_bound
        depth = -neg_depth
        if bound <= incumbent + _prune_tol(incumbent):
            break
        if _past(deadline):
            open_bound = bound
            break
        nodes += 1

        undecided = [c for c, o in enumerate(state) if o == _UNDECIDED]
        if not undecided:
            leaf = _leaf_value(data, state, incumbent, deadline)
            if leaf is not None:
                if diagnostics is not None:
                    diagnostics.leaf_checks.append((bound, leaf[0]))
                incumbent = leaf[0]
                payload = leaf
            if _past(deadline):
                # the subset ranking may have stopped early
                open_bound = bound
                break
            continue

        # branch shipper-major so price-slot coupling resolves early; within
        # the active shipper take the category with the most valuable offer
        first_shipper = data.cats[undecided[0]][0]
        same = [c for c in undecided if data.cats[c][0] == first_shipper]
        cat = max(same, key=lambda c: data.val[best_mask, c, int(best_arg[c])])
        for choice in [*range(len(data.offers[cat])), _NONE]:
            child = list(state)
            child[cat] = choice
            child_state = tuple(child)
            if not _node_feasible(data, child_state):
                continue
            child_bound, child_mask, child_arg = _structured_bound(data, child_state)
            child_bound = min(child_bound, bound)  # bound inheritance
            if diagnostics is not None:
                diagnostics.bound_pairs.append((bound, child_bound))
            if child_bound > incumbent + _prune_tol(incumbent):
                heapq.heappush(heap, (-child_bound, -(depth + 1), next(ticket),
                                      child_state, child_mask, child_arg))

    seconds = time.perf_counter() - start
    if open_bound is None:
        status, gap = "optimal", 0.0
    else:
        status = "time_limit"
        gap = max(0.0, open_bound - incumbent) / max(1.0, abs(incumbent))
    return _assemble_solution(inst, rho, status, payload, nodes, seconds, gap)


# ---------------------------------------------------------------------------
# Relaxation (LP-based) engine
# ---------------------------------------------------------------------------

_TAG_PRIORITY = {"y": 0, "z": 1, "r": 2}


def _relaxation_model(model: MilpModel) -> MilpModel:
    """Copy of the model without product-linearization rows that cannot bind
    at an LP optimum: with a nonnegative objective coefficient, a revenue
    product variable is pushed up against its two <= rows, so its >= row is
    slack; with a nonpositive coefficient, a cost product variable is pushed
    down onto its >= rows, so its <= rows are slack.  The reduced LP has the
    same optimal value node for node, and its optimum maps back to a point
    satisfying the dropped rows."""
    drop_ge = set()
    drop_le = set()
    for idx, var in enumerate(model.variables):
        kind = var.tag[0]
        coef = model.objective.get(idx, 0.0)
        if kind == "pi" and coef >= 0.0:
            drop_ge.add(idx)
        elif kind == "nu" and coef <= 0.0:
            drop_le.add(idx)
    kept = []
    for con in model.constraints:
        if con.family == "deal_ge_link" and any(i in drop_ge for i in con.coeffs):
            continue
        if con.family in ("flow_le_alloc", "flow_le_price") and any(
            i in drop_le for i in con.coeffs
        ):
            continue
        kept.append(con)
    reduced = MilpModel(variables=model.variables, objective=model.objective,
                        maximize=model.maximize)
    reduced.constraints = kept
    return reduced


def solve_milp(model: MilpModel, budget: float | None = None,
               diagnostics: SearchDiagnostics | None = None) -> Solution:
    """Solve any model, built or parsed from LP text, with the relaxation
    engine.  ``budget`` is a wall-clock limit in seconds (None = none),
    checked before every node."""
    cells = (len(model.constraints) + len(model.variables) + 1) * (
        2 * len(model.variables) + len(model.constraints) + 1
    )
    if cells > RELAXATION_CELL_LIMIT:
        raise SolverError(
            f"model too large for the dense relaxation engine (~{cells} tableau "
            "cells); solve through the instance (structured engine) instead"
        )
    node_model = _relaxation_model(model)
    start = time.perf_counter()
    deadline = None if budget is None else start + budget
    binaries = model.binary_indices()

    incumbent = None  # (objective, values)
    zero_ok = all(
        (con.sense == "<=" and con.rhs >= -1e-12)
        or (con.sense == ">=" and con.rhs <= 1e-12)
        or (con.sense == "=" and abs(con.rhs) <= 1e-12)
        for con in model.constraints
    ) and all(v.lb <= 0.0 <= v.ub for v in model.variables)
    if zero_ok:
        # the all-zero point is feasible; it seeds pruning immediately
        incumbent = (0.0, {v.name: 0.0 for v in model.variables})
    heap: list = []
    ticket = _counter()
    # entries: (-bound estimate, -depth, tie, fixed); the root has no
    # estimate, and depth ties break toward diving
    heapq.heappush(heap, (-float("inf"), 0, next(ticket), {}))
    nodes = 0
    status = "optimal"
    final_gap = 0.0

    def inc_value() -> float:
        return incumbent[0] if incumbent is not None else -float("inf")

    def prune_tol() -> float:
        return 0.0 if incumbent is None else _prune_tol(incumbent[0])

    while heap:
        neg_est, neg_depth, _tie, fixed = heapq.heappop(heap)
        est = -neg_est
        depth = -neg_depth
        if incumbent is not None and est <= inc_value() + prune_tol():
            break
        if _past(deadline):
            status = "time_limit"
            final_gap = (max(0.0, est - inc_value())
                         / max(1.0, abs(inc_value())))
            break
        lp = solve_lp(node_model, fixed=fixed)
        nodes += 1
        if lp.status != "optimal":
            continue
        bound = lp.objective
        if diagnostics is not None:
            if nodes == 1:  # an infeasible root ends the search
                diagnostics.root_bound = bound
            if np.isfinite(est):
                diagnostics.bound_pairs.append((est, bound))
        if incumbent is not None and bound <= inc_value() + prune_tol():
            continue

        frac_var = None
        frac_amount = -1.0
        best_priority = 99
        for idx in binaries:
            if idx in fixed:
                continue
            value = lp.values[model.variables[idx].name]
            frac = abs(value - round(value))
            if frac <= 1e-6:
                continue
            priority = _TAG_PRIORITY.get(model.variables[idx].tag[0], 3)
            if priority < best_priority or (
                priority == best_priority and frac > frac_amount
            ):
                best_priority = priority
                frac_amount = frac
                frac_var = idx

        if frac_var is None:
            # integral: candidate incumbent (continuous vars already optimal)
            if incumbent is None or bound > incumbent[0]:
                incumbent = (bound, dict(lp.values))
            continue

        name = model.variables[frac_var].name
        lp_value = lp.values[name]
        first = 1.0 if lp_value >= 0.5 else 0.0
        for branch_value in (first, 1.0 - first):
            child = dict(fixed)
            child[frac_var] = branch_value
            heapq.heappush(heap, (-bound, -(depth + 1), next(ticket), child))

    seconds = time.perf_counter() - start
    if incumbent is None:
        if status == "time_limit":
            # no incumbent yet: nothing to report beyond the open gap
            return Solution(status="time_limit", objective=float("-inf"),
                            nodes=nodes, seconds=seconds, gap=float("inf"))
        return Solution(status="infeasible", objective=float("-inf"),
                        nodes=nodes, seconds=seconds)
    return _solution_from_values(model, incumbent[0], incumbent[1], status,
                                 nodes, seconds, final_gap)


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
