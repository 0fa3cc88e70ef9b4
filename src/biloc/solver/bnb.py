"""Exact branch-and-bound over the first-stage binaries.

The search (``solve``) works from the instance and its
acceptance-probability table.  It branches on category commitments: each
child either binds one shipper-category to a concrete (service, ladder
position) offer (which also pins that shipper-service price slot) or sends
it to the outside option.  A node's allowed offers rule out conflicting
prices on a slot, and a pinned price whose minimum-demand gate the allowed
offers cannot reach makes it infeasible; at a fully decided node that gate
check is the exact committed-demand test.  Node bounds come from a
relaxation that drops price coupling across categories, the remaining gate
slack and per-facility capacity: for every candidate facility subset, each
undecided category takes its best still-allowed offer priced against
per-customer cheapest serving cost, and an exact 0/1 knapsack, solved for
all facility subsets at once, caps total gamma-scaled demand by the subset's
aggregate capacity; when too many categories are undecided to enumerate
their subsets, the fractional knapsack takes its place.  Every table over
subsets, of facilities or of knapsack items, comes from one doubling and
sums its terms in index order.  The bound only ever over-estimates and
shrinks monotonically along any branch, so below the root the search carries
only the subsets whose root bound beats the warm start's leaf.  One routine
derives nodes in batches: all children of a branched node at once, as arrays
with a leading node axis, and the root and the warm start's leaf alone.
Each node comes out bit for bit as if derived by itself, and is derived
once, when made; its heap entry carries its own copy of the per-subset bound
and of its allowed offers, which give its children.  Fully decided nodes are
evaluated exactly by transporting facility subsets in the order of that
bound, so facility decisions never need their own tree levels.  Each subset
considered is first screened by its Lagrangian transport-cost floor at the
capacity duals of the last transport on it, else the solve's last transport:
a subset whose revenue less floor and fixed cost cannot beat the leaf's best
value is never transported.

It returns a proven-optimal solution or a time-limited incumbent with its
remaining gap.  A model without its instance, such as a parsed LP file, goes
to HiGHS instead (``highs.solve_milp``).
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass, field
from itertools import count as _counter
from typing import TYPE_CHECKING

import numpy as np

from ..choice import RhoTable
from ..milp import Solution, certifies_trivial, offer_revenue, profit_upper_bound
from .serving import flow_map, serving_problem, solution_from_offers
from .transportation import capacity_limit, lagrangian_floor, solve_transportation

if TYPE_CHECKING:  # pragma: no cover
    from ..instance import Instance

_BIG = 1e18
_UNDECIDED = -2
_NONE = -1
#: Relative bound gap below which a search declares its incumbent optimal.
_GAP_TOL = 1e-9

#: Most (facility mask, category subset) pairs a node bound enumerates for
#: its exact 0/1 knapsack (1 MB of float64); past it the bound is fractional.
_EXACT_KNAPSACK_CELLS = 1 << 17


class SolverError(RuntimeError):
    pass


@dataclass
class SearchDiagnostics:
    """Optional instrumentation collected during a solve."""

    root_bound: float = float("nan")
    masks_kept: int = 0  # facility masks whose root bound beats the warm start
    subsets_transported: int = 0  # leaf facility subsets solved exactly
    subsets_screened: int = 0  # leaf facility subsets their cost floor ruled out
    bound_pairs: list = field(default_factory=list)   # (parent bound, child's own bound)
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

    Offers are padded (category, offer) arrays: row c lists every (service,
    ladder position) category c could take, valid entries first.
    ``val[c, o, mask]`` is the capacity-blind value of offer o for category c
    when the open facilities are exactly the bits of ``mask``:
    probability-weighted revenue minus probability-weighted cheapest serving
    cost.  Padding entries carry -BIG so vectorized maxima ignore them.

    Every per-mask table comes from one doubling, a step per facility: masks
    2^i to 2^(i+1) - 1 are masks 0 to 2^i - 1 plus facility i.  Sums add
    their terms in index order, as a loop would, so each table is the same
    to the bit, and a leaf subtracts the fixed cost its node bound did.
    """

    def __init__(self, inst: "Instance", rho: RhoTable):
        self.inst = inst
        self.rho = rho

        self.slots = [(n, m) for n in range(inst.n_shippers)
                      for m in inst.shipper_services(n)]
        slot_index = {sm: s for s, sm in enumerate(self.slots)}
        # minimum demand per (slot, ladder position), padded with zeros
        gates = [inst.ladder(n, m).min_demands for n, m in self.slots]
        self.slot_level = np.zeros((len(gates), max(map(len, gates), default=1)))
        for s, levels in enumerate(gates):
            self.slot_level[s, :len(levels)] = levels
        self.gated = bool((self.slot_level > 0.0).any())  # a gate can be missed

        self.cats = [(n, k) for n in range(inst.n_shippers)
                     for k in range(inst.categories_per_shipper[n])]
        self.cat_demand = np.array([inst.category_demand(n, k) for n, k in self.cats])
        C = len(self.cats)
        M = inst.n_services

        # (slot, service, ladder position, acceptance, price) of each offer;
        # padding has position -1
        offers = [[(slot_index[(n, m)], m, p, rho.get(n, k, m, p), q)
                   for m in inst.services_by_category[n][k]
                   for p, q in enumerate(inst.ladder(n, m).prices)]
                  for n, k in self.cats]
        O = max(map(len, offers), default=1)
        slot, service, position, self.off_rho, price = np.array(
            [row + [(0, 0, -1, 0.0, 0.0)] * (O - len(row)) for row in offers],
            dtype=float).reshape(C * O, 5).T.copy().reshape(5, C, O)
        self.off_slot, self.off_m, self.off_p = (c.astype(int) for c in (slot, service, position))
        self.off_valid = self.off_p >= 0
        self.off_rev = self.off_rho * self.cat_demand[:, None] * price
        gamma = np.array([s.gamma for s in inst.service_levels])
        self.off_weight = np.where(self.off_valid,
                                   gamma[self.off_m] * self.cat_demand[:, None], np.inf)
        min_rho = np.full((C, M), np.inf)  # lowest acceptance per service ladder
        np.minimum.at(min_rho, (np.arange(C)[:, None], self.off_m),
                      np.where(self.off_valid, self.off_rho, np.inf))

        I = inst.n_facilities
        self.n_masks = 1 << I
        self.mask_ids = np.arange(self.n_masks)  # facility mask of each mask column
        per_facility = np.array([[f.capacity, f.fixed_cost] for f in inst.facilities]).T
        self.mask_capacity, self.mask_fixed_cost = _subset_sums(per_facility)
        self.mask_limit = capacity_limit(self.mask_capacity)

        # per (mask, customer, service): the cheapest serving cost, the first
        # facility attaining it and the second-cheapest cost (inf with one
        # facility open); mask 0 opens nothing and is left out below
        cost = np.empty((self.n_masks, *inst.costs.shape[1:]))
        second = np.empty_like(cost)
        cost[0] = second[0] = np.inf
        at = np.zeros(cost.shape, dtype=np.int8)
        for i, row in enumerate(inst.costs):
            old, new = slice(0, 1 << i), slice(1 << i, 2 << i)
            np.minimum(second[old], np.maximum(cost[old], row), out=second[new])
            at[new] = at[old]
            at[new][row < cost[old]] = i
            np.minimum(cost[old], row, out=cost[new])

        # cheapest serving cost per (facility mask, category, service), plus
        # the overflow machinery: per mask, which facility each customer's
        # cheapest assignment uses, the load that lands there, and the lowest
        # probability-weighted regret rate (second cheapest minus cheapest,
        # per unit of scaled load) anyone at that facility would pay to move.
        # ``loads_at[c, m, i, mask]`` has one more service, M, that loads
        # nothing: the service of a category without a committed offer
        cheap = np.zeros((self.n_masks, C, M))  # no customers cost nothing
        for c, nk in enumerate(self.cats):  # a contiguous copy sums as a loop did
            cheap[1:, c] = np.take(cost[1:], inst.customers_by_category[nk], axis=1).sum(axis=1)
        cat_of = np.array([self.cats.index((c.shipper, c.category)) for c in inst.customers])
        cheap[0, np.bincount(cat_of, minlength=C) > 0] = _BIG  # mask 0 serves no one
        scaled_load = gamma * np.array([c.demand for c in inst.customers])[:, None]  # (J, M)
        regret_rate = second[1:]
        regret_rate -= cost[1:]
        regret_rate /= scaled_load
        del cost  # spent (mask, customer, service) arrays are freed at once
        bins = (cat_of[:, None] * M + np.arange(M)) * I + at[1:]  # flat (c, m, i, mask)
        bins *= self.n_masks
        bins += np.arange(1, self.n_masks)[:, None, None]
        raw_rate_min = np.full((C, M, I, self.n_masks), np.inf)
        np.minimum.at(raw_rate_min.reshape(-1), bins.ravel(), regret_rate.ravel())
        del second, regret_rate, at
        self.loads_at = np.zeros((C, M + 1, I, self.n_masks))
        self.loads_at[:, :M] = np.bincount(  # loads add up in customer order
            bins.ravel(), weights=np.broadcast_to(scaled_load, bins.shape).ravel(),
            minlength=raw_rate_min.size).reshape(raw_rate_min.shape)
        rows = np.arange(C)[:, None]
        val = self.off_rev[None, :, :] - self.off_rho[None, :, :] * cheap[:, rows, self.off_m]
        val[:, ~self.off_valid] = -_BIG
        self.val = np.ascontiguousarray(val.transpose(1, 2, 0))  # (C, O, masks)

        # node-independent move rate: min over every offerable (category,
        # service) pair of (lowest acceptance probability on that ladder) x
        # (raw regret rate); pairs that cannot be offered contribute nothing
        finite = np.isfinite(raw_rate_min) & np.isfinite(min_rho)[:, :, None, None]
        rho_safe = np.where(np.isfinite(min_rho), min_rho, 0.0)[:, :, None, None]
        weighted = np.where(finite, np.where(finite, raw_rate_min, 0.0) * rho_safe, np.inf)
        self.overflow_rate = np.minimum(  # (I, masks)
            weighted.reshape(C * M, I, self.n_masks).min(axis=0), _BIG)
        self.facility_limit = capacity_limit(per_facility[0])
        # per facility mask, the capacity duals (0 off the mask) of its last
        # transport, under None the solve's last; keep_masks copies share it
        self.duals = {None: np.zeros(I)}

    def keep_masks(self, kept: np.ndarray) -> "_StructuredData":
        """A copy with only the mask columns ``kept``; ``n_masks`` stays the instance's."""
        narrow = copy.copy(self)
        for name in ("mask_ids", "mask_capacity", "mask_limit", "mask_fixed_cost",
                     "val", "loads_at", "overflow_rate"):
            setattr(narrow, name, np.take(getattr(self, name), kept, axis=-1))
        return narrow

    def overflow_correction(self, states: np.ndarray) -> np.ndarray:
        """(nodes, masks) lower bound on extra transport cost each node's
        committed offers must pay beyond everyone-at-their-cheapest, from
        load past each facility's capacity limit; ``states`` is (nodes, C).
        Loads add up in category order and the cost in facility order."""
        cats = np.arange(len(self.cats))
        services = np.where(states >= 0, self.off_m[cats, np.maximum(states, 0)],
                            self.inst.n_services)  # the service that loads nothing
        loads = _sum_in_order(self.loads_at[cats, services])  # (nodes, I, masks)
        overflow = np.maximum(loads - self.facility_limit[:, None], 0.0)
        return np.minimum(_sum_in_order(overflow * self.overflow_rate), _BIG)


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=1)`` added in index order, as numpy adds it unless no
    later axis is wider than one (one mask column), when it adds pairwise."""
    return terms.cumsum(axis=1)[:, -1] + 0.0  # a sum of -0.0 reads 0.0


def _node_offers(data: _StructuredData, states: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(allowed offers, price conflict, missed gates) of the nodes whose
    commitments are the rows of ``states``, a (K, C) array.

    Committed offers pin their slots' prices; a node that pins one slot at
    two prices conflicts.  A committed category allows only its offer, one
    sent to the outside option none, and an undecided one every offer whose
    slot is unpinned or pinned at the offer's price.  A category holds at
    most one allowed offer on a pinned slot, so one bincount, its slots
    offset by node, gives the demand each node's slots can still reach; a
    pinned slot misses its gate when that falls short of the pinned price's
    minimum demand; only a positive gate can be missed, so without one no
    demand is counted.  At a fully decided node that is exactly the
    committed-demand test.  Returns (K, C, O), (K,) and (K, S) arrays.
    """
    n_nodes = len(states)
    n_slots = len(data.slots)
    node, cat = np.nonzero(states >= 0)
    offer = states[node, cat]
    slot, price = data.off_slot[cat, offer], data.off_p[cat, offer]
    pinned = np.full((n_nodes, n_slots), _UNDECIDED)
    pinned[node, slot] = price
    conflict = np.zeros(n_nodes, dtype=bool)
    conflict[node[pinned[node, slot] != price]] = True

    pinned_price = pinned[:, data.off_slot]  # (K, C, O)
    allowed = data.off_valid & ((pinned_price == _UNDECIDED)
                                | (pinned_price == data.off_p))
    allowed &= (states == _UNDECIDED)[:, :, None]
    allowed[node, cat, offer] = True

    if not data.gated:
        return allowed, conflict, np.zeros(pinned.shape, dtype=bool)
    level = np.where(pinned >= 0,
                     data.slot_level[np.arange(n_slots), np.maximum(pinned, 0)],
                     0.0)
    reach = np.bincount(
        (data.off_slot + n_slots * np.arange(n_nodes)[:, None, None]).ravel(),
        weights=(allowed * data.cat_demand[:, None]).ravel(),
        minlength=n_nodes * n_slots,
    ).reshape(n_nodes, n_slots)
    return allowed, conflict, reach < level - 1e-9


def _subset_sums(terms: np.ndarray) -> np.ndarray:
    """(..., 2^n) sum of every subset of the n terms on the last axis,
    subset s holding the terms at the bits of s.  The subsets holding term i
    are those without it plus term i, so each sum adds its terms in index
    order, as Python's ``sum`` does."""
    n = terms.shape[-1]
    sums = np.zeros((*terms.shape[:-1], 1 << n))
    for i in range(n):
        np.add(sums[..., :1 << i], terms[..., i:i + 1], out=sums[..., 1 << i:2 << i])
    return sums


def _knapsack(values: np.ndarray, weights: np.ndarray, room: np.ndarray,
              exact: bool) -> np.ndarray:
    """Per node and mask, the most value a set of items fits into the room.

    ``values`` is (nodes, masks, items) and non-negative, ``weights``
    (items,) and ``room`` (nodes, masks).  When ``exact``, every subset of
    items is valued at once, an exact 0/1 knapsack, over slices of at most
    ``_EXACT_KNAPSACK_CELLS`` (row, subset) pairs, each subset summing its
    items in item order, whatever the rows.  Otherwise the items are taken
    greedily by value per weight with the last one split, the fractional
    bound.
    """
    n_nodes, n_masks, n_items = values.shape
    values = values.reshape(n_nodes * n_masks, n_items)
    room = room.reshape(n_nodes * n_masks)
    if exact:
        sizes = _subset_sums(weights)
        best = np.empty(len(room))
        step = _EXACT_KNAPSACK_CELLS >> n_items  # rows per slice
        for lo in range(0, len(room), step):
            part = slice(lo, lo + step)
            valued = _subset_sums(values[part])
            valued *= sizes[None, :] <= room[part, None]  # drop what overfills
            best[part] = valued.max(axis=1)
        return best.reshape(n_nodes, n_masks)
    order = np.argsort(-values / weights, axis=1, kind="stable")
    value = np.take_along_axis(values, order, axis=1)
    weight = weights[order]
    before = np.cumsum(weight, axis=1) - weight
    take = np.clip((room[:, None] - before) / weight, 0.0, 1.0)
    return (value * take).sum(axis=1).reshape(n_nodes, n_masks)


def _derive(data: _StructuredData, states: list[tuple]
            ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """(bound per facility mask, allowed offers) of each node in ``states``,
    all derived together: the children of a branched node, or one node.

    Committed categories add their offers' values less the overflow
    correction; the undecided ones share the room their least allowed
    weights leave, valued by a 0/1 knapsack (by its fractional relaxation
    when they are too many to enumerate).  Every mask reads -BIG, and the
    allowed offers are None, at an infeasible node (a price conflict or an
    unreachable gate); masks the committed load overfills read -BIG too.

    A node's numbers do not depend on the batch it is derived in: each sum
    runs over that node's terms alone and in one order, by category (a
    category without an offer adding zero), by facility, or by offer for
    the gate's demand.  Nodes whose knapsacks hold the same items share one
    knapsack over their stacked rows.  The returned arrays are copies,
    owned by the caller.
    """
    table = np.array(states, dtype=int).reshape(len(states), len(data.cats))
    allowed, conflict, missed = _node_offers(data, table)
    feasible = ~(conflict | missed.any(axis=1))

    cats = np.arange(len(data.cats))
    committed = table >= 0
    offers = np.maximum(table, 0)  # a committed category's offer
    room = data.mask_limit - np.where(
        committed, data.off_weight[cats, offers], 0.0).sum(axis=1)[:, None]
    value = (_sum_in_order(np.where(committed[:, :, None], data.val[cats, offers], 0.0))
             - data.overflow_correction(table))

    # each undecided category's best allowed value per mask and least
    # allowed weight; those that earn something at some mask are the
    # knapsack's items, and nodes with the same items share one knapsack
    undecided = table == _UNDECIDED
    cols = np.flatnonzero(undecided.any(axis=0))
    if cols.size:
        open_offers = allowed[:, cols]
        candidates = data.val[cols]  # (U, O, masks)
        best = np.max(np.broadcast_to(candidates, (len(states), *candidates.shape)),
                      axis=2, where=open_offers[..., None], initial=-_BIG)
        weight = np.where(open_offers, data.off_weight[cols], np.inf).min(axis=2)
        opt = undecided[:, cols] & (best > 0.0).any(axis=2)
        items_key = np.where(opt, weight, -1.0)
        groups: dict[bytes, list[int]] = {}
        for k in np.flatnonzero(opt.any(axis=1)).tolist():
            groups.setdefault(items_key[k].tobytes(), []).append(k)
        for rows in groups.values():
            items = np.flatnonzero(opt[rows[0]])
            value[rows] += _knapsack(
                np.maximum(best[rows][:, items], 0.0).transpose(0, 2, 1),
                weight[rows[0], items], room[rows],
                data.n_masks << len(items) <= _EXACT_KNAPSACK_CELLS)
    bounds = np.where(feasible[:, None] & (room >= 0.0),
                      value - data.mask_fixed_cost, -_BIG)
    return [(bounds[k].copy(), allowed[k].copy() if feasible[k] else None)
            for k in range(len(states))]


def _leaf_value(data: _StructuredData, state: tuple, mask_bound: np.ndarray,
                floor: float, deadline: float | None = None,
                diagnostics: SearchDiagnostics | None = None):
    """Exact value of a fully decided node, or None when infeasible or unable
    to beat ``floor``.

    Facility subsets are ranked by ``mask_bound``, the node's bound per
    facility mask, and only considered while it still beats the best value
    seen, so most subsets are never looked at.  A considered subset is
    transported only when revenue less its Lagrangian transport-cost floor
    and fixed cost could still beat that value, and its flow map is built
    only when it does.  Past ``deadline`` the ranking stops early and the
    best value found so far is returned.
    """
    inst = data.inst
    offers = {data.cats[c]: (int(data.off_m[c, o]), int(data.off_p[c, o]))
              for c, o in enumerate(state) if o >= 0}
    revenue = offer_revenue(inst, data.rho, offers)
    best = None
    best_value = floor
    transported = screened = 0
    for column in np.argsort(-mask_bound, kind="stable"):  # ties: lower mask first
        if mask_bound[column] <= best_value + 1e-12 or _past(deadline):
            break
        mask = int(data.mask_ids[column])
        subset = tuple(i for i in range(inst.n_facilities) if mask >> i & 1)
        served, services, cost, loads, caps = serving_problem(inst, offers, subset, data.rho)
        fixed = float(data.mask_fixed_cost[column])
        duals = data.duals.get(mask, data.duals[None])[list(subset)]
        # an infeasible subset's floor is +inf, so it is always screened
        if (revenue - lagrangian_floor(cost, loads, caps, duals) - fixed
                + _prune_tol(best_value) <= best_value):
            screened += 1
            continue
        transported += 1
        result = solve_transportation(cost, loads, caps)
        data.duals[mask] = data.duals[None] = np.zeros(inst.n_facilities)
        data.duals[mask][list(subset)] = result.duals
        profit = revenue - result.cost - fixed  # as ``evaluate_offers`` values it
        if profit > best_value:
            best_value = profit
            best = (profit, offers, subset, flow_map(subset, served, services, result))
    if diagnostics is not None:
        diagnostics.subsets_transported += transported
        diagnostics.subsets_screened += screened
    return best


def _dive(data: _StructuredData) -> tuple:
    """The warm start's leaf: each category takes its most valuable allowed
    offer with every facility open if that value is positive, else none,
    round r deciding the r-th category of every shipper (shippers share no
    price slot).  Slots whose committed demand then misses the gate lose
    their offers, which moves no other slot's, so one pass repairs all."""
    value = data.val[:, :, -1]  # (C, O), every facility open
    rank = np.array([k for _n, k in data.cats], dtype=int)
    state = np.full(len(data.cats), _UNDECIDED)
    for r in range(int(rank.max(initial=-1)) + 1):
        cats = np.flatnonzero(rank == r)
        rows = np.where(_node_offers(data, state[None])[0][0, cats], value[cats], -_BIG)
        best = rows.argmax(axis=1)
        state[cats] = np.where(rows[np.arange(len(cats)), best] > 0.0, best, _NONE)

    missed = _node_offers(data, state[None])[2][0]
    committed = np.flatnonzero(state >= 0)
    state[committed[missed[data.off_slot[committed, state[committed]]]]] = _NONE
    return tuple(state.tolist())


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
    # the dive's leaf, valued like any leaf, seeds pruning
    warm = _dive(data)
    root = (_UNDECIDED,) * len(data.cats)
    [(warm_bounds, _allowed), (root_bounds, root_allowed)] = _derive(data, [warm, root])
    payload = _leaf_value(data, warm, warm_bounds, 0.0, deadline, diagnostics)
    incumbent = 0.0 if payload is None else payload[0]

    root_bound = float(root_bounds.max())
    # bounds only fall along a branch: masks that cannot beat the warm start go
    kept = np.flatnonzero(root_bounds > incumbent + 1e-12)
    data = data.keep_masks(kept)
    root_bounds = root_bounds[kept]
    if diagnostics is not None:
        diagnostics.root_bound = root_bound
        diagnostics.masks_kept = len(kept)

    # heap entries: (-bound, -depth, tie, state, bound per mask, allowed offers)
    ticket = _counter()
    heap = [(-root_bound, 0, next(ticket), root, root_bounds, root_allowed)]
    nodes = 0
    open_bound = None  # bound of the node left unfinished when the budget ran out

    while heap:
        neg_bound, neg_depth, _tie, state, mask_bound, allowed = heapq.heappop(heap)
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
            leaf = _leaf_value(data, state, mask_bound, incumbent, deadline, diagnostics)
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
        # the active shipper take the category with the most valuable allowed
        # offer at the best mask.  Children take only allowed offers, so none
        # conflicts with a pinned price; infeasible ones bound at -BIG, below
        # the incumbent (never negative), so they are never pushed.
        first_shipper = data.cats[undecided[0]][0]
        same = [c for c in undecided if data.cats[c][0] == first_shipper]
        best = np.where(allowed, data.val[:, :, np.argmax(mask_bound)],
                        -_BIG).max(axis=1)
        cat = max(same, key=lambda c: best[c])
        children = []
        for choice in [*np.flatnonzero(allowed[cat]).tolist(), _NONE]:
            child = list(state)
            child[cat] = choice
            children.append(tuple(child))
        for child_state, (child_bounds, child_allowed) in zip(
                children, _derive(data, children)):
            child_max = float(child_bounds.max())
            if diagnostics is not None:
                diagnostics.bound_pairs.append((bound, child_max))
            child_bound = min(child_max, bound)  # bound inheritance
            if child_bound > incumbent + _prune_tol(incumbent):
                heapq.heappush(heap, (-child_bound, -(depth + 1), next(ticket),
                                      child_state, child_bounds, child_allowed))

    seconds = time.perf_counter() - start
    if open_bound is None:
        status, gap = "optimal", 0.0
    else:
        status = "time_limit"
        gap = max(0.0, open_bound - incumbent) / max(1.0, abs(incumbent))
    if payload is None:
        return Solution(status=status, objective=0.0, nodes=nodes,
                        seconds=seconds, gap=gap)
    value, offers, subset, flows = payload
    return solution_from_offers(inst, rho, status, value, offers, subset, flows,
                                nodes=nodes, seconds=seconds, gap=gap)
