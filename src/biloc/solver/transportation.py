"""Continuous transportation subproblem: fractional assignment of served
customers to open facilities.

Minimizes sum(cost[i, j] * w[i, j]) subject to full assignment of every
served customer (sum_i w[i, j] = 1), facility capacity over scaled loads
(sum_j load[j] * w[i, j] <= cap[i]) and w >= 0; w <= 1 is implied by the
assignment rows.  Every customer may use every open facility, so the problem
is feasible exactly when total load fits into total capacity.

With x[i, j] = load[j] * w[i, j] this is a Hitchcock transportation problem
with few sources, solved exactly by successive shortest paths (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, ch. 9).  The start is the greedy
pseudo-flow that sends every customer to its cheapest facility; it is
optimal when no facility is overloaded.  Otherwise load is moved out of
overloaded facilities along shortest paths of the facility-exchange graph:
arc a -> b moves load of one customer j held at a over to b, at cost
(cost[b, j] - cost[a, j]) / load[j] per unit, up to the x[a, j] held.
Augmenting along shortest paths keeps the residual network free of negative
cycles, so the flow is optimal once no facility is overloaded.

Each augmentation costs little.  The exchange costs of every (a, b, j) are
built once per call, +inf on the diagonal and where a holds none of j, and
each arc keeps its first cheapest customer and that customer's cost.  An
augmentation changes holdings only at the customers on its path, so only
where a facility starts or stops holding one of them is an entry rewritten
and an arc read again.  Bellman-Ford (Jacobi sweeps from every overloaded
facility at once), the choice of the target and the path walk run on plain
lists of F entries.  Ties go to the first index everywhere, so every path
and amount is the one a full rebuild of the graph per augmentation finds,
and the results are equal to it bit for bit.

The kernel also returns its flow's capacity duals lambda >= 0: per facility,
the shortest exchange-path distance per unit of load to a facility with room
(to facility 0, shifted so that the least is 0, when none has room); all 0
when the greedy start is optimal.  For any lambda >= 0 ``lagrangian_floor``
bounds the optimal cost from below (Geoffrion 1974), and at the kernel's
duals it equals that cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FEAS_TOL = 1e-9
# shares below this are rounding noise: of the largest unit cost, in a path's
# improvement (ignoring those keeps Bellman-Ford's predecessors acyclic), and
# of a capacity, in the room a path that filled the facility leaves
_PATH_TOL = 1e-12


def capacity_limit(capacity):
    """Largest load that fits ``capacity`` (a number or an array) within the
    feasibility tolerance."""
    return capacity * (1.0 + _FEAS_TOL) + _FEAS_TOL


@dataclass
class TransportResult:
    status: str  # "optimal" | "infeasible"
    cost: float
    w: np.ndarray | None  # (n_facilities, n_customers) fractions
    augmentations: int = 0  # shortest-path moves after the greedy start
    duals: np.ndarray | None = None  # (n_facilities,) capacity duals; None if infeasible


def lagrangian_floor(cost: np.ndarray, loads: np.ndarray, capacities: np.ndarray,
                     duals: np.ndarray) -> float:
    """L(duals) = sum_j min_i(cost[i, j] + duals[i] * loads[j]) - sum_i
    duals[i] * capacity_limit(capacities[i]), for arrays shaped as
    ``solve_transportation`` takes them and any ``duals`` (F,) >= 0: a lower
    bound on its cost, +inf where it reports infeasible, and its cost bit for
    bit at zero duals where it makes no augmentation."""
    if not loads.size:
        return 0.0
    if not _fits(loads, capacities):
        return float("inf")
    # per-customer minima first, summed as the kernel sums a greedy plan
    cheapest = (cost + duals[:, None] * loads).min(axis=0)
    return float(cheapest.sum()) - float(duals @ capacity_limit(capacities))


def _fits(loads: np.ndarray, capacities: np.ndarray) -> bool:
    """Whether a flow serves ``loads``: some facility, and room in total."""
    return bool(capacities.size) and float(loads.sum()) <= capacity_limit(
        float(capacities.sum()))


def solve_transportation(cost: np.ndarray, loads: np.ndarray,
                         capacities: np.ndarray) -> TransportResult:
    """cost: (F, C) per-unit-of-fraction cost; loads: (C,) scaled demands;
    capacities: (F,).  Serves every customer or reports infeasibility."""
    cost, loads, capacities = (np.asarray(a, dtype=float) for a in (cost, loads, capacities))
    F, C = cost.shape if cost.ndim == 2 else (0, 0)

    if C == 0:
        return TransportResult("optimal", 0.0, np.zeros((F, 0)), duals=np.zeros(F))
    if not _fits(loads, capacities):
        return TransportResult("infeasible", float("inf"), None)
    # the greedy start: every customer at its first cheapest facility
    choice = np.argmin(cost, axis=0)
    columns = np.arange(C)
    x = np.zeros((F, C))
    x[choice, columns] = loads
    used = x.sum(axis=1)
    # a facility is overloaded past its own tolerance on its own capacity
    limit = capacity_limit(capacities)
    held = loads > 0.0
    augmentations, duals = 0, np.zeros(F)
    if (used > limit).any():
        total_load = float(loads.sum())
        total_cap = float(capacities.sum())
        if 0.0 < total_cap < total_load:
            # an overload inside the tolerance is shared by all facilities in
            # proportion to capacity; each scaled capacity stays within its
            # limit
            capacities = capacities * (total_load / total_cap)
        augmentations, duals = _augment(x, used.tolist(), limit.tolist(),
                                        capacities.tolist(), cost, loads, held)

    w = np.divide(x, loads, out=np.zeros((F, C)), where=held)
    w[choice[~held], columns[~held]] = 1.0
    # per-customer sums first: a greedy plan costs exactly its chosen entries
    return TransportResult("optimal", float((cost * w).sum(axis=0).sum()), w,
                           augmentations, duals)


def _augment(x: np.ndarray, used: list, limit: list, capacities: list,
             cost: np.ndarray, loads: np.ndarray, held: np.ndarray
             ) -> tuple[int, np.ndarray]:
    """Move load out of overloaded facilities along shortest paths until
    none is overloaded; updates the flow ``x`` in place and returns the
    number of augmentations and the final flow's capacity duals."""
    F, C = x.shape
    unit = np.divide(cost, loads, out=np.zeros((F, C)), where=held)
    path_tol = _PATH_TOL * float(np.abs(unit).max())
    # exchange costs over (a, b, customer): the unit cost of moving that
    # customer's load from a to b, +inf on the diagonal and where a holds
    # none of it
    step = unit[None, :, :] - unit[:, None, :]
    step[np.arange(F), np.arange(F)] = np.inf
    swap = np.where(x[:, None, :] > 0.0, step, np.inf)
    # every arc a -> b: its first cheapest customer and that customer's cost
    via = swap.argmin(axis=2)
    arc = swap.reshape(F * F, C)[np.arange(F * F), via.ravel()].reshape(F, F).tolist()
    via = via.tolist()
    flow = x.tolist()  # x as lists while paths move load, written back at the end
    inf = float("inf")
    augmentations = 0

    while True:
        over = [a for a in range(F) if used[a] > limit[a]]
        if not over:
            x[...] = flow
            return augmentations, _duals(np.array(arc), np.array(capacities),
                                         np.array(used), unit, held)
        room = [cap - load for cap, load in zip(capacities, used)]

        # Bellman-Ford from every overloaded facility at once.  Each sweep
        # reads only the previous sweep's distances, and scans only the
        # tails those distances changed: a tail already scanned at its
        # distance improves no head by more than path_tol, so it never
        # wins a head that another tail improves
        dist = [inf] * F
        for a in over:
            dist[a] = 0.0
        pred = [-1] * F
        tails = over
        for _ in range(F - 1):
            best = [inf] * F
            source = [-1] * F
            for a in tails:
                reach = dist[a]
                for b, cost_ab in enumerate(arc[a]):
                    through = reach + cost_ab
                    if through < best[b]:
                        best[b] = through
                        source[b] = a
            tails = [b for b in range(F) if best[b] < dist[b] - path_tol]
            if not tails:
                break
            for b in tails:
                dist[b] = best[b]
                pred[b] = source[b]

        target = min((b for b in range(F) if room[b] > 0.0), key=dist.__getitem__)
        path = [target]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        hops = [(a, b, via[a][b]) for a, b in zip(path, path[1:])]
        amount = min(-room[path[0]], room[target], *(flow[a][j] for a, _b, j in hops))
        if not amount > 0.0:
            # an exchange graph out of step with the flow would loop forever
            raise RuntimeError("shortest augmenting path moves no load")
        held_before = {(f, j): flow[f][j] > 0.0 for a, b, j in hops for f in (a, b)}
        for a, b, j in hops:
            flow[a][j] -= amount
            flow[b][j] += amount
        used[path[0]] -= amount
        used[target] += amount
        augmentations += 1

        # the exchange costs change only where a facility starts or stops
        # holding a customer.  A new holding can only undercut an arc's
        # best; a lost one sends the arcs it was best for to a rescan.
        gained, stale = [], []
        for (f, j), had in held_before.items():
            if (flow[f][j] > 0.0) == had:
                continue
            if had:
                swap[f, :, j] = inf
                stale += [(f, b) for b in range(F) if via[f][b] == j]
            else:
                swap[f, :, j] = step[f, :, j]
                gained.append((f, j))
        for f, j in gained:
            arc_f, via_f = arc[f], via[f]
            for b, cost_fb in enumerate(step[f, :, j].tolist()):
                if cost_fb < arc_f[b] or (cost_fb == arc_f[b] and j < via_f[b]):
                    arc_f[b], via_f[b] = cost_fb, j
        for f, b in stale:
            j = int(swap[f, b].argmin())
            arc[f][b], via[f][b] = float(swap[f, b, j]), j


def _duals(arc: np.ndarray, capacities: np.ndarray, used: np.ndarray,
           unit: np.ndarray, held: np.ndarray) -> np.ndarray:
    """Capacity duals of an optimal flow with exchange arcs ``arc`` (F, F),
    by Bellman-Ford sweeps towards the facilities with room.  One that
    reaches none holds nothing and has no capacity; it takes the least dual
    that keeps each ``held`` customer's ``unit`` cost there at least its
    dual."""
    room = capacities - used > _PATH_TOL * capacities.sum()
    full = not room.any()
    sink = np.arange(len(room)) == 0 if full else room
    dist = np.where(sink, 0.0, np.inf)
    for _ in range(len(dist) - 1):
        dist = np.where(sink, 0.0, np.minimum(dist, (arc + dist).min(axis=1)))
    lost = np.isinf(dist)
    if full:
        dist -= dist[~lost].min()
    if lost.any():
        reach = (unit[~lost] + dist[~lost, None]).min(axis=0)
        dist[lost] = (reach - unit[lost])[:, held].max(axis=1, initial=0.0)
    return np.maximum(dist, 0.0)
