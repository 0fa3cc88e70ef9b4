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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FEAS_TOL = 1e-9
# per-unit cost improvements below this share of the largest unit cost are
# rounding noise; ignoring them keeps Bellman-Ford's predecessors acyclic
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


def solve_transportation(cost: np.ndarray, loads: np.ndarray,
                         capacities: np.ndarray) -> TransportResult:
    """cost: (F, C) per-unit-of-fraction cost; loads: (C,) scaled demands;
    capacities: (F,).  Serves every customer or reports infeasibility."""
    cost = np.asarray(cost, dtype=float)
    loads = np.asarray(loads, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    F, C = cost.shape if cost.ndim == 2 else (0, 0)

    if C == 0:
        return TransportResult("optimal", 0.0, np.zeros((F, 0)))
    if F == 0:
        return TransportResult("infeasible", float("inf"), None)
    total_load = float(loads.sum())
    total_cap = float(capacities.sum())
    if total_load > capacity_limit(total_cap):
        return TransportResult("infeasible", float("inf"), None)
    # a facility is overloaded past its own tolerance on its own capacity
    limit = capacity_limit(capacities)
    if 0.0 < total_cap < total_load:
        # an overload inside the tolerance is shared by all facilities in
        # proportion to capacity; each scaled capacity stays within its limit
        capacities = capacities * (total_load / total_cap)

    # greedy start: every customer at its cheapest facility
    choice = np.argmin(cost, axis=0)
    columns = np.arange(C)
    x = np.zeros((F, C))
    x[choice, columns] = loads
    used = x.sum(axis=1)
    held = loads > 0.0
    unit = np.divide(cost, loads, out=np.zeros((F, C)), where=held)
    path_tol = _PATH_TOL * float(np.abs(unit).max())

    while True:
        over = np.flatnonzero(used > limit)
        if over.size == 0:
            break
        room = capacities - used
        # exchange graph: best customer and unit cost of every arc a -> b
        swap = np.where(x[:, None, :] > 0.0, unit[None, :, :] - unit[:, None, :], np.inf)
        via = swap.argmin(axis=2)
        arc = np.take_along_axis(swap, via[:, :, None], axis=2)[:, :, 0]
        np.fill_diagonal(arc, np.inf)

        # Bellman-Ford from every overloaded facility at once
        dist = np.full(F, np.inf)
        dist[over] = 0.0
        pred = np.full(F, -1)
        for _ in range(F - 1):
            through = dist[:, None] + arc
            source = through.argmin(axis=0)
            best = through[source, np.arange(F)]
            better = best < dist - path_tol
            if not better.any():
                break
            dist[better] = best[better]
            pred[better] = source[better]

        slack = np.flatnonzero(room > 0.0)
        target = int(slack[np.argmin(dist[slack])])
        path = [target]
        while pred[path[-1]] >= 0:
            path.append(int(pred[path[-1]]))
        path.reverse()
        hops = [(a, b, via[a, b]) for a, b in zip(path, path[1:])]
        amount = min(-room[path[0]], room[target], *(x[a, j] for a, _b, j in hops))
        for a, b, j in hops:
            x[a, j] -= amount
            x[b, j] += amount
        used[path[0]] -= amount
        used[target] += amount

    w = np.divide(x, loads, out=np.zeros((F, C)), where=held)
    w[choice[~held], columns[~held]] = 1.0
    # per-customer sums first: a greedy plan costs exactly its chosen entries
    return TransportResult("optimal", float((cost * w).sum(axis=0).sum()), w)
