"""Leaf transportation kernel: exactness against HiGHS, degenerate inputs,
equality bit for bit with the kernel that rebuilds its exchange graph, and
the capacity duals whose Lagrangian floor screens leaf subsets."""

import time

import numpy as np
import pytest

from biloc.solver.bnb import _prune_tol
from biloc.solver.transportation import (_FEAS_TOL, _PATH_TOL, TransportResult,
                                         capacity_limit, lagrangian_floor,
                                         solve_transportation)


def _assert_feasible(result, loads, capacities):
    """Every customer fully assigned, every facility within its tolerance."""
    w = result.w
    assert np.all(w >= 0.0)
    assert w.sum(axis=0) == pytest.approx(np.ones(w.shape[1]), abs=1e-12)
    used = w @ loads
    assert np.all(used <= capacities * (1.0 + _FEAS_TOL) + _FEAS_TOL)


def _highs(cost, loads, capacities):
    from scipy.optimize import linprog

    F, C = cost.shape
    A_eq = np.zeros((C, F * C))
    for j in range(C):
        A_eq[j, j::C] = 1.0
    A_ub = np.zeros((F, F * C))
    for i in range(F):
        A_ub[i, i * C:(i + 1) * C] = loads
    return linprog(cost.reshape(-1), A_ub=A_ub, b_ub=capacities, A_eq=A_eq,
                   b_eq=np.ones(C), bounds=(0, None), method="highs")


def _random_problems():
    """The 240 (cost, loads, capacities) of the HiGHS cross-check."""
    rng = np.random.default_rng(2023)
    for trial in range(240):
        F, C = int(rng.integers(1, 8)), int(rng.integers(1, 60))
        cost = rng.uniform(0.0, 10.0, size=(F, C))
        if trial % 3 == 0:
            cost = np.round(cost)  # ties across facilities and customers
        loads = rng.uniform(0.5, 5.0, size=C)
        capacities = rng.uniform(0.1, 1.0, size=F)
        # one in five at exactly tight total capacity, the rest between
        # slightly short and twice the load
        share = 1.0 if trial % 5 == 0 else rng.uniform(0.9, 2.0)
        capacities *= share * loads.sum() / capacities.sum()
        yield cost, loads, capacities


def test_kernel_matches_highs_on_random_problems():
    repaired = 0
    for cost, loads, capacities in _random_problems():
        F = cost.shape[0]
        result = solve_transportation(cost, loads, capacities)
        reference = _highs(cost, loads, capacities)
        if reference.status == 2:
            assert result.status == "infeasible"
            continue
        assert reference.status == 0
        assert result.status == "optimal"
        assert result.cost == pytest.approx(reference.fun, rel=1e-9, abs=1e-9)
        _assert_feasible(result, loads, capacities)
        greedy = np.zeros(F)
        np.add.at(greedy, cost.argmin(axis=0), loads)
        repaired += bool(np.any(greedy > capacities * (1.0 + _FEAS_TOL) + _FEAS_TOL))
    assert repaired >= 100


def _problem(cost, loads, capacities):
    return np.array(cost, dtype=float), np.array(loads, dtype=float), np.array(capacities,
                                                                              dtype=float)


#: Degenerate (cost, loads, capacities), each checked on its own below and
#: all of them against the full rebuild.
DEGENERATE = {
    "load at capacity": _problem([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [9.0, 1.0, 9.0]],
                                 [4.0, 3.0, 5.0], [5.0, 4.0, 3.0]),
    # facility 0 overloaded by the greedy start
    "zero-load customers": _problem([[1.0, 5.0, 1.0, 2.0], [2.0, 1.0, 3.0, 1.0]],
                                    [4.0, 0.0, 4.0, 0.0], [5.0, 10.0]),
    "tied costs": _problem(np.full((3, 5), 2.5), [3.0, 1.0, 2.0, 4.0, 1.0], [4.0, 4.0, 3.0]),
    "single facility fits": _problem([[1.0, 2.0, 3.0]], [2.0, 0.0, 3.0], [5.0]),
    "single facility short": _problem([[1.0, 2.0, 3.0]], [2.0, 0.0, 3.0], [4.0]),
    "short by one millionth": _problem([[1.0, 3.0], [2.0, 1.0]], [3.0, 4.0],
                                       [3.5, 3.5 - 1e-6]),
    "exactly enough": _problem([[1.0, 3.0], [2.0, 1.0]], [3.0, 4.0], [3.5, 3.5]),
    # total load exceeds total capacity by 5e-4, inside the 1e-3 tolerance of
    # the total; the greedy start puts all of it on the small facility
    "total overload inside tolerance": _problem([[1.0], [5.0]], [0.5 + 1e6 + 5e-4],
                                                [0.5, 1e6]),
    # the excess (1.5e-9) is inside the tolerance of the total, but the
    # greedy start puts 2.5e-9 over facility 0, past its own 2e-9 tolerance,
    # while facility 1 has room: the excess is shared out
    "facility overload past its tolerance": _problem([[1.0, 2.0], [2.0, 1.0]],
                                                     [1.0 + 2.5e-9, 1.0 - 1e-9], [1.0, 1.0]),
}


def test_kernel_load_exactly_equal_to_capacity():
    cost, loads, capacities = DEGENERATE["load at capacity"]
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.w @ loads == pytest.approx(capacities)
    assert result.cost == pytest.approx(_highs(cost, loads, capacities).fun, rel=1e-12)


def test_kernel_zero_load_customers_stay_at_cheapest_facility():
    cost, loads, capacities = DEGENERATE["zero-load customers"]
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.w[:, 1] == pytest.approx([0.0, 1.0])
    assert result.w[:, 3] == pytest.approx([0.0, 1.0])
    # customer 0 (regret 1/4 per unit) moves 3 of its 4 units; customer 2
    # (regret 2/4 per unit) stays
    assert result.w[:, 0] == pytest.approx([0.25, 0.75])
    assert result.w[:, 2] == pytest.approx([1.0, 0.0])
    assert result.cost == pytest.approx(0.25 * 1.0 + 0.75 * 2.0 + 1.0 + 1.0 + 1.0)


def test_kernel_tied_costs():
    cost, loads, capacities = DEGENERATE["tied costs"]
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.cost == pytest.approx(5 * 2.5)


def test_kernel_single_facility():
    fits = solve_transportation(*DEGENERATE["single facility fits"])
    assert fits.status == "optimal"
    assert fits.w == pytest.approx(np.ones((1, 3)))
    assert fits.cost == pytest.approx(6.0)
    short = solve_transportation(*DEGENERATE["single facility short"])
    assert short.status == "infeasible"


def test_kernel_infeasible_by_one_millionth():
    result = solve_transportation(*DEGENERATE["short by one millionth"])
    assert result.status == "infeasible"
    assert result.w is None
    cost, loads, capacities = DEGENERATE["exactly enough"]
    feasible = solve_transportation(cost, loads, capacities)
    assert feasible.status == "optimal"
    _assert_feasible(feasible, loads, capacities)


def test_kernel_overload_inside_tolerance_stays_within_each_capacity():
    cost, loads, capacities = DEGENERATE["total overload inside tolerance"]
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.w[0, 0] * loads[0] == pytest.approx(0.5, abs=1e-9)

    cost, loads, capacities = DEGENERATE["facility overload past its tolerance"]
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)


def test_kernel_counts_augmentations():
    # the greedy start is optimal when no facility is overloaded
    cost = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.0]])
    fits = solve_transportation(cost, np.array([2.0, 2.0, 2.0]), np.array([2.0, 4.0]))
    assert fits.augmentations == 0
    # facility 0 is 3 over: one path moves 3 units of customer 0 to facility 1
    assert solve_transportation(*DEGENERATE["zero-load customers"]).augmentations == 1
    # every customer starts at facility 0, 7 over; every exchange costs 0,
    # and each of four paths ends where the target fills or the customer it
    # moves runs out: 3 units to facility 1, 1 to facility 1, 2 and 1 to
    # facility 2
    assert solve_transportation(*DEGENERATE["tied costs"]).augmentations == 4


# -- hand-made problems -------------------------------------------------------

def test_transport_exact_capacity_single_facility():
    result = solve_transportation(
        cost=np.array([[3.0, 4.0]]), loads=np.array([5.0, 5.0]),
        capacities=np.array([10.0]),
    )
    assert result.status == "optimal"
    assert result.cost == pytest.approx(7.0)
    assert result.w == pytest.approx(np.ones((1, 2)))


def test_transport_overloaded_is_infeasible():
    result = solve_transportation(
        cost=np.array([[3.0, 4.0]]), loads=np.array([8.0, 5.0]),
        capacities=np.array([10.0]),
    )
    assert result.status == "infeasible"


def test_transport_prefers_cheap_facility_with_slack():
    result = solve_transportation(
        cost=np.array([[1.0, 1.0], [5.0, 5.0]]),
        loads=np.array([2.0, 2.0]),
        capacities=np.array([10.0, 10.0]),
    )
    assert result.status == "optimal"
    assert result.cost == pytest.approx(2.0)
    assert result.w[0] == pytest.approx([1.0, 1.0])


def test_transport_splits_when_capacity_binds():
    # cheap facility can host only half of the second customer
    result = solve_transportation(
        cost=np.array([[1.0, 1.0], [2.0, 3.0]]),
        loads=np.array([6.0, 6.0]),
        capacities=np.array([9.0, 40.0]),
    )
    assert result.status == "optimal"
    # serve customer 1 (regret 2) fully from the cheap one, split customer 0
    assert result.cost == pytest.approx(1.0 + 0.5 * 1.0 + 0.5 * 2.0)


def test_transport_no_customers_is_free():
    result = solve_transportation(
        cost=np.zeros((2, 0)), loads=np.zeros(0), capacities=np.array([1.0, 1.0])
    )
    assert result.status == "optimal"
    assert result.cost == 0.0


def test_transport_no_facilities_is_infeasible():
    result = solve_transportation(
        cost=np.zeros((0, 2)), loads=np.ones(2), capacities=np.zeros(0)
    )
    assert result.status == "infeasible"


# -- the kernel that rebuilds its exchange graph -------------------------------

def _transport_by_full_rebuild(cost, loads, capacities) -> TransportResult:
    """The kernel as it was before it kept its exchange graph between
    augmentations: every augmentation rebuilds the whole (F, F, C) exchange
    graph and runs Bellman-Ford on arrays.  The reference the kernel must
    equal bit for bit."""
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


def _tied_exchange_problems():
    """Unit costs on a small integer grid with power-of-two loads, so that
    many exchange arcs cost exactly the same across customers and
    facilities, and capacities that overload the greedy start."""
    rng = np.random.default_rng(7)
    for trial in range(60):
        F, C = int(rng.integers(2, 9)), int(rng.integers(2, 50))
        unit = rng.integers(0, 4, size=(F, C)).astype(float)
        if trial % 2:
            unit = unit[:1] + rng.integers(0, 3, size=(F, 1))  # equal differences
        loads = 2.0 ** rng.integers(-1, 3, size=C)
        capacities = rng.integers(1, 4, size=F).astype(float)
        capacities *= rng.uniform(1.0, 1.3) * loads.sum() / capacities.sum()
        yield unit * loads, loads, capacities


def _large_problems():
    """10 facilities x 400 customers, near-tight capacity; one with rounded
    costs for ties."""
    rng = np.random.default_rng(400)
    for trial in range(3):
        cost = rng.uniform(0.0, 10.0, size=(10, 400))
        if trial == 0:
            cost = np.round(cost)
        loads = rng.uniform(0.5, 5.0, size=400)
        capacities = rng.uniform(0.1, 1.0, size=10)
        capacities *= rng.uniform(1.0, 1.2) * loads.sum() / capacities.sum()
        yield cost, loads, capacities


def test_kernel_equals_the_full_rebuild_bit_for_bit():
    # status, cost and every entry of w, on the HiGHS cross-check's problems,
    # every degenerate case, tied exchange arcs and ten facilities
    started = time.perf_counter()
    augmented = {}
    for family, problems in (("random", _random_problems()),
                             ("degenerate", DEGENERATE.values()),
                             ("tied", _tied_exchange_problems()),
                             ("10x400", _large_problems())):
        augmented[family] = 0
        for cost, loads, capacities in problems:
            result = solve_transportation(cost, loads, capacities)
            expected = _transport_by_full_rebuild(cost, loads, capacities)
            assert result.status == expected.status
            assert result.cost.hex() == expected.cost.hex()
            assert (result.w is None) == (expected.w is None)
            if expected.w is not None:
                assert result.w.tobytes() == expected.w.tobytes()
            augmented[family] += result.augmentations > 0
    # problems where the greedy start was repaired
    assert augmented == {"random": 171, "degenerate": 6, "tied": 57, "10x400": 3}
    assert time.perf_counter() - started < 5.0


# -- capacity duals and the Lagrangian floor ------------------------------------

#: (cost, loads, capacities) where zero-load customers and the capacity
#: tolerance shape the flow and its duals.
FLOOR_CASES = {
    # customers 4 and 5 carry no load and sit at facility 0, which the greedy
    # start overloads by 3; one of them ties its two costs
    "zero-load customers at an overloaded facility": _problem(
        [[1.0, 5.0, 1.0, 2.0, 0.0, 1.0], [2.0, 1.0, 3.0, 1.0, 4.0, 1.0]],
        [4.0, 0.0, 4.0, 0.0, 0.0, 0.0], [5.0, 10.0]),
    # total load 1.5e-9 over total capacity, inside its tolerance, so the
    # kernel shares the excess out and leaves facility 0 above its capacity
    # but within its limit; moving customer 0 costs 1000 per unit
    "overload past the tolerance, dear to move": _problem(
        [[1.0, 2.0], [1001.0, 1.0]], [1.0 + 2.5e-9, 1.0 - 1e-9], [1.0, 1.0]),
}


def _floor_problems():
    """Every problem family of the kernel's tests, and the floor's own cases."""
    yield from _random_problems()
    yield from DEGENERATE.values()
    yield from _tied_exchange_problems()
    yield from _large_problems()
    yield from FLOOR_CASES.values()


def _balanced(loads, capacities):
    """The capacities the kernel routes to: scaled up in proportion where the
    total load exceeds them inside the tolerance."""
    return capacities * max(1.0, loads.sum() / capacities.sum())


def test_floor_never_exceeds_the_kernel_cost():
    # +inf exactly where the kernel reports infeasible, the kernel's cost bit
    # for bit at zero duals where the greedy start is optimal, and at the
    # kernel's own duals and at random duals >= 0 never above it beyond
    # rounding
    rng = np.random.default_rng(12)
    counts = {"infeasible": 0, "greedy": 0, "augmented": 0}
    for cost, loads, capacities in _floor_problems():
        F = len(capacities)
        result = solve_transportation(cost, loads, capacities)
        if result.status == "infeasible":
            assert result.duals is None
            assert lagrangian_floor(cost, loads, capacities, rng.uniform(0, 2, F)) == np.inf
            counts["infeasible"] += 1
            continue
        if result.augmentations == 0:
            assert lagrangian_floor(cost, loads, capacities, np.zeros(F)).hex() == \
                result.cost.hex()
            counts["greedy"] += 1
        else:
            counts["augmented"] += 1
        for duals in (result.duals, *(rng.uniform(0.0, 2.0, F) * (rng.random(F) < 0.7)
                                      for _ in range(5))):
            floor = lagrangian_floor(cost, loads, capacities, duals)
            assert floor <= result.cost + _prune_tol(result.cost)
    assert counts == {"infeasible": 17, "greedy": 58, "augmented": 239}


def test_kernel_duals_solve_the_capacity_dual():
    # every dual is >= 0, all of them 0 where the greedy start is optimal;
    # with the customer duals v_j = min_i(cost_ij + dual_i * load_j), the
    # dual's value at the capacities routed to equals the kernel's cost
    # (strong duality), and a dual is positive only at a full facility
    # (complementary slackness), which every facility is when none has room
    worst = 0.0
    counts = {"all full": 0, "positive duals": 0}
    for cost, loads, capacities in _floor_problems():
        result = solve_transportation(cost, loads, capacities)
        if result.status == "infeasible":
            continue
        duals = result.duals
        assert duals.shape == capacities.shape and np.all(duals >= 0.0)
        if result.augmentations == 0:
            assert not duals.any()
            continue
        balanced = _balanced(loads, capacities)
        value = float((cost + duals[:, None] * loads).min(axis=0).sum() - duals @ balanced)
        assert value == pytest.approx(result.cost, rel=1e-12, abs=0.0)
        worst = max(worst, abs(value - result.cost) / max(abs(result.cost), 1e-300))
        full = balanced - result.w @ loads <= _PATH_TOL * balanced.sum()
        counts["all full"] += bool(full.all())
        assert not duals[~full].any()
        counts["positive duals"] += int(np.count_nonzero(duals))
    assert worst < 1e-14
    assert counts == {"all full": 52, "positive duals": 545}


def test_duals_by_hand():
    # facility 0 keeps 5 of customer 0 and 2's 8 units; the cheapest of its
    # exchanges to facility 1, which has room, costs 1/4 per unit
    result = solve_transportation(*DEGENERATE["zero-load customers"])
    assert result.duals.tolist() == [0.25, 0.0]
    # no facility has room: the distances to facility 0 are 0, -1/5 (via
    # customer 2) and 1/3 (via customer 1), shifted up by 1/5
    cost, loads, capacities = DEGENERATE["load at capacity"]
    result = solve_transportation(cost, loads, capacities)
    assert result.duals == pytest.approx([0.2, 0.0, 8.0 / 15.0], rel=1e-12)
    assert lagrangian_floor(cost, loads, capacities, result.duals) == pytest.approx(
        result.cost, rel=1e-8)
    # the empty facility 0 has no capacity and holds nothing: its dual is
    # the least that keeps each customer's dual, 1 per unit
    cost, loads, capacities = _problem([[0.0, 0.0], [1.0, 2.0]], [1.0, 2.0], [0.0, 10.0])
    result = solve_transportation(cost, loads, capacities)
    assert (result.cost, result.duals.tolist()) == (3.0, [1.0, 0.0])
    assert lagrangian_floor(cost, loads, capacities, result.duals) == pytest.approx(
        3.0 - capacity_limit(0.0), rel=1e-15)


def test_floor_with_one_facility_and_without_customers():
    for name in ("single facility fits", "single facility short"):
        cost, loads, capacities = DEGENERATE[name]
        result = solve_transportation(cost, loads, capacities)
        assert lagrangian_floor(cost, loads, capacities, np.zeros(1)) == result.cost, name
    assert lagrangian_floor(*DEGENERATE["single facility fits"], np.zeros(1)) == 6.0
    assert lagrangian_floor(*DEGENERATE["single facility short"], np.ones(1)) == float("inf")
    assert solve_transportation(*DEGENERATE["single facility fits"]).duals.tolist() == [0.0]
    # no customer costs nothing, also with no facility; customers without a
    # facility cannot be served
    assert lagrangian_floor(np.zeros((2, 0)), np.zeros(0), np.ones(2), np.ones(2)) == 0.0
    assert lagrangian_floor(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0)) == 0.0
    assert lagrangian_floor(np.zeros((0, 2)), np.ones(2), np.zeros(0),
                            np.zeros(0)) == float("inf")
    free = solve_transportation(np.zeros((2, 0)), np.zeros(0), np.ones(2))
    assert free.duals.tolist() == [0.0, 0.0]
