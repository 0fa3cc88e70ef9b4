"""Leaf transportation kernel: exactness against HiGHS and degenerate inputs."""

import numpy as np
import pytest

from biloc.solver.transportation import _FEAS_TOL, solve_transportation


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


def test_kernel_matches_highs_on_random_problems():
    rng = np.random.default_rng(2023)
    repaired = 0
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


def test_kernel_load_exactly_equal_to_capacity():
    cost = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [9.0, 1.0, 9.0]])
    loads = np.array([4.0, 3.0, 5.0])
    capacities = np.array([5.0, 4.0, 3.0])
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.w @ loads == pytest.approx(capacities)
    assert result.cost == pytest.approx(_highs(cost, loads, capacities).fun, rel=1e-12)


def test_kernel_zero_load_customers_stay_at_cheapest_facility():
    cost = np.array([[1.0, 5.0, 1.0, 2.0], [2.0, 1.0, 3.0, 1.0]])
    loads = np.array([4.0, 0.0, 4.0, 0.0])
    capacities = np.array([5.0, 10.0])  # facility 0 overloaded by the greedy start
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
    cost = np.full((3, 5), 2.5)
    loads = np.array([3.0, 1.0, 2.0, 4.0, 1.0])
    capacities = np.array([4.0, 4.0, 3.0])
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.cost == pytest.approx(5 * 2.5)


def test_kernel_single_facility():
    loads = np.array([2.0, 0.0, 3.0])
    fits = solve_transportation(np.array([[1.0, 2.0, 3.0]]), loads, np.array([5.0]))
    assert fits.status == "optimal"
    assert fits.w == pytest.approx(np.ones((1, 3)))
    assert fits.cost == pytest.approx(6.0)
    short = solve_transportation(np.array([[1.0, 2.0, 3.0]]), loads, np.array([4.0]))
    assert short.status == "infeasible"


def test_kernel_infeasible_by_one_millionth():
    cost = np.array([[1.0, 3.0], [2.0, 1.0]])
    loads = np.array([3.0, 4.0])
    result = solve_transportation(cost, loads, np.array([3.5, 3.5 - 1e-6]))
    assert result.status == "infeasible"
    assert result.w is None
    feasible = solve_transportation(cost, loads, np.array([3.5, 3.5]))
    assert feasible.status == "optimal"
    _assert_feasible(feasible, loads, np.array([3.5, 3.5]))


def test_kernel_overload_inside_tolerance_stays_within_each_capacity():
    # total load exceeds total capacity by 5e-4, inside the 1e-3 tolerance of
    # the total; the greedy start puts all of it on the small facility
    capacities = np.array([0.5, 1e6])
    loads = np.array([capacities.sum() + 5e-4])
    result = solve_transportation(np.array([[1.0], [5.0]]), loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
    assert result.w[0, 0] * loads[0] == pytest.approx(0.5, abs=1e-9)

    # the excess (1.5e-9) is inside the tolerance of the total, but the
    # greedy start puts 2.5e-9 over facility 0, past its own 2e-9 tolerance,
    # while facility 1 has room: the excess is shared out
    capacities = np.array([1.0, 1.0])
    loads = np.array([1.0 + 2.5e-9, 1.0 - 1e-9])
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    result = solve_transportation(cost, loads, capacities)
    assert result.status == "optimal"
    _assert_feasible(result, loads, capacities)
