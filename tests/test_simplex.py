"""Dense LP kernel, and the transportation kernel checked against it."""

import numpy as np
import pytest

from biloc.solver import simplex
from biloc.solver.simplex import SimplexError, solve_dense_lp
from biloc.solver.transportation import solve_transportation


def test_basic_maximization():
    # max x + 2y s.t. x + y <= 4, y <= 3  ->  (1, 3), value 7
    result = solve_dense_lp(
        c=[-1.0, -2.0],
        A=[[1.0, 1.0], [0.0, 1.0]],
        senses=["<=", "<="],
        b=[4.0, 3.0],
    )
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-7.0)
    assert result.x == pytest.approx([1.0, 3.0])


@pytest.mark.parametrize("stalled_rules", [("dantzig",), ("dantzig", "bland")])
def test_a_stalled_run_restarts_under_blands_rule(monkeypatch, stalled_rules):
    solve_once, rules = simplex._solve_once, []

    def stalling(c, A, senses, b, rule):
        rules.append(rule)
        if rule in stalled_rules:
            raise simplex._Stall(f"{rule} stalled")
        return solve_once(c, A, senses, b, rule)

    monkeypatch.setattr(simplex, "_solve_once", stalling)
    problem = dict(c=[-1.0, -2.0], A=[[1.0, 1.0], [0.0, 1.0]], senses=["<=", "<="],
                   b=[4.0, 3.0])
    if "bland" in stalled_rules:
        with pytest.raises(SimplexError, match="even under Bland's rule: bland stalled"):
            solve_dense_lp(**problem)
    else:
        result = solve_dense_lp(**problem)
        assert (result.status, result.objective) == ("optimal", -7.0)
        assert result.x == pytest.approx([1.0, 3.0])
    assert rules == ["dantzig", "bland"]


def test_equality_and_surplus_rows():
    # min x + y s.t. x + y = 2, x >= 0.5
    result = solve_dense_lp(
        c=[1.0, 1.0],
        A=[[1.0, 1.0], [1.0, 0.0]],
        senses=["=", ">="],
        b=[2.0, 0.5],
    )
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)


def test_infeasible_detected():
    result = solve_dense_lp(
        c=[1.0],
        A=[[1.0], [1.0]],
        senses=[">=", "<="],
        b=[2.0, 1.0],
    )
    assert result.status == "infeasible"


def test_unbounded_detected():
    result = solve_dense_lp(c=[-1.0], A=[[1.0]], senses=[">="], b=[0.0])
    assert result.status == "unbounded"


def test_degenerate_problem_terminates():
    # classic cycling-prone instance (Beale); anti-cycling must terminate it
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    result = solve_dense_lp(c, A, ["<=", "<=", "<="], [0.0, 0.0, 1.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-0.05)


def test_matches_external_lp_solver_on_random_problems():
    from scipy.optimize import linprog

    rng = np.random.default_rng(12)
    agreements = 0
    for _ in range(25):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        A = rng.uniform(-1.0, 2.0, size=(m, n))
        b = rng.uniform(0.5, 4.0, size=m)
        c = rng.uniform(-2.0, 2.0, size=n)
        ours = solve_dense_lp(c, A, ["<="] * m, b)
        theirs = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        if theirs.status == 0:
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(theirs.fun, abs=1e-7)
            agreements += 1
        elif theirs.status == 3:
            assert ours.status == "unbounded"
    assert agreements >= 10


def test_primal_residuals_are_tight():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = rng.uniform(0.0, 2.0, size=(4, 6))
        b = rng.uniform(1.0, 5.0, size=4)
        c = rng.uniform(-1.0, 1.0, size=6)
        result = solve_dense_lp(c, A, ["<="] * 4, b)
        assert result.status == "optimal"
        assert result.max_residual <= 1e-7


# -- transportation kernel ----------------------------------------------------

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


def test_transport_matches_simplex_on_random_problems():
    rng = np.random.default_rng(9)
    for _ in range(20):
        F, C = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        cost = rng.uniform(1.0, 9.0, size=(F, C))
        loads = rng.uniform(1.0, 5.0, size=C)
        capacities = rng.uniform(1.0, 8.0, size=F)
        result = solve_transportation(cost, loads, capacities)
        if loads.sum() > capacities.sum() + 1e-9:
            assert result.status == "infeasible"
            continue
        # rebuild as an explicit LP and compare
        n = F * C
        A = np.zeros((C + F, n))
        for j in range(C):
            A[j, j::C] = 1.0
        for i in range(F):
            A[C + i, i * C:(i + 1) * C] = loads
        b = np.concatenate([np.ones(C), capacities])
        check = solve_dense_lp(cost.reshape(-1), A, ["="] * C + ["<="] * F, b)
        assert result.status == "optimal" == check.status
        assert result.cost == pytest.approx(check.objective, abs=1e-8)
