"""Scenario simulation against the deterministic reduction."""

from dataclasses import replace

import numpy as np
import pytest

from biloc import (
    OPT_OUT,
    REALLOC,
    REDUCED,
    RhoTable,
    ScenarioSet,
    Solution,
    accept_rule,
    bench,
    generate,
    offer_utility,
    oracle,
    simulate,
    solve,
)

from biloc.choice import SCENARIO_CHUNK
from biloc.milp import evaluate
from biloc.oracle import _acceptance_patterns, standard_error, weighted_moments
from biloc.solver.serving import transport_offers

from conftest import single_offer_instance, tiny_family_instance, tiny_params


def _solved(seed=0, **overrides):
    inst = generate(tiny_params(seed=seed, **overrides))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho)
    return inst, rho, solution


@pytest.mark.parametrize("mode", [REDUCED, REALLOC])
def test_open_without_offers_costs_exactly_the_fixed_cost(tiny_instance, mode):
    first_stage = Solution("optimal", 0.0, open_facilities=(0,))
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 500, seed=1)
    result = simulate(tiny_instance, first_stage, scen, modes=(mode,))[mode]
    assert result.infeasible_scenarios == 0
    assert result.mean_profit == pytest.approx(
        -tiny_instance.facilities[0].fixed_cost)
    assert result.std_error == pytest.approx(0.0, abs=1e-6)


def test_deterministic_mode_every_scenario_identical():
    inst = generate(tiny_params(seed=1, alpha=0.0))  # offers beat the opt-out
    inst = inst.with_choice_model(inst.choice_model.with_deterministic(True))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho)
    scen = ScenarioSet.for_model(inst.choice_model, 400, seed=2)
    result = simulate(inst, solution, scen, keep_outcomes=True)[REDUCED]
    profits = {round(o.profit, 9) for o in result.outcomes}
    assert len(profits) == 1
    assert result.mean_profit == pytest.approx(solution.objective, abs=1e-8)
    assert result.std_error == pytest.approx(0.0, abs=1e-5)


def test_reduced_mean_within_three_stderr(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 200_000, seed=3)
    result = simulate(tiny_instance, solution, scen)[REDUCED]
    assert abs(result.mean_profit - solution.objective) <= 3 * result.std_error


def test_monte_carlo_error_shrinks_at_root_rate():
    inst, rho, solution = _solved(seed=2)
    sizes = (4_000, 16_000, 64_000)
    errors = []
    for count in sizes:
        devs = []
        for seed in range(8):
            scen = ScenarioSet.for_model(inst.choice_model, count, seed=seed)
            result = simulate(inst, solution, scen)[REDUCED]
            devs.append(abs(result.mean_profit - solution.objective))
        errors.append(np.mean(devs))
    # quadrupling the sample should roughly halve the error
    assert errors[2] < errors[0]
    ratio = errors[0] / errors[2]
    assert 2.0 <= ratio <= 8.5


def test_rejecting_categories_contribute_exactly_zero():
    inst, rho, solution = _solved(seed=4)
    offers = {}
    for (n, k), m in solution.service_choices.items():
        offers[(n, k)] = (m, solution.price_choices[(n, m)])
    if not offers:
        pytest.skip("optimal first stage offers nothing on this seed")
    scen = ScenarioSet.for_model(inst.choice_model, 300, seed=5)
    result = simulate(inst, solution, scen, keep_outcomes=True)[REDUCED]
    margins = {}
    for (n, k), (m, p) in offers.items():
        d_k = inst.category_demand(n, k)
        q = inst.ladder(n, m).prices[p]
        cost = sum(inst.costs[i, j, mm] * w
                   for (i, j, mm), w in solution.allocation.items()
                   if inst.customers[j].shipper == n
                   and inst.customers[j].category == k)
        margins[(n, k)] = d_k * q - cost
    fixed = sum(inst.facilities[i].fixed_cost for i in solution.open_facilities)
    for outcome in result.outcomes:
        rebuilt = sum(margins[key] for key in outcome.accepted) - fixed
        assert outcome.profit == pytest.approx(rebuilt, abs=1e-9)


@pytest.mark.parametrize("mode", [REDUCED, REALLOC])
def test_outcomes_match_a_scenario_by_scenario_replay(mode):
    # simulate values each acceptance pattern once; rebuild sampled scenarios
    # one at a time from their draws, across the chunk boundaries
    inst = tiny_family_instance(50)  # 4 offers, a gate missed about half the time
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 40_000, seed=6)
    assert scen.count > 2 * SCENARIO_CHUNK
    result = simulate(inst, solution, scen, modes=(mode,), keep_outcomes=True)[mode]
    offers = solution.offers
    model = inst.choice_model
    utilities = {
        (n, k): (offer_utility(model.alpha, inst.ladder(n, m).prices[p],
                               model.preference(n, k, m)) + scen.epsilon(n, k, m),
                 model.optout(n, k) + scen.epsilon(n, k, OPT_OUT))
        for (n, k), (m, p) in offers.items()
    }
    fixed = sum(inst.facilities[i].fixed_cost for i in solution.open_facilities)
    for s in range(0, scen.count, 37):
        outcome = result.outcomes[s]
        accepted = frozenset(key for key, (u, u0) in utilities.items()
                             if accept_rule(u[s], u0[s]))
        assert outcome.scenario == s and outcome.accepted == accepted
        short = set()
        for (n, m), p in solution.price_choices.items():
            committed = sum(inst.category_demand(*key) for key in accepted
                            if key[0] == n and offers[key][0] == m)
            if committed < inst.ladder(n, m).min_demands[p] - 1e-12:
                short.add((n, m))
        assert outcome.min_demand_violations == short
        if mode == REALLOC:
            served, flows = transport_offers(inst, {key: offers[key] for key in accepted},
                                             solution.open_facilities)
            revenue = sum(inst.category_demand(n, k) * inst.ladder(n, m).prices[p]
                          for (n, k), (m, p) in offers.items() if (n, k) in accepted)
            assert outcome.profit == pytest.approx(revenue - served.cost - fixed,
                                                   abs=1e-9)
            assert outcome.allocation == flows
    assert any(o.min_demand_violations for o in result.outcomes[::37])


def test_reallocation_never_below_reduced():
    for seed in (0, 2, 6):
        inst, rho, solution = _solved(seed=seed, ratio=1.0)
        scen = ScenarioSet.for_model(inst.choice_model, 30_000, seed=7)
        results = simulate(inst, solution, scen, modes=(REDUCED, REALLOC))
        reduced, realloc = results[REDUCED], results[REALLOC]
        assert realloc.infeasible_scenarios == 0
        assert realloc.mean_profit >= reduced.mean_profit - 3 * reduced.std_error


def test_simulate_validates_first_stage(tiny_instance):
    bad = Solution("optimal", 0.0, service_choices={(0, 0): 0})  # no price
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 10, seed=0)
    with pytest.raises(ValueError, match="no chosen price"):
        simulate(tiny_instance, bad, scen)


def test_simulate_rejects_mismatched_scenarios(tiny_instance):
    scen = ScenarioSet(count=10, seed=0, beta=123.0)
    with pytest.raises(ValueError, match="beta"):
        simulate(tiny_instance, Solution("optimal", 0.0), scen)


def test_violation_rate_zero_without_gates(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 2_000, seed=8)
    result = simulate(tiny_instance, solution, scen, keep_outcomes=True)[REDUCED]
    assert all(rate == 0.0 for rate in result.violation_rate.values())
    assert not any(o.min_demand_violations for o in result.outcomes)


def test_violation_rate_half_at_threshold():
    # single category whose whole demand sits exactly on the gate; the gate
    # is missed exactly when the offer is rejected, so the rate matches 1-rho
    inst = single_offer_instance(demand=40.0, price=15.0, cost=1.0,
                                 fixed_cost=1.0, capacity=100.0,
                                 min_demand=40.0)
    model = inst.choice_model.with_alpha(
        (3.0 - 4.5) / 15.0)  # offer utility equals the opt-out: rho = 0.5
    inst = inst.with_choice_model(model)
    first_stage = Solution(
        "optimal", 0.0, open_facilities=(0,),
        price_choices={(0, 0): 0}, service_choices={(0, 0): 0},
        allocation={(0, 0, 0): 1.0},
    )
    scen = ScenarioSet.for_model(inst.choice_model, 100_000, seed=9)
    result = simulate(inst, first_stage, scen, keep_outcomes=True)[REDUCED]
    rate = result.violation_rate[(0, 0)]
    assert rate == pytest.approx(0.5, abs=0.01)
    flagged = sum((0, 0) in o.min_demand_violations for o in result.outcomes)
    assert flagged / result.count == rate


def test_violation_rate_degenerate_is_zero_or_one():
    inst = single_offer_instance(demand=40.0, price=2.0, cost=1.0,
                                 fixed_cost=1.0, capacity=100.0,
                                 min_demand=40.0)
    inst = inst.with_choice_model(inst.choice_model.with_deterministic(True))
    first_stage = Solution(
        "optimal", 0.0, open_facilities=(0,),
        price_choices={(0, 0): 0}, service_choices={(0, 0): 0},
        allocation={(0, 0, 0): 1.0},
    )
    scen = ScenarioSet.for_model(inst.choice_model, 500, seed=10)
    result = simulate(inst, first_stage, scen)[REDUCED]
    assert result.violation_rate[(0, 0)] in (0.0, 1.0)


def test_reallocation_counts_infeasible_scenarios():
    # capacity can host one category only; scenarios where both accept are
    # infeasible under the literal per-scenario recourse
    inst = generate(tiny_params(seed=5, n_shippers=1, categories_per_shipper=2,
                                n_services=1, ratio=2.0))
    # shrink the capacity so both categories together overflow it
    total = inst.total_demand
    fac = tuple(replace(f, capacity=0.6 * total / inst.n_facilities)
                for f in inst.facilities)
    inst = replace(inst, facilities=fac)
    offers = {(0, k): (0, 0) for k in range(2)}
    first_stage = Solution(
        "optimal", 0.0, open_facilities=tuple(range(inst.n_facilities)),
        price_choices={(0, 0): 0},
        service_choices={(0, k): 0 for k in range(2)},
    )
    scen = ScenarioSet.for_model(inst.choice_model, 4_000, seed=11)
    result = simulate(inst, first_stage, scen, modes=(REALLOC,))[REALLOC]
    assert result.infeasible_scenarios == 1_992
    assert result.count == 4_000
    assert result.mean_profit == pytest.approx(-49.993994830995995, rel=1e-12)


@pytest.mark.parametrize("mode, mean, std_error", [
    (REDUCED, 2645.972305761937, 11.048121650231957),
    (REALLOC, 2648.335890524081, 11.058296514464889),
])
def test_replay_of_the_desk_optimum_is_pinned(mode, mean, std_error):
    inst = generate(bench.DESK_PARAMS)
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 20_000, seed=9)
    result = simulate(inst, solution, scen, modes=(mode,))[mode]
    assert result.count == 20_000
    assert result.infeasible_scenarios == 0
    assert result.mean_profit == pytest.approx(mean, rel=1e-12)
    assert result.std_error == pytest.approx(std_error, rel=1e-12)
    assert result.violation_rate == {(0, 0): 0.0, (1, 0): 0.0}


def test_reduced_mode_serves_a_plan_that_comes_without_its_allocation():
    # the transportation kernel at closed-form rho re-serves the offers just
    # as the search served them
    inst = generate(bench.DESK_PARAMS)
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 20_000, seed=9)
    full = simulate(inst, solution, scen)[REDUCED]
    assert simulate(inst, replace(solution, allocation={}), scen)[REDUCED] == full
    unservable = replace(solution, open_facilities=(), allocation={})
    with pytest.raises(ValueError, match="cannot be served by the open facilities"):
        simulate(inst, unservable, scen)


@pytest.mark.parametrize("mode", [REDUCED, REALLOC])
def test_gate_shortfall_rate_is_pinned(mode):
    inst = tiny_family_instance(15)
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 20_000, seed=3)
    result = simulate(inst, solution, scen, modes=(mode,), keep_outcomes=True)[mode]
    assert result.infeasible_scenarios == 0
    assert result.violation_rate == {(1, 0): 0.6906}
    flagged = sum((1, 0) in o.min_demand_violations for o in result.outcomes)
    assert flagged == 13_812


def _acceptance_patterns_of_bool_rows(accept, keep_ids=True):
    """Reference pattern table: the columns sorted by lexsorting the bool rows,
    their counts and every scenario's column."""
    n_offers, take = accept.shape
    if n_offers == 0:
        return np.zeros((0, 1), dtype=bool), np.array([take]), np.zeros(take, dtype=np.intp)
    order = np.lexsort(accept)
    ordered = accept[:, order]
    starts = np.ones(take, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    index = np.empty(take, dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return ordered[:, starts], np.bincount(index), index


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_offers", [0, 1, 7, 8, 9, 16, 17, 70])
def test_packed_pattern_table_equals_the_bool_row_table(n_offers, rate):
    rng = np.random.default_rng(n_offers)
    accept = rng.random((n_offers, 3_000)) < rate
    table, counts, index = _acceptance_patterns(accept, True)
    expected_table, expected_counts, expected_index = _acceptance_patterns_of_bool_rows(accept)
    assert table.dtype == bool
    assert np.array_equal(table, expected_table)
    assert np.array_equal(index, expected_index)
    assert np.array_equal(counts, expected_counts)
    assert np.array_equal(table[:, index], accept)
    # without the scenarios' positions the table and the counts are the same
    unindexed = _acceptance_patterns(accept, False)
    assert unindexed[2] is None
    assert np.array_equal(unindexed[0], table) and np.array_equal(unindexed[1], counts)


def test_outcomes_do_not_depend_on_how_patterns_are_sorted(monkeypatch):
    inst = tiny_family_instance(15)
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 20_000, seed=3)
    packed = simulate(inst, solution, scen, modes=(REDUCED, REALLOC), keep_outcomes=True)
    monkeypatch.setattr(oracle, "_acceptance_patterns", _acceptance_patterns_of_bool_rows)
    rows = simulate(inst, solution, scen, modes=(REDUCED, REALLOC), keep_outcomes=True)
    assert packed == rows


def test_reduced_mean_is_the_plan_valued_at_sample_average_rho_on_the_desk():
    # the sample-average identity behind the reduction: replaying a plan
    # against the draws behind rho-hat gives its model value under rho-hat
    inst = generate(bench.DESK_PARAMS)
    solution = solve(inst, RhoTable.closed_form(inst))
    scen = ScenarioSet.for_model(inst.choice_model, 200_000, seed=4)
    mean = simulate(inst, solution, scen)[REDUCED].mean_profit
    assert mean == pytest.approx(evaluate(inst, RhoTable.saa(inst, scen), solution),
                                 rel=1e-12)


def test_reduced_mean_is_the_plan_valued_at_sample_average_rho_on_tiny_seeds():
    for seed in range(40):
        inst = tiny_family_instance(seed)
        solution = solve(inst, RhoTable.closed_form(inst))
        scen = ScenarioSet.for_model(inst.choice_model, 70_000, seed=seed)
        mean = simulate(inst, solution, scen)[REDUCED].mean_profit
        assert mean == pytest.approx(
            evaluate(inst, RhoTable.saa(inst, scen), solution), rel=1e-12), seed


def test_weighted_moments_keep_a_small_spread_at_a_large_mean():
    # sum(x^2) - n*mean^2 rounds at the scale of 1e17 here, while the
    # squared deviations sum to about 0.2
    rng = np.random.default_rng(0)
    values = 1e6 + 1e-3 * rng.standard_normal(2_000)
    counts = rng.integers(1, 200, size=values.size)
    every = np.repeat(values, counts)
    moments = weighted_moments(values, counts)
    assert moments[0] == every.size
    assert moments[1] == pytest.approx(every.mean(), rel=1e-15)
    assert standard_error(moments) == pytest.approx(
        every.std(ddof=1) / every.size ** 0.5, rel=1e-6)
    assert standard_error(moments) == pytest.approx(2.2e-6, rel=0.05)


def test_standard_error_of_no_values_and_of_one_value():
    none = weighted_moments(np.zeros(0), np.zeros(0, dtype=np.int64))
    assert none == (0, 0.0, 0.0)
    assert np.isnan(standard_error(none))
    assert standard_error(weighted_moments(np.array([3.0]), np.array([1]))) == float("inf")
    assert standard_error(weighted_moments(np.array([3.0]), np.array([5]))) == 0.0
