"""Scenario simulation against the deterministic reduction."""

import numpy as np
import pytest

from biloc import (
    REALLOC,
    REDUCED,
    RhoTable,
    ScenarioSet,
    Solution,
    generate,
    min_demand_violation_rate,
    simulate,
    solve,
)

from conftest import single_offer_instance, tiny_params


def _solved(seed=0, **overrides):
    inst = generate(tiny_params(seed=seed, **overrides))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho)
    return inst, rho, solution


def test_open_without_offers_costs_exactly_the_fixed_cost(tiny_instance):
    first_stage = Solution("optimal", 0.0, open_facilities=(0,))
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 500, seed=1)
    result = simulate(tiny_instance, first_stage, scen, mode=REDUCED)
    assert result.mean_profit == pytest.approx(
        -tiny_instance.facilities[0].fixed_cost)
    assert result.std_error == pytest.approx(0.0, abs=1e-6)


def test_deterministic_mode_every_scenario_identical():
    inst = generate(tiny_params(seed=1, alpha=0.0))  # offers beat the opt-out
    inst = inst.with_choice_model(inst.choice_model.with_deterministic(True))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho)
    scen = ScenarioSet.for_model(inst.choice_model, 400, seed=2)
    result = simulate(inst, solution, scen, mode=REDUCED, keep_outcomes=True)
    profits = {round(o.profit, 9) for o in result.outcomes}
    assert len(profits) == 1
    assert result.mean_profit == pytest.approx(solution.objective, abs=1e-8)
    assert result.std_error == pytest.approx(0.0, abs=1e-5)


def test_reduced_mean_within_three_stderr(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    scen = ScenarioSet.for_model(tiny_instance.choice_model, 200_000, seed=3)
    result = simulate(tiny_instance, solution, scen, mode=REDUCED)
    assert abs(result.mean_profit - solution.objective) <= 3 * result.std_error


def test_monte_carlo_error_shrinks_at_root_rate():
    inst, rho, solution = _solved(seed=2)
    sizes = (4_000, 16_000, 64_000)
    errors = []
    for count in sizes:
        devs = []
        for seed in range(8):
            scen = ScenarioSet.for_model(inst.choice_model, count, seed=seed)
            result = simulate(inst, solution, scen, mode=REDUCED)
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
    result = simulate(inst, solution, scen, mode=REDUCED, keep_outcomes=True)
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


def test_reallocation_never_below_reduced():
    for seed in (0, 2, 6):
        inst, rho, solution = _solved(seed=seed, ratio=1.0)
        scen = ScenarioSet.for_model(inst.choice_model, 30_000, seed=7)
        reduced = simulate(inst, solution, scen, mode=REDUCED)
        realloc = simulate(inst, solution, scen, mode=REALLOC)
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
    result = simulate(tiny_instance, solution, scen, mode=REDUCED,
                      keep_outcomes=True)
    assert all(rate == 0.0 for rate in result.violation_rate.values())
    assert min_demand_violation_rate(result.outcomes) == {}


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
    result = simulate(inst, first_stage, scen, mode=REDUCED, keep_outcomes=True)
    rate = result.violation_rate[(0, 0)]
    assert rate == pytest.approx(0.5, abs=0.01)
    assert min_demand_violation_rate(result.outcomes)[(0, 0)] == pytest.approx(
        rate)


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
    result = simulate(inst, first_stage, scen, mode=REDUCED)
    assert result.violation_rate[(0, 0)] in (0.0, 1.0)


def test_reallocation_counts_infeasible_scenarios():
    # capacity can host one category only; scenarios where both accept are
    # infeasible under the literal per-scenario recourse
    inst = generate(tiny_params(seed=5, n_shippers=1, categories_per_shipper=2,
                                n_services=1, ratio=2.0))
    # shrink the capacity so both categories together overflow it
    from dataclasses import replace

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
    result = simulate(inst, first_stage, scen, mode=REALLOC)
    assert result.infeasible_scenarios > 0
    assert result.count == 4_000
