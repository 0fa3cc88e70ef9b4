"""Branch-and-bound engines, the enumeration oracle, and their agreement."""

import time
from dataclasses import replace

import pytest

from biloc import (
    RhoTable,
    build,
    enumerate_oracle,
    evaluate,
    export_lp,
    generate,
    parse_lp,
    scale_to_ratio,
    solve,
    solve_lp,
    solve_milp,
)
from biloc.instance import ServiceLevel
from biloc.solver import OracleSizeError, SearchDiagnostics, SolverError
from biloc.solver.serving import transport_offers

from conftest import single_offer_instance, tiny_family_instance, tiny_params


def test_hand_arithmetic_case_all_routes():
    inst = single_offer_instance(demand=10.0, price=2.0, cost=5.0, fixed_cost=4.0)
    rho = RhoTable.constant(inst, 1.0)
    assert enumerate_oracle(inst, rho).objective == pytest.approx(11.0)
    assert solve(inst, rho).objective == pytest.approx(11.0)
    assert solve_milp(build(inst, rho)).objective == pytest.approx(11.0)


def test_zero_rho_oracle_returns_empty_offer(tiny_instance):
    rho = RhoTable.constant(tiny_instance, 0.0)
    solution = enumerate_oracle(tiny_instance, rho)
    assert solution.objective == 0.0
    assert solution.service_choices == {}
    assert solution.open_facilities == ()


def test_trivial_certified_solve_explores_no_nodes(tiny_instance):
    rho = RhoTable.constant(tiny_instance, 0.0)
    solution = solve(tiny_instance, rho)
    assert solution.proven_optimal
    assert solution.status == "trivial"
    assert solution.objective == 0.0
    assert solution.nodes == 0


def test_structured_agrees_with_oracle_on_mutated_family():
    worst = 0.0
    for seed in range(30):
        inst = tiny_family_instance(seed)
        rho = RhoTable.closed_form(inst)
        ours = solve(inst, rho)
        truth = enumerate_oracle(inst, rho)
        assert ours.proven_optimal
        gap = abs(ours.objective - truth.objective) / max(1.0, abs(truth.objective))
        worst = max(worst, gap)
    assert worst <= 1e-6


def test_relaxation_engine_agrees_with_oracle():
    for seed in (0, 3):
        inst = generate(tiny_params(seed=seed))
        rho = RhoTable.closed_form(inst)
        ours = solve_milp(build(inst, rho))
        truth = enumerate_oracle(inst, rho)
        assert ours.objective == pytest.approx(truth.objective, abs=1e-6)


def test_solver_solution_is_feasible_and_reevaluates(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    assert evaluate(tiny_instance, tiny_rho, solution) == pytest.approx(
        solution.objective, abs=1e-8)
    assert solution.revenue - solution.assignment_cost - solution.fixed_cost == \
        pytest.approx(solution.objective, abs=1e-8)


@pytest.mark.parametrize("engine", ["solve", "solve_milp"])
def test_bound_monotonicity_and_root_bound(engine):
    pairs = 0
    for seed in range(20):
        inst = tiny_family_instance(seed)
        rho = RhoTable.closed_form(inst)
        diag = SearchDiagnostics()
        if engine == "solve":
            solution = solve(inst, rho, diagnostics=diag)
        else:
            solution = solve_milp(build(inst, rho), diagnostics=diag)
        assert all(child <= parent + 1e-9 for parent, child in diag.bound_pairs)
        # only the structured engine values leaves apart from their bound; an
        # integral relaxation node's value is its bound
        assert all(value <= bound + 1e-6 for bound, value in diag.leaf_checks)
        if solution.status != "trivial":  # certified without a root bound
            assert solution.objective <= diag.root_bound + 1e-9
        pairs += len(diag.bound_pairs)
    assert pairs > 0


def test_gamma_increase_never_helps():
    for seed in range(6):
        inst = generate(tiny_params(seed=seed, ratio=1.0))
        rho = RhoTable.closed_form(inst)
        base = solve(inst, rho).objective
        tightened = replace(inst, service_levels=tuple(
            ServiceLevel(s.id, gamma=1.15, cost_multiplier=s.cost_multiplier)
            for s in inst.service_levels
        ))
        worse = solve(tightened, RhoTable.closed_form(tightened)).objective
        assert worse <= base + 1e-9


def test_capacity_growth_never_hurts():
    for seed in range(6):
        inst = generate(tiny_params(seed=seed, ratio=0.8))
        rho = RhoTable.closed_form(inst)
        small = solve(inst, rho).objective
        grown = scale_to_ratio(inst, 1.6)
        big = solve(grown, RhoTable.closed_form(grown)).objective
        assert big >= small - 1e-9


def test_time_limit_returns_incumbent_and_gap():
    inst = generate(tiny_params(seed=11, n_customers=4, n_services=2,
                                n_prices=2, ratio=1.2))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho, budget=0.0)
    assert solution.status in ("time_limit", "optimal", "trivial")
    if solution.status == "time_limit":
        assert solution.gap >= 0.0


def test_budget_holds_through_warm_start_and_leaves():
    # at this size a full solve takes several seconds, most of them in the
    # warm start's and the leaves' facility-subset evaluations
    inst = generate(tiny_params(seed=7, n_facilities=7, n_customers=140,
                                categories_per_shipper=3, n_services=3,
                                n_prices=5, ratio=2.0))
    rho = RhoTable.closed_form(inst)
    started = time.perf_counter()
    solution = solve(inst, rho, budget=1.0)
    assert time.perf_counter() - started <= 1.5
    assert solution.status == "time_limit"
    assert solution.gap > 0.0


def test_structured_engine_requires_source(tiny_instance, tiny_rho):
    # the structured engine needs the instance; a parsed LP file carries
    # none and goes through the relaxation engine, which must agree
    parsed = parse_lp(export_lp(build(tiny_instance, tiny_rho)))
    solution = solve_milp(parsed)
    assert solution.proven_optimal
    assert solution.objective == pytest.approx(
        solve(tiny_instance, tiny_rho).objective, abs=1e-6)


def test_oracle_guard_rail():
    inst = generate(tiny_params(seed=0, n_customers=24, n_facilities=4,
                                categories_per_shipper=3, n_services=3,
                                n_prices=5, ratio=2.0))
    with pytest.raises(OracleSizeError, match="guard rail"):
        enumerate_oracle(inst, RhoTable.closed_form(inst))


def test_relaxation_engine_size_guard():
    inst = generate(tiny_params(seed=0, n_customers=48, n_facilities=4,
                                categories_per_shipper=3, n_services=3,
                                n_prices=5, ratio=2.0))
    model = build(inst, RhoTable.closed_form(inst))
    with pytest.raises(SolverError, match="structured"):
        solve_milp(model)


def test_lp_relaxation_dominates_integer_optimum(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    lp = solve_lp(model)
    assert lp.status == "optimal"
    assert lp.objective >= solve(tiny_instance, tiny_rho).objective - 1e-7


def test_lp_with_fixed_binaries_equals_transportation(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    model = build(tiny_instance, tiny_rho)
    fixed = {}
    for var in model.variables:
        tag = var.tag
        if tag[0] == "r":
            fixed[tag] = solution.r_value(tag[1])
        elif tag[0] == "y":
            fixed[tag] = solution.y_value(tag[1], tag[2], tag[3])
        elif tag[0] == "z":
            fixed[tag] = solution.z_value(tag[1], tag[2], tag[3])
    lp = solve_lp(model, fixed=fixed)
    assert lp.status == "optimal"

    offers = {}
    for (n, k), m in solution.service_choices.items():
        offers[(n, k)] = (m, solution.price_choices[(n, m)])
    result, _flows = transport_offers(
        tiny_instance, offers, solution.open_facilities, rho=tiny_rho)
    revenue = sum(
        tiny_rho.get(n, k, m, p) * tiny_instance.category_demand(n, k)
        * tiny_instance.ladder(n, m).prices[p]
        for (n, k), (m, p) in offers.items()
    )
    fixed_cost = sum(tiny_instance.facilities[i].fixed_cost
                     for i in solution.open_facilities)
    assert lp.objective == pytest.approx(revenue - result.cost - fixed_cost,
                                         abs=1e-7)


def test_lp_detects_empty_feasible_region():
    # category forced into service while every facility is shut
    inst = single_offer_instance()
    rho = RhoTable.constant(inst, 1.0)
    model = build(inst, rho)
    lp = solve_lp(model, fixed={("r", 0): 0.0, ("z", 0, 0, 0): 1.0,
                                ("y", 0, 0, 0): 1.0})
    assert lp.status == "infeasible"


def test_solve_is_deterministic_across_repeats(tiny_instance, tiny_rho):
    first = solve(tiny_instance, tiny_rho)
    second = solve(tiny_instance, tiny_rho)
    assert first.objective == second.objective
    assert first.nodes == second.nodes
    assert first.open_facilities == second.open_facilities
    assert first.price_choices == second.price_choices
    assert first.service_choices == second.service_choices
