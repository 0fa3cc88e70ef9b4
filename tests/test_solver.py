"""Branch-and-bound engines, the enumeration oracle, and their agreement."""

import json
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from biloc import (
    RhoTable,
    Solution,
    bench,
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
from biloc.milp import OBJECTIVE_REL_TOL
from biloc.solver import OracleSizeError, SearchDiagnostics, SolverError, bnb
from biloc.solver.bnb import (
    _BIG,
    _EXACT_KNAPSACK_CELLS,
    _NONE,
    _UNDECIDED,
    _derive,
    _dive,
    _node_offers,
    _prune_tol,
    _StructuredData,
)
from biloc.solver.serving import evaluate_offers, transport_offers
from biloc.solver.transportation import capacity_limit

from conftest import (external_milp_optimum, single_offer_instance, tiny_family_instance,
                      tiny_params)
from test_acceptance import BENCHMARK_PARAMS


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


def _bounds_cover_leaves(inst, rho) -> int:
    """Checks that at every node of ``inst``, decided or not, each facility
    mask's bound covers the exact value of every leaf beneath it served from
    that mask; returns the number of (node, mask) pairs with such a leaf.

    Leaves rank and prune facility subsets by the per-mask bound, and
    children are pruned by its maximum.  Every state is derived in one
    batch, so the check also runs through batches mixing depths."""
    data = _StructuredData(inst, rho)
    choices = [[*range(int(data.off_valid[c].sum())), _NONE]
               for c in range(len(data.cats))]
    full = list(product(*choices))
    leaves = {}  # fully decided state -> exact value per mask
    for state, (_bounds, allowed) in zip(full, _derive(data, full)):
        if allowed is None:
            continue  # a price conflict or a missed gate: not a leaf
        offers = {data.cats[c]: (int(data.off_m[c, o]), int(data.off_p[c, o]))
                  for c, o in enumerate(state) if o >= 0}
        exact = np.full(data.n_masks, -np.inf)
        for mask in range(data.n_masks):
            subset = [i for i in range(inst.n_facilities) if mask >> i & 1]
            status, profit, _flows = evaluate_offers(inst, rho, offers, subset)
            if status == "optimal":
                exact[mask] = profit
        leaves[state] = exact
    nodes = list(product(*[[*row, _UNDECIDED] for row in choices]))
    checked = 0
    for state, (bounds, _allowed) in zip(nodes, _derive(data, nodes)):
        beneath = [leaves[leaf] for leaf in product(*[
            row if o == _UNDECIDED else [o] for row, o in zip(choices, state)
        ]) if leaf in leaves]
        if not beneath:
            continue
        exact = np.max(beneath, axis=0)
        tol = [_prune_tol(value) for value in exact]
        assert np.all(exact <= bounds + tol), state
        checked += int(np.isfinite(exact).sum())
    return checked


def test_every_mask_bound_covers_the_leaves_beneath():
    started = time.perf_counter()
    checked = 0
    for seed in range(40):
        inst = tiny_family_instance(seed)
        checked += _bounds_cover_leaves(inst, RhoTable.closed_form(inst))
    assert checked >= 3500  # 3,815 (node, facility subset) pairs
    assert time.perf_counter() - started < 5.0


def _edge_base(seed, **overrides):
    """One shipper with three categories: small enough to enumerate every
    node and leaf, with price coupling across categories."""
    return generate(tiny_params(seed=seed, n_shippers=1, categories_per_shipper=3,
                                n_customers=6, **overrides))


def _zero_capacity(seed):
    inst = _edge_base(seed)
    first, *rest = inst.facilities
    return replace(inst, facilities=(replace(first, capacity=0.0), *rest))


def _single_price(seed):
    inst = _edge_base(seed)
    return replace(inst, price_ladders=tuple(
        replace(ladder, prices=ladder.prices[-1:], min_demands=ladder.min_demands[-1:])
        for ladder in inst.price_ladders))


def _gates_block_every_offer(seed):
    inst = _edge_base(seed)
    total = sum(c.demand for c in inst.customers)
    return replace(inst, price_ladders=tuple(
        replace(ladder, min_demands=(total + 1.0,) * len(ladder.prices))
        for ladder in inst.price_ladders))


def _load_at_capacity(seed):
    # unit gammas, and every facility exactly as large as one category's
    # demand, so a category served whole fills a facility to the unit
    inst = _edge_base(seed)
    demands = [inst.category_demand(0, k) for k in range(3)]
    return replace(
        inst,
        service_levels=tuple(replace(s, gamma=1.0) for s in inst.service_levels),
        facilities=tuple(replace(f, capacity=demands[i % 3])
                         for i, f in enumerate(inst.facilities)))


def _customerless_category(seed):
    # the customers of the third category move to the second
    inst = _edge_base(seed)
    return replace(inst, customers=tuple(replace(c, category=min(c.category, 1))
                                         for c in inst.customers))


def _tied_costs_and_offers(seed):
    # every facility and service costs what facility 0 costs at service 0,
    # rounded, so the kernel starts every customer at facility 0 and every
    # exchange ties; with one gamma and one cost multiplier the offers of a
    # category tie across services too
    inst = _edge_base(seed)
    costs = np.broadcast_to(np.round(inst.costs[:1, :, :1]), inst.costs.shape).copy()
    return replace(inst, costs=costs, service_levels=tuple(
        replace(s, gamma=1.0, cost_multiplier=1.0) for s in inst.service_levels))


def _all_zero_gates(seed):
    # the generator draws no gates; set them to zero anyway, so that this
    # case stays gate-free whatever the generator does
    inst = _edge_base(seed)
    return replace(inst, price_ladders=tuple(
        replace(ladder, min_demands=(0.0,) * len(ladder.prices))
        for ladder in inst.price_ladders))


EDGE_CASES = {
    "zero-capacity facility": _zero_capacity,
    "alpha = 0": lambda seed: _edge_base(seed, alpha=0.0),
    "single-price ladders": _single_price,
    "gates block every offer": _gates_block_every_offer,
    "load exactly at capacity": _load_at_capacity,
    "tied costs and offer values": _tied_costs_and_offers,
    "zero-demand category": _customerless_category,
    "all-zero gates": _all_zero_gates,
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_bounds_and_optimum_on_edge_cases(case):
    # bound validity at every node, and the search's optimum equal to
    # complete enumeration's, on degenerate inputs
    started = time.perf_counter()
    checked = 0
    for seed in range(6):
        inst = EDGE_CASES[case](seed)
        rho = RhoTable.closed_form(inst)
        checked += _bounds_cover_leaves(inst, rho)
        assert solve(inst, rho).objective == pytest.approx(
            enumerate_oracle(inst, rho).objective, rel=1e-12), seed
    assert checked > 0
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("case", EDGE_CASES)
def test_three_routes_agree_on_edge_cases(case):
    # the relaxation engine, and an external branch-and-cut fed the exported
    # LP file, find the structured search's optimum on degenerate inputs
    inst = EDGE_CASES[case](0)
    rho = RhoTable.closed_form(inst)
    ours = solve(inst, rho).objective
    model = build(inst, rho)
    relaxed = solve_milp(model)
    external = external_milp_optimum(parse_lp(export_lp(model)))
    assert relaxed.status == "optimal" and external is not None
    scale = max(1.0, abs(ours))
    assert abs(relaxed.objective - ours) <= OBJECTIVE_REL_TOL * scale
    assert abs(external - ours) <= OBJECTIVE_REL_TOL * scale


def _seventeen_categories():
    return generate(tiny_params(seed=0, ratio=0.3, n_facilities=1, n_customers=17,
                                n_shippers=1, categories_per_shipper=17,
                                n_services=1, alpha=-0.02))


def test_fractional_knapsack_bound_with_many_categories():
    # 17 categories on one facility: the root enumerates more (mask, subset)
    # pairs than the exact knapsack allows, so its bound is fractional
    inst = _seventeen_categories()
    rho = RhoTable.closed_form(inst)
    n_cats = sum(inst.categories_per_shipper)
    assert (1 << inst.n_facilities) << n_cats > _EXACT_KNAPSACK_CELLS
    diag = SearchDiagnostics()
    solution = solve(inst, rho, diagnostics=diag)
    reference = solve_milp(build(inst, rho))
    assert solution.status == reference.status == "optimal"
    assert solution.objective == pytest.approx(reference.objective, rel=1e-9)
    assert solution.objective <= diag.root_bound
    assert all(value <= bound + 1e-6 for bound, value in diag.leaf_checks)


@pytest.mark.parametrize("demand", [1000.0, 1000.0 + 5e-7, 1000.0 + 2e-6])
def test_load_inside_the_capacity_tolerance_is_feasible(demand):
    # the node bound and the transportation kernel share one capacity limit,
    # so a load the kernel accepts is never cut off by the bound
    inst = single_offer_instance(demand=demand, capacity=1000.0, price=20.0,
                                 cost=1.0, fixed_cost=4.0)
    rho = RhoTable.closed_form(inst)
    assert solve(inst, rho).objective == pytest.approx(
        enumerate_oracle(inst, rho).objective, rel=1e-12)


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


def _slow_warm_leaf():
    """10 x 400: the warm start alone ranks 140 facility subsets of 1,024 and
    transports 67 of them, about 0.5 s on a 2-vCPU guest after 0.05 s of
    precompute."""
    return generate(tiny_params(seed=4, n_facilities=10, n_customers=400,
                                categories_per_shipper=3, n_services=3,
                                n_prices=5, ratio=1.5))


def test_budget_holds_through_warm_start_and_leaves(monkeypatch):
    # the budget runs out inside the warm start's leaf evaluation, so only
    # the deadline check in its subset loop stops it
    inst = _slow_warm_leaf()
    rho = RhoTable.closed_form(inst)
    budget = 0.25
    past, leaf_value, serving_problem = bnb._past, bnb._leaf_value, bnb.serving_problem
    in_leaf, subsets, stops = [], [], []

    def watched_past(deadline):
        late = past(deadline)
        if late and not stops:
            stops.append((bool(in_leaf), len(subsets)))
        return late

    def watched_leaf(*args):
        in_leaf.append(True)
        try:
            return leaf_value(*args)
        finally:
            in_leaf.pop()

    def counted_subset(*args):
        subsets.append(args)
        return serving_problem(*args)

    monkeypatch.setattr(bnb, "_past", watched_past)
    monkeypatch.setattr(bnb, "_leaf_value", watched_leaf)
    monkeypatch.setattr(bnb, "serving_problem", counted_subset)
    started = time.perf_counter()
    solution = solve(inst, rho, budget=budget)
    assert time.perf_counter() - started <= budget + 0.5
    assert solution.status == "time_limit"
    assert solution.gap > 0.0
    assert solution.nodes == 0
    # the first deadline check to fire is the warm-start leaf's, part way
    # through its subset ranking
    [(inside_leaf, considered)] = stops
    assert inside_leaf
    assert 0 < considered < 140


#: The all-zero point is feasible (so it seeds the incumbent), but x has no
#: upper bound.
UNBOUNDED_LP = """\\ biloc lp export v1
Maximize
 obj: 1.0 x + 1.0 b
Subject To
Bounds
 0.0 <= x <= inf
Binaries
 b
End
"""

#: The all-zero point violates the row, so no incumbent exists at the start.
NO_ZERO_POINT_LP = """\\ biloc lp export v1
Maximize
 obj: 1.0 b + 1.0 c
Subject To
 cover__0: 1.0 b + 1.0 c >= 1.0
Bounds
Binaries
 b c
End
"""


def test_unbounded_relaxation_is_an_error_not_an_optimum():
    model = parse_lp(UNBOUNDED_LP)
    assert solve_lp(model).status == "unbounded"
    with pytest.raises(SolverError, match="unbounded"):
        solve_milp(model)


def test_relaxation_engine_with_no_time_reports_what_it_has(tiny_instance, tiny_rho):
    # a spent budget stops the search before its root: with the all-zero
    # point as incumbent it reports that point, and without one nothing
    seeded = solve_milp(build(tiny_instance, tiny_rho), budget=0.0)
    assert (seeded.status, seeded.objective, seeded.nodes) == ("time_limit", 0.0, 0)
    assert seeded.gap == float("inf")
    assert seeded.open_facilities == () and seeded.offers == {}
    bare = solve_milp(parse_lp(NO_ZERO_POINT_LP), budget=0.0)
    assert (bare.status, bare.objective, bare.nodes) == ("time_limit", float("-inf"), 0)
    assert bare.gap == float("inf")
    assert solve_milp(parse_lp(NO_ZERO_POINT_LP)).objective == 2.0


#: No point satisfies the row, so the root relaxation is infeasible.
INFEASIBLE_LP = """\\ biloc lp export v1
Maximize
 obj: 1.0 b
Subject To
 need__0: 1.0 b >= 2.0
Bounds
Binaries
 b
End
"""


def test_relaxation_engine_reports_an_infeasible_model(tmp_path):
    solution = solve_milp(parse_lp(INFEASIBLE_LP))
    assert (solution.status, solution.objective, solution.nodes) == (
        "infeasible", float("-inf"), 1)
    # an infinite objective or gap is the one non-finite number solution JSON takes
    solution.save(tmp_path / "sol.json")
    assert Solution.load(tmp_path / "sol.json") == solution


def test_budget_that_runs_out_in_a_popped_leaf_leaves_its_bound_open(monkeypatch):
    # the deadline passes while the first leaf the search pops is valued:
    # the search stops right after it, with that leaf's bound open
    inst = generate(tiny_params(seed=8))
    rho = RhoTable.closed_form(inst)
    exact = solve(inst, rho)
    leaf_value, valued = bnb._leaf_value, []

    def counted(*args):
        valued.append(leaf_value(*args))
        return valued[-1]

    monkeypatch.setattr(bnb, "_leaf_value", counted)
    monkeypatch.setattr(bnb, "_past", lambda deadline: len(valued) == 2)
    solution = solve(inst, rho, budget=60.0)
    assert len(valued) == 2  # the warm start's leaf, then the popped one
    assert solution.status == "time_limit"
    assert 0 < solution.nodes < exact.nodes
    assert solution.objective <= exact.objective
    assert solution.gap >= 0.0


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


# -- search invariants ---------------------------------------------------------
# Status, objective and node count of fixed solves.  A refactor of the
# structured engine must leave them unchanged; a change that tightens the
# bounds or reorders the search updates them on purpose.

#: (status, objective, nodes) per point of ``bench.default_alpha_grid()`` on
#: the desk instance, from alpha = -0.45289 up to 0.
FROZEN_ALPHA_SWEEP = (
    ("trivial", 0.0, 0),
    ("trivial", 0.0, 0),
    ("trivial", 0.0, 0),
    ("optimal", 0.0, 0),
    ("optimal", 123.68659579078889, 7),
    ("optimal", 409.4007832375612, 7),
    ("optimal", 929.1544938556924, 7),
    ("optimal", 1688.3608035544014, 10),
    ("optimal", 3005.0153263683196, 14),
    ("optimal", 5350.565901488729, 6),
    ("optimal", 7282.025399235914, 0),
)


def _frozen_key(solution):
    return solution.status, solution.objective, solution.nodes


def test_search_is_frozen_on_the_desk_alpha_sweep():
    base = generate(bench.DESK_PARAMS)
    got = []
    for alpha in bench.default_alpha_grid():
        inst = base.with_choice_model(base.choice_model.with_alpha(alpha))
        got.append(_frozen_key(solve(inst, RhoTable.closed_form(inst))))
    assert [(s, n) for s, _o, n in got] == [(s, n) for s, _o, n in FROZEN_ALPHA_SWEEP]
    assert [o for _s, o, _n in got] == pytest.approx(
        [o for _s, o, _n in FROZEN_ALPHA_SWEEP], rel=1e-12)


def test_search_is_frozen_at_full_scale():
    inst = generate(replace(bench.DESK_PARAMS, n_facilities=7, n_customers=140))
    status, objective, nodes = _frozen_key(solve(inst, RhoTable.closed_form(inst)))
    assert (status, nodes) == ("optimal", 152)
    assert objective == pytest.approx(17558.455063465233, rel=1e-12)


def test_search_is_frozen_on_the_tiny_family():
    # 96 of these seeds carry positive minimum-demand gates
    statuses = {"optimal": 0, "trivial": 0}
    nodes = 0
    for seed in range(200):
        inst = tiny_family_instance(seed)
        solution = solve(inst, RhoTable.closed_form(inst))
        statuses[solution.status] += 1
        nodes += solution.nodes
    assert statuses == {"optimal": 154, "trivial": 46}
    assert nodes == 274


def _desk_sweep():
    base = generate(bench.DESK_PARAMS)
    return [base.with_choice_model(base.choice_model.with_alpha(alpha))
            for alpha in bench.default_alpha_grid()]


def _full_scale():
    return generate(replace(bench.DESK_PARAMS, n_facilities=7, n_customers=140))


def test_each_search_node_is_derived_once(monkeypatch):
    # the warm start's leaf and the root are derived in one batch, then the
    # children of each branched node in one batch; every node is derived
    # once, when made: popped nodes and leaves reuse what their push
    # carried, and no child conflicts with a price its parent pinned
    batches = []  # sizes of the derived batches, per solve
    leaf_calls = []  # leaves valued, per solve: the warm start's and popped ones
    real_derive, real_leaf = bnb._derive, bnb._leaf_value

    def derive(data, states):
        table = np.array(states).reshape(len(states), len(data.cats))
        assert not _node_offers(data, table)[1].any(), states
        batches[-1].append(len(states))
        return real_derive(data, states)

    def leaf_value(*args, **kwargs):
        leaf_calls[-1] += 1
        return real_leaf(*args, **kwargs)

    monkeypatch.setattr(bnb, "_derive", derive)
    monkeypatch.setattr(bnb, "_leaf_value", leaf_value)

    def derived(instances):
        batches.clear()
        leaf_calls.clear()
        for inst in instances:
            batches.append([])
            leaf_calls.append(0)
            solution = solve(inst, RhoTable.closed_form(inst))
            if solution.status == "trivial":
                assert batches[-1] == [] and leaf_calls[-1] == 0
                continue
            branched = solution.nodes - (leaf_calls[-1] - 1)
            assert batches[-1][0] == 2
            assert len(batches[-1]) == 1 + branched
        return sum(map(sum, batches))

    assert derived(_desk_sweep()) == 636  # 772 when derived twice
    assert derived([_full_scale()]) == 1162  # 1,639 when derived twice


def _bits(derived):
    bounds, allowed = derived
    return bounds.tobytes(), None if allowed is None else allowed.tobytes()


def test_batched_derivation_equals_single_derivation(monkeypatch):
    # each node of a batch reads bit for bit what it reads derived alone,
    # for the warm start's leaf and the root and for every branched node's
    # children on the desk sweep, at full scale, on tiny-family seeds and on
    # a node bound by the fractional knapsack
    batches = []
    real = bnb._derive

    def derive(data, states):
        derived = real(data, states)
        if len(states) > 1:
            batches.append((data, states, derived))
        return derived

    monkeypatch.setattr(bnb, "_derive", derive)
    instances = [*_desk_sweep(), _full_scale(),
                 *(tiny_family_instance(seed) for seed in range(40)), _seventeen_categories()]
    for inst in instances:
        solve(inst, RhoTable.closed_form(inst))
    children = 0
    for data, states, derived in batches:
        for state, got in zip(states, derived):
            assert _bits(got) == _bits(real(data, [state])[0]), state
            children += 1
    assert children == 2045  # 1,971 children, and a warm leaf and a root per search

    # a batch whose children miss a gate: they read -BIG and allow nothing
    inst = _gates_block_every_offer(0)
    data = _StructuredData(inst, RhoTable.closed_form(inst))
    undecided = (_UNDECIDED,) * len(data.cats)
    states = [(o, *undecided[1:]) for o in range(int(data.off_valid[0].sum()))]
    states.append((_NONE, *undecided[1:]))
    derived = real(data, states)
    for state, got in zip(states, derived):
        assert _bits(got) == _bits(real(data, [state])[0]), state
    for bounds, allowed in derived[:-1]:
        assert allowed is None and np.all(bounds == -_BIG)
    assert derived[-1][1] is not None and derived[-1][0].max() > -_BIG


def _knapsack_by_matmul(values, weights, room):
    """The exact knapsack valuing every subset with one matrix product over
    slices of rows, exact while one node holds at most
    ``_EXACT_KNAPSACK_CELLS`` (mask, subset) pairs: the reference the subset
    sums by doubling must equal bit for bit."""
    n_nodes, n_masks, n_items = values.shape
    values = values.reshape(n_nodes * n_masks, n_items)
    room = room.reshape(n_nodes * n_masks)
    cells = n_masks << n_items
    assert cells <= _EXACT_KNAPSACK_CELLS
    subsets = ((np.arange(1 << n_items)[:, None] >> np.arange(n_items)) & 1).astype(float)
    sizes = subsets @ weights
    best = np.empty(len(room))
    step = _EXACT_KNAPSACK_CELLS // cells * n_masks  # rows per slice
    for lo in range(0, len(room), step):
        part = slice(lo, lo + step)
        valued = values[part] @ subsets.T
        valued *= sizes[None, :] <= room[part, None]
        best[part] = valued.max(axis=1)
    return best.reshape(n_nodes, n_masks)


def _many_categories(seed):
    # one facility and twelve categories: the search keeps one mask, and a
    # sum over nine or more categories with one mask column left is where
    # numpy would add pairwise
    return generate(tiny_params(seed=seed, n_facilities=1, n_customers=24, n_shippers=1,
                                categories_per_shipper=12, n_prices=2, ratio=0.8))


def test_search_derives_only_the_masks_kept_at_the_root(monkeypatch):
    # after the warm start and the root, the search carries only the masks
    # whose root bound beats the warm start.  Every node it derives reads on
    # those masks bit for bit what a derivation over all masks reads, and no
    # dropped mask reads above the warm start there.  The full derivations'
    # exact knapsacks equal the matrix-product reference bit for bit, and so
    # does each kept (node, mask) row valued alone
    searched = []  # (instance, rho, [(data, states, derived)])
    real_derive, real_knapsack = bnb._derive, bnb._knapsack

    def derive(data, states):
        derived = real_derive(data, states)
        searched[-1][2].append((data, states, derived))
        return derived

    monkeypatch.setattr(bnb, "_derive", derive)
    instances = [*_desk_sweep(), _full_scale(),
                 *(tiny_family_instance(seed) for seed in range(40)),
                 *(case(seed) for case in EDGE_CASES.values() for seed in range(6)),
                 *(_many_categories(seed) for seed in range(3))]
    for inst in instances:
        rho = RhoTable.closed_form(inst)
        searched.append((inst, rho, []))
        solve(inst, rho)

    knapsacks = []  # (values, weights, room, exact, result)

    def knapsack(values, weights, room, exact):
        best = real_knapsack(values, weights, room, exact)
        knapsacks.append((values, weights, room, exact, best))
        return best

    monkeypatch.setattr(bnb, "_knapsack", knapsack)
    nodes = narrowed = single_mask_sums = rows = 0
    for inst, rho, derivations in searched:
        if not derivations:
            continue  # certified trivial
        full = _StructuredData(inst, rho)
        warm, root = _dive(full), (_UNDECIDED,) * len(full.cats)
        [(warm_bounds, _), (root_bounds, _)] = real_derive(full, [warm, root])
        leaf = bnb._leaf_value(full, warm, warm_bounds, 0.0)
        cut = (0.0 if leaf is None else leaf[0]) + 1e-12
        kept = np.flatnonzero(root_bounds > cut)
        dropped = np.flatnonzero(root_bounds <= cut)
        assert [states for _data, states, _derived in derivations[:1]] == [[warm, root]]
        knapsacks.clear()
        for data, states, derived in derivations[1:]:
            assert data.mask_ids.tobytes() == kept.tobytes()
            for got, (want, want_allowed) in zip(derived, real_derive(full, states)):
                assert _bits(got) == _bits((want[kept], want_allowed)), states
                assert np.all(want[dropped] <= cut)
                nodes += 1
            narrowed += len(kept) < full.n_masks
            single_mask_sums += len(kept) == 1 and len(full.cats) > 8
        for values, weights, room, exact, best in knapsacks:
            assert exact == (values.shape[1] << values.shape[2] <= _EXACT_KNAPSACK_CELLS)
            if not exact:
                continue  # the fractional bound is one code path either way
            assert best.tobytes() == _knapsack_by_matmul(values, weights, room).tobytes()
            for k, m in product(range(len(values)), kept.tolist()):
                one = real_knapsack(values[k:k + 1, m:m + 1], weights,
                                    room[k:k + 1, m:m + 1], exact)
                assert one.tobytes() == best[k, m].tobytes()
                rows += 1
    assert (nodes, rows) == (2686, 3091)
    assert narrowed > 0 and single_mask_sums > 0


def test_masks_kept_at_the_root_are_reported():
    # the desk sweep keeps at most two of its eight masks (none at a
    # trivial point or where the warm start is the root's best), and full
    # scale two of 128
    kept = []
    for inst in [*_desk_sweep(), _full_scale()]:
        diag = SearchDiagnostics()
        solve(inst, RhoTable.closed_form(inst), diagnostics=diag)
        kept.append(diag.masks_kept)
    assert kept == [0, 0, 0, 0, 2, 1, 1, 1, 1, 1, 0, 2]


def test_leaf_ranks_tied_masks_by_id(monkeypatch):
    # four masks tie above four others, which tie too: each tie is
    # considered lowest mask first, here exactly the reverse of what the
    # default sort makes of these bounds.  Every considered subset is
    # observed, whether its cost floor screens it or it is transported
    inst = _desk_sweep()[7]
    data = _StructuredData(inst, RhoTable.closed_form(inst))
    state = _dive(data)
    considered = []
    real = bnb.serving_problem

    def observe(inst, offers, subset, rho):
        considered.append(subset)
        return real(inst, offers, subset, rho)

    monkeypatch.setattr(bnb, "serving_problem", observe)
    mask_bound = np.array([1e9] * 4 + [2e9] * 4)  # above every leaf value
    assert np.argsort(-mask_bound).tolist() != [4, 5, 6, 7, 0, 1, 2, 3]
    best = bnb._leaf_value(data, state, mask_bound, 0.0)
    masks = [sum(1 << i for i in subset) for subset in considered]
    assert masks == [4, 5, 6, 7, 0, 1, 2, 3]
    assert best is not None

    # on kept masks, positions name their masks: the tie goes to mask 3
    narrow = data.keep_masks(np.array([3, 5, 6]))
    considered.clear()
    bnb._leaf_value(narrow, state, np.array([2e9, 2e9, 1e9]), 0.0)
    assert considered == [(0, 1), (0, 2), (1, 2)]


# -- leaf screening ------------------------------------------------------------

def _leaf_value_by_evaluation(data, state, mask_bound, floor, deadline=None,
                              diagnostics=None):
    """``_leaf_value`` as it was before transport-cost floors: every ranked
    subset is valued by ``evaluate_offers``, which transports it and builds
    its flow map.  The reference the screened leaf must equal bit for bit."""
    offers = {data.cats[c]: (int(data.off_m[c, o]), int(data.off_p[c, o]))
              for c, o in enumerate(state) if o >= 0}
    best = None
    best_value = floor
    for column in np.argsort(-mask_bound, kind="stable"):  # ties: lower mask first
        if mask_bound[column] <= best_value + 1e-12 or bnb._past(deadline):
            break
        mask = int(data.mask_ids[column])
        subset = tuple(i for i in range(data.inst.n_facilities) if mask >> i & 1)
        status, profit, flows = evaluate_offers(data.inst, data.rho, offers, subset)
        if status != "optimal":
            continue
        if profit > best_value:
            best_value = profit
            best = (profit, offers, subset, flows)
    return best


def _screening_instances():
    """Named instances whose searches screen leaf subsets."""
    return {**{f"desk {k}": inst for k, inst in enumerate(_desk_sweep())},
            "7x140": _full_scale(), "17 categories": _seventeen_categories(),
            **{f"tiny {seed}": tiny_family_instance(seed) for seed in range(200)},
            **{f"{case} {seed}": EDGE_CASES[case](seed)
               for case in EDGE_CASES for seed in range(6)}}


def _solution_bytes(solution):
    record = solution.to_json_dict()
    del record["seconds"]
    return json.dumps(record, sort_keys=True)


def test_leaf_screening_equals_transporting_every_subset(monkeypatch):
    # the screened leaf gives the solution, without its seconds, of the
    # leaf that transports every ranked subset, bit for bit, and transports
    # 3 subsets of 56 at full scale and 4 of 6,883 on the benchmark seed
    instances = {**_screening_instances(), "seed 42": generate(BENCHMARK_PARAMS)}
    screened = {}
    counts = {}
    for name, inst in instances.items():
        diag = SearchDiagnostics()
        screened[name] = _solution_bytes(solve(inst, RhoTable.closed_form(inst),
                                               diagnostics=diag))
        counts[name] = (diag.subsets_transported, diag.subsets_screened)
    monkeypatch.setattr(bnb, "_leaf_value", _leaf_value_by_evaluation)
    for name, inst in instances.items():
        assert _solution_bytes(solve(inst, RhoTable.closed_form(inst))) == screened[name], name
    assert json.loads(screened["seed 42"])["objective"] == 5127.190958194868
    assert counts["7x140"] == (3, 53)
    assert counts["seed 42"] == (4, 6879)
    assert [counts[f"desk {k}"] for k in range(11)] == [
        (0, 0), (0, 0), (0, 0), (0, 0), (2, 0), (2, 0), (2, 0), (2, 0), (1, 0), (1, 0), (1, 0)]


def test_screened_subsets_cannot_beat_the_best_value(monkeypatch):
    # every subset a leaf screens is worth, valued exactly, at most the best
    # value of the leaf when it was screened: the leaf's floor or the best
    # subset transported before it
    leaves = []  # per leaf: its floor and its considered subsets in order
    real_leaf, real_problem, real_transport = (bnb._leaf_value, bnb.serving_problem,
                                               bnb.solve_transportation)

    def leaf_value(data, state, mask_bound, floor, *args):
        leaves.append((data, floor, []))
        return real_leaf(data, state, mask_bound, floor, *args)

    def serving_problem(inst, offers, subset, rho):
        leaves[-1][2].append([offers, subset, False])
        return real_problem(inst, offers, subset, rho)

    def solve_transportation(*args):
        leaves[-1][2][-1][2] = True
        return real_transport(*args)

    monkeypatch.setattr(bnb, "_leaf_value", leaf_value)
    monkeypatch.setattr(bnb, "serving_problem", serving_problem)
    monkeypatch.setattr(bnb, "solve_transportation", solve_transportation)
    for inst in _screening_instances().values():
        solve(inst, RhoTable.closed_form(inst))
    # the warm-start leaf of a 10 x 400 instance, and a desk leaf that ranks
    # every subset, the empty one too
    desk = _desk_sweep()[7]
    for inst, mask_bound in ((_slow_warm_leaf(), None),
                             (desk, np.array([1e9] * 4 + [2e9] * 4))):
        data = _StructuredData(inst, RhoTable.closed_form(inst))
        state = _dive(data)
        if mask_bound is None:
            [(mask_bound, _allowed)] = _derive(data, [state])
        bnb._leaf_value(data, state, mask_bound, 0.0)
    checked = infeasible = 0
    for data, best_value, subsets in leaves:
        for offers, subset, transported in subsets:
            _status, value, _flows = evaluate_offers(data.inst, data.rho, offers, subset)
            if transported:
                best_value = max(best_value, value)
                continue
            assert value <= best_value, subset
            checked += 1
            infeasible += value == float("-inf")
    assert (checked, infeasible) == (141, 4)


# -- structured set-up ---------------------------------------------------------

def _set_up_by_loops(inst, rho) -> dict:
    """Every array of ``_StructuredData``, built offer by offer and facility
    mask by mask with plain loops: the reference its whole-array set-up must
    equal bit for bit."""
    slots = [(n, m) for n in range(inst.n_shippers) for m in inst.shipper_services(n)]
    cats = [(n, k) for n in range(inst.n_shippers) for k in range(inst.categories_per_shipper[n])]
    gates = [inst.ladder(n, m).min_demands for n, m in slots]
    C, M, I, masks = len(cats), inst.n_services, inst.n_facilities, 1 << inst.n_facilities
    O = max((sum(len(inst.ladder(n, m).prices) for m in inst.services_by_category[n][k])
             for n, k in cats), default=1)
    t = {"slot_level": np.zeros((len(gates), max(map(len, gates), default=1))),
         "cat_demand": np.array([inst.category_demand(n, k) for n, k in cats]),
         "off_valid": np.zeros((C, O), dtype=bool), "off_slot": np.zeros((C, O), dtype=int),
         "off_m": np.zeros((C, O), dtype=int), "off_p": np.full((C, O), -1),
         "off_rho": np.zeros((C, O)), "off_rev": np.zeros((C, O)),
         "off_weight": np.full((C, O), np.inf), "loads_at": np.zeros((C, M + 1, I, masks))}
    for s, levels in enumerate(gates):
        t["slot_level"][s, :len(levels)] = levels
    min_rho = np.full((C, M), np.inf)
    for c, (n, k) in enumerate(cats):
        d_k, o = inst.category_demand(n, k), 0
        for m in inst.services_by_category[n][k]:
            for p, q in enumerate(inst.ladder(n, m).prices):
                r = rho.get(n, k, m, p)
                for name, value in (("off_valid", True), ("off_slot", slots.index((n, m))),
                                    ("off_m", m), ("off_p", p), ("off_rho", r),
                                    ("off_rev", r * d_k * q),
                                    ("off_weight", inst.service_levels[m].gamma * d_k)):
                    t[name][c, o] = value
                min_rho[c, m], o = min(min_rho[c, m], r), o + 1
    caps = np.array([f.capacity for f in inst.facilities])
    fixed = np.array([f.fixed_cost for f in inst.facilities])
    member = [np.array([mask >> i & 1 == 1 for i in range(I)]) for mask in range(masks)]
    t["mask_ids"] = np.array(range(masks))
    t["mask_capacity"] = np.array([caps[sel].sum() for sel in member])
    t["mask_fixed_cost"] = np.array([fixed[sel].sum() for sel in member])
    t["mask_limit"], t["facility_limit"] = capacity_limit(t["mask_capacity"]), capacity_limit(caps)
    scaled = np.array([[s.gamma * c.demand for s in inst.service_levels] for c in inst.customers])
    cheap = np.full((masks, C, M), _BIG)
    raw = np.full((masks, C, M, I), np.inf)
    for mask in range(masks):
        rows = np.flatnonzero(member[mask])
        sub = inst.costs[rows]
        for c, nk in enumerate(cats):
            js = list(inst.customers_by_category[nk])
            if not js:
                cheap[mask, c] = 0.0
            elif mask:
                cheap[mask, c] = sub.min(axis=0)[js].sum(axis=0)
                at = (np.arange(M), rows[sub.argmin(axis=0)][js])
                np.add.at(t["loads_at"][c, :, :, mask], at, scaled[js])
                second = np.partition(sub, 1, axis=0)[1] if len(rows) > 1 else np.inf
                np.minimum.at(raw[mask, c], at, ((second - sub.min(axis=0)) / scaled)[js])
    val = t["off_rev"] - t["off_rho"] * cheap[:, np.arange(C)[:, None], t["off_m"]]
    val[:, ~t["off_valid"]] = -_BIG
    t["val"] = val.transpose(1, 2, 0)
    t["overflow_rate"] = np.full((I, masks), np.inf)
    for mask, c, m, i in product(range(masks), range(C), range(M), range(I)):
        if np.isfinite(min_rho[c, m]) and np.isfinite(raw[mask, c, m, i]):
            rate = raw[mask, c, m, i] * min_rho[c, m]
            t["overflow_rate"][i, mask] = min(t["overflow_rate"][i, mask], rate)
    t["overflow_rate"] = np.minimum(t["overflow_rate"], _BIG)
    return t


def _tied_facilities(seed):
    # facility 1 costs what facility 0 costs: the first of them is cheapest
    inst = _edge_base(seed)
    costs = inst.costs.copy()
    costs[1] = costs[0]
    return replace(inst, costs=costs)


def test_set_up_equals_the_per_mask_loops():
    # every array attribute, bytes, dtype and shape, on the tiny family, the
    # desk sweep, full scale and degenerate inputs.  One service with twelve
    # customers per category sums them pairwise (more services add them one
    # by one), and so do masks of eight or more facilities
    started = time.perf_counter()
    instances = [*(tiny_family_instance(seed) for seed in range(40)), *_desk_sweep(),
                 _full_scale(), generate(tiny_params(seed=3, n_facilities=1, n_customers=8)),
                 _customerless_category(0), _zero_capacity(0), _tied_facilities(0),
                 generate(tiny_params(seed=2, n_services=1, n_customers=24,
                                      n_shippers=1, categories_per_shipper=2)),
                 generate(tiny_params(seed=1, n_facilities=9, n_customers=6))]
    assert not _customerless_category(0).customers_by_category[(0, 2)]
    for inst in instances:
        rho = RhoTable.closed_form(inst)
        data = _StructuredData(inst, rho)
        expected = _set_up_by_loops(inst, rho)
        arrays = {name: value for name, value in vars(data).items()
                  if isinstance(value, np.ndarray)}
        assert arrays.keys() == expected.keys()
        for name, value in arrays.items():
            want = expected[name]
            assert (value.dtype, value.shape) == (want.dtype, want.shape), name
            assert value.tobytes() == want.tobytes(), name
    assert time.perf_counter() - started < 2.0


def _dive_by_category(data):
    """The warm start's dive deciding one category per derivation."""
    value = data.val[:, :, -1]
    state = [_UNDECIDED] * len(data.cats)
    for c in range(len(data.cats)):
        row = np.where(_node_offers(data, np.array([state]))[0][0, c], value[c], -_BIG)
        o = int(np.argmax(row))
        state[c] = o if row[o] > 0.0 else _NONE
    missed = _node_offers(data, np.array([state]))[2][0]
    return tuple(_NONE if o >= 0 and missed[data.off_slot[c, o]] else o
                 for c, o in enumerate(state))


def test_dive_in_rounds_equals_dive_by_category():
    # deciding the r-th category of every shipper at once changes no dive:
    # tiny family, one to four shippers, and full scale, at six alphas
    bases = [*(tiny_family_instance(seed) for seed in range(60)), _full_scale(),
             *(generate(tiny_params(seed=seed, n_shippers=1 + seed % 4, n_facilities=2 + seed % 3,
                                    categories_per_shipper=3, n_services=3, n_customers=18,
                                    n_prices=3))
               for seed in range(12))]
    dives = committed = 0
    for base in bases:
        for alpha in (-0.4, -0.2, -0.1, -0.05, -0.02, 0.0):
            inst = base.with_choice_model(base.choice_model.with_alpha(alpha))
            data = _StructuredData(inst, RhoTable.closed_form(inst))
            state = _dive(data)
            assert state == _dive_by_category(data)
            dives += 1
            committed += any(o >= 0 for o in state)
    assert dives == 438
    assert committed >= 400
