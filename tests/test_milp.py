"""Model construction, LP text round trips, preprocessing bound, evaluation."""

import dataclasses
import json

import pytest

from biloc import (
    RhoTable,
    Solution,
    bench,
    build,
    certifies_trivial,
    enumerate_oracle,
    evaluate,
    export_lp,
    generate,
    parse_lp,
    profit_upper_bound,
    solve,
    solve_lp,
)
from biloc.milp import (
    BuildError,
    InfeasibleSolutionError,
    LpParseError,
    MilpModel,
    _SOLUTION_FIELDS,
    SolutionFormatError,
    check_solution,
)

from conftest import (external_milp_optimum, single_offer_instance, tiny_family_instance,
                      tiny_params)


def expected_counts(inst):
    y = sum(len(inst.ladder(n, m).prices)
            for n in range(inst.n_shippers) for m in inst.shipper_services(n))
    z = sum(len(inst.services_by_category[n][k])
            for n in range(inst.n_shippers)
            for k in range(inst.categories_per_shipper[n]))
    w = sum(len(inst.services_for_customer(j)) * inst.n_facilities
            for j in range(inst.n_customers))
    pi = sum(len(inst.ladder(n, m).prices)
             for n in range(inst.n_shippers)
             for k in range(inst.categories_per_shipper[n])
             for m in inst.services_by_category[n][k])
    nu = sum(len(inst.ladder(inst.customers[j].shipper, m).prices)
             for j in range(inst.n_customers)
             for m in inst.services_for_customer(j)) * inst.n_facilities
    return inst.n_facilities, y, z, w, pi, nu


def count_by_prefix(model, prefix):
    return len(model.variables_by_prefix(prefix))


def test_single_offer_counts():
    inst = single_offer_instance()
    model = build(inst, RhoTable.constant(inst, 1.0))
    assert (count_by_prefix(model, "r"), count_by_prefix(model, "y"),
            count_by_prefix(model, "z"), count_by_prefix(model, "w"),
            count_by_prefix(model, "pi"), count_by_prefix(model, "nu")) == (
        1, 1, 1, 1, 1, 1)


def test_benchmark_scale_nu_count():
    inst = generate(tiny_params(seed=0, n_facilities=4, n_customers=48,
                                categories_per_shipper=3, n_services=3,
                                n_prices=5, ratio=2.0))
    model = build(inst, RhoTable.closed_form(inst))
    assert count_by_prefix(model, "nu") == 4 * 48 * 3 * 5


def test_variable_counts_match_closed_forms():
    for seed in range(8):
        inst = generate(tiny_params(seed=seed, n_customers=6))
        model = build(inst, RhoTable.closed_form(inst))
        r, y, z, w, pi, nu = expected_counts(inst)
        assert count_by_prefix(model, "r") == r
        assert count_by_prefix(model, "y") == y
        assert count_by_prefix(model, "z") == z
        assert count_by_prefix(model, "w") == w
        assert count_by_prefix(model, "pi") == pi
        assert count_by_prefix(model, "nu") == nu


def test_every_variable_appears_somewhere(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    used = set(model.objective)
    for con in model.constraints:
        used.update(con.coeffs)
    assert used == set(range(len(model.variables)))


def test_model_has_exactly_eight_linearization_families(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    linearization = {f for f in model.families()
                     if f.startswith("deal_") or f.startswith("flow_")}
    assert linearization == {
        "deal_le_service", "deal_le_price", "deal_ge_link", "deal_nonneg",
        "flow_le_alloc", "flow_le_price", "flow_ge_link", "flow_nonneg",
    }


def test_build_requires_full_rho_table(tiny_instance, tiny_rho):
    values = dict(tiny_rho.values)
    missing = next(iter(values))
    del values[missing]
    with pytest.raises(BuildError) as err:
        build(tiny_instance, RhoTable(values))
    for field in missing:
        assert str(field) in str(err.value)


def test_zero_rho_model_optimum_is_zero(tiny_instance):
    solution = solve(tiny_instance, RhoTable.constant(tiny_instance, 0.0))
    assert solution.objective == 0.0
    assert solution.open_facilities == ()
    assert solution.service_choices == {}


def test_export_parse_round_trip_is_byte_identical(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    text = export_lp(model)
    again = export_lp(parse_lp(text))
    assert text == again


def test_parse_recovers_structure(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    parsed = parse_lp(export_lp(model))
    assert len(parsed.variables) == len(model.variables)
    assert len(parsed.constraints) == len(model.constraints)
    assert parsed.families() == model.families()
    for ours, theirs in zip(model.variables, parsed.variables):
        assert ours.name == theirs.name
        assert ours.kind == theirs.kind
        assert ours.tag == theirs.tag


def test_empty_model_exports_header_only_and_fails_to_parse():
    text = export_lp(MilpModel())
    assert text.splitlines()[0].startswith("\\")
    assert "Subject To" in text
    with pytest.raises(LpParseError):
        parse_lp(text)


@pytest.mark.parametrize("name, tag", [
    ("r_i3", ("r", 3)), ("nu_i1_j12_m0_p4", ("nu", 1, 12, 0, 4)),
    ("r", ("x", "r")), ("y_n0", ("x", "y_n0")), ("r_i1_j2", ("x", "r_i1_j2")),
    ("r_i03", ("x", "r_i03")), ("r_j3", ("x", "r_j3")), ("q_i3", ("x", "q_i3")),
])
def test_lp_names_map_to_tags_through_the_naming_table(name, tag):
    # a name the table would not give is a plain column, never a model tag
    model = parse_lp(f"Maximize\n obj: 1.0 {name}\nSubject To\nBinaries\n {name}\nEnd\n")
    assert model.variables[0].tag == tag


_LP_ROWS = "Maximize\n obj: 1.0 x\nSubject To\n"


@pytest.mark.parametrize("text, message", [
    ("x + y\n", "line 1: content before any section header"),
    ("Maximize\n obj: 2.0 x ? y\n", "line 2: cannot parse term at '? y'"),
    ("Maximize\n obj: 1.2.3 x\n", "line 2: coefficient '1.2.3' is not a number"),
    (_LP_ROWS + " 1.0 x <= 1.0\n", "line 4: constraint without a name"),
    (_LP_ROWS + " c: 1.0 x + 1.0 y\n", "line 4: constraint without a sense"),
    (_LP_ROWS + " c: 1.0 x <= abc\n", "line 4: right-hand side 'abc' is not a number"),
    (_LP_ROWS + " c: 1.0 x <= nan\n", "line 4: right-hand side 'nan' is not a number"),
    (_LP_ROWS + "Bounds\n x >= 0.0\n", "line 5: cannot parse bound 'x >= 0.0'"),
    (_LP_ROWS + "Bounds\n abc <= x <= 1.0\n", "line 5: bound 'abc' is not a number"),
    (_LP_ROWS + "Bounds\n 0.0 <= x <= 1e\n", "line 5: bound '1e' is not a number"),
    ("Maximize\n obj: 1.0 x\nEnd\n", "objective references undeclared variable 'x'"),
    (_LP_ROWS + " c: 1.0 y <= 1.0\nBinaries\n x\n",
     "constraint c references undeclared variable 'y'"),
    ("Maximize\nSubject To\nEnd\n", "model declares no variables"),
], ids=["before-header", "term", "coefficient", "row-name", "row-sense", "row-rhs",
        "nan-rhs", "bound", "bound-number", "bound-exponent", "objective-variable", "row-variable",
        "no-variables"])
def test_lp_parse_errors_name_their_line(text, message):
    with pytest.raises(LpParseError) as err:
        parse_lp(text)
    assert str(err.value) == message


def test_external_solver_agrees_on_exported_file(tiny_instance, tiny_rho):
    model = build(tiny_instance, tiny_rho)
    ours = solve(tiny_instance, tiny_rho).objective
    theirs = external_milp_optimum(parse_lp(export_lp(model)))
    assert theirs == pytest.approx(ours, rel=1e-6, abs=1e-6)


def test_upper_bound_zero_rho_certifies_trivial(tiny_instance):
    rho = RhoTable.constant(tiny_instance, 0.0)
    bound = profit_upper_bound(tiny_instance, rho)
    min_fixed = min(f.fixed_cost for f in tiny_instance.facilities)
    assert bound == pytest.approx(-min_fixed)
    assert certifies_trivial(bound)


def test_upper_bound_unprofitable_offer_certifies_trivial():
    # revenue 10*2 below the 25-unit serving cost for the only offer
    inst = single_offer_instance(demand=10.0, price=2.0, cost=25.0, fixed_cost=4.0)
    bound = profit_upper_bound(inst, RhoTable.constant(inst, 1.0))
    assert bound == pytest.approx(-4.0)
    assert certifies_trivial(bound)


def test_positive_upper_bound_does_not_imply_profit():
    # capacity cannot host the demand, so the optimum is 0 while the
    # capacity-blind bound stays positive
    inst = single_offer_instance(demand=10.0, price=2.0, cost=5.0,
                                 fixed_cost=4.0, capacity=1.0)
    rho = RhoTable.constant(inst, 1.0)
    bound = profit_upper_bound(inst, rho)
    assert bound > 0.0
    assert enumerate_oracle(inst, rho).objective == 0.0


def test_upper_bound_certification_is_sound():
    for seed in range(20):
        inst = generate(tiny_params(seed=seed, alpha=-0.25))
        rho = RhoTable.closed_form(inst)
        optimum = enumerate_oracle(inst, rho).objective
        bound = profit_upper_bound(inst, rho)
        assert max(bound, 0.0) >= optimum - 1e-9
        if certifies_trivial(bound):
            assert optimum == 0.0


def _bound_by_customer_sums(inst, rho):
    """The capacity-blind bound with every serving cost summed customer by
    customer in plain Python."""
    min_cost = inst.costs.min(axis=0)
    total = 0.0
    for n in range(inst.n_shippers):
        for k in range(inst.categories_per_shipper[n]):
            d_k = inst.category_demand(n, k)
            members = inst.customers_by_category[(n, k)]
            best = 0.0
            for m in inst.services_by_category[n][k]:
                serve_cost = float(sum(min_cost[j, m] for j in members))
                for p, q in enumerate(inst.ladder(n, m).prices):
                    best = max(best, rho.get(n, k, m, p) * (d_k * q - serve_cost))
            total += best
    return total - min(f.fixed_cost for f in inst.facilities)


def test_upper_bound_equals_the_customer_by_customer_sums():
    # bit for bit, so no point's trivial verdict can move: the tiny family,
    # the desk alpha grid, and one service with twelve customers per
    # category, where numpy's pairwise sum would regroup the additions
    desk = generate(bench.DESK_PARAMS)
    instances = [*(tiny_family_instance(seed) for seed in range(200)),
                 *(desk.with_choice_model(desk.choice_model.with_alpha(alpha))
                   for alpha in bench.default_alpha_grid()),
                 *(generate(tiny_params(seed=seed, n_services=1, n_customers=24,
                                        n_shippers=1, categories_per_shipper=2))
                   for seed in range(10))]
    for inst in instances:
        rho = RhoTable.closed_form(inst)
        assert profit_upper_bound(inst, rho).hex() == _bound_by_customer_sums(inst, rho).hex()


def test_evaluate_all_zero_solution(tiny_instance, tiny_rho):
    assert evaluate(tiny_instance, tiny_rho, Solution("optimal", 0.0)) == 0.0


def test_evaluate_hand_built_case():
    inst = single_offer_instance(demand=10.0, price=2.0, cost=5.0, fixed_cost=4.0)
    rho = RhoTable.constant(inst, 1.0)
    solution = Solution(
        status="optimal", objective=11.0, open_facilities=(0,),
        price_choices={(0, 0): 0}, service_choices={(0, 0): 0},
        allocation={(0, 0, 0): 1.0},
    )
    assert evaluate(inst, rho, solution) == pytest.approx(11.0)
    assert enumerate_oracle(inst, rho).objective == pytest.approx(11.0)


def test_evaluate_matches_solver_objective():
    for seed in range(6):
        inst = generate(tiny_params(seed=seed))
        rho = RhoTable.closed_form(inst)
        solution = solve(inst, rho)
        assert evaluate(inst, rho, solution) == pytest.approx(
            solution.objective, abs=1e-8)


def test_evaluate_reports_violations():
    inst = single_offer_instance(min_demand=50.0)
    rho = RhoTable.constant(inst, 1.0)
    bad = Solution(
        status="optimal", objective=0.0, open_facilities=(0,),
        price_choices={(0, 0): 0}, service_choices={(0, 0): 0},
        allocation={(0, 0, 0): 1.0},
    )
    with pytest.raises(InfeasibleSolutionError) as err:
        evaluate(inst, rho, bad)
    assert any("minimum level" in v for v in err.value.violations)


@pytest.mark.parametrize("decisions, fragment", [
    (dict(price_choices={(0, 0): 5}, service_choices={(0, 0): 0}),
     "price position 5 out of range"),
    (dict(price_choices={(0, 3): 0}), "priced service 3 is not available"),
    (dict(open_facilities=(0,), allocation={(9, 0, 0): 1.0}),
     "w[9,0,0] names a facility or customer out of range"),
    (dict(open_facilities=(0,), allocation={(0, 99, 0): 1.0}),
     "w[0,99,0] names a facility or customer out of range"),
], ids=["price-position", "priced-service", "allocation-facility",
        "allocation-customer"])
def test_evaluate_reports_out_of_range_decisions(decisions, fragment):
    inst = single_offer_instance()
    with pytest.raises(InfeasibleSolutionError) as err:
        evaluate(inst, RhoTable.constant(inst, 1.0),
                 Solution("optimal", 0.0, **decisions))
    assert any(fragment in v for v in err.value.violations)


def test_check_solution_flags_closed_facility(tiny_instance):
    bad = Solution(
        status="optimal", objective=0.0, open_facilities=(),
        allocation={(0, 0, 0): 0.5},
    )
    problems = check_solution(tiny_instance, bad)
    assert any("closed facility" in p for p in problems)


def test_cost_term_vanishes_without_price_choice(tiny_instance, tiny_rho):
    # no chosen price for a service forces its flow products (and the cost
    # they carry) to zero in the relaxation
    model = build(tiny_instance, tiny_rho)
    fixed = {}
    for var in model.variables:
        if var.tag[0] == "y" and var.tag[2] == 0:
            fixed[var.tag] = 0.0
    lp = solve_lp(model, fixed=fixed)
    assert lp.status == "optimal"
    for var in model.variables:
        if var.tag[0] == "nu" and var.tag[3] == 0:
            assert abs(lp.values[var.name]) <= 1e-9


def test_linearization_products_exact_at_integral_points():
    # LP optima at fixed binaries must realize pi = y*z and nu = w*y
    checked = 0
    for seed in range(4):
        inst = generate(tiny_params(seed=seed))
        rho = RhoTable.closed_form(inst)
        model = build(inst, rho)
        solution = solve(inst, rho)
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
        assert lp.objective == pytest.approx(solution.objective, abs=1e-7)
        values = lp.values
        for var in model.variables:
            tag = var.tag
            if tag[0] == "pi":
                _, n, k, m, p = tag
                want = solution.y_value(n, m, p) * solution.z_value(n, k, m)
                assert abs(values[var.name] - want) <= 1e-9
                checked += 1
            elif tag[0] == "nu":
                _, i, j, m, p = tag
                shipper = inst.customers[j].shipper
                want = values[f"w_i{i}_j{j}_m{m}"] * solution.y_value(shipper, m, p)
                assert abs(values[var.name] - want) <= 1e-9
                checked += 1
    assert checked > 0


def test_constraint_family_counts_match_closed_forms():
    for seed in range(6):
        inst = generate(tiny_params(seed=seed, n_customers=5))
        model = build(inst, RhoTable.closed_form(inst))
        by_family = {}
        for con in model.constraints:
            by_family[con.family] = by_family.get(con.family, 0) + 1
        I, J = inst.n_facilities, inst.n_customers
        slots = sum(len(inst.shipper_services(n)) for n in range(inst.n_shippers))
        cats = sum(inst.categories_per_shipper)
        z_count = sum(len(inst.services_by_category[n][k])
                      for n in range(inst.n_shippers)
                      for k in range(inst.categories_per_shipper[n]))
        jm = sum(len(inst.services_for_customer(j)) for j in range(J))
        pi = sum(len(inst.ladder(n, m).prices)
                 for n in range(inst.n_shippers)
                 for k in range(inst.categories_per_shipper[n])
                 for m in inst.services_by_category[n][k])
        nu = I * sum(len(inst.ladder(inst.customers[j].shipper, m).prices)
                     for j in range(J) for m in inst.services_for_customer(j))
        assert by_family["one_price_per_service"] == slots
        assert by_family["offer_budget"] == inst.n_shippers
        assert by_family["one_service_per_category"] == cats
        assert by_family["service_requires_price"] == z_count
        assert by_family["capacity"] == I
        assert by_family["open_gate"] == I * J
        assert by_family["assignment_balance"] == jm
        assert by_family["min_demand"] == slots
        for family in ("deal_le_service", "deal_le_price", "deal_ge_link",
                       "deal_nonneg"):
            assert by_family[family] == pi
        for family in ("flow_le_alloc", "flow_le_price", "flow_ge_link",
                       "flow_nonneg"):
            assert by_family[family] == nu


def test_external_solver_agrees_beyond_oracle_scale():
    # sizes the enumeration oracle refuses, checked against branch-and-cut
    for config in (dict(n_facilities=3, n_customers=12, n_services=2,
                        n_prices=3, ratio=2.0, seed=100),
                   dict(n_facilities=2, n_customers=18, n_services=2,
                        n_prices=4, ratio=1.5, seed=102, alpha=-0.2)):
        inst = generate(tiny_params(categories_per_shipper=3, **config))
        rho = RhoTable.closed_form(inst)
        model = build(inst, rho)
        ours = solve(inst, rho, budget=240.0)
        assert ours.status == "optimal"
        theirs = external_milp_optimum(parse_lp(export_lp(model)))
        assert theirs == pytest.approx(ours.objective, rel=1e-6, abs=1e-6)


def test_solution_json_round_trip(tiny_instance, tiny_rho):
    solution = solve(tiny_instance, tiny_rho)
    loaded = Solution.from_json_dict(solution.to_json_dict())
    assert loaded.to_json_dict() == solution.to_json_dict()


def test_solution_json_keys_follow_the_dataclass():
    keys = list(Solution(status="optimal", objective=0.0).to_json_dict())
    assert keys == [f.name for f in dataclasses.fields(Solution)]
    assert keys == list(_SOLUTION_FIELDS)


def test_solution_json_text_is_pinned(tmp_path):
    inst = single_offer_instance()
    solution = dataclasses.replace(solve(inst, RhoTable.constant(inst, 1.0)), seconds=0.0)
    path = tmp_path / "sol.json"
    solution.save(path)
    assert path.read_text(encoding="utf-8") == SINGLE_OFFER_SOLUTION_JSON
    assert Solution.load(path) == solution


SINGLE_OFFER_SOLUTION_JSON = """\
{
 "status": "optimal",
 "objective": 11.0,
 "open_facilities": [
  0
 ],
 "price_choices": [
  {
   "shipper": 0,
   "service": 0,
   "price_index": 0
  }
 ],
 "service_choices": [
  {
   "shipper": 0,
   "category": 0,
   "service": 0
  }
 ],
 "allocation": [
  {
   "facility": 0,
   "customer": 0,
   "service": 0,
   "fraction": 1.0
  }
 ],
 "revenue": 20.0,
 "assignment_cost": 5.0,
 "fixed_cost": 4.0,
 "offer_summary": [
  {
   "shipper": 0,
   "category": 0,
   "service": 0,
   "price_index": 0,
   "price": 2.0,
   "rho": 1.0
  }
 ],
 "nodes": 0,
 "seconds": 0.0,
 "gap": 0.0
}
"""


def test_solution_json_rejects_unknown_field(tiny_instance, tiny_rho):
    data = solve(tiny_instance, tiny_rho).to_json_dict()
    data["objectve"] = data["objective"]
    with pytest.raises(SolutionFormatError, match="unknown field 'objectve' in solution"):
        Solution.from_json_dict(data)


def test_solution_json_reports_missing_field(tiny_instance, tiny_rho):
    data = solve(tiny_instance, tiny_rho).to_json_dict()
    del data["allocation"]
    with pytest.raises(SolutionFormatError, match="missing field 'allocation' in solution"):
        Solution.from_json_dict(data)
    data = solve(tiny_instance, tiny_rho).to_json_dict()
    del data["price_choices"][0]["price_index"]
    with pytest.raises(SolutionFormatError,
                       match=r"missing field 'price_index' in price_choices\[0\]"):
        Solution.from_json_dict(data)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(objective="abc"),
     "solution.objective: expected int or float, got str 'abc'"),
    (lambda d: d.update(status=7),
     "solution.status: expected one of optimal, infeasible, time_limit, trivial, got 7"),
    (lambda d: d.update(status="solved"), "solution.status: expected one of"),
    (lambda d: d["allocation"][0].update(fraction=True),
     r"allocation\[0\].fraction: expected int or float, got bool True"),
    (lambda d: d["offer_summary"][0].update(price_index=1.5),
     r"offer_summary\[0\].price_index: expected int, got float 1.5"),
    (lambda d: d.update(objective=float("nan")),
     "solution.objective: expected a finite number, got nan"),
    (lambda d: d.update(revenue=float("inf")),
     "solution.revenue: expected a finite number, got inf"),
], ids=["objective", "status-number", "status-unknown", "fraction", "offer-summary",
        "nan-objective", "infinite-revenue"])
def test_solution_load_names_the_malformed_field(tiny_instance, tiny_rho, tmp_path,
                                                 edit, message):
    data = solve(tiny_instance, tiny_rho).to_json_dict()
    edit(data)
    with pytest.raises(SolutionFormatError, match=message):
        Solution.from_json_dict(data)
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SolutionFormatError, match=f"sol.json: {message}"):
        Solution.load(path)
