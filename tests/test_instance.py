"""Data model, generator, validation and serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from biloc import GeneratorParams, generate, load, save, scale_to_ratio, validate
from biloc.instance import InstanceFormatError, dumps, price_grid

from conftest import tiny_params


def test_price_grid_five_levels():
    assert price_grid(15.0, 23.0, 5) == [15.0, 17.0, 19.0, 21.0, 23.0]


def test_price_grid_three_levels():
    assert price_grid(15.0, 23.0, 3) == [15.0, 19.0, 23.0]


def test_generated_ladders_carry_the_price_grid():
    inst = generate(tiny_params(seed=1, n_prices=5))
    for ladder in inst.price_ladders:
        assert ladder.prices == (15.0, 17.0, 19.0, 21.0, 23.0)
        assert all(level == 0.0 for level in ladder.min_demands)


def test_ratio_is_hit_exactly():
    inst = generate(tiny_params(seed=2, ratio=2.0))
    assert inst.total_capacity == pytest.approx(2.0 * inst.total_demand, rel=1e-9)


def test_ratio_law_over_random_params():
    rng = np.random.default_rng(0)
    for trial in range(25):
        params = tiny_params(
            seed=trial,
            ratio=float(rng.uniform(0.2, 6.0)),
            n_facilities=int(rng.integers(1, 5)),
            n_customers=int(rng.integers(2, 30)),
        )
        inst = generate(params)
        assert abs(inst.capacity_ratio - params.ratio) / params.ratio <= 1e-9


def test_generator_is_byte_deterministic():
    params = tiny_params(seed=7, n_customers=12)
    assert dumps(generate(params)) == dumps(generate(params))


def test_different_seeds_differ():
    assert dumps(generate(tiny_params(seed=1))) != dumps(generate(tiny_params(seed=2)))


def test_cost_monotone_across_service_levels():
    inst = generate(tiny_params(seed=3, n_services=3, n_customers=6))
    costs = inst.costs
    assert np.all(costs[:, :, 0] <= costs[:, :, 1] + 1e-12)
    assert np.all(costs[:, :, 1] <= costs[:, :, 2] + 1e-12)
    # the declared multipliers are 1, 1.05, 1.10
    mult = [s.cost_multiplier for s in inst.service_levels]
    assert mult == [1.0, 1.05, 1.1]


def test_round_robin_customer_assignment():
    inst = generate(tiny_params(seed=4, n_customers=8))
    shippers = [c.shipper for c in inst.customers]
    assert shippers == [0, 1, 0, 1, 0, 1, 0, 1]
    cats = [c.category for c in inst.customers if c.shipper == 0]
    assert cats == [0, 1, 0, 1]


def test_category_demand_is_sum_of_members(tiny_instance):
    for n in range(tiny_instance.n_shippers):
        for k in range(tiny_instance.categories_per_shipper[n]):
            members = tiny_instance.customers_by_category[(n, k)]
            expected = sum(tiny_instance.customers[j].demand for j in members)
            assert tiny_instance.category_demand(n, k) == pytest.approx(expected)


def test_category_demands_and_members_keep_customer_order():
    # fractional demands, whose float sum depends on the order of adding:
    # the cached totals add members in customer order, like the plain sum
    inst = generate(tiny_params(seed=3, n_customers=12))
    inst = replace(inst, customers=tuple(replace(c, demand=0.1 * (c.id + 1) + 1.0 / 3.0)
                                         for c in inst.customers))
    for key, js in inst.customers_by_category.items():
        demands = [inst.customers[j].demand for j in js]
        assert inst.category_demand(*key) == float(sum(demands))
        ids, member_demands = inst.category_members[key]
        assert ids.tolist() == list(js)
        assert member_demands.tolist() == demands
        assert not ids.flags.writeable and not member_demands.flags.writeable


def test_validate_clean_on_generated_instances():
    rng = np.random.default_rng(1)
    for seed in range(12):
        params = tiny_params(
            seed=seed,
            ratio=float(rng.uniform(0.3, 5.0)),
            n_facilities=int(rng.integers(1, 5)),
            n_customers=int(rng.integers(2, 20)),
            n_shippers=int(rng.integers(1, 4)),
            categories_per_shipper=int(rng.integers(1, 4)),
            n_services=int(rng.integers(1, 4)),
            n_prices=int(rng.integers(2, 6)),
        )
        assert validate(generate(params)) == []


def test_validate_flags_negative_cost(tiny_instance):
    costs = tiny_instance.costs.copy()
    costs[0, 1, 0] = -1.0
    broken = replace(tiny_instance, costs=costs)
    problems = validate(broken)
    assert len(problems) == 1
    assert "c[0,1,0]" in problems[0]


def test_validate_reports_negative_costs_on_listed_services_only(tiny_instance):
    # customer 0 is in category (0, 0); with service 1 dropped from its list,
    # a negative cost on service 1 is not its to pay and goes unreported
    costs = tiny_instance.costs.copy()
    costs[1, 2, 1] = -2.5
    costs[0, 1, 0] = -1.0
    costs[1, 0, 1] = -3.0
    listed = replace(tiny_instance, costs=costs)
    assert validate(listed) == ["cost c[1,0,1] must be >= 0 (got -3.0)",  # by customer
                                "cost c[0,1,0] must be >= 0 (got -1.0)",
                                "cost c[1,2,1] must be >= 0 (got -2.5)"]
    services = tiny_instance.services_by_category
    unlisted = replace(listed, services_by_category=(((0,), services[0][1]),
                                                     services[1]))
    assert validate(unlisted) == ["cost c[0,1,0] must be >= 0 (got -1.0)",
                                  "cost c[1,2,1] must be >= 0 (got -2.5)"]
    costs = tiny_instance.costs.copy()
    costs[1, 0, 1] = -3.0
    assert validate(replace(unlisted, costs=costs)) == []


def test_validate_flags_bad_category(tiny_instance):
    customers = list(tiny_instance.customers)
    customers[0] = replace(customers[0], category=9)
    broken = replace(tiny_instance, customers=tuple(customers))
    problems = validate(broken)
    assert any("category 9" in p for p in problems)


def test_validate_flags_nonincreasing_prices(tiny_instance):
    ladders = list(tiny_instance.price_ladders)
    ladders[0] = replace(ladders[0], prices=(23.0, 15.0))
    broken = replace(tiny_instance, price_ladders=tuple(ladders))
    assert any("strictly increasing" in p for p in validate(broken))


def test_validate_flags_ids_that_are_not_positions(tiny_instance):
    # ids index costs, categories and service levels, so a swap is an error
    customers = list(tiny_instance.customers)
    customers[0], customers[1] = (replace(customers[0], id=1),
                                  replace(customers[1], id=0))
    facilities = (replace(tiny_instance.facilities[0], id=5),
                  *tiny_instance.facilities[1:])
    services = (replace(tiny_instance.service_levels[0], id=3),
                *tiny_instance.service_levels[1:])
    broken = replace(tiny_instance, customers=tuple(customers),
                     facilities=facilities, service_levels=services)
    assert validate(broken) == [
        "facility at position 0 has id 5",
        "customer at position 0 has id 1",
        "customer at position 1 has id 0",
        "service level at position 0 has id 3",
    ]


def _edited_file(tmp_path, inst, edit):
    path = tmp_path / "inst.json"
    save(inst, path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def test_load_lists_every_validation_problem(tmp_path, tiny_instance):
    def edit(data):
        data["customers"][0]["category"] = 7
        data["service_levels"][0]["gamma"] = 0.2
        data["price_ladders"][0]["prices"].reverse()

    with pytest.raises(InstanceFormatError) as err:
        load(_edited_file(tmp_path, tiny_instance, edit))
    message = str(err.value)
    assert "customer 0: category 7 out of range" in message
    assert "service 0: gamma must be >= 1 (got 0.2)" in message
    assert "prices must be strictly increasing" in message


def test_load_reports_a_short_service_list_instead_of_failing(tmp_path,
                                                              tiny_instance):
    # a customer of the category without services, and a service id out of
    # range, are reported rather than indexed
    def edit(data):
        data["shippers"][0]["services_by_category"].pop()
        data["shippers"][1]["services_by_category"][0].append(9)

    with pytest.raises(InstanceFormatError) as err:
        load(_edited_file(tmp_path, tiny_instance, edit))
    message = str(err.value)
    assert "shipper 0: services listed for 1 categories, expected 2" in message
    assert "shipper 1 category 0: service 9 out of range" in message


def test_load_rejects_swapped_customer_ids(tmp_path, tiny_instance):
    def edit(data):
        first, second = data["customers"][:2]
        first["id"], second["id"] = second["id"], first["id"]

    with pytest.raises(InstanceFormatError, match="customer at position 0 has id 1"):
        load(_edited_file(tmp_path, tiny_instance, edit))


def _ragged_costs(data):
    data["costs"][0][0].append(1.0)


def _five_prices(data):
    data["price_ladders"][0]["prices"] = [1.0, 2.0, 3.0, 4.0, 5.0]


def _text_capacity(data):
    data["facilities"][0]["capacity"] = "abc"


def _number_for_customers(data):
    data["customers"] = 5


def _text_flag(data):
    data["choice_model"]["deterministic"] = "false"


def _bool_demand(data):
    data["customers"][0]["demand"] = True


def _fractional_id(data):
    data["facilities"][1]["id"] = 1.5


def _bool_cost(data):
    data["costs"][1][0][1] = False


@pytest.mark.parametrize("edit, where", [
    (_ragged_costs, "instance.costs: "),
    (_five_prices, r"price_ladders\[0\]: .*5 prices but 2 minimum demands"),
    (_text_capacity, r"facilities\[0\]\.capacity: .*'abc'"),
    (_number_for_customers, "instance.customers: expected list, got int"),
    (_text_flag, "choice_model.deterministic: expected bool, got str"),
    (_bool_demand, r"customers\[0\]\.demand: expected int or float, got bool True"),
    (_fractional_id, r"facilities\[1\]\.id: expected int, got float 1\.5"),
    (_bool_cost, "instance.costs: expected int or float, got bool"),
], ids=["ragged-costs", "five-prices", "text-capacity", "number-for-customers",
        "text-flag", "bool-demand", "fractional-id", "bool-cost"])
def test_load_names_the_field_of_a_malformed_value(tmp_path, tiny_instance,
                                                   edit, where):
    with pytest.raises(InstanceFormatError, match=where):
        load(_edited_file(tmp_path, tiny_instance, edit))


def test_scale_to_ratio_identity(tiny_instance):
    same = scale_to_ratio(tiny_instance, tiny_instance.capacity_ratio)
    assert dumps(same) == dumps(tiny_instance)


def test_scale_to_ratio_halves_capacities():
    inst = generate(tiny_params(seed=5, ratio=1.0))
    scaled = scale_to_ratio(inst, 0.5)
    for before, after in zip(inst.facilities, scaled.facilities):
        assert after.capacity == pytest.approx(0.5 * before.capacity)
        assert after.fixed_cost == before.fixed_cost


def test_scale_to_ratio_round_trips(tiny_instance):
    original = tiny_instance.capacity_ratio
    back = scale_to_ratio(scale_to_ratio(tiny_instance, 5.0), original)
    for before, after in zip(tiny_instance.facilities, back.facilities):
        assert after.capacity == pytest.approx(before.capacity, abs=1e-12)


def test_scale_to_ratio_rejects_nonpositive(tiny_instance):
    with pytest.raises(ValueError):
        scale_to_ratio(tiny_instance, 0.0)


def test_save_load_round_trip(tmp_path, tiny_instance):
    path = tmp_path / "inst.json"
    save(tiny_instance, path)
    assert dumps(load(path)) == dumps(tiny_instance)


def test_load_rejects_unknown_fields(tmp_path, tiny_instance):
    path = tmp_path / "inst.json"
    save(tiny_instance, path)
    data = json.loads(path.read_text())
    data["facilities"][0]["color"] = "red"
    path.write_text(json.dumps(data))
    with pytest.raises(InstanceFormatError, match="color"):
        load(path)


def test_load_rejects_truncated_file(tmp_path, tiny_instance):
    path = tmp_path / "inst.json"
    save(tiny_instance, path)
    path.write_text(path.read_text()[:150])
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        load(path)


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        generate(tiny_params(seed=0, ratio=-1.0))
    with pytest.raises(ValueError):
        generate(tiny_params(seed=0, n_prices=1))
    with pytest.raises(ValueError):
        generate(tiny_params(seed=0, n_customers=0))
    with pytest.raises(ValueError):
        GeneratorParams(**{**tiny_params(seed=0).__dict__,
                           "price_min": 23.0, "price_max": 15.0}).check()
