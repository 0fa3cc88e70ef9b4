"""Utilities, acceptance probabilities, noise streams, grid helpers."""

import itertools
import math

import numpy as np
import pytest

from biloc import (
    OPT_OUT,
    ChoiceModel,
    GeneratorParams,
    RhoTable,
    ScenarioSet,
    accept_rule,
    acceptance_probability,
    alpha_for_target_rho,
    alpha_sweep_values,
    bench,
    deterministic_utility,
    generate,
    offer_utility,
    rho_closed_form,
    rho_saa,
)
from biloc.choice import SCENARIO_CHUNK

from conftest import tiny_family_instance, tiny_params

PUBLISHED_ALPHA_GRID = [-0.45289, -0.4076, -0.36231, -0.31702, -0.27173,
                        -0.22644, -0.18115, -0.13587, -0.09058, -0.04529, 0.0]


def test_offer_utility_shared_spec():
    assert offer_utility(-0.1, 15.0, 4.5) == pytest.approx(3.0)


def test_optout_utility_value(tiny_instance):
    assert deterministic_utility(tiny_instance, 0, 0, OPT_OUT) == pytest.approx(3.0)


def test_price_insensitive_utility():
    assert offer_utility(0.0, 99.0, 4.5) == pytest.approx(4.5)


def test_deterministic_utility_uses_ladder(tiny_instance):
    ladder = tiny_instance.ladder(0, 0)
    value = deterministic_utility(tiny_instance, 0, 0, 0, 1)
    assert value == pytest.approx(-0.1 * ladder.prices[1] + 4.5)


def test_deterministic_utility_rejects_bad_offer(tiny_instance):
    with pytest.raises(IndexError):
        deterministic_utility(tiny_instance, 0, 0, 0, 99)
    with pytest.raises(IndexError):
        deterministic_utility(tiny_instance, 0, 0, 99, 0)


def test_probability_half_at_equal_utilities():
    assert acceptance_probability(3.0, 3.0, 1.0) == pytest.approx(0.5)


def test_probability_published_calibration_point():
    v = offer_utility(-0.45289, 15.0, 4.5)
    assert acceptance_probability(v, 3.0, 1.0) == pytest.approx(0.005, abs=1e-4)


def test_probability_wide_noise_limit():
    assert acceptance_probability(10.0, 3.0, 1e9) == pytest.approx(0.5, abs=1e-6)
    assert acceptance_probability(-40.0, 3.0, 1e9) == pytest.approx(0.5, abs=1e-6)


def test_probability_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        acceptance_probability(1.0, 0.0, 0.0)


def test_probability_monotone_in_price():
    # alpha < 0: climbing the ladder can only lose acceptance
    for beta in (0.25, 1.0, 4.0):
        values = [acceptance_probability(offer_utility(-0.2, q, 4.5), 3.0, beta)
                  for q in (15.0, 17.0, 19.0, 21.0, 23.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_probability_monotone_in_noise_scale():
    betas = [0.25, 0.5, 1.0, 2.0, 4.0]
    attractive = [acceptance_probability(5.0, 3.0, b) for b in betas]
    assert all(a > b for a, b in zip(attractive, attractive[1:]))
    unattractive = [acceptance_probability(1.0, 3.0, b) for b in betas]
    assert all(a < b for a, b in zip(unattractive, unattractive[1:]))


def test_accept_rule_cases():
    assert accept_rule(5.0, 3.0) is True
    assert accept_rule(2.0, 3.0) is False
    # exact tie rejects: measure-zero in theory, reachable with floats
    assert accept_rule(3.0, 3.0) is False


def test_accept_rule_is_the_sign_of_the_difference_at_the_edges():
    # one comparison decides as the difference's sign did: signed zeros,
    # subnormal differences, ties, infinities and nan
    sub = 5e-324
    edge = [0.0, -0.0, sub, -sub, 2 * sub, 3 * sub, np.finfo(float).tiny, 1.0, 1.0,
            math.inf, -math.inf, math.nan, 1.7976931348623157e308,
            -1.7976931348623157e308]
    for a, b in itertools.product(edge, repeat=2):
        assert accept_rule(a, b) is (a - b > 0.0), (a, b)
    u_offer, u_optout = np.meshgrid(edge, edge)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = u_offer - u_optout > 0.0
    assert np.array_equal(accept_rule(u_offer, u_optout), expected)


def test_degenerate_flag_gives_indicator(tiny_instance):
    inst = tiny_instance.with_choice_model(
        tiny_instance.choice_model.with_deterministic(True)
    )
    for n, k, m, p in inst.offer_keys():
        rho = rho_closed_form(inst, n, k, m, p)
        v = deterministic_utility(inst, n, k, m, p)
        assert rho == (1.0 if v > 3.0 else 0.0)


def test_alpha_for_target_rho_published_value():
    alpha = alpha_for_target_rho(0.005, 15.0, 4.5, 3.0, 1.0)
    assert alpha == pytest.approx(-0.45289, abs=1e-4)


def test_alpha_for_equal_utilities_is_zero():
    assert alpha_for_target_rho(0.5, 15.0, 4.5, 4.5) == pytest.approx(0.0, abs=1e-12)


def test_alpha_round_trips_through_probability():
    rng = np.random.default_rng(3)
    for _ in range(50):
        target = float(rng.uniform(0.01, 0.99))
        q = float(rng.uniform(1.0, 40.0))
        pref = float(rng.uniform(0.0, 8.0))
        optout = float(rng.uniform(0.0, 8.0))
        beta = float(rng.uniform(0.1, 8.0))
        alpha = alpha_for_target_rho(target, q, pref, optout, beta)
        back = acceptance_probability(offer_utility(alpha, q, pref), optout, beta)
        assert back == pytest.approx(target, abs=1e-10)


def test_alpha_for_target_rho_rejects_bad_inputs():
    with pytest.raises(ValueError):
        alpha_for_target_rho(0.0, 15.0, 4.5, 3.0)
    with pytest.raises(ValueError):
        alpha_for_target_rho(1.0, 15.0, 4.5, 3.0)
    with pytest.raises(ValueError):
        alpha_for_target_rho(0.5, 0.0, 4.5, 3.0)


def test_alpha_sweep_matches_published_table():
    grid = alpha_sweep_values(-0.45289, 11)
    assert len(grid) == 11
    for ours, published in zip(grid, PUBLISHED_ALPHA_GRID):
        assert ours == pytest.approx(published, abs=1e-5)


def test_alpha_sweep_two_points():
    assert alpha_sweep_values(-0.4, 2) == [-0.4, 0.0]


def test_alpha_sweep_equal_spacing():
    grid = alpha_sweep_values(-0.45289, 11)
    steps = [b - a for a, b in zip(grid, grid[1:])]
    assert max(steps) - min(steps) <= 1e-12


def test_alpha_sweep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        alpha_sweep_values(0.1)
    with pytest.raises(ValueError):
        alpha_sweep_values(-0.4, 1)


def test_scenario_draws_reproducible():
    scen = ScenarioSet(count=1000, seed=5, beta=1.0)
    a = scen.epsilon(0, 1, 0)
    b = ScenarioSet(count=1000, seed=5, beta=1.0).epsilon(0, 1, 0)
    assert np.array_equal(a, b)
    c = scen.epsilon(0, 1, 1)
    assert not np.array_equal(a, c)
    d = scen.epsilon(0, 1, OPT_OUT)
    assert not np.array_equal(a, d)


def test_scenario_chunks_concatenate_to_full_stream():
    # draws are consumed in sequence: a shorter set is a prefix of a longer
    # one, across chunk boundaries
    count = 2 * SCENARIO_CHUNK + 7
    chunks = list(ScenarioSet(count=count, seed=9, beta=2.0).epsilon_chunks(1, 0, 0))
    assert [chunk.size for chunk in chunks] == [SCENARIO_CHUNK, SCENARIO_CHUNK, 7]
    shorter = ScenarioSet(count=SCENARIO_CHUNK + 3, seed=9, beta=2.0).epsilon(1, 0, 0)
    assert np.array_equal(np.concatenate(chunks)[:shorter.size], shorter)


def test_scenario_chunks_are_fresh_arrays_of_the_gumbel_transform():
    # callers overwrite chunks in place, so no two may share memory
    count = 3 * SCENARIO_CHUNK + 100
    scen = ScenarioSet(count=count, seed=9, beta=2.0)
    for drawn in (scen, ScenarioSet(count=count, seed=9, beta=2.0, deterministic=True)):
        chunks = list(drawn.epsilon_chunks(1, 0, 0))
        assert len(chunks) == 4
        for a, b in itertools.combinations(chunks, 2):
            assert not np.shares_memory(a, b)
    u = scen._stream(1, 0, 0).random(count)
    expected = -2.0 * np.log(-np.log(np.clip(u, 1e-300, None)))
    assert scen.epsilon(1, 0, 0).tobytes() == expected.tobytes()


def test_scenario_draws_match_gumbel_moments():
    # Gumbel(0, beta): mean = beta*euler_gamma, var = (pi*beta)^2 / 6
    beta = 2.0
    scen = ScenarioSet(count=400_000, seed=1, beta=beta)
    eps = scen.epsilon(0, 0, 0)
    assert eps.mean() == pytest.approx(beta * np.euler_gamma, abs=0.02)
    assert eps.var() == pytest.approx(math.pi ** 2 * beta ** 2 / 6, rel=0.02)


def test_scenario_set_validates_model_match(tiny_instance):
    scen = ScenarioSet(count=10, seed=0, beta=99.0)
    with pytest.raises(ValueError, match="beta"):
        rho_saa(tiny_instance, 0, 0, 0, 0, scen)


def test_rho_saa_single_scenario_accepting():
    # seed chosen so the single draw accepts an attractive offer
    inst = generate(tiny_params(seed=0, alpha=0.0))  # V = 4.5 > 3.0
    for seed in range(50):
        scen = ScenarioSet.for_model(inst.choice_model, count=1, seed=seed)
        if rho_saa(inst, 0, 0, 0, 0, scen) == 1.0:
            break
    else:
        pytest.fail("no accepting single-scenario seed among 50")


def test_rho_saa_even_odds_case():
    inst = generate(tiny_params(seed=1))  # q=15 offer exactly matches opt-out
    scen = ScenarioSet.for_model(inst.choice_model, count=200_000, seed=3)
    estimate = rho_saa(inst, 0, 0, 0, 0, scen)
    assert rho_closed_form(inst, 0, 0, 0, 0) == pytest.approx(0.5)
    assert estimate == pytest.approx(0.5, abs=0.005)


def test_rho_saa_rare_acceptance_case():
    inst = generate(tiny_params(seed=1, alpha=-0.45289))
    scen = ScenarioSet.for_model(inst.choice_model, count=100_000, seed=4)
    estimate = rho_saa(inst, 0, 0, 0, 0, scen)
    assert estimate == pytest.approx(0.005, abs=0.003)


def test_rho_saa_three_sigma_convergence():
    # binomial bound holds in >= 99% of seeded trials; check a seeded batch
    inst = generate(tiny_params(seed=2, alpha=-0.2))
    count = 20_000
    failures = 0
    trials = 0
    for seed in range(20):
        scen = ScenarioSet.for_model(inst.choice_model, count=count, seed=seed)
        for n, k, m, p in inst.offer_keys():
            rho = rho_closed_form(inst, n, k, m, p)
            sigma = math.sqrt(rho * (1 - rho) / count)
            estimate = rho_saa(inst, n, k, m, p, scen)
            trials += 1
            if abs(estimate - rho) > 3 * sigma:
                failures += 1
    assert failures <= max(1, int(0.01 * trials))


def test_follower_brute_force_matches_accept_rule():
    # the follower picks the utility-best of {offer, opt-out}; the sign rule
    # must return a member of that argmax set, draw for draw, and the strict
    # winner whenever there is one
    inst = generate(tiny_params(seed=3, alpha=-0.15))
    scen = ScenarioSet.for_model(inst.choice_model, count=4000, seed=6)
    model = inst.choice_model
    for (n, k, m, p) in list(inst.offer_keys())[:4]:
        v = deterministic_utility(inst, n, k, m, p)
        v0 = model.optout(n, k)
        eps_m = scen.epsilon(n, k, m)
        eps_0 = scen.epsilon(n, k, OPT_OUT)
        for s in range(scen.count):
            u_offer = v + eps_m[s]
            u_out = v0 + eps_0[s]
            chosen = u_offer if accept_rule(u_offer, u_out) else u_out
            assert chosen == max(u_offer, u_out)


def test_rho_table_closed_form_bounds(tiny_instance):
    table = RhoTable.closed_form(tiny_instance)
    for key, value in table.items():
        assert 0.0 <= value <= 1.0
    # strictly decreasing in the ladder position for alpha < 0
    for n, k, m, p in tiny_instance.offer_keys():
        if p == 0:
            continue
        assert table.get(n, k, m, p) < table.get(n, k, m, p - 1)


def test_rho_table_constant_validates():
    with pytest.raises(ValueError):
        RhoTable.constant(generate(tiny_params(seed=0)), 1.5)


def test_choice_model_rejects_zero_beta():
    with pytest.raises(ValueError):
        ChoiceModel.uniform_spec(1, (1,), 1, beta=0.0)


def test_closed_form_table_equals_rho_closed_form_bit_for_bit():
    # the search's goldens rest on these exact values: numpy's exp differs
    # from math.exp in the last bit on some arguments, so a vectorized table
    # would move them
    desk = generate(bench.DESK_PARAMS)
    instances = [desk.with_choice_model(desk.choice_model.with_alpha(alpha)
                                        .with_deterministic(flag))
                 for alpha in bench.default_alpha_grid() for flag in (False, True)]
    instances += [tiny_family_instance(seed) for seed in range(40)]
    seen = set()
    for inst in instances:
        table = RhoTable.closed_form(inst)
        assert list(table.values) == list(inst.offer_keys())
        for key, value in table.items():
            assert value.hex() == rho_closed_form(inst, *key).hex(), (inst.choice_model,
                                                                       key)
            if inst.choice_model.deterministic:
                seen.add(value)
    assert seen == {0.0, 1.0}


def test_rho_table_saa_equals_rho_saa_on_desk_instance():
    inst = generate(GeneratorParams(
        n_facilities=3, n_customers=24, n_shippers=2, categories_per_shipper=3,
        n_services=3, n_prices=5, ratio=2.0, seed=7,
    ))
    scen = ScenarioSet.for_model(inst.choice_model, 20_000, seed=3)
    table = RhoTable.saa(inst, scen)
    assert list(table.values) == list(inst.offer_keys())
    for (n, k, m, p), value in table.items():
        assert value == rho_saa(inst, n, k, m, p, scen)


def _saa_by_subtraction(inst, scen):
    """Sample-average probability of every key from whole streams, with the
    accept rule written as the sign of the utility difference."""
    model = inst.choice_model
    values = {}
    for n, k, m, p in inst.offer_keys():
        u_offer = deterministic_utility(inst, n, k, m, p) + scen.epsilon(n, k, m)
        u_optout = model.optout(n, k) + scen.epsilon(n, k, OPT_OUT)
        values[(n, k, m, p)] = np.count_nonzero(u_offer - u_optout > 0.0) / scen.count
    return values


@pytest.mark.parametrize("count", [1, 16_383, 16_384, 16_385, 40_000])
def test_saa_table_equals_a_whole_stream_count(count):
    desk = generate(bench.DESK_PARAMS)
    instances = [desk, desk.with_choice_model(desk.choice_model.with_deterministic(True))]
    instances += [tiny_family_instance(seed) for seed in range(10)]
    for inst in instances:
        scen = ScenarioSet.for_model(inst.choice_model, count, seed=count % 7)
        assert RhoTable.saa(inst, scen).values == _saa_by_subtraction(inst, scen)
