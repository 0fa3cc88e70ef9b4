"""Sweep harness, CSV artifacts, and the worked example."""

from dataclasses import replace
from itertools import product

import pytest

from biloc import Solution, bench
from biloc.instance import GeneratorParams

MICRO = GeneratorParams(
    n_facilities=2, n_customers=6, n_shippers=2, categories_per_shipper=2,
    n_services=2, n_prices=3, ratio=2.0, seed=5,
)


def _strip_seconds(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    sec = header.index("seconds")
    out = []
    for line in lines:
        cells = line.split(",")
        if len(cells) == len(header):
            cells[sec] = "-"
        out.append(",".join(cells))
    return "\n".join(out)


def test_csv_deterministic_up_to_timing(tmp_path):
    spec = dict(kind="ratio", points=(0.5, 2.0), base=MICRO, replications=2)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    bench.run_sweep(bench.SweepSpec(**spec, out_path=str(a)))
    bench.run_sweep(bench.SweepSpec(**spec, out_path=str(b)))
    assert _strip_seconds(a) == _strip_seconds(b)


def test_alpha_and_beta_points_share_their_replication_base(monkeypatch):
    # each replication's base instance is generated once, and every row is
    # the one a freshly generated instance gives, up to the timing
    made = []
    real = bench.generate
    monkeypatch.setattr(bench, "generate", lambda params: made.append(params.seed) or real(params))
    for kind, points in (("alpha", (-0.3, -0.1, 0.0)), ("beta", (0.5, 2.0))):
        made.clear()
        spec = bench.SweepSpec(kind=kind, points=points, base=MICRO, replications=2)
        rows = bench.run_sweep(spec)
        assert made == [MICRO.seed, MICRO.seed + 1]
        for row, (point, replication) in zip(rows, product(points, range(2)), strict=True):
            inst = real(replace(MICRO, seed=MICRO.seed + replication))
            model = inst.choice_model
            model = model.with_alpha(point) if kind == "alpha" else model.with_beta(point)
            solution = bench._solve_point(inst.with_choice_model(model), None)
            fresh = bench._row(spec, point, replication, MICRO.seed + replication, solution, 0.0)
            assert {**row, "seconds": None} == {**fresh, "seconds": None}


def test_csv_schema_and_columns(tmp_path):
    path = tmp_path / "out.csv"
    rows = bench.run_sweep(bench.SweepSpec(
        kind="alpha", points=(-0.3, 0.0), base=MICRO, out_path=str(path)))
    lines = path.read_text().splitlines()
    assert lines[0] == f"# {bench.CSV_SCHEMA}"
    assert lines[1] == ",".join(bench.CSV_COLUMNS)
    assert len(lines) == 2 + len(rows)


def test_sweep_rows_and_csv_text_are_pinned(tmp_path):
    # a solved row and an error row differ only in the fields the solve fills
    spec = bench.SweepSpec(kind="alpha", points=(-0.1,), base=MICRO)
    solution = Solution(status="time_limit", objective=11.5, revenue=20.25,
                        assignment_cost=5.0, fixed_cost=3.75, nodes=12, seconds=9.0,
                        gap=0.125)
    solved = bench._row(spec, -0.1, 1, 6, solution, 0.12345678)
    error = bench._row(spec, -0.1, 2, 7, None, 2.5)
    assert solved == {
        "kind": "alpha", "point": "-0.1", "replication": 1, "seed": 6,
        "status": "time_limit", "objective": "11.5", "revenue": "20.25",
        "cost": "5.0", "fixed_cost": "3.75", "nodes": 12, "seconds": "0.123457",
        "trivial": 0, "gap": "0.125"}
    assert error == {
        "kind": "alpha", "point": "-0.1", "replication": 2, "seed": 7,
        "status": "error", "objective": "", "revenue": "", "cost": "",
        "fixed_cost": "", "nodes": "", "seconds": "2.5", "trivial": 0, "gap": ""}
    assert bench._row(spec, -0.1, 0, 5, Solution(status="trivial", objective=0.0),
                      0.0)["trivial"] == 1
    path = tmp_path / "out.csv"
    bench.write_csv([solved, error], path)
    assert path.read_text() == (
        "# biloc-sweep-csv v1\n"
        "kind,point,replication,seed,status,objective,revenue,cost,fixed_cost,nodes,"
        "seconds,trivial,gap\n"
        "alpha,-0.1,1,6,time_limit,11.5,20.25,5.0,3.75,12,0.123457,0,0.125\n"
        "alpha,-0.1,2,7,error,,,,,,2.5,0,\n")


def test_trivial_rows_have_zero_objective():
    rows = bench.run_sweep(bench.SweepSpec(
        kind="alpha", points=(-0.45289, -0.1), base=MICRO))
    trivial = [r for r in rows if r["trivial"]]
    assert trivial, "the strongly price-sensitive point should be trivial"
    for row in trivial:
        assert float(row["objective"]) == 0.0
        assert row["status"] == "trivial"


def test_alpha_sweep_objective_monotone():
    rows = bench.run_sweep(bench.SweepSpec(kind="alpha", base=MICRO))
    objs = [float(r["objective"]) for r in rows]
    assert len(objs) == 11
    assert all(a <= b + 1e-9 for a, b in zip(objs, objs[1:]))


def test_ratio_sweep_objective_monotone():
    rows = bench.run_sweep(bench.SweepSpec(
        kind="ratio", points=(0.5, 1.0, 2.0, 4.0), base=MICRO))
    objs = [float(r["objective"]) for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(objs, objs[1:]))


def test_size_sweep_runs_each_point():
    rows = bench.run_sweep(bench.SweepSpec(
        kind="size", points=((1, 4, 2), (2, 6, 2)), base=MICRO))
    assert [r["point"] for r in rows] == ["I1_J4_P2", "I2_J6_P2"]
    assert all(r["status"] in ("optimal", "trivial") for r in rows)


def test_sweep_survives_point_failures(tmp_path, caplog):
    spec = bench.SweepSpec(kind="alpha", points=(-0.1,), base=MICRO,
                           instance_path=str(tmp_path / "missing.json"))
    rows = bench.run_sweep(spec)
    assert rows[0]["status"] == "error"
    # the reason is logged, not lost
    assert "missing.json" in caplog.text


def test_replications_use_distinct_seeds():
    rows = bench.run_sweep(bench.SweepSpec(
        kind="ratio", points=(1.0,), base=MICRO, replications=3))
    assert [r["seed"] for r in rows] == [MICRO.seed, MICRO.seed + 1, MICRO.seed + 2]
    assert len({r["objective"] for r in rows}) > 1


def test_default_alpha_grid_matches_published_table():
    grid = bench.default_alpha_grid()
    assert grid[0] == pytest.approx(-0.45289, abs=1e-5)
    assert grid[5] == pytest.approx(-0.22644, abs=1e-5)
    assert grid[-1] == 0.0


def test_beta_grid_is_powers_of_two():
    assert bench.BETA_GRID == tuple(2.0 ** l for l in range(-5, 4))


# -- worked example -----------------------------------------------------------

GOLDEN = {
    "fixture": 370.0,
    "fixture_no_gates": 376.4,
    "perfect_information": 671.0,
    "uniform": 162.5,
}


def test_fixture_structure_and_goldens():
    report = bench.run_fixture_example()
    assert report.cheap_price_blocked_for_small_shipper
    assert report.fast_service_overloads_big_facility
    assert report.fixture_objective == pytest.approx(GOLDEN["fixture"], abs=1e-6)
    assert report.fixture_objective_no_gates == pytest.approx(
        GOLDEN["fixture_no_gates"], abs=1e-6)
    assert report.perfect_info_objective == pytest.approx(
        GOLDEN["perfect_information"], abs=1e-6)
    assert report.uniform_objective == pytest.approx(GOLDEN["uniform"], abs=1e-6)


def test_fixture_perfect_information_dominates():
    # with the gates removed, certainty can only help
    report = bench.run_fixture_example()
    assert report.perfect_info_objective >= report.fixture_objective_no_gates - 1e-9
    assert report.fixture_objective_no_gates >= report.fixture_objective - 1e-9


def test_fixture_min_demand_gate_rejects_small_shipper():
    from biloc import Solution, evaluate
    from biloc.milp import InfeasibleSolutionError

    inst = bench.fixture_instance()
    rho = bench.fixture_rho(inst)
    # shipper 1 (total demand 40) forced onto the fast service's cheap price
    forced = Solution(
        "optimal", 0.0, open_facilities=(0, 1),
        price_choices={(1, 1): 0}, service_choices={(1, 0): 1},
        allocation={(1, 2, 1): 1.0, (1, 3, 1): 1.0},
    )
    with pytest.raises(InfeasibleSolutionError) as err:
        evaluate(inst, rho, forced)
    assert any("minimum level" in v for v in err.value.violations)


def test_fixture_csv(tmp_path):
    report = bench.run_fixture_example()
    path = tmp_path / "fixture.csv"
    bench.write_csv(report.rows(), path, bench.FIXTURE_CSV_COLUMNS,
                    bench.FIXTURE_CSV_SCHEMA)
    lines = path.read_text().splitlines()
    assert lines[0] == "# biloc-fixture-csv v1"
    assert lines[1] == "regime,objective"
    assert len(lines) == 6


def test_full_scale_size_grid_behind_flag():
    desk = bench.default_points("size", MICRO, "desk")
    full = bench.default_points("size", MICRO, "full")
    assert desk == bench.SIZE_GRID_DESK
    assert full == bench.SIZE_GRID_FULL
    assert max(j for _i, j, _p in full) == 140
