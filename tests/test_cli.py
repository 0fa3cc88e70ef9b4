"""End-to-end command-line pipeline."""

import json
from collections import Counter

import pytest

from biloc import RhoTable, ScenarioSet, Solution, bench, generate, load, oracle, save, solve
from biloc.cli import build_parser, main


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    assert main([
        "gen", "--facilities", "2", "--customers", "6", "--shippers", "2",
        "--categories", "2", "--services", "2", "--prices", "3",
        "--ratio", "2.0", "--seed", "5", "-o", str(path),
    ]) == 0
    return path


def test_gen_writes_valid_instance(inst_path):
    inst = load(inst_path)
    assert inst.n_customers == 6
    assert inst.capacity_ratio == pytest.approx(2.0, rel=1e-9)


def test_rho_table_output(inst_path, tmp_path, capsys):
    assert main(["rho", str(inst_path), "--saa", "5000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    header, *rows = [line for line in out.splitlines() if line]
    assert header == "shipper,category,service,price_index,price,rho_closed_form,rho_saa"
    assert len(rows) == 2 * 2 * 2 * 3
    first = rows[0].split(",")
    assert abs(float(first[5]) - float(first[6])) < 0.05


def test_build_solve_lp_file(tmp_path, capsys):
    # a small instance keeps the LP-file route (relaxation engine) quick
    small = tmp_path / "small.json"
    main(["gen", "--facilities", "2", "--customers", "4", "--shippers", "2",
          "--categories", "2", "--services", "2", "--prices", "2",
          "--ratio", "1.5", "--seed", "5", "-o", str(small)])
    model_path = tmp_path / "model.lp"
    assert main(["build", str(small), "--out", str(model_path)]) == 0
    assert model_path.read_text().startswith("\\ biloc lp export v1")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", str(model_path), "--time-limit", "120",
                 "--out", str(sol_path)]) == 0
    from_lp = Solution.load(sol_path)
    assert from_lp.status == "optimal"

    sol2_path = tmp_path / "sol2.json"
    assert main(["solve", str(small), "--out", str(sol2_path)]) == 0
    from_instance = Solution.load(sol2_path)
    assert from_instance.objective == pytest.approx(from_lp.objective, rel=1e-6)


def test_simulate_both_modes(inst_path, tmp_path):
    sol_path = tmp_path / "sol.json"
    main(["solve", str(inst_path), "--out", str(sol_path)])
    sim_path = tmp_path / "sim.csv"
    assert main(["simulate", str(inst_path), str(sol_path), "--scenarios",
                 "20000", "--mode", "both", "--seed", "9",
                 "--out", str(sim_path)]) == 0
    lines = sim_path.read_text().splitlines()
    assert lines[0].startswith("mode,")
    assert lines[1].startswith("reduced-consistent,")
    assert lines[2].startswith("per-scenario-reallocation,")
    assert lines[3].startswith("mode_gap,")
    solution = Solution.load(sol_path)
    mean = float(lines[1].split(",")[2])
    stderr = float(lines[1].split(",")[3])
    assert abs(mean - solution.objective) <= 4 * stderr


def test_simulate_both_modes_draws_each_stream_once(tmp_path, monkeypatch):
    inst = generate(bench.DESK_PARAMS)
    save(inst, tmp_path / "inst.json")
    solve(inst, RhoTable.closed_form(inst)).save(tmp_path / "sol.json")
    opened = Counter()
    draw = ScenarioSet.epsilon_chunks

    def counted(scenarios, n, k, m, *args, **kwargs):
        opened[(n, k, m)] += 1
        return draw(scenarios, n, k, m, *args, **kwargs)

    monkeypatch.setattr(ScenarioSet, "epsilon_chunks", counted)
    assert main(["simulate", str(tmp_path / "inst.json"), str(tmp_path / "sol.json"),
                 "--scenarios", "1000", "--mode", "both",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    # six offers, each with its own stream and its category's opt-out stream
    assert sum(opened.values()) == 12
    assert set(opened.values()) == {1}


def test_commands_in_one_process_share_the_parser_but_not_options(inst_path, tmp_path):
    assert build_parser() is build_parser()
    sol_path = tmp_path / "sol.json"
    assert main(["solve", str(inst_path), "--out", str(sol_path)]) == 0
    sampled, closed = tmp_path / "sampled.csv", tmp_path / "closed.csv"
    assert main(["rho", str(inst_path), "--saa", "50", "--seed", "4",
                 "-o", str(sampled)]) == 0
    assert main(["rho", str(inst_path), "-o", str(closed)]) == 0
    assert main(["simulate", str(inst_path), str(sol_path), "--scenarios", "50",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    sampled_rows = [line.split(",") for line in sampled.read_text().splitlines()[1:]]
    closed_rows = [line.split(",") for line in closed.read_text().splitlines()[1:]]
    assert all(row[6] for row in sampled_rows)
    assert [row[:6] for row in closed_rows] == [row[:6] for row in sampled_rows]
    assert all(row[6] == "" for row in closed_rows)
    # simulate ran with its own defaults: both modes and seed 0
    inst = load(inst_path)
    expected = oracle.simulate(inst, Solution.load(sol_path),
                               ScenarioSet.for_model(inst.choice_model, 50, 0),
                               modes=(oracle.REDUCED, oracle.REALLOC))
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:3]] == [
        [mode, "50", repr(result.mean_profit)] for mode, result in expected.items()]


def test_sweep_with_config(inst_path, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "points": [0.5, 2.0],
        "replications": 1,
        "base": {
            "n_facilities": 2, "n_customers": 6, "n_shippers": 2,
            "categories_per_shipper": 2, "n_services": 2, "n_prices": 3,
            "ratio": 2.0, "seed": 5,
        },
    }))
    out = tmp_path / "ratio.csv"
    assert main(["sweep", "--kind", "ratio", "--config", str(config),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4


def test_solve_rejects_an_invalid_instance_file(inst_path, tmp_path, capsys):
    data = json.loads(inst_path.read_text())
    data["customers"][0]["category"] = 7
    data["service_levels"][0]["gamma"] = 0.2
    data["price_ladders"][0]["prices"].reverse()
    inst_path.write_text(json.dumps(data))
    assert main(["solve", str(inst_path), "--out", str(tmp_path / "sol.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("biloc: error: invalid instance:")
    assert "category 7 out of range" in captured.err
    assert "gamma must be >= 1" in captured.err
    assert "strictly increasing" in captured.err
    assert "Traceback" not in captured.err
    assert "status=" not in captured.out
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("config, field", [
    ({"pointz": [1.0]}, "unknown field 'pointz' in sweep config"),
    ({"kind": "alpha"}, "unknown field 'kind' in sweep config"),
    ({"points": [1.0], "base": {"n_facilities": 2}},
     "missing field 'n_customers' in sweep config base"),
    ({"base": {"n_facilities": 2, "colour": 1}},
     "unknown field 'colour' in sweep config base"),
    ({"base": {"n_facilities": "3", "n_customers": 6, "n_shippers": 2,
               "categories_per_shipper": 2, "n_services": 2, "n_prices": 3,
               "ratio": 2.0, "seed": 5}},
     "sweep config base.n_facilities: expected int, got str '3'"),
    ({"points": 5}, "sweep config.points: expected list, got int 5"),
    ({"budget": "x"}, "sweep config.budget: expected int or float, got str 'x'"),
    ({"base": {"n_facilities": 3, "n_customers": 6, "n_shippers": 2,
               "categories_per_shipper": 2, "n_services": 2, "n_prices": 3,
               "ratio": 2.0, "seed": 5, "alpha": float("nan")}},
     "sweep config base.alpha: expected a finite number, got nan"),
])
def test_sweep_config_names_a_bad_field(tmp_path, capsys, config, field):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--kind", "ratio", "--config", str(path),
                 "--out", str(tmp_path / "ratio.csv")]) == 2
    assert capsys.readouterr().err == f"biloc: error: {field}\n"


def _args_with_a_missing_file(inst_path, tmp_path):
    return ["simulate", str(inst_path), str(tmp_path / "missing.json")]


def _args_with_a_bad_solution(inst_path, tmp_path):
    (tmp_path / "sol.json").write_text('{"status": "optimal"')
    return ["simulate", str(inst_path), str(tmp_path / "sol.json")]


def _args_with_a_bad_lp_file(inst_path, tmp_path):
    (tmp_path / "model.lp").write_text("x + y\n")
    return ["solve", str(tmp_path / "model.lp")]


def _args_with_a_too_large_lp_file(inst_path, tmp_path):
    # 2,000 bounded columns: about 8M dense tableau cells, past the guard
    names = [f"x{i}" for i in range(2_000)]
    (tmp_path / "model.lp").write_text(
        "Maximize\n obj: " + " + ".join(names) + "\nSubject To\nBounds\n"
        + "".join(f" 0.0 <= {name} <= 1.0\n" for name in names) + "End\n")
    return ["solve", str(tmp_path / "model.lp")]


def _args_with_a_nan_in_the_instance(inst_path, tmp_path):
    data = json.loads(inst_path.read_text())
    data["facilities"][0]["fixed_cost"] = float("nan")
    inst_path.write_text(json.dumps(data))
    return ["solve", str(inst_path)]


def _args_with_bad_sweep_json(inst_path, tmp_path):
    (tmp_path / "sweep.json").write_text("{points: [1]}")
    return ["sweep", "--kind", "ratio", "--config", str(tmp_path / "sweep.json"),
            "--out", str(tmp_path / "ratio.csv")]


@pytest.mark.parametrize("make_args, message", [
    (_args_with_a_missing_file, "No such file or directory"),
    (_args_with_a_bad_solution, "sol.json: "),
    (_args_with_a_bad_lp_file, "content before any section header"),
    (_args_with_a_too_large_lp_file, "too large for the dense relaxation engine"),
    (_args_with_bad_sweep_json, "sweep.json: not valid JSON"),
    (_args_with_a_nan_in_the_instance,
     "facilities[0].fixed_cost: expected a finite number, got nan"),
], ids=["missing-file", "bad-solution", "bad-lp-file", "too-large-lp-file",
        "bad-sweep-json", "nan-in-instance"])
def test_input_errors_print_one_line_and_exit_2(inst_path, tmp_path, capsys,
                                                make_args, message):
    assert main(make_args(inst_path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("biloc: error: ")
    assert message in err
    assert err.count("\n") == 1


def test_fixture_command(tmp_path, capsys):
    out = tmp_path / "fixture.csv"
    assert main(["fixture", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "fixture:" in printed
    assert out.exists()


def test_build_with_sampled_probabilities(inst_path, tmp_path):
    model_path = tmp_path / "saa.lp"
    assert main(["build", str(inst_path), "--rho", "saa", "--saa", "20000",
                 "--seed", "2", "--out", str(model_path)]) == 0
    sol_path = tmp_path / "sol_saa.json"
    assert main(["solve", str(inst_path), "--rho", "saa", "--saa", "20000",
                 "--seed", "2", "--out", str(sol_path)]) == 0
    sampled = Solution.load(sol_path)
    assert sampled.status in ("optimal", "trivial")
