"""End-to-end command-line pipeline."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from biloc import RhoTable, ScenarioSet, Solution, bench, generate, load, oracle, save, solve
from biloc.cli import build_parser, main

from conftest import strict_json
from test_acceptance import BENCHMARK_PARAMS, GOLDEN_BENCHMARK_OBJECTIVE


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


def test_every_json_file_the_cli_writes_is_strict_json(inst_path, tmp_path):
    # the instance from gen, then solutions from the instance and from its
    # LP file, each also under a spent budget: the LP route then has no
    # finished node, so its gap is infinite and written as null
    strict_json(inst_path)
    model_path = tmp_path / "model.lp"
    assert main(["build", str(inst_path), "--out", str(model_path)]) == 0
    spent = ["--time-limit", "0"]
    runs = {"sol.json": [str(inst_path)], "sol-spent.json": [str(inst_path), *spent],
            "lp-spent.json": [str(model_path), *spent]}
    for name, args in runs.items():
        assert main(["solve", *args, "--out", str(tmp_path / name)]) == 0
        strict_json(tmp_path / name)
    assert Solution.load(tmp_path / "lp-spent.json").gap == float("inf")


def test_rho_table_output(inst_path, tmp_path, capsys):
    assert main(["rho", str(inst_path), "--saa", "5000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    header, *rows = [line for line in out.splitlines() if line]
    assert header == "shipper,category,service,price_index,price,rho_closed_form,rho_saa"
    assert len(rows) == 2 * 2 * 2 * 3
    first = rows[0].split(",")
    assert abs(float(first[5]) - float(first[6])) < 0.05


def test_build_solve_lp_file(tmp_path, capsys):
    # the LP-file route (HiGHS) agrees with the instance route
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


def _benchmark_lp_file(tmp_path):
    """The 4x48 seed-42 model, which HiGHS leaves open, under a half-second limit."""
    save(generate(BENCHMARK_PARAMS), tmp_path / "inst.json")
    assert main(["build", str(tmp_path / "inst.json"), "--out", str(tmp_path / "model.lp")]) == 0
    return ["solve", str(tmp_path / "model.lp"), "--time-limit", "0.5"]


def _lp_file_with_a_negative_lower_bound(tmp_path):
    (tmp_path / "model.lp").write_text(
        "Maximize\n obj: 1.0 x\nSubject To\nBounds\n -5.0 <= x <= 5.0\nEnd\n")
    return ["solve", str(tmp_path / "model.lp")]


@pytest.mark.parametrize("make_args, status, best", [
    (_benchmark_lp_file, "time_limit", GOLDEN_BENCHMARK_OBJECTIVE),
    (_lp_file_with_a_negative_lower_bound, "optimal", 5.0),
], ids=["large-lp-file", "negative-lower-bound"])
def test_solve_takes_lp_files_of_any_size_and_bounds(tmp_path, capsys, make_args, status,
                                                      best):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == 0
    fields = dict(word.split("=") for word in capsys.readouterr().out.split())
    objective, gap = float(fields["objective"]), float(fields["gap"])
    assert fields["status"] == status
    if status == "optimal":
        assert (objective, gap) == (best, 0.0)
    else:  # an incumbent no better than the optimum, with its gap open
        assert objective <= best and gap > 0.0


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


@pytest.mark.parametrize("command, streams", [
    # six offers, each with its own stream and its category's opt-out stream
    (["simulate", "INST", "SOL", "--scenarios", "1000", "--mode", "both", "--out", "OUT"], 12),
    # six categories, each with three services and an opt-out stream
    (["rho", "INST", "--saa", "1000", "-o", "OUT"], 24),
], ids=["simulate", "rho"])
def test_rho_and_simulate_draw_each_stream_once(tmp_path, monkeypatch, command, streams):
    inst = generate(bench.DESK_PARAMS)
    save(inst, tmp_path / "inst.json")
    solve(inst, RhoTable.closed_form(inst)).save(tmp_path / "sol.json")
    opened = Counter()
    draw = ScenarioSet.epsilon_chunks

    def counted(scenarios, n, k, m, *args, **kwargs):
        opened[(n, k, m)] += 1
        return draw(scenarios, n, k, m, *args, **kwargs)

    monkeypatch.setattr(ScenarioSet, "epsilon_chunks", counted)
    files = {"INST": tmp_path / "inst.json", "SOL": tmp_path / "sol.json",
             "OUT": tmp_path / "out.csv"}
    assert main([str(files.get(word, word)) for word in command]) == 0
    assert sum(opened.values()) == streams
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
    ({"scale": "fulll"}, "sweep config: scale must be 'desk' or 'full', got 'fulll'"),
    ({"points": [[2, 12, 3]]},
     "sweep config: ratio sweep points must be positive numbers, got (2, 12, 3)"),
    ({"budget": -1.0}, "sweep config: budget must be >= 0 seconds (got -1.0)"),
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


def _args_with_a_variable_declared_twice(inst_path, tmp_path):
    # binary b, and again under Bounds: the row would bind to the continuous copy
    (tmp_path / "model.lp").write_text(
        "Maximize\n obj: 1.0 b\nSubject To\n c__0: 2.0 b <= 1.0\nBounds\n"
        " 0.0 <= b <= 1.0\nBinaries\n b\nEnd\n")
    return ["solve", str(tmp_path / "model.lp")]


def _args_with_rho_flags_for_an_lp_file(inst_path, tmp_path):
    # the LP file's acceptance probabilities are fixed when it is built
    assert main(["build", str(inst_path), "--out", str(tmp_path / "model.lp")]) == 0
    return ["solve", str(tmp_path / "model.lp"), "--rho", "saa", "--saa", "5", "--seed", "3"]


def _args_with_a_nan_in_the_instance(inst_path, tmp_path):
    data = json.loads(inst_path.read_text())
    data["facilities"][0]["fixed_cost"] = float("nan")
    inst_path.write_text(json.dumps(data))
    return ["solve", str(inst_path)]


def _args_with_bad_sweep_json(inst_path, tmp_path):
    (tmp_path / "sweep.json").write_text("{points: [1]}")
    return ["sweep", "--kind", "ratio", "--config", str(tmp_path / "sweep.json"),
            "--out", str(tmp_path / "ratio.csv")]


def _args_with_a_plan_that_does_not_fit(inst_path, tmp_path):
    # the instance has facilities 0 and 1
    Solution("optimal", 0.0, open_facilities=(2,)).save(tmp_path / "plan.json")
    return ["simulate", str(inst_path), str(tmp_path / "plan.json")]


def _args(*words):
    """A command line in which INST names the fixture's instance file, PLAN a
    plan that offers nothing, and OUT a new file."""
    def make(inst_path, tmp_path):
        Solution("optimal", 0.0).save(tmp_path / "plan.json")
        files = {"INST": inst_path, "PLAN": tmp_path / "plan.json", "OUT": tmp_path / "out"}
        return [str(files.get(word, word)) for word in words]
    return make


@pytest.mark.parametrize("make_args, message", [
    (_args_with_a_missing_file, "No such file or directory"),
    (_args_with_a_bad_solution, "sol.json: "),
    (_args_with_a_bad_lp_file, "content before any section header"),
    (_args_with_a_variable_declared_twice,
     "line 8: variable 'b' is declared twice (first on line 6)"),
    (_args_with_bad_sweep_json, "sweep.json: not valid JSON"),
    (_args_with_a_nan_in_the_instance,
     "facilities[0].fixed_cost: expected a finite number, got nan"),
    (_args("gen", "--facilities", "0", "-o", "OUT"), "n_facilities must be >= 1 (got 0)"),
    (_args("gen", "--prices", "1", "-o", "OUT"), "at least 2 price levels (got 1)"),
    (_args("gen", "--ratio", "-1", "-o", "OUT"), "ratio must be > 0 (got -1.0)"),
    (_args("gen", "--seed", "-1", "-o", "OUT"), "seed must fit in 64 unsigned bits (got -1)"),
    (_args("gen", "--beta", "0", "-o", "OUT"), "beta must be > 0 (got 0.0)"),
    (_args("gen", "--alpha", "nan", "-o", "OUT"), "alpha must be a finite number (got nan)"),
    (_args("gen", "--alpha", "inf", "-o", "OUT"), "alpha must be a finite number (got inf)"),
    (_args("gen", "--ratio", "inf", "-o", "OUT"), "ratio must be a finite number (got inf)"),
    (_args("gen", "--beta", "inf", "-o", "OUT"), "beta must be a finite number (got inf)"),
    (_args("simulate", "INST", "PLAN", "--scenarios", "0"),
     "scenario count must be positive (got 0)"),
    (_args("rho", "INST", "--saa", "-1"), "scenario count must be positive (got -1)"),
    (_args("build", "INST", "--rho", "saa", "--saa", "0", "--out", "OUT"),
     "scenario count must be positive (got 0)"),
    (_args("solve", "INST", "--rho", "saa", "--saa", "0"),
     "scenario count must be positive (got 0)"),
    (_args("rho", "INST", "--saa", "10", "--seed", "-1"),
     "seed must fit in 64 unsigned bits (got -1)"),
    (_args("rho", "INST", "--saa", "10", "--seed", str(2**64)),
     f"seed must fit in 64 unsigned bits (got {2**64})"),
    (_args("simulate", "INST", "PLAN", "--seed", "-1"),
     "seed must fit in 64 unsigned bits (got -1)"),
    (_args("solve", "INST", "--rho", "saa", "--seed", "-5"),
     "seed must fit in 64 unsigned bits (got -5)"),
    (_args("solve", "INST", "--time-limit", "-1"), "--time-limit must be >= 0 seconds (got -1.0)"),
    (_args_with_a_plan_that_does_not_fit, "open facility 2 out of range"),
    (_args_with_rho_flags_for_an_lp_file,
     "model.lp: an LP file has its acceptance probabilities built in; "
     "it takes no --rho, --saa, --seed"),
], ids=["missing-file", "bad-solution", "bad-lp-file", "variable-declared-twice",
        "bad-sweep-json", "nan-in-instance", "no-facilities", "one-price", "negative-ratio",
        "negative-seed", "zero-beta", "nan-alpha", "infinite-alpha", "infinite-ratio",
        "infinite-beta", "no-scenarios", "negative-saa", "build-no-saa", "solve-no-saa",
        "negative-rho-seed", "too-large-rho-seed", "negative-simulate-seed",
        "negative-solve-seed", "negative-time-limit", "plan-does-not-fit",
        "lp-file-with-rho-flags"])
def test_input_errors_print_one_line_and_exit_2(inst_path, tmp_path, capsys,
                                                make_args, message):
    assert main(make_args(inst_path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("biloc: error: ")
    assert message in err
    assert err.count("\n") == 1


def test_time_limit_covers_loading_the_model(inst_path, tmp_path, monkeypatch):
    # reading an LP file and sampling a --rho saa table, each held up 0.3 s
    # here, spend the limit before the solver starts: it gets what is left,
    # and nothing once the limit is spent
    from biloc import cli, milp

    budgets = []

    def slowed(owner, name):
        real = getattr(owner, name)

        def slow(*args):
            time.sleep(0.3)
            return real(*args)
        monkeypatch.setattr(owner, name, slow)

    def watched(name):
        real = getattr(cli, name)

        def watch(*args, budget):
            budgets.append(budget)
            return real(*args, budget=budget)
        monkeypatch.setattr(cli, name, watch)

    slowed(milp, "read_lp")
    slowed(RhoTable, "saa")
    watched("solve_milp")
    watched("solve")
    assert main(["build", str(inst_path), "--out", str(tmp_path / "model.lp")]) == 0
    assert main(["solve", str(tmp_path / "model.lp"), "--time-limit", "0.2"]) == 0
    assert main(["solve", str(inst_path), "--rho", "saa", "--saa", "100",
                 "--time-limit", "5"]) == 0
    spent, left = budgets
    assert spent == 0.0
    assert 4.0 < left <= 4.7


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


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # scipy backs only the LP-file route, so it is imported there, not here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH")]))
    code = ("import biloc, biloc.cli, sys; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
