"""The benchmark's output checks accept real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

wl.use_checkout_source()

from biloc.cli import main as biloc_main  # noqa: E402

SCENARIOS = 20_000


def _biloc(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert biloc_main(args) == 0


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """The desk instance at alpha = -0.1, its optimal plan, and a replay."""
    d = tmp_path_factory.mktemp("desk")
    _biloc(wl.gen_args(wl.DESK, wl.BASE_ALPHA, d / "inst.json"))
    _biloc(["solve", str(d / "inst.json"), "--out", str(d / "plan.json")])
    _biloc(["rho", str(d / "inst.json"), "--saa", str(SCENARIOS), "--seed", "3",
            "-o", str(d / "rho.csv")])
    _biloc(["simulate", str(d / "inst.json"), str(d / "plan.json"), "--scenarios",
            str(SCENARIOS), "--mode", "both", "--seed", "3", "--out", str(d / "sim.csv")])
    inst = json.loads((d / "inst.json").read_text())
    plan = json.loads((d / "plan.json").read_text())
    rho = checks.read_csv((d / "rho.csv").read_text())
    sim = checks.read_csv((d / "sim.csv").read_text())
    return inst, plan, rho, sim


def _reference(plan: dict) -> dict:
    return {"best": plan["objective"], "bound": plan["objective"],
            "recorded_objective": plan["objective"]}


def test_full_check_accepts_the_optimal_plan(desk):
    inst, plan, _rho, _sim = desk
    assert checks.check_full(inst, plan, _reference(plan)) == []


def test_full_check_rejects_a_moved_objective(desk):
    inst, plan, _rho, _sim = desk
    ref = _reference(plan)
    moved = dict(plan, objective=plan["objective"] * (1.0 + 1e-4))
    problems = checks.check_full(inst, moved, ref)
    assert any("revenue - cost - fixed" in p for p in problems)
    assert any("recorded optimum" in p for p in problems)


def test_full_check_rejects_an_allocation_over_capacity(desk):
    inst, plan, _rho, _sim = desk
    target = min(plan["open_facilities"],
                 key=lambda i: inst["facilities"][i]["capacity"])
    served = sum(inst["customers"][a["customer"]]["demand"] * a["fraction"]
                 for a in plan["allocation"])
    assert served > inst["facilities"][target]["capacity"]
    moved = copy.deepcopy(plan)
    for a in moved["allocation"]:
        a["facility"] = target
    problems = checks.plan_violations(inst, moved)
    assert any("over capacity" in p for p in problems)
    assert not any("assigned" in p for p in problems)


def test_replay_check_accepts_a_real_replay(desk):
    inst, plan, rho, sim = desk
    assert checks.check_replay(inst, plan, rho, sim, SCENARIOS) == []


def test_replay_check_rejects_an_saa_estimate_six_sigma_off(desk):
    inst, plan, rho, sim = desk
    rho = copy.deepcopy(rho)
    row = rho[0]
    n, k, m, p = (int(row[c]) for c in ("shipper", "category", "service", "price_index"))
    true = checks.logistic_rho(inst, n, k, m, p)
    row["rho_saa"] = repr(true + 6.0 * math.sqrt(true * (1.0 - true) / SCENARIOS))
    problems = checks.check_replay(inst, plan, rho, sim, SCENARIOS)
    assert len(problems) == 1 and "sigma" in problems[0]


def test_replay_check_rejects_reallocation_below_reduced(desk):
    inst, plan, rho, sim = desk
    sim = copy.deepcopy(sim)
    by_mode = {row["mode"]: row for row in sim}
    reduced = float(by_mode["reduced-consistent"]["mean_profit"])
    by_mode["per-scenario-reallocation"]["mean_profit"] = repr(reduced - 1e-3)
    problems = checks.check_replay(inst, plan, rho, sim, SCENARIOS)
    assert len(problems) == 1 and "below the reduced mean" in problems[0]


def _sweep(objectives: list[float], statuses: list[str]) -> tuple[list, list]:
    grid = wl.alpha_grid()
    rows = [{"point": repr(a), "status": s, "objective": repr(o)}
            for a, o, s in zip(grid, objectives, statuses)]
    brackets = [{"alpha": a, "best": None, "bound": None} for a in grid]
    return rows, brackets


_SWEEP_OBJ = [0.0, 0.0, 0.0, 0.0, 123.7, 409.4, 929.2, 1688.4, 3005.0, 5350.6, 7282.0]
_SWEEP_STATUS = ["trivial"] * 3 + ["optimal"] * 8


def test_sweep_check_accepts_a_monotone_sweep():
    assert checks.check_sweep(*_sweep(_SWEEP_OBJ, _SWEEP_STATUS)) == []


def test_sweep_check_rejects_a_row_below_the_one_before():
    objectives = list(_SWEEP_OBJ)
    objectives[8] = objectives[7] - 1.0
    problems = checks.check_sweep(*_sweep(objectives, _SWEEP_STATUS))
    assert len(problems) == 1 and "below" in problems[0]


def test_sweep_check_rejects_an_objective_outside_its_bracket():
    rows, brackets = _sweep(_SWEEP_OBJ, _SWEEP_STATUS)
    brackets[6] = dict(brackets[6], best=929.2 * (1.0 + 1e-4), bound=930.0)
    problems = checks.check_sweep(rows, brackets)
    assert len(problems) == 1 and "bracket" in problems[0]


def test_sweep_check_rejects_trivial_rows_that_are_not_a_zero_prefix():
    statuses = list(_SWEEP_STATUS)
    statuses[3], statuses[2] = "trivial", "optimal"
    problems = checks.check_sweep(*_sweep(_SWEEP_OBJ, statuses))
    assert len(problems) == 1 and "after a solved one" in problems[0]
