"""Experiment harness: parameter sweeps with CSV artifacts and the small
worked example.

Sweeps run each grid point through the full pipeline (instance, acceptance
probabilities, model, exact solve) and emit one CSV row per (point,
replication).  The CSV is deterministic for a fixed spec and seed except for
the ``seconds`` column, which is a wall-clock measurement.  Desk-scale
defaults keep a complete run in the minutes range; the full-scale size grid
sits behind ``scale="full"``.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import milp
from .choice import ChoiceModel, RhoTable, alpha_for_target_rho, alpha_sweep_values
from .instance import (
    Facility,
    Customer,
    GeneratorParams,
    Instance,
    Meta,
    PriceLadder,
    ServiceLevel,
    generate,
    load,
    scale_to_ratio,
)
from .solver import enumerate_oracle, solve
from .solver.serving import evaluate_offers

logger = logging.getLogger(__name__)

CSV_SCHEMA = "biloc-sweep-csv v1"
CSV_COLUMNS = ("kind", "point", "replication", "seed", "status", "objective",
               "revenue", "cost", "fixed_cost", "nodes", "seconds", "trivial",
               "gap")

#: Desk-scale base generator configuration for the demand-parameter sweeps.
DESK_PARAMS = GeneratorParams(
    n_facilities=3, n_customers=24, n_shippers=2, categories_per_shipper=3,
    n_services=3, n_prices=5, ratio=2.0, seed=7,
)

BETA_GRID = tuple(2.0 ** l for l in range(-5, 4))
RATIO_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
SIZE_GRID_DESK = ((2, 12, 3), (3, 24, 4), (4, 48, 5))
SIZE_GRID_FULL = (
    (4, 80, 3), (4, 80, 4), (4, 80, 5), (5, 80, 5), (6, 80, 5),
    (5, 100, 5), (5, 120, 5), (4, 140, 5), (5, 140, 5), (6, 140, 5), (7, 140, 5),
)


def default_alpha_grid(params: GeneratorParams = DESK_PARAMS) -> list[float]:
    """Eleven price sensitivities from the value that pins the acceptance
    probability of the cheapest offer at 0.005, up to 0."""
    first = alpha_for_target_rho(
        0.005, params.price_min, params.service_preference,
        params.optout_utility, params.beta,
    )
    return alpha_sweep_values(round(first, 5), count=11)


@dataclass
class SweepSpec:
    """One sweep: a grid of points over a base configuration.

    ``points`` are floats for alpha/beta/ratio and (facilities, customers,
    prices) triples for size.  ``instance_path`` pins a serialized instance
    for alpha/beta sweeps instead of generating one.
    """

    kind: str  # "alpha" | "beta" | "ratio" | "size"
    points: tuple = ()
    replications: int = 1
    budget: float | None = None
    base: GeneratorParams = field(default_factory=lambda: DESK_PARAMS)
    instance_path: str | None = None
    out_path: str | None = None
    scale: str = "desk"

    def __post_init__(self) -> None:
        if self.kind not in ("alpha", "beta", "ratio", "size"):
            raise ValueError(f"unknown sweep kind '{self.kind}'")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.points:
            self.points = default_points(self.kind, self.base, self.scale)
        if self.kind in ("alpha", "beta"):
            for value in self.points:
                if not isinstance(value, (int, float)):
                    raise ValueError(f"{self.kind} sweep points must be numbers")


def default_points(kind: str, base: GeneratorParams, scale: str = "desk") -> tuple:
    if kind == "alpha":
        return tuple(default_alpha_grid(base))
    if kind == "beta":
        return BETA_GRID
    if kind == "ratio":
        return RATIO_GRID
    return SIZE_GRID_FULL if scale == "full" else SIZE_GRID_DESK


def _solve_point(inst: Instance, budget: float | None) -> milp.Solution:
    return solve(inst, RhoTable.closed_form(inst), budget=budget)


def _row(spec: SweepSpec, point, replication: int, seed: int,
         solution: milp.Solution | None, seconds: float) -> dict:
    """The CSV row of one (point, replication); an error row, when
    ``solution`` is None, leaves the solve's fields empty."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(kind=spec.kind, point=_point_label(point), replication=replication,
               seed=seed, status="error", seconds=repr(round(seconds, 6)), trivial=0)
    if solution is not None:
        row.update(status=solution.status, objective=repr(solution.objective),
                   revenue=repr(solution.revenue), cost=repr(solution.assignment_cost),
                   fixed_cost=repr(solution.fixed_cost), nodes=solution.nodes,
                   trivial=int(solution.status == "trivial"), gap=repr(solution.gap))
    return row


def _point_label(point) -> str:
    if isinstance(point, tuple):
        return "I{}_J{}_P{}".format(*point)
    return repr(float(point))


def _sweep_instances(spec: SweepSpec, point, replication: int, bases: dict
                     ) -> tuple[Instance, int]:
    seed = spec.base.seed + replication
    if spec.kind in ("alpha", "beta"):
        if replication not in bases:
            bases[replication] = (generate(replace(spec.base, seed=seed))
                                  if spec.instance_path is None else load(spec.instance_path))
        inst = bases[replication]
        model = inst.choice_model
        if spec.kind == "alpha":
            inst = inst.with_choice_model(model.with_alpha(float(point)))
        else:
            inst = inst.with_choice_model(model.with_beta(float(point)))
        return inst, seed
    if spec.kind == "ratio":
        inst = generate(replace(spec.base, seed=seed))
        return scale_to_ratio(inst, float(point)), seed
    n_fac, n_cust, n_prices = point
    params = replace(spec.base, n_facilities=int(n_fac), n_customers=int(n_cust),
                     n_prices=int(n_prices), seed=seed)
    return generate(params), seed


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Run every (point, replication); failures become error rows, their
    reason is logged as a warning, and the sweep continues.  Writes CSV to
    spec.out_path when set."""
    rows: list[dict] = []
    bases: dict[int, Instance] = {}  # per replication, for alpha and beta points
    for point in spec.points:
        for replication in range(spec.replications):
            started = time.perf_counter()
            try:
                inst, seed = _sweep_instances(spec, point, replication, bases)
                solution = _solve_point(inst, spec.budget)
                rows.append(_row(spec, point, replication, seed, solution,
                                 time.perf_counter() - started))
            except Exception as exc:  # noqa: BLE001 - error rows keep the sweep alive
                logger.warning("%s sweep point %s, replication %d failed: %s",
                               spec.kind, _point_label(point), replication, exc)
                rows.append(_row(spec, point, replication,
                                 spec.base.seed + replication, None,
                                 time.perf_counter() - started))
    if spec.out_path is not None:
        write_csv(rows, spec.out_path)
    return rows


def write_csv(rows: list[dict], path: str | Path | None, columns: tuple = CSV_COLUMNS,
              schema: str | None = CSV_SCHEMA) -> None:
    """Write ``rows``, dicts keyed by ``columns``, as CSV under a '# schema'
    line, if any, to ``path`` or, without one, to standard output."""
    lines = ([] if schema is None else [f"# {schema}"]) + [",".join(columns)]
    lines += [",".join(str(row[col]) for col in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Worked example: two shippers, two facilities, two service levels
# ---------------------------------------------------------------------------

FIXTURE_CSV_SCHEMA = "biloc-fixture-csv v1"
FIXTURE_CSV_COLUMNS = ("regime", "objective")

#: Acceptance probabilities of the worked example, higher for cheaper prices
#: (repo-chosen: the published figure's values are not recoverable).
FIXTURE_RHO = {"low_price": 0.8, "high_price": 0.6}


def fixture_instance() -> Instance:
    """Two shippers (demands 50+100 and 20+20), facilities A (capacity 150,
    fixed cost 250) and B (50, 140), service levels with gamma 1 and 1.15,
    ladders 6.0/6.5 and 6.3/7.0 with minimum demands 40 and 50 on the cheap
    prices.  Assignment costs are repo-chosen: A is the cheap facility for
    shipper 0, B for shipper 1, and the faster service costs 10% more."""
    facilities = (
        Facility(0, capacity=150.0, fixed_cost=250.0, location=(0.0, 0.0)),
        Facility(1, capacity=50.0, fixed_cost=140.0, location=(1.0, 0.0)),
    )
    demands = (50.0, 100.0, 20.0, 20.0)
    customers = tuple(
        Customer(j, shipper=0 if j < 2 else 1, category=0, demand=demands[j],
                 location=(float(j), 1.0))
        for j in range(4)
    )
    service_levels = (
        ServiceLevel(0, gamma=1.0, cost_multiplier=1.0),
        ServiceLevel(1, gamma=1.15, cost_multiplier=1.1),
    )
    # per-unit haul rates: facility A cheap for shipper 0, B cheap for shipper 1
    unit_rate = np.array([[1.0, 1.0, 2.0, 2.0],
                          [2.0, 2.0, 1.0, 1.0]])
    base = unit_rate * np.array(demands)[None, :]
    costs = np.stack([base * s.cost_multiplier for s in service_levels], axis=2)
    ladders = tuple(
        PriceLadder(n, m, prices=(6.0, 6.5) if m == 0 else (6.3, 7.0),
                    min_demands=(40.0, 0.0) if m == 0 else (50.0, 0.0))
        for n in range(2) for m in range(2)
    )
    model = ChoiceModel.uniform_spec(2, (1, 1), 2, alpha=-0.1, beta=1.0)
    return Instance(
        facilities=facilities,
        customers=customers,
        service_levels=service_levels,
        categories_per_shipper=(1, 1),
        services_by_category=(((0, 1),), ((0, 1),)),
        price_ladders=ladders,
        costs=costs,
        choice_model=model,
        meta=Meta(seed=0),
    )


def fixture_rho(inst: Instance) -> RhoTable:
    values = {}
    for n, k, m, p in inst.offer_keys():
        values[(n, k, m, p)] = (FIXTURE_RHO["low_price"] if p == 0
                                else FIXTURE_RHO["high_price"])
    return RhoTable(values)


def _without_min_demand(inst: Instance) -> Instance:
    ladders = tuple(
        PriceLadder(l.shipper, l.service, l.prices, (0.0,) * len(l.prices))
        for l in inst.price_ladders
    )
    return replace(inst, price_ladders=ladders)


@dataclass
class FixtureReport:
    fixture_objective: float
    fixture_objective_no_gates: float
    perfect_info_objective: float
    uniform_objective: float
    cheap_price_blocked_for_small_shipper: bool
    fast_service_overloads_big_facility: bool
    solutions: dict

    def rows(self) -> list[dict]:
        return [dict(zip(FIXTURE_CSV_COLUMNS, row)) for row in (
            ("fixture", self.fixture_objective),
            ("fixture_no_gates", self.fixture_objective_no_gates),
            ("perfect_information", self.perfect_info_objective),
            ("uniform", self.uniform_objective),
        )]


def run_fixture_example() -> FixtureReport:
    """Solve the worked example under its three probability regimes and check
    the qualitative structure: the small shipper cannot reach the cheap
    price's minimum demand, and the faster service's capacity usage overloads
    the big facility."""
    inst = fixture_instance()
    rho = fixture_rho(inst)
    fixture_sol = enumerate_oracle(inst, rho)

    no_gates = _without_min_demand(inst)
    rho_ng = fixture_rho(no_gates)
    fixture_ng_sol = enumerate_oracle(no_gates, rho_ng)
    perfect_sol = enumerate_oracle(no_gates, RhoTable.constant(no_gates, 1.0))
    uniform_sol = enumerate_oracle(inst, RhoTable.constant(inst, 0.5))

    # the small shipper's total demand (40) misses the 50-unit gate of the
    # fast service's cheap price
    blocked = inst.category_demand(1, 0) < inst.ladder(1, 1).min_demands[0]

    # serving the big shipper at the fast service from facility A alone needs
    # 1.15 * 150 > 150 capacity units
    status, _profit, _flows = evaluate_offers(
        inst, rho, {(0, 0): (1, 1)}, open_facilities=(0,)
    )
    overload = status == "infeasible"

    return FixtureReport(
        fixture_objective=fixture_sol.objective,
        fixture_objective_no_gates=fixture_ng_sol.objective,
        perfect_info_objective=perfect_sol.objective,
        uniform_objective=uniform_sol.objective,
        cheap_price_blocked_for_small_shipper=bool(blocked),
        fast_service_overloads_big_facility=bool(overload),
        solutions={
            "fixture": fixture_sol,
            "fixture_no_gates": fixture_ng_sol,
            "perfect_information": perfect_sol,
            "uniform": uniform_sol,
        },
    )
