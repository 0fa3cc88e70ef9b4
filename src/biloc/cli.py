"""Command-line interface.

Subcommands cover the full pipeline: ``gen`` (instance files), ``rho``
(acceptance probability tables), ``build`` (LP model files), ``solve``
(either an LP file or an instance file), ``simulate`` (scenario replay of a
solution), ``sweep`` (parameter studies to CSV) and ``fixture`` (the worked
example).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import bench, instance, milp, oracle
from .choice import RhoTable, ScenarioSet
from .instance import GeneratorParams, _integer, _number, _of_type, _tuple_of
from .solver import SolverError, solve, solve_milp


class SweepConfigError(ValueError):
    """Raised when a sweep config file does not describe a ``SweepSpec``."""


def _cmd_gen(args: argparse.Namespace) -> int:
    params = GeneratorParams(
        n_facilities=args.facilities,
        n_customers=args.customers,
        n_shippers=args.shippers,
        categories_per_shipper=args.categories,
        n_services=args.services,
        n_prices=args.prices,
        ratio=args.ratio,
        seed=args.seed,
        alpha=args.alpha,
        beta=args.beta,
    )
    inst = instance.generate(params)
    instance.save(inst, args.output)
    print(f"wrote {args.output}: {inst.n_facilities} facilities, "
          f"{inst.n_customers} customers, ratio {inst.capacity_ratio:.6g}")
    return 0


#: Columns of ``biloc rho``; ``rho_saa`` is empty without ``--saa``.
RHO_COLUMNS = ("shipper", "category", "service", "price_index", "price",
               "rho_closed_form", "rho_saa")
#: Columns of ``biloc simulate``; a ``mode_gap`` row follows two modes' rows.
SIMULATE_COLUMNS = ("mode", "scenarios", "mean_profit", "std_error", "infeasible",
                    "violations")


def _write_csv(rows: list[dict], path: str | None, columns: tuple, schema=None) -> None:
    """CSV to ``path`` and a note that says so, or else to standard output."""
    bench.write_csv(rows, path, columns, schema)
    if path:
        print(f"wrote {path}")


def _rho_rows(inst, saa_count: int | None, seed: int) -> list[dict]:
    closed = RhoTable.closed_form(inst)
    saa = _rho_table(inst, "saa", saa_count, seed) if saa_count else None
    return [dict(zip(RHO_COLUMNS, (n, k, m, p, inst.ladder(n, m).prices[p], value,
                                   "" if saa is None else saa.get(n, k, m, p))))
            for (n, k, m, p), value in closed.items()]


def _cmd_rho(args: argparse.Namespace) -> int:
    inst = instance.load(args.instance)
    _write_csv(_rho_rows(inst, args.saa, args.seed), args.output, RHO_COLUMNS)
    return 0


def _rho_table(inst, kind: str, saa_count: int, seed: int) -> RhoTable:
    if kind == "closed":
        return RhoTable.closed_form(inst)
    scenarios = ScenarioSet.for_model(inst.choice_model, saa_count, seed)
    return RhoTable.saa(inst, scenarios)


def _cmd_build(args: argparse.Namespace) -> int:
    inst = instance.load(args.instance)
    rho = _rho_table(inst, args.rho, args.saa, args.seed)
    model = milp.build(inst, rho)
    milp.write_lp(model, args.out)
    print(f"wrote {args.out}: {len(model.variables)} variables, "
          f"{len(model.constraints)} constraints")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    path = Path(args.model)
    if path.suffix == ".json":
        inst = instance.load(path)
        rho = _rho_table(inst, args.rho, args.saa, args.seed)
        solution = solve(inst, rho, budget=args.time_limit)
    else:
        solution = solve_milp(milp.read_lp(path), budget=args.time_limit)
    if args.out:
        solution.save(args.out)
        print(f"wrote {args.out}")
    print(f"status={solution.status} objective={solution.objective!r} "
          f"nodes={solution.nodes} gap={solution.gap!r}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    inst = instance.load(args.instance)
    solution = milp.Solution.load(args.solution)
    scenarios = ScenarioSet.for_model(inst.choice_model, args.scenarios, args.seed)
    modes = {"reduced": (oracle.REDUCED,), "per-scenario": (oracle.REALLOC,),
             "both": (oracle.REDUCED, oracle.REALLOC)}[args.mode]
    results = oracle.simulate(inst, solution, scenarios, modes=modes)
    rows = [dict(zip(SIMULATE_COLUMNS, (
        mode, result.count, result.mean_profit, result.std_error,
        result.infeasible_scenarios,
        ";".join(f"n{n}m{m}:{rate:.6f}" for (n, m), rate in
                 sorted(result.violation_rate.items()) if rate > 0))))
        for mode, result in results.items()]
    if len(results) == 2:
        gap = results[oracle.REALLOC].mean_profit - results[oracle.REDUCED].mean_profit
        rows.append(dict(zip(SIMULATE_COLUMNS, ("mode_gap", "", gap, "", "", ""))))
    _write_csv(rows, args.out, SIMULATE_COLUMNS)
    return 0


def _sweep_point(value):
    """A number, or the (facilities, customers, prices) list of a size point."""
    return _tuple_of(_integer)(value) if isinstance(value, list) else _number(value)


#: The ``SweepSpec`` fields a sweep config may set, all optional, and their
#: converters; ``base`` is then read as a ``GeneratorParams`` record.
_SWEEP_CONFIG = {
    "points": _tuple_of(_sweep_point), "replications": _integer,
    "budget": _number, "base": _of_type(dict), "instance_path": _of_type(str),
    "scale": _of_type(str),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec_args: dict = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SweepConfigError(f"{args.config}: not valid JSON: {exc}") from None
        spec_args = instance._read(config, "sweep config", _SWEEP_CONFIG,
                                   tuple(_SWEEP_CONFIG), error=SweepConfigError)
    if "base" in spec_args:
        spec_args["base"] = instance.read_record(
            spec_args["base"], "sweep config base", GeneratorParams, SweepConfigError)
    try:
        spec = bench.SweepSpec(kind=args.kind, out_path=args.out, **spec_args)
    except ValueError as exc:
        raise SweepConfigError(f"sweep config: {exc}") from None
    rows = bench.run_sweep(spec)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    report = bench.run_fixture_example()
    if args.out:
        _write_csv(report.rows(), args.out, bench.FIXTURE_CSV_COLUMNS,
                   bench.FIXTURE_CSV_SCHEMA)
    for row in report.rows():
        print(f"{row['regime']}: {row['objective']!r}")
    print(f"cheap price blocked for small shipper: "
          f"{report.cheap_price_blocked_for_small_shipper}")
    print(f"fast service overloads big facility: "
          f"{report.fast_service_overloads_big_facility}")
    return 0


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biloc",
        description="Facility location and pricing under logit shipper demand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded instance file")
    g.add_argument("--facilities", type=int, default=4)
    g.add_argument("--customers", type=int, default=48)
    g.add_argument("--shippers", type=int, default=2)
    g.add_argument("--categories", type=int, default=3)
    g.add_argument("--services", type=int, default=3)
    g.add_argument("--prices", type=int, default=5)
    g.add_argument("--ratio", type=float, default=2.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--alpha", type=float, default=-0.1)
    g.add_argument("--beta", type=float, default=1.0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)

    r = sub.add_parser("rho", help="print the acceptance probability table")
    r.add_argument("instance")
    r.add_argument("--saa", type=int, default=0,
                   help="also estimate by sample averaging over this many draws")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("-o", "--output")
    r.set_defaults(func=_cmd_rho)

    b = sub.add_parser("build", help="build the model and export LP text")
    b.add_argument("instance")
    b.add_argument("--rho", choices=("closed", "saa"), default="closed")
    b.add_argument("--saa", type=int, default=100_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    s = sub.add_parser("solve", help="solve an LP file or an instance file")
    s.add_argument("model", help=".lp model file or .json instance file")
    s.add_argument("--time-limit", type=float, default=None)
    s.add_argument("--rho", choices=("closed", "saa"), default="closed")
    s.add_argument("--saa", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_solve)

    m = sub.add_parser("simulate", help="replay a solution against scenarios")
    m.add_argument("instance")
    m.add_argument("solution")
    m.add_argument("--scenarios", type=int, default=200_000)
    m.add_argument("--mode", choices=("reduced", "per-scenario", "both"),
                   default="both")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out")
    m.set_defaults(func=_cmd_simulate)

    w = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    w.add_argument("--kind", choices=("alpha", "beta", "ratio", "size"),
                   required=True)
    w.add_argument("--config", help="JSON file with SweepSpec fields")
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_sweep)

    f = sub.add_parser("fixture", help="run the worked example")
    f.add_argument("--out")
    f.set_defaults(func=_cmd_fixture)
    return parser


#: Faults of the files a command reads, and a model the LP engine refuses,
#: reported in one line (exit status 2) instead of a traceback.
_INPUT_ERRORS = (OSError, instance.InstanceFormatError, milp.SolutionFormatError,
                 milp.LpParseError, SweepConfigError, SolverError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
