"""Command-line interface.

Subcommands cover the full pipeline: ``gen`` (instance files), ``rho``
(acceptance probability tables), ``build`` (LP model files), ``solve``
(either an LP file or an instance file), ``simulate`` (scenario replay of a
solution), ``sweep`` (parameter studies to CSV) and ``fixture`` (the worked
example).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, instance, milp, oracle
from .choice import RhoTable, ScenarioSet
from .instance import GeneratorParams
from .solver import solve, solve_milp


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


def _rho_rows(inst, saa_count: int | None, seed: int) -> list[str]:
    lines = ["shipper,category,service,price_index,price,rho_closed_form,rho_saa"]
    scenarios = None
    if saa_count:
        scenarios = ScenarioSet.for_model(inst.choice_model, saa_count, seed)
    from .choice import rho_closed_form, rho_saa

    for n, k, m, p in inst.offer_keys():
        closed = rho_closed_form(inst, n, k, m, p)
        if scenarios is not None:
            estimate = repr(rho_saa(inst, n, k, m, p, scenarios))
        else:
            estimate = ""
        price = inst.ladder(n, m).prices[p]
        lines.append(f"{n},{k},{m},{p},{price!r},{closed!r},{estimate}")
    return lines


def _cmd_rho(args: argparse.Namespace) -> int:
    inst = instance.load(args.instance)
    lines = _rho_rows(inst, args.saa, args.seed)
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
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
    modes = [oracle.REDUCED, oracle.REALLOC] if args.mode == "both" else [
        oracle.REDUCED if args.mode == "reduced" else oracle.REALLOC
    ]
    lines = ["mode,scenarios,mean_profit,std_error,infeasible,violations"]
    results = {}
    for mode in modes:
        result = oracle.simulate(inst, solution, scenarios, mode=mode)
        results[mode] = result
        flagged = ";".join(
            f"n{n}m{m}:{rate:.6f}" for (n, m), rate in
            sorted(result.violation_rate.items()) if rate > 0
        )
        lines.append(f"{mode},{result.count},{result.mean_profit!r},"
                     f"{result.std_error!r},{result.infeasible_scenarios},{flagged}")
    if len(results) == 2:
        gap = (results[oracle.REALLOC].mean_profit
               - results[oracle.REDUCED].mean_profit)
        lines.append(f"mode_gap,,{gap!r},,,")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec_args: dict = {}
    if args.config:
        spec_args = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if "base" in spec_args:
        spec_args["base"] = GeneratorParams(**spec_args["base"])
    if "points" in spec_args:
        spec_args["points"] = tuple(
            tuple(pt) if isinstance(pt, list) else pt for pt in spec_args["points"]
        )
    spec_args["kind"] = args.kind
    spec_args["out_path"] = args.out
    spec = bench.SweepSpec(**spec_args)
    rows = bench.run_sweep(spec)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    report = bench.run_fixture_example()
    if args.out:
        bench.write_fixture_csv(report, args.out)
        print(f"wrote {args.out}")
    for row in report.rows():
        print(f"{row['regime']}: {row['objective']!r}")
    print(f"cheap price blocked for small shipper: "
          f"{report.cheap_price_blocked_for_small_shipper}")
    print(f"fast service overloads big facility: "
          f"{report.fast_service_overloads_big_facility}")
    return 0


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
