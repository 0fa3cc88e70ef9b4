"""Same-output check for refactors of the structured search and the replay.

Writes a manifest of what ``biloc`` gives on a fixed list of cases, or
diffs that manifest between this checkout and another one:

    python tests/sameoutput.py --out manifest.json      # this checkout's manifest
    python tests/sameoutput.py --against ../other       # diff against another checkout
    python tests/sameoutput.py --against ../other --only "tiny 3" "replay 16384 seed 5"

Three kinds of record make the manifest:

- ``solve``: tiny-family seeds 0-199, every ``EDGE_CASES`` case at seeds
  0-5, the 11 points of the desk alpha grid, the 4x48 benchmark seed 42 and
  the 7x140 full-scale instance, each solved under its closed-form
  acceptance table.  A record holds the solution JSON without ``seconds``,
  the node count, ``repr`` of the objective and the leaf subsets transported
  and screened (``SearchDiagnostics``).
- ``replay N seed S``: the SHA-256 of the CSV bytes that ``biloc rho --saa
  N --seed S`` and ``biloc simulate --mode both --scenarios N --seed S``
  write for the desk instance and its optimum, for N in ``REPLAY_COUNTS``
  and S in ``REPLAY_SEEDS``.
- ``outcomes tiny S``: for tiny-family seeds 0-39, the optimum replayed
  with ``keep_outcomes`` against ``OUTCOME_SCENARIOS`` scenarios, per mode
  the SHA-256 of every scenario's accepted set, ``repr`` of its profit, its
  gate shortfalls and its allocation.

Each manifest is made in its own process with that checkout's ``src`` first
on the import path, while the instances always come from this checkout's
test helpers, so only the solver differs.  The diff prints each record
that differs and exits 1, or exits 0 when all are identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
#: Scenario counts of the replay records: one, two and three chunks and
#: their edges, and the benchmark's count.
REPLAY_COUNTS = (1, 16_383, 16_384, 16_385, 33_333, 200_000)
REPLAY_SEEDS = (1, 5)
#: Scenarios of each ``keep_outcomes`` replay on the tiny family.
OUTCOME_SCENARIOS = 70_000


def instances() -> dict:
    """Name -> (maker, argument) of every solved instance, in order."""
    from dataclasses import replace

    from biloc import bench, generate
    from conftest import tiny_family_instance
    from test_acceptance import BENCHMARK_PARAMS
    from test_solver import EDGE_CASES

    def desk(alpha):
        base = generate(bench.DESK_PARAMS)
        return base.with_choice_model(base.choice_model.with_alpha(alpha))

    makers = {f"tiny {seed}": (tiny_family_instance, seed) for seed in range(200)}
    makers.update({f"{case} {seed}": (EDGE_CASES[case], seed)
                   for case in EDGE_CASES for seed in range(6)})
    makers.update({f"desk {k}": (desk, alpha)
                   for k, alpha in enumerate(bench.default_alpha_grid())})
    makers["seed 42"] = (generate, BENCHMARK_PARAMS)
    makers["7x140"] = (generate, replace(bench.DESK_PARAMS, n_facilities=7,
                                         n_customers=140))
    return makers


def records() -> dict:
    """Name -> function that makes the record, of every record, in order."""
    makers = {name: functools.partial(solve_record, *maker)
              for name, maker in instances().items()}
    makers.update({f"replay {count} seed {seed}": functools.partial(replay_record, count, seed)
                   for count in REPLAY_COUNTS for seed in REPLAY_SEEDS})
    makers.update({f"outcomes tiny {seed}": functools.partial(outcomes_record, seed)
                   for seed in range(40)})
    return makers


def manifest(names: list[str] | None = None) -> dict:
    """Name -> record of the named records (all when None)."""
    makers = records()
    unknown = sorted(set(names or ()) - set(makers))
    if unknown:
        raise SystemExit(f"sameoutput: unknown record {unknown[0]!r}")
    return {name: makers[name]() for name in names or makers}


def solve_record(make, arg) -> dict:
    from biloc import RhoTable, solve
    from biloc.solver import SearchDiagnostics

    inst = make(arg)
    diag = SearchDiagnostics()
    solution = solve(inst, RhoTable.closed_form(inst), diagnostics=diag)
    record = solution.to_json_dict()
    del record["seconds"]
    return {"solution": json.dumps(record, sort_keys=True),
            "nodes": solution.nodes, "objective": repr(solution.objective),
            "transported": diag.subsets_transported,
            "screened": diag.subsets_screened}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def _desk_optimum():
    """The desk instance and its closed-form optimum."""
    from biloc import RhoTable, bench, generate, solve

    inst = generate(bench.DESK_PARAMS)
    return inst, solve(inst, RhoTable.closed_form(inst))


def replay_record(count: int, seed: int) -> dict:
    from biloc import save
    from biloc.cli import main

    inst, plan = _desk_optimum()
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: str(Path(tmp) / name)
                 for name in ("inst.json", "plan.json", "rho.csv", "sim.csv")}
        save(inst, files["inst.json"])
        plan.save(files["plan.json"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["rho", files["inst.json"], "--saa", str(count),
                           "--seed", str(seed), "-o", files["rho.csv"]]),
                     main(["simulate", files["inst.json"], files["plan.json"],
                           "--scenarios", str(count), "--mode", "both",
                           "--seed", str(seed), "--out", files["sim.csv"]])]
        return {"exit": codes, "rho_csv": _sha256(Path(files["rho.csv"]).read_bytes()),
                "simulate_csv": _sha256(Path(files["sim.csv"]).read_bytes())}


def outcomes_record(seed: int) -> dict:
    from biloc import RhoTable, ScenarioSet, solve
    from biloc.oracle import REALLOC, REDUCED, simulate
    from conftest import tiny_family_instance

    inst = tiny_family_instance(seed)
    solution = solve(inst, RhoTable.closed_form(inst))
    scenarios = ScenarioSet.for_model(inst.choice_model, OUTCOME_SCENARIOS, seed)
    results = simulate(inst, solution, scenarios, modes=(REDUCED, REALLOC),
                       keep_outcomes=True)
    record = {}
    for mode, result in results.items():
        digest, seen = hashlib.sha256(), {}
        for outcome in result.outcomes:
            # scenarios of one pattern may share their sets: each is written once
            parts = (outcome.accepted, outcome.min_demand_violations, outcome.allocation)
            key = tuple(map(id, parts))
            if key not in seen:
                seen[key] = repr((sorted(parts[0]), sorted(parts[1]),
                                  None if parts[2] is None else sorted(parts[2].items())))
            digest.update(f"{outcome.scenario} {outcome.profit!r} {seen[key]}\n".encode())
        record[mode] = digest.hexdigest()
    return record


def manifest_of(tree: Path, names: list[str] | None) -> dict:
    """The manifest with ``tree``'s ``src`` on the import path, made in a
    process of its own."""
    command = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)]
    if names:
        command += ["--only", *names]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"sameoutput: manifest of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def diff(ours: dict, theirs: dict) -> list[str]:
    """One line per record that differs, naming the fields, each as the
    other checkout's value -> this checkout's."""
    lines = []
    for name in ours.keys() | theirs.keys():
        a, b = ours.get(name), theirs.get(name)
        if a != b:
            fields = ["missing"] if a is None or b is None else [
                f"{key}: {b[key]!r} -> {a[key]!r}" if key != "solution" else key
                for key in a if a[key] != b.get(key)]
            lines.append(f"{name}: {'; '.join(fields)}")
    return sorted(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=TESTS.parent,
                        help="checkout whose src is solved (default: this one)")
    parser.add_argument("--against", type=Path,
                        help="another checkout, whose manifest --tree's is diffed against")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="records to make")
    parser.add_argument("--out", type=Path, help="write the manifest here")
    args = parser.parse_args(argv)

    if args.against is not None:
        ours = manifest_of(args.tree, args.only)
        lines = diff(ours, manifest_of(args.against, args.only))
        print("\n".join(lines) if lines else
              f"{len(ours)} records, every record identical")
        return 1 if lines else 0

    sys.path[:0] = [str(args.tree.resolve() / "src"), str(TESTS)]
    text = json.dumps(manifest(args.only), indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
