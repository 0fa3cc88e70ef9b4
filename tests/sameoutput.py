"""Same-output check for refactors of the structured search.

Writes a manifest of what ``biloc.solve`` gives on a fixed list of
instances, or diffs that manifest between this checkout and another one:

    python tests/sameoutput.py --out manifest.json      # this checkout's manifest
    python tests/sameoutput.py --against ../other       # diff against another checkout
    python tests/sameoutput.py --against ../other --only "tiny 3" "seed 42"

The instances are tiny-family seeds 0-199, every ``EDGE_CASES`` case at
seeds 0-5, the 11 points of the desk alpha grid, the 4x48 benchmark seed 42
and the 7x140 full-scale instance, each under its closed-form acceptance
table.  Per instance the manifest holds the solution JSON without
``seconds``, the node count, ``repr`` of the objective and the leaf subsets
transported and screened (``SearchDiagnostics``).

Each manifest is made in its own process with that checkout's ``src`` first
on the import path, while the instances always come from this checkout's
test helpers, so only the solver differs.  The diff prints each instance
whose record differs and exits 1, or exits 0 when all are identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def instances() -> dict:
    """Name -> (maker, argument) of every instance of the manifest, in order."""
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


def manifest(names: list[str] | None = None) -> dict:
    """Name -> record of the named instances (all when None)."""
    from biloc import RhoTable, solve
    from biloc.solver import SearchDiagnostics

    makers = instances()
    unknown = sorted(set(names or ()) - set(makers))
    if unknown:
        raise SystemExit(f"sameoutput: unknown instance {unknown[0]!r}")
    records = {}
    for name in names or makers:
        make, arg = makers[name]
        inst = make(arg)
        diag = SearchDiagnostics()
        solution = solve(inst, RhoTable.closed_form(inst), diagnostics=diag)
        record = solution.to_json_dict()
        del record["seconds"]
        records[name] = {"solution": json.dumps(record, sort_keys=True),
                         "nodes": solution.nodes, "objective": repr(solution.objective),
                         "transported": diag.subsets_transported,
                         "screened": diag.subsets_screened}
    return records


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
    """One line per instance whose record differs, naming the fields, each
    as the other checkout's value -> this checkout's."""
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
    parser.add_argument("--only", nargs="+", metavar="NAME", help="instances to run")
    parser.add_argument("--out", type=Path, help="write the manifest here")
    args = parser.parse_args(argv)

    if args.against is not None:
        ours = manifest_of(args.tree, args.only)
        lines = diff(ours, manifest_of(args.against, args.only))
        print("\n".join(lines) if lines else
              f"{len(ours)} instances, every record identical")
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
