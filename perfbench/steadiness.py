"""Run every workload with several seeds and report how steady each
end-to-end metric is.

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median, beside the metric's bound in
``BENCHMARK.json``.  Raw results go to ``--out`` as JSON, so two sets taken
at different times can be compared with ``--compare``.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/_work/set1.json
    python3 perfbench/steadiness.py --compare perfbench/_work/set1.json perfbench/_work/set2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl


def benchmark() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bounds() -> dict[str, float]:
    return {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def collect(workloads: list[str], seeds: list[int]) -> dict:
    seconds = benchmark()["run_seconds"]
    results: dict = {name: [] for name in workloads}
    for name in workloads:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"{name} seed {seed}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
                + f" correct={result['correct']} failed={result['failed']}"
                f"/{result['attempted']}", file=sys.stderr)
            results[name].append(result)
    return results


def report(results: dict) -> None:
    for name, runs in results.items():
        share = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(share)}")
        for metric, bound in bounds().items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            print(f"  {metric:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.3f}  (bound {bound})")


def compare(first: dict, second: dict) -> None:
    for name in first:
        for metric, bound in bounds().items():
            a = statistics.median(r["metrics"][metric]["value"] for r in first[name])
            b = statistics.median(r["metrics"][metric]["value"] for r in second[name])
            print(f"{name:12s} {metric:12s} {a:.4f} -> {b:.4f}  "
                  f"change {b / a - 1.0:+.3f}  (bound {bound})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare]
        for results in sets:
            report(results)
        compare(*sets)
        return 0
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = collect(args.workload or list(wl.WORKLOADS), seeds)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    report(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
