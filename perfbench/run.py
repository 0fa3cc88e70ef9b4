"""End-to-end benchmark of the ``biloc`` command line.

Each operation goes through ``biloc.cli.main`` in-process and is checked by
reading back the files it writes.  Run one workload (the last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``):

    python3 perfbench/run.py --workload sweep-alpha --seed 1 --seconds 25 --trace 0

or all three, one process each, with no ``--workload``.  ``--trace 1``
reports the per-layer metrics of ``tracing.py`` instead of the end-to-end
ones.  See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds one set-up or one whole workload process may take.
SETUP_TIMEOUT = 120
WORKLOAD_TIMEOUT = 900


class Workload:
    """One operation of a workload, run through the ``biloc`` command line
    on the inputs in ``inputs``, with its outputs in ``out``."""

    def __init__(self, name: str, inputs: Path, out: Path, seed: int):
        self.name, self.inputs, self.out, self.seed = name, inputs, out, seed
        from biloc.cli import main

        self._main = main

    def _biloc(self, args: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self._main(args)
        if code != 0:
            raise RuntimeError(f"biloc {args[0]} exited with {code}")

    def run(self) -> None:
        inputs, out = self.inputs, self.out
        if self.name == "sweep-alpha":
            self._biloc(["sweep", "--kind", "alpha", "--config", str(inputs / "sweep.json"),
                         "--out", str(out / "alpha.csv")])
        elif self.name == "full-7x140":
            self._biloc(["solve", str(inputs / "inst.json"), "--out", str(out / "sol.json")])
        else:
            n, seed = str(wl.REPLAY_SCENARIOS), str(self.seed)
            self._biloc(["rho", str(inputs / "inst.json"), "--saa", n, "--seed", seed,
                         "-o", str(out / "rho.csv")])
            self._biloc(["simulate", str(inputs / "inst.json"), str(inputs / "plan.json"),
                         "--scenarios", n, "--mode", "both", "--seed", seed,
                         "--out", str(out / "sim.csv")])

    def outputs(self) -> dict:
        """The files the last operation wrote, as text."""
        names = {"sweep-alpha": ("alpha.csv",), "full-7x140": ("sol.json",),
                 "replay-desk": ("rho.csv", "sim.csv")}[self.name]
        return {name: (self.out / name).read_text(encoding="utf-8") for name in names}

    def check(self, outputs: dict, reference: dict) -> list[str]:
        if self.name == "sweep-alpha":
            return checks.check_sweep(checks.read_csv(outputs["alpha.csv"]),
                                      reference["sweep_alpha"])
        inst = json.loads((self.inputs / "inst.json").read_text(encoding="utf-8"))
        if self.name == "full-7x140":
            return checks.check_full(inst, json.loads(outputs["sol.json"]),
                                     reference["full_7x140"])
        plan = json.loads((self.inputs / "plan.json").read_text(encoding="utf-8"))
        return checks.check_replay(inst, plan, checks.read_csv(outputs["rho.csv"]),
                                   checks.read_csv(outputs["sim.csv"]),
                                   wl.REPLAY_SCENARIOS)


def _setup(workload: str, work: Path) -> tuple[float, Path]:
    """Median seconds of fresh-process set-ups, and the inputs they made."""
    samples = []
    for i in range(SETUP_SAMPLES):
        target = work / f"inputs{i}"
        done = subprocess.run(
            [sys.executable, str(wl.BENCH_DIR / "prepare.py"), "--workload", workload,
             "--dir", str(target)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), target


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl.use_checkout_source()
    reference = json.loads(wl.REFERENCE_PATH.read_text(encoding="utf-8"))
    work = wl.WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, inputs = _setup(name, work)
        (work / "out").mkdir()
        op = Workload(name, inputs, work / "out", seed)
        tracer = tracing.Tracer() if traced else None

        attempted = failed = 0
        outputs: list[dict] = []
        plain: list[float] = []
        traced_s: list[float] = []
        traced_ops: list[int] = []

        def attempt(trace: bool) -> float | None:
            nonlocal attempted, failed
            attempted += 1
            if trace:
                tracer.op = attempted
                for gone in tracing.install_biloc(tracer):
                    print(f"{name}: not traced, no longer in biloc: {gone}", file=sys.stderr)
            started = time.perf_counter()
            try:
                op.run()
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                print(f"{name}: operation failed: {exc!r}", file=sys.stderr)
                failed += 1
                return None
            finally:
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.uninstall()
            outputs.append(op.outputs())
            return elapsed

        attempt(False)  # warm-up, not timed
        window = time.perf_counter()
        while (time.perf_counter() - window < seconds
               or (traced and not traced_s and attempted < 4)):
            use_trace = traced and len(plain) > len(traced_s)
            elapsed = attempt(use_trace)
            if elapsed is None:
                continue
            if use_trace:
                traced_s.append(elapsed)
                traced_ops.append(attempted)
            else:
                plain.append(elapsed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = []
        for out in outputs:
            problems += [p for p in op.check(out, reference) if p not in problems]
        for p in problems:
            print(f"{name}: check failed: {p}", file=sys.stderr)
        print(f"{name}: setup_s={setup_s:.4f} op_s={[round(t, 4) for t in plain]} "
              f"traced_op_s={[round(t, 4) for t in traced_s]} "
              f"peak_rss_mb={peak_rss_mb:.1f}", file=sys.stderr)

        if not traced:
            metrics = {
                "op_s": _metric(statistics.median(plain), "s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
        else:
            metrics = _layer_report(name, seed, tracer, traced_ops, plain, traced_s)
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_report(name: str, seed: int, tracer, traced_ops: list[int],
                  plain: list[float], traced_s: list[float]) -> dict:
    """Median per-layer metrics over the traced operations, the traced and
    untraced op medians and the tracing overhead; spans go to a JSONL file."""
    per_op = [tracing.layer_metrics([s for s in tracer.spans if s.op == i])
              for i in traced_ops]
    metrics = {key: _metric(statistics.median(m[key] for m in per_op), unit)
               for key, unit in tracing.LAYER_METRICS.items()}
    traced_op, plain_op = statistics.median(traced_s), statistics.median(plain)
    metrics["trace.op_s"] = _metric(traced_op, "s")
    metrics["trace.untraced_op_s"] = _metric(plain_op, "s")
    metrics["trace.overhead_pct"] = _metric(100.0 * (traced_op / plain_op - 1.0), "%")
    traces = wl.WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{name}-seed{seed}.jsonl")
    return metrics


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= 0 if result["correct"] and not result["failed"] else 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="biloc end-to-end benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the replay's noise draws")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed loop after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
