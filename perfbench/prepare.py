"""One set-up of a workload, timed in a fresh process.

Times importing ``biloc`` plus making the workload's input files in
``--dir``, the cost a user of the ``biloc`` command pays before its first
result, and prints the seconds as JSON.  ``run.py`` starts this several
times per run and reports the median as ``setup_s``.

    python3 perfbench/prepare.py --workload replay-desk --dir DIR
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402


def make_inputs(workload: str, out: Path) -> None:
    """Write the files the workload's operations read into ``out``."""
    from biloc.cli import main

    def biloc(args: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if main(args) != 0:
                raise RuntimeError(f"biloc {' '.join(args)} failed")

    if workload == "sweep-alpha":
        config = {"points": wl.alpha_grid(), "base": wl.DESK}
        (out / "sweep.json").write_text(json.dumps(config), encoding="utf-8")
    elif workload == "full-7x140":
        biloc(wl.gen_args(wl.FULL, wl.BASE_ALPHA, out / "inst.json"))
    else:
        biloc(wl.gen_args(wl.DESK, wl.BASE_ALPHA, out / "inst.json"))
        biloc(["solve", str(out / "inst.json"), "--out", str(out / "plan.json")])


def main() -> int:
    parser = argparse.ArgumentParser(description="time one workload set-up")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    wl.use_checkout_source()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    import biloc  # noqa: F401 - part of what is timed

    make_inputs(args.workload, out)
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
