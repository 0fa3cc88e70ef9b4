"""Make the reference brackets the benchmark checks objectives against.

Every ``sweep-alpha`` point and the ``full-7x140`` instance is generated and
exported to LP text with the ``biloc`` command line, read back by the small
LP reader below and solved by HiGHS through ``scipy.optimize.milp`` under a
per-instance time limit.  For each model the best feasible value and the
dual bound are recorded, together with the HiGHS version and the seconds
taken.  HiGHS does not close the 7 x 140 model in reasonable time, so the
``full-7x140`` optimum that ``biloc solve`` proves is recorded as well; it is
the only value copied from the program under test.

Run from the repository root (takes up to 12 x the time limit):

    python3 perfbench/reference.py --time-limit 120
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads as wl


def parse_lp(text: str):
    """(objective, rows, senses, rhs, lower, upper, is_binary, maximize) from
    the canonical LP text ``biloc build`` writes."""
    names: dict[str, int] = {}

    def index(name: str) -> int:
        if name not in names:
            names[name] = len(names)
        return names[name]

    def terms(tokens: list[str]) -> list[tuple[int, float]]:
        out, sign, coef = [], 1.0, None
        for tok in tokens:
            if tok in ("+", "-"):
                sign = -1.0 if tok == "-" else 1.0
            elif tok[0].isdigit() or tok[0] == ".":
                coef = float(tok)
            else:
                out.append((index(tok), sign * (1.0 if coef is None else coef)))
                sign, coef = 1.0, None
        return out

    objective: list[tuple[int, float]] = []
    rows, senses, rhs = [], [], []
    bounds: dict[int, tuple[float, float]] = {}
    binaries: set[int] = set()
    maximize = None
    section = None
    for line in text.splitlines():
        body = line.strip()
        if not body or body.startswith("\\"):
            continue
        if body in ("Maximize", "Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = body
            if body in ("Maximize", "Minimize"):
                maximize = body == "Maximize"
            continue
        if section in ("Maximize", "Minimize"):
            objective = terms(body.split(":", 1)[1].split())
        elif section == "Subject To":
            tokens = body.split(":", 1)[1].split()
            rows.append(terms(tokens[:-2]))
            senses.append(tokens[-2])
            rhs.append(float(tokens[-1]))
        elif section == "Bounds":
            lo, _le, name, _le2, hi = body.split()
            bounds[index(name)] = (float(lo), float(hi))
        elif section == "Binaries":
            binaries.update(index(name) for name in body.split())
    if maximize is None:
        raise ValueError("LP text has no objective section")
    n = len(names)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for idx, (lo, hi) in bounds.items():
        lower[idx], upper[idx] = lo, hi
    is_binary = np.zeros(n, dtype=bool)
    is_binary[list(binaries)] = True
    upper[is_binary] = 1.0
    sign = -1.0 if maximize else 1.0
    c = np.zeros(n)
    for idx, coef in objective:
        c[idx] += sign * coef
    return c, rows, senses, np.array(rhs), lower, upper, is_binary, maximize


def highs_bracket(lp_text: str, time_limit: float) -> dict:
    """Best feasible value and dual bound of the LP model by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    c, rows, senses, rhs, lower, upper, is_binary, maximize = parse_lp(lp_text)
    r_idx = [r for r, row in enumerate(rows) for _ in row]
    c_idx = [col for row in rows for col, _ in row]
    vals = [v for row in rows for _, v in row]
    A = csr_array((vals, (r_idx, c_idx)), shape=(len(rows), len(c)))
    senses = np.array(senses)
    lo = np.where(senses == "<=", -np.inf, rhs)
    hi = np.where(senses == ">=", np.inf, rhs)
    started = time.perf_counter()
    res = milp(c, integrality=is_binary.astype(int), bounds=Bounds(lower, upper),
               constraints=LinearConstraint(A, lo, hi),
               options={"time_limit": time_limit, "disp": False})
    seconds = time.perf_counter() - started
    sign = -1.0 if maximize else 1.0
    best = sign * float(res.fun) + 0.0 if res.x is not None else None
    bound = getattr(res, "mip_dual_bound", None)
    return {
        "best": best,
        "bound": None if bound is None else sign * float(bound) + 0.0,
        "closed": bool(res.status == 0),
        "highs_status": int(res.status),
        "seconds": round(seconds, 3),
        "rows": len(rows),
        "columns": len(c),
    }


def highs_version() -> str:
    from scipy.optimize._highspy import _core

    return "{}.{}.{}".format(_core.HIGHS_VERSION_MAJOR, _core.HIGHS_VERSION_MINOR,
                             _core.HIGHS_VERSION_PATCH)


def _cli(main, args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if main(args) != 0:
            raise RuntimeError(f"biloc {' '.join(args)} failed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--time-limit", type=float, default=120.0,
                        help="HiGHS seconds per instance")
    parser.add_argument("--out", default=str(wl.REFERENCE_PATH))
    args = parser.parse_args(argv)

    wl.use_checkout_source()
    import scipy
    from biloc.cli import main as biloc_main

    points = []
    with tempfile.TemporaryDirectory() as tmp:
        def bracket(params: dict, alpha: float, tag: str) -> tuple[dict, str]:
            inst = Path(tmp, f"{tag}.json")
            lp = Path(tmp, f"{tag}.lp")
            _cli(biloc_main, wl.gen_args(params, alpha, inst))
            _cli(biloc_main, ["build", str(inst), "--out", str(lp)])
            result = highs_bracket(lp.read_text(encoding="utf-8"), args.time_limit)
            print(f"{tag}: {result}", file=sys.stderr)
            return result, str(inst)

        for idx, alpha in enumerate(wl.alpha_grid()):
            result, _ = bracket(wl.DESK, alpha, f"alpha{idx}")
            points.append(dict(alpha=alpha, **result))
        full, inst = bracket(wl.FULL, wl.BASE_ALPHA, "full")
        sol = Path(tmp, "full_sol.json")
        _cli(biloc_main, ["solve", inst, "--out", str(sol)])
        recorded = json.loads(sol.read_text(encoding="utf-8"))
        full["recorded_objective"] = recorded["objective"]

    reference = {
        "solver": f"HiGHS {highs_version()} via scipy {scipy.__version__} "
                  "scipy.optimize.milp",
        "time_limit_s": args.time_limit,
        "sweep_alpha": points,
        "full_7x140": full,
    }
    Path(args.out).write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
