"""Fixed inputs of the three benchmark workloads.

Shared by ``run.py`` (the timed runs), ``prepare.py`` (their set-up) and
``reference.py`` (the HiGHS brackets the runs are checked against), so that
all three describe the same instances.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("sweep-alpha", "full-7x140", "replay-desk")

#: The desk instance of the price-sensitivity sweep and of the replay.
DESK = {
    "n_facilities": 3, "n_customers": 24, "n_shippers": 2,
    "categories_per_shipper": 3, "n_services": 3, "n_prices": 5,
    "ratio": 2.0, "seed": 7,
}
#: The full-scale instance of the ROADMAP (7 facilities x 140 customers x 5
#: prices); every other generator knob keeps its default.
FULL = dict(DESK, n_facilities=7, n_customers=140)

#: Generator defaults the alpha grid is placed from (price floor, service
#: taste, outside option, noise scale).
PRICE_MIN = 15.0
SERVICE_PREFERENCE = 4.5
OPTOUT_UTILITY = 3.0
BETA = 1.0

#: Price sensitivity of the full-scale instance and of the replayed desk
#: plan (the generator's default).
BASE_ALPHA = -0.1
#: Draws per sample average, both for rho and for the replay.
REPLAY_SCENARIOS = 200_000

_GEN_FLAGS = (
    ("n_facilities", "--facilities"), ("n_customers", "--customers"),
    ("n_shippers", "--shippers"), ("categories_per_shipper", "--categories"),
    ("n_services", "--services"), ("n_prices", "--prices"),
    ("ratio", "--ratio"), ("seed", "--seed"),
)


def gen_args(params: dict, alpha: float, out: str | Path) -> list[str]:
    """``biloc gen`` arguments that make the instance of ``params``."""
    args = ["gen"]
    for key, flag in _GEN_FLAGS:
        args += [flag, repr(params[key])]
    return args + ["--alpha", repr(float(alpha)), "-o", str(out)]


def alpha_grid() -> list[float]:
    """Eleven price sensitivities, from the one that pins the cheapest
    offer's logistic acceptance probability at 0.005, up to 0.

    Solves optout = alpha * price_min + preference - beta * log(1/rho - 1)
    for alpha, rounds it to five decimals and spaces the grid evenly, with
    the same arithmetic as ``numpy.linspace``.  Plain Python keeps numpy
    out of the set-up process until ``biloc`` imports it.
    """
    first = round((OPTOUT_UTILITY - SERVICE_PREFERENCE
                   - BETA * math.log(1.0 / 0.005 - 1.0)) / PRICE_MIN, 5)
    step = (0.0 - first) / 10
    return [first + i * step for i in range(10)] + [0.0]


def use_checkout_source() -> None:
    """Import ``biloc`` from this checkout's ``src`` and nowhere else.

    Exits with status 2 when the checkout holds no source, so that a
    benchmark directory copied on its own never measures another build.
    """
    if not (SRC / "biloc" / "__init__.py").is_file():
        sys.stderr.write(f"no biloc source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
