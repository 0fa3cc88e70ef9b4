"""Parameter studies: how profit responds to price sensitivity and capacity.

Each sweep solves a grid of derived instances to proven optimality and writes
one CSV row per point.  Strongly price-sensitive grids are certified trivial
by preprocessing alone (zero profit, no search); profit then grows as
sensitivity fades, and separately as capacity loosens.
"""

import tempfile
from pathlib import Path

from biloc import bench
from biloc.instance import GeneratorParams

base = GeneratorParams(
    n_facilities=2, n_customers=12, n_shippers=2, categories_per_shipper=2,
    n_services=2, n_prices=5, ratio=2.0, seed=13,
)

with tempfile.TemporaryDirectory() as tmp:
    alpha_csv = Path(tmp) / "alpha.csv"
    ratio_csv = Path(tmp) / "ratio.csv"

    print("price-sensitivity sweep (11 points):")
    rows = bench.run_sweep(bench.SweepSpec(kind="alpha", base=base,
                                           out_path=str(alpha_csv)))
    for row in rows:
        marker = "certified trivial" if row["trivial"] else row["status"]
        print(f"  alpha {float(row['point']):+0.5f}: objective "
              f"{float(row['objective']):9.2f}  [{marker}]")

    print("\ncapacity-ratio sweep (same instance, rescaled capacities):")
    rows = bench.run_sweep(bench.SweepSpec(kind="ratio", base=base,
                                           points=(0.5, 1.0, 1.5, 2.0, 3.0, 5.0),
                                           out_path=str(ratio_csv)))
    for row in rows:
        print(f"  ratio {float(row['point']):3.1f}: objective "
              f"{float(row['objective']):9.2f}  ({row['nodes']} nodes, "
              f"{row['seconds']}s)")

    print()
    for name, path in (("alpha", alpha_csv), ("ratio", ratio_csv)):
        lines = path.read_text(encoding="utf-8").splitlines()
        data_rows = sum(1 for line in lines if not line.startswith("#")) - 1
        print(f"{name} sweep CSV: {data_rows} rows after its header")
print("columns:", ", ".join(bench.CSV_COLUMNS))
