"""Generating, inspecting and reshaping problem instances.

Every instance is a pure function of its seed: facilities and customers on
the unit square, integer demands, capacities rescaled so that total capacity
over total demand hits the requested ratio exactly, and a shared price grid
per (shipper, service level).
"""

import tempfile
from pathlib import Path

from biloc import GeneratorParams, generate, load, save, scale_to_ratio, validate

params = GeneratorParams(
    n_facilities=3, n_customers=12, n_shippers=2, categories_per_shipper=3,
    n_services=3, n_prices=5, ratio=2.0, seed=7,
)
inst = generate(params)

print("facilities:")
for f in inst.facilities:
    print(f"  #{f.id}: capacity {f.capacity:7.2f}  fixed cost {f.fixed_cost:7.2f}")

print("customers are assigned round-robin to shippers, then to categories:")
for c in inst.customers[:6]:
    print(f"  customer {c.id}: shipper {c.shipper} category {c.category} "
          f"demand {c.demand:.0f}")

print(f"capacity / demand ratio: {inst.capacity_ratio:.12f}")
print(f"price grid of shipper 0, service 0: {inst.ladder(0, 0).prices}")
print(f"structural problems: {validate(inst) or 'none'}")

# capacities can be rescaled without touching anything else
tight = scale_to_ratio(inst, 0.5)
print(f"after scaling to ratio 0.5: {tight.capacity_ratio:.12f} "
      f"(demand unchanged: {tight.total_demand == inst.total_demand})")

# JSON round trip is lossless and strict (unknown fields are rejected)
with tempfile.TemporaryDirectory() as tmp:
    save(inst, Path(tmp) / "instance.json")
    again = load(Path(tmp) / "instance.json")
print(f"saved and reloaded: {again.n_customers} customers, "
      f"ratio {again.capacity_ratio:.12f}")
