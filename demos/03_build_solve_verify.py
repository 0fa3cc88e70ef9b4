"""From instance to certified optimum, three independent ways.

The deterministic single-level model prices each category's expected revenue
and serving cost by its acceptance probability, with product variables gating
both on the chosen price.  The solver is cross-checked against exhaustive
enumeration and an LP-file export that any external solver can consume.
"""

from biloc import (
    GeneratorParams,
    RhoTable,
    build,
    enumerate_oracle,
    evaluate,
    export_lp,
    generate,
    parse_lp,
    profit_upper_bound,
    solve,
)

inst = generate(GeneratorParams(
    n_facilities=2, n_customers=6, n_shippers=2, categories_per_shipper=2,
    n_services=2, n_prices=3, ratio=1.5, seed=11,
))
rho = RhoTable.closed_form(inst)

bound = profit_upper_bound(inst, rho)
print(f"capacity-blind profit upper bound: {bound:.3f}")

model = build(inst, rho)
print(f"model: {len(model.variables)} variables, "
      f"{len(model.constraints)} constraints")

solution = solve(inst, rho)
print(f"\nsolve: {solution.status}, objective {solution.objective:.4f}, "
      f"{solution.nodes} nodes")
print(f"open facilities: {solution.open_facilities}")
for line in solution.offer_summary:
    print(f"  shipper {line.shipper} category {line.category}: service "
          f"{line.service} @ {line.price} (acceptance {line.rho:.3f})")

truth = enumerate_oracle(inst, rho)
print(f"\nexhaustive enumeration: {truth.objective:.4f} "
      f"({truth.nodes} first-stage/facility combinations)")

text = export_lp(model)
reparsed = parse_lp(text)
print(f"LP text round trip: {len(text)} bytes, "
      f"byte-identical={export_lp(reparsed) == text}")

# the evaluator recomputes the objective from the raw decisions
print(f"independent re-evaluation: {evaluate(inst, rho, solution):.4f}")
