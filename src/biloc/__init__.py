"""Profit-maximizing facility location and pricing under logit shipper demand.

A logistics provider opens facilities and offers each shipper a per-service
price menu; shipper-category pairs accept or opt out according to a random
utility model.  The package generates instances, computes acceptance
probabilities (closed form and sample average), reduces the two-stage bilevel
program into a single-level MILP, solves it exactly, and cross-checks the
reduction against brute-force and simulation oracles.
"""

from .choice import (
    OPT_OUT,
    ChoiceModel,
    RhoTable,
    ScenarioSet,
    accept_rule,
    acceptance_probability,
    alpha_for_target_rho,
    alpha_sweep_values,
    deterministic_utility,
    offer_utility,
    rho_closed_form,
    rho_saa,
)
from .instance import (
    Customer,
    Facility,
    GeneratorParams,
    Instance,
    InstanceFormatError,
    PriceLadder,
    ServiceLevel,
    generate,
    load,
    save,
    scale_to_ratio,
    validate,
)
from .milp import (
    BuildError,
    InfeasibleSolutionError,
    LpParseError,
    MilpModel,
    Solution,
    build,
    certifies_trivial,
    evaluate,
    export_lp,
    parse_lp,
    profit_upper_bound,
    read_lp,
    write_lp,
)
from .oracle import REALLOC, REDUCED, min_demand_violation_rate, simulate
from .solver import SolverError, enumerate_oracle, solve, solve_lp, solve_milp

__version__ = "0.1.0"

__all__ = [
    "BuildError",
    "ChoiceModel",
    "Customer",
    "Facility",
    "GeneratorParams",
    "InfeasibleSolutionError",
    "Instance",
    "InstanceFormatError",
    "LpParseError",
    "MilpModel",
    "OPT_OUT",
    "PriceLadder",
    "REALLOC",
    "REDUCED",
    "RhoTable",
    "ScenarioSet",
    "ServiceLevel",
    "Solution",
    "SolverError",
    "accept_rule",
    "acceptance_probability",
    "alpha_for_target_rho",
    "alpha_sweep_values",
    "build",
    "certifies_trivial",
    "deterministic_utility",
    "enumerate_oracle",
    "evaluate",
    "export_lp",
    "generate",
    "load",
    "min_demand_violation_rate",
    "offer_utility",
    "parse_lp",
    "profit_upper_bound",
    "read_lp",
    "rho_closed_form",
    "rho_saa",
    "save",
    "scale_to_ratio",
    "simulate",
    "solve",
    "solve_lp",
    "solve_milp",
    "validate",
    "write_lp",
]
