"""Exact optimization: branch-and-bound, LP kernel, transportation fast path,
and the exhaustive enumeration oracle."""

from .bnb import SearchDiagnostics, SolverError, solve, solve_milp
from .brute import OracleSizeError, enumerate_oracle
from .serving import (
    evaluate_offers,
    offer_revenue,
    offers_from_solution,
    transport_offers,
)
from .simplex import LpSolution, SimplexError, solve_dense_lp, solve_lp
from .transportation import TransportResult, solve_transportation

__all__ = [
    "LpSolution",
    "OracleSizeError",
    "SearchDiagnostics",
    "SimplexError",
    "SolverError",
    "TransportResult",
    "enumerate_oracle",
    "evaluate_offers",
    "offer_revenue",
    "offers_from_solution",
    "solve",
    "solve_dense_lp",
    "solve_lp",
    "solve_milp",
    "solve_transportation",
    "transport_offers",
]
