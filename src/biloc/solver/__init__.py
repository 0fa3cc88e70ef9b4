"""Exact optimization: branch-and-bound, LP kernel, transportation kernel,
and the exhaustive enumeration oracle."""

from .bnb import SearchDiagnostics, SolverError, solve, solve_milp
from .brute import OracleSizeError, enumerate_oracle
from .serving import evaluate_offers, transport_offers
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
    "solve",
    "solve_dense_lp",
    "solve_lp",
    "solve_milp",
    "solve_transportation",
    "transport_offers",
]
