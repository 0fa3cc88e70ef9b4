"""Exact optimization: the structured branch-and-bound, HiGHS for LP files,
the transportation kernel, and the exhaustive enumeration oracle."""

from .bnb import SearchDiagnostics, SolverError, solve
from .brute import OracleSizeError, enumerate_oracle
from .highs import LpSolution, solve_lp, solve_milp
from .serving import evaluate_offers, transport_offers
from .transportation import TransportResult, solve_transportation

__all__ = [
    "LpSolution",
    "OracleSizeError",
    "SearchDiagnostics",
    "SolverError",
    "TransportResult",
    "enumerate_oracle",
    "evaluate_offers",
    "solve",
    "solve_lp",
    "solve_milp",
    "solve_transportation",
    "transport_offers",
]
