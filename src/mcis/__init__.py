"""Exact maximum common induced subgraph solving with symmetry pruning."""

from .graph import Graph, GraphParseError, is_isomorphism, parse_edgelist, parse_lad
from .symmetry import SymmetryClasses, compute_symmetry_classes
from .solver import CONFIG_NAMES, SearchStats, Solution, SolverConfig, solve
from .oracle import OracleResult, brute_force_mcis
from .bench import InstanceReport, aggregate_reports, run_batch, run_instance

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphParseError",
    "parse_lad",
    "parse_edgelist",
    "is_isomorphism",
    "SymmetryClasses",
    "compute_symmetry_classes",
    "SolverConfig",
    "SearchStats",
    "Solution",
    "CONFIG_NAMES",
    "solve",
    "OracleResult",
    "brute_force_mcis",
    "InstanceReport",
    "run_instance",
    "run_batch",
    "aggregate_reports",
]
