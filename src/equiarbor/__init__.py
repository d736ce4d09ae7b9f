"""equiarbor: exact-arithmetic verification of resistance distances,
spanning-tree counts, equiarboreality, edge connectivity, and
association-scheme structure on desk-scale graphs.

Every scalar is an exact rational; there is no floating point anywhere in a
computation path, so equality checks in the verification suites are exact.
"""

from .cuts import godsil_bound_check
from .equiarboreal import EquiarborealVerdict, check_equiarboreal
from .errors import EquiarborError
from .exactalg import Rational, RationalMatrix, determinant, solve
from .graphs import Graph, generate, identify_vertices, parse_graph6
from .resistance import (
    WeightedNetwork,
    foster_sum,
    resistance,
    spanning_tree_count,
    w_sum,
)

__version__ = "0.1.0"

__all__ = [
    "EquiarborError",
    "EquiarborealVerdict",
    "Graph",
    "Rational",
    "RationalMatrix",
    "WeightedNetwork",
    "check_equiarboreal",
    "determinant",
    "foster_sum",
    "generate",
    "godsil_bound_check",
    "identify_vertices",
    "parse_graph6",
    "resistance",
    "solve",
    "spanning_tree_count",
    "w_sum",
]
