"""Exception hierarchy for the equiarbor package.

Every failure mode named in a module contract gets its own class so that
callers (and the CLI) can distinguish, e.g., a singular network from a
disconnected one without string matching.
"""

from __future__ import annotations


class EquiarborError(Exception):
    """Base class for all package errors."""


class DimensionError(EquiarborError):
    """Matrix/vector shapes do not match the operation."""


class SingularSystemError(EquiarborError):
    """An exact linear solve hit a rank-deficient coefficient matrix."""


class ParameterError(EquiarborError):
    """An argument violates a documented precondition."""


class Graph6ParseError(EquiarborError):
    """Malformed graph6 input.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConnectivityError(EquiarborError):
    """The operation requires a connected graph."""


class InfiniteResistanceError(EquiarborError):
    """The two probe vertices lie in different components."""


class SingularNetworkError(EquiarborError):
    """The reduced conductance system is singular (possible with negative
    weights); no resistance value is defined."""


class SingularEliminationError(EquiarborError):
    """Star-mesh elimination of a vertex whose conductance sum is zero."""


class PreconditionError(EquiarborError):
    """A theorem-instance check was invoked on a graph that does not
    satisfy the theorem's hypotheses."""


class DomainError(EquiarborError):
    """A bound was requested outside its proven validity range."""


class ScaleError(EquiarborError):
    """Work was requested above a size limit: a minimum-cut list (use
    ``edge_connectivity`` instead) or a ``scheme`` command's relation above
    ``exactalg.SIZE_LIMIT`` vertices or points, a ``scheme`` relation above
    64 classes, a generated graph above the vertex limit or the edge budget,
    a double star above the vertex limit of a network file, a ``cut
    --classify`` whose minimum cuts cross more than 64 edges, or a ``verify
    claims`` range of more than 100,000 degrees."""


class VerificationError(EquiarborError):
    """An internal cross-check failed.  This is a hard failure: two exact
    computations of one fact disagree, or a proven bound does not hold,
    which should be impossible on valid inputs."""
