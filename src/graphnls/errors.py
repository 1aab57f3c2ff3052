"""Exception types shared across the toolkit."""


class GraphNLSError(Exception):
    """Base class for all toolkit errors."""


class DisconnectedGraph(GraphNLSError):
    """The described graph is not connected (or has an isolated vertex)."""


class NonpositiveEdgeLength(GraphNLSError):
    """An edge was declared with length <= 0."""


class DanglingEndpoint(GraphNLSError):
    """An edge endpoint references a vertex that was never declared."""


class IndexOutOfRange(GraphNLSError):
    """A kernel-mode index lies outside 1..N-1."""


class OverlappingPeaks(GraphNLSError):
    """Two peak neighborhoods have intersecting support balls."""


class DimensionMismatch(GraphNLSError):
    """A coefficient vector has the wrong length for the requested star."""


class EvenN(GraphNLSError):
    """Operation requires an odd number of edges."""


class OddN(GraphNLSError):
    """Operation requires an even number of edges."""


class IndefiniteOperator(GraphNLSError):
    """The shifted quadratic form is not positive definite at this shift."""


class SolveFailure(GraphNLSError):
    """A sparse linear solve did not meet its residual tolerance."""


class NegativeForm(GraphNLSError):
    """The shifted quadratic form returned a negative square norm."""


class SingularJacobian(GraphNLSError):
    """Newton hit a singular or non-finite Jacobian solve."""


class NotConverged(GraphNLSError):
    """A diagnostic was requested for a result that did not converge."""
