"""Exception types shared across the toolkit.

Invalid input (a malformed graph, a wrong coefficient count, an even N
where odd is needed, a shift that is not positive) raises `ValueError`.
A `GraphNLSError` is a numerical failure on valid input.
"""


class GraphNLSError(Exception):
    """Base class for the numerical failures."""


class SolveFailure(GraphNLSError):
    """A linear solve hit a zero pivot, a singular Schur block or a high residual."""


class NegativeForm(GraphNLSError):
    """The shifted quadratic form returned a negative square norm."""


class NotConverged(GraphNLSError):
    """A diagnostic was requested for a result that did not converge."""
