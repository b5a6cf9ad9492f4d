"""Exception hierarchy shared by all jacobilab modules."""

__all__ = [
    "JacobiLabError",
    "DomainError",
    "PoleError",
    "ParameterError",
    "ConvergenceError",
    "DecayError",
    "GridError",
    "CostBudgetError",
    "OverflowLimitError",
]


class JacobiLabError(Exception):
    """Base class for all errors raised by jacobilab."""


class DomainError(JacobiLabError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class ParameterError(JacobiLabError):
    """Invalid parameter combination (alpha/beta constraints, bad exponents, ...)."""


class ConvergenceError(JacobiLabError):
    """A series or iterative scheme failed to converge within its budget."""


class DecayError(JacobiLabError):
    """A sampled function does not decay sufficiently at the end of its grid."""


class GridError(JacobiLabError):
    """Grid unsuitable for the requested operation (too coarse, wrong range, ...)."""


class CostBudgetError(JacobiLabError):
    """An O(N^2) computation would exceed the configured budget."""


class OverflowLimitError(JacobiLabError):
    """A computed quantity exceeded its configured magnitude cap."""
