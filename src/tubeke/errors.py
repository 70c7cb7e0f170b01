"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point or parameter lies outside the mathematical domain of an operation."""


class MaxStepsError(RuntimeError):
    """The adaptive integrator exceeded its step budget."""
