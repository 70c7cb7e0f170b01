"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point or parameter lies outside the mathematical domain of an operation."""
