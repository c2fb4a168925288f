"""Exception types shared across the library."""


class GPCoverError(Exception):
    """Base class for library-specific failures."""


class OutsideDomainError(GPCoverError, ValueError):
    """A position lies outside the workspace rectangle."""


class SingularityError(GPCoverError, ArithmeticError):
    """A gram matrix is numerically singular.

    Raised when a fit's gram does not factorize even after its one diagonal
    jitter step, and when a one-point extension's Schur complement is too small.
    """


class ConfigurationError(GPCoverError, ValueError):
    """A run configuration violates a documented bound."""


class DecentralizationError(GPCoverError):
    """Agent state was read outside the sanctioned exchange channels."""
