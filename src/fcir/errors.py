"""Exception hierarchy shared across the package."""


class FcirError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FcirError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedRegimeError(FcirError, ValueError):
    """Parameter regime outside what the implemented analysis covers."""


class NumericalError(FcirError, RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""
