"""Exception and warning types shared across the package."""


class CasimirError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModelError(CasimirError, ValueError):
    """A material model was constructed with non-finite or out-of-range parameters."""


class ModelParameterTypeError(InvalidModelError, TypeError):
    """A material model parameter is no real number: a bool, a string, None or an array."""


class DomainError(CasimirError, ValueError):
    """An operation was called outside its mathematical domain (xi < 0, gap <= 0, ...)."""


class IngestionError(CasimirError, ValueError):
    """Tabulated data or a serialized model could not be ingested."""


class ConvergenceError(CasimirError, RuntimeError):
    """Quadrature failed to reach the requested tolerance within its budget.

    The best available estimate is attached as ``best`` (a result object)
    so callers can still report it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DegenerateIntegrandError(CasimirError, RuntimeError):
    """The outer integrand vanishes everywhere; a peak frequency is undefined."""


class InconclusiveConfigurationError(CasimirError, RuntimeError):
    """A sign verdict was requested at a threshold below the quadrature error."""


class ContinuumModelWarning(UserWarning):
    """Separation below ~1 nm: continuum dielectric description is doubtful."""
