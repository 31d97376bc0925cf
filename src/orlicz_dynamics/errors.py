"""Exception types shared across the package."""


class OrliczDynamicsError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(OrliczDynamicsError):
    """Argument falls outside a tabulated function's domain."""


class NonFiniteVectorError(OrliczDynamicsError):
    """A vector entry is NaN or infinite where a norm was requested."""


class TorsionElementError(OrliczDynamicsError):
    """Operation requires an element of infinite order but found torsion."""

    def __init__(self, order: int, message: str = ""):
        self.order = order
        super().__init__(message or f"element has finite order {order}")


class SeparationViolatedError(OrliczDynamicsError):
    """Witness-vector summands overlap: the step count does not clear the
    separation constant of the support set."""


class TailUnboundedError(OrliczDynamicsError):
    """Series construction aborted: no geometric tail bound is available
    (or a term exceeded the magnitude cap)."""


class ConfigError(OrliczDynamicsError, ValueError):
    """Configuration or request is malformed; carries the offending field
    path.  A ValueError too, as a bad argument to ``CriterionRequest``."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
