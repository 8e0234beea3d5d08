"""Exception types shared by all tenrank modules."""


class TenrankError(Exception):
    """Base class for all tenrank errors."""


class InputError(TenrankError):
    """Raised for invalid arguments: bad dimensions, out-of-range indices,
    duplicate entries, unparseable files."""


class ResourceError(TenrankError):
    """Raised when an operation would exceed a configured size cap
    (dense-tensor entry cap, decomposition term cap, protocol dimension cap)."""


class StateError(TenrankError):
    """Raised when an object is used before reaching the required state,
    e.g. running a bilinear program that was never verified."""


class WitnessMismatch(InputError):
    """Raised when a witness does not reconstruct its target or has other
    dims; `first_mismatch` is the first differing index in row-major order
    (None for a dims mismatch)."""

    def __init__(self, message: str, first_mismatch: tuple | None = None):
        super().__init__(message)
        self.first_mismatch = first_mismatch
