"""Exception types shared across the toolkit."""


class WernerError(Exception):
    """Base class for every toolkit-specific failure."""


class DimensionMismatch(WernerError):
    """Operands live on incompatible spaces (unequal p, bad matrix shape)."""


class PhysicalRangeError(WernerError):
    """Flip expectation outside [-1, 1]: no state with that parameter exists."""


class SchemeRangeError(WernerError):
    """f outside the validity interval of the requested decomposition scheme."""

    def __init__(self, message, f=None, valid_range=None):
        super().__init__(message)
        self.f = f
        self.valid_range = valid_range


class MalformedInput(WernerError, ValueError):
    """An input that is not what it claims to be: an unreadable certificate,
    a missing or mistyped field, a factor of the wrong shape, or a matrix
    that is not Hermitian."""


class ConvergenceError(WernerError):
    """Eigensolver sweeps exhausted before the off-diagonal mass fell below tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class UnsupportedFieldSize(WernerError):
    """No irreducible polynomial is pinned for this p."""


class VerificationFailure(WernerError):
    """A decomposition failed verification where a valid one was required."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
