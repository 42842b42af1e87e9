"""Exception types shared across the package."""


class SigInvertError(Exception):
    """Base class for package-specific errors."""


class InputFormatError(SigInvertError):
    """Malformed CSV/JSON input."""


class AllocationCapError(SigInvertError):
    """A requested tensor allocation exceeds the configured coefficient cap."""


class NormTooSmall(SigInvertError):
    """A slope solve that float64 cannot carry out.

    Raised by the slope solver when ``norm(level)**2``, the divisor, is not
    a normal float64 number (zero, subnormal, infinite or NaN), or when a
    slope or point is not finite.  Tree-like input is not detected.
    """


class AssumptionViolation(SigInvertError):
    """A path violates the angle/segment assumptions required by a check."""
