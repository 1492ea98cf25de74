"""Exception types shared across the package."""


class HjmmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HjmmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonIntegrable(HjmmError, ArithmeticError):
    """A required integral of the jump measure fails to converge."""


class UnsupportedSpec(HjmmError, ValueError):
    """The model falls outside the class an operation can handle."""


class NonPositiveFactor(HjmmError, ArithmeticError):
    """A multiplicative jump factor 1 + lambda*dL dropped to zero or below."""


class NonPositiveInitialCurve(HjmmError, ValueError):
    """The initial forward curve is not strictly positive."""


class SecondMomentInfinite(HjmmError, ArithmeticError):
    """The second moment of the jump measure diverges."""


class NotTimeOnly(HjmmError, ValueError):
    """An operation requiring time-only volatility got a maturity-dependent one."""


class ConfigError(HjmmError, ValueError):
    """A run configuration document is invalid."""
