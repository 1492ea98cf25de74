"""Exception types shared across the package, and its one policy for
numeric arguments.

:func:`number`, :func:`positive`, :func:`nonnegative` and :func:`integer`
decide what a valid number, positive number, nonnegative number and count
is; every check in the package that an argument is one of these goes
through them.  Each returns the value it is given.  NaN fails every check
(each comparison is written so that NaN fails it), and so does inf,
except that a number may be infinite; a bool is not a count.  A bad value
raises :class:`DomainError` with the message ``<name> must be ...,
got <value>``, which names the argument and its value.
"""

import math
import numbers


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


class ConfigError(HjmmError, ValueError):
    """A run configuration document is invalid."""


def number(name: str, value):
    """``value``, if it is not NaN (either infinity passes); else
    DomainError."""
    if not -math.inf <= value <= math.inf:
        raise DomainError(f"{name} must be a number, got {value}")
    return value


def positive(name: str, value):
    """``value``, if it lies in (0, inf); else DomainError."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def nonnegative(name: str, value):
    """``value``, if it lies in [0, inf); else DomainError."""
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be nonnegative and finite, got {value}")
    return value


def integer(name: str, value, least: int):
    """``value``, if it is an integer (Python or numpy, not a bool) of at
    least ``least``; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value
