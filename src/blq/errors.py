"""Exception types, and the input contract: every argument a caller passes
to a public callable goes through ``exponent`` (a positive real, not NaN,
finite unless ``inf``), ``count`` (an integer >= ``minimum``, None: no bound),
``nonnegative`` or ``finite`` (``np.asarray(x, dtype=float)``, not copied, all
entries finite, and >= 0 for the first).  Each returns the checked value or
raises :class:`InputError` (or ``error``) with a one-line message naming the
argument.  No bool passes: Python's is excluded by name, numpy's is no Real.
"""

import math
import numbers

import numpy as np


class BLQError(Exception):
    """Base class for all library errors."""


class InputError(BLQError, ValueError):
    """A caller's argument is NaN, infinite, a bool, a non-integer count, negative or misshapen."""


class DatumError(BLQError, ValueError):
    """Invalid Brascamp-Lieb datum (bad shapes, non-surjective map, ...)."""


class ParameterDomainError(BLQError, ValueError):
    """Adjoint exponent parameters outside their admissible domain."""


class ScalingConditionError(BLQError, ValueError):
    """The dimensional scaling condition d = sum(c_i * d_i) fails."""


class ConditioningError(BLQError, ArithmeticError):
    """A linear-algebra step hit a numerically singular matrix."""


class CoverageError(BLQError, ValueError):
    """A pushforward image escapes the target grid box."""

    def __init__(self, message, escaping_fraction=None):
        super().__init__(message)
        self.escaping_fraction = escaping_fraction


class ResolutionError(BLQError, ValueError):
    """A grid quadrature self-estimate exceeds the allowed share of the value."""


class CapExceededError(BLQError, ValueError):
    """An enumeration exceeds its configured size cap."""


class MassError(BLQError, ValueError):
    """Zero or non-finite total mass where a density is required."""


class SchemaError(BLQError, ValueError):
    """A scenario or report violates its JSON schema."""


def _shown(x):  # repr(x) on one line
    return " ".join(repr(x).split())


def exponent(p, name, inf=False, error=InputError):
    if isinstance(p, numbers.Real) and not isinstance(p, bool) and p > 0 and (inf or p < math.inf):
        return float(p)
    raise error(f"{name} must be a positive {'number or inf' if inf else 'finite number'}, got {_shown(p)}")


def count(n, name, minimum=1):
    if isinstance(n, numbers.Integral) and not isinstance(n, bool) and (minimum is None or n >= minimum):
        return int(n)
    raise InputError(f"{name} must be an integer{'' if minimum is None else f' >= {minimum}'}, got {_shown(n)}")


def nonnegative(values, name):
    a = np.asarray(values, dtype=float)
    if a.size and not (a.min() >= 0 and a.max() < math.inf):  # NaN fails both
        raise InputError(f"{name} must be finite and non-negative")
    return a


def finite(array, name, error=InputError):
    a = np.asarray(array, dtype=float)
    if not np.isfinite(a).all():
        raise error(f"{name} must be finite")
    return a
