"""Exception types shared across the package.

Everything derives from CurvexError so callers can catch broadly.  Numerical
quality problems (unstable differentiation, noisy quadrature, bad fits) get
their own types because the calling layers branch on them.
"""

from numbers import Integral, Real

import numpy as np


class CurvexError(Exception):
    pass


class DimensionMismatch(CurvexError):
    pass


class DimensionTooSmall(CurvexError):
    pass


class MissingField(CurvexError):
    """A CurvatureData optional field is required by the requested operation."""


class InvalidSpec(CurvexError):
    pass


class OutOfDomain(CurvexError):
    pass


class DifferentiationUnstable(CurvexError):
    """Finite-difference curvature failed its internal symmetry checks."""


class GeodesicLeftDomain(CurvexError):
    pass


class JacobianSingular(CurvexError):
    """Conjugate-point territory: det of the exponential-map Jacobian <= 0."""


class SupportTooLarge(CurvexError):
    pass


class TimeTooLarge(CurvexError):
    pass


class QuadratureNotConverged(CurvexError):
    pass


class IllConditionedFit(CurvexError):
    pass


class NoiseDominates(CurvexError):
    pass


class NonPositiveVolume(CurvexError):
    pass


class VolumeTooLarge(CurvexError):
    pass


class LevelSetDegenerate(CurvexError):
    pass


class GammaOutOfRange(CurvexError):
    pass


class ConfigInvalid(CurvexError):
    pass


def check_integer(x, least: int, what: str, error=ConfigInvalid):
    """error, naming what, unless x is an integer (a Python or numpy one,
    not a bool) of at least least."""
    if not (isinstance(x, Integral) and not isinstance(x, bool) and x >= least):
        raise error(f"{what} {x!r} is not an integer of at least {least}")


def check_finite(x, what: str, error=ConfigInvalid):
    """error, naming what, unless x is a finite real number or a float
    array of them (a NaN K, say, would read as flat)."""
    if isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.floating):
        if not np.all(np.isfinite(x)):
            raise error(f"{what}: not every entry is finite")
    elif not (isinstance(x, Real) and np.isfinite(x)):
        raise error(f"{what} {x!r} is not a finite number")


class PositivityWarning(UserWarning):
    """Test-function profile dipped to the clamp floor somewhere on its support."""
