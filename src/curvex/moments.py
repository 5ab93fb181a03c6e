"""Closed-form moments of the Gaussian heat-kernel weight and of spheres.

The weight is H^2 = (4 pi t)^{-n/2} exp(-|x|^2 / 4t), i.e. each coordinate
is centered normal with variance 2t.  These formulas are the reference
values that the quadrature engine in `functionals` must reproduce; keeping
them independent of that engine is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .errors import DimensionMismatch
from .tensor_core import MAX_DIM, e_functional

__all__ = [
    "GaussianWeight",
    "moment_radial",
    "moment_quadratic",
    "moment_quartic",
    "sphere_monomial",
    "wick_moment",
    "sphere_area",
]


@dataclass(frozen=True)
class GaussianWeight:
    n: int
    t: float

    def __post_init__(self):
        if not (1 <= self.n <= MAX_DIM):
            raise DimensionMismatch(f"n={self.n} outside 1..{MAX_DIM}")
        if self.t <= 0:
            raise ValueError("t must be positive")


def moment_radial(w: GaussianWeight) -> float:
    """integral of H^2 |x|^2 / t  =  2n."""
    return 2.0 * w.n


def moment_quadratic(w: GaussianWeight, A, weighted: bool = False) -> float:
    """integral of H^2 A_ij x^i x^j, optionally with an extra |x|^2/t factor.

    Unweighted value is 2 tr(A) t; the weighted one is 4 (n+2) tr(A) t.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (w.n, w.n):
        raise DimensionMismatch(f"matrix shape {A.shape} vs n={w.n}")
    tr = float(np.trace(A))
    if weighted:
        return 4.0 * (w.n + 2) * tr * w.t
    return 2.0 * tr * w.t


def moment_quartic(w: GaussianWeight, lam, weighted: bool = False) -> float:
    """integral of H^2 lam_ijkl x^i x^j x^k x^l (extra |x|^2/t if weighted).

    Values are 4 E(lam) t^2 and 8 (n+4) E(lam) t^2, with E the pair-trace
    functional from tensor_core.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (w.n,) * 4:
        raise DimensionMismatch(f"tensor shape {lam.shape} vs n={w.n}")
    e = e_functional(lam)
    if weighted:
        return 8.0 * (w.n + 4) * e * w.t**2
    return 4.0 * e * w.t**2


def sphere_monomial(n: int, exponents) -> float:
    """integral over S^{n-1} of prod_i y_i^{k_i} (unnormalized surface measure).

    Zero when any exponent is odd; otherwise 2 prod Gamma(b_i) / Gamma(sum b_i)
    with b_i = (k_i + 1)/2.
    """
    k = np.asarray(exponents, dtype=int)
    if k.shape != (n,):
        raise DimensionMismatch(f"need {n} exponents, got shape {k.shape}")
    if np.any(k < 0):
        raise ValueError("exponents must be nonnegative")
    if np.any(k % 2 == 1):
        return 0.0
    b = (k + 1) / 2.0
    num = 2.0
    for bi in b:
        num *= gamma(bi)
    return num / gamma(float(b.sum()))


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1}."""
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


def wick_moment(w: GaussianWeight, exponents) -> float:
    """integral of H^2 prod_i x_i^{k_i} by Isserlis pairing.

    Coordinates are independent N(0, 2t), so the value factorizes into
    prod (k_i - 1)!! (2t)^{k_i/2} for even exponents and vanishes otherwise.
    """
    k = np.asarray(exponents, dtype=int)
    if k.shape != (w.n,):
        raise DimensionMismatch(f"need {w.n} exponents, got shape {k.shape}")
    if np.any(k < 0):
        raise ValueError("exponents must be nonnegative")
    if np.any(k % 2 == 1):
        return 0.0
    out = 1.0
    for ki in k:
        m = ki // 2
        dfac = 1.0
        for j in range(1, ki, 2):
            dfac *= j
        out *= dfac * (2.0 * w.t) ** m
    return out
