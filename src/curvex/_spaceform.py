"""Shared closed forms for the constant-curvature comparison spaces.

sn_K is the warped radius: sin(sqrt(K) r)/sqrt(K) for K > 0, r for K = 0,
sinh(sqrt(-K) r)/sqrt(-K) for K < 0.  Ball volumes integrate the sphere
area n omega_n sn_K^{n-1} with the Gauss-Legendre rule every ball volume
shares (`_numerics.shell_volume`), accurate to machine precision for the
radii this package touches.
"""

from __future__ import annotations

from math import gamma, pi

import numpy as np

from ._numerics import shell_volume

__all__ = [
    "omega_n",
    "sn",
    "sn_over_r",
    "sphere_area_K",
    "ball_volume_K",
]


def omega_n(n: int) -> float:
    """Volume of the unit ball in R^n: 2 for n = 1, where the gamma
    quotient rounds to 1.9999999999999998."""
    if n == 1:
        return 2.0
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def sn(K: float, r):
    r = np.asarray(r, dtype=float)
    if K > 0:
        rt = np.sqrt(K)
        return np.sin(rt * r) / rt
    if K < 0:
        rt = np.sqrt(-K)
        return np.sinh(rt * r) / rt
    return r.copy() if r.ndim else float(r)


def sn_over_r(K: float, r):
    """sn_K(r)/r, stable at r = 0."""
    r = np.asarray(r, dtype=float)
    if K > 0:
        return np.sinc(np.sqrt(K) * r / pi)
    if K == 0:
        return np.ones_like(r) if r.ndim else 1.0
    rt = np.sqrt(-K)
    x = rt * r
    small = np.abs(x) < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(small, 1.0 + x * x / 6.0, np.sinh(x) / np.where(small, 1.0, x))
    return out


def sphere_area_K(n: int, K: float, r):
    """Area of the geodesic sphere of radius r in M^n_K."""
    return n * omega_n(n) * sn(K, r) ** (n - 1)


def ball_volume_K(n: int, K: float, r):
    """Volume of the geodesic ball of radius r in M^n_K (vectorized in r)."""
    out = shell_volume(lambda s: sphere_area_K(n, K, s), r)
    return out if out.ndim else float(out)
