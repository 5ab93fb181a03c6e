"""Isoperimetric comparison and radial symmetrization.

iso_profile gives the boundary area of the ball with prescribed volume in
the simply connected constant-curvature space.  symmetrize takes a
localized test function on a normal chart and rearranges it into the
equimeasurable radial function on that comparison space: superlevel-set
volumes are matched level by level, which preserves mass and entropy,
while the Dirichlet energy can only drop.

Surface quantities along a level set are computed by the polar route: with
r_y(s) the level-crossing radius along the ray y,

  integral over the level set of  1/|grad u|   =  sum_y w_y rho r^{n-1} / |du/dr|
  area                                          =  sum_y w_y |grad u| rho r^{n-1} / |du/dr|
  integral of |grad u|                          =  sum_y w_y |grad u|^2 rho r^{n-1} / |du/dr|

evaluated at r = r_y(s); the first is exactly -dV/ds by the coarea
formula, which the tests cross-check against finite differences of the
volume ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from ._spaceform import ball_volume_K, sphere_area_K
from .errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    NonPositiveVolume,
    VolumeTooLarge,
)
from .functionals import QuadratureSpec, TestFunction, eval_components, sphere_rule

__all__ = [
    "iso_profile",
    "iso_profile_radius",
    "RadialProfile",
    "SymmetrizationResult",
    "symmetrize",
]


def iso_profile_radius(n: int, K: float, beta: float, tol: float = 1e-12) -> float:
    """Radius of the ball of volume beta in the space form M^n_K."""
    if beta <= 0:
        raise NonPositiveVolume("volume must be positive")
    if K > 0:
        r_hi = np.pi / np.sqrt(K)
        total = float(ball_volume_K(n, K, r_hi))
        if beta >= total * (1 - 1e-14):
            raise VolumeTooLarge(
                f"volume {beta} reaches the total volume {total} of the sphere"
            )
    else:
        r_hi = 1.0
        while float(ball_volume_K(n, K, r_hi)) < beta:
            r_hi *= 2.0
            if r_hi > 1e6:
                raise VolumeTooLarge("volume out of representable range")
    r_lo = 0.0
    # bisect to a decent bracket, then polish with Newton (V' = area)
    for _ in range(60):
        mid = 0.5 * (r_lo + r_hi)
        if float(ball_volume_K(n, K, mid)) < beta:
            r_lo = mid
        else:
            r_hi = mid
    r = 0.5 * (r_lo + r_hi)
    for _ in range(8):
        f = float(ball_volume_K(n, K, r)) - beta
        a = float(sphere_area_K(n, K, r))
        if a == 0:
            break
        step = f / a
        r -= step
        r = min(max(r, r_lo), r_hi)
        if abs(step) < tol * max(1.0, r):
            break
    return float(r)


def iso_profile(n: int, K: float, beta: float) -> float:
    """Boundary area of the volume-beta ball in M^n_K."""
    return float(sphere_area_K(n, K, iso_profile_radius(n, K, beta)))


class _SquareRadiusSpline:
    """Evaluates a radial profile through a cubic spline in r^2.

    In the squared-radius variable the profile is analytic through the
    apex (no even-symmetry kink), which buys several digits over a plain
    spline in r for Gaussian-shaped caps."""

    def __init__(self, r: np.ndarray, u: np.ndarray):
        self._s = CubicSpline(r**2, u)

    def __call__(self, r, nu: int = 0):
        rho = np.asarray(r, dtype=float) ** 2
        if nu == 0:
            return self._s(rho)
        if nu == 1:
            return self._s(rho, 1) * 2.0 * np.asarray(r, dtype=float)
        raise ValueError("only values and first derivatives are available")


@dataclass
class RadialProfile:
    """Decreasing radial function on M^n_K sampled at its level radii."""

    n: int
    K: float
    r: np.ndarray  # ascending, starting at 0 (apex)
    u: np.ndarray  # matching values, descending

    def spline(self) -> _SquareRadiusSpline:
        return _SquareRadiusSpline(self.r, self.u)


@dataclass
class SymmetrizationResult:
    profile: RadialProfile
    levels: np.ndarray  # descending level values of u
    volumes: np.ndarray  # superlevel-set volumes on the original side
    r_bar: np.ndarray  # comparison-ball radii with the same volumes
    coarea: np.ndarray  # -dV/ds at each level (polar route)
    area_original: np.ndarray
    area_comparison: np.ndarray
    grad_integral: np.ndarray  # integral of |grad u| over each level set
    mass_original: float
    mass_symmetrized: float
    entropy_original: float
    entropy_symmetrized: float
    dirichlet_original: float
    dirichlet_symmetrized: float
    meta: dict = field(default_factory=dict)

    def holder_margin(self) -> np.ndarray:
        """(int 1/|grad u|)(int |grad u|) - Area^2 per level; must be >= 0."""
        return self.coarea * self.grad_integral - self.area_original**2


def _u_and_slopes(tf: TestFunction, t: float, X, r, dirs_rep):
    """u, du/dr and |grad u|^2 at points X of radius r; dirs_rep holds the
    unit ray direction of each point.  Flat-chart normal coordinates only."""
    n = tf.nchart.n
    eta2, geta2 = tf.eta2_with_grad(X, t, r)
    h2 = (4 * np.pi * t) ** (-n / 2.0) * np.exp(-r * r / (4 * t))
    u2 = h2 * eta2
    u = np.sqrt(u2)
    # grad u = u * (grad eta2 / (2 eta2) - x / 4t)
    mvec = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
    grad = u[:, None] * mvec
    du_dr = np.einsum("mi,mi->m", grad, dirs_rep)
    grad_sq = np.einsum("mi,mi->m", grad, grad)
    return u, du_dr, grad_sq


def symmetrize(
    tf: TestFunction,
    t: float,
    K: float = 0.0,
    levels: int = 512,
    order: int = 32,
    quad: QuadratureSpec | None = None,
) -> SymmetrizationResult:
    """Radial rearrangement of the test function onto M^n_K.

    Works on flat normal charts (where the polar geometry is exact).  The
    level ladder runs geometrically from max * (1 - 1e-3) down to
    max * 1e-6 with at least 64 rungs.
    """
    nc = tf.nchart
    if nc.kind != "flat":
        raise ConfigInvalid(
            "symmetrization is implemented for flat normal charts"
        )
    if levels < 64:
        raise ConfigInvalid("need at least 64 ladder levels")
    n = nc.n
    quad = quad or QuadratureSpec(rule="radial_sphere", order=order)

    dirs, wd = sphere_rule(n, order, quad.seed)
    nd = dirs.shape[0]
    r_max = tf.r_s
    m = 2048
    rg = np.linspace(0.0, r_max, m)

    X = (dirs[:, None, :] * rg[None, :, None]).reshape(-1, n)
    dirs_rep = np.repeat(dirs, m, axis=0)
    u_flat, du_flat, gsq_flat = _u_and_slopes(tf, t, X, np.tile(rg, nd), dirs_rep)
    U = u_flat.reshape(nd, m)

    if np.any(np.diff(U, axis=1) > 1e-12 * U[:, :1]):
        raise LevelSetDegenerate(
            "u is not radially decreasing along some ray; the level sets "
            "are not star-shaped and the radial ladder breaks down"
        )

    u_max = float(U[:, 0].max())
    top = u_max * (1.0 - 1e-3)
    bottom = u_max * 1e-6
    s_ladder = np.geomspace(top, bottom, levels)

    # level-crossing radii: monotone interp seed, then Newton with the
    # analytic radial slope
    r_cross = np.empty((nd, levels))
    for d in range(nd):
        r_cross[d] = np.interp(-s_ladder, -U[d], rg)
    for _ in range(4):
        Xc = (dirs[:, None, :] * r_cross[:, :, None]).reshape(-1, n)
        dr_rep = np.repeat(dirs, levels, axis=0)
        uc, duc, _ = _u_and_slopes(tf, t, Xc, r_cross.ravel(), dr_rep)
        uc = uc.reshape(nd, levels)
        duc = duc.reshape(nd, levels)
        step = (uc - s_ladder[None, :]) / np.minimum(duc, -1e-300)
        r_cross = np.clip(r_cross - step, 0.0, r_max)

    Xc = (dirs[:, None, :] * r_cross[:, :, None]).reshape(-1, n)
    dr_rep = np.repeat(dirs, levels, axis=0)
    _, duc, gsqc = _u_and_slopes(tf, t, Xc, r_cross.ravel(), dr_rep)
    slope = np.maximum(-duc.reshape(nd, levels), 1e-300)
    gnorm = np.sqrt(gsqc.reshape(nd, levels))
    shell = r_cross ** (n - 1)  # flat density is 1

    coarea = np.einsum("d,dl->l", wd, shell / slope)  # -dV/ds
    area_orig = np.einsum("d,dl->l", wd, gnorm * shell / slope)
    grad_int = np.einsum("d,dl->l", wd, gnorm**2 * shell / slope)

    # superlevel volume along each ray: flat density, so the radial
    # antiderivative r^n / n is exact
    vol_along = r_cross**n / n
    volumes = np.einsum("d,dl->l", wd, vol_along)

    r_bar = np.array([iso_profile_radius(n, K, float(v)) for v in volumes])
    area_comp = sphere_area_K(n, K, r_bar)

    if np.any(np.diff(volumes) <= 0):
        raise LevelSetDegenerate("superlevel volumes failed to increase")

    # symmetrized profile with the apex point attached
    r_prof = np.concatenate([[0.0], r_bar])
    u_prof = np.concatenate([[u_max], s_ladder])
    profile = RadialProfile(n=n, K=K, r=r_prof, u=u_prof)

    # original-side functionals from the quadrature engine
    comp = eval_components(tf, t, quad, want_err=False)

    # symmetrized side: composite Gauss rule per spline interval, so the
    # piecewise-cubic profile is integrated essentially exactly
    spl = profile.spline()
    x1, w1 = roots_legendre(5)
    lo, hi = r_prof[:-1], r_prof[1:]
    half = 0.5 * (hi - lo)
    rr = (lo[:, None] + half[:, None] * (x1[None, :] + 1.0)).ravel()
    ww = (half[:, None] * w1[None, :]).ravel()
    ubar = np.maximum(spl(rr), 1e-300)
    dubar = spl(rr, 1)
    aK = sphere_area_K(n, K, rr)
    mass_sym = float(np.dot(ww, ubar**2 * aK))
    entropy_sym = float(np.dot(ww, ubar**2 * np.log(ubar**2) * aK))
    dir_sym = float(np.dot(ww, dubar**2 * aK))

    return SymmetrizationResult(
        profile=profile,
        levels=s_ladder,
        volumes=volumes,
        r_bar=r_bar,
        coarea=coarea,
        area_original=area_orig,
        area_comparison=area_comp,
        grad_integral=grad_int,
        mass_original=comp.mass,
        mass_symmetrized=mass_sym,
        entropy_original=comp.entropy,
        entropy_symmetrized=entropy_sym,
        dirichlet_original=comp.dirichlet,
        dirichlet_symmetrized=dir_sym,
        meta={"t": t, "levels": levels, "order": order},
    )
