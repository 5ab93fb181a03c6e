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

On the flat chart the sweep works from two scalars per direction,
q = d.a.d and p = |a d|^2, and never forms coordinate arrays.  Along
x = r d, with c = cut(r/r_s), P = 1 + alpha t + q r^2, S = scale^2 and
u^2 = (4 pi t)^{-n/2} exp(-r^2/4t) eta^2, the functionals kernel gives

  eta^2   = S c P
  kappa   = d eta^2/dr / (2 eta^2) - r/4t = (c'/r_s) / (2c) + r q / P - r/4t
  beta^2  = r^2 / P^2

and grad u = u (kappa d + beta w) with w = a d - q d orthogonal to d and
|w|^2 = p - q^2, so

  du/dr       = u kappa
  |grad u|^2  = u^2 (kappa^2 + beta^2 (p - q^2)).

eta^2 is floored and its gradient zeroed where it is clamped: kappa =
-r/4t and beta^2 = 0 there.  The seed grid needs only u; it is evaluated
a block of rays at a time, each block on the radii of the whole grid.

The rays are the directions of the radial-spherical rule that integrates
the original side, from the same builder.  For a diagonal a, q and p are
even in every coordinate and that rule is folded onto the orthant
(functionals.resolve_rule): at order 32 on S^2 the sweep runs on 272
rays instead of 2,048.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import CubicSpline, gauss_legendre, shell_radius
from ._spaceform import ball_volume_K, omega_n, sphere_area_K
from .errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    NonPositiveVolume,
    VolumeTooLarge,
)
from .functionals import (
    QuadratureSpec,
    TestFunction,
    eval_components,
    resolve_rule,
    sphere_rule,
)

__all__ = [
    "iso_profile",
    "iso_profile_radius",
    "RadialProfile",
    "SymmetrizationResult",
    "symmetrize",
]


# Newton on the level crossings stops once max |u(r) - s| / s is at most
# _NEWTON_TOL; after _NEWTON_CAP steps a residual above _NEWTON_FAIL raises
_NEWTON_TOL = 1e-13
_NEWTON_CAP = 4
_NEWTON_FAIL = 1e-10
_SEED_BLOCK = 256  # rays per block of the 2048-radius seed grid


def iso_profile_radius(n: int, K: float, beta):
    """Radius of the ball of volume beta in the space form M^n_K.

    beta may be an array, solved element by element in one vectorized
    Newton run (`_numerics.shell_radius`); a scalar in gives a float out.
    V_K <= V_0 for K > 0, so the flat radius (beta/omega_n)^(1/n) starts
    the run from below the root inside (0, pi/sqrt(K)).  For K <= 0,
    V_K >= V_0 bounds the root by the flat radius, and for K < 0 the last
    1/k of the radius (k = sqrt(-K)) alone holds at least
    n omega_n sn_K(r - 1/k)^(n-1) / k; the run starts from the smaller
    bound."""
    b = np.asarray(beta, dtype=float)
    if np.any(b <= 0):
        raise NonPositiveVolume("volume must be positive")
    r = (b / omega_n(n)) ** (1.0 / n)
    if K > 0:
        hi = np.pi / np.sqrt(K)
        total = ball_volume_K(n, K, hi)
        if np.any(b >= total):
            raise VolumeTooLarge(
                f"volume {b.max()} reaches the total volume {total} of the sphere"
            )
    else:
        if K < 0 and n > 1:
            k = np.sqrt(-K)
            sn_top = (k * b / (n * omega_n(n))) ** (1.0 / (n - 1))
            r = np.minimum(r, (1.0 + np.arcsinh(k * sn_top)) / k)
        if np.any(r > 1e6):
            raise VolumeTooLarge("volume out of representable range")
        hi = r
    r = shell_radius(lambda s: sphere_area_K(n, K, s), b, r, hi)
    return float(r) if r.ndim == 0 else r


def iso_profile(n: int, K: float, beta):
    """Boundary area of the volume-beta ball in M^n_K (vectorized in beta)."""
    area = sphere_area_K(n, K, iso_profile_radius(n, K, beta))
    return float(area) if np.ndim(area) == 0 else area


class _SquareRadiusSpline:
    """Evaluates a radial profile through a cubic spline in r^2.

    In the squared-radius variable the profile is analytic through the
    apex (no even-symmetry kink), which buys several digits over a plain
    spline in r for Gaussian-shaped caps."""

    def __init__(self, r: np.ndarray, u: np.ndarray):
        self._s = CubicSpline(r**2, u)

    def __call__(self, r, nu: int = 0):
        r = np.asarray(r, dtype=float)
        out = self._s(r**2, nu)  # raises beyond first derivatives
        return out * 2.0 * r if nu == 1 else out


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


def _heat2(n: int, t: float, r):
    """(4 pi t)^{-n/2} exp(-r^2/4t), the factor with u^2 = _heat2 eta^2."""
    return (4 * np.pi * t) ** (-n / 2.0) * np.exp(-r * r / (4 * t))


def _u_on_rays(tf: TestFunction, t: float, q, p, r):
    """u, du/dr and |grad u|^2 along rays x = r d with q = d.a.d and
    p = |a d|^2 per direction.  Flat-chart normal coordinates only."""
    eta2, kappa, beta2 = tf.eta2_with_grad(q, r, t)
    u = np.sqrt(_heat2(tf.nchart.n, t, r) * eta2)
    return u, u * kappa, u * u * (kappa * kappa + beta2 * (p - q * q))


def symmetrize(
    tf: TestFunction,
    t: float,
    K: float = 0.0,
    levels: int = 512,
    order: int = 32,
) -> SymmetrizationResult:
    """Radial rearrangement of the test function onto M^n_K.

    Works on flat normal charts (where the polar geometry is exact).  The
    level ladder runs geometrically from max * (1 - 1e-3) down to
    max * 1e-6 with at least 64 rungs.  The sweep and the original-side
    functionals share one radial-spherical rule of the given order, folded
    onto the orthant when a is diagonal (meta["fold"]).
    """
    nc = tf.nchart
    if nc.kind != "flat":
        raise ConfigInvalid(
            "symmetrization is implemented for flat normal charts"
        )
    if levels < 64:
        raise ConfigInvalid("need at least 64 ladder levels")
    n = nc.n
    quad = QuadratureSpec(rule="radial_sphere", order=order)

    # the sweep runs on the rays of the original side's rule, folded onto
    # the orthant for a diagonal a
    fold = resolve_rule(tf, quad)[1]
    dirs, wd = sphere_rule(n, order, fold)
    nd = dirs.shape[0]
    r_max = tf.r_s
    m = 2048
    rg = np.linspace(0.0, r_max, m)

    ad = dirs @ tf.a
    q = np.einsum("di,di->d", dirs, ad)[:, None]
    p = np.einsum("di,di->d", ad, ad)[:, None]

    # the seed grid needs u alone; u at the apex is the same on every ray
    h2 = _heat2(n, t, rg)
    u_max = float(np.sqrt(h2[0] * tf.eta2_with_grad(q[0], 0.0, t)[0][0]))
    top = u_max * (1.0 - 1e-3)
    bottom = u_max * 1e-6
    s_ladder = np.geomspace(top, bottom, levels)

    # level-crossing radii: monotone interp seed on the seed grid, a block
    # of rays at a time, then Newton with the analytic radial slope until
    # the relative residual in u is negligible
    r_cross = np.empty((nd, levels))
    for lo in range(0, nd, _SEED_BLOCK):
        U = np.sqrt(h2 * tf.eta2_with_grad(q[lo : lo + _SEED_BLOCK], rg, t)[0])
        if np.any(np.diff(U, axis=1) > 1e-12 * U[:, :1]):
            raise LevelSetDegenerate(
                "u is not radially decreasing along some ray; the level sets "
                "are not star-shaped and the radial ladder breaks down"
            )
        for d, u in enumerate(U, lo):
            r_cross[d] = np.interp(-s_ladder, -u, rg)
    steps = 0
    while True:
        uc, duc, gsqc = _u_on_rays(tf, t, q, p, r_cross)
        resid = float(np.max(np.abs(uc - s_ladder) / s_ladder))
        if resid <= _NEWTON_TOL or steps == _NEWTON_CAP:
            break
        step = (uc - s_ladder) / np.minimum(duc, -1e-300)
        r_cross = np.clip(r_cross - step, 0.0, r_max)
        steps += 1
    if resid > _NEWTON_FAIL:
        raise LevelSetDegenerate(
            f"level crossings did not converge: relative residual {resid:.2e} "
            f"after {steps} Newton steps"
        )

    slope = np.maximum(-duc, 1e-300)
    gnorm = np.sqrt(gsqc)
    shell = r_cross ** (n - 1)  # flat density is 1

    coarea = np.einsum("d,dl->l", wd, shell / slope)  # -dV/ds
    area_orig = np.einsum("d,dl->l", wd, gnorm * shell / slope)
    grad_int = np.einsum("d,dl->l", wd, gnorm**2 * shell / slope)

    # superlevel volume along each ray: flat density, so the radial
    # antiderivative r^n / n is exact
    vol_along = r_cross**n / n
    volumes = np.einsum("d,dl->l", wd, vol_along)

    r_bar = iso_profile_radius(n, K, volumes)
    area_comp = sphere_area_K(n, K, r_bar)

    if np.any(np.diff(volumes) <= 0):
        raise LevelSetDegenerate("superlevel volumes failed to increase")

    # symmetrized profile with the apex point attached
    r_prof = np.concatenate([[0.0], r_bar])
    u_prof = np.concatenate([[u_max], s_ladder])
    profile = RadialProfile(n=n, K=K, r=r_prof, u=u_prof)

    # original-side functionals from the quadrature engine
    comp = eval_components(tf, t, quad, want_err=False, want_sc=False)

    # symmetrized side: composite Gauss rule per spline interval, so the
    # piecewise-cubic profile is integrated essentially exactly
    spl = profile.spline()
    x1, w1 = gauss_legendre(5)
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
        meta={"t": t, "levels": levels, "order": order, "rays": nd,
              "fold": fold, "seed_radii": m, "newton_steps": steps,
              "crossing_residual": resid},
    )
