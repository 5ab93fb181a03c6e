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

No radius grid is sampled: each r_y(s) comes from Newton on log u in r^2
with slope kappa from the kernel, inside [0, r_s], in two stages.  The
first solves every _COARSE_STRIDE-th rung of the ladder and the last one
from the Gaussian crossing sqrt(8 t log(u_max/s))
(_numerics.bracketed_newton).  The second starts every rung from the cubic
Hermite interpolant of r^2 in log s through the first stage's roots, whose
slopes d(r^2)/d(log s) = 2 r / kappa reuse the kappa of the first stage's
kernel calls; a start that is not finite or leaves [0, r_s] takes the
Gaussian crossing.  It makes two kernel passes over the whole sweep: one
at the starts, from which every crossing takes one unbracketed Newton
step, and one read of the ray evaluator at those roots, which is both the
convergence test |log(u/s)| <= _NEWTON_TOL (or a step that rounded to
zero) and the sweep's read.  The crossings left open (a step that left
(0, r_s) or is not finite, the eta^2 cliff) go into one bracketed run,
inside the bracket their start leaves, where a step that rounds to zero
stops a crossing too, and are read again.  meta["newton_steps"] is 2 plus
that run's evaluations, meta["open_crossings"] the crossings it solved,
meta["coarse_newton_steps"] the first stage's evaluations and
meta["crossing_residual"] the largest |u/s - 1| at the roots.  At the
roots the ray evaluator of the functionals (TestFunction.on_rays: the
kernel and NormalChart.geometry) gives du/dr = u kappa and
|grad u|^2 = u^2 (kappa^2 + beta^2 w.g~^{-1}w).
Each level is crossed once per ray: u is radially nonincreasing, which
functionals.check_time tests exactly beforehand.

The rays are those of the radial-spherical rule that integrates the
original side, from the same accessor (functionals.ray_bundle), folded as
functionals.resolve_rule decides: onto the orbit rule of the sets of
equal entries of a diagonal a, whose block group leaves u invariant.  At
order 32 on S^2 distinct entries give the orthant, 272 rays instead of
2,048; a = lambda I (a = 0, the CLI default, included) makes u radial
and the sweep runs on one ray carrying the whole sphere area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import (CubicSpline, bracketed_newton, composite_gauss_legendre,
                        hermite_basis, shell_radius)
from ._spaceform import ball_volume_K, omega_n, sphere_area_K
from .errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    NonPositiveVolume,
    VolumeTooLarge,
)
from .functionals import (
    _MAX_NODES,
    QuadratureSpec,
    TestFunction,
    check_finite,
    check_integer,
    check_time,
    eval_components,
    ray_bundle,
    resolve_rule,
)

__all__ = [
    "iso_profile",
    "iso_profile_radius",
    "RadialProfile",
    "SymmetrizationResult",
    "symmetrize",
]


# a crossing stops at |log(u/s)| <= _NEWTON_TOL; |u/s - 1| raises above
# _NEWTON_FAIL, or above 4 eps |du/dr| r / s where one float spacing in r
# moves u by more (steep where eta^2 falls to its zero)
_NEWTON_TOL = 1e-13
_NEWTON_FAIL = 1e-10
# stage 1 of the crossing solve takes every _COARSE_STRIDE-th ladder rung
_COARSE_STRIDE = 8
_EPS = np.finfo(float).eps


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
    check_finite(K, "model curvature K")
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


def _u_on_rays(tf: TestFunction, t: float, dirs, r):
    """u, du/dr, |grad u|^2 and the chart density at x = r d, directions
    dirs (nd, n) and radii r (nd, nr), from TestFunction.on_rays."""
    eta2, kappa, beta2, dens, wgw = tf.on_rays(dirs[:, None, :], r, t)
    h2 = (4 * np.pi * t) ** (-tf.nchart.n / 2.0) * np.exp(-r * r / (4 * t))
    u = np.sqrt(h2 * eta2)
    return u, u * kappa, u * u * (kappa * kappa + beta2 * wgw), dens


def symmetrize(
    tf: TestFunction,
    t: float,
    K: float = 0.0,
    levels: int = 512,
    order: int = 32,
) -> SymmetrizationResult:
    """Radial rearrangement of the test function onto M^n_K.

    Works on flat normal charts (a ray holds volume r^n/n there) for t > 0,
    u radially nonincreasing and t <= (r_s/10)^2 (functionals.check_time).
    The level ladder runs geometrically from max * (1 - 1e-3) down to max
    * 1e-6 with an integer number of rungs, at least 64; a sweep of more
    than _MAX_NODES crossings (rays times rungs) raises ConfigInvalid
    before the ladder exists.  The sweep and the original side share
    one radial-spherical rule, folded onto the orbit rule of the sets of
    equal entries of a diagonal a (meta["fold"] lists them).
    """
    check_finite(K, "model curvature K")
    if tf.nchart.chart.kind != "flat":
        raise ConfigInvalid(
            "symmetrization is implemented for flat normal charts"
        )
    check_integer(levels, 64, "ladder levels")
    quad = QuadratureSpec(rule="radial_sphere", order=order)
    check_time(tf, t, monotone=True)
    n = tf.nchart.n

    # the sweep runs on the rays of the original side's rule, folded onto
    # the orbit rule of a diagonal a's equal entries
    fold = resolve_rule(tf, quad)[1]
    dirs, wd = ray_bundle(n, order, fold, tf.nchart)
    nd = dirs.shape[0]
    if nd * levels > _MAX_NODES:
        raise ConfigInvalid(f"the sweep of {nd} rays by {levels} levels holds "
                            f"{nd * levels} crossings, above {_MAX_NODES}")
    q = np.einsum("di,di->d", dirs, dirs @ tf.a)

    # u at the apex, the same on every ray
    u_max = float(_u_on_rays(tf, t, dirs[:1], np.zeros((1, 1)))[0][0, 0])
    s_ladder = np.geomspace(u_max * (1.0 - 1e-3), u_max * 1e-6, levels)

    # level crossings, one per (ray, level): Newton on
    # f = log(u/s) = log_h + (log eta^2)/2 - r^2/8t - log s
    log_s = np.log(s_ladder)
    r_gauss = np.minimum(np.sqrt(8.0 * t * (np.log(u_max) - log_s)), tf.r_s)
    log_h = -0.25 * n * np.log(4 * np.pi * t)

    def newton_step(q_at, r, log_s_at):
        """The Newton step in r^2 (df/d(r^2) = kappa/2r) from r, f there
        and the kernel's kappa; kappa = 0 at r = 0 makes the step NaN."""
        eta2, kappa, _ = tf.eta2_with_grad(q_at, r, t)
        f = log_h + 0.5 * np.log(eta2) - r * r / (8.0 * t) - log_s_at
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(r * (r - 2.0 * f / kappa)), f, kappa

    def crossings(r_start, q_at, log_s_at, lo=0.0, hi=tf.r_s, stall=False):
        """bracketed_newton inside (lo, hi) on the 1-d crossings of q_at
        and log_s_at from r_start: the roots, the kernel's kappa at each,
        the crossings left open and the evaluations.  With stall, a step
        that rounds to zero stops a crossing too."""
        kappa_at = np.empty(r_start.size)

        def newton(r, live):
            r_new, f, kappa = newton_step(q_at[live], r, log_s_at[live])
            kappa_at[live] = kappa
            done = np.abs(f) <= _NEWTON_TOL
            if stall:
                done |= r_new == r
            return r_new, f > 0.0, done

        r, stuck, steps = bracketed_newton(newton, r_start, lo, hi)
        return r, kappa_at, stuck, steps

    # stage 1: every _COARSE_STRIDE-th rung and the last, from the Gaussian
    # crossing
    coarse = np.append(np.arange(0, levels - 1, _COARSE_STRIDE), levels - 1)
    rc, kc, _, coarse_steps = crossings(
        np.tile(r_gauss[coarse], nd), np.repeat(q, coarse.size),
        np.tile(log_s[coarse], nd))
    rc, kc = rc.reshape(nd, coarse.size), kc.reshape(nd, coarse.size)
    # stage 2: every rung, from the cubic Hermite of r^2 in log s through
    # the coarse roots, d(r^2)/d(log s) = 2 r / kappa; a start that is not
    # finite or leaves [0, r_s] takes the Gaussian crossing
    k = np.minimum(np.arange(levels) // _COARSE_STRIDE, coarse.size - 2)
    x0, h = log_s[coarse[k]], log_s[coarse[k + 1]] - log_s[coarse[k]]
    b0, b1, b2, b3 = hermite_basis((log_s - x0) / h, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2, dr2 = rc * rc, 2.0 * rc / kc
        r_start = np.sqrt(b0 * r2[:, k] + b1 * dr2[:, k]
                          + b2 * r2[:, k + 1] + b3 * dr2[:, k + 1])
    del r2, dr2
    r_start = np.where(np.isfinite(r_start) & (r_start <= tf.r_s),
                       r_start, r_gauss)
    # start pass: one unbracketed Newton step from every start.  Root
    # pass: u at the steps is the convergence test and the sweep's read at
    # once; a step that rounded to zero has converged too
    r_cross, f = newton_step(q[:, None], r_start, log_s)[:2]
    below = f > 0.0
    del f
    uc, duc, gsqc, dens = _u_on_rays(tf, t, dirs, r_cross)
    with np.errstate(divide="ignore", invalid="ignore"):
        shut = np.abs(np.log(uc / s_ladder)) <= _NEWTON_TOL
    shut |= r_cross == r_start
    # fallback: the crossings still open (a step that left (0, r_s) or is
    # not finite, the eta^2 cliff) in one bracketed run inside the bracket
    # their start leaves, from their step or else the bracket's midpoint,
    # and read again
    open_ = np.flatnonzero(~shut)
    stuck, steps = open_, 2
    if open_.size:
        ray, rung = np.divmod(open_, levels)
        r0, r1, up0 = (np.take(a, open_) for a in (r_start, r_cross, below))
        lo, hi = np.where(up0, r0, 0.0), np.where(up0, tf.r_s, r0)
        r_open, _, stuck, fb_steps = crossings(
            np.where((lo < r1) & (r1 < hi), r1, 0.5 * (lo + hi)),
            q[ray], log_s[rung], lo, hi, stall=True)
        steps += fb_steps
        read = _u_on_rays(tf, t, dirs[ray], r_open[:, None])
        for whole, part in zip((r_cross, uc, duc, gsqc, dens), (r_open, *read)):
            np.put(whole, open_, part)
    del r_start, below
    rel = np.abs(uc - s_ladder) / s_ladder
    bound = np.maximum(_NEWTON_FAIL, 4.0 * _EPS * np.abs(duc) * r_cross / s_ladder)
    resid = float(rel.max())
    if not np.all(rel <= bound):  # NaN too
        worst = np.argmax(rel / bound)
        raise LevelSetDegenerate(
            f"level crossings did not converge: relative residual "
            f"{rel.flat[worst]:.2e} against its bound {bound.flat[worst]:.2e} "
            f"with {stuck.size} crossings open after {steps} Newton steps"
        )
    del rel, bound

    # the polar-route ray sums, all weighted by shell / slope
    w = dens * r_cross ** (n - 1) / np.maximum(-duc, 1e-300)
    coarea = wd @ w  # -dV/ds
    area_orig = wd @ (np.sqrt(gsqc) * w)
    grad_int = wd @ (gsqc * w)

    # superlevel volume along each ray: flat density, so the radial
    # antiderivative r^n / n is exact
    volumes = wd @ (r_cross**n / n)

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
    rr, ww = composite_gauss_legendre(r_prof, 5)
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
              "fold": None if fold is None else [list(b) for b in fold],
              "newton_steps": steps, "coarse_newton_steps": coarse_steps,
              "open_crossings": int(open_.size),
              "crossing_residual": resid},
    )
