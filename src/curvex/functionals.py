"""Gaussian-weighted functionals of localized heat-kernel test functions.

The test function is u = scale * (4 pi t)^{-n/4} exp(-r^2/8t) * eta with
eta^2 = cutoff(r/r_s) * (1 + a_ij x^i x^j + alpha t), clamped below at a
tiny floor, all in normal coordinates at a center point.  The functionals
(mass, entropy, Dirichlet energy, scalar-curvature average) are integrals
against u^2 times the Riemannian volume density.

The substitution x = 2 sqrt(t) z turns each of them into
pi^{-n/2} * integral of exp(-|z|^2) G(z), which the engine computes with
product Gauss-Hermite quadrature, a radial-times-sphere rule with segment
splits at the cutoff kinks, or seeded Monte Carlo for n = 5, 6.

When a has no off-diagonal entries the integrand is even in every
coordinate, so the product Hermite grid is folded onto the orthant z >= 0:
order^n nodes become ceil(order/2)^n, with doubled weights off the zero
node.  A non-diagonal a, and gaussian_integral with its arbitrary G, keep
the full grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_chebyu, roots_legendre

from ._spaceform import ball_volume_K
from .charts import NormalChart, RayTables
from .errors import (
    ConfigInvalid,
    PositivityWarning,
    QuadratureNotConverged,
    SupportTooLarge,
    TimeTooLarge,
)
from .moments import sphere_area
from .tensor_core import CurvatureData

__all__ = [
    "QuadratureSpec",
    "TestFunction",
    "Components",
    "build_test_function",
    "cutoff",
    "cutoff_prime",
    "eval_components",
    "eval_L",
    "eval_L_normalized",
    "eval_W_normalized",
    "gaussian_integral",
    "sphere_rule",
    "ball_volume",
    "bishop_gromov_ratio",
]

ETA_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    rule: str = "auto"  # auto | hermite | radial_sphere | mc
    order: int = 40
    c_trunc: float = 10.0
    mc_samples: int = 1_000_000
    seed: int = 1234
    err_drop: int = 6  # order decrement used for the error estimate

    def __post_init__(self):
        if self.rule not in ("auto", "hermite", "radial_sphere", "mc"):
            raise ConfigInvalid(f"unknown quadrature rule {self.rule!r}")
        if self.order < 8:
            raise ConfigInvalid("quadrature order below 8")
        if not 1 <= self.err_drop <= self.order - 2:
            raise ConfigInvalid(
                f"err_drop {self.err_drop} outside [1, order - 2 = {self.order - 2}]"
            )
        if self.c_trunc <= 3.0:
            raise ConfigInvalid("truncation radius must exceed 3")


def _cutoff_pair(s):
    """cutoff and cutoff_prime at s, both from one clipped ramp variable."""
    w = np.clip(2.0 * np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    return 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w), -60.0 * (w * (1.0 - w)) ** 2


def cutoff(s):
    """C^2 radial cutoff: 1 on [0, 1/2], quintic smoothstep down to 0 at 1."""
    return _cutoff_pair(s)[0]


def cutoff_prime(s):
    return _cutoff_pair(s)[1]


@dataclass
class TestFunction:
    """Localized Gaussian bump on a normal chart.

    a is a symmetric matrix of frame components; alpha shifts the quadratic
    profile by alpha * t.  scale multiplies u (so every functional of u^2
    scales by scale^2, which tests covariance)."""

    __test__ = False  # keep pytest collection away from the Test* name

    nchart: NormalChart
    a: np.ndarray
    alpha: float
    r_s: float
    scale: float = 1.0

    def __post_init__(self):
        n = self.nchart.n
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != (n, n):
            raise ConfigInvalid(f"a has shape {self.a.shape}, chart has n={n}")
        self.a = 0.5 * (self.a + self.a.T)
        if self.r_s <= 0:
            raise ConfigInvalid("support radius must be positive")
        if self.r_s > self.nchart.radius * (1 + 1e-12):
            raise SupportTooLarge(
                f"r_s={self.r_s} exceeds normal chart radius {self.nchart.radius}"
            )

    def eta2_with_grad(self, X, t: float, r=None):
        """(eta^2, d eta^2) at points X (m, n), eta^2 floored at ETA_FLOOR
        and the gradient zeroed on the clamped set.  r = |X| when given."""
        X = np.atleast_2d(X)
        if r is None:
            r = np.linalg.norm(X, axis=-1)
        ax = X @ self.a
        poly = 1.0 + np.einsum("mi,mi->m", X, ax) + self.alpha * t
        cut, dcut = _cutoff_pair(r / self.r_s)
        dcut /= self.r_s
        raw = cut * poly
        clamped = raw <= ETA_FLOOR
        val = self.scale**2 * np.maximum(raw, ETA_FLOOR)
        grad = self.scale**2 * (
            (dcut * poly / np.maximum(r, 1e-300))[:, None] * X
            + (2.0 * cut)[:, None] * ax
        )
        grad[clamped] = 0.0
        return val, grad

    def eta2_on_rays(self, q, p, r, t: float, grad: bool = True):
        """eta^2 along rays x = r d from two scalars per direction.

        q = d.a.d and p = |a d|^2 (shape (nd, 1)) broadcast against the
        radii r, so a radius-only grid (m,) keeps the cutoff at (m,).
        Returns eta^2 alone when grad is False, else (eta^2, d eta^2/dr,
        squared length of the tangential part of grad eta^2); same floor
        and zero gradient on the clamped set as eta2_with_grad."""
        s2 = self.scale**2
        cut, dcut = _cutoff_pair(r / self.r_s)
        poly = 1.0 + q * (r * r) + self.alpha * t
        raw = cut * poly
        val = s2 * np.maximum(raw, ETA_FLOOR)
        if not grad:
            return val
        live = raw > ETA_FLOOR
        d_dr = np.where(live, s2 * (dcut / self.r_s * poly + 2.0 * cut * r * q), 0.0)
        tang = np.where(live, (2.0 * s2 * cut * r) ** 2 * (p - q * q), 0.0)
        return val, d_dr, tang


def build_test_function(
    nchart: NormalChart,
    curv: CurvatureData | None = None,
    mode: str | np.ndarray = "optimal_a",
    alpha: str | float = "normalized",
    r_s: float | None = None,
    scale: float = 1.0,
) -> TestFunction:
    """Standard test-function configurations.

    mode 'optimal_a' takes a = Ricci/3 at the center (needs curv),
    'zero' takes a = 0; an explicit matrix is used as is.  alpha
    'normalized' means -Sc/3 (needs curv).  A quadratic profile that can
    reach zero inside the support triggers PositivityWarning.
    """
    n = nchart.n
    if isinstance(mode, str):
        if mode == "optimal_a":
            if curv is None:
                raise ConfigInvalid("optimal_a needs curvature data at the center")
            a = curv.rc / 3.0
        elif mode == "zero":
            a = np.zeros((n, n))
        else:
            raise ConfigInvalid(f"unknown test-function mode {mode!r}")
    else:
        a = np.asarray(mode, dtype=float)
    if isinstance(alpha, str):
        if alpha == "normalized":
            if curv is None:
                raise ConfigInvalid("normalized alpha needs curvature data")
            alpha_val = -curv.sc / 3.0
        else:
            raise ConfigInvalid(f"unknown alpha mode {alpha!r}")
    else:
        alpha_val = float(alpha)
    if r_s is None:
        r_s = nchart.radius
    lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
    if lam_min < 0 and 1.0 + lam_min * r_s**2 <= 1e-6:
        warnings.warn(
            "quadratic profile reaches zero inside the support; "
            "values will be clamped",
            PositivityWarning,
        )
    return TestFunction(nchart, a, alpha_val, r_s, scale)


# ---------------------------------------------------------------------------
# node construction


def _read_only(*arrays):
    """The arrays, write-protected: a cached rule is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _hermite_nodes(n: int, order: int, fold: bool = False):
    """Product Gauss-Hermite nodes z with |z|^2, |z| and the weights.

    fold builds the grid from the half rule z >= 0 on every axis, each
    positive node carrying its mirror's weight; it integrates exactly the
    functions even in every coordinate."""
    z1, w1 = np.polynomial.hermite.hermgauss(order)  # symmetric: z1 == -z1[::-1]
    if fold:
        half = z1 >= 0.0
        z1, w1 = z1[half], np.where(z1[half] > 0.0, 2.0 * w1[half], w1[half])
    zs = np.stack(
        [g.ravel() for g in np.meshgrid(*([z1] * n), indexing="ij")], axis=-1
    )
    ws = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w1] * n), indexing="ij")], -1),
        axis=-1,
    )
    z2 = np.einsum("mi,mi->m", zs, zs)
    return _read_only(zs, z2, np.sqrt(z2), ws / np.pi ** (n / 2.0))


@lru_cache(maxsize=64)
def sphere_rule(n: int, order: int, seed: int = 1234):
    """Quadrature on S^{n-1}: directions and weights summing to its area.

    n=2 trapezoid, n=3 Gauss-Legendre x trapezoid, n=4 Gauss-Chebyshev
    (second kind) x Gauss-Legendre x trapezoid, n>=5 seeded Monte Carlo.
    """
    if n == 2:
        m = max(4 * order, 16)
        th = 2 * np.pi * np.arange(m) / m
        dirs = np.stack([np.cos(th), np.sin(th)], -1)
        wts = np.full(m, 2 * np.pi / m)
    elif n == 3:
        u, wu = roots_legendre(order)
        m = 2 * order
        th = 2 * np.pi * np.arange(m) / m
        s = np.sqrt(1 - u**2)
        dirs = np.stack(
            [
                np.outer(s, np.cos(th)).ravel(),
                np.outer(s, np.sin(th)).ravel(),
                np.outer(u, np.ones(m)).ravel(),
            ],
            -1,
        )
        wts = np.outer(wu, np.full(m, 2 * np.pi / m)).ravel()
    elif n == 4:
        v, wv = roots_chebyu(order)  # weight sqrt(1-v^2) on [-1,1]
        u, wu = roots_legendre(order)
        m = 2 * order
        th = 2 * np.pi * np.arange(m) / m
        sv = np.sqrt(1 - v**2)
        su = np.sqrt(1 - u**2)
        dirs = np.stack(
            [
                np.einsum("a,b,c->abc", sv, su, np.cos(th)).ravel(),
                np.einsum("a,b,c->abc", sv, su, np.sin(th)).ravel(),
                np.einsum("a,b,c->abc", sv, u, np.ones(m)).ravel(),
                np.einsum("a,b,c->abc", v, np.ones(order), np.ones(m)).ravel(),
            ],
            -1,
        )
        wts = np.einsum("a,b,c->abc", wv, wu, np.full(m, 2 * np.pi / m)).ravel()
    else:
        rng = np.random.default_rng(seed)
        count = max(20_000, 200 * order * order)
        dirs = rng.normal(size=(count, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        wts = np.full(count, sphere_area(n) / count)
    return _read_only(dirs, wts)


def _radial_nodes(order: int, c: float, kinks=()):
    """Gauss-Legendre nodes on [0, c] split at 3.0 and at each kink."""
    brk = sorted({0.0, min(3.0, c), c} | {k for k in kinks if 0.0 < k < c})
    x1, w1 = roots_legendre(order)
    nodes, wts = [], []
    for a, b in zip(brk[:-1], brk[1:]):
        nodes.append(0.5 * (b - a) * x1 + 0.5 * (a + b))
        wts.append(0.5 * (b - a) * w1)
    return np.concatenate(nodes), np.concatenate(wts)


def _effective_rule(nchart: NormalChart, quad: QuadratureSpec) -> str:
    rule = quad.rule
    if rule == "auto":
        if nchart.kind == "ode":
            return "radial_sphere"
        return "radial_sphere" if nchart.n <= 4 else "mc"
    if nchart.kind == "ode" and rule != "radial_sphere":
        raise ConfigInvalid(
            "ode normal charts support only the radial_sphere rule"
        )
    if rule == "hermite" and nchart.n > 4:
        raise ConfigInvalid("product Hermite grids are limited to n <= 4")
    return rule


# ---------------------------------------------------------------------------
# core evaluation


@dataclass
class Components:
    """Raw functional pieces at one time, with per-piece error estimates."""

    t: float
    mass: float
    entropy: float
    dirichlet: float
    sc_integral: float
    errs: dict = field(default_factory=dict)
    nodes: int = 0  # nodes evaluated, error-estimate rule included


def _ray_rule(nc: NormalChart, key):
    """sphere_rule(*key), checked against the ode chart's direction bundle."""
    dirs, wd = sphere_rule(*key)
    if nc.dirs.shape != dirs.shape or not np.array_equal(nc.dirs, dirs):
        raise ConfigInvalid(
            "normal chart direction bundle does not match the sphere rule; "
            "build it with sphere_rule(n, order, seed) directions"
        )
    return dirs, wd


def _accumulate(tf: TestFunction, t: float, X, r, z2, wts, geom=None):
    """Weighted sums of the four integrands over prepared nodes.

    X are the m normal-coordinate points (m, n) and r = |X|.  wts already
    contain the Gaussian factor and the pi^{-n/2} normalization; their
    shape lays the nodes out, (m,) or (nd, nr) along rays, and z2 = |z|^2
    broadcasts against it.  geom is the chart's RayTables on ode charts or
    radial_geometry at the ray radii; by default radial_geometry at r.
    Returns the four sums and the node count.
    """
    n = tf.nchart.n
    grid = wts.shape
    eta2, geta2 = tf.eta2_with_grad(X, t, r)
    mvec = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
    del geta2  # freed before the geometry arrays are made
    if geom is None:
        geom = tf.nchart.radial_geometry(r)
    if isinstance(geom, RayTables):
        dens, sc = geom.dens, geom.sc
        Q = geom.ginv_quad(mvec.reshape(*grid, n))
    else:
        dens, tang, sc = geom
        xm2 = (np.einsum("mi,mi->m", X, mvec) / np.maximum(r, 1e-300)) ** 2
        m2 = np.einsum("mi,mi->m", mvec, mvec)
        xm2 = xm2.reshape(grid)
        Q = xm2 + tang * (m2.reshape(grid) - xm2)
    eta2 = eta2.reshape(grid)
    base = eta2 * dens
    logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * t) - z2
    mass = float(np.vdot(wts, base))
    entropy = float(np.vdot(wts, base * logu2))
    dirichlet = float(np.vdot(wts, base * Q))
    sc_integral = float(np.vdot(wts, base * sc))
    return mass, entropy, dirichlet, sc_integral, wts.size


def _eval_once(tf: TestFunction, t: float, quad: QuadratureSpec, order: int):
    nc = tf.nchart
    n = nc.n
    rule = _effective_rule(nc, quad)
    s2t = 2.0 * np.sqrt(t)

    if rule in ("hermite", "mc"):
        if rule == "hermite":
            # Hermite never runs on ode charts, so the geometry depends on
            # |x| alone; a diagonal a then makes every integrand even in
            # each coordinate (eta^2 and its gradient enter through |x|^2,
            # x.a.x and |a x|^2), and mirror nodes give identical values
            fold = not np.any(tf.a - np.diag(np.diagonal(tf.a)))
            Z, z2, zn, W = _hermite_nodes(n, order, fold)
        else:
            rng = np.random.default_rng(quad.seed)
            count = quad.mc_samples if order >= quad.order else quad.mc_samples // 2
            Z = rng.normal(scale=np.sqrt(0.5), size=(count, n))
            z2 = np.einsum("mi,mi->m", Z, Z)
            zn = np.sqrt(z2)
            W = np.full(count, 1.0 / count)
        X = s2t * Z
        r = s2t * zn
        return _accumulate(tf, t, X, r, z2, W)

    # radial_sphere
    kinks = (tf.r_s / (2.0 * s2t), tf.r_s / s2t)  # cutoff corners in z-radius
    c_eff = min(quad.c_trunc, tf.r_s / s2t)  # integrand vanishes past support
    rho, wr = _radial_nodes(order, c_eff, kinks)
    if nc.kind == "ode":
        # the angular rule is pinned at chart build time; order changes
        # (including the error-estimate drop) only refine the radial part
        dirs, wd = _ray_rule(nc, nc.rule_key or (n, quad.order, quad.seed))
        geom = nc.ray_tables(s2t * rho, want_sc=True)
    else:
        dirs, wd = sphere_rule(n, order, quad.seed)
        geom = nc.radial_geometry(s2t * rho)
    nd, nr = dirs.shape[0], rho.shape[0]
    X = (dirs[:, None, :] * (s2t * rho)[None, :, None]).reshape(-1, n)
    r = np.broadcast_to(s2t * rho, (nd, nr)).ravel()
    radial_w = wr * rho ** (n - 1) * np.exp(-(rho**2))
    W = wd[:, None] * radial_w[None, :] / np.pi ** (n / 2.0)
    return _accumulate(tf, t, X, r, rho**2, W, geom)


def eval_components(
    tf: TestFunction, t: float, quad: QuadratureSpec = QuadratureSpec(),
    want_err: bool = True,
) -> Components:
    """Mass, entropy, Dirichlet energy and scalar-curvature integral of u^2
    at time t, with error estimates from an order-dropped re-evaluation."""
    if t <= 0:
        raise ConfigInvalid("t must be positive")
    if t > (tf.r_s / quad.c_trunc) ** 2:
        raise TimeTooLarge(
            f"t={t} too large for support {tf.r_s} at truncation {quad.c_trunc}: "
            "the Gaussian no longer fits inside the cutoff"
        )
    hi = _eval_once(tf, t, quad, quad.order)
    if hi[0] <= 0:
        raise QuadratureNotConverged("mass came out nonpositive")
    errs, nodes = {}, hi[4]
    if want_err:
        lo = _eval_once(tf, t, quad, quad.order - quad.err_drop)
        for name, a, b in zip(
            ("mass", "entropy", "dirichlet", "sc_integral"), hi, lo
        ):
            errs[name] = abs(a - b)
        nodes += lo[4]
    return Components(t, *hi[:4], errs, nodes)


def _L_of(comp: Components, n: int) -> float:
    t, M = comp.t, comp.mass
    return (
        4.0 * t * comp.dirichlet
        - comp.entropy
        + M * np.log(M)
        - (n + (n / 2.0) * np.log(4 * np.pi * t)) * M
    )


def _L_err(comp: Components, n: int) -> float:
    t, M = comp.t, comp.mass
    e = comp.errs
    if not e:
        return 0.0
    return (
        4.0 * t * e["dirichlet"]
        + e["entropy"]
        + (abs(np.log(M)) + 1.0 + n + (n / 2.0) * abs(np.log(4 * np.pi * t)))
        * e["mass"]
    )


def eval_L(tf, t, quad=QuadratureSpec(), want_err=True):
    """Log-Sobolev-type deficit of u at time t: (value, error estimate,
    nodes evaluated)."""
    comp = eval_components(tf, t, quad, want_err)
    return _L_of(comp, tf.nchart.n), _L_err(comp, tf.nchart.n), comp.nodes


def eval_L_normalized(tf, t, quad=QuadratureSpec(), want_err=True):
    """Deficit of the unit-mass rescaling u / sqrt(mass), as eval_L."""
    comp = eval_components(tf, t, quad, want_err)
    n = tf.nchart.n
    val = _L_of(comp, n) / comp.mass
    err = (_L_err(comp, n) + abs(val) * comp.errs.get("mass", 0.0)) / comp.mass
    return val, err, comp.nodes


def eval_W_normalized(tf, t, quad=QuadratureSpec(), want_err=True):
    """Entropy functional (deficit plus t times the curvature integral) of
    the unit-mass rescaling, as eval_L."""
    comp = eval_components(tf, t, quad, want_err)
    n = tf.nchart.n
    val = (_L_of(comp, n) + t * comp.sc_integral) / comp.mass
    err = (
        _L_err(comp, n)
        + t * comp.errs.get("sc_integral", 0.0)
        + abs(val) * comp.errs.get("mass", 0.0)
    ) / comp.mass
    return val, err, comp.nodes


# ---------------------------------------------------------------------------
# generic Gaussian integrals (the moment bridge) and volumes


def gaussian_integral(
    n: int,
    t: float,
    G,
    quad: QuadratureSpec = QuadratureSpec(),
    rule: str | None = None,
):
    """pi^{-n/2} integral of exp(-|z|^2) G(x) dz with x = 2 sqrt(t) z.

    Equivalently the integral of the heat-kernel weight H^2 against G on
    flat space.  G maps (m, n) points to (m,) values.  Returns (value,
    error estimate)."""
    rule = rule or ("hermite" if n <= 4 else "mc")

    def once(order):
        if rule == "hermite":
            Z, _, _, W = _hermite_nodes(n, order)
        elif rule == "radial_sphere":
            rho, wr = _radial_nodes(order, quad.c_trunc)
            dirs, wd = sphere_rule(n, order, quad.seed)
            Z = (dirs[:, None, :] * rho[None, :, None]).reshape(-1, n)
            radial_w = wr * rho ** (n - 1) * np.exp(-(rho**2))
            W = (wd[:, None] * radial_w[None, :]).ravel() / np.pi ** (n / 2.0)
        elif rule == "mc":
            rng = np.random.default_rng(quad.seed)
            cnt = quad.mc_samples if order >= quad.order else quad.mc_samples // 2
            Z = rng.normal(scale=np.sqrt(0.5), size=(cnt, n))
            W = np.full(cnt, 1.0 / cnt)
        else:
            raise ConfigInvalid(f"unknown rule {rule!r}")
        return float(np.dot(W, np.asarray(G(2.0 * np.sqrt(t) * Z))))

    hi = once(quad.order)
    lo = once(quad.order - quad.err_drop)
    return hi, abs(hi - lo)


def ball_volume(nchart: NormalChart, r: float, order: int = 64) -> float:
    """Riemannian volume of the geodesic ball of radius r at the center."""
    if r <= 0:
        raise ConfigInvalid("radius must be positive")
    if r > nchart.radius * (1 + 1e-12):
        raise SupportTooLarge("ball radius exceeds the normal chart radius")
    x1, w1 = roots_legendre(order)
    rho = 0.5 * r * (x1 + 1.0)
    wr = 0.5 * r * w1
    n = nchart.n
    if nchart.kind == "ode":
        if nchart.rule_key is None:
            raise ConfigInvalid(
                "ball_volume on an ode normal chart needs the sphere rule "
                "behind its directions; build it with prepare_normal_chart"
            )
        _, wd = _ray_rule(nchart, nchart.rule_key)
        return float(wd @ (nchart.ray_tables(rho).dens @ (wr * rho ** (n - 1))))
    # the density is radial, so the angular integral is the sphere area
    dens = nchart.radial_geometry(rho)[0]
    return float(sphere_area(n) * np.dot(wr, dens * rho ** (n - 1)))


def bishop_gromov_ratio(nchart: NormalChart, radii, K: float) -> np.ndarray:
    """Volume of B(p, r) divided by the space-form ball volume at each r."""
    radii = np.asarray(radii, dtype=float)
    vols = np.array([ball_volume(nchart, float(r)) for r in radii])
    ref = ball_volume_K(nchart.n, K, radii)
    return vols / ref
