"""Gaussian-weighted functionals of localized heat-kernel test functions.

The test function is u = scale * (4 pi t)^{-n/4} exp(-r^2/8t) * eta with
eta^2 = cutoff(r/r_s) * (1 + a_ij x^i x^j + alpha t), clamped below at a
tiny floor, all in normal coordinates at a center point.  The functionals
(mass, entropy, Dirichlet energy, scalar-curvature average) are integrals
against u^2 times the Riemannian volume density.

The substitution x = 2 sqrt(t) z turns each of them into
pi^{-n/2} * integral of exp(-|z|^2) G(z), which the engine computes with
product Gauss-Hermite quadrature (n <= 4) or, in every n, a radial rule
with segment splits at the cutoff kinks (composite_gauss_legendre) times
the rays of ray_bundle: an ode chart's own, else one sphere_rule.  One
node builder serves every rule: unit directions d, z-radii and weights,
laid out as m points or as nd rays times nr radii.

The Dirichlet integrand is |grad u|^2 = u^2 g~^{ij} M_i M_j with the
covector M = grad eta^2 / (2 eta^2) - x/4t.  Along x = r d, with
q = d.a.d and P = 1 + q r^2 + alpha t, grad(x.a.x) = 2 r (q d + w) where
w = a d - q d is orthogonal to d, so

  M = kappa d + beta w,   kappa = d eta^2/dr / (2 eta^2) - r/4t,
                          beta  = r / P.

The Gauss lemma g~^{-1} d = d removes the cross term and fixes the radial
one: g~^{ij} M_i M_j = kappa^2 + beta^2 w.g~^{-1}w.  So each node needs
eta^2, kappa and beta^2 from the test function (one kernel) and density
and w.g~^{-1}w from the normal chart (one geometry call), which one ray
evaluator, TestFunction.on_rays, makes together.  Only the
W-functional adds t times the Sc integral; it alone reads Sc
(NormalChart.scalar), which on an ode chart costs curvature evaluations
at every exp point of its Sc grid.

When a has no off-diagonal entries and the normal chart's geometry is
even in every coordinate (NormalChart.mirror_even) the integrand is too,
so the nodes are folded onto the orthant z >= 0 (resolve_rule).  The
closed forms (flat, or a space form at its origin) always are; an ode
chart is when its bundle was folded, shot at the origin of a mirror-even
chart (charts.MetricChart.mirror_even).  Both product rules fold each
1-D factor by node index (_half_rule): the Hermite grid goes from order^n
nodes to ceil(order/2)^n, with doubled weights off the zero node, and the
2 o^(n-1) directions on S^(n-1) of the sphere rule become ceil(o/2)^(n-2)
(floor(o/2) + 1).  A non-diagonal a, an ode chart shot along the full
rule (off the origin, or on a chart without the mirror symmetry) and
gaussian_integral with its arbitrary G keep the full rule; a non-diagonal
a on a folded bundle is refused.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._numerics import (composite_gauss_legendre, gauss_gegenbauer, read_only,
                        shell_volume)
from ._spaceform import ball_volume_K
from .charts import NormalChart
from .errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    PositivityWarning,
    QuadratureNotConverged,
    SupportTooLarge,
    TimeTooLarge,
)
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
ERR_DROP = 6  # order decrement of the error-estimate rule


@dataclass(frozen=True)
class QuadratureSpec:
    # auto | hermite | radial_sphere; auto is radial_sphere for the
    # functionals, and gaussian_integral takes it as hermite for n <= 4
    rule: str = "auto"
    order: int = 40
    c_trunc: float = 10.0
    # read by nothing: every rule is deterministic, but perfbench's cases
    # still pass seed=, so the field stays until that call drops it
    seed: int = 1234

    def __post_init__(self):
        if self.rule not in ("auto", "hermite", "radial_sphere"):
            raise ConfigInvalid(f"unknown quadrature rule {self.rule!r}")
        if self.order < 8:
            raise ConfigInvalid("quadrature order below 8")
        if self.c_trunc <= 3.0:
            raise ConfigInvalid("truncation radius must exceed 3")


# arrays from this size up evaluate the smoothstep beyond s = 1/2 alone;
# below it the masking costs more than the polynomial it skips
_PLATEAU_MASK_MIN = 1024


def _smoothstep_pair(s):
    w = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w), -60.0 * (w * (1.0 - w)) ** 2


def _cutoff_pair(s):
    """cutoff and cutoff_prime at s, both from one clipped ramp variable.
    On the plateau s <= 1/2 they are exactly 1 and -0, which large arrays
    fill in without evaluating the smoothstep there."""
    s = np.asarray(s, dtype=float)
    if s.size < _PLATEAU_MASK_MIN:
        return _smoothstep_pair(s)
    cut, dcut = np.ones(s.shape), np.full(s.shape, -0.0)
    outer = ~(s <= 0.5)  # NaN takes the smoothstep too
    cut[outer], dcut[outer] = _smoothstep_pair(s[outer])
    return cut, dcut


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
        a = profile_matrix(self.nchart.n, None, self.a)
        self.a = 0.5 * (a + a.T)
        if self.r_s <= 0:
            raise ConfigInvalid("support radius must be positive")
        if self.r_s > self.nchart.radius * (1 + 1e-12):
            raise SupportTooLarge(
                f"r_s={self.r_s} exceeds normal chart radius {self.nchart.radius}"
            )

    def eta2_with_grad(self, q, r, t: float):
        """(eta^2, kappa, beta^2) along rays x = r d, with q = d.a.d
        broadcast against the radii r.

        The kernel covector grad eta^2 / (2 eta^2) - x/4t is kappa d + beta w
        with w = a d - q d; see the module docstring.  eta^2 is floored at
        ETA_FLOOR, and on the clamped set its gradient is zero: kappa =
        -r/4t and beta^2 = 0 there."""
        cut, dcut = _cutoff_pair(r / self.r_s)
        poly = q * (r * r)
        poly += 1.0
        poly += self.alpha * t
        val = cut * poly
        live = val > ETA_FLOOR
        np.maximum(val, ETA_FLOOR, out=val)
        # kappa + r/4t = (d eta^2/dr) / (2 eta^2), zero on the clamped set
        kappa = (0.5 * dcut / self.r_s) * poly
        kappa += (cut * r) * q
        kappa *= live
        kappa /= val
        kappa -= r / (4.0 * t)
        beta2 = np.divide(r, poly, out=np.zeros(val.shape), where=live)
        beta2 *= beta2
        val *= self.scale**2
        return val, kappa, beta2

    def on_rays(self, dirs, r, t: float):
        """(eta^2, kappa, beta^2, density, w.g~^{-1}w) at x = r d from the
        kernel and the chart's geometry call: unit directions (m, n)
        against radii (m,), or rays (nd, 1, n) against radii (nr,), on a
        closed-form chart also (nd, nr)."""
        ad = dirs @ self.a
        q = np.einsum("...i,...i->...", dirs, ad)
        eta2, kappa, beta2 = self.eta2_with_grad(q, r, t)
        dens, wgw = self.nchart.geometry(r, ad - q[..., None] * dirs)
        return eta2, kappa, beta2, dens, wgw


def profile_matrix(n: int, curv: CurvatureData | None,
                   mode: str | np.ndarray) -> np.ndarray:
    """The matrix a of build_test_function's mode: Ricci/3 at the center
    for 'optimal_a' (needs curv), zero for 'zero', an explicit matrix as
    is, which must be (n, n) (ConfigInvalid otherwise)."""
    if not isinstance(mode, str):
        a = np.asarray(mode, dtype=float)
        if a.shape != (n, n):
            raise ConfigInvalid(f"a has shape {a.shape}, chart has n={n}")
        return a
    if mode == "optimal_a":
        if curv is None:
            raise ConfigInvalid("optimal_a needs curvature data at the center")
        return curv.rc / 3.0
    if mode == "zero":
        return np.zeros((n, n))
    raise ConfigInvalid(f"unknown test-function mode {mode!r}")


def is_diagonal(a) -> bool:
    """Whether a is square with no off-diagonal entries: then x.a.x is
    even in every coordinate."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(
        np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)))


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
    a = profile_matrix(nchart.n, curv, mode)
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


# one expansion's main and error rules, for two dimensions: a full n = 4
# order-40 grid alone is 137 MB
@lru_cache(maxsize=4)
def _hermite_nodes(n: int, order: int, fold: bool = False):
    """Product Gauss-Hermite nodes z = |z| d as unit directions d (the
    zero node gets d = 0), radii |z| and weights.

    fold builds the grid from the half rule z >= 0 on every axis
    (_half_rule), each positive node carrying its mirror's weight; it
    integrates exactly the functions even in every coordinate."""
    z1, w1 = np.polynomial.hermite.hermgauss(order)  # symmetric: z1 == -z1[::-1]
    if fold:
        z1, w1 = _half_rule(z1, w1)
    zs = np.stack(
        [g.ravel() for g in np.meshgrid(*([z1] * n), indexing="ij")], axis=-1
    )
    ws = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([w1] * n), indexing="ij")], -1),
        axis=-1,
    )
    zn = np.sqrt(np.einsum("mi,mi->m", zs, zs))
    zs /= np.where(zn > 0.0, zn, 1.0)[:, None]
    return read_only(zs, zn, ws / np.pi ** (n / 2.0))


def _half_rule(x, w):
    """A 1-D rule symmetric about 0 (nodes ascending) folded onto x >= 0
    by node index: the upper half keeps its nodes and doubles their
    weights, except the middle node of an odd count, which stays single.
    The index, not the sign, decides: cos(pi/2) is 6.1e-17, not 0."""
    m = x.size
    wf = 2.0 * w[m // 2 :]
    if m % 2:
        wf[0] = w[m // 2]
    return x[m // 2 :], wf


def _azimuth(m: int, fold: bool):
    """Trapezoid rule at the angles 2 pi k / m (m even): cosines, sines
    and weights.  fold keeps the quadrant 4k <= m, where the reflections
    of both axes leave 2 copies of k = 0 and of 4k = m and 4 of every
    other angle."""
    k = np.arange(m // 4 + 1 if fold else m)
    th = 2 * np.pi * k / m
    mult = np.where((k == 0) | (4 * k == m), 2.0, 4.0) if fold else np.ones(m)
    return np.cos(th), np.sin(th), mult * (2 * np.pi / m)


# directions of a full sphere rule at most: o <= 128 on S^2, 25 on S^3,
# 11 on S^4, 6 on S^5 (the radial order is never cut)
_MAX_DIRECTIONS = 2**15


@lru_cache(maxsize=64)
def sphere_rule(n: int, order: int, fold: bool = False):
    """The product rule on S^{n-1} in hyperspherical coordinates (Stroud,
    Approximate Calculation of Multiple Integrals, 1971): directions and
    weights summing to the sphere's area, exact to degree 2 o - 1.

    Polar factors run outermost first, each giving the next coordinate
    x_m, m = n, ..., 3, from the last: o-point Gauss-Gegenbauer for the
    weight (1 - v^2)^((m-3)/2).  The trapezoid azimuth takes x1, x2 on
    what their sines leave, at 2 o angles (max(4 o, 16) on S^1).  o is
    order, lowered until the full rule holds at most _MAX_DIRECTIONS.
    fold folds every factor onto its nonnegative half by node index
    (`_half_rule`, `_azimuth`): the rule on the orthant, exact on the
    functions even in every coordinate."""

    def azimuths(o):
        return max(4 * o, 16) if n == 2 else 2 * o

    o = order
    while o ** (n - 2) * azimuths(o) > _MAX_DIRECTIONS:
        o -= 1
    coords, sines, wts = [], np.ones(1), np.ones(1)
    for m in range(n, 2, -1):
        u, wu = gauss_gegenbauer(o, (m - 2) / 2)
        if fold:
            u, wu = _half_rule(u, wu)
        coords = [np.repeat(x, u.size) for x in coords]
        coords.append(np.outer(sines, u).ravel())
        sines = np.outer(sines, np.sqrt(1 - u**2)).ravel()
        wts = np.outer(wts, wu).ravel()
    c, s, wa = _azimuth(azimuths(o), fold)
    coords = [np.repeat(x, c.size) for x in coords]
    dirs = np.stack(
        [np.outer(sines, c).ravel(), np.outer(sines, s).ravel(), *coords[::-1]],
        -1,
    )
    return read_only(dirs, np.outer(wts, wa).ravel())


def _radial_nodes(order: int, c: float, kinks=()):
    """Gauss-Legendre nodes on [0, c] split at 3.0 and at each kink."""
    brk = sorted({0.0, min(3.0, c), c} | {k for k in kinks if 0.0 < k < c})
    return composite_gauss_legendre(brk, order)


def ray_bundle(n: int, order: int, fold: bool = False, nchart=None):
    """Directions (nd, n) and weights (nd,) of a radial rule's rays: an
    ode nchart's own bundle, pinned when it was shot (order then refines
    the radii alone), else sphere_rule(n, order, fold)."""
    if nchart is not None and nchart.kind == "ode":
        return nchart.dirs, nchart.weights
    return sphere_rule(n, order, fold)


def _nodes(rule, n, order, c, kinks=(), fold=False, nchart=None):
    """Unit directions d, z-radii rho and weights of one rule; the weights
    carry the Gaussian factor and the pi^{-n/2} normalization.

    hermite lays m nodes out as d (m, n), rho (m,), weights (m,);
    radial_sphere as rays d (nd, 1, n) times radii rho (nr,) on [0, c]
    split at the kinks, weights (nd, nr).  fold takes the hermite grid and
    the radial_sphere directions on the orthant (see resolve_rule).  On an
    ode nchart the rays are the chart's own bundle, folded or not."""
    if rule == "hermite":
        if n > 4:  # order^n nodes: 1e8 at the default order and n = 5
            raise ConfigInvalid("product Hermite grids are limited to n <= 4")
        return _hermite_nodes(n, order, fold)
    if rule != "radial_sphere":
        raise ConfigInvalid(f"unknown rule {rule!r}")
    rho, wr = _radial_nodes(order, c, kinks)
    dirs, wd = ray_bundle(n, order, fold, nchart)
    radial_w = wr * rho ** (n - 1) * np.exp(-(rho**2))
    wts = wd[:, None] * radial_w[None, :] / np.pi ** (n / 2.0)
    return dirs[:, None, :], rho, wts


def resolve_rule(tf: TestFunction, quad: QuadratureSpec):
    """The rule quad runs on tf's chart ('auto' resolved to radial_sphere)
    and whether its nodes fold onto the orthant.

    A diagonal a makes every integrand even in each coordinate when the
    normal chart is mirror-even (eta^2 and its gradient enter through
    |x|^2, x.a.x and |a x|^2), so mirror nodes give identical values.  One
    rule serves every chart: fold when a is diagonal and
    NormalChart.mirror_even holds.  A closed-form chart always is, and
    there the hermite grid and the radial_sphere product rule fold; an ode
    chart is when its bundle is folded, and its nodes are that bundle.  A
    folded bundle covers the orthant alone, so a non-diagonal a there
    raises ConfigInvalid (prepare_normal_chart shoots the full bundle for
    one)."""
    nc = tf.nchart
    rule = "radial_sphere" if quad.rule == "auto" else quad.rule
    if nc.kind == "ode" and rule != "radial_sphere":
        raise ConfigInvalid("ode normal charts support only the radial_sphere rule")
    diagonal = is_diagonal(tf.a)
    if nc.folded and not diagonal:
        raise ConfigInvalid(
            "a non-diagonal a needs the full ray bundle; this normal chart "
            "holds the orthant alone"
        )
    return rule, diagonal and nc.mirror_even


# ---------------------------------------------------------------------------
# core evaluation


@dataclass
class Components:
    """Raw functional pieces at one time, with per-piece error estimates."""

    t: float
    mass: float
    entropy: float
    dirichlet: float
    sc_integral: float | None  # None unless asked for (want_sc)
    errs: dict = field(default_factory=dict)
    nodes: int = 0  # nodes evaluated, error-estimate rule included


def _eval_once(tf: TestFunction, t: float, quad: QuadratureSpec, order: int,
               want_sc: bool = True):
    """The four sums over the nodes x = 2 sqrt(t) rho d of one rule (the
    Sc integral None unless want_sc), and the node count.  Per node
    TestFunction.on_rays gives eta^2, kappa, beta^2, the chart density
    and w.g~^{-1}w, and the Dirichlet integrand is eta^2 (kappa^2 +
    beta^2 w.g~^{-1}w)."""
    nc = tf.nchart
    n = nc.n
    # folded onto the orthant for a diagonal a on a mirror-even chart
    rule, fold = resolve_rule(tf, quad)
    s2t = 2.0 * np.sqrt(t)
    dirs, rho, wts = _nodes(
        rule, n, order,
        c=min(quad.c_trunc, tf.r_s / s2t),  # integrand vanishes past support
        kinks=(tf.r_s / (2.0 * s2t), tf.r_s / s2t),  # cutoff corners in z
        fold=fold, nchart=nc,
    )
    r = s2t * rho
    eta2, kappa, beta2, dens, wgw = tf.on_rays(dirs, r, t)
    base = eta2 * dens
    logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * t) - rho * rho
    mass = float(np.vdot(wts, base))
    entropy = float(np.vdot(wts, base * logu2))
    dirichlet = float(np.vdot(wts, base * (kappa * kappa + beta2 * wgw)))
    sc_integral = float(np.vdot(wts, base * nc.scalar(r))) if want_sc else None
    return mass, entropy, dirichlet, sc_integral, wts.size


def check_time(tf: TestFunction, t: float, c_trunc: float,
               monotone: bool = False):
    """Checks, in this order, that t > 0, when monotone that u is radially
    nonincreasing from a live apex (LevelSetDegenerate), and that the
    Gaussian fits inside the cutoff, t <= (r_s / c_trunc)^2.

    Along x = r d, with q = d.a.d and P = 1 + alpha t + q r^2,
    d log u^2/dr = cut'/(r_s cut) + r (4 t q - P) / (2 t P), where
    cut' <= 0, cut = 1 on [0, r_s/2] and eta^2 is clamped (u decays with
    the Gaussian) where P <= 0.  Since q <= lambda_max(a), with equality
    along the top eigenvector, the test is exact: 1 + alpha t > 0 and
    4 t lambda_max(a) <= 1 + alpha t."""
    if t <= 0:
        raise ConfigInvalid("t must be positive")
    if monotone:
        p0, lam = 1.0 + tf.alpha * t, float(np.linalg.eigvalsh(tf.a)[-1])
        if p0 <= 0 or 4.0 * t * lam > p0:
            raise LevelSetDegenerate(
                f"u is not radially nonincreasing from a live apex: 1 + alpha t "
                f"= {p0:.6g} must be positive and at least 4 t lambda_max(a) = "
                f"{4.0 * t * lam:.6g}; the level sets are not star-shaped")
    if t > (tf.r_s / c_trunc) ** 2:
        raise TimeTooLarge(
            f"t={t} too large for support {tf.r_s} at truncation {c_trunc}: "
            "the Gaussian no longer fits inside the cutoff"
        )


def eval_components(
    tf: TestFunction, t: float, quad: QuadratureSpec = QuadratureSpec(),
    want_err: bool = True, want_sc: bool = True,
) -> Components:
    """Mass, entropy, Dirichlet energy and, when want_sc, the
    scalar-curvature integral of u^2 at time t (None otherwise), with
    error estimates from a re-evaluation at order - ERR_DROP."""
    check_time(tf, t, quad.c_trunc)
    hi = _eval_once(tf, t, quad, quad.order, want_sc)
    if hi[0] <= 0:
        raise QuadratureNotConverged("mass came out nonpositive")
    errs, nodes = {}, hi[4]
    if want_err:
        lo = _eval_once(tf, t, quad, quad.order - ERR_DROP, want_sc)
        for name, a, b in zip(
            ("mass", "entropy", "dirichlet", "sc_integral"), hi, lo
        ):
            if a is not None:
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


def eval_L(tf, t, quad=QuadratureSpec()):
    """Log-Sobolev-type deficit of u at time t: (value, error estimate,
    nodes evaluated)."""
    comp = eval_components(tf, t, quad, want_sc=False)
    return _L_of(comp, tf.nchart.n), _L_err(comp, tf.nchart.n), comp.nodes


def eval_L_normalized(tf, t, quad=QuadratureSpec()):
    """Deficit of the unit-mass rescaling u / sqrt(mass), as eval_L."""
    comp = eval_components(tf, t, quad, want_sc=False)
    n = tf.nchart.n
    val = _L_of(comp, n) / comp.mass
    err = (_L_err(comp, n) + abs(val) * comp.errs.get("mass", 0.0)) / comp.mass
    return val, err, comp.nodes


def eval_W_normalized(tf, t, quad=QuadratureSpec()):
    """Entropy functional (deficit plus t times the curvature integral) of
    the unit-mass rescaling, as eval_L."""
    comp = eval_components(tf, t, quad, want_sc=True)
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


def gaussian_integral(n: int, t: float, G, quad: QuadratureSpec = QuadratureSpec()):
    """pi^{-n/2} integral of exp(-|z|^2) G(x) dz with x = 2 sqrt(t) z.

    Equivalently the integral of the heat-kernel weight H^2 against G on
    flat space.  G maps (m, n) points to (m,) values.  The rule is
    quad.rule, 'auto' taken as hermite for n <= 4 and radial_sphere
    beyond.  Returns (value, error estimate)."""
    rule = quad.rule
    if rule == "auto":
        rule = "hermite" if n <= 4 else "radial_sphere"

    def once(order):
        dirs, rho, W = _nodes(rule, n, order, quad.c_trunc)
        X = ((2.0 * np.sqrt(t) * rho)[..., None] * dirs).reshape(-1, n)
        return float(np.dot(W.ravel(), np.asarray(G(X))))

    hi = once(quad.order)
    lo = once(quad.order - ERR_DROP)
    return hi, abs(hi - lo)


def ball_volume(nchart: NormalChart, r):
    """Riemannian volume of the geodesic ball of radius r at the center
    (vectorized in r): the integral of the chart's sphere areas."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigInvalid("radius must be positive")
    if np.any(r > nchart.radius * (1 + 1e-12)):
        raise SupportTooLarge("ball radius exceeds the normal chart radius")
    out = shell_volume(nchart.shell, r)
    return out if out.ndim else float(out)


def bishop_gromov_ratio(nchart: NormalChart, radii, K: float) -> np.ndarray:
    """Volume of B(p, r) divided by the space-form ball volume at each r."""
    radii = np.asarray(radii, dtype=float)
    return ball_volume(nchart, radii) / ball_volume_K(nchart.n, K, radii)
