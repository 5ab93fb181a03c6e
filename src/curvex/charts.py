"""Model geometries as coordinate charts, and curvature by differentiation.

A chart is a smooth map from an axis-aligned box to symmetric positive
matrices.  The catalog covers flat space, space forms in normal
coordinates, a sphere-times-line product, and conformal perturbations of
flat space.  Curvature comes from an analytic callback when the geometry
is homogeneous, otherwise from the chart's Christoffel symbols and their
first derivatives (the higher invariants nest central differences of the
resulting scalar and Ricci fields).

Every chart has one geometry call, christoffel(pts) -> (g, g^{-1}, Gamma,
dGamma), and the route behind it follows from the input: conformal charts
whose profile carries its derivatives (the PROFILES entries) get closed
forms, every other chart (custom metrics, plain-callable profiles, the
product chart) Richardson-extrapolated central differences of the metric
map.  Geodesic shooting and the curvature fields both go through it.

Sign convention: R_ijij = K on a space form of curvature K, so
rc_ij = sum_s rm_isjs and sc = n(n-1)K.

Normal charts wrap the exponential map at a center point.  Flat charts and
space forms centered at the chart origin use closed forms in the geodesic
radius alone; everything else ('ode' charts) integrates the geodesic
equation together with its variational (Jacobi) system along a fixed bundle
of rays, since that is the shape the radial-spherical quadrature consumes.
An 'ode' chart keeps one radius-major table, built once at the sample
radii: density, g~^{-1} and exp point for every ray, under one cubic
spline in r, so reading it at the quadrature radii inverts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

from ._spaceform import sn_over_r
from .errors import (
    DifferentiationUnstable,
    DimensionMismatch,
    GeodesicLeftDomain,
    InvalidSpec,
    JacobianSingular,
    OutOfDomain,
)
from .tensor_core import MAX_DIM, CurvatureData, space_form_curvature

__all__ = [
    "Box",
    "Perturbation",
    "ModelSpec",
    "MetricChart",
    "NormalChart",
    "make_chart",
    "curvature_at",
    "scalar_curvature_batch",
    "build_normal_chart",
    "density_series",
    "DensitySeries",
    "PROFILES",
]

_EPS16 = np.finfo(float).eps ** (1.0 / 6.0)  # ~2.45e-3, base differencing step


@dataclass
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise InvalidSpec("degenerate domain box")

    @classmethod
    def cube(cls, n: int, halfwidth: float):
        return cls(-halfwidth * np.ones(n), halfwidth * np.ones(n))

    def contains(self, pts, margin: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all(
            (pts >= self.lo + margin) & (pts <= self.hi - margin), axis=-1
        )

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(min((x - self.lo).min(), (self.hi - x).min()))


class RadialProfile:
    """A profile phi(s) of s = |x|^2 that also knows its derivatives.

    Called on (m, n) points it returns phi(|x|^2); `jet` adds the gradient
    2 phi'(s) x and the Hessian 2 phi'(s) I + 4 phi''(s) x x^T, which
    give conformal charts their closed-form Christoffel symbols.
    """

    def __init__(self, phi: Callable, dphi: Callable, d2phi: Callable):
        self.phi, self.dphi, self.d2phi = phi, dphi, d2phi

    def __call__(self, X):
        return self.phi(np.sum(np.atleast_2d(X) ** 2, axis=-1))

    def jet(self, X):
        """(value (m,), gradient (m, n), Hessian (m, n, n)) at X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = np.sum(X**2, axis=-1)
        d1, d2 = self.dphi(s)[:, None], self.d2phi(s)[:, None, None]
        hess = 4.0 * d2 * X[:, :, None] * X[:, None, :]
        hess += 2.0 * d1[:, :, None] * np.eye(X.shape[1])
        return self.phi(s), 2.0 * d1 * X, hess


_GAUSS_W2 = 0.5625  # squared width 0.75 of the Gaussian bump

PROFILES: dict[str, Callable] = {
    "quartic_bump": RadialProfile(
        lambda s: s + s * s, lambda s: 1.0 + 2.0 * s, lambda s: np.full_like(s, 2.0)
    ),
    "gaussian_bump": RadialProfile(
        lambda s: np.exp(-s / _GAUSS_W2),
        lambda s: -np.exp(-s / _GAUSS_W2) / _GAUSS_W2,
        lambda s: np.exp(-s / _GAUSS_W2) / _GAUSS_W2**2,
    ),
}


@dataclass
class Perturbation:
    eps: float
    profile: Callable  # (m, n) -> (m,)
    name: str = "custom"


@dataclass
class ModelSpec:
    kind: str  # flat | space_form | product_sphere_line | conformal_flat
    n: int
    K: float = 0.0
    perturbation: Perturbation | None = None
    halfwidth: float | None = None


@dataclass
class MetricChart:
    """A metric on a coordinate box.

    `christoffel(pts) -> (g, g^{-1}, Gamma, dGamma)` is the chart's one
    geometry call below curvature, with Gamma[:,k,i,j] = Gamma^k_ij and
    dGamma[:,r,k,i,j] = d_r Gamma^k_ij.  Left unset, it differentiates
    `metric` numerically (_JetEngine.gamma).
    """

    n: int
    domain: Box
    metric: Callable  # (m, n) -> (m, n, n), vectorized
    kind: str = "custom"
    K: float = 0.0
    curvature_callback: Callable | None = None  # x -> CurvatureData
    constant_sc: float | None = None
    christoffel: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.christoffel is None:
            self.christoffel = _JetEngine(self).gamma

    @property
    def christoffel_route(self) -> str:
        """'finite_difference' or 'closed_form'."""
        fd = isinstance(getattr(self.christoffel, "__self__", None), _JetEngine)
        return "finite_difference" if fd else "closed_form"


def _default_halfwidth(spec: ModelSpec) -> float:
    if spec.kind == "flat":
        return 3.0
    if spec.kind == "space_form":
        if spec.K > 0:
            return 0.98 * np.pi / (np.sqrt(spec.K) * np.sqrt(spec.n))
        return 2.0
    if spec.kind == "product_sphere_line":
        if spec.K > 0:
            return min(2.0, 0.98 * np.pi / (np.sqrt(spec.K) * np.sqrt(2.0)))
        return 2.0
    return 1.5  # conformal_flat


def _space_form_metric(n: int, K: float):
    def metric(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        r = np.linalg.norm(X, axis=-1)
        f = sn_over_r(K, r) ** 2  # tangential eigenvalue
        rsafe = np.where(r < 1e-14, 1.0, r)
        P = X[:, :, None] * X[:, None, :] / rsafe[:, None, None] ** 2
        eye = np.broadcast_to(np.eye(n), (m, n, n))
        g = P + f[:, None, None] * (eye - P)
        # at the origin the projector is ill-defined but the metric is delta
        g[r < 1e-14] = np.eye(n)
        return g

    return metric


def make_chart(spec: ModelSpec) -> MetricChart:
    """Build a catalog chart.  Positive-definiteness is spot-checked by
    sampling the domain; a sphere chart must fit strictly inside the cut
    locus, which bounds its halfwidth."""
    if not (2 <= spec.n <= MAX_DIM):
        raise InvalidSpec(f"n={spec.n} outside 2..{MAX_DIM}")
    hw = spec.halfwidth if spec.halfwidth is not None else _default_halfwidth(spec)
    if hw <= 0:
        raise InvalidSpec("halfwidth must be positive")
    n = spec.n
    box = Box.cube(n, hw)

    if spec.kind == "flat":
        eye = np.eye(n)

        def metric(X):
            X = np.atleast_2d(X)
            return np.broadcast_to(eye, (X.shape[0], n, n)).copy()

        chart = MetricChart(
            n, box, metric, kind="flat", K=0.0,
            curvature_callback=lambda x: space_form_curvature(n, 0.0),
            constant_sc=0.0,
        )

    elif spec.kind == "space_form":
        if spec.K > 0 and hw * np.sqrt(n) >= np.pi / np.sqrt(spec.K):
            raise InvalidSpec(
                "space form chart leaves the injectivity ball: "
                f"halfwidth*sqrt(n)={hw*np.sqrt(n):.3f} >= pi/sqrt(K)"
            )
        chart = MetricChart(
            n, box, _space_form_metric(n, spec.K), kind="space_form", K=spec.K,
            curvature_callback=lambda x: space_form_curvature(n, spec.K),
            constant_sc=n * (n - 1) * spec.K,
        )

    elif spec.kind == "product_sphere_line":
        if spec.K == 0:
            raise InvalidSpec("product chart needs K != 0 in the sphere factor")
        if n < 3:
            raise InvalidSpec("product chart needs n >= 3")
        if spec.K > 0 and hw * np.sqrt(2.0) >= np.pi / np.sqrt(spec.K):
            raise InvalidSpec("sphere factor leaves its injectivity ball")
        sphere_metric = _space_form_metric(2, spec.K)
        K = spec.K

        def metric(X):
            X = np.atleast_2d(X)
            m = X.shape[0]
            g = np.zeros((m, n, n))
            g[:, :2, :2] = sphere_metric(X[:, :2])
            idx = np.arange(2, n)
            g[:, idx, idx] = 1.0
            return g

        P = np.zeros((n, n))
        P[0, 0] = P[1, 1] = 1.0
        rm = K * (
            np.einsum("ik,jl->ijkl", P, P) - np.einsum("il,jk->ijkl", P, P)
        )
        curv = CurvatureData.from_rm(
            rm, grad_sc=np.zeros(n), lap_sc=0.0,
            hess_rc=np.zeros((n,) * 4), grad_rc=np.zeros((n,) * 3),
        )
        chart = MetricChart(
            n, box, metric, kind="product_sphere_line", K=spec.K,
            curvature_callback=lambda x: curv, constant_sc=2 * K,
        )

    elif spec.kind == "conformal_flat":
        pert = spec.perturbation
        if pert is None:
            raise InvalidSpec("conformal_flat needs a perturbation")
        eps, profile = pert.eps, pert.profile

        def metric(X):
            X = np.atleast_2d(X)
            f = eps * np.asarray(profile(X), dtype=float)
            eye = np.broadcast_to(np.eye(n), (X.shape[0], n, n))
            return np.exp(2.0 * f)[:, None, None] * eye

        chart = MetricChart(
            n, box, metric, kind="conformal_flat", K=0.0,
            christoffel=(
                _conformal_christoffel(n, eps, profile.jet)
                if hasattr(profile, "jet") else None
            ),
        )

    else:
        raise InvalidSpec(f"unknown chart kind {spec.kind!r}")

    _check_positive_definite(chart)
    return chart


def _conformal_christoffel(n: int, eps: float, jet: Callable):
    """Closed-form geometry of g = exp(2f) delta with f = eps * profile:
    Gamma^k_ij = d^k_i f_j + d^k_j f_i - d_ij f_k and d_r Gamma^k_ij =
    d^k_i f_jr + d^k_j f_ir - d_ij f_kr (Besse, Einstein Manifolds, 1.J).
    Both are a 0/+-1 tensor C[s,k,i,j] applied to df or to the Hessian."""
    eye = np.eye(n)
    C = (
        eye[None, :, :, None] * eye[:, None, None, :]
        + eye[None, :, None, :] * eye[:, None, :, None]
        - eye[None, None, :, :] * eye[:, :, None, None]
    ).reshape(n, n**3)

    def christoffel(pts):
        f, df, ddf = (eps * np.asarray(a, dtype=float) for a in jet(pts))
        e2f = np.exp(2.0 * f)[:, None, None]
        gam = (df @ C).reshape(-1, n, n, n)
        dgam = (ddf @ C).reshape(-1, n, n, n, n)
        return e2f * eye, eye / e2f, gam, dgam

    return christoffel


def _check_positive_definite(chart: MetricChart, samples: int = 128):
    rng = np.random.default_rng(7)
    pts = rng.uniform(chart.domain.lo, chart.domain.hi, size=(samples, chart.n))
    g = chart.metric(pts)
    if not np.all(np.isfinite(g)):
        raise InvalidSpec("metric not finite on the domain")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise InvalidSpec("metric not positive definite on the domain") from exc


# ---------------------------------------------------------------------------
# finite-difference jets of the metric and pointwise curvature


class _Stencil:
    """Central-difference stencil of step h around each point.

    Offsets: the centre (if `center`), then +h, -h, +2h, -2h along each
    axis in turn, then for each axis pair k < l the diagonal points
    a h e_k + b h e_l, (a, b) = (1, 1), (1, -1), (-1, 1), (-1, -1), each
    followed by its 2h copy when cross == "richardson" (cross == "plain":
    h only; None: no diagonal points).  First and pure second derivatives
    use the 4th-order 5-point formulas; mixed second derivatives the cross
    stencil, Richardson-combined over h and 2h when asked.
    """

    def __init__(self, n: int, h: float, center: bool = False,
                 cross: str | None = None):
        self.n, self.h, self.center, self.cross = n, h, center, cross
        steps = np.array([h, -h, 2 * h, -2 * h])
        offs = [np.eye(n)[:, None, :] * steps[None, :, None]]
        if center:
            offs.insert(0, np.zeros((1, 1, n)))
        self.pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        if cross is not None:
            scales = (h, 2 * h) if cross == "richardson" else (h,)
            eye = np.eye(n)
            offs.append(np.array([
                s * (a * eye[k] + b * eye[l])
                for k, l in self.pairs
                for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                for s in scales
            ]))
        self.offsets = np.concatenate([o.reshape(-1, n) for o in offs])

    def points(self, pts):
        """Stencil points of every row of pts, point-major: (m * S, n)."""
        return (pts[:, None, :] + self.offsets[None, :, :]).reshape(-1, self.n)

    def derivs(self, vals):
        """Derivatives at the centre from vals[:, s] = f(pts + offsets[s]).

        Returns d1[:, k] = d_k f, and with the centre also
        d2[:, k, l] = d_k d_l f (pure ones only, unless cross is set).
        """
        n, h, m = self.n, self.h, vals.shape[0]
        c = int(self.center)
        axis = vals[:, c : c + 4 * n].reshape(m, n, 4, *vals.shape[2:])
        fp, fm, fp2, fm2 = (axis[:, :, j] for j in range(4))
        d1 = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
        if not self.center:
            return d1
        f0 = vals[:, :1]
        diag = (-(fp2 + fm2) + 16.0 * (fp + fm) - 30.0 * f0) / (12.0 * h * h)
        d2 = np.zeros((m, n, n) + vals.shape[2:])
        idx = np.arange(n)
        d2[:, idx, idx] = diag
        if self.cross is not None and self.pairs:
            ns = 2 if self.cross == "richardson" else 1
            v = vals[:, c + 4 * n :].reshape(m, len(self.pairs), 4, ns,
                                             *vals.shape[2:])
            pp, pm, mp, mm = (v[:, :, j] for j in range(4))
            cr = pp - pm - mp + mm
            mixed = cr[:, :, 0] / (4.0 * h * h)
            if ns == 2:
                mixed = (4.0 * mixed - cr[:, :, 1] / (16.0 * h * h)) / 3.0
            kk, ll = np.array(self.pairs).T
            d2[:, kk, ll] = mixed
            d2[:, ll, kk] = mixed
        return d1, d2


def _fd_step(chart: MetricChart) -> float:
    """Base differencing step, scaled with the domain per the eps^(1/6)
    rule."""
    hw = 0.5 * float((chart.domain.hi - chart.domain.lo).max())
    return _EPS16 * max(1.0, hw)


class _JetEngine:
    """Batched Richardson central differences of a chart's metric map.

    First and second derivatives come from the 4th-order 5-point formulas;
    mixed second derivatives Richardson-combine the 2nd-order cross stencil.
    Steps scale with the domain size per the usual eps^(1/6) rule.
    """

    def __init__(self, chart: MetricChart):
        self.chart = chart
        self.n = chart.n
        self.h = _fd_step(chart)
        self.stencil = _Stencil(self.n, self.h, center=True, cross="richardson")

    def jets(self, pts):
        """g, dg, d2g at pts; dg[:,k] = d_k g, d2g[:,k,l] = d_k d_l g."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = self.chart.metric(self.stencil.points(pts)).reshape(
            pts.shape[0], -1, self.n, self.n
        )
        dg, d2g = self.stencil.derivs(vals)
        return vals[:, 0], dg, d2g

    def gamma(self, pts):
        """(g, g^{-1}, Gamma, dGamma) at pts, the chart's default
        `christoffel`: Gamma[:,k,i,j] = Gamma^k_ij, dGamma[:,r,k,i,j] =
        d_r Gamma^k_ij."""
        g, dg, d2g = self.jets(pts)
        m, n = g.shape[0], self.n
        ginv = np.linalg.inv(g)
        # sym[k,i,j] = d_i g_jk + d_j g_ik - d_k g_ij
        sym = dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg
        gam = 0.5 * (ginv @ sym.reshape(m, n, n * n)).reshape(m, n, n, n)
        dginv = -(ginv[:, None] @ dg @ ginv[:, None])  # -g^-1 (d_r g) g^-1
        dsym = d2g.transpose(0, 1, 4, 2, 3) + d2g.transpose(0, 1, 4, 3, 2) - d2g
        dgam = 0.5 * (
            dginv @ sym.reshape(m, 1, n, n * n)
            + ginv[:, None] @ dsym.reshape(m, n, n, n * n)
        )
        return g, ginv, gam, dgam.reshape(m, n, n, n, n)


def _riemann_lowered(g, gam, dgam):
    """rm[:,a,b,i,j] with rm_ijij = K on a space form (coordinate comps)."""
    r_up = (
        np.einsum("miljk->mlkij", dgam)
        - np.einsum("mjlik->mlkij", dgam)
        + np.einsum("mlis,msjk->mlkij", gam, gam)
        - np.einsum("mljs,msik->mlkij", gam, gam)
    )
    return np.einsum("mal,mlkij->makij", g, r_up)


def _ricci(gam, dgam):
    """rc[:,i,j] = R_ij = d_k Gamma^k_ij - d_j Gamma^k_ki + Gamma^k_kl
    Gamma^l_ij - Gamma^k_jl Gamma^l_ki, the contraction rc_ij = rm^a_iaj of
    _riemann_lowered taken without forming the Riemann tensor."""
    m, n = gam.shape[:2]
    tr = np.einsum("mkkl->ml", gam)
    G = gam.transpose(0, 2, 1, 3)  # G[:,j,k,l] = Gamma^k_jl
    quad = G.reshape(m, n, n * n) @ G.reshape(m, n * n, n)  # [:,j,i]
    return (
        np.einsum("mkkij->mij", dgam)
        - np.einsum("mjkki->mij", dgam)
        + np.einsum("ml,mlij->mij", tr, gam)
        - quad.transpose(0, 2, 1)
    )


def _frame(g):
    """E with E^T g E = I; columns are the orthonormal frame vectors."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).transpose(0, 2, 1)


def _sym_project(rm):
    """Project onto curvature symmetries; also return the pre-projection
    residual as a health metric."""
    a = rm
    a1 = 0.5 * (a - a.transpose(0, 2, 1, 3, 4))
    a2 = 0.5 * (a1 - a1.transpose(0, 1, 2, 4, 3))
    a3 = 0.5 * (a2 + a2.transpose(0, 3, 4, 1, 2))
    resid = float(np.abs(a3 - a).max())
    return a3, resid


class _GenericCurvature:
    """Curvature fields of a chart without an analytic callback, from its
    Christoffel symbols."""

    def __init__(self, chart: MetricChart):
        self.chart = chart
        self.h = _fd_step(chart)

    def rm_frame_batch(self, pts):
        g, ginv, gam, dgam = self.chart.christoffel(pts)
        rm = _riemann_lowered(g, gam, dgam)
        rm_p, resid = _sym_project(rm)
        scale = max(1.0, float(np.abs(rm_p).max()))
        if resid > 1e-5 * scale:
            raise DifferentiationUnstable(
                f"curvature symmetry residual {resid:.2e} exceeds tolerance"
            )
        E = _frame(g)
        rm_f = np.einsum("mia,mjb,mkc,mld,mijkl->mabcd", E, E, E, E, rm_p)
        return rm_f, g, ginv, gam, E

    def sc_batch(self, pts):
        _, ginv, gam, dgam = self.chart.christoffel(pts)
        return np.einsum("mij,mij->m", ginv, _ricci(gam, dgam))

    def rc_gamma_batch(self, pts):
        """Coordinate Ricci components and Christoffels at pts."""
        _, _, gam, dgam = self.chart.christoffel(pts)
        return _ricci(gam, dgam), gam

    def grad_rc_batch(self, pts):
        """nabla_l R_ij (coordinate components) at pts."""
        rc, gam = self.rc_gamma_batch(pts)
        st = _Stencil(self.chart.n, 1.5 * self.h)
        pts = np.atleast_2d(pts)
        rc_st, _ = self.rc_gamma_batch(st.points(pts))
        # drc[:,l,i,j] = d_l rc_ij
        drc = st.derivs(rc_st.reshape(pts.shape[0], -1, *rc_st.shape[1:]))
        # nabla_l R_ij = d_l R_ij - Gam^q_li R_qj - Gam^q_lj R_iq
        return (
            drc
            - np.einsum("mqli,mqj->mlij", gam, rc)
            - np.einsum("mqlj,miq->mlij", gam, rc)
        )


def curvature_at(
    chart: MetricChart, x, want_hessian: bool = True
) -> CurvatureData:
    """Full curvature package at a point, in an orthonormal frame.

    Uses the chart's analytic callback when present.  The generic path
    needs room for nested stencils, so x must sit a few differencing steps
    away from the domain boundary.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (chart.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, chart has n={chart.n}")
    if not chart.domain.contains(x[None, :])[0]:
        raise OutOfDomain(f"point {x} outside chart domain")
    if chart.curvature_callback is not None:
        return chart.curvature_callback(x)

    gc = _GenericCurvature(chart)
    h1 = gc.h
    # nested stencils reach ~ 2*h_outer + 2*h_inner from x
    h_sc = 4.0 * h1
    need = 2.0 * h_sc + 2.5 * h1
    if chart.domain.boundary_distance(x) < need:
        raise OutOfDomain(
            "point too close to the chart boundary for nested differencing"
        )

    rm_f, g, ginv, gam0, E = gc.rm_frame_batch(x[None, :])
    rm_f = rm_f[0]
    E0 = E[0]
    gam0 = gam0[0]
    rc_f = np.einsum("isjs->ij", rm_f)
    sc0 = float(np.trace(rc_f))

    n = chart.n
    # scalar-curvature field on a first/second derivative stencil
    st = _Stencil(n, h_sc, center=True, cross="plain")
    dsc, d2sc = st.derivs(gc.sc_batch(st.points(x[None, :]))[None])
    dsc, d2sc = dsc[0], d2sc[0]

    lap_sc = float(
        np.einsum("ij,ij->", ginv[0], d2sc)
        - np.einsum("ij,kij,k->", ginv[0], gam0, dsc)
    )
    grad_sc_frame = E0.T @ dsc  # frame components of the gradient

    grad_rc_c = hess_rc_c = None
    if want_hessian:
        grad_rc_c = gc.grad_rc_batch(x[None, :])[0]  # [l,i,j]
        st = _Stencil(n, 4.0 * h1)
        T_st = gc.grad_rc_batch(st.points(x[None, :]))
        dT = st.derivs(T_st[None])[0]  # dT[k,l,i,j] = d_k (nabla_l R_ij)
        T0 = grad_rc_c
        hess_c = (
            dT
            - np.einsum("qkl,qij->klij", gam0, T0)
            - np.einsum("qki,lqj->klij", gam0, T0)
            - np.einsum("qkj,liq->klij", gam0, T0)
        )
        # to frame, reordered as [i,j,k,l] = nabla_k nabla_l R_ij
        hess_rc_c = np.einsum(
            "kc,ld,ia,jb,klij->abcd", E0, E0, E0, E0, hess_c
        )
        grad_rc_c = np.einsum("lc,ia,jb,lij->cab", E0, E0, E0, grad_rc_c)

    return CurvatureData(
        n=n,
        rm=rm_f,
        rc=rc_f,
        sc=sc0,
        grad_sc=grad_sc_frame,
        lap_sc=lap_sc,
        hess_rc=hess_rc_c,
        grad_rc=grad_rc_c,
    )


def scalar_curvature_batch(chart: MetricChart, pts) -> np.ndarray:
    """Scalar curvature at many points; vectorized, frame-free."""
    pts = np.atleast_2d(pts)
    if chart.constant_sc is not None:
        return np.full(pts.shape[0], chart.constant_sc)
    if chart.curvature_callback is not None:
        return np.array([chart.curvature_callback(p).sc for p in pts])
    return _GenericCurvature(chart).sc_batch(pts)


# ---------------------------------------------------------------------------
# normal charts


@dataclass
class RayTables:
    """Values along exp(r*y) for a direction bundle: shapes (nd, nr, ...)."""

    dirs: np.ndarray
    radii: np.ndarray
    dens: np.ndarray
    ginv: np.ndarray
    sc: np.ndarray | None = None

    def ginv_quad(self, M):
        """g~^{ij} M_i M_j for a covector slab M of shape (nd, nr, n)."""
        return np.einsum("drab,dra,drb->dr", self.ginv, M, M)


class NormalChart:
    """Geodesic normal coordinates at a center point.

    kind 'flat' and 'space_form' get all their geometry from the geodesic
    radius (radial_geometry); kind 'ode' carries spline tables along a
    fixed direction bundle and only serves the radial-spherical node layout
    (ray_tables).
    """

    def __init__(self, chart, center, radius, frame, kind, K=0.0):
        self.chart = chart
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.frame = frame
        self.kind = kind
        self.K = K
        self.n = chart.n
        self.dirs = None
        self.rule_key = None  # (n, order, seed) of the sphere rule behind dirs
        self.nfev = 0  # right-hand-side calls of the geodesic shooting (ode)
        self._table = None  # spline in r of (nd, 1 + n^2 + n): dens, g~^-1, exp
        self._sc_spline = None

    # -- closed forms (flat / space_form) --

    def radial_geometry(self, r):
        """(density, tangential factor, Sc) at normal-coordinate radii r.

        On M^n_K, sqrt(det g~) = (sn_K(r)/r)^{n-1} and g~^{-1} = P + tang *
        (I - P) with P the radial projector and tang = (r/sn_K(r))^2, so
        g~^{ij} M_i M_j = (x^.M)^2 + tang * (|M|^2 - (x^.M)^2).  Density and
        tang have the shape of r; the scalar curvature is a constant.
        """
        r = np.asarray(r, dtype=float)
        if self.kind == "flat":
            one = np.ones_like(r)
            return one, one, 0.0
        if self.kind == "space_form":
            s = sn_over_r(self.K, r)
            return s ** (self.n - 1), 1.0 / s**2, self.n * (self.n - 1) * self.K
        raise InvalidSpec("radial geometry unavailable for ode normal charts")

    def exp_pts(self, X) -> np.ndarray:
        X = np.atleast_2d(X)
        if self.kind == "space_form":
            return X.copy()
        if self.kind == "flat":
            return self.center[None, :] + X @ self.frame.T
        raise InvalidSpec("use ray tables for ode normal charts")

    # -- ray tables (ode) --

    def ray_tables(self, radii, want_sc=False) -> RayTables:
        """Spline values along the chart's own direction bundle."""
        if self.kind != "ode":
            raise InvalidSpec("closed-form normal charts use radial_geometry")
        radii = np.asarray(radii, dtype=float)
        rq = np.minimum(radii, self.radius)  # beyond r0 the cutoff is zero
        n, nd = self.n, self.dirs.shape[0]
        tab = self._table(rq).transpose(1, 0, 2)  # (nd, nr, 1 + n^2 + n)
        dens = tab[..., 0]
        ginv = tab[..., 1 : 1 + n * n].reshape(nd, rq.size, n, n)
        sc = None
        if want_sc:
            self._ensure_sc_tables()
            sc = self._sc_spline(rq).T
        return RayTables(self.dirs, radii, dens, ginv, sc)

    def _ensure_sc_tables(self, nr: int = 65):
        if self._sc_spline is not None:
            return
        rg = np.linspace(0.0, self.radius, nr)
        exp_pts = self._table(rg)[..., -self.n :]  # (nr, nd, n)
        sc = scalar_curvature_batch(
            self.chart, exp_pts.reshape(-1, self.n)
        ).reshape(nr, -1)
        self._sc_spline = make_interp_spline(rg, sc, k=3, axis=0)


def _ode_normal_chart(chart, p, r0, dirs, r_samples, rtol):
    n = chart.n
    nd = dirs.shape[0]
    g0 = chart.metric(p[None, :])[0]
    E = _frame(g0[None, :, :])[0]

    v0 = dirs @ E.T  # initial velocities, unit in g(p)
    y0 = np.concatenate(
        [
            np.broadcast_to(p, (nd, n)).ravel(),
            v0.ravel(),
            np.zeros(nd * n * n),
            np.broadcast_to(E, (nd, n, n)).ravel(),
        ]
    )

    sl_g = slice(0, nd * n)
    sl_v = slice(nd * n, 2 * nd * n)
    sl_J = slice(2 * nd * n, 2 * nd * n + nd * n * n)
    sl_Jp = slice(2 * nd * n + nd * n * n, 2 * nd * n + 2 * nd * n * n)

    def rhs(s, y):
        x = y[sl_g].reshape(nd, n)
        v = y[sl_v].reshape(nd, n)
        J = y[sl_J].reshape(nd, n, n)
        Jp = y[sl_Jp].reshape(nd, n, n)
        _, _, gam, dgam = chart.christoffel(x)
        gv = (gam @ v[:, None, :, None])[..., 0]  # Gamma^k_ij v^j as [m,k,i]
        acc = -(gv @ v[:, :, None])[..., 0]
        # d_r Gamma^k_ij v^i v^j as [m,r,k], contracted with J last
        dvv = dgam.reshape(nd, -1, n) @ v[:, :, None]
        dvv = (dvv.reshape(nd, -1, n) @ v[:, :, None]).reshape(nd, n, n)
        Jpp = -(dvv.transpose(0, 2, 1) @ J) - 2.0 * (gv @ Jp)
        return np.concatenate([v.ravel(), acc.ravel(), Jp.ravel(), Jpp.ravel()])

    r_grid = np.linspace(0.0, r0, r_samples)
    sol = solve_ivp(
        rhs, (0.0, r0), y0, method="RK45", rtol=rtol, atol=1e-12, t_eval=r_grid
    )
    if not sol.success:
        raise GeodesicLeftDomain(f"geodesic integration failed: {sol.message}")

    nt = sol.t.size
    y = sol.y.T  # radius-major: (nt, state)
    gam_pts = y[:, sl_g].reshape(nt, nd, n)
    J = y[:, sl_J].reshape(nt, nd, n, n)

    inside = chart.domain.contains(gam_pts.reshape(-1, n))
    if not inside.all():
        raise GeodesicLeftDomain(
            "a geodesic left the chart domain before reaching the requested radius"
        )

    # Jacobian of exp at r*y is J(r)/r; at r=0 it is the frame itself
    rsafe = np.where(r_grid > 0, r_grid, 1.0)
    Jfull = J / rsafe[:, None, None, None]
    Jfull[0] = E

    g_along = chart.metric(gam_pts.reshape(-1, n)).reshape(nt, nd, n, n)
    gtil = Jfull.transpose(0, 1, 3, 2) @ g_along @ Jfull
    det = np.linalg.det(gtil)
    if np.any(det <= 0):
        raise JacobianSingular(
            "pulled-back metric degenerate: normal radius crosses a conjugate point"
        )
    # one table per sample radius and ray: density, g~^{-1}, exp point
    tab = np.concatenate(
        [np.sqrt(det)[..., None], np.linalg.inv(gtil).reshape(nt, nd, n * n),
         gam_pts],
        axis=-1,
    )

    nc = NormalChart(chart, p, r0, E, "ode", K=chart.K)
    nc.dirs = dirs
    nc.nfev = int(sol.nfev)
    nc._table = make_interp_spline(r_grid, tab, k=3, axis=0)
    return nc


def build_normal_chart(
    chart: MetricChart,
    p,
    r0: float,
    dirs=None,
    r_samples: int = 384,
    rtol: float = 1e-10,
) -> NormalChart:
    """Normal coordinates of radius r0 at p.

    Flat charts and space forms centered at the chart origin return closed
    forms.  Anything else shoots geodesics along `dirs` (required) and
    tabulates density and pulled-back metric along each ray.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.n,):
        raise DimensionMismatch("center has wrong dimension")
    if not chart.domain.contains(p[None, :])[0]:
        raise OutOfDomain("center outside chart domain")
    if r0 <= 0:
        raise InvalidSpec("normal radius must be positive")

    if chart.kind == "flat":
        if chart.domain.boundary_distance(p) < r0:
            raise OutOfDomain("normal ball leaves the chart domain")
        return NormalChart(chart, p, r0, np.eye(chart.n), "flat", K=0.0)

    if chart.kind == "space_form" and np.allclose(p, 0.0):
        if chart.K > 0 and r0 >= 0.995 * np.pi / np.sqrt(chart.K):
            raise InvalidSpec("normal radius reaches the cut locus")
        # geodesic spheres are coordinate spheres here, so the inscribed
        # box ball is the honest bound for every sign of K
        if r0 > chart.domain.boundary_distance(np.zeros(chart.n)):
            raise OutOfDomain("normal ball leaves the chart domain")
        return NormalChart(
            chart, p, r0, np.eye(chart.n), "space_form", K=chart.K
        )

    if dirs is None:
        raise InvalidSpec("generic normal charts need a direction bundle")
    dirs = np.asarray(dirs, dtype=float)
    return _ode_normal_chart(chart, p, r0, dirs, r_samples, rtol)


# ---------------------------------------------------------------------------
# density expansion coefficients


@dataclass
class DensitySeries:
    order2: np.ndarray  # quadratic coefficient, -Rc/6
    order3: np.ndarray  # cubic, -(grad Rc)/12, indexed [k,i,j]
    order4: np.ndarray  # quartic, the v tensor


def density_series(curv: CurvatureData) -> DensitySeries:
    """Taylor coefficients of sqrt(det g~) in normal coordinates at the
    center, through fourth order."""
    from .tensor_core import v_tensor
    from .errors import MissingField

    if curv.grad_rc is None or curv.hess_rc is None:
        raise MissingField("density_series needs grad_rc and hess_rc")
    return DensitySeries(
        order2=-curv.rc / 6.0,
        order3=-curv.grad_rc / 12.0,
        order4=v_tensor(curv),
    )
