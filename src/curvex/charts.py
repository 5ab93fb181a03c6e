"""Model geometries as coordinate charts, and curvature by differentiation.

A chart is a smooth map from an axis-aligned box to symmetric positive
matrices.  The catalog covers flat space, space forms in normal
coordinates, a sphere-times-line product, and conformal perturbations of
flat space.  Curvature comes from an analytic callback when the geometry
is homogeneous, otherwise from Richardson-extrapolated central differences
of the metric map (local 2-jets; the higher invariants nest differences of
the resulting scalar and Ricci fields).

Sign convention: R_ijij = K on a space form of curvature K, so
rc_ij = sum_s rm_isjs and sc = n(n-1)K.

Normal charts wrap the exponential map at a center point.  Flat charts and
space forms centered at the chart origin use closed forms in the geodesic
radius alone; everything else integrates the geodesic equation together
with its variational (Jacobi) system and caches values along a fixed bundle
of rays, since that is the shape the radial-spherical quadrature consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

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


def _profile_quartic(X):
    r2 = np.sum(np.atleast_2d(X) ** 2, axis=-1)
    return r2 + r2 * r2


def _profile_gaussian(X):
    r2 = np.sum(np.atleast_2d(X) ** 2, axis=-1)
    return np.exp(-r2 / 0.5625)  # width 0.75


PROFILES: dict[str, Callable] = {
    "quartic_bump": _profile_quartic,
    "gaussian_bump": _profile_gaussian,
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
    n: int
    domain: Box
    metric: Callable  # (m, n) -> (m, n, n), vectorized
    kind: str = "custom"
    K: float = 0.0
    curvature_callback: Callable | None = None  # x -> CurvatureData
    constant_sc: float | None = None


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

        chart = MetricChart(n, box, metric, kind="conformal_flat", K=0.0)

    else:
        raise InvalidSpec(f"unknown chart kind {spec.kind!r}")

    _check_positive_definite(chart)
    return chart


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


class _JetEngine:
    """Batched Richardson central differences of a chart's metric map.

    First and second derivatives come from the 4th-order 5-point formulas;
    mixed second derivatives Richardson-combine the 2nd-order cross stencil.
    Steps scale with the domain size per the usual eps^(1/6) rule.
    """

    def __init__(self, chart: MetricChart):
        self.chart = chart
        self.n = chart.n
        hw = 0.5 * float((chart.domain.hi - chart.domain.lo).max())
        self.h = _EPS16 * max(1.0, hw)

    def jets(self, pts, h: float | None = None):
        """g, dg, d2g at pts; dg[:,k] = d_k g, d2g[:,k,l] = d_k d_l g."""
        chart, n = self.chart, self.n
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m = pts.shape[0]
        h = self.h if h is None else h

        offs = [np.zeros(n)]
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            for s in (h, -h, 2 * h, -2 * h):
                offs.append(s * e)
        pair_offs = []
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        for k, l in pairs:
            ek = np.zeros(n)
            el = np.zeros(n)
            ek[k] = 1.0
            el[l] = 1.0
            for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                pair_offs.append(h * (a * ek + b * el))
                pair_offs.append(2 * h * (a * ek + b * el))
        offs = np.array(offs + pair_offs)  # (S, n)
        S = offs.shape[0]

        allpts = (pts[:, None, :] + offs[None, :, :]).reshape(m * S, n)
        vals = chart.metric(allpts).reshape(m, S, n, n)

        g = vals[:, 0]
        dg = np.empty((m, n, n, n))
        d2g = np.empty((m, n, n, n, n))
        for k in range(n):
            base = 1 + 4 * k
            fp, fm, fp2, fm2 = (vals[:, base + j] for j in range(4))
            dg[:, k] = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
            d2g[:, k, k] = (
                -(fp2 + fm2) + 16.0 * (fp + fm) - 30.0 * g
            ) / (12.0 * h * h)
        base = 1 + 4 * n
        for idx, (k, l) in enumerate(pairs):
            b = base + 8 * idx
            pp, pp2, pm, pm2, mp, mp2, mm, mm2 = (vals[:, b + j] for j in range(8))
            cross_h = (pp - pm - mp + mm) / (4.0 * h * h)
            cross_2h = (pp2 - pm2 - mp2 + mm2) / (16.0 * h * h)
            mixed = (4.0 * cross_h - cross_2h) / 3.0
            d2g[:, k, l] = mixed
            d2g[:, l, k] = mixed
        return g, dg, d2g

    def gamma(self, pts, with_deriv: bool = False):
        """Christoffel symbols Gamma[:,k,i,j] = Gamma^k_ij, optionally with
        coordinate derivatives dGamma[:,m,k,i,j] = d_m Gamma^k_ij."""
        g, dg, d2g = self.jets(pts)
        ginv = np.linalg.inv(g)
        # sym[k,i,j] = d_i g_jk + d_j g_ik - d_k g_ij
        sym = (
            np.einsum("mijk->mkij", dg)
            + np.einsum("mjik->mkij", dg)
            - np.einsum("mkij->mkij", dg)
        )
        gam = 0.5 * np.einsum("mkl,mlij->mkij", ginv, sym)
        if not with_deriv:
            return g, ginv, gam
        dginv = -np.einsum("mka,mrab,mbl->mrkl", ginv, dg, ginv)
        dsym = (
            np.einsum("mrijk->mrkij", d2g)
            + np.einsum("mrjik->mrkij", d2g)
            - np.einsum("mrkij->mrkij", d2g)
        )
        dgam = 0.5 * (
            np.einsum("mrkl,mlij->mrkij", dginv, sym)
            + np.einsum("mkl,mrlij->mrkij", ginv, dsym)
        )
        return g, ginv, gam, dgam


def _riemann_lowered(g, gam, dgam):
    """rm[:,a,b,i,j] with rm_ijij = K on a space form (coordinate comps)."""
    r_up = (
        np.einsum("miljk->mlkij", dgam)
        - np.einsum("mjlik->mlkij", dgam)
        + np.einsum("mlis,msjk->mlkij", gam, gam)
        - np.einsum("mljs,msik->mlkij", gam, gam)
    )
    return np.einsum("mal,mlkij->makij", g, r_up)


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
    """Curvature fields of a chart without an analytic callback."""

    def __init__(self, chart: MetricChart):
        self.chart = chart
        self.jet = _JetEngine(chart)

    def rm_frame_batch(self, pts):
        g, ginv, gam, dgam = self.jet.gamma(pts, with_deriv=True)
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
        g, ginv, gam, dgam = self.jet.gamma(pts, with_deriv=True)
        rm = _riemann_lowered(g, gam, dgam)
        rc = np.einsum("mab,maibj->mij", ginv, rm)
        return np.einsum("mij,mij->m", ginv, rc)

    def rc_gamma_batch(self, pts):
        """Coordinate Ricci components and Christoffels at pts."""
        g, ginv, gam, dgam = self.jet.gamma(pts, with_deriv=True)
        rm = _riemann_lowered(g, gam, dgam)
        rc = np.einsum("mab,maibj->mij", ginv, rm)
        return rc, gam

    def grad_rc_batch(self, pts):
        """nabla_l R_ij (coordinate components) at pts."""
        rc, gam = self.rc_gamma_batch(pts)
        h = 1.5 * self.jet.h
        n = self.chart.n
        pts = np.atleast_2d(pts)
        m = pts.shape[0]
        offs = []
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            for s in (h, -h, 2 * h, -2 * h):
                offs.append(s * e)
        offs = np.array(offs)
        allpts = (pts[:, None, :] + offs[None, :, :]).reshape(-1, n)
        rc_st, _ = self.rc_gamma_batch(allpts)
        rc_st = rc_st.reshape(m, n, 4, n, n)
        drc = (
            8.0 * (rc_st[:, :, 0] - rc_st[:, :, 1])
            - (rc_st[:, :, 2] - rc_st[:, :, 3])
        ) / (12.0 * h)  # drc[:,l,i,j] = d_l rc_ij
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
    h1 = gc.jet.h
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
    offs = [np.zeros(n)]
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        for s in (h_sc, -h_sc, 2 * h_sc, -2 * h_sc):
            offs.append(s * e)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for k, l in pairs:
        ek = np.zeros(n)
        el = np.zeros(n)
        ek[k] = 1.0
        el[l] = 1.0
        for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            offs.append(h_sc * (a * ek + b * el))
    offs = np.array(offs)
    sc_vals = gc.sc_batch(x[None, :] + offs)
    sc_c = sc_vals[0]
    dsc = np.empty(n)
    d2sc = np.empty((n, n))
    for k in range(n):
        base = 1 + 4 * k
        fp, fm, fp2, fm2 = sc_vals[base : base + 4]
        dsc[k] = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h_sc)
        d2sc[k, k] = (-(fp2 + fm2) + 16.0 * (fp + fm) - 30.0 * sc_c) / (
            12.0 * h_sc * h_sc
        )
    base = 1 + 4 * n
    for idx, (k, l) in enumerate(pairs):
        pp, pm, mp, mm = sc_vals[base + 4 * idx : base + 4 * idx + 4]
        d2sc[k, l] = d2sc[l, k] = (pp - pm - mp + mm) / (4.0 * h_sc * h_sc)

    lap_sc = float(
        np.einsum("ij,ij->", ginv[0], d2sc)
        - np.einsum("ij,kij,k->", ginv[0], gam0, dsc)
    )
    grad_sc_frame = E0.T @ dsc  # frame components of the gradient

    grad_rc_c = hess_rc_c = None
    if want_hessian:
        grad_rc_c = gc.grad_rc_batch(x[None, :])[0]  # [l,i,j]
        h2 = 4.0 * h1
        offs2 = []
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            for s in (h2, -h2, 2 * h2, -2 * h2):
                offs2.append(s * e)
        T_st = gc.grad_rc_batch(x[None, :] + np.array(offs2)).reshape(n, 4, n, n, n)
        dT = (
            8.0 * (T_st[:, 0] - T_st[:, 1]) - (T_st[:, 2] - T_st[:, 3])
        ) / (12.0 * h2)  # dT[k,l,i,j] = d_k (nabla_l R_ij)
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
        self._spl = {}
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

    def density_pts(self, X) -> np.ndarray:
        return self.radial_geometry(np.linalg.norm(np.atleast_2d(X), axis=-1))[0]

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
        gt = self._spl["gtil"](rq)  # (nd, nr, n, n) after axis move
        dens = self._spl["dens"](rq)
        ginv = np.linalg.inv(gt)
        sc = None
        if want_sc:
            self._ensure_sc_tables()
            sc = self._sc_spline(rq)
        return RayTables(self.dirs, radii, dens, ginv, sc)

    def _ensure_sc_tables(self, nr: int = 65):
        if self._sc_spline is not None:
            return
        rg = np.linspace(0.0, self.radius, nr)
        exp_pts = self._spl["exp"](rg)  # (nd, nr, n)
        nd = exp_pts.shape[0]
        sc = scalar_curvature_batch(
            self.chart, exp_pts.reshape(-1, self.n)
        ).reshape(nd, nr)
        self._sc_spline = CubicSpline(rg, sc, axis=1)


def _ode_normal_chart(chart, p, r0, dirs, r_samples, rtol):
    n = chart.n
    nd = dirs.shape[0]
    jet = _JetEngine(chart)
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
        gam_pts = y[sl_g].reshape(nd, n)
        v = y[sl_v].reshape(nd, n)
        J = y[sl_J].reshape(nd, n, n)
        Jp = y[sl_Jp].reshape(nd, n, n)
        _, _, gam, dgam = jet.gamma(gam_pts, with_deriv=True)
        acc = -np.einsum("mkij,mi,mj->mk", gam, v, v)
        Jpp = -np.einsum("mrkij,mra,mi,mj->mka", dgam, J, v, v) - 2.0 * np.einsum(
            "mkij,mia,mj->mka", gam, Jp, v
        )
        return np.concatenate([v.ravel(), acc.ravel(), Jp.ravel(), Jpp.ravel()])

    r_grid = np.linspace(0.0, r0, r_samples)
    sol = solve_ivp(
        rhs, (0.0, r0), y0, method="RK45", rtol=rtol, atol=1e-12, t_eval=r_grid
    )
    if not sol.success:
        raise GeodesicLeftDomain(f"geodesic integration failed: {sol.message}")

    nt = sol.t.size
    gam_pts = sol.y[sl_g].reshape(nd, n, nt).transpose(0, 2, 1)  # (nd, nt, n)
    J = sol.y[sl_J].reshape(nd, n, n, nt).transpose(0, 3, 1, 2)  # (nd, nt, n, n)

    inside = chart.domain.contains(gam_pts.reshape(-1, n))
    if not inside.all():
        raise GeodesicLeftDomain(
            "a geodesic left the chart domain before reaching the requested radius"
        )

    # Jacobian of exp at r*y is J(r)/r; at r=0 it is the frame itself
    rsafe = np.where(r_grid > 0, r_grid, 1.0)
    Jfull = J / rsafe[None, :, None, None]
    Jfull[:, 0] = E

    g_along = chart.metric(gam_pts.reshape(-1, n)).reshape(nd, nt, n, n)
    gtil = np.einsum("dtia,dtij,dtjb->dtab", Jfull, g_along, Jfull)
    det = np.linalg.det(gtil)
    if np.any(det <= 0):
        raise JacobianSingular(
            "pulled-back metric degenerate: normal radius crosses a conjugate point"
        )
    dens = np.sqrt(det)

    nc = NormalChart(chart, p, r0, E, "ode", K=chart.K)
    nc.dirs = dirs
    nc._spl = {
        "dens": CubicSpline(r_grid, dens, axis=1),
        "gtil": CubicSpline(r_grid, gtil, axis=1),
        "exp": CubicSpline(r_grid, gam_pts, axis=1),
    }
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
