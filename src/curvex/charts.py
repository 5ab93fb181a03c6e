"""Model geometries as coordinate charts, and curvature by differentiation.

A chart is a smooth map from an axis-aligned box to symmetric positive
matrices.  The catalog covers flat space, space forms in normal
coordinates, a sphere-times-line product, and conformal perturbations of
flat space.  The first three are homogeneous: each is one direct sum of
space-form blocks in normal coordinates (_block_geometry) and carries one
constant curvature package (MetricChart.curvature).  On other charts it
comes from the Christoffel symbols and their first derivatives (the higher
invariants nest central differences of the scalar and Ricci fields).

Every chart has one geometry call, christoffel(pts) -> (g, g^{-1}, Gamma,
dGamma), and the route behind it follows from the input: direct sums of
space forms get their blocks' closed forms, conformal charts whose profile
carries its derivatives (the PROFILES entries) their own closed form, and
every other chart (custom metrics, plain-callable profiles)
Richardson-extrapolated central differences of the metric map.
Geodesic shooting and the curvature fields both go through it.

Sign convention: R_ijij = K on a space form of curvature K, so
rc_ij = sum_s rm_isjs and sc = n(n-1)K.

Normal charts wrap the exponential map at a center point.  Where a
chart's metric is a warped product about the origin of its cube box,
make_chart records one warp per block (MetricChart.warps): block b reads
dr_b^2 + f_b(r_b)^2 g_{S^(n_b - 1)} in geodesic polar coordinates of its
own coordinates about the origin (Petersen, Riemannian Geometry, 3rd ed.,
2016): f = r on a flat block (about every point), f = sn_K on a curved
space-form block, and on a conformal chart with a RadialProfile the f of
its straight rays.  A single space-form block (flat, space_form) and a
conformal chart whose profile is a RadialProfile are one block, a direct
sum of space forms (product_sphere_line) its blocks' coordinates ({0, 1},
{2} on S^2 x R); a plain-callable profile or a hand-built chart carry no
warps.  The warps fix the chart's symmetry (MetricChart.symmetry): the
contiguous partition of the coordinates into their blocks, whose block
group O(n_1) x ... x O(n_k), each factor acting on its own block, leaves
the metric invariant.  The exponential map of a direct sum is the product
of its blocks', so the normal chart at the origin, a WarpedNormalChart,
reads all its geometry from the warps (on flat space at every point).
At every other centre (off-centre points, hand-built charts,
plain-callable profiles) an OdeNormalChart integrates the geodesic
equation together with its variational (Jacobi) system along every ray
of the sphere rule it is handed, since that is the shape the
radial-spherical quadrature consumes: a chart that shoots always shoots
the full sphere_rule(n, order) (expansion.prepare_normal_chart), has no
symmetry, and its nodes fold onto nothing.  A rule whose integrator
output would pass _MAX_SHOT_BYTES is refused before anything is shot.  An
OdeNormalChart keeps one radius-major table, built once at the sample
radii, a block of radii at a time, with cofactor determinants and
inverses for n <= 3.  Per ray it holds the density and, in an orthonormal
basis B_d of the plane orthogonal to the ray d, the n(n-1)/2 upper
entries of B_d^T g~^{-1} B_d (off-diagonal ones doubled; 4 columns in all
at n = 3), under one not-a-knot cubic spline in r, so reading it at the
quadrature radii inverts nothing.  The integrator samples only the exp
points and the Jacobi fields, at the table radii and at the radii of the
scalar-curvature grid together (its steps do not depend on where it
samples); the exp points are kept only on that grid, and Sc is evaluated
there the first time it is asked for.  The build raises JacobianSingular
where det(J/r) changes sign (a conjugate point) and QuadratureNotConverged
where the Gauss lemma g~^{-1} y = y, checked on the full g~^{-1}, fails by
more than 1e-8.  Both classes answer NormalChart's interface, geometry,
scalar and shell (the area of the geodesic sphere: on an OdeNormalChart
a sum over the bundle, under the weights of the sphere rule its rays
came from, of the density column of its table spline), and no code tells
them apart: what needs a shot bundle reads NormalChart.dirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._numerics import (CubicSpline, bracketed_newton, composite_gauss_legendre,
                        dopri45, read_only)
from ._spaceform import omega_n, sn, sn_over_r
from .errors import (
    DifferentiationUnstable,
    DimensionMismatch,
    GeodesicLeftDomain,
    InvalidSpec,
    JacobianSingular,
    OutOfDomain,
    QuadratureNotConverged,
    check_finite,
    check_integer,
)
from .tensor_core import MAX_DIM, CurvatureData, space_form_curvature

__all__ = [
    "Box",
    "Partition",
    "common_refinement",
    "Perturbation",
    "ModelSpec",
    "MetricChart",
    "NormalChart",
    "WarpedNormalChart",
    "OdeNormalChart",
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

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(min((x - self.lo).min(), (self.hi - x).min()))


# A partition of the coordinates 0..n-1 into blocks, each sorted, in the
# order of their first coordinates.  A geometry invariant under the block
# group O(n_1) x ... x O(n_k), each factor acting on its block's
# coordinates, has that symmetry; None stands for no symmetry.
Partition = tuple[tuple[int, ...], ...]


def common_refinement(p: Partition | None, q: Partition | None):
    """The coarsest partition refining both (its block group is the
    intersection of theirs); None if either is None."""
    if p is None or q is None:
        return None
    return tuple(sorted(tuple(i for i in a if i in b)
                        for a in p for b in q if set(a) & set(b)))


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
    kind: str  # flat | space_form | product_sphere_line | conformal_flat;
    # the first three are direct sums of space-form blocks (_block_geometry)
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
    curvature: CurvatureData | None = None  # constant, on homogeneous charts
    christoffel: Callable | None = field(default=None, repr=False)
    # set by make_chart alone; see warps
    _warps: tuple[_Warp, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.christoffel is None:
            self.christoffel = _JetEngine(self).gamma

    @property
    def symmetry(self) -> Partition | None:
        """The symmetry of the metric about the origin of its cube box,
        read from its warps: the contiguous partition of the coordinates
        into the warps' blocks, in their order, such that g(R x) = R g(x)
        R^T for every R of the block group (each factor an orthogonal map
        of its block's coordinates); None on a chart without warps."""
        if self._warps is None:
            return None
        ends = np.cumsum([w.n for w in self._warps]).tolist()
        return tuple(tuple(range(e - w.n, e)) for w, e in zip(self._warps, ends))

    @property
    def warps(self) -> tuple[_Warp, ...] | None:
        """One warp per block, in coordinate order, or None: block b
        reads dr_b^2 + f_b(r_b)^2 g_{S^{n_b - 1}} about the origin of its
        own coordinates (about every point on flat space), the one
        geometry of a warped normal chart (build_normal_chart)."""
        return self._warps

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


def _block_geometry(blocks):
    """(metric, christoffel, curvature) of the direct sum of space forms
    M^{n_b}_{K_b}, blocks = [(n_b, K_b), ...] in coordinate order: a
    curved block in normal coordinates, a flat one the identity with zero
    Christoffels.  The curvature is the blocks' space_form_curvature
    summed directly, the same at every point."""
    n = sum(nb for nb, _ in blocks)
    rm, rc, sc = np.zeros((n,) * 4), np.zeros((n, n)), 0.0
    curved, start = [], 0
    for nb, Kb in blocks:
        b = slice(start, start + nb)
        start += nb
        if Kb == 0:
            continue
        cb = space_form_curvature(nb, Kb)
        rm[b, b, b, b], rc[b, b] = cb.rm, cb.rc
        sc += cb.sc
        curved.append((b, _space_form_metric(nb, Kb), _space_form_christoffel(nb, Kb)))
    curv = CurvatureData(n, rm, rc, sc, np.zeros(n), 0.0,
                         hess_rc=np.zeros((n,) * 4), grad_rc=np.zeros((n,) * 3))
    eye = np.eye(n)

    def metric(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = np.broadcast_to(eye, (X.shape[0], n, n)).copy()
        for b, block_metric, _ in curved:
            g[:, b, b] = block_metric(X[:, b])
        return g

    def christoffel(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m = X.shape[0]
        g = np.broadcast_to(eye, (m, n, n)).copy()
        ginv = g.copy()
        gam, dgam = np.zeros((m, n, n, n)), np.zeros((m, n, n, n, n))
        for b, _, block_christoffel in curved:
            g[:, b, b], ginv[:, b, b], gam[:, b, b, b], dgam[:, b, b, b, b] = (
                block_christoffel(X[:, b])
            )
        return g, ginv, gam, dgam

    return metric, christoffel, curv


_MAX_SINH_ARG = 40.0  # sqrt(-K) r at the box corner of a hyperbolic block


def make_chart(spec: ModelSpec) -> MetricChart:
    """Build a catalog chart.  Positive-definiteness is spot-checked by
    sampling the domain; each sphere block must fit strictly inside its
    cut locus, which bounds the halfwidth."""
    check_integer(spec.n, 2, "dimension n", InvalidSpec)
    if spec.n > MAX_DIM:
        raise InvalidSpec(f"n={spec.n} outside 2..{MAX_DIM}")
    check_finite(spec.K, "model curvature K", InvalidSpec)
    hw = spec.halfwidth if spec.halfwidth is not None else _default_halfwidth(spec)
    check_finite(hw, "halfwidth", InvalidSpec)
    if hw <= 0:
        raise InvalidSpec("halfwidth must be positive")
    n = spec.n
    box = Box.cube(n, hw)

    if spec.kind == "product_sphere_line" and (spec.K == 0 or n < 3):
        raise InvalidSpec("product chart needs n >= 3 and K != 0 in the sphere")
    K = 0.0 if spec.kind == "flat" else spec.K
    blocks = {
        "flat": [(n, 0.0)],
        "space_form": [(n, K)],
        "product_sphere_line": [(2, K), (n - 2, 0.0)],
    }.get(spec.kind)

    if blocks is not None:
        for nb, Kb in blocks:
            if Kb > 0 and hw * np.sqrt(nb) >= np.pi / np.sqrt(Kb):
                raise InvalidSpec(
                    f"the M^{nb}_{Kb:g} block leaves its injectivity ball: "
                    f"halfwidth*sqrt({nb})={hw*np.sqrt(nb):.3f} >= pi/sqrt(K)"
                )
            # x = sqrt(-K) r at the box corner: the metric's tangential
            # eigenvalue (sinh x / x)^2 is 9e30 times the radial one at
            # x = 40, and the probe below refuses it from x near 23 on; the
            # bound refuses it before sinh^2 overflows (from x = 355 on)
            x = hw * np.sqrt(nb) * np.sqrt(-Kb) if Kb < 0 else 0.0
            if x > _MAX_SINH_ARG:
                raise InvalidSpec(
                    f"the M^{nb}_{Kb:g} block's metric is out of double range: "
                    f"halfwidth*sqrt({nb})*sqrt(-K)={x:.3g} > {_MAX_SINH_ARG:g}"
                )
        metric, christoffel, curv = _block_geometry(blocks)
        chart = MetricChart(n, box, metric, kind=spec.kind, K=K,
                            curvature=curv, christoffel=christoffel)

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
    # a direct sum of space forms is warped block by block about the origin,
    # a RadialProfile as one block, and the box is a cube about the origin
    if blocks is not None:
        chart._warps = tuple(_SpaceFormWarp(nb, Kb) for nb, Kb in blocks)
    elif isinstance(pert.profile, RadialProfile):
        chart._warps = (_ConformalWarp(n, pert.eps, pert.profile, hw),)
    return chart


# (sn_K(r)/r)^2 = sum_j c_j z^j in z = K r^2, and the same series for
# q = (1 - (sn_K(r)/r)^2)/z = -sum_j c_{j+1} z^j; columns: f, f', f'', q,
# q', q'' in z.  Sixteen terms reach rounding for |z| < 1.
_SN2 = np.array([(-1.0) ** j * 2.0 ** (2 * j + 1) / factorial(2 * j + 2)
                 for j in range(16)])
_SN2_JET = np.stack(
    [np.pad(c, (0, 16 - c.size)) for c in (
        _SN2, npoly.polyder(_SN2), npoly.polyder(_SN2, 2),
        -_SN2[1:], npoly.polyder(-_SN2[1:]), npoly.polyder(-_SN2[1:], 2),
    )],
    axis=-1,
)


def _warp_jet(K: float, s):
    """f = (sn_K(r)/r)^2 and h = (1 - f)/r^2 with their first two
    derivatives in s = r^2, as (f, f_s, f_ss, h, h_s, h_ss): a series in
    z = K s for |z| < 1, closed forms in sn and cn above."""
    z = K * s
    out = np.empty((6,) + z.shape)
    small = np.abs(z) < 1.0
    out[:, small] = npoly.polyval(z[small], _SN2_JET)
    zb = z[~small]
    if zb.size:
        x = np.sqrt(np.abs(zb))
        sn, cn = (np.sin(x), np.cos(x)) if K > 0 else (np.sinh(x), np.cosh(x))
        S = sn / x  # sn_K(r)/r; d/dz S = (cn - S)/(2z), d/dz cn = -S/2
        Sz = (cn - S) / (2.0 * zb)
        Szz = -(0.25 * S + 1.5 * Sz) / zb
        f, fz, fzz = S * S, 2.0 * S * Sz, 2.0 * (Sz * Sz + S * Szz)
        q = (1.0 - f) / zb
        qz = -(fz + q) / zb
        out[:, ~small] = f, fz, fzz, q, qz, -(fzz + 2.0 * qz) / zb
    return out * (K ** np.array([0, 1, 2, 1, 2, 3]))[:, None]


def _space_form_christoffel(n: int, K: float):
    """Closed-form geometry of M^n_K in normal coordinates, g = f delta +
    h x x^T with f = (sn_K(r)/r)^2 and h = (1 - f)/r^2.  Lowered,
    Gamma_{k,ij} = (F (x_i d_jk + x_j d_ik - x_k d_ij) + H x_i x_j x_k +
    2 h d_ij x_k)/2 with F = f'/r, H = h'/r; raised with g^{-1} = P +
    (I - P)/f it is Gamma^k_ij = (A T + B U + C V)/2, where T = x_i d_kj +
    x_j d_ki, U = x_k d_ij, V = x_i x_j x_k and, in s = r^2,
    A = 2 f_s/f, B = 2 (h - f_s), C = 2 (h_s - 2 f_s h/f).  Then
    d_r Gamma^k_ij = x_r (A_s T + B_s U + C_s V) + (A dT + B dU + C dV)/2."""
    eye = np.eye(n)
    dT = np.einsum("ri,kj->rkij", eye, eye) + np.einsum("rj,ki->rkij", eye, eye)
    dU = np.einsum("rk,ij->rkij", eye, eye)

    def christoffel(pts):
        X = np.atleast_2d(np.asarray(pts, dtype=float))
        xx = X[:, :, None] * X[:, None, :]
        f, fs, fss, h, hs, hss = _warp_jet(K, np.einsum("mi,mi->m", X, X))
        a, b = fs / f, h / f
        coef = 2.0 * np.stack([a, h - fs, hs - 2.0 * a * h], axis=-1)
        coef_s = 2.0 * np.stack(
            [fss / f - a * a, hs - fss,
             hss - 2.0 * (fss * b + a * hs - a * a * h)],
            axis=-1,
        )
        basis = np.stack([
            np.einsum("mi,kj->mkij", X, eye) + np.einsum("mj,ki->mkij", X, eye),
            np.einsum("mk,ij->mkij", X, eye),
            np.einsum("mk,mij->mkij", X, xx),
        ], axis=1)
        dV = (
            np.einsum("ri,mjk->mrkij", eye, xx)
            + np.einsum("rj,mik->mrkij", eye, xx)
            + np.einsum("rk,mij->mrkij", eye, xx)
        )
        gam = 0.5 * np.einsum("mc,mckij->mkij", coef, basis)
        dgam = (
            X[:, :, None, None, None]
            * np.einsum("mc,mckij->mkij", coef_s, basis)[:, None]
            + 0.5 * (coef[:, 0, None, None, None, None] * dT
                     + coef[:, 1, None, None, None, None] * dU
                     + coef[:, 2, None, None, None, None] * dV)
        )
        g = f[:, None, None] * eye + h[:, None, None] * xx
        ginv = eye / f[:, None, None] - b[:, None, None] * xx
        return g, ginv, gam, dgam

    return christoffel


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


def _box_points(lo, hi, m: int):
    """m points spread over the box [lo, hi] in n dimensions, the same at
    every call: the Kronecker sequence frac(1/2 + k a), k = 1..m, with
    a_j = phi^-j for phi the root of phi^(n+1) = phi + 1, the generalized
    golden ratio (Roberts' R_n sequence), whose points cover the cube
    evenly at every m."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = lo.size
    phi = 2.0
    for _ in range(64):  # fixed-point iteration, a contraction
        phi = (1.0 + phi) ** (1.0 / (n + 1))
    u = (0.5 + np.arange(1, m + 1)[:, None] * phi ** -np.arange(1.0, n + 1)) % 1.0
    return lo + u * (hi - lo)


def _check_positive_definite(chart: MetricChart, samples: int = 128):
    g = chart.metric(_box_points(chart.domain.lo, chart.domain.hi, samples))
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
        ginv = _det_inv(g)[1]
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


_ROT = np.array([1, 2, 0]), np.array([2, 0, 1])  # i+1, i+2 mod 3


def _det_inv(a):
    """(det a, a^{-1}) for a stack (..., n, n) of matrices: the cofactors
    over the determinant for n <= 3, LAPACK above."""
    n = a.shape[-1]
    if n > 3:
        return np.linalg.det(a), np.linalg.inv(a)
    if n == 2:
        cof = a[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:  # cof_ij = a_{i+1,j+1} a_{i+2,j+2} - a_{i+1,j+2} a_{i+2,j+1}
        i1, i2 = _ROT
        r1, r2 = i1[:, None], i2[:, None]
        cof = a[..., r1, i1] * a[..., r2, i2] - a[..., r1, i2] * a[..., r2, i1]
    det = np.einsum("...j,...j->...", a[..., 0, :], cof[..., 0, :])
    return det, cof.swapaxes(-1, -2) / det[..., None, None]


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
    """Curvature fields of a chart without a constant curvature package,
    from its Christoffel symbols."""

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
    chart: MetricChart, x, want_hessian: bool = False
) -> CurvatureData:
    """Curvature package at a point, in an orthonormal frame.

    A homogeneous chart returns its constant `curvature`.  Elsewhere
    grad_rc and hess_rc, which only density_series reads, are left None
    unless want_hessian.  The generic path needs room for nested
    stencils, so x must sit a few differencing steps away from the domain
    boundary.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (chart.n,):
        raise DimensionMismatch(f"point has shape {x.shape}, chart has n={chart.n}")
    if not chart.domain.contains(x[None, :])[0]:
        raise OutOfDomain(f"point {x} outside chart domain")
    if chart.curvature is not None:
        return chart.curvature

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
    if chart.curvature is not None:
        return np.full(pts.shape[0], chart.curvature.sc)
    return _GenericCurvature(chart).sc_batch(pts)


# ---------------------------------------------------------------------------
# normal charts


class _Warp:
    """The warp f of a metric dr^2 + f(r)^2 g_{S^{n-1}} in geodesic polar
    coordinates about a centre, the metric of one block of a chart (of
    the whole chart for one block), as a normal chart reads it at geodesic
    radii r (any shape): rho(r), the coordinate radius of the geodesic
    sphere of radius r, f(r), f(r)/r (1 at r = 0) and Sc(r).  anywhere
    says the block is its own normal chart about every point (a flat
    block), not only about its origin."""

    anywhere = False


class _SpaceFormWarp(_Warp):
    """f = sn_K on M^n_K, flat space as K = 0: the chart's coordinates are
    normal coordinates at its origin (at every point when K = 0), so rho
    is r, which must stay short of the cut locus, and Sc = n(n-1)K."""

    def __init__(self, n: int, K: float):
        self.n, self.K = n, K
        self.anywhere = K == 0

    def rho(self, r):
        if self.K > 0 and np.max(r) >= 0.995 * np.pi / np.sqrt(self.K):
            raise InvalidSpec("normal radius reaches the cut locus")
        return r

    def f(self, r):
        return sn(self.K, r)

    def f_over_r(self, r):
        return sn_over_r(self.K, r)

    def scalar(self, r):
        return self.n * (self.n - 1) * self.K


_ARC_NODES = 24  # Gauss-Legendre nodes of each arc-length integral
_ARC_RTOL = 1e-13  # relative Newton step at which rho(r) has converged


class _ConformalWarp(_Warp):
    """f of the conformal chart e^{2 eps phi(|x|^2)} delta about its
    origin, phi a RadialProfile: the rays are straight, the unit-speed
    geodesic along d is rho(r) d, where rho inverts the arc length
    r(rho) = int_0^rho e^{eps phi(u^2)} du (one _ARC_NODES-point
    Gauss-Legendre rule on [0, rho], bracketed Newton with slope
    e^{eps phi(rho^2)}), and f = rho e^{eps phi(rho^2)}.  The scalar
    curvature of e^{2u} delta with u = eps phi(rho^2) is
      -e^{-2 eps phi} (n-1) [8 eps (phi' + rho^2 phi'')
                             + 4 (n-2) eps phi' (1 + eps rho^2 phi')],
    phi and its derivatives at rho^2: the warped form of it subtracts
    f'^2 from 1, which cancels at small r (-1.19968 at r = 1e-6 on c06
    against -1.2).  reach is the coordinate radius of the box, top its
    arc length.  rho keeps its last radii and their inversion, so one
    evaluation's geometry and Sc calls, which pass the same radii, invert
    them once."""

    def __init__(self, n: int, eps: float, profile: RadialProfile, reach: float):
        self.n, self.eps, self.profile, self.reach = n, eps, profile, reach
        self._x, self._w = composite_gauss_legendre([0.0, 1.0], _ARC_NODES)
        self.top = float(self.arc(reach))
        self._last = None  # (shape and bytes of the last radii, their rho)

    def _stretch(self, s):
        """e^{eps phi(s)}, the speed of the ray at rho^2 = s."""
        return np.exp(self.eps * self.profile.phi(s))

    def arc(self, rho):
        rho = np.asarray(rho, dtype=float)
        u = rho[..., None] * self._x
        return rho * (self._stretch(u * u) @ self._w)

    def rho(self, r):
        r = np.asarray(r, dtype=float)
        key = (r.shape, r.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        if np.any(r > self.top):
            raise OutOfDomain("the geodesic sphere leaves the chart domain")
        target = r.ravel()

        def newton(x, live):
            step = (self.arc(x) - target[live]) / self._stretch(x * x)
            return x - step, step < 0, np.abs(step) <= _ARC_RTOL * x

        guess = np.minimum(target / self._stretch(0.0), self.reach)
        x, live, _ = bracketed_newton(newton, guess, 0.0, self.reach)
        if live.size:
            raise QuadratureNotConverged(
                f"no coordinate radius of arc length {target[live[0]]} found")
        x = read_only(x.reshape(r.shape))[0]
        self._last = (key, x)
        return x

    def f(self, r):
        rho = self.rho(r)
        return rho * self._stretch(rho * rho)

    def f_over_r(self, r):
        r = np.asarray(r, dtype=float)
        return np.divide(self.f(r), r, out=np.ones(r.shape), where=r > 0)

    def scalar(self, r):
        s = self.rho(r) ** 2
        e, n, p = self.eps, self.n, self.profile
        d1 = p.dphi(s)
        return -(n - 1) * np.exp(-2.0 * e * p.phi(s)) * (
            8.0 * e * (d1 + s * p.d2phi(s))
            + 4.0 * (n - 2) * e * d1 * (1.0 + e * s * d1))


class NormalChart:
    """Geodesic normal coordinates of radius `radius` at a center point.

    Its two classes answer one interface: geometry(r, w, dirs) ->
    (density, w.g~^{-1}w) at x = r d for the unit directions dirs and
    covectors w orthogonal to d, which by the Gauss lemma g~^{-1} d = d is
    all the metric a radial kernel needs, the leading axes of w and dirs
    (..., n) broadcasting against r; scalar(r), Sc; shell(r), the area of
    the geodesic sphere; and record(), the entries run_expansion's meta
    takes from the chart.  symmetry is the partition the nodes may fold
    onto: a warped chart's blocks, None on a chart that shoots.  A chart
    that pins its rays holds them as dirs (nd, n) with their sphere-rule
    weights (nd,), summing to the area; nfev counts the right-hand-side
    calls of its shooting and gauss_residual is the largest
    |g~^{-1} y - y| in its tables.
    """

    kind: str  # 'warped' or 'ode', as meta and the CLI record it
    symmetry: Partition | None = None
    dirs = weights = None
    nfev = 0
    gauss_residual = None

    def __init__(self, chart, center, radius):
        self.chart = chart
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.n = chart.n

    def record(self) -> dict:
        return {"normal_chart": self.kind}


# order of the orbit rule a direct sum's sphere areas sum under: its ball
# volumes on the catalog products match mpmath's to rounding from order 8
_SHELL_ORDER = 16


class WarpedNormalChart(NormalChart):
    """The normal chart at a warped centre: the chart's blocks (symmetry),
    block b warped by warps[b] about the origin of its own coordinates.

    One block (flat space, a space form, a radial conformal chart)
    depends on the radius alone: the density is (f(r)/r)^{n-1}, g~^{-1} =
    P + (r/f(r))^2 (I - P) with P the radial projector, so w.g~^{-1}w =
    (r/f(r))^2 |w|^2, Sc is the warp's (n(n-1)K on M^n_K) and the sphere
    area |S^{n-1}| f(r)^{n-1}.  The exponential map of a direct sum of
    blocks is the product of theirs, so x = r d lies at the block radii
    r_b = r |d_b|, and with d^_b = d_b/|d_b| the density is
    prod_b (f_b(r_b)/r_b)^(n_b - 1), w.g~^{-1}w = sum_b [(w_b.d^_b)^2 +
    (|w_b|^2 - (w_b.d^_b)^2) (r_b/f_b(r_b))^2], Sc sums the blocks' and
    the sphere area is density r^(n-1) summed under the orbit rule of the
    blocks (functionals.orbit_rule at _SHELL_ORDER)."""

    kind = "warped"

    def __init__(self, chart, center, radius, warps: tuple[_Warp, ...]):
        super().__init__(chart, center, radius)
        self.symmetry = chart.symmetry
        self.warps = warps

    def _ratios(self, r, dirs):
        """Per block: its coordinates, |d_b|^2 and f_b(r_b)/r_b."""
        for block, warp in zip(self.symmetry, self.warps):
            idx = list(block)
            d2 = np.einsum("...i,...i->...", dirs[..., idx], dirs[..., idx])
            yield idx, d2, warp.f_over_r(r * np.sqrt(d2))

    def geometry(self, r, w, dirs):
        r = np.asarray(r, dtype=float)
        if len(self.warps) == 1:
            s = self.warps[0].f_over_r(r)
            w2 = np.einsum("...i,...i->...", w, w)
            return s ** (self.n - 1), w2 / s**2
        dens, wgw = 1.0, 0.0
        for idx, d2, s in self._ratios(r, dirs):
            wb = w[..., idx]
            wd = np.einsum("...i,...i->...", wb, dirs[..., idx])
            # (w_b.d^_b)^2; a ray with no share in the block has r_b = 0,
            # where s = 1 and the split does not matter
            rad = np.divide(wd * wd, d2, out=np.zeros(d2.shape), where=d2 > 0)
            dens = dens * s ** (len(idx) - 1)
            wgw = wgw + rad + (np.einsum("...i,...i->...", wb, wb) - rad) / s**2
        return dens, wgw

    def scalar(self, r):
        return sum((w.scalar(r) for w in self.warps[1:]), self.warps[0].scalar(r))

    def shell(self, r):
        if len(self.warps) == 1:
            return self.n * omega_n(self.n) * self.warps[0].f(r) ** (self.n - 1)
        from .functionals import orbit_rule  # functionals imports this module

        dirs, weights = orbit_rule(_SHELL_ORDER, self.symmetry)
        r = np.asarray(r, dtype=float)
        dens = 1.0
        for idx, _, s in self._ratios(r.reshape(-1), dirs[:, None, :]):
            dens = dens * s ** (len(idx) - 1)
        return (weights @ dens).reshape(r.shape) * r ** (self.n - 1)


class OdeNormalChart(NormalChart):
    """The normal chart shot along the rays dirs (_ode_normal_chart), the
    whole sphere rule it was handed, for the radial-spherical node layout
    alone; its nodes fold onto nothing.  _basis holds orthonormal bases
    B_d (nd, n, n-1) of the planes d^perp, _table the spline in r of the
    density and the upper entries of B_d^T g~^{-1} B_d, off-diagonal ones
    doubled, (nd, 1 + n(n-1)/2), and _sc_pts the exp points
    (_SC_RADII, nd, n) of the Sc grid."""

    kind = "ode"

    def __init__(self, chart, center, radius, dirs, weights, basis, table,
                 sc_pts, nfev, gauss_residual):
        super().__init__(chart, center, radius)
        self.dirs, self.weights = dirs, weights
        self.nfev, self.gauss_residual = nfev, gauss_residual
        self._basis, self._table, self._sc_pts = basis, table, sc_pts
        self._sc_spline = None

    def record(self) -> dict:
        return {**super().record(), "nfev": self.nfev,
                "gauss_residual": self.gauss_residual}

    def geometry(self, r, w, dirs):
        """(nd, nr): one covector per ray of the bundle against one radius
        vector r (nr,); dirs are the bundle's own rays, which the table
        already holds.  It writes w = B_d c with c = B_d^T w, evaluates
        the table at the radii and contracts its tangential block with the
        products c_i c_j, i <= j."""
        r = np.asarray(r, dtype=float)
        n, nd = self.n, self.dirs.shape[0]
        if w.size != nd * n:
            raise InvalidSpec(f"ode chart takes one covector per ray ({nd})")
        if r.ndim != 1:
            raise InvalidSpec(
                f"ode chart takes one radius vector (nr,) for all its rays, "
                f"not shape {r.shape}")
        # beyond r0 the cutoff is zero
        tab = self._table(np.minimum(r, self.radius))  # (nr, nd, 1 + n(n-1)/2)
        c = np.einsum("dk,dkj->dj", w.reshape(nd, n), self._basis)
        i, j = np.triu_indices(n - 1)
        wgw = np.einsum("rdk,dk->dr", tab[..., 1:], c[:, i] * c[:, j])
        return tab[..., 0].T, wgw

    def scalar(self, r):
        """(nd, nr), from a spline in r through Sc at the exp points of the
        Sc grid, built on the first call (only the W-functional reads Sc)."""
        if self._sc_spline is None:
            rg = np.linspace(0.0, self.radius, _SC_RADII)
            sc = scalar_curvature_batch(self.chart, self._sc_pts.reshape(-1, self.n))
            self._sc_spline = CubicSpline(rg, sc.reshape(rg.size, -1))
        return self._sc_spline(np.minimum(r, self.radius)).T

    def shell(self, r):
        """density_d(r) r^(n-1) summed over the rays under the sphere-rule
        weights, the density read from the table; the Sc spline stays
        unbuilt."""
        r = np.asarray(r, dtype=float)
        dens = self._table(np.minimum(r, self.radius).ravel())[..., 0]
        return (dens @ self.weights).reshape(r.shape) * r ** (self.n - 1)


_TABLE_BLOCK = 32  # sample radii per block of the ode table build
_SC_RADII = 65  # radii of the lazily built Sc spline of an ode chart
_GAUSS_TOL = 1e-8  # largest |g~^{-1} y - y| an ode table may carry
# bytes of sampled states (x and J of every ray at every sample radius) a
# shooting may keep: at the default 384 sample radii, 640 MiB holds the
# full order-40 rule off the centre of S^3 (3,200 rays, 131 MiB) and the
# order-16 one at n = 4 (8,192 rays, 559 MiB; assess_rigidity's probe
# rule), at most 9,383 rays at n = 4, but not the order-40 one there
# (128,000 rays, 8.5 GiB), which raises before anything is shot
_MAX_SHOT_BYTES = 640 * 2**20


def _ode_normal_chart(chart, p, r0, rule, r_samples, rtol):
    n = chart.n
    dirs, weights = (np.asarray(a, dtype=float) for a in rule)
    if dirs.ndim != 2 or dirs.shape[1] != n or weights.shape != dirs.shape[:1]:
        raise InvalidSpec("a sphere rule is directions (nd, n) and weights (nd,)")
    nd = dirs.shape[0]
    # the steps do not depend on the sample radii, so the table radii and
    # the radii of the Sc spline are sampled together, x and J alone
    r_grid = np.linspace(0.0, r0, r_samples)
    r_out, row = np.unique(
        np.concatenate([r_grid, np.linspace(0.0, r0, _SC_RADII)]),
        return_inverse=True,
    )
    per_ray = r_out.size * (n + n * n) * 8
    if nd * per_ray > _MAX_SHOT_BYTES:
        raise InvalidSpec(
            f"shooting {nd} rays would keep {nd * per_ray / 2**20:.0f} MiB of "
            f"sampled states, above {_MAX_SHOT_BYTES >> 20} MiB: at most "
            f"{_MAX_SHOT_BYTES // per_ray} rays fit")

    g0 = chart.metric(p[None, :])[0]
    E = _frame(g0[None, :, :])[0]

    v0 = dirs @ E.T  # initial velocities, unit in g(p)
    # state (x, J, v, J'): the table reads x and J alone, which lead
    y0 = np.concatenate(
        [
            np.broadcast_to(p, (nd, n)).ravel(),
            np.zeros(nd * n * n),
            v0.ravel(),
            np.broadcast_to(E, (nd, n, n)).ravel(),
        ]
    )

    nx, nxj = nd * n, nd * n + nd * n * n
    sl_x = slice(0, nx)
    sl_J = slice(nx, nxj)
    sl_v = slice(nxj, nxj + nx)
    sl_Jp = slice(nxj + nx, None)

    def rhs(s, y):
        x = y[sl_x].reshape(nd, n)
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
        return np.concatenate([v.ravel(), Jp.ravel(), acc.ravel(), Jpp.ravel()])

    y, nfev = dopri45(rhs, y0, r_out, rtol, 1e-12, keep=nxj)  # radius-major
    nt = r_grid.size
    row_tab, row_sc = row[:nt], row[nt:]

    if not chart.domain.contains(y[:, sl_x].reshape(-1, n)).all():
        raise GeodesicLeftDomain(
            "a geodesic left the chart domain before reaching the requested radius"
        )

    # an orthonormal basis B_d of d^perp per ray: the unit eigenvectors of
    # I - d d^T for its eigenvalue 1, which eigh sorts after the 0 of d
    basis = np.linalg.eigh(np.eye(n) - dirs[:, :, None] * dirs[:, None, :])[1]
    basis = basis[..., 1:]
    # b_i (x) b_j + b_j (x) b_i for the columns i <= j of B_d, halved for
    # i = j: against the symmetric g~^{-1} it gives the upper entries of
    # B_d^T g~^{-1} B_d with the off-diagonal ones doubled, one product per ray
    i, j = np.triu_indices(n - 1)
    pairs = basis[:, :, None, i] * basis[:, None, :, j]
    pairs = (pairs + pairs.swapaxes(1, 2)) * np.where(i == j, 0.5, 1.0)
    pairs = pairs.reshape(nd, n * n, i.size)

    # one table per sample radius and ray: density and the tangential block
    # of g~^{-1}, filled a block of radii at a time
    tab = np.empty((nt, nd, 1 + i.size))
    gauss = 0.0
    for lo in range(0, nt, _TABLE_BLOCK):
        blk = slice(lo, lo + _TABLE_BLOCK)
        ys = y[row_tab[blk]]
        pts = ys[:, sl_x].reshape(-1, nd, n)
        # Jacobian of exp at r*y is J(r)/r; at r=0 it is the frame itself
        r = r_grid[blk]
        Jr = ys[:, sl_J].reshape(-1, nd, n, n)
        Jr = Jr / np.where(r > 0, r, 1.0)[:, None, None, None]
        if lo == 0:
            Jr[0] = E
        if np.any(_det_inv(Jr)[0] <= 0):
            raise JacobianSingular(
                "exp-map Jacobian changes sign: the normal radius crosses a "
                "conjugate point"
            )
        g = chart.metric(pts.reshape(-1, n)).reshape(Jr.shape)
        det, ginv = _det_inv(Jr.swapaxes(-1, -2) @ g @ Jr)
        # Gauss lemma: g~^{-1} y = y along every ray
        resid = ginv @ dirs[:, :, None] - dirs[:, :, None]
        gauss = max(gauss, float(np.abs(resid).max()))
        tab[blk, :, 0] = np.sqrt(det)
        tan = ginv.reshape(-1, nd, n * n).swapaxes(0, 1) @ pairs  # ray-major
        tab[blk, :, 1:] = tan.swapaxes(0, 1)
    if gauss > _GAUSS_TOL:
        raise QuadratureNotConverged(
            f"Gauss-lemma residual {gauss:.2e} of the ode tables exceeds "
            f"{_GAUSS_TOL:.0e}; tighten rtol"
        )

    sc_pts = y[row_sc, sl_x].reshape(_SC_RADII, nd, n)
    del y, ys, pts  # ys is a copy, pts a view of it
    return OdeNormalChart(chart, p, r0, dirs, weights, basis,
                          CubicSpline(r_grid, tab), sc_pts, nfev, gauss)


def _centre_warps(chart: MetricChart, p) -> tuple[_Warp, ...] | None:
    """The chart's warps if p is a warped centre: any point of flat space,
    the exact origin of the other warped charts; None elsewhere."""
    warps = chart.warps
    if warps is None or (np.any(p) and not all(w.anywhere for w in warps)):
        return None
    return warps


def build_normal_chart(
    chart: MetricChart,
    p,
    r0: float,
    rule=None,
    r_samples: int = 384,
    rtol: float = 1e-10,
) -> NormalChart:
    """Normal coordinates of radius r0 at p.

    At a warped centre (MetricChart.warps: flat space anywhere, a space
    form, a direct sum of space forms such as S^2 x R or a conformal
    chart with a RadialProfile at its exact origin) it returns the
    WarpedNormalChart of those warps, whatever rule says: its geometry
    depends on the radius and each ray's share of every block alone, and
    it shoots nothing.  Every other centre needs `rule`, a sphere rule
    (directions (nd, n) and weights (nd,), as the product rule
    `sphere_rule(n, order)` returns them in every dimension): its
    OdeNormalChart shoots a geodesic along every direction, tabulates the
    density and the tangential block of the inverse pulled-back metric
    along each ray and keeps the weights for its sphere areas.  A rule whose sampled states (x and J of every ray
    at every sample radius, rays x radii x (n + n^2) doubles) would pass
    640 MiB (_MAX_SHOT_BYTES) raises InvalidSpec naming the number of
    rays that fits, before anything is shot.

    A warped chart raises InvalidSpec where r0 reaches the cut locus of a
    sphere block, OutOfDomain where the coordinate radius rho(r0) of its
    geodesic sphere leaves the box (on a direct sum the largest of its
    blocks', each reached along a ray inside its block) and, on several
    blocks, InvalidSpec where the chart's metric at p is not the identity
    the blocks' normal coordinates have there.  Two checks guard the ode
    tables:
    det(J/r) changing sign on some ray raises JacobianSingular (a
    conjugate point of even multiplicity, where det J only touches zero,
    as off-centre on S^3, is not seen; on the catalog charts the domain
    check stops such geodesics first), and a Gauss-lemma residual
    |g~^{-1} y - y| above 1e-8 raises QuadratureNotConverged.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (chart.n,):
        raise DimensionMismatch("center has wrong dimension")
    if not chart.domain.contains(p[None, :])[0]:
        raise OutOfDomain("center outside chart domain")
    if not (r0 > 0):  # NaN too
        raise InvalidSpec("normal radius must be positive")

    warps = _centre_warps(chart, p)
    if warps is not None:
        # geodesic spheres are coordinate spheres here (the distance of a
        # direct sum is the root sum of squares of its blocks' radii), so
        # the inscribed box ball is the honest bound
        if max(w.rho(r0) for w in warps) > chart.domain.boundary_distance(p):
            raise OutOfDomain("normal ball leaves the chart domain")
        # a direct sum splits each ray by the chart's coordinate blocks,
        # which are orthonormal at p only where g(p) = I
        if len(warps) > 1 and not np.allclose(
                chart.metric(p[None, :])[0], np.eye(chart.n), rtol=0, atol=1e-12):
            raise InvalidSpec("the chart's metric at p is not the identity its "
                              "block warps assume")
        return WarpedNormalChart(chart, p, r0, warps)

    if rule is None:
        raise InvalidSpec("generic normal charts need a sphere rule")
    return _ode_normal_chart(chart, p, r0, rule, r_samples, rtol)


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
