"""Minimization of the entropy functional over radial profiles.

mu_ball computes, for a geodesic ball in the simply connected space form
of curvature K, the infimum of the time-t entropy functional over radial
test functions vanishing at the boundary with unit mass.  The profile is
discretized with piecewise-linear elements on a uniform mesh; all cell
integrals use Gauss rules, so the discrete objective IS the continuum
objective of the piecewise-linear candidate up to O(h^4) quadrature
error.  Consequence worth stating: on the flat model the discrete
minimum cannot dip below zero by more than that quadrature error, since
every discrete candidate is an admissible continuum test function.

The minimizer is found by projected Newton on the KKT system of the
unit-mass constraint (Nocedal & Wright, Numerical Optimization, ch. 16
and 19) from the witness profile: one LDL^T factorization of the
tridiagonal Hessian per step, whose pivots certify it positive on the
tangent space of the unit-mass sphere (Sylvester, Haynsworth), shifted by
multiples of the mass until the step is certified and does not raise W.
mu_bound_report then fits the small-time behaviour
mu(t) ~ -q t^2 and exposes the curvature bound it implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import Tridiagonal, composite_gauss_legendre
from ._spaceform import sphere_area_K
from .errors import ConfigInvalid, GammaOutOfRange, OutOfDomain
from .functionals import check_finite, cutoff

__all__ = [
    "RadialDomain",
    "MuResult",
    "MuBoundReport",
    "mu_ball",
    "mu_curve",
    "mu_bound_report",
    "rm_bound_from_mu",
]

_TINY = 1e-300
_NEWTON_CAP = 50  # Newton steps; the tests converge in at most 9
# Hessian shifts, in units of the P1 mass, tried in turn at each step
_SHIFTS = (0.0,) + tuple(10.0 ** np.arange(13))
_ROUNDING = 1e-14  # relative rise of W a step may make; W rounds at 2e-15
_KKT_TOL = 1e-8  # KKT residual of a converged profile, relative to the gradient
_BOUND_TOL = 1e-9  # slack of mu_bound_report's test mu >= -Q t^2


@dataclass
class RadialDomain:
    """Uniform radial mesh on [0, R] carrying the space-form area weight."""

    n: int
    K: float
    R: float
    m: int = 1024

    def __post_init__(self):
        if not (self.R > 0):  # NaN too
            raise ConfigInvalid("ball radius must be positive")
        check_finite(self.K, "model curvature K")
        if self.K > 0 and self.R >= np.pi / np.sqrt(self.K):
            raise OutOfDomain(
                "ball radius reaches the diameter of the sphere"
            )
        if self.m < 32:
            raise ConfigInvalid("mesh too coarse")
        self.r = np.linspace(0.0, self.R, self.m)
        h = self.r[1] - self.r[0]
        # two-point Gauss nodes per cell, weight = space-form area element
        self.rq, self.wq = composite_gauss_legendre(self.r, 2)
        self.mq = self.wq * sphere_area_K(self.n, self.K, self.rq)
        self.theta = ((self.rq.reshape(-1, 2) - self.r[:-1, None]) / h).ravel()
        self.idx = np.repeat(np.arange(self.m - 1), 2)
        self.h = h
        # per-cell exact weight for the (constant) P1 gradient
        self.cell_weight = self.mq.reshape(-1, 2).sum(axis=1)

    @classmethod
    def for_time(
        cls, n: int, K: float, R: float, t: float, per_width: int = 32
    ) -> "RadialDomain":
        """Mesh fine enough to resolve the sqrt(t) concentration scale."""
        if not (t > 0):  # NaN too
            raise ConfigInvalid("t must be positive")
        if not (R > 0):  # before R sizes the mesh
            raise ConfigInvalid("ball radius must be positive")
        m = int(np.clip(np.ceil(per_width * R / np.sqrt(t)), 256, 8192))
        return cls(n=n, K=K, R=R, m=m)

    # values at the quadrature points of a nodal vector
    def at_quad(self, f: np.ndarray) -> np.ndarray:
        return (1.0 - self.theta) * f[self.idx] + self.theta * f[self.idx + 1]

    def scatter(self, gq: np.ndarray) -> np.ndarray:
        out = np.bincount(self.idx, weights=gq * (1.0 - self.theta),
                          minlength=self.m)
        out += np.bincount(self.idx + 1, weights=gq * self.theta,
                           minlength=self.m)
        return out

    def mass(self, f: np.ndarray) -> float:
        return float(np.dot(self.mq, self.at_quad(f) ** 2))

    def mass_grad(self, f: np.ndarray) -> np.ndarray:
        return self.scatter(2.0 * self.mq * self.at_quad(f))

    def dirichlet(self, f: np.ndarray) -> float:
        slopes = np.diff(f) / self.h
        return float(np.dot(self.cell_weight, slopes**2))

    def dirichlet_grad(self, f: np.ndarray) -> np.ndarray:
        slopes = np.diff(f) / self.h
        flux = 2.0 * self.cell_weight * slopes / self.h
        g = np.zeros(self.m)
        g[:-1] -= flux
        g[1:] += flux
        return g

    def entropy(self, f: np.ndarray) -> float:
        fq2 = self.at_quad(f) ** 2
        return float(np.dot(self.mq, fq2 * np.log(np.maximum(fq2, _TINY))))

    def p1_matrix(self, stiff: float, wq: np.ndarray):
        """Diagonal and off-diagonal of the symmetric tridiagonal matrix of
        the quadratic form stiff * dirichlet(f) + sum_q mq wq f(q)^2: the
        stiffness and the P1 mass weighted by wq at the Gauss points."""
        th, idx, mw = self.theta, self.idx, self.mq * wq
        k = stiff * self.cell_weight / self.h**2
        diag = np.bincount(idx, weights=mw * (1.0 - th) ** 2, minlength=self.m)
        diag += np.bincount(idx + 1, weights=mw * th**2, minlength=self.m)
        diag[:-1] += k
        diag[1:] += k
        off = np.bincount(idx, weights=mw * th * (1.0 - th),
                          minlength=self.m - 1) - k
        return diag, off

    def entropy_grad(self, f: np.ndarray) -> np.ndarray:
        fq = self.at_quad(f)
        fq2 = np.maximum(fq**2, _TINY)
        return self.scatter(self.mq * 2.0 * fq * (np.log(fq2) + 1.0))


@dataclass
class MuResult:
    value: float
    t: float
    n: int
    K: float
    R: float
    r: np.ndarray
    f: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    witness_value: float  # the objective at the curvature-matched candidate
    meta: dict = field(default_factory=dict)

    @property
    def witness_ok(self) -> bool:
        """Minimum must not exceed the value of the explicit candidate."""
        slack = 1e-9 * max(1.0, abs(self.witness_value))
        return self.value <= self.witness_value + slack


def _entropy_value(dom: RadialDomain, f: np.ndarray, t: float) -> float:
    n = dom.n
    sc = n * (n - 1) * dom.K
    return (
        4.0 * t * dom.dirichlet(f) - dom.entropy(f)
        - n - (n / 2.0) * np.log(4.0 * np.pi * t) + t * sc
    )


def _entropy_gradient(dom: RadialDomain, f: np.ndarray, t: float):
    return 4.0 * t * dom.dirichlet_grad(f) - dom.entropy_grad(f)


def _normalize(dom: RadialDomain, f: np.ndarray) -> np.ndarray:
    return f / np.sqrt(max(dom.mass(f), _TINY))


def _witness_profile(dom: RadialDomain, t: float) -> np.ndarray:
    """Gaussian-type candidate with the curvature-matched quadratic
    profile, cut off at the ball boundary."""
    n, K, r = dom.n, dom.K, dom.r
    a = (n - 1) * K / 3.0  # radial part of the matched profile
    alpha = -n * (n - 1) * K / 3.0
    eta2 = cutoff(r / dom.R) * np.maximum(1.0 + a * r**2 + alpha * t, _TINY)
    f = (4 * np.pi * t) ** (-n / 4.0) * np.exp(-(r**2) / (8 * t)) * np.sqrt(
        eta2
    )
    f[-1] = 0.0
    # scaled by its peak first: where the quadratic factor is clamped on
    # the whole ball f is of order sqrt(_TINY) and its mass underflows
    return _normalize(dom, f / f.max())


def _newton_step(dom: RadialDomain, stiff: float, wq: np.ndarray,
                 res: np.ndarray, c: np.ndarray):
    """x1 - (c.x1 / c.x2) x2 for x1, x2 = H^-1 (res, c), H = p1_matrix on
    the free nodes; None unless H is certified positive on {c}^perp."""
    diag, off = dom.p1_matrix(stiff, wq)
    try:
        tri = Tridiagonal(off[:-1], diag[:-1], off[:-1])
    except ValueError:  # a zero pivot or off-diagonal
        return None
    x1, x2 = tri.solve(np.stack([res, c], axis=1)).T
    cx2 = float(np.dot(c, x2))
    # Haynsworth: the bordered KKT matrix has the inertia of H and of
    # -c.H^-1 c; one nonpositive eigenvalue in all iff H > 0 on {c}^perp
    if int(np.sum(tri.pivots < 0)) + (cx2 >= 0) != 1:
        return None
    return x1 - (float(np.dot(c, x1)) / cx2) * x2


def mu_ball(
    n: int,
    K: float,
    R: float,
    t: float,
    m: int | None = None,
    per_width: int = 32,
) -> MuResult:
    """Minimize the time-t entropy functional over radial unit-mass
    profiles on the geodesic K-ball of radius R, Dirichlet at the rim.

    converged means that at the returned profile the KKT residual is
    below _KKT_TOL (relative to the gradient) and the unshifted Hessian is
    certified; otherwise value is the lowest W reached from the witness
    (witness_value), still an upper bound.  The minimum carries an
    O(per_width^-2) positive discretization bias; raise per_width when the
    target value is itself O(t^2) small.
    """
    if m is None:
        dom = RadialDomain.for_time(n, K, R, t, per_width=per_width)
    else:
        dom = RadialDomain(n=n, K=K, R=R, m=m)

    f = _witness_profile(dom, t)
    witness = value = _entropy_value(dom, f, t)
    converged = False  # until a certified iterate passes the KKT test
    for it in range(1, _NEWTON_CAP + 1):
        g = _entropy_gradient(dom, f, t)
        lam = 0.5 * float(np.dot(f, g))  # f.(2 A f) = 2 at unit mass
        # constraint gradient 2 A f and KKT residual on the free nodes:
        # the Dirichlet node is not an unknown
        c = dom.mass_grad(f)[:-1]
        res = g[:-1] - lam * c
        res_rms = float(np.sqrt(np.sum(res**2) / dom.m))  # rim residual 0
        gscale = max(1.0, float(np.sqrt(np.mean(g**2))))
        # Hessian of the Lagrangian: 8t stiffness minus the P1 mass
        # weighted by 2 log f^2 + 6 + 2 lam
        fq2 = np.maximum(dom.at_quad(f) ** 2, _TINY)
        wq = -2.0 * np.log(fq2) - 6.0 - 2.0 * lam
        for shift in _SHIFTS:
            step = _newton_step(dom, 8.0 * t, wq + shift, res, c)
            if step is None:
                continue
            if shift == 0.0 and res_rms < _KKT_TOL * gscale:
                converged = True
                break
            trial = _normalize(dom, np.maximum(f - np.append(step, 0.0), 0.0))
            trial_value = _entropy_value(dom, trial, t)
            if trial_value <= value + _ROUNDING * max(1.0, abs(value)):
                break
        else:  # no shift gives a certified descent step
            break
        if converged or it == _NEWTON_CAP:
            break
        f, value = trial, trial_value

    return MuResult(
        value=value, t=t, n=n, K=K, R=R, r=dom.r, f=f, iterations=it,
        converged=converged, kkt_residual=res_rms, witness_value=witness,
        meta={"m": dom.m},
    )


def mu_curve(
    n: int,
    K: float,
    R: float,
    ts,
    **kwargs,
) -> list[MuResult]:
    return [mu_ball(n, K, R, float(t), **kwargs) for t in np.asarray(ts)]


@dataclass
class MuBoundReport:
    ts: np.ndarray
    mus: np.ndarray
    q_fit: float
    q_stderr: float
    q_envelope: float
    Q: float | None = None
    satisfied: bool | None = None

    def rm_bound(self, gamma: float) -> float:
        Q = self.Q if self.Q is not None else self.q_envelope
        return rm_bound_from_mu(Q, gamma)


def mu_bound_report(ts, mus, Q: float | None = None) -> MuBoundReport:
    """Fit mu(t) ~ -q t^2 on the smallest half of the time grid and test
    the lower-bound hypothesis mu >= -Q t^2 when Q is supplied."""
    ts = np.asarray(ts, dtype=float)
    mus = np.asarray(mus, dtype=float)
    if ts.shape != mus.shape or ts.ndim != 1 or ts.size < 2:
        raise ConfigInvalid("need matching 1-d time and value arrays")
    order = np.argsort(ts)
    ts, mus = ts[order], mus[order]
    k = max(2, ts.size // 2)
    t2 = ts[:k] ** 2
    q = -float(np.dot(mus[:k], t2) / np.dot(t2, t2))
    resid = mus[:k] + q * t2
    dof = max(k - 1, 1)
    stderr = float(
        np.sqrt(np.dot(resid, resid) / dof / np.dot(t2, t2))
    )
    envelope = float(np.maximum(-mus / ts**2, 0.0).max())
    satisfied = None
    if Q is not None:
        satisfied = bool(np.all(mus >= -Q * ts**2 - _BOUND_TOL))
    return MuBoundReport(
        ts=ts, mus=mus, q_fit=q, q_stderr=stderr,
        q_envelope=envelope, Q=Q, satisfied=satisfied,
    )


def rm_bound_from_mu(Q: float, gamma: float) -> float:
    """Curvature-norm bound implied by mu >= -Q t^2 under a gamma-fraction
    loss: |Rm|^2 <= Q / (1/6 - gamma), valid for gamma strictly below 1/6."""
    if Q < 0:
        raise ConfigInvalid("Q must be nonnegative")
    if not 0.0 <= gamma < 1.0 / 6.0:
        raise GammaOutOfRange(
            f"gamma={gamma} outside [0, 1/6); the bound degenerates"
        )
    return Q / (1.0 / 6.0 - gamma)
