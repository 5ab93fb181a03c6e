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

The minimizer follows a projected gradient flow on the unit-mass sphere,
preconditioned by the (shifted) quadratic part of the energy, with an
Armijo line search.  mu_bound_report then fits the small-time behaviour
mu(t) ~ -q t^2 and exposes the curvature bound it implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import roots_legendre

from ._spaceform import sphere_area_K
from .errors import ConfigInvalid, GammaOutOfRange, OutOfDomain
from .functionals import cutoff

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


@dataclass
class RadialDomain:
    """Uniform radial mesh on [0, R] carrying the space-form area weight."""

    n: int
    K: float
    R: float
    m: int = 1024

    def __post_init__(self):
        if self.R <= 0:
            raise ConfigInvalid("ball radius must be positive")
        if self.K > 0 and self.R >= np.pi / np.sqrt(self.K):
            raise OutOfDomain(
                "ball radius reaches the diameter of the sphere"
            )
        if self.m < 32:
            raise ConfigInvalid("mesh too coarse")
        self.r = np.linspace(0.0, self.R, self.m)
        h = self.r[1] - self.r[0]
        # two-point Gauss nodes per cell, weight = space-form area element
        x2, w2 = roots_legendre(2)
        mid = 0.5 * (self.r[:-1] + self.r[1:])
        self.rq = (mid[:, None] + 0.5 * h * x2[None, :]).ravel()
        self.wq = (0.5 * h * w2[None, :] * np.ones((self.m - 1, 1))).ravel()
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
        if t <= 0:
            raise ConfigInvalid("t must be positive")
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
    clamped: int
    witness_value: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def witness_ok(self) -> bool | None:
        """Minimum must not exceed the value of the explicit candidate."""
        if self.witness_value is None:
            return None
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
    return _normalize(dom, f)


def _precondition_factor(dom: RadialDomain, t: float):
    """Banded Cholesky-ready form of 8t * stiffness + 2 * mass."""
    m, h = dom.m, dom.h
    w = dom.cell_weight
    # stiffness tridiagonal
    diag = np.zeros(m)
    off = np.zeros(m - 1)
    diag[:-1] += w / h**2
    diag[1:] += w / h**2
    off -= w / h**2
    A_diag = np.zeros(m)
    A_off = np.zeros(m - 1)
    th, mq, idx = dom.theta, dom.mq, dom.idx
    A_diag += np.bincount(idx, weights=mq * (1 - th) ** 2, minlength=m)
    A_diag += np.bincount(idx + 1, weights=mq * th**2, minlength=m)
    A_off += np.bincount(idx, weights=mq * th * (1 - th), minlength=m)[:-1]
    P_diag = 8 * t * diag + 2 * A_diag
    P_off = 8 * t * off + 2 * A_off
    ab = np.zeros((3, m))
    ab[0, 1:] = P_off
    ab[1] = P_diag
    ab[2, :-1] = P_off
    return ab


def mu_ball(
    n: int,
    K: float,
    R: float,
    t: float,
    m: int | None = None,
    per_width: int = 32,
    init: str = "witness",
    max_iter: int = 100_000,
    tol: float = 1e-8,
    want_witness: bool = True,
) -> MuResult:
    """Minimize the time-t entropy functional over radial unit-mass
    profiles on the geodesic K-ball of radius R, Dirichlet at the rim.

    init is one of 'witness' (curvature-matched Gaussian), 'gaussian'
    (plain truncated Gaussian) or 'uniform'.  The minimum carries an
    O(per_width^-2) positive discretization bias; raise per_width when
    the target value is itself O(t^2) small.
    """
    if m is None:
        dom = RadialDomain.for_time(n, K, R, t, per_width=per_width)
    else:
        dom = RadialDomain(n=n, K=K, R=R, m=m)
    r = dom.r

    if init == "witness":
        f = _witness_profile(dom, t)
    elif init == "gaussian":
        f = np.exp(-(r**2) / (8 * t))
        f[-1] = 0.0
        f = _normalize(dom, f)
    elif init == "uniform":
        f = 1.0 - (r / R) ** 2
        f = _normalize(dom, f)
    else:
        raise ConfigInvalid(f"unknown init {init!r}")

    witness = None
    if want_witness:
        witness = _entropy_value(dom, _witness_profile(dom, t), t)

    ab = _precondition_factor(dom, t)
    W = _entropy_value(dom, f, t)
    step = 1.0
    clamped = 0
    converged = False
    res_rms = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = _entropy_gradient(dom, f, t)
        Af2 = dom.mass_grad(f)  # = 2 A f at unit mass
        lam = 0.5 * float(np.dot(f, g))
        res = g - lam * Af2
        res[-1] = 0.0  # Dirichlet node carries no degree of freedom
        res_rms = float(np.sqrt(np.mean(res**2)))
        gscale = max(1.0, float(np.sqrt(np.mean(g**2))))
        if res_rms < tol * gscale:
            converged = True
            break

        d = solve_banded((1, 1), ab, res)
        d[-1] = 0.0
        slope = float(np.dot(res, d))
        # Armijo backtracking on the constrained objective
        accepted = False
        for _ in range(40):
            trial = f - step * d
            neg = trial < 0
            if np.any(neg):
                clamped += int(neg.sum())
                trial = np.where(neg, 0.0, trial)
            trial[-1] = 0.0
            trial = _normalize(dom, trial)
            W_trial = _entropy_value(dom, trial, t)
            if W_trial <= W - 1e-4 * step * slope:
                f, W = trial, W_trial
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        step = min(step * 1.3, 1e3)

    return MuResult(
        value=W,
        t=t,
        n=n,
        K=K,
        R=R,
        r=r,
        f=f,
        iterations=it,
        converged=converged,
        kkt_residual=res_rms,
        clamped=clamped,
        witness_value=witness,
        meta={"m": dom.m, "init": init},
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


def mu_bound_report(ts, mus, Q: float | None = None,
                    tol: float = 1e-9) -> MuBoundReport:
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
        satisfied = bool(np.all(mus >= -Q * ts**2 - tol))
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
