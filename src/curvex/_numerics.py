"""Numerical building blocks on numpy alone.

Gauss-Legendre, Gauss-Gegenbauer, Gauss-Jacobi and generalized
Gauss-Laguerre rules, the Gauss-Hermite rule folded onto x >= 0 (from
the Laguerre rules with alpha = -1/2 and +1/2, polished by one Newton
step on the Hermite recurrence), the one composite Gauss-Legendre
builder of every piecewise rule, ball volumes, one bracketed Newton loop
(radii of given volumes, level crossings in isoperimetry), a factored tridiagonal solver,
the cubic Hermite basis (the spline's and isoperimetry's crossing
starts), a not-a-knot cubic spline along axis 0 and the Dormand-Prince
5(4) integrator with its quartic dense output (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980; step control and initial step as in
Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4).  The tests check each against an independent implementation.
"""

from __future__ import annotations

from functools import lru_cache
from math import gamma, log2, pi, sqrt

import numpy as np

from .errors import GeodesicLeftDomain, NonPositiveVolume, QuadratureNotConverged

__all__ = ["read_only", "gauss_legendre", "gauss_gegenbauer", "gauss_jacobi",
           "gauss_laguerre", "gauss_hermite", "composite_gauss_legendre",
           "shell_volume", "bracketed_newton", "shell_radius", "Tridiagonal", "hermite_basis",
           "CubicSpline", "dopri45"]


def read_only(*arrays):
    """The arrays, write-protected: a cached rule is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def gauss_legendre(m: int):
    """m-point Gauss-Legendre nodes (ascending) and weights on [-1, 1]."""
    return read_only(*np.polynomial.legendre.leggauss(m))


def _golub_welsch(diag, off, mass: float):
    """Nodes (ascending) and weights of the Gauss rule whose orthonormal
    polynomials have the recurrence coefficients diag (m) and off (m - 1):
    the eigenvalues of the symmetric tridiagonal Jacobi matrix, and the
    total mass of the weight times the squared first components of its
    unit eigenvectors (Golub & Welsch, Math. Comp. 23, 1969)."""
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, mass * v[0] ** 2


@lru_cache(maxsize=32)
def gauss_gegenbauer(m: int, lam: float):
    """m-point Gauss rule for the weight (1 - v^2)^(lam - 1/2) on [-1, 1]:
    nodes (ascending) and weights.  lam = 1/2 is gauss_legendre, lam = 1
    the Chebyshev-U closed form, nodes cos(k pi/(m+1)) and weights
    pi/(m+1) sin^2(k pi/(m+1)); otherwise _golub_welsch."""
    if lam == 0.5:
        return gauss_legendre(m)
    if lam == 1.0:
        th = np.arange(m, 0, -1) * (np.pi / (m + 1))
        return read_only(np.cos(th), np.pi / (m + 1) * np.sin(th) ** 2)
    k = np.arange(1, m)
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    x, w = _golub_welsch(np.zeros(m), off,
                         sqrt(pi) * gamma(lam + 0.5) / gamma(lam + 1.0))
    # the rule is symmetric: average each node with its mirror's
    return read_only(0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))


@lru_cache(maxsize=32)
def gauss_jacobi(m: int, alpha: float, beta: float):
    """m-point Gauss rule for the weight (1 - x)^alpha (1 + x)^beta on
    [-1, 1], alpha, beta > -1: nodes (ascending) and weights, from the
    three-term recurrence of the Jacobi polynomials (_golub_welsch).  The
    terms that cancel to 0/0 at alpha + beta = 0 or -1 are cancelled."""
    ab = alpha + beta
    k = np.arange(1, m)
    s = 2 * k + ab
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (ab + 2)
    diag[1:] = (beta * beta - alpha * alpha) / (s * (s + 2))
    off2 = 4 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s + 1) * (s - 1))
    if m > 1:  # at k = 1, k + ab and s - 1 are both 1 + ab
        off2[0] = 4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab))
    mass = 2 ** (ab + 1) * gamma(alpha + 1) * gamma(beta + 1) / gamma(ab + 2)
    return read_only(*_golub_welsch(diag, np.sqrt(off2), mass))


@lru_cache(maxsize=32)
def gauss_laguerre(m: int, alpha: float):
    """m-point Gauss rule for the weight v^alpha e^(-v) on [0, inf),
    alpha > -1: nodes (ascending) and weights, from the recurrence of the
    generalized Laguerre polynomials, a_k = 2 k + alpha + 1 and
    b_k = k (k + alpha) (_golub_welsch), the mass being Gamma(alpha + 1)."""
    k = np.arange(1, m)
    return read_only(*_golub_welsch(2.0 * np.arange(m) + alpha + 1.0,
                                    np.sqrt(k * (k + alpha)), gamma(alpha + 1.0)))


@lru_cache(maxsize=16)
def gauss_hermite(m: int):
    """The m-point Gauss-Hermite rule for the weight e^(-x^2) on the real
    line, folded onto x >= 0: the ceil(m/2) nodes x >= 0 (ascending, the
    middle node of an odd m exactly 0) and weights, each positive node
    carrying its mirror's too.

    H_2k(x) and H_2k+1(x)/x are Laguerre polynomials of degree k in
    y = x^2 with alpha = -1/2 and +1/2 (Szego, Orthogonal Polynomials,
    (5.6.1)), so the positive nodes are the square roots of the m // 2
    gauss_laguerre nodes for alpha = m % 2 - 1/2.  One Newton step on x
    with H_k+1 = 2 x H_k - 2 k H_k-1, whose coefficients are exact, takes
    them to rounding.  The weights, proportional to 1/H_m-1(x)^2
    (Christoffel-Darboux), come from the same pass, H_m-1 carried to the
    new node to first order (H_m-1' = 2 x H_m-1 - H_m), and are
    normalized to the total sqrt(pi).  The pass rescales by exact powers
    of two, so nothing overflows, and a weight below the smallest double
    is 0."""
    odd = m % 2
    y = gauss_laguerre(m // 2, odd - 0.5)[0] if m > 1 else np.empty(0)
    x = np.concatenate((np.zeros(odd), np.sqrt(y)))
    # |H_k+1| and |H_k-1| are at most 2 max|x| + 2 k < 2 sqrt(2 m + 1) + 2 m
    # times max(|H_k|, |H_k-1|) and max(|H_k|, |H_k+1|): rescale before the
    # pair can leave 2^(+-960)
    every = max(1, int(960 / log2(2.0 * sqrt(2.0 * m + 1.0) + 2.0 * m)))
    h0, h1 = np.zeros_like(x), np.ones_like(x)  # H_k-1, H_k times 2^-e
    e = np.zeros(x.shape, dtype=int)
    x2 = 2.0 * x
    for k in range(m):
        h0, h1 = h1, x2 * h1 - 2.0 * k * h0
        if (k + 1) % every == 0:
            _, scale = np.frexp(np.maximum(np.abs(h0), np.abs(h1)))
            h0, h1, e = np.ldexp(h0, -scale), np.ldexp(h1, -scale), e + scale
    dx = h1 / (2.0 * m * h0)  # H_m / H_m'
    mant, scale = np.frexp(h0 + dx * (h1 - x2 * h0))
    e += scale
    w = np.ldexp(1.0 / (mant * mant), 2 * (e.min() - e))
    w[odd:] *= 2.0
    w *= sqrt(pi) / w.sum()
    return read_only(x - dx, w)


def composite_gauss_legendre(breaks, m: int):
    """The m-point Gauss-Legendre rule on each interval between
    consecutive break points (ascending): nodes and weights, interval by
    interval, exact to degree 2 m - 1 on each."""
    x, w = gauss_legendre(m)
    b = np.asarray(breaks, dtype=float)
    half = 0.5 * np.diff(b)[:, None]
    return (half * x + 0.5 * (b[:-1] + b[1:])[:, None]).ravel(), (half * w).ravel()


_SHELL_NODES = 64  # Gauss-Legendre nodes of every ball-volume integral


def shell_volume(shell, r):
    """Volume of the ball of radius r (any shape) whose geodesic sphere of
    radius s has area shell(s): the integral of shell over [0, r] by one
    64-node Gauss-Legendre rule, exact to rounding for the smooth areas
    of normal charts."""
    x, w = gauss_legendre(_SHELL_NODES)
    half = 0.5 * np.asarray(r, dtype=float)[..., None]
    return np.sum(w * shell(half * (x + 1.0)), axis=-1) * half[..., 0]


_NEWTON_CAP = 64  # evaluations of every bracketed Newton run


def bracketed_newton(newton, x, lo, hi):
    """Safeguarded Newton on each element of x (1-D) inside lo < root < hi.
    newton(x_live, live) gives the iterates of the live elements (live
    indexes x), whether each lies below its root (narrowing the bracket
    from below, else from above) and whether each has converged.  A
    converged element takes its iterate, any other only inside its
    bracket, else it bisects; a bracket down to rounding stops it too.
    Returns x, the elements live after _NEWTON_CAP evaluations and the
    number of evaluations."""
    x = np.array(x, dtype=float)
    live, xl = np.arange(x.size), x.copy()
    lo, hi = (np.broadcast_to(a, x.shape).astype(float) for a in (lo, hi))
    for steps in range(1, _NEWTON_CAP + 1):
        x_new, below, done = newton(xl, live)
        lo, hi = np.where(below, xl, lo), np.where(below, hi, xl)
        inside = (lo < x_new) & (x_new < hi)
        xl = np.where(done | inside, x_new, 0.5 * (lo + hi))
        done |= hi - lo <= 4e-16 * hi
        x[live[done]] = xl[done]
        live, xl, lo, hi = (a[~done] for a in (live, xl, lo, hi))
        if not live.size:
            break
    x[live] = xl
    return x, live, steps


def shell_radius(shell, volume, r, hi):
    """Radius of the ball of each given volume inside (0, hi], starting
    from r (both broadcast against volume), as shell_volume measures it.

    Newton on log V against log r, with V' = shell: one step solves
    V ~ r^n exactly, so tiny balls converge as fast as large ones.  A step
    that leaves the bracket (or a volume that overflows) bisects
    (bracketed_newton).  An element stops at a step of 1e-14 or at a
    bracket shrunk to rounding: near the total volume of a sphere the
    radius is ill-conditioned and Newton alone stalls."""
    shape = np.shape(volume)
    v = np.asarray(volume, dtype=float).ravel()
    if not np.all(v > 0):
        raise NonPositiveVolume("volume must be positive")
    r, hi = (np.broadcast_to(a, shape).ravel() for a in (r, hi))

    def newton(rl, live):
        with np.errstate(over="ignore", invalid="ignore"):
            vol = shell_volume(shell, rl)
            step = np.log(vol / v[live]) * vol / (rl * shell(rl))
        return rl * np.exp(-step), vol < v[live], np.abs(step) <= 1e-14

    r, live, _ = bracketed_newton(newton, r, 0.0, hi)
    if live.size:
        raise QuadratureNotConverged(f"no ball radius of volume {v[live[0]]} "
                                     f"found within {_NEWTON_CAP} Newton steps")
    return r.reshape(shape)


def _sweep(b, cp, inv):
    """x_i = a_i x_{i-1} + b_i down axis 0 of b (nb, blk, ...), whose rows
    lie in nb blocks of blk, for fixed coefficients a given as their running
    products over each block, cp, and 1/cp.  Within a block x_j = cp_j
    (x_prev + sum_{l <= j} b_l / cp_l), a cumulative sum; only the block
    ends are chained one by one."""
    ex = (slice(None),) * 2 + (None,) * (b.ndim - 2)
    cp = cp[ex]
    x = b * inv[ex]
    np.cumsum(x, axis=1, out=x)
    x *= cp
    for k in range(1, x.shape[0]):
        x[k, -1] += cp[k, -1] * x[k - 1, -1]
    x[1:, :-1] += cp[1:, :-1] * x[:-1, -1:]
    return x


class Tridiagonal:
    """LU factors (no pivoting) of the tridiagonal matrix with sub-, main
    and super-diagonals lower (m-1), diag (m), upper (m-1), for repeated
    solves with right-hand sides (m, ...).  Both triangular sweeps are
    first-order recurrences with fixed coefficients, run in as few blocks
    as keep the running products of the coefficients within 1e+-250.  The
    pivots, the diagonal of U, come from their recurrence p_i = d_i -
    (l_i / p_{i-1}) u_i on Python floats (no numpy scalar per row), the
    multipliers l_i / p_{i-1} from them in one vectorized division; both
    round as a row-by-row numpy loop would.  The read-only pivots are the
    D of the LDL^T of a symmetric matrix: as many negative as it has
    negative eigenvalues (Sylvester).  A zero or non-finite pivot raises
    ValueError."""

    def __init__(self, lower, diag, upper):
        lo, diag, up = (np.asarray(a, dtype=float) for a in (lower, diag, upper))
        p = float(diag[0])
        try:
            piv = [p] + [p := d - lo_i / p * up_i for lo_i, up_i, d
                         in zip(lo.tolist(), up.tolist(), diag[1:].tolist())]
        except ZeroDivisionError:  # a zero pivot before the last row
            piv = [0.0]
        (self.pivots,) = read_only(np.array(piv))
        if not np.all(np.isfinite(self.pivots) & (self.pivots != 0.0)):
            raise ValueError("tridiagonal matrix with a zero or non-finite pivot")
        m = self.m = self.pivots.size
        # z_i = b_i - mult_i z_{i-1}, then x_i = z_i / piv_i - (upper_i /
        # piv_i) x_{i+1} on the reversed rows
        coef = [-(lo / self.pivots[:-1]), -(up / self.pivots[:-1])[::-1]]
        if not all(np.all(c) for c in coef):
            raise ValueError("tridiagonal matrix with a zero off-diagonal")
        worst = max([1.0] + [float(np.abs(np.log10(np.abs(c))).max())
                             for c in coef if c.size])
        nb = -(-m // int(250 / worst))
        blk = -(-m // nb)
        self._blocks = (nb, blk)
        self._sweeps = []
        for c in coef:  # the first row's coefficient and the padding are 1
            a = np.ones(nb * blk)
            a[1:m] = c
            cp = np.cumprod(a.reshape(self._blocks), axis=1)
            self._sweeps.append((cp, 1.0 / cp))

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        m, trail = self.m, b.shape[1:]
        x = np.zeros(self._blocks + trail)
        flat = x.reshape((-1,) + trail)
        flat[:m] = b
        z = _sweep(x, *self._sweeps[0]).reshape(flat.shape)[m - 1 :: -1]
        flat[:m] = z / self.pivots[::-1].reshape((-1,) + (1,) * len(trail))
        del z
        return _sweep(x, *self._sweeps[1]).reshape(flat.shape)[m - 1 :: -1]


def hermite_basis(s, h, nu: int = 0):
    """The cubic Hermite basis at s = (x - x_i) / h on an interval of width
    h, against the value y_i, the slope s_i, y_i+1 and s_i+1 (the slope
    terms carry h): values (nu=0) or first derivatives in x (nu=1)."""
    if nu == 0:
        return [(1 + 2 * s) * (1 - s) ** 2, h * s * (1 - s) ** 2,
                s * s * (3 - 2 * s), h * s * s * (s - 1)]
    if nu == 1:
        return [6 * s * (s - 1) / h, (1 - s) * (1 - 3 * s),
                6 * s * (1 - s) / h, s * (3 * s - 2)]
    raise ValueError("only values and first derivatives are available")


class CubicSpline:
    """Not-a-knot cubic interpolant of y (m, ...) over ascending knots x
    (m >= 4) along axis 0, kept in Hermite form: the values and slopes at
    the knots.  The slopes solve the tridiagonal not-a-knot system.
    Calls give values (nu=0) or first derivatives (nu=1), with shape
    x.shape + y.shape[1:]; beyond the knots the end cubics extrapolate."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = x.size
        if x.ndim != 1 or m < 4 or y.shape[0] != m:
            raise ValueError("a not-a-knot cubic needs at least four knots")
        dx = np.diff(x)
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        tri = Tridiagonal(np.append(dx[1:], d1),
                          np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]]),
                          np.concatenate([[d0], dx[:-1]]))
        dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        b = np.empty(y.shape)
        np.multiply(dxr[1:], slope[:-1], out=b[1:-1])
        b[1:-1] += dxr[:-1] * slope[1:]
        b[1:-1] *= 3.0
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        del slope
        s = tri.solve(b)
        del b
        self._x, self._dx = x, dx
        self._ys = np.empty((m, 2) + y.shape[1:])  # values, slopes
        self._ys[:, 0] = y
        self._ys[:, 1] = s

    def __call__(self, xq, nu: int = 0):
        xq = np.asarray(xq, dtype=float)
        xs = xq.ravel()
        i = np.clip(np.searchsorted(self._x, xs, side="right") - 1,
                    0, self._x.size - 2)
        h = self._dx[i]
        w = np.stack(hermite_basis((xs - self._x[i]) / h, h, nu), -1)
        ys = self._ys.reshape(self._x.size, 2, -1)
        g = ys[np.stack([i, i + 1], -1)].reshape(xs.size, 4, -1)
        out = (w[:, None, :] @ g)[:, 0]
        return out.reshape(xq.shape + self._ys.shape[2:])


# Dormand-Prince 5(4): nodes, stages, 5th-order weights, error weights and
# the quartic dense-output matrix (Shampine, Math. Comp. 46, 1986)
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _rms(v):
    return np.linalg.norm(v) / v.size**0.5


def dopri45(fun, y0, t_out, rtol: float, atol: float, keep: int | None = None):
    """Integrate y' = fun(t, y) over [t_out[0], t_out[-1]] (ascending)
    with adaptive Dormand-Prince 5(4) steps.

    Step control: RMS error norm against atol + rtol max(|y|, |y_new|),
    safety 0.9, step factors within [0.2, 10] and at most 1 right after a
    rejection; the first step from the Hairer-Norsett-Wanner rule.  The
    steps do not depend on t_out beyond its ends.  Returns the leading
    `keep` components (all when None) of the states at t_out, one row
    each, from every step's quartic dense output, and the number of
    right-hand-side calls.  A step size that collapses below ten float
    spacings of t raises GeodesicLeftDomain (the solver shoots
    geodesics)."""
    t, tb = float(t_out[0]), float(t_out[-1])
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    span = tb - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span)
    nfev = 2

    keep = y.size if keep is None else keep
    out = np.empty((t_out.size, keep))
    K = np.empty((7, y.size))
    done = 0  # rows of out written
    while t < tb:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise GeodesicLeftDomain(
                    f"geodesic integration failed: the step size collapsed "
                    f"at r = {t:.6g}"
                )
            t_new = min(t + h_abs, tb)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
                K[s] = fun(t + _DP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        stop = np.searchsorted(t_out, t_new, side="right")
        if stop > done:  # dense output at the sample points in (t, t_new]
            x = (t_out[done:stop] - t) / h
            p = np.cumprod(np.tile(x[:, None], (1, 4)), axis=1)
            rows = out[done:stop]
            np.dot(p, _DP_P.T.dot(K[:, :keep]), out=rows)
            rows *= h
            rows += y[:keep]
            done = stop
        t, y, f = t_new, y_new, f_new
    return out, nfev
