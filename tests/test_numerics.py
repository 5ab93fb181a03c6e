"""The numpy building blocks of curvex._numerics against scipy, which the
tests use as an independent oracle only; and a fresh interpreter running
every kind of curvex workload must load no scipy module."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline as ScipyCubicSpline
from scipy.interpolate import make_interp_spline
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import (roots_chebyu, roots_genlaguerre, roots_hermite, roots_jacobi,
                           roots_legendre)

import curvex.charts as charts
import curvex.functionals as functionals
from curvex import ModelSpec, Perturbation, build_normal_chart, make_chart
import curvex._numerics as numerics
from curvex._numerics import (
    CubicSpline,
    Tridiagonal,
    bracketed_newton,
    composite_gauss_legendre,
    dopri45,
    gauss_gegenbauer,
    gauss_hermite,
    gauss_jacobi,
    gauss_laguerre,
    gauss_legendre,
    shell_radius,
)
from curvex._spaceform import ball_volume_K, sphere_area_K
from curvex.charts import PROFILES
from curvex.errors import (
    GeodesicLeftDomain,
    NonPositiveVolume,
    QuadratureNotConverged,
)
from curvex.functionals import (_full_rule, _half_rule, _radial_nodes, ball_volume,
                                sphere_rule)
from curvex.isoperimetry import iso_profile_radius
from curvex.rigidity import isoperimetric_probe
from oracles import shooting_chart

SRC = Path(__file__).resolve().parents[1] / "src"


class TestGaussRules:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 24, 32, 40, 64])
    def test_legendre(self, m):
        x, w = gauss_legendre(m)
        xs, ws = roots_legendre(m)
        assert np.abs(x - xs).max() <= 4e-16
        assert np.abs(w - ws).max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 24, 32, 40, 64])
    def test_chebyshev_second_kind(self, m):
        x, w = gauss_gegenbauer(m, 1.0)
        xs, ws = roots_chebyu(m)
        assert np.abs(x - xs).max() <= 1e-15
        assert np.abs(w - ws).max() <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 16, 24, 32, 40, 64])
    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_gegenbauer_golub_welsch(self, m, lam):
        """The polar factors of S^4 and S^5, from the Jacobi matrix."""
        x, w = gauss_gegenbauer(m, lam)
        xs, ws = roots_jacobi(m, lam - 0.5, lam - 0.5)
        assert np.abs(x - xs).max() <= 1e-15
        assert np.abs(w - ws).max() <= 1e-14 * ws.sum()
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 20])
    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 0.0), (-0.5, 0.0), (0.0, -0.5), (0.5, 0.5), (-0.5, 1.0),
        (1.0, 0.0), (1.5, 0.5), (2.0, 1.0), (0.3, -0.7)])
    def test_jacobi_golub_welsch(self, m, alpha, beta):
        """The block factors of the orbit rules, (alpha, beta) = ((N' -
        2)/2, (n_b - 2)/2), and a few others, against scipy.  Where an
        exponent is negative both sides lose digits at the singular end:
        against a 40-digit Golub-Welsch (mpmath) at m = 20, nodes within
        1.2e-15 here and 2.2e-16 in scipy, weights within 5.5e-15 of their
        sum here and 7.0e-14 in scipy."""
        x, w = gauss_jacobi(m, alpha, beta)
        xs, ws = roots_jacobi(m, alpha, beta)
        singular = min(alpha, beta) < 0
        assert np.abs(x - xs).max() <= (2e-15 if singular else 1e-15)
        assert np.abs(w - ws).max() <= (1e-13 if singular else 1e-14) * ws.sum()
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("m", range(1, 129))
    def test_hermite(self, m):
        """The half rule x >= 0 against scipy's rule folded by _half_rule:
        nodes within 2.4e-16 of the largest node (node by node within
        4.0e-16 relative, where scipy's smallest nodes are themselves off
        by up to 2.4e-16 from a 40-digit Newton root), weights within
        5.7e-16 of their sum, the total within 4.5e-16 of sqrt(pi)."""
        x, w = gauss_hermite(m)
        xs, ws = _half_rule(*roots_hermite(m))
        assert x.shape == w.shape == ((m + 1) // 2,)
        assert np.abs(x - xs).max() <= 4e-16 * xs.max()
        assert np.abs(w - ws).max() <= 1e-14 * ws.sum()
        assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-15
        assert (x[0] == 0.0) == (m % 2 == 1)
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("m", [1, 2, 7, 24, 25, 40, 41, 128])
    def test_hermite_mirror_is_exact(self, m):
        """The full rule, _full_rule of the half rule, is exactly
        antisymmetric in its nodes and symmetric in its weights, and folds
        back onto the half rule bit for bit."""
        x, w = _full_rule(*gauss_hermite(m), m)
        assert x.shape == w.shape == (m,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for a, b in zip(_half_rule(x, w), gauss_hermite(m)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", [400, 800, 1500])
    def test_hermite_large_orders(self, m):
        """numpy's hermgauss divides by zero from about m = 400 on; here
        every node and weight is finite with no RuntimeWarning (the tier-1
        filter makes one an error): nodes within 6e-16 of the largest node
        of scipy's (its asymptotic rule above m = 150), weights within
        1.4e-15 of their sum, and a weight is 0 only where scipy's is
        below 1e-300."""
        x, w = gauss_hermite(m)
        xs, ws = _half_rule(*roots_hermite(m))
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.abs(x - xs).max() <= 2e-15 * xs.max()
        assert np.abs(w - ws).max() <= 1e-14 * ws.sum()
        assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-15
        assert np.all(w >= 0.0) and np.all(ws[w == 0.0] < 1e-300)

    def test_gegenbauer_special_cases_are_cached_rules(self):
        """lam = 1/2 is the Legendre rule itself; every rule is cached and
        read-only."""
        assert all(a is b for a, b in zip(gauss_gegenbauer(8, 0.5),
                                          gauss_legendre(8)))
        for lam in (1.0, 1.5):
            x, w = gauss_gegenbauer(8, lam)
            assert x is gauss_gegenbauer(8, lam)[0]
            assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_composite_is_exact_to_degree_2m_minus_1(self, m):
        """On random break points every cell's share of a random
        polynomial of degree 2m - 1 is its antiderivative's increment."""
        rng = np.random.default_rng(m)
        brk = np.sort(rng.uniform(-1.5, 1.5, 9))
        c = rng.normal(size=2 * m)
        x, w = composite_gauss_legendre(brk, m)
        assert x.shape == w.shape == (8 * m,)
        cells = (w * np.polynomial.polynomial.polyval(x, c)).reshape(8, m).sum(axis=1)
        want = np.diff(np.polynomial.polynomial.polyval(
            brk, np.polynomial.polynomial.polyint(c)))
        np.testing.assert_allclose(cells, want, rtol=0, atol=1e-14 * np.abs(c).sum())

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 16, 24, 32, 40])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_laguerre_golub_welsch(self, m, alpha):
        """The radial factors of n = 2, 3, 4 and 6, alpha = (n - 2)/2,
        against scipy: nodes within 1.2e-13 relative (m = 40) and weights
        within 6.1e-15 of their sum.  Up to m = 24, 16 at the default
        order, every weight is within 1.3e-13 of its own size, down to
        the smallest, near 1e-35."""
        x, w = gauss_laguerre(m, alpha)
        xs, ws = roots_genlaguerre(m, alpha)
        assert np.abs(x / xs - 1.0).max() <= 5e-13
        assert np.abs(w - ws).max() <= 2e-14 * ws.sum()
        if m <= 24:
            assert np.abs(w / ws - 1.0).max() <= 5e-13
        assert not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("order,c,kinks", [
        (40, 10.0, (2.1, 4.2)), (24, 2.5, (1.25, 2.5)), (16, 10.0, (30.0, 60.0)),
        (34, 7.3, ()), (16, 10.0, (5.9, 11.8)),
    ])
    def test_composite_reproduces_the_per_cell_loop(self, order, c, kinks,
                                                    monkeypatch):
        """Before the Laguerre cutover (first kink below 6) the radial
        nodes of the functionals equal, bit for bit, the per-interval loop
        they were built with before the shared builder, on the breaks 0, 3
        and the kinks (kink, 2 kink) up to min(c, 2 kink), past which the
        integrand vanishes, the weights times rho^(n-1) e^(-rho^2), c the
        truncation radius (functionals.C_TRUNC, set to each case's).  From
        6 on (a first kink at 30, or none) they are the Laguerre rule."""
        monkeypatch.setattr(functionals, "C_TRUNC", c)
        kink = kinks[0] if kinks else np.inf
        x, w = _radial_nodes(order, 3, kink)
        if kink >= 6.0:
            v, wl = gauss_laguerre(order // 2 + 4, 0.5)
            assert np.array_equal(x, np.sqrt(v)) and np.array_equal(w, 0.5 * wl)
            return
        top = min(c, kinks[1])
        brk = sorted({0.0, min(3.0, top), top} | {k for k in kinks if k < top})
        x1, w1 = gauss_legendre(order)
        nodes = np.concatenate([0.5 * (b - a) * x1 + 0.5 * (a + b)
                                for a, b in zip(brk[:-1], brk[1:])])
        wts = np.concatenate([0.5 * (b - a) * w1 for a, b in zip(brk[:-1], brk[1:])])
        assert np.array_equal(x, nodes)
        assert np.array_equal(w, wts * nodes**2 * np.exp(-(nodes**2)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("order", [12, 16, 24, 40])
    def test_laguerre_radial_factor(self, n, order):
        """From the first kink at 6 on (no kink at all: inf) the radial
        factor is Gauss-Laguerre in v = rho^2 with order // 2 + 4 nodes,
        the same at every kink, and integrates rho^(n-1+2j) e^(-rho^2) to
        Gamma((n + 2 j)/2)/2 for every j < 2 m."""
        m = order // 2 + 4
        x, w = _radial_nodes(order, n, 6.0)
        assert x.size == m
        for kink in (6.7, 40.0, np.inf):
            y, v = _radial_nodes(order, n, kink)
            assert np.array_equal(x, y) and np.array_equal(w, v)
        for j in range(0, 2 * m, 3):
            want = math.gamma((n + 2 * j) / 2.0) / 2.0
            assert np.sum(w * x ** (2 * j)) == pytest.approx(want, rel=1e-12)


def _banded(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


class TestTridiagonal:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 17, 640, 2000])
    @pytest.mark.parametrize("trail", [(), (3, 5)])
    def test_matches_solve_banded(self, m, trail):
        rng = np.random.default_rng(m)
        diag = rng.uniform(2.0, 3.0, m)
        lower, upper = rng.uniform(-1.0, 1.0, (2, m - 1))
        b = rng.normal(size=(m,) + trail)
        got = Tridiagonal(lower, diag, upper).solve(b)
        want = solve_banded((1, 1), _banded(lower, diag, upper),
                            b.reshape(m, -1)).reshape(b.shape)
        assert got.shape == b.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_mu_newton_hessian(self):
        """The Hessian of mu_ball's Lagrangian, assembled as a tridiagonal
        on the free nodes, is the finite-difference Jacobian of the KKT
        residual g - lam c, and its factors solve like solve_banded."""
        from curvex.mu_solver import RadialDomain, _entropy_gradient

        t = 0.01
        dom = RadialDomain(n=3, K=1.0, R=np.pi - 0.05, m=256)
        rng = np.random.default_rng(3)
        f = 0.5 + 0.1 * rng.standard_normal(dom.m)
        f[-1] = 0.0
        lam = 0.5 * float(np.dot(f, _entropy_gradient(dom, f, t)))

        def kkt(f):
            return (_entropy_gradient(dom, f, t) - lam * dom.mass_grad(f))[:-1]

        eps = 1e-6
        jac = np.empty((dom.m - 1, dom.m - 1))
        for j in range(dom.m - 1):
            e = np.zeros(dom.m)
            e[j] = eps
            jac[:, j] = (kkt(f + e) - kkt(f - e)) / (2 * eps)
        wq = -2.0 * np.log(dom.at_quad(f) ** 2) - 6.0 - 2.0 * lam
        diag, off = dom.p1_matrix(8.0 * t, wq)
        diag, off = diag[:-1], off[:-1]
        hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(hess - jac).max() <= 1e-6 * np.abs(jac).max()

        tri = Tridiagonal(off, diag, off)
        ab = _banded(off, diag, off)
        for _ in range(3):
            b = rng.normal(size=dom.m - 1)
            want = solve_banded((1, 1), ab, b)
            assert np.abs(tri.solve(b) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("m", [8, 200, 1000])
    @pytest.mark.parametrize("negative", [0, 1, 3])
    def test_pivots_give_inertia(self, m, negative):
        """Sylvester: the negative pivots of the LDL^T factors of a
        symmetric tridiagonal count its negative eigenvalues."""
        rng = np.random.default_rng(m + negative)
        diag = rng.uniform(-1.0, 1.0, m)
        off = rng.uniform(-1.0, 1.0, m - 1)
        ev = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # shift the spectrum to put exactly `negative` eigenvalues below 0
        diag -= 0.5 * (ev[negative - 1] + ev[negative]) if negative else ev[0] - 0.1
        mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert int(np.sum(np.linalg.eigvalsh(mat) <= 0)) == negative
        pivots = Tridiagonal(off, diag, off).pivots
        assert int(np.sum(pivots <= 0)) == negative
        assert not pivots.flags.writeable

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Tridiagonal([1.0], [1.0, 1.0], [1.0])  # second pivot 0
        with pytest.raises(ValueError):
            Tridiagonal([1.0], [0.0, 1.0], [1.0])  # first pivot 0

    @pytest.mark.parametrize("m", [3, 4, 17, 640, 1978, 2000])
    @pytest.mark.parametrize("kind", ["dominant", "indefinite", "symmetric"])
    def test_matches_the_row_by_row_recurrence(self, m, kind):
        """Pivots and solves equal, bit for bit, those of the pivot
        recurrence run one numpy scalar per row."""
        rng = np.random.default_rng(m)
        diag = rng.uniform(2.0, 3.0, m) if kind == "dominant" else rng.normal(size=m)
        lower, upper = rng.uniform(-1.0, 1.0, (2, m - 1))
        if kind == "symmetric":
            upper = lower
        got, want = (cls(lower, diag, upper) for cls in (Tridiagonal, _RowByRow))
        assert np.array_equal(got.pivots, want.pivots)
        if kind != "dominant":
            assert np.any(got.pivots < 0)
        for trail in ((), (3, 5)):
            b = rng.normal(size=(m,) + trail)
            assert np.array_equal(got.solve(b), want.solve(b))

    @pytest.mark.parametrize("lower,diag,upper", [
        ([1.0, 2.0, 1.0], [1.0, 1.0, 5.0, 2.0], [1.0, 3.0, 1.0]),  # p_1 = 0
        ([1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 3.0]),
        ([1.0, np.inf], [2.0, 1.0, 2.0], [1.0, 3.0]),
        ([1.0, 2.0], [2.0, 1.0, 2.0], [1.0, -np.inf]),
    ], ids=["zero_pivot", "nan_diag", "inf_lower", "inf_upper"])
    def test_zero_or_non_finite_pivot_rejected(self, lower, diag, upper):
        with pytest.raises(ValueError, match="zero or non-finite pivot"):
            Tridiagonal(lower, diag, upper)


class _RowByRow(Tridiagonal):
    """Tridiagonal with its pivots and multipliers from a loop over numpy
    scalars, one row at a time; the sweeps are built as Tridiagonal
    builds them."""

    def __init__(self, lower, diag, upper):
        lo, diag, up = (np.asarray(a, dtype=float) for a in (lower, diag, upper))
        piv, mult = [diag[0]], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo_i, up_i, d in zip(lo, up, diag[1:]):
                mult.append(lo_i / piv[-1])
                piv.append(d - mult[-1] * up_i)
        self.pivots = np.array(piv)
        assert np.all(np.isfinite(self.pivots) & (self.pivots != 0.0))
        m = self.m = self.pivots.size
        coef = [-np.array(mult), -(up / self.pivots[:-1])[::-1]]
        worst = max([1.0] + [float(np.abs(np.log10(np.abs(c))).max())
                             for c in coef if c.size])
        nb = -(-m // int(250 / worst))
        blk = -(-m // nb)
        self._blocks = (nb, blk)
        self._sweeps = []
        for c in coef:
            a = np.ones(nb * blk)
            a[1:m] = c
            cp = np.cumprod(a.reshape(self._blocks), axis=1)
            self._sweeps.append((cp, 1.0 / cp))


class TestCubicSpline:
    def _check(self, x, y, xq):
        ours = CubicSpline(x, y)
        for ref in (ScipyCubicSpline(x, y), make_interp_spline(x, y, k=3)):
            for nu in (0, 1):
                got, want = ours(xq, nu), ref(xq, nu)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("rays", [8, 64])  # 80 and 640 columns per row
    def test_uniform_table(self, rays):
        """A radius-major (radii, rays, columns) table like an ode chart's,
        narrow and wide."""
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 0.9, 384)
        amp = rng.normal(size=(1, rays, 10))
        y = np.cos(3.0 * x)[:, None, None] * amp + x[:, None, None] ** 2
        self._check(x, y, np.concatenate([x[::37], rng.uniform(0.0, 0.9, 23)]))

    def test_square_radius_knots(self):
        """Knots in r^2 at the level radii of a Gaussian cap u = exp(-r^2/4t)
        on symmetrize's geometric ladder (apex first, the first gap 1e-3 of
        the rest), queried up to 5 % beyond the last knot."""
        levels = np.geomspace(1.0 - 1e-3, 1e-6, 64)
        rho = np.concatenate([[0.0], -0.04 * np.log(levels)])
        u = np.concatenate([[1.0], levels])
        self._check(rho, u, np.linspace(0.0, 1.05 * np.sqrt(rho[-1]), 301) ** 2)

    def test_scalar_query_and_limits(self):
        x = np.linspace(0.0, 1.0, 8)
        spl = CubicSpline(x, x**3)
        assert spl(0.5).shape == ()
        assert spl(0.5) == pytest.approx(0.125, abs=1e-15)  # cubics are exact
        assert spl(0.5, 1) == pytest.approx(0.75, abs=1e-14)
        with pytest.raises(ValueError):
            spl(0.5, 2)
        with pytest.raises(ValueError):
            CubicSpline(x[:3], x[:3])


def _oscillator(t, y):
    return np.array([y[1], -y[0] - 0.1 * y[1] * y[0] ** 2])


class TestDormandPrince:
    def test_matches_solve_ivp(self):
        t_out = np.linspace(0.0, 7.0, 50)
        y0 = np.array([1.0, 0.0])
        got, nfev = dopri45(_oscillator, y0, t_out, 1e-8, 1e-10)
        sol = solve_ivp(_oscillator, (0.0, 7.0), y0, method="RK45",
                        rtol=1e-8, atol=1e-10, t_eval=t_out)
        assert nfev == sol.nfev
        assert np.abs(got - sol.y.T).max() <= 1e-12

    def test_steps_do_not_depend_on_the_sample_points(self):
        """Extra output times change neither the steps (the same
        right-hand-side calls) nor the states at the shared times; keep
        returns the leading components of the same rows.  The quartic
        dense output is one BLAS product per step over the rows that step
        holds, whose rounding may depend on their count: 1 ulp apart."""
        t_out = np.linspace(0.0, 7.0, 50)
        y0 = np.array([1.0, 0.0])
        want, nfev = dopri45(_oscillator, y0, t_out, 1e-8, 1e-10)
        extra = np.random.default_rng(4).uniform(0.0, 7.0, 37)
        t_all, row = np.unique(np.concatenate([t_out, np.linspace(0.0, 7.0, 13),
                                               extra]), return_inverse=True)
        got, nfev_all = dopri45(_oscillator, y0, t_all, 1e-8, 1e-10)
        assert nfev_all == nfev and t_all.size > t_out.size + 40
        ulp = np.spacing(np.abs(want).max())
        assert np.abs(got[row[: t_out.size]] - want).max() <= ulp
        lead, _ = dopri45(_oscillator, y0, t_all, 1e-8, 1e-10, keep=1)
        assert np.abs(lead - got[:, :1]).max() <= ulp

    @pytest.mark.parametrize("which", ["conformal", "sphere_line"])
    def test_chart_shooting_matches_solve_ivp(self, which, monkeypatch):
        """The geodesic and Jacobi system of an ode chart build, integrated
        again by solve_ivp: the same right-hand-side calls and the same
        sampled leading components (x and J) at every sample radius."""
        spec = (
            ModelSpec("conformal_flat", 3,
                      perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
                      halfwidth=1.5)
            if which == "conformal" else ModelSpec("product_sphere_line", 3, K=1.0)
        )
        seen = []

        def recording(fun, y0, t_out, rtol, atol, keep=None):
            out = dopri45(fun, y0, t_out, rtol, atol, keep)
            seen.append((fun, y0.copy(), t_out, rtol, atol, keep) + out)
            return out

        monkeypatch.setattr(charts, "dopri45", recording)
        # both origins are warped centres: shoot them by hand
        ch = shooting_chart(make_chart(spec))
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=sphere_rule(3, 8),
                                r_samples=192)
        (fun, y0, t_out, rtol, atol, keep, got, nfev), = seen
        sol = solve_ivp(fun, (t_out[0], t_out[-1]), y0, method="RK45",
                        rtol=rtol, atol=atol, t_eval=t_out)
        assert sol.success and nfev == sol.nfev == nc.nfev
        assert got.shape == (t_out.size, keep) and keep < y0.size
        assert np.abs(got - sol.y.T[:, :keep]).max() <= 1e-12 * np.abs(got).max()

    def test_collapsing_step_raises(self):
        """y' = y^2 blows up at t = 1: the step size collapses there, where
        solve_ivp gives up as well."""
        def blowup(t, y):
            return y * y

        sol = solve_ivp(blowup, (0.0, 2.0), [1.0], method="RK45",
                        rtol=1e-10, atol=1e-12)
        assert not sol.success
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GeodesicLeftDomain):
                dopri45(blowup, np.array([1.0]), np.linspace(0.0, 2.0, 9),
                        1e-10, 1e-12)


class TestBracketedNewton:
    """The one safeguarded Newton loop, on x^3 = c in (0, 2 c + 1): plain
    Newton from x = 0 steps to infinity, so the bracket must catch it."""

    @staticmethod
    def _cube_root(c, start):
        def newton(x, live):
            f = x**3 - c[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = x - f / (3 * x * x)
            return x_new, f < 0, np.abs(f) <= 1e-15 * c[live]

        return bracketed_newton(newton, start, 0.0, 2 * c + 1)

    def test_matches_cbrt(self):
        c = np.geomspace(1e-6, 1e6, 200)
        x, live, steps = self._cube_root(c, np.zeros(c.size))
        assert live.size == 0 and steps < 64
        np.testing.assert_allclose(x, np.cbrt(c), rtol=1e-14, atol=0)

    def test_cap_reports_open_elements(self, monkeypatch):
        monkeypatch.setattr(numerics, "_NEWTON_CAP", 3)
        c = np.array([8.0, 1e6])
        x, live, steps = self._cube_root(c, np.array([2.0, 0.0]))
        # 2 is the root of 8 at the first evaluation; 1e6 needs more
        assert steps == 3 and list(live) == [1]
        assert x[0] == 2.0
        # shell_radius reports its open elements as its own error
        monkeypatch.setattr(numerics, "_NEWTON_CAP", 1)
        with pytest.raises(QuadratureNotConverged, match="1 Newton steps"):
            shell_radius(lambda r: 4 * np.pi * r**2, 1.0, 0.1, 2.0)


class TestProbeRadius:
    """The one radius-of-a-volume solver, shell_radius, behind
    isoperimetric_probe on normal charts and iso_profile_radius on M^n_K."""

    @pytest.mark.parametrize("n,K", [(3, 1.0), (3, -1.0), (3, 0.0), (5, 1.0)])
    def test_matches_brentq(self, n, K):
        hw = 1.0 if K > 0 else 2.0
        ch = make_chart(ModelSpec("space_form" if K else "flat", n, K=K,
                                  halfwidth=hw))
        nc = build_normal_chart(ch, np.zeros(n), 0.9 * hw)
        r_max = 0.98 * nc.radius
        for frac in (0.01, 0.3, 0.9):
            volume = frac * ball_volume(nc, r_max)
            want = brentq(lambda r: ball_volume(nc, r) - volume, 1e-8 * r_max,
                          r_max, xtol=1e-14, rtol=1e-14)
            got = shell_radius(nc.shell, volume, 0.5 * r_max, r_max)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("frac", [1e-12, 1e-30])
    def test_tiny_volume(self, frac):
        """Far below r_max the flat ball V = 4 pi r^3 / 3 still resolves."""
        nc = build_normal_chart(make_chart(ModelSpec("flat", 3, halfwidth=2.0)),
                                np.zeros(3), 1.8)
        r_max = 0.98 * nc.radius
        volume = frac * ball_volume(nc, r_max)
        got = shell_radius(nc.shell, volume, 0.5 * r_max, r_max)
        assert got == pytest.approx((3 * volume / (4 * np.pi)) ** (1 / 3),
                                    rel=1e-13)
        if frac > 1e-20:  # inside brentq's bracket [1e-8 r_max, r_max]
            want = brentq(lambda r: ball_volume(nc, r) - volume, 1e-8 * r_max,
                          r_max, xtol=1e-14, rtol=1e-14)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("volume", [0.0, -1.0])
    def test_nonpositive_volume_raises(self, volume):
        nc = build_normal_chart(make_chart(ModelSpec("flat", 3, halfwidth=2.0)),
                                np.zeros(3), 1.8)
        with pytest.raises(NonPositiveVolume):
            shell_radius(nc.shell, volume, 0.9, 1.8)
        with pytest.raises(NonPositiveVolume):
            isoperimetric_probe(nc, 0.0, volume)

    @pytest.mark.parametrize("n,top", [(2, 0.9999), (3, 0.9999), (4, 0.9999),
                                       (5, 0.999)])
    def test_sphere_up_to_its_total_volume(self, n, top):
        """On the unit n-sphere, at volumes up to that of the ball of radius
        0.9999 pi, the radius comes back within 1e-8, or within what one
        volume spacing allows where the radius is ill-conditioned: near pi
        one ulp of the volume moves it by ulp(V)/area, 5.8e-6 for n = 4 at
        0.9999 pi.  The volume of the returned radius matches to rounding
        either way, and nothing raises.  For n = 5, where Newton alone
        stalls on the rounding of V at some of these radii, the range stops
        at 0.999 pi: above it the volumes round to the total, which raises
        VolumeTooLarge."""
        want = np.pi * np.concatenate([np.linspace(0.01, 0.9, 30, endpoint=False),
                                       np.linspace(0.9, top, 400)])
        volumes = ball_volume_K(n, 1.0, want)
        got = iso_profile_radius(n, 1.0, volumes)
        spacing = np.spacing(ball_volume_K(n, 1.0, np.pi))
        bound = np.maximum(1e-8, 4 * spacing / sphere_area_K(n, 1.0, want))
        assert np.all(np.abs(got - want) <= bound)
        assert np.abs(got - want)[want < 0.99 * np.pi].max() < 1e-8
        np.testing.assert_allclose(ball_volume_K(n, 1.0, got), volumes,
                                   rtol=0, atol=4 * spacing)

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_vector_equals_scalar_calls(self, K):
        """Each element runs its own Newton steps: a vector of volumes gives
        bit for bit what one call per volume gives."""
        top = 0.9999 * np.pi if K > 0 else 4.0
        volumes = ball_volume_K(4, K, np.linspace(0.01, top, 41))
        got = iso_profile_radius(4, K, volumes)
        one_by_one = [iso_profile_radius(4, K, float(v)) for v in volumes]
        assert np.array_equal(got, one_by_one)


def test_runtime_paths_load_no_scipy():
    """A fresh interpreter runs a Hermite and an auto expansion, an auto
    expansion at n = 5 (Golub-Welsch polar factors), an ode chart of the
    S^2xR metric in a hand-built chart, the warped S^2xR expansion on the
    orbit rule and its ball volume, the orbit rule of S^2 x R^2 (a
    Gauss-Jacobi factor), the warped c06 chart's L and W expansions
    (its arc-length inversion), symmetrize, mu_ball and assess_rigidity
    without loading scipy or mpmath, which only the tests use."""
    script = textwrap.dedent(
        """
        import sys
        import warnings
        import numpy as np
        import curvex
        from curvex import (ModelSpec, Perturbation, QuadratureSpec,
                            assess_rigidity, build_normal_chart,
                            build_test_function, make_chart, mu_ball,
                            run_expansion, symmetrize)
        from curvex.charts import PROFILES, MetricChart
        from curvex.errors import PositivityWarning
        from curvex.functionals import ball_volume, orbit_rule, sphere_rule

        warnings.simplefilter("ignore", PositivityWarning)
        s3 = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.0))
        run_expansion(s3, np.zeros(3), r_s=0.8,
                      quad=QuadratureSpec(rule="hermite", order=12))
        run_expansion(s3, np.zeros(3), r_s=0.8, quad=QuadratureSpec(order=10))
        s5 = make_chart(ModelSpec("space_form", 5, K=1.0))
        run_expansion(s5, np.zeros(5), r_s=1.2, quad=QuadratureSpec(order=10))
        s2r = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        bare = MetricChart(3, s2r.domain, s2r.metric, christoffel=s2r.christoffel)
        nc = build_normal_chart(bare, np.zeros(3), 0.9, rule=sphere_rule(3, 8),
                                r_samples=96)
        nc.geometry(np.linspace(0.0, 0.9, 7), np.zeros((nc.dirs.shape[0], 1, 3)),
                    nc.dirs[:, None, :])
        run_expansion(s2r, np.zeros(3), r_s=0.9,
                      quad=QuadratureSpec(rule="radial_sphere", order=10))
        ball_volume(build_normal_chart(s2r, np.zeros(3), 0.9), 0.9)
        orbit_rule(10, ((0, 1), (2, 3)))
        c06 = make_chart(ModelSpec(
            "conformal_flat", 3, halfwidth=1.5,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"])))
        for functional in ("L", "W"):
            run_expansion(c06, np.zeros(3), functional, r_s=0.9,
                          quad=QuadratureSpec(order=10))
        flat = make_chart(ModelSpec("flat", 3, halfwidth=2.0))
        tf = build_test_function(build_normal_chart(flat, np.zeros(3), 1.6),
                                 mode=np.diag([0.3, -0.1, 0.05]),
                                 r_s=1.6)
        symmetrize(tf, t=0.01, levels=64, order=12)
        mu_ball(3, 0.0, 2.0, 0.01)
        assess_rigidity(s3, 1.0, npoints=2)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("scipy", "mpmath")))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_timed_calls_import_nothing():
    """After `import curvex`, a make_chart, symmetrize, mu_ball,
    run_expansion, ball_volume and assess_rigidity call load no further
    module: a lazy import on a first call (np.unique on integers loads
    numpy.ma, a random draw numpy.random) costs every fresh interpreter
    once.  make_chart probes positive definiteness, and assess_rigidity
    takes its default points, on fixed points of the chart box."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import curvex
        from curvex import (ModelSpec, QuadratureSpec, assess_rigidity,
                            ball_volume, build_normal_chart,
                            build_test_function, make_chart, mu_ball,
                            run_expansion, symmetrize)

        before = set(sys.modules)
        s3 = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.0))
        flat = make_chart(ModelSpec("flat", 3, halfwidth=2.0))
        run_expansion(s3, np.zeros(3), r_s=0.8, quad=QuadratureSpec(order=10))
        ball_volume(build_normal_chart(s3, np.zeros(3), 0.9),
                    np.linspace(0.1, 0.8, 5))
        tf = build_test_function(build_normal_chart(flat, np.zeros(3), 1.6),
                                 mode=np.diag([0.3, -0.1, 0.05]),
                                 r_s=1.6)
        symmetrize(tf, t=0.01, levels=64, order=12)
        mu_ball(3, 0.0, 2.0, 0.01)
        assess_rigidity(s3, 1.0)
        print(sorted(set(sys.modules) - before))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
