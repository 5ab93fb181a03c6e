"""Chart catalog and finite-difference curvature.

The conformal-factor oracle values were frozen from a sympy computation of
the exact curvature of g = exp(2f) delta, f = (|x|^2 + |x|^4) / 20, n=3."""

import tracemalloc
import warnings

import numpy as np
import pytest

from curvex import (
    ModelSpec,
    Perturbation,
    build_normal_chart,
    curvature_at,
    density_series,
    make_chart,
    norm_sq,
    scalar_curvature_batch,
)
from curvex.charts import PROFILES, Box, _GenericCurvature, _JetEngine
from curvex.errors import InvalidSpec, OutOfDomain
from curvex.functionals import sphere_rule
from curvex.tensor_core import e_functional, v_tensor


@pytest.fixture(scope="module")
def conformal_chart():
    spec = ModelSpec(
        "conformal_flat",
        3,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"], "quartic_bump"),
        halfwidth=1.5,
    )
    return make_chart(spec)


class TestCatalog:
    def test_flat(self):
        ch = make_chart(ModelSpec("flat", 3))
        g = ch.metric(np.array([[0.1, 0.2, -0.3]]))
        assert np.allclose(g[0], np.eye(3))
        c = curvature_at(ch, np.zeros(3))
        assert c.sc == 0.0

    def test_space_form_metric_values(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        r = 1.2
        x = np.array([[r, 0.0, 0.0]])
        g = ch.metric(x)[0]
        assert g[0, 0] == pytest.approx(1.0)
        assert g[1, 1] == pytest.approx((np.sin(r) / r) ** 2, rel=1e-13)
        assert abs(g[0, 1]) < 1e-14

    def test_sphere_chart_respects_cut_locus(self):
        with pytest.raises(InvalidSpec):
            make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=2.0))

    def test_product_chart(self):
        ch = make_chart(ModelSpec("product_sphere_line", 4, K=2.0))
        c = curvature_at(ch, np.zeros(4))
        assert c.sc == pytest.approx(4.0)
        assert np.allclose(np.diag(c.rc), [2.0, 2.0, 0.0, 0.0])
        assert norm_sq(c.rm) == pytest.approx(4 * 2.0**2)

    def test_scalar_batch_constant(self):
        ch = make_chart(ModelSpec("space_form", 4, K=-1.0))
        sc = scalar_curvature_batch(ch, np.zeros((5, 4)))
        assert np.allclose(sc, -12.0)

    def test_out_of_domain(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=1.0))
        with pytest.raises(OutOfDomain):
            curvature_at(ch, np.array([2.0, 0.0]))

    def test_box(self):
        b = Box.cube(2, 1.0)
        assert b.contains(np.array([[0.5, -0.5]]))[0]
        assert not b.contains(np.array([[1.5, 0.0]]))[0]
        assert b.boundary_distance(np.array([0.25, 0.0])) == pytest.approx(0.75)


class TestGenericCurvature:
    """Finite differences against the frozen sympy oracle."""

    def test_space_form_generic_path_matches_callback(self):
        # same metric with the callback stripped exercises the FD machinery
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        ch_fd = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        ch_fd.curvature_callback = None
        ch_fd.constant_sc = None
        p = np.array([0.4, -0.3, 0.2])
        c = curvature_at(ch_fd, p, want_hessian=True)
        assert c.sc == pytest.approx(6.0, abs=1e-7)
        assert np.allclose(c.rc, 2 * np.eye(3), atol=1e-7)
        assert norm_sq(c.rm) == pytest.approx(12.0, abs=1e-6)
        assert abs(c.lap_sc) < 2e-4
        assert np.abs(c.grad_sc).max() < 1e-6
        # curvature of a space form is parallel
        assert np.abs(c.grad_rc).max() < 1e-4
        assert np.abs(c.hess_rc).max() < 2e-2

    def test_conformal_origin_frozen(self, conformal_chart):
        c = curvature_at(conformal_chart, np.zeros(3), want_hessian=False)
        assert c.sc == pytest.approx(-1.2, abs=1e-8)
        assert c.lap_sc == pytest.approx(-23.4, abs=1e-4)
        assert norm_sq(c.rm) == pytest.approx(0.48, abs=1e-8)
        assert np.abs(c.grad_sc).max() < 1e-7

    def test_conformal_offcenter_frozen(self, conformal_chart):
        p = np.array([0.15, -0.1, 0.125])
        c = curvature_at(conformal_chart, p, want_hessian=False)
        assert c.sc == pytest.approx(-1.386644651586809, abs=1e-8)
        assert c.lap_sc == pytest.approx(-22.876597303140894, abs=1e-4)
        assert norm_sq(c.rm) == pytest.approx(0.6418481463988807, abs=1e-8)
        # frame is exp(-f) I here, so coordinate gradient = exp(f) * frame comps
        f = 0.05 * ((p**2).sum() + (p**2).sum() ** 2)
        coord = c.grad_sc * np.exp(f)
        want = np.array(
            [-1.1567931454643219, 0.7711954303095478, -0.9639942878869348]
        )
        assert np.allclose(coord, want, atol=1e-7)

    def test_eps_linearity_of_curvature(self):
        # to first order Sc scales linearly in the conformal size
        vals = {}
        for eps in (0.01, 0.02):
            spec = ModelSpec(
                "conformal_flat",
                3,
                perturbation=Perturbation(eps, PROFILES["quartic_bump"]),
                halfwidth=1.5,
            )
            vals[eps] = curvature_at(
                make_chart(spec), np.zeros(3), want_hessian=False
            ).sc
        assert vals[0.02] / vals[0.01] == pytest.approx(2.0, rel=2e-3)


def _conformal(profile, n=3, eps=0.05):
    return make_chart(
        ModelSpec("conformal_flat", n, perturbation=Perturbation(eps, profile),
                  halfwidth=1.5)
    )


def _plain(name):
    """The catalog profile as a bare callable, without derivatives."""
    return lambda X: PROFILES[name](X)


class TestChristoffelRoutes:
    """Closed-form conformal Christoffels against the finite-difference
    jet engine and sympy, and the route each chart gets."""

    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("n", [3, 4])
    def test_closed_form_matches_finite_differences(self, name, n):
        ch = _conformal(PROFILES[name], n)
        assert ch.christoffel_route == "closed_form"
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.6, 0.6, size=(6, n))
        g, ginv, gam, dgam = ch.christoffel(pts)
        g_fd, ginv_fd, gam_fd, dgam_fd = _JetEngine(ch).gamma(pts)
        assert np.array_equal(g, ch.metric(pts))
        assert np.allclose(ginv, np.linalg.inv(g), rtol=1e-14, atol=0)
        assert np.abs(gam - gam_fd).max() < 1e-8
        assert np.abs(dgam - dgam_fd).max() < 1e-8
        assert np.abs(dgam).max() > 0.05  # the check is not vacuous

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_derivatives_match_sympy(self, name):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x0:3")
        s = sum(x**2 for x in xs)
        phi = {
            "quartic_bump": s + s**2,
            "gaussian_bump": sympy.exp(-s / sympy.Rational(9, 16)),
        }[name]
        grad = [sympy.diff(phi, x) for x in xs]
        hess = [[sympy.diff(phi, a, b) for b in xs] for a in xs]
        fns = [sympy.lambdify(xs, e, "math") for e in (phi, grad, hess)]
        X = np.random.default_rng(2).uniform(-1.2, 1.2, size=(7, 3))
        val, dval, ddval = PROFILES[name].jet(X)
        assert np.array_equal(val, PROFILES[name](X))
        for i, x in enumerate(X):
            want = [np.array(f(*x), dtype=float) for f in fns]
            assert val[i] == pytest.approx(want[0], rel=1e-14)
            assert np.allclose(dval[i], want[1], rtol=1e-13, atol=1e-15)
            assert np.allclose(ddval[i], want[2], rtol=1e-13, atol=1e-15)

    def test_route_is_picked_from_the_input(self):
        assert _conformal(_plain("quartic_bump")).christoffel_route == (
            "finite_difference"
        )
        for spec in (
            ModelSpec("product_sphere_line", 3, K=1.0),
            ModelSpec("space_form", 3, K=-1.0),
            ModelSpec("flat", 2),
        ):
            assert make_chart(spec).christoffel_route == "finite_difference"

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_plain_callable_reproduces_closed_form_rays(self, name):
        """Geodesic shooting through the finite-difference route lands on
        the closed-form route's ray tables."""
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = np.linspace(0.0, 0.8, 9)
        tabs = []
        for profile in (PROFILES[name], _plain(name)):
            ch = _conformal(profile, eps=0.2)
            nc = build_normal_chart(ch, np.zeros(3), 0.8, dirs=dirs,
                                    r_samples=96)
            tabs.append(nc.ray_tables(r))
        closed, fd = tabs
        assert np.abs(closed.dens - fd.dens).max() < 1e-8
        assert np.abs(closed.ginv - fd.ginv).max() < 1e-8
        assert np.abs(closed.dens - 1.0).max() > 1e-3  # the metric is curved

    def test_closed_form_curvature_matches_finite_differences(self):
        p = np.array([0.15, -0.1, 0.125])
        closed = curvature_at(_conformal(PROFILES["gaussian_bump"]), p)
        fd = curvature_at(_conformal(_plain("gaussian_bump")), p)
        assert closed.sc == pytest.approx(fd.sc, abs=1e-8)
        assert np.allclose(closed.rm, fd.rm, atol=1e-8)
        assert closed.lap_sc == pytest.approx(fd.lap_sc, abs=1e-4)
        assert np.allclose(closed.grad_rc, fd.grad_rc, atol=1e-6)


def _ricci_from_riemann(gam, dgam):
    """R_ij = R^l_ilj from the full Riemann tensor R^l_kij = d_i Gamma^l_jk
    - d_j Gamma^l_ik + Gamma^l_is Gamma^s_jk - Gamma^l_js Gamma^s_ik."""
    r_up = (
        np.einsum("miljk->mlkij", dgam)
        - np.einsum("mjlik->mlkij", dgam)
        + np.einsum("mlis,msjk->mlkij", gam, gam)
        - np.einsum("mljs,msik->mlkij", gam, gam)
    )
    return np.einsum("mlilj->mij", r_up)


class TestRicciContraction:
    """Ricci tensor and scalar curvature contracted straight from Gamma and
    dGamma against the contraction of the full Riemann tensor."""

    @pytest.mark.parametrize(
        "chart",
        [
            pytest.param(lambda k=k: _conformal(PROFILES[k]), id=f"{k}-closed")
            for k in sorted(PROFILES)
        ]
        + [
            pytest.param(lambda k=k: _conformal(_plain(k)), id=f"{k}-fd")
            for k in sorted(PROFILES)
        ]
        + [
            pytest.param(
                lambda: make_chart(ModelSpec("product_sphere_line", 3, K=1.0)),
                id="S2xR",
            ),
            pytest.param(
                lambda: make_chart(ModelSpec("product_sphere_line", 4, K=-1.0)),
                id="H2xR2",
            ),
        ],
    )
    def test_matches_full_riemann(self, chart):
        ch = chart()
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.7, 0.7, size=(64, ch.n))
        _, ginv, gam, dgam = ch.christoffel(pts)
        rc_want = _ricci_from_riemann(gam, dgam)
        sc_want = np.einsum("mij,mij->m", ginv, rc_want)
        gc = _GenericCurvature(ch)
        rc, gam_out = gc.rc_gamma_batch(pts)
        sc = gc.sc_batch(pts)
        assert np.array_equal(gam_out, gam)
        assert np.abs(rc - rc_want).max() <= 1e-12 * np.abs(rc_want).max()
        assert np.abs(sc - sc_want).max() <= 1e-12 * np.abs(sc_want).max()
        assert np.abs(sc_want).max() > 0.1  # the check is not vacuous


def _radial_quad(X, M, tang):
    """g~^{ij} M_i M_j from the radial split, as the functionals kernel
    forms it: (x^.M)^2 + tang * (|M|^2 - (x^.M)^2)."""
    xm = np.einsum("mi,mi->m", X, M) / np.linalg.norm(X, axis=1)
    return xm**2 + tang * (np.einsum("mi,mi->m", M, M) - xm**2)


class TestRadialGeometryOracle:
    """Closed-form normal charts against the chart's own metric: chart
    coordinates are normal coordinates at the origin, so sqrt(det g(X)) is
    the density and g(X)^{-1} the inverse metric."""

    @pytest.mark.parametrize(
        "kind,n,K", [("space_form", 4, 1.0), ("space_form", 3, -1.0), ("flat", 3, 0.0)]
    )
    def test_density_and_quadratic_form(self, kind, n, K):
        ch = make_chart(ModelSpec(kind, n, K=K))
        r0 = 0.95 * float(ch.domain.hi[0])
        nc = build_normal_chart(ch, np.zeros(n), r0)
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(64, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = dirs * rng.uniform(0.01, r0, size=(64, 1))
        M = rng.normal(size=(64, n))
        g = ch.metric(X)
        dens, tang, sc = nc.radial_geometry(np.linalg.norm(X, axis=1))
        assert np.allclose(dens, np.sqrt(np.linalg.det(g)), rtol=1e-12, atol=0)
        want = np.einsum("mi,mij,mj->m", M, np.linalg.inv(g), M)
        assert np.allclose(_radial_quad(X, M, tang), want, rtol=1e-12, atol=0)
        assert sc == n * (n - 1) * K

    def test_space_form_metric_at_origin_is_identity(self):
        metric = make_chart(ModelSpec("space_form", 2, K=1.0)).metric
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = metric(np.array([[0.0, 0.0], [0.3, 0.4]]))
        assert np.array_equal(g[0], np.eye(2))
        assert g[1] == pytest.approx(
            np.eye(2) + ((np.sin(0.5) / 0.5) ** 2 - 1) * np.array(
                [[0.64, -0.48], [-0.48, 0.36]]
            ),
            rel=1e-12,
        )


class TestNormalCharts:
    def test_flat_normal_chart(self):
        ch = make_chart(ModelSpec("flat", 3))
        nc = build_normal_chart(ch, np.array([0.5, 0.0, -0.5]), 1.0)
        X = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 0.9]])
        dens, tang, sc = nc.radial_geometry(np.linalg.norm(X, axis=1))
        assert np.allclose(dens, 1.0)
        assert sc == 0.0
        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        assert np.allclose(_radial_quad(X, M, tang), (M**2).sum(axis=1))
        assert np.allclose(nc.exp_pts(X), np.array([0.5, 0.0, -0.5]) + X)

    def test_sphere_closed_form_density(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        nc = build_normal_chart(ch, np.zeros(3), 1.5)
        r = np.array([0.5, 1.0, 1.4])
        want = (np.sin(r) / r) ** 2
        dens, _, sc = nc.radial_geometry(r)
        assert np.allclose(dens, want, rtol=1e-12)
        assert sc == 6.0

    def test_hyperbolic_tangential_inverse(self):
        ch = make_chart(ModelSpec("space_form", 2, K=-1.0))
        nc = build_normal_chart(ch, np.zeros(2), 1.5)
        r = 1.1
        X = np.array([[r, 0.0]])
        M = np.array([[0.0, 1.0]])  # purely tangential covector
        want = (r / np.sinh(r)) ** 2
        _, tang, _ = nc.radial_geometry(np.array([r]))
        assert tang[0] == pytest.approx(want, rel=1e-12)
        assert _radial_quad(X, M, tang)[0] == pytest.approx(want, rel=1e-12)

    def test_geometry_routes_by_chart_kind(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        with pytest.raises(InvalidSpec):
            build_normal_chart(ch, np.zeros(3), 1.0).ray_tables(np.array([0.5]))
        dirs = np.eye(3)
        nc = build_normal_chart(
            ch, np.array([0.3, 0.0, 0.0]), 0.5, dirs=dirs, r_samples=32
        )
        with pytest.raises(InvalidSpec):
            nc.radial_geometry(np.array([0.2]))

    def test_ode_matches_closed_form_off_center(self):
        """Shooting from a non-origin sphere point reproduces the
        center-independent density (sin r / r)^2 and inverse metric
        P + (r / sin r)^2 (I - P), P the radial projector."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        nc = build_normal_chart(
            ch, np.array([0.3, -0.2, 0.1]), 1.2, dirs=dirs, r_samples=256
        )
        r = np.linspace(0.05, 1.15, 7)
        tab = nc.ray_tables(r, want_sc=True)
        want = (np.sin(r) / r) ** 2
        assert np.abs(tab.dens - want[None, :]).max() < 1e-9
        assert np.abs(tab.sc - 6.0).max() < 1e-8
        P = dirs[:, None, :, None] * dirs[:, None, None, :]
        want = P + ((r / np.sin(r)) ** 2)[None, :, None, None] * (np.eye(3) - P)
        assert np.abs(tab.ginv - want).max() < 1e-9

    def test_ode_flat_chart_is_exact(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=3.0))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        from curvex.charts import _ode_normal_chart

        nc = _ode_normal_chart(
            ch, np.array([0.2, 0.1]), 1.0, dirs, r_samples=64, rtol=1e-10
        )
        tab = nc.ray_tables(np.array([0.3, 0.8]))
        assert np.abs(tab.dens - 1.0).max() < 1e-10

    def test_conformal_ode_density_positive_and_smooth(self):
        spec = ModelSpec(
            "conformal_flat",
            3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        )
        ch = make_chart(spec)
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
        nc = build_normal_chart(ch, np.zeros(3), 0.9, dirs=dirs, r_samples=128)
        tab = nc.ray_tables(np.linspace(0.0, 0.9, 20))
        assert tab.dens.min() > 0
        assert np.abs(tab.dens[:, 0] - 1.0).max() < 1e-10

    def test_ray_tables_converge_under_refinement(self, conformal_chart):
        """The c06 chart's tables at off-grid radii barely move when the
        sample radii are refined fourfold."""
        dirs, _ = sphere_rule(3, 16)
        r = np.linspace(0.013, 0.887, 23)
        tabs = [
            build_normal_chart(
                conformal_chart, np.zeros(3), 0.9, dirs=dirs, r_samples=rs
            ).ray_tables(r)
            for rs in (384, 1536)
        ]
        assert np.abs(tabs[0].dens - tabs[1].dens).max() < 1e-11
        assert np.abs(tabs[0].ginv - tabs[1].ginv).max() < 1e-11

    def test_ode_build_memory(self, conformal_chart):
        """The c06 chart with the benchmark's 512 rays and the default 384
        radii: one (radii, rays, 1 + n^2 + n) table keeps the build peak
        and what the chart holds afterwards bounded."""
        dirs, _ = sphere_rule(3, 16)
        tracemalloc.start()
        try:
            nc = build_normal_chart(conformal_chart, np.zeros(3), 0.9, dirs=dirs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nc.kind == "ode"
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
        assert held < 40e6, f"held {held / 1e6:.0f} MB"

    def test_normal_ball_must_fit(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=1.0))
        with pytest.raises(OutOfDomain):
            build_normal_chart(ch, np.array([0.8, 0.0]), 0.5)


class TestDensitySeries:
    def test_sphere_quadratic_term(self):
        """Density Taylor starts 1 - Rc_ij x^i x^j / 6; on S^3 that is
        1 - |x|^2 / 3, matching (sin r / r)^2 = 1 - r^2/3 + ..."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        c = curvature_at(ch, np.zeros(3))
        ds = density_series(c)
        assert np.allclose(ds.order2, -np.eye(3) / 3.0)
        assert np.abs(ds.order3).max() < 1e-12
        # quartic check against the known radial expansion:
        # (sin r/r)^2 = 1 - r^2/3 + 2 r^4/45 - ...; direction (1,0,0)
        assert ds.order4[0, 0, 0, 0] == pytest.approx(2.0 / 45.0)

    def test_numeric_density_matches_series(self, conformal_chart):
        """ODE-computed density along a ray agrees with the jet prediction
        through fourth order."""
        c = curvature_at(conformal_chart, np.zeros(3), want_hessian=True)
        ds = density_series(c)
        y = np.array([1.0, 0.0, 0.0])
        # frame at 0 is exp(-f(0)) I = I, so ray direction is the x-axis
        nc = build_normal_chart(
            conformal_chart, np.zeros(3), 0.5, dirs=y[None, :], r_samples=128
        )
        r = np.array([0.05, 0.1, 0.2, 0.3])
        dens = nc.ray_tables(r).dens[0]
        pred = (
            1.0
            + np.einsum("ij,i,j->", ds.order2, y, y) * r**2
            + np.einsum("kij,i,j,k->", ds.order3, y, y, y) * r**3
            + np.einsum("ijkl,i,j,k,l->", ds.order4, y, y, y, y) * r**4
        )
        err = np.abs(dens - pred)
        assert err[0] < 5e-8  # r = 0.05: remainder is O(r^5)
        assert err[1] < 1e-6
        assert err[3] < 5e-4

    def test_ev_from_chart_matches_algebraic_identity(self, conformal_chart):
        c = curvature_at(conformal_chart, np.zeros(3), want_hessian=True)
        ev = e_functional(v_tensor(c))
        want = (
            5 * c.sc**2
            + 8 * norm_sq(c.rc)
            - 3 * norm_sq(c.rm)
            - 18 * c.lap_sc
        ) / 360.0
        assert ev == pytest.approx(want, abs=5e-3)
