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
    charts,
    curvature_at,
    density_series,
    make_chart,
    norm_sq,
    scalar_curvature_batch,
)
from curvex._numerics import CubicSpline
from curvex.charts import (
    PROFILES,
    Box,
    MetricChart,
    _GenericCurvature,
    _JetEngine,
    _det,
    _det_inv,
)
from curvex.errors import (
    InvalidSpec,
    JacobianSingular,
    OutOfDomain,
    QuadratureNotConverged,
)
from curvex.functionals import sphere_rule
from curvex.moments import sphere_area
from curvex.tensor_core import e_functional, v_tensor
from oracles import recorded


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

    def test_product_sphere_block_respects_cut_locus(self):
        # one check per curved block: hw * sqrt(2) < pi / sqrt(K)
        make_chart(ModelSpec("product_sphere_line", 3, K=1.0, halfwidth=2.2))
        with pytest.raises(InvalidSpec):
            make_chart(ModelSpec("product_sphere_line", 3, K=1.0, halfwidth=2.25))

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

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("space_form", 3, K=1.0, halfwidth=1.7),
         ModelSpec("product_sphere_line", 3, K=1.0),
         ModelSpec("product_sphere_line", 4, K=-1.0)],
        ids=lambda s: f"{s.kind}-n{s.n}-K{s.K:+.0f}",
    )
    def test_space_form_generic_path_matches_callback(self, spec):
        # the same chart with its curvature package stripped exercises the
        # FD machinery, a second route to the direct-sum Rm of the products
        want = make_chart(spec).curvature
        ch_fd = make_chart(spec)
        ch_fd.curvature = None
        p = np.array([0.4, -0.3, 0.2, 0.1])[: spec.n]
        c = curvature_at(ch_fd, p, want_hessian=True)
        assert c.sc == pytest.approx(want.sc, abs=1e-7)
        assert np.abs(c.rc - want.rc).max() < 1e-7
        assert np.abs(c.rm - want.rm).max() < 1e-6
        assert norm_sq(want.rm) >= 4.0  # the check is not vacuous
        assert abs(c.lap_sc) < 2e-4
        assert np.abs(c.grad_sc).max() < 1e-6
        # curvature of a direct sum of space forms is parallel
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

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec("space_form", n, K=K) for n in (2, 3, 4) for K in (1.0, -1.0)]
        + [ModelSpec("product_sphere_line", 3, K=1.0),
           ModelSpec("product_sphere_line", 4, K=-1.0)],
        ids=lambda s: f"{s.kind}-n{s.n}-K{s.K:+.0f}",
    )
    def test_space_form_closed_form_matches_finite_differences(self, spec):
        """The space-form closed form (also the product chart's sphere
        block) against the jet engine, at the origin, within 1e-6 of it
        (where its radial functions run on their series) and across the
        box, where they run on sn and cn."""
        ch = make_chart(spec)
        assert ch.christoffel_route == "closed_form"
        n = spec.n
        rng = np.random.default_rng(6)
        hw = 0.9 * float(ch.domain.hi[0])
        near = rng.normal(size=(3, n))
        near *= rng.uniform(1e-9, 1e-6, size=(3, 1)) / np.linalg.norm(
            near, axis=1, keepdims=True
        )
        pts = np.vstack(
            [np.zeros(n), near, rng.uniform(-hw, hw, size=(12, n))]
        )
        g, ginv, gam, dgam = ch.christoffel(pts)
        g_fd, ginv_fd, gam_fd, dgam_fd = _JetEngine(ch).gamma(pts)
        assert np.allclose(g, ch.metric(pts), rtol=1e-13, atol=1e-15)
        assert np.allclose(ginv @ g, np.eye(n), rtol=0, atol=1e-13)
        assert np.abs(gam - gam_fd).max() < 1e-8
        assert np.abs(dgam - dgam_fd).max() < 1e-8
        # at the origin d_0 Gamma^1_01 = -K/3 in every direction
        assert dgam[0, 0, 1, 0, 1] == pytest.approx(-spec.K / 3.0, rel=1e-14)
        assert np.abs(dgam).max() > 0.3  # the check is not vacuous

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_flat_closed_form_is_exact(self, n):
        """Flat space is the K = 0 direct sum: exactly the identity and
        exactly zero Christoffels, bit for bit, across the box."""
        ch = make_chart(ModelSpec("flat", n))
        pts = np.random.default_rng(n).uniform(-3.0, 3.0, size=(2000, n))
        g, ginv, gam, dgam = ch.christoffel(pts)
        eye = np.broadcast_to(np.eye(n), (2000, n, n))
        assert np.array_equal(g, eye) and np.array_equal(ginv, eye)
        assert np.array_equal(ch.metric(pts), eye)
        assert not gam.any() and not dgam.any()

    def test_route_is_picked_from_the_input(self):
        assert _conformal(_plain("quartic_bump")).christoffel_route == (
            "finite_difference"
        )
        for spec in (
            ModelSpec("flat", 2),
            ModelSpec("product_sphere_line", 3, K=1.0),
            ModelSpec("space_form", 3, K=-1.0),
        ):
            assert make_chart(spec).christoffel_route == "closed_form"

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
            nc = build_normal_chart(ch, np.zeros(3), 0.8, rule=_rule(dirs),
                                    r_samples=96)
            tabs.append(_tangential_table(nc, r))
        (dens, tan), (dens_fd, tan_fd) = tabs
        assert np.abs(dens - dens_fd).max() < 1e-8
        assert np.abs(tan - tan_fd).max() < 1e-8
        assert np.abs(dens - 1.0).max() > 1e-3  # the metric is curved

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


def _rule(dirs):
    """Directions with equal weights summing to the sphere area: enough
    for the tests that read only the ray tables."""
    return dirs, np.full(len(dirs), sphere_area(dirs.shape[1]) / len(dirs))


def _tangential_table(nc, r):
    """Density (nd, nr) and the tangential block B_d^T g~^{-1} B_d
    (nd, nr, n-1, n-1) from an ode chart's spline, for oracles that need
    more than NormalChart.geometry contracts out of it.  The table holds
    the upper entries with the off-diagonal ones doubled."""
    m = nc.n - 1
    tab = nc._table(r).swapaxes(0, 1)
    i, j = np.triu_indices(m)
    tan = np.empty(tab.shape[:2] + (m, m))
    tan[..., i, j] = tab[..., 1:] / np.where(i == j, 1.0, 2.0)
    tan[..., j, i] = tan[..., i, j]
    return tab[..., 0], tan


def _tangential(nc, ginv):
    """B_d^T g~^{-1} B_d of full inverse metrics (nd, nr, n, n) in the ode
    chart's own bases B_d, which must be orthonormal and orthogonal to the
    rays."""
    B = nc._basis
    assert np.allclose(B.swapaxes(-1, -2) @ B, np.eye(nc.n - 1), rtol=0, atol=1e-15)
    assert np.abs(np.einsum("di,dij->dj", nc.dirs, B)).max() < 1e-15
    return B[:, None].swapaxes(-1, -2) @ ginv @ B[:, None]


def _density(nc, r):
    """The density part of NormalChart.geometry; an ode chart's is (nd, nr)."""
    nd = 1 if nc.dirs is None else nc.dirs.shape[0]
    return nc.geometry(r, np.zeros((nd, 1, nc.n)))[0]


def _split_quad(nc, X, M):
    """g~^{ij} M_i M_j through the Gauss-lemma split M = k d + w with w
    orthogonal to d = x/|x|: k^2 + w.g~^{-1}w, the form the functionals
    kernel uses."""
    r = np.linalg.norm(X, axis=1)
    d = X / r[:, None]
    k = np.einsum("mi,mi->m", d, M)
    dens, wgw = nc.geometry(r, M - k[:, None] * d)
    return dens, k**2 + wgw, nc.scalar(r)


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
        dens, quad, sc = _split_quad(nc, X, M)
        assert np.allclose(dens, np.sqrt(np.linalg.det(g)), rtol=1e-12, atol=0)
        want = np.einsum("mi,mij,mj->m", M, np.linalg.inv(g), M)
        assert np.allclose(quad, want, rtol=1e-12, atol=0)
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
        M = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        dens, quad, sc = _split_quad(nc, X, M)
        assert np.allclose(dens, 1.0)
        assert sc == 0.0
        assert np.allclose(quad, (M**2).sum(axis=1))

    def test_sphere_closed_form_density(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        nc = build_normal_chart(ch, np.zeros(3), 1.5)
        r = np.array([0.5, 1.0, 1.4])
        want = (np.sin(r) / r) ** 2
        dens, _ = nc.geometry(r, np.zeros(3))
        assert np.allclose(dens, want, rtol=1e-12)
        assert nc.scalar(r) == 6.0

    def test_hyperbolic_tangential_inverse(self):
        ch = make_chart(ModelSpec("space_form", 2, K=-1.0))
        nc = build_normal_chart(ch, np.zeros(2), 1.5)
        r = 1.1
        X = np.array([[r, 0.0]])
        M = np.array([[0.0, 1.0]])  # purely tangential covector
        want = (r / np.sinh(r)) ** 2
        _, wgw = nc.geometry(np.array([r]), M)
        assert wgw[0] == pytest.approx(want, rel=1e-12)
        assert _split_quad(nc, X, M)[1][0] == pytest.approx(want, rel=1e-12)

    def test_geometry_routes_by_chart_kind(self):
        """One call on both kinds, and one for Sc: on S^3 the closed form at
        the origin and the ode tables off centre agree; an ode chart takes
        one covector per ray of its bundle and nothing else."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        closed = build_normal_chart(ch, np.zeros(3), 1.0)
        dirs = np.eye(3)
        nc = build_normal_chart(
            ch, np.array([0.3, 0.0, 0.0]), 0.5, rule=_rule(dirs), r_samples=32
        )
        r = np.array([0.2, 0.45])
        w = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
        want = (*closed.geometry(r, w[:, None, :]), closed.scalar(r))
        got = (*nc.geometry(r, w[:, None, :]), nc.scalar(r))
        assert got[0].shape == got[1].shape == got[2].shape == (3, 2)
        for g, f in zip(got, want):
            assert np.allclose(g, f, rtol=1e-6, atol=0)
        with pytest.raises(InvalidSpec):
            nc.geometry(r, w[:2, None, :])

    @pytest.mark.parametrize("shape", [(3, 2), ()], ids=["per_ray", "scalar"])
    def test_ode_geometry_takes_one_radius_vector(self, shape, monkeypatch):
        """Radii with one row per ray, as symmetrize's crossings are, or a
        bare scalar are refused with InvalidSpec before the table is read."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.7))
        nc = build_normal_chart(
            ch, np.array([0.3, 0.0, 0.0]), 0.5, rule=_rule(np.eye(3)),
            r_samples=32,
        )
        reads = recorded(monkeypatch, nc, "_table")
        with pytest.raises(InvalidSpec, match="one radius vector"):
            nc.geometry(np.full(shape, 0.2), np.ones((3, 1, 3)))
        assert reads == []

    def test_ode_matches_closed_form_off_center(self):
        """Shooting from a non-origin sphere point reproduces the
        center-independent density (sin r / r)^2 and inverse metric
        P + (r / sin r)^2 (I - P), P the radial projector, whose tangential
        block B_d^T g~^{-1} B_d the table holds."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(8, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        nc = build_normal_chart(
            ch, np.array([0.3, -0.2, 0.1]), 1.2, rule=_rule(dirs), r_samples=270
        )
        r = np.linspace(0.05, 1.15, 7)
        w = rng.normal(size=(8, 3))
        w -= np.einsum("di,di->d", w, dirs)[:, None] * dirs  # orthogonal to d
        dens, wgw = nc.geometry(r, w[:, None, :])
        assert np.abs(dens - ((np.sin(r) / r) ** 2)[None, :]).max() < 1e-9
        assert np.abs(nc.scalar(r) - 6.0).max() < 1e-8
        want = ((r / np.sin(r)) ** 2)[None, :] * (w**2).sum(axis=1)[:, None]
        assert np.abs(wgw - want).max() < 1e-9
        P = dirs[:, None, :, None] * dirs[:, None, None, :]
        want = P + ((r / np.sin(r)) ** 2)[None, :, None, None] * (np.eye(3) - P)
        got = _tangential_table(nc, r)[1]
        assert np.abs(got - _tangential(nc, want)).max() < 1e-9

    def test_ode_flat_chart_is_exact(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=3.0))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        from curvex.charts import _ode_normal_chart

        nc = _ode_normal_chart(
            ch, np.array([0.2, 0.1]), 1.0, _rule(dirs), r_samples=20, rtol=1e-10
        )
        assert np.abs(_density(nc, np.array([0.3, 0.8])) - 1.0).max() < 1e-10

    def test_conformal_ode_density_positive_and_smooth(self):
        spec = ModelSpec(
            "conformal_flat",
            3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        )
        ch = make_chart(spec)
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=_rule(dirs),
                                r_samples=128)
        dens = _density(nc, np.linspace(0.0, 0.9, 20))
        assert dens.min() > 0
        assert np.abs(dens[:, 0] - 1.0).max() < 1e-10

    def test_ray_tables_converge_under_refinement(self, conformal_chart):
        """The c06 chart's tables at off-grid radii barely move when the
        sample radii are refined fourfold."""
        r = np.linspace(0.013, 0.887, 23)
        tabs = [
            _tangential_table(build_normal_chart(
                conformal_chart, np.zeros(3), 0.9, rule=sphere_rule(3, 16),
                r_samples=rs
            ), r)
            for rs in (384, 1536)
        ]
        assert np.abs(tabs[0][0] - tabs[1][0]).max() < 1e-11
        assert np.abs(tabs[0][1] - tabs[1][1]).max() < 1e-11

    def test_ode_build_memory(self, conformal_chart):
        """The c06 chart with the full order-16 bundle (512 rays) and the
        default 384 radii: the integrator writes only x and J of the sampled states
        straight into one radius-major array, the (radii, rays, 1 + n(n-1)/2)
        table is filled a block of radii at a time, and the build peaks at
        40 MB (bound: that plus 25 %); what the chart holds afterwards,
        13.5 MB, stays bounded likewise."""
        rule = sphere_rule(3, 16)
        tracemalloc.start()
        try:
            nc = build_normal_chart(conformal_chart, np.zeros(3), 0.9, rule=rule)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nc.kind == "ode"
        assert peak < 50e6, f"peak {peak / 1e6:.0f} MB"
        assert held < 17e6, f"held {held / 1e6:.0f} MB"

    @pytest.mark.parametrize("which", ["c06", "S3_off_centre"])
    def test_sc_points_match_spline_through_table_radii(
        self, which, conformal_chart, monkeypatch
    ):
        """The exp points of the Sc grid, read off the integrator's dense
        output, against a not-a-knot spline through the exp points at the
        384 table radii of the same shooting, evaluated on the Sc grid."""
        if which == "c06":
            ch, p, r0 = conformal_chart, np.zeros(3), 0.9
        else:
            ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
            p, r0 = np.array([0.3, -0.2, 0.1]), 1.0
        shots = recorded(monkeypatch, charts, "dopri45")
        nc = build_normal_chart(ch, p, r0, rule=sphere_rule(3, 16))
        ((_, _, t_out, _, _), _, (states, _)), = shots
        r_grid = np.linspace(0.0, r0, 384)
        at_grid = np.searchsorted(t_out, r_grid)
        assert np.array_equal(t_out[at_grid], r_grid)
        nd = nc.dirs.shape[0]
        spline = CubicSpline(r_grid, states[at_grid, : nd * 3].reshape(-1, nd, 3))
        want = spline(np.linspace(0.0, r0, nc._sc_pts.shape[0]))
        assert np.abs(nc._sc_pts - want).max() < 1e-9
        assert np.abs(nc._sc_pts - p).max() > 0.5 * r0  # the points move

    @pytest.mark.parametrize("r0", [1.4, 1.65])
    def test_conjugate_point_raises(self, r0):
        """S^2(K=4) x R through its metric alone, shot from (0.3, 0, 0):
        the ray (-1, 0, 0) meets the conjugate point at r = pi/2, where
        det J changes sign, so the build raises past it and succeeds
        before it."""
        metric = make_chart(
            ModelSpec("product_sphere_line", 3, K=4.0, halfwidth=1.0)
        ).metric
        ch = MetricChart(3, Box.cube(3, 2.0), metric)
        dirs = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        p = np.array([0.3, 0.0, 0.0])
        if r0 < np.pi / 2:
            nc = build_normal_chart(ch, p, r0, rule=_rule(dirs), r_samples=166)
            assert _density(nc, np.array([r0])).min() > 0
        else:
            with pytest.raises(JacobianSingular):
                build_normal_chart(ch, p, r0, rule=_rule(dirs), r_samples=166)

    def test_gauss_lemma_residual(self, conformal_chart):
        """g~^{-1} y = y along every ray of a normal chart: the c06 chart
        records a small residual at the default rtol and raises once a
        loose rtol leaves it above 1e-8."""
        rule = sphere_rule(3, 8)
        nc = build_normal_chart(conformal_chart, np.zeros(3), 0.9, rule=rule)
        assert 0 < nc.gauss_residual < 1e-9
        with pytest.raises(QuadratureNotConverged):
            build_normal_chart(
                conformal_chart, np.zeros(3), 0.9, rule=rule, rtol=1e-6
            )

    def test_normal_ball_must_fit(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=1.0))
        with pytest.raises(OutOfDomain):
            build_normal_chart(ch, np.array([0.8, 0.0]), 0.5)


_MIRROR_EVEN = (
    [ModelSpec("flat", n) for n in (2, 3, 5)]
    + [ModelSpec("space_form", n, K=K) for n in (2, 3, 4, 5) for K in (1.0, -1.0)]
    + [ModelSpec("product_sphere_line", n, K=1.0) for n in (3, 4)]
    + [ModelSpec("conformal_flat", 3, halfwidth=1.5,
                 perturbation=Perturbation(0.05, PROFILES[name], name))
       for name in sorted(PROFILES)]
)


class TestMirrorEven:
    """make_chart marks the charts whose metric is even in each coordinate
    about the origin (MetricChart.mirror_even), the condition for shooting
    a folded ray bundle there.  The oracle is the metric map itself:
    g(S x) = S g(x) S for every coordinate reflection S."""

    @staticmethod
    def _mirror_defect(ch, samples=200):
        """Largest |g(S x) - S g(x) S| over the coordinate reflections S
        at random points of the box, relative to the largest |g|."""
        rng = np.random.default_rng(17)
        X = rng.uniform(ch.domain.lo, ch.domain.hi, size=(samples, ch.n))
        g = ch.metric(X)
        worst = 0.0
        for k in range(ch.n):
            S = np.ones(ch.n)
            S[k] = -1.0
            gS = ch.metric(X * S)
            worst = max(worst, float(np.abs(gS - S[:, None] * g * S).max()))
        return worst / float(np.abs(g).max())

    @pytest.mark.parametrize(
        "spec", _MIRROR_EVEN,
        ids=lambda s: f"{s.kind}-n{s.n}-K{s.K:+.0f}"
        + (f"-{s.perturbation.name}" if s.perturbation else ""),
    )
    def test_marked_charts_are_even(self, spec):
        ch = make_chart(spec)
        assert ch.mirror_even
        assert np.array_equal(ch.domain.lo, -ch.domain.hi)
        assert self._mirror_defect(ch) <= 1e-15

    def test_unmarked_charts(self):
        """A plain-callable profile carries no symmetry make_chart can
        read, radial or not, and a hand-built MetricChart none either.  The
        non-radial profile is indeed not even."""
        skew = _conformal(lambda X: X[:, 0] + X[:, 1] ** 2, eps=0.2)
        assert not skew.mirror_even
        assert self._mirror_defect(skew) > 1e-2
        assert not _conformal(_plain("quartic_bump")).mirror_even
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        assert not MetricChart(3, cat.domain, cat.metric).mirror_even
        with pytest.raises(AttributeError):
            cat.mirror_even = False

    def test_fold_needs_the_origin_of_a_marked_chart(self, conformal_chart):
        rule = sphere_rule(3, 8, True)
        nc = build_normal_chart(conformal_chart, np.zeros(3), 0.5, rule=rule,
                                fold=True, r_samples=32)
        assert nc.folded and nc.mirror_even
        with pytest.raises(InvalidSpec):
            build_normal_chart(conformal_chart, np.array([0.1, 0.0, 0.0]),
                               0.5, rule=rule, fold=True, r_samples=32)
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        with pytest.raises(InvalidSpec):
            build_normal_chart(MetricChart(3, cat.domain, cat.metric),
                               np.zeros(3), 0.5, rule=rule, fold=True,
                               r_samples=32)
        full = build_normal_chart(conformal_chart, np.zeros(3), 0.5,
                                  rule=sphere_rule(3, 8), r_samples=32)
        assert not full.folded and not full.mirror_even


class TestDetInv:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(12)
        a = np.eye(n) + 0.25 * rng.normal(size=(4, 50, n, n))
        assert np.linalg.cond(a).max() < 20  # well conditioned, not symmetric
        det, inv = _det_inv(a)
        want = np.linalg.det(a)
        assert np.all(np.abs(det - want) <= 1e-13 * np.abs(want))
        want = np.linalg.inv(a)
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(inv - want) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_determinant_alone(self, n):
        """The conjugate-point check's determinant: the one _det_inv
        returns, bit for bit, and LAPACK's above n = 3."""
        rng = np.random.default_rng(13)
        a = np.eye(n) + 0.25 * rng.normal(size=(4, 50, n, n))
        want = np.linalg.det(a) if n > 3 else _det_inv(a)[0]
        assert np.array_equal(_det(a), want)


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
            conformal_chart, np.zeros(3), 0.5, rule=_rule(y[None, :]),
            r_samples=128
        )
        r = np.array([0.05, 0.1, 0.2, 0.3])
        dens = _density(nc, r)[0]
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
