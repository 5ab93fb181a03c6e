"""Chart catalog and finite-difference curvature.

The conformal-factor oracle values were frozen from a sympy computation of
the exact curvature of g = exp(2f) delta, f = (|x|^2 + |x|^4) / 20, n=3."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from curvex import (
    ModelSpec,
    Perturbation,
    QuadratureSpec,
    build_normal_chart,
    charts,
    curvature_at,
    density_series,
    make_chart,
    norm_sq,
    run_expansion,
    scalar_curvature_batch,
)
from curvex._numerics import CubicSpline
from curvex.charts import (
    PROFILES,
    Box,
    MetricChart,
    _GenericCurvature,
    _JetEngine,
    _box_points,
    _det_inv,
)
from curvex.errors import (
    InvalidSpec,
    JacobianSingular,
    MissingField,
    OutOfDomain,
    QuadratureNotConverged,
)
from curvex.functionals import ball_volume, sphere_rule
from curvex.moments import sphere_area
from curvex.tensor_core import e_functional, v_tensor
from oracles import conformal_warp, recorded, shooting_chart


@pytest.fixture(scope="module")
def conformal_chart():
    spec = ModelSpec(
        "conformal_flat",
        3,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"], "quartic_bump"),
        halfwidth=1.5,
    )
    return make_chart(spec)


@pytest.fixture(scope="module")
def conformal_shot(conformal_chart):
    """The c06 metric and closed-form Christoffels in a hand-built chart:
    no warp, so its normal charts are shot (the catalog chart's origin is
    a warped centre)."""
    return shooting_chart(conformal_chart)


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

    @pytest.mark.parametrize("n,K", [(2, -17_822.0), (5, -33_830.0)])
    def test_strongly_hyperbolic_block_raises_before_its_metric(self, n, K):
        """At the default halfwidth 2, sqrt(-K) times the box corner's
        radius is 378 and 823: sinh^2 there overflows, and the chart is
        refused before its metric is evaluated (a RuntimeWarning would be
        an error under the tier-1 filter)."""
        for kind in ("space_form", "product_sphere_line")[: 1 + (n > 2)]:
            with pytest.raises(InvalidSpec, match="out of double range"):
                make_chart(ModelSpec(kind, n, K=K))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_probe_points_cover_the_box(self, n):
        """make_chart's positive-definiteness probe reads 128 fixed points
        of the box: the same at every call, inside it, 10 to 20 of them in
        each eighth of every coordinate's range and some in each of the
        4 x 4 cells of every pair of coordinates."""
        lo, hi = -np.arange(1.0, n + 1), np.full(n, 2.0)
        X = _box_points(lo, hi, 128)
        assert X.shape == (128, n) and np.array_equal(X, _box_points(lo, hi, 128))
        u = (X - lo) / (hi - lo)
        assert np.all((u > 0.0) & (u < 1.0))
        for j in range(n):
            counts = np.bincount((8 * u[:, j]).astype(int), minlength=8)
            assert counts.min() >= 10 and counts.max() <= 20
        for i in range(n):
            for j in range(i + 1, n):
                cells = {(a, b) for a, b in (4 * u[:, [i, j]]).astype(int).tolist()}
                assert len(cells) == 16

    def test_probe_finds_an_indefinite_corner(self):
        """A metric that loses definiteness in one corner of the box only,
        x_1, x_2 > 0.8 in [-1, 1]^2, is refused; the box without that
        corner passes."""
        def metric(X):
            g = np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2)).copy()
            g[..., 0, 0] -= 2.0 * ((X[..., 0] > 0.8) & (X[..., 1] > 0.8))
            return g

        with pytest.raises(InvalidSpec, match="not positive definite"):
            charts._check_positive_definite(MetricChart(2, Box.cube(2, 1.0), metric))
        charts._check_positive_definite(MetricChart(2, Box.cube(2, 0.8), metric))

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
        the closed-form route's ray tables (both shot: the catalog chart's
        origin is a warped centre, so its Christoffels go into a
        hand-built chart)."""
        rng = np.random.default_rng(3)
        dirs = rng.normal(size=(6, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = np.linspace(0.0, 0.8, 9)
        tabs = []
        for profile in (PROFILES[name], _plain(name)):
            ch = shooting_chart(_conformal(profile, eps=0.2))
            nc = build_normal_chart(ch, np.zeros(3), 0.8, rule=_rule(dirs),
                                    r_samples=96)
            tabs.append(_tangential_table(nc, r))
        (dens, tan), (dens_fd, tan_fd) = tabs
        assert np.abs(dens - dens_fd).max() < 1e-8
        assert np.abs(tan - tan_fd).max() < 1e-8
        assert np.abs(dens - 1.0).max() > 1e-3  # the metric is curved

    def test_closed_form_curvature_matches_finite_differences(self):
        p = np.array([0.15, -0.1, 0.125])
        closed = curvature_at(_conformal(PROFILES["gaussian_bump"]), p,
                              want_hessian=True)
        fd = curvature_at(_conformal(_plain("gaussian_bump")), p, want_hessian=True)
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
    dirs = np.eye(1, nc.n) if nc.dirs is None else nc.dirs
    return nc.geometry(r, np.zeros((len(dirs), 1, nc.n)), dirs[:, None, :])[0]


def _split_quad(nc, X, M):
    """g~^{ij} M_i M_j through the Gauss-lemma split M = k d + w with w
    orthogonal to d = x/|x|: k^2 + w.g~^{-1}w, the form the functionals
    kernel uses."""
    r = np.linalg.norm(X, axis=1)
    d = X / r[:, None]
    k = np.einsum("mi,mi->m", d, M)
    dens, wgw = nc.geometry(r, M - k[:, None] * d, d)
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
        dens, _ = nc.geometry(r, np.zeros(3), np.eye(1, 3))
        assert np.allclose(dens, want, rtol=1e-12)
        assert nc.scalar(r) == 6.0

    def test_hyperbolic_tangential_inverse(self):
        ch = make_chart(ModelSpec("space_form", 2, K=-1.0))
        nc = build_normal_chart(ch, np.zeros(2), 1.5)
        r = 1.1
        X = np.array([[r, 0.0]])
        M = np.array([[0.0, 1.0]])  # purely tangential covector
        want = (r / np.sinh(r)) ** 2
        _, wgw = nc.geometry(np.array([r]), M, X / r)
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
        want = (*closed.geometry(r, w[:, None, :], dirs[:, None, :]),
                closed.scalar(r))
        got = (*nc.geometry(r, w[:, None, :], dirs[:, None, :]), nc.scalar(r))
        assert got[0].shape == got[1].shape == got[2].shape == (3, 2)
        for g, f in zip(got, want):
            assert np.allclose(g, f, rtol=1e-6, atol=0)
        with pytest.raises(InvalidSpec):
            nc.geometry(r, w[:2, None, :], dirs[:2, None, :])

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
            nc.geometry(np.full(shape, 0.2), np.ones((3, 1, 3)), nc.dirs[:, None, :])
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
        dens, wgw = nc.geometry(r, w[:, None, :], dirs[:, None, :])
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

    def test_conformal_ode_density_positive_and_smooth(self, conformal_shot):
        ch = conformal_shot
        dirs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=_rule(dirs),
                                r_samples=128)
        dens = _density(nc, np.linspace(0.0, 0.9, 20))
        assert dens.min() > 0
        assert np.abs(dens[:, 0] - 1.0).max() < 1e-10

    def test_ray_tables_converge_under_refinement(self, conformal_shot):
        """The c06 chart's shot tables at off-grid radii barely move when
        the sample radii are refined fourfold."""
        r = np.linspace(0.013, 0.887, 23)
        tabs = [
            _tangential_table(build_normal_chart(
                conformal_shot, np.zeros(3), 0.9, rule=sphere_rule(3, 16),
                r_samples=rs
            ), r)
            for rs in (384, 1536)
        ]
        assert np.abs(tabs[0][0] - tabs[1][0]).max() < 1e-11
        assert np.abs(tabs[0][1] - tabs[1][1]).max() < 1e-11

    def test_ode_build_memory(self, conformal_shot):
        """The c06 metric shot along the full order-16 bundle (512 rays), the
        default 384 radii: the integrator writes only x and J of the sampled states
        straight into one radius-major array, the (radii, rays, 1 + n(n-1)/2)
        table is filled a block of radii at a time, and the build peaks at
        40 MB (bound: that plus 25 %); what the chart holds afterwards,
        13.5 MB, stays bounded likewise."""
        rule = sphere_rule(3, 16)
        tracemalloc.start()
        try:
            nc = build_normal_chart(conformal_shot, np.zeros(3), 0.9, rule=rule)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nc.kind == "ode"
        assert peak < 50e6, f"peak {peak / 1e6:.0f} MB"
        assert held < 17e6, f"held {held / 1e6:.0f} MB"

    def test_oversized_rule_raises_before_it_shoots(self, monkeypatch):
        """Off the centre of H^4 the order-40 rule, asked for explicitly or
        shot at the measured order, is 128,000 rays, whose sampled states
        (447 radii of x and J, 20 doubles, per ray) would keep 8.5 GiB:
        run_expansion raises InvalidSpec naming the 9,383 rays that fit in
        640 MiB, and dopri45 is never called.  Off the centre of S^3 the
        order-16 rule (512 rays) still shoots."""
        shots = recorded(monkeypatch, charts, "dopri45")
        h4 = make_chart(ModelSpec("space_form", 4, K=-1.0))
        for quad in (QuadratureSpec(order=40), QuadratureSpec()):
            with pytest.raises(InvalidSpec,
                               match=r"^shooting 128000 rays.*at most 9383 rays fit$"):
                run_expansion(h4, np.array([0.1, 0.0, 0.0, 0.05]), "L",
                              r_s=0.5, quad=quad)
        assert shots == []
        s3 = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        nc = build_normal_chart(s3, np.array([0.3, -0.2, 0.1]), 1.0,
                                rule=sphere_rule(3, 16))
        assert nc.kind == "ode" and len(shots) == 1

    @pytest.mark.parametrize("which", ["c06", "S3_off_centre"])
    def test_sc_points_match_spline_through_table_radii(
        self, which, conformal_shot, monkeypatch
    ):
        """The exp points of the Sc grid, read off the integrator's dense
        output, against a not-a-knot spline through the exp points at the
        384 table radii of the same shooting, evaluated on the Sc grid."""
        if which == "c06":
            ch, p, r0 = conformal_shot, np.zeros(3), 0.9
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

    def test_gauss_lemma_residual(self, conformal_shot):
        """g~^{-1} y = y along every ray of a normal chart: the shot c06
        chart records a small residual at the default rtol and raises once
        a loose rtol leaves it above 1e-8."""
        rule = sphere_rule(3, 8)
        nc = build_normal_chart(conformal_shot, np.zeros(3), 0.9, rule=rule)
        assert 0 < nc.gauss_residual < 1e-9
        with pytest.raises(QuadratureNotConverged):
            build_normal_chart(
                conformal_shot, np.zeros(3), 0.9, rule=rule, rtol=1e-6
            )

    def test_normal_ball_must_fit(self):
        ch = make_chart(ModelSpec("flat", 2, halfwidth=1.0))
        with pytest.raises(OutOfDomain):
            build_normal_chart(ch, np.array([0.8, 0.0]), 0.5)


class TestWarpedChart:
    """The warped normal chart of a conformal chart with a RadialProfile at
    its origin: the warp f against an independent mpmath route
    (oracles.conformal_warp: tanh-sinh arc lengths at 30 digits) and its
    Sc against the chart's own curvature route, scalar_curvature_batch at
    the exp points rho(r) e_1.  Measured: rho, f and the arc length within
    4.5e-16, Sc within 1.5e-15 relative (bounds 1e-13 and 1e-12)."""

    RHO = np.array([0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.2, 1.5])
    PHI = {  # the PROFILES entries in mpmath
        "quartic_bump": lambda s: s + s * s,
        "gaussian_bump": lambda s: mpmath.exp(-s / mpmath.mpf("0.5625")),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("eps", [0.05, -0.2])
    def test_warp_matches_mpmath(self, name, eps):
        (warp,) = _conformal(PROFILES[name], eps=eps).warps
        r, f = conformal_warp(eps, self.PHI[name], self.RHO)
        np.testing.assert_allclose(warp.rho(r), self.RHO, rtol=0, atol=1e-13)
        np.testing.assert_allclose(warp.arc(self.RHO), r, rtol=0, atol=1e-13)
        np.testing.assert_allclose(warp.f(r), f, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_scalar_matches_the_curvature_route(self, name):
        ch = _conformal(PROFILES[name])
        nc = build_normal_chart(ch, np.zeros(3), 1.2)
        r = np.array([0.0, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.2])
        x = nc.warps[0].rho(r)[:, None] * np.eye(1, 3)
        want = scalar_curvature_batch(ch, x)
        np.testing.assert_allclose(nc.scalar(r), want, rtol=1e-12, atol=0)
        assert np.ptp(want) > 0.1  # Sc varies over the ball
        if name == "quartic_bump":  # Sc(0) = -24 eps phi'(0) = -1.2 on c06
            assert nc.scalar(1e-6) == pytest.approx(-1.2, rel=1e-10)

    def test_origin_is_exact(self):
        """At r = 0 the density is 1, w.g~^{-1}w is |w|^2 and f/r is taken
        as its limit, without a 0/0 (the suite turns RuntimeWarning into an
        error)."""
        nc = build_normal_chart(_conformal(PROFILES["gaussian_bump"]),
                                np.zeros(3), 0.9)
        dens, wgw = nc.geometry(np.zeros(2), np.array([[0.0, 1.0, 2.0]] * 2),
                                np.eye(2, 3))
        assert dens.tolist() == [1.0, 1.0] and wgw.tolist() == [5.0, 5.0]
        assert nc.shell(0.0) == 0.0

    @pytest.mark.parametrize("eps", [0.05, -0.2])
    def test_box_check_reads_the_coordinate_radius(self, eps):
        """The normal ball fits when rho(r0), not r0, stays inside the box:
        with eps > 0 a geodesic radius beyond the box halfwidth still fits,
        with eps < 0 one short of it may not."""
        ch = _conformal(PROFILES["quartic_bump"], eps=eps)
        hw = float(ch.domain.hi[0])
        (warp,) = ch.warps
        top = warp.top
        assert top == float(warp.arc(hw)) and (top > hw) == (eps > 0)
        nc = build_normal_chart(ch, np.zeros(3), top * (1.0 - 1e-12))
        assert nc.kind == "warped" and nc.warps == (warp,)
        assert warp.rho(nc.radius) <= hw
        with pytest.raises(OutOfDomain):
            build_normal_chart(ch, np.zeros(3), top * (1.0 + 1e-12))

    def test_one_inversion_per_evaluation(self, monkeypatch):
        """rho keeps its last radii, so a W run on c06 inverts once for the
        box check and once per kernel pass (the whole time grid in one
        pass for the main rule and one for the error rule), not again for
        Sc: 3 inversions instead of 5, with the values of a warp that
        inverts at every call, bit for bit."""
        def run():
            calls = recorded(monkeypatch, charts, "bracketed_newton")
            res = run_expansion(
                _conformal(PROFILES["quartic_bump"]), np.zeros(3), "W", r_s=0.9,
                quad=QuadratureSpec(rule="radial_sphere", order=16))
            return res.values, len(calls)

        values, inversions = run()
        assert inversions == 3
        rho = charts._ConformalWarp.rho

        def forgetful(self, r):
            self._last = None
            return rho(self, r)

        monkeypatch.setattr(charts._ConformalWarp, "rho", forgetful)
        again, inversions = run()
        assert inversions == 5 and again.tobytes() == values.tobytes()

    def test_refined_inversion_keeps_c06(self, monkeypatch):
        """c06's fitted c2 moves by 1e-3 when its geometry moves by 1e-10,
        so the inversion is held at rounding: doubling the Gauss-Legendre
        nodes of the arc length and tightening the Newton step a
        hundredfold move it by less than 1e-5.  The base is the converged
        fit of the Laguerre radial rule, whose error estimates all sit at
        the rounding floor, so the fit is unweighted (23.30778; 23.3102
        on the split rule with its unconverged order-16 offset)."""
        def c2():
            ch = _conformal(PROFILES["quartic_bump"])
            return run_expansion(ch, np.zeros(3), "L", r_s=0.9, quad=QuadratureSpec(
                rule="radial_sphere", order=16)).fit.c2

        base = c2()
        monkeypatch.setattr(charts, "_ARC_NODES", 2 * charts._ARC_NODES)
        monkeypatch.setattr(charts, "_ARC_RTOL", 1e-2 * charts._ARC_RTOL)
        assert c2() == pytest.approx(base, abs=1e-5)
        assert base == pytest.approx(23.3078, abs=1e-4)


def _disc_area(K, rho):
    """Area of the geodesic disc of radius rho in M^2_K, 2 pi (1 -
    cos(sqrt(K) rho))/K (cosh for K < 0), in mpmath."""
    k = mpmath.sqrt(abs(K))
    cn = mpmath.cos(k * rho) if K > 0 else mpmath.cosh(k * rho)
    return 2 * mpmath.pi * (1 - cn) / K


def _product_ball_volume(K, m, r, dps=30):
    """Volume of the geodesic ball of radius r about a point of M^2_K x
    R^m by mpmath at dps digits: the ball is the set of (x, h) with
    d(x)^2 + |h|^2 <= r^2, so its volume is |S^(m-1)| times the integral
    over 0 <= h <= r of A_K(sqrt(r^2 - h^2)) h^(m-1) (2 int_0^r A_K dh
    for m = 1)."""
    with mpmath.workdps(dps):
        r = mpmath.mpf(float(r))
        area = 2 * mpmath.pi ** (mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2)
        return float(area * mpmath.quad(
            lambda h: _disc_area(K, mpmath.sqrt(r * r - h * h)) * h ** (m - 1),
            [0, r]))


_DIRECT_SUMS = [
    pytest.param(ModelSpec("product_sphere_line", 3, K=1.0), 5, id="S2xR"),
    pytest.param(ModelSpec("product_sphere_line", 3, K=4.0, halfwidth=1.0), 5,
                 id="S2(4)xR"),
    pytest.param(ModelSpec("product_sphere_line", 4, K=-1.0), 4, id="H2xR2"),
]


class TestDirectSumChart:
    """The warped normal chart of a direct sum of space-form blocks at its
    origin (one warp per block, the exponential map the product of the
    blocks') against the shot chart of the same metric,
    oracles.shooting_chart along the full sphere rule, and its ball
    volumes against mpmath.  The radius is 0.9 on each, sqrt(K) r0 = 1.8
    on S^2(4) x R."""

    R0 = 0.9

    @staticmethod
    def _charts(spec):
        cat = make_chart(spec)
        return cat, shooting_chart(cat)

    @pytest.mark.parametrize("spec,order", _DIRECT_SUMS)
    def test_geometry_matches_the_shot_bundle(self, spec, order):
        """Density, w.g~^{-1}w for random w orthogonal to each ray and Sc
        on every ray of a full sphere rule, shot: within 1e-9.  Measured
        up to 3.5e-10 (w.g~^{-1}w on S^2(4) x R), the shot tables'
        error; 1.2e-12 and 6.2e-13 on the other two."""
        cat, shot = self._charts(spec)
        n = spec.n
        nc = build_normal_chart(cat, np.zeros(n), self.R0)
        assert nc.kind == "warped" and nc.warps == cat.warps
        assert [w.K for w in nc.warps] == [spec.K, 0.0]
        ode = build_normal_chart(shot, np.zeros(n), self.R0,
                                 rule=sphere_rule(n, order))
        assert ode.kind == "ode"
        dirs = ode.dirs[:, None, :]
        w = np.random.default_rng(5).normal(size=ode.dirs.shape)
        w = (w - np.einsum("di,di->d", w, ode.dirs)[:, None] * ode.dirs)[:, None]
        r = np.linspace(0.0, self.R0, 37)
        for got, want in zip(nc.geometry(r, w, dirs), ode.geometry(r, w, dirs)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-9
        assert np.abs(nc.scalar(r) - ode.scalar(r)).max() < 1e-9
        assert nc.scalar(r) == 2.0 * spec.K

    _shot_fits = {}

    @classmethod
    def _shot_fit(cls, spec):
        """run_expansion of L with a = Rc/3 on the shot chart, along the
        full sphere rule of order 12 (288 rays; order 8 at n = 4, 1,024
        rays), once per spec."""
        key = (spec.n, spec.K)  # tells _DIRECT_SUMS apart
        if key not in cls._shot_fits:
            cat, shot = cls._charts(spec)
            quad = QuadratureSpec(rule="radial_sphere",
                                  order=12 if spec.n == 3 else 8)
            cls._shot_fits[key] = run_expansion(
                shot, np.zeros(spec.n), "L", r_s=cls.R0, quad=quad,
                curv=curvature_at(cat, np.zeros(spec.n)))
        return cls._shot_fits[key]

    @pytest.mark.parametrize("order", [12, 16, 24])
    @pytest.mark.parametrize("spec,_", _DIRECT_SUMS)
    def test_fit_matches_the_shot_chart(self, spec, _, order):
        """run_expansion of L with a = Rc/3 on the warped chart at each
        order, its nodes folded onto the blocks, against the shot chart's
        fit on the full rule (_shot_fit): c1 within 1e-7 and c2 within
        2e-4 relative of each other, and each within the prediction's
        tolerances (c1 5e-3, c2 1e-2 relative).  Measured: c1 within
        1.2e-8 and c2 within 5.8e-5 relative (S^2(4) x R, 6.2e-4 absolute
        in c2 at every order); on S^2 x R c2 moves by at most 3.3e-7, c2
        = -0.66697223 on the warped chart at order 16."""
        cat = make_chart(spec)
        n = spec.n
        quad = QuadratureSpec(rule="radial_sphere", order=order)
        closed = run_expansion(cat, np.zeros(n), "L", r_s=self.R0, quad=quad,
                               curv=curvature_at(cat, np.zeros(n)))
        ode = self._shot_fit(spec)
        assert closed.meta["normal_chart"] == "warped"
        assert "nfev" not in closed.meta and ode.meta["nfev"] > 0
        assert closed.meta["fold"] == [list(b) for b in cat.symmetry]
        assert ode.meta["fold"] is None
        assert ode.meta["rays"] == (288 if n == 3 else 1024)
        assert closed.fit.c1 == pytest.approx(ode.fit.c1, rel=1e-7)
        assert closed.fit.c2 == pytest.approx(ode.fit.c2, rel=2e-4)
        if spec.K == 1.0:
            assert abs(closed.fit.c2 - ode.fit.c2) < 1e-6
        for res in (closed, ode):
            assert res.fit.c1 == pytest.approx(res.predicted.c1, rel=5e-3)
            assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=1e-2)

    def test_checks_of_the_build(self):
        """The box must hold r0, the sphere block must stay short of its
        cut locus, and the chart's metric at the origin must be the
        identity the blocks' normal coordinates have there: a chart whose
        metric was swapped after make_chart is refused."""
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=4.0,
                                   halfwidth=1.0))
        assert build_normal_chart(cat, np.zeros(3), 1.0).kind == "warped"
        with pytest.raises(OutOfDomain):
            build_normal_chart(cat, np.zeros(3), 1.0 + 1e-12)
        wide = make_chart(ModelSpec("product_sphere_line", 3, K=4.0,
                                    halfwidth=1.1))
        with pytest.raises(InvalidSpec, match="cut locus"):
            build_normal_chart(wide, np.zeros(3), 0.995 * np.pi / 2.0)
        metric = cat.metric
        cat.metric = lambda X: 1.01 * metric(X)
        with pytest.raises(InvalidSpec, match="identity"):
            build_normal_chart(cat, np.zeros(3), 0.5)

    @pytest.mark.parametrize("spec,_", _DIRECT_SUMS)
    def test_ball_volume_matches_mpmath(self, spec, _):
        """The shell of the direct sum sums density r^(n-1) under the
        orbit rule of its blocks; its ball volumes against mpmath's
        (_product_ball_volume) within 1e-12 relative.  Measured: within
        7.8e-16 on both S^2 x R and 1.6e-15 on H^2 x R^2."""
        n = spec.n
        nc = build_normal_chart(make_chart(spec), np.zeros(n), self.R0)
        r = np.array([0.1, 0.3, 0.6, 0.9])
        want = [_product_ball_volume(spec.K, n - 2, x) for x in r]
        np.testing.assert_allclose(ball_volume(nc, r), want, rtol=1e-12, atol=0)
        assert nc.shell(r.reshape(2, 2, 1)).shape == (2, 2, 1)


_MIRROR_EVEN = (
    [ModelSpec("flat", n) for n in (2, 3, 5)]
    + [ModelSpec("space_form", n, K=K) for n in (2, 3, 4, 5) for K in (1.0, -1.0)]
    + [ModelSpec("product_sphere_line", n, K=1.0) for n in (3, 4)]
    + [ModelSpec("conformal_flat", 3, halfwidth=1.5,
                 perturbation=Perturbation(0.05, PROFILES[name], name))
       for name in sorted(PROFILES)]
)


class TestMirrorEven:
    """make_chart marks the symmetry of each chart's metric about the
    origin (MetricChart.symmetry), the condition for shooting a folded ray
    bundle there: a partition of the coordinates into blocks whose block
    group leaves the metric invariant.  The oracle is the metric map
    itself: g(R x) = R g(x) R^T for coordinate reflections R and for
    random orthogonal maps R of the block group."""

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

    @staticmethod
    def _rotation_defect(ch, blocks, samples=200):
        """Largest |g(R x) - R g(x) R^T| over random orthogonal maps R of
        the block group of blocks at random points of the box's inscribed
        ball, relative to the largest |g|."""
        rng = np.random.default_rng(19)
        hw = float(ch.domain.hi[0])
        X = rng.normal(size=(samples, ch.n))
        X *= hw * rng.uniform(0.0, 1.0, (samples, 1)) / np.linalg.norm(
            X, axis=1, keepdims=True)
        g = ch.metric(X)
        worst = 0.0
        for _ in range(4):
            R = np.zeros((ch.n, ch.n))
            for b in blocks:
                R[np.ix_(b, b)] = np.linalg.qr(rng.normal(size=(len(b),) * 2))[0]
            gR = ch.metric(X @ R.T)
            worst = max(worst, float(np.abs(gR - R @ g @ R.T).max()))
        return worst / float(np.abs(g).max())

    @pytest.mark.parametrize(
        "spec", _MIRROR_EVEN,
        ids=lambda s: f"{s.kind}-n{s.n}-K{s.K:+.0f}"
        + (f"-{s.perturbation.name}" if s.perturbation else ""),
    )
    def test_marked_charts_are_even(self, spec):
        ch = make_chart(spec)
        assert ch.symmetry is not None
        assert np.array_equal(ch.domain.lo, -ch.domain.hi)
        assert self._mirror_defect(ch) <= 1e-15

    @pytest.mark.parametrize(
        "spec", _MIRROR_EVEN,
        ids=lambda s: f"{s.kind}-n{s.n}-K{s.K:+.0f}"
        + (f"-{s.perturbation.name}" if s.perturbation else ""),
    )
    def test_rotation_marks(self, spec):
        """One space-form block or a radial profile has one block of
        symmetry; a sphere-line product its blocks, {0, 1} and the line's
        coordinates, and it is not invariant under all of O(n)."""
        ch = make_chart(spec)
        whole = (tuple(range(spec.n)),)
        if spec.kind == "product_sphere_line":
            assert ch.symmetry == ((0, 1), tuple(range(2, spec.n)))
            assert self._rotation_defect(ch, whole) > 1e-2
        else:
            assert ch.symmetry == whole
        assert self._rotation_defect(ch, ch.symmetry) <= 1e-14

    def test_unmarked_charts(self):
        """A plain-callable profile carries no symmetry make_chart can
        read, radial or not, and a hand-built MetricChart none either.  The
        non-radial profile is indeed not even."""
        skew = _conformal(lambda X: X[:, 0] + X[:, 1] ** 2, eps=0.2)
        assert skew.symmetry is None
        assert self._mirror_defect(skew) > 1e-2
        assert _conformal(_plain("quartic_bump")).symmetry is None
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        assert MetricChart(3, cat.domain, cat.metric).symmetry is None
        with pytest.raises(AttributeError):
            cat.symmetry = None

    def test_only_a_warped_chart_has_a_symmetry(self, conformal_chart,
                                                conformal_shot):
        """The warped chart at c06's origin holds the chart's one block;
        the same metric shot on a hand-built chart holds every ray of the
        rule it was handed and no symmetry."""
        rule = sphere_rule(3, 8)
        warped = build_normal_chart(conformal_chart, np.zeros(3), 0.5, rule=rule)
        assert warped.kind == "warped" and warped.symmetry == ((0, 1, 2),)
        shot = build_normal_chart(conformal_shot, np.zeros(3), 0.5, rule=rule,
                                  r_samples=32)
        assert shot.symmetry is None
        assert shot.dirs.tobytes() == rule[0].tobytes()
        assert shot.weights.tobytes() == rule[1].tobytes()


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
        """The conjugate-point check's determinant, _det_inv's: the
        expansion along the first row for n <= 3, bit for bit, and
        LAPACK's above."""
        rng = np.random.default_rng(13)
        a = np.eye(n) + 0.25 * rng.normal(size=(4, 50, n, n))
        if n == 2:
            want = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        elif n == 3:
            i1, i2 = [1, 2, 0], [2, 0, 1]
            cof0 = a[..., 1, i1] * a[..., 2, i2] - a[..., 1, i2] * a[..., 2, i1]
            want = np.einsum("...j,...j->...", a[..., 0, :], cof0)
        else:
            want = np.linalg.det(a)
        assert np.array_equal(_det_inv(a)[0], want)


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

    def test_numeric_density_matches_series(self, conformal_chart,
                                            conformal_shot):
        """The density along a ray, from the warp and from the ODE,
        agrees with the jet prediction through fourth order."""
        c = curvature_at(conformal_chart, np.zeros(3), want_hessian=True)
        ds = density_series(c)
        y = np.array([1.0, 0.0, 0.0])
        r = np.array([0.05, 0.1, 0.2, 0.3])
        pred = (
            1.0
            + np.einsum("ij,i,j->", ds.order2, y, y) * r**2
            + np.einsum("kij,i,j,k->", ds.order3, y, y, y) * r**3
            + np.einsum("ijkl,i,j,k,l->", ds.order4, y, y, y, y) * r**4
        )
        for ch, kind in ((conformal_chart, "warped"), (conformal_shot, "ode")):
            # frame at 0 is exp(-f(0)) I = I, so ray direction is the x-axis
            nc = build_normal_chart(ch, np.zeros(3), 0.5,
                                    rule=_rule(y[None, :]), r_samples=128)
            assert nc.kind == kind
            err = np.abs(np.atleast_2d(_density(nc, r))[0] - pred)
            assert err[0] < 5e-8  # r = 0.05: remainder is O(r^5)
            assert err[1] < 1e-6
            assert err[3] < 5e-4

    def test_default_package_has_no_hessian(self, conformal_chart):
        """curvature_at leaves grad_rc and hess_rc out unless asked, so
        density_series refuses its default package."""
        c = curvature_at(conformal_chart, np.zeros(3))
        assert c.grad_rc is None and c.hess_rc is None
        with pytest.raises(MissingField):
            density_series(c)

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
