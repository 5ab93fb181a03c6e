import itertools

import numpy as np
import pytest

from curvex import (
    ModelSpec,
    Perturbation,
    build_normal_chart,
    curvature_at,
    make_chart,
)
from curvex.charts import PROFILES
from curvex.expansion import prepare_normal_chart
from curvex._spaceform import ball_volume_K
from curvex.errors import (
    ConfigInvalid,
    PositivityWarning,
    SupportTooLarge,
    TimeTooLarge,
)
from curvex.functionals import (
    QuadratureSpec,
    TestFunction,
    _eval_once,
    ball_volume,
    bishop_gromov_ratio,
    build_test_function,
    cutoff,
    cutoff_prime,
    eval_components,
    eval_L,
    eval_L_normalized,
    gaussian_integral,
    sphere_rule,
)
from curvex.moments import (
    GaussianWeight,
    moment_quadratic,
    moment_quartic,
    sphere_area,
)


@pytest.fixture(scope="module")
def s3_setup():
    ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
    nc = build_normal_chart(ch, np.zeros(3), 1.7)
    cv = curvature_at(ch, np.zeros(3))
    return ch, nc, cv


class TestCutoff:
    def test_plateau_and_support(self):
        s = np.array([0.0, 0.3, 0.5])
        assert np.allclose(cutoff(s), 1.0)
        assert np.allclose(cutoff(np.array([1.0, 1.7])), 0.0)
        mid = cutoff(np.array([0.75]))[0]
        assert 0.0 < mid < 1.0

    def test_derivative_matches_difference(self):
        s = np.linspace(0.51, 0.99, 11)
        h = 1e-6
        fd = (cutoff(s + h) - cutoff(s - h)) / (2 * h)
        assert np.allclose(cutoff_prime(s), fd, atol=1e-8)

    def test_c2_smoothness_at_corners(self):
        # second difference stays bounded across the corners
        for s0 in (0.5, 1.0):
            h = 1e-4
            d2 = (cutoff(s0 + h) - 2 * cutoff(s0) + cutoff(s0 - h)) / h**2
            assert abs(d2) < 1.0


class TestSphereRule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_total_weight_is_area(self, n):
        dirs, wts = sphere_rule(n, 16)
        assert wts.sum() == pytest.approx(sphere_area(n), rel=1e-12)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quadratic_monomial(self, n):
        from curvex.moments import sphere_monomial

        dirs, wts = sphere_rule(n, 16)
        got = np.dot(wts, dirs[:, 0] ** 2)
        k = np.zeros(n, dtype=int)
        k[0] = 2
        assert got == pytest.approx(sphere_monomial(n, tuple(k)), rel=1e-12)

    def test_mc_rule_seeded(self):
        d1, w1 = sphere_rule(5, 16, seed=7)
        d2, w2 = sphere_rule(5, 16, seed=7)
        assert np.array_equal(d1, d2)
        assert w1.sum() == pytest.approx(sphere_area(5), rel=1e-12)


class TestMomentBridge:
    """The quadrature engine must reproduce the closed-form moments."""

    @pytest.mark.parametrize("rule", ["hermite", "radial_sphere"])
    @pytest.mark.parametrize("n,t", [(2, 0.01), (3, 0.1)])
    def test_quadratic(self, rule, n, t):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        w = GaussianWeight(n, t)
        G = lambda X: np.einsum("mi,ij,mj->m", X, A, X)
        val, _ = gaussian_integral(n, t, G, QuadratureSpec(order=24), rule=rule)
        assert val == pytest.approx(moment_quadratic(w, A), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("rule", ["hermite", "radial_sphere"])
    def test_quartic_weighted(self, rule):
        rng = np.random.default_rng(21)
        n, t = 3, 0.05
        lam = rng.normal(size=(n,) * 4)
        w = GaussianWeight(n, t)

        def G(X):
            q = np.einsum("mi,mj,mk,ml,ijkl->m", X, X, X, X, lam)
            return q * np.einsum("mi,mi->m", X, X) / t

        val, _ = gaussian_integral(n, t, G, QuadratureSpec(order=24), rule=rule)
        assert val == pytest.approx(
            moment_quartic(w, lam, weighted=True), rel=1e-11
        )

    def test_mc_rule_statistical(self):
        n, t = 5, 0.02
        A = np.eye(n)
        w = GaussianWeight(n, t)
        q = QuadratureSpec(order=16, mc_samples=200_000, seed=3)
        G = lambda X: np.einsum("mi,ij,mj->m", X, A, X)
        val, err = gaussian_integral(n, t, G, q, rule="mc")
        assert val == pytest.approx(moment_quadratic(w, A), rel=0.02)


class TestFlatExactness:
    @pytest.mark.parametrize("rule", ["radial_sphere", "hermite"])
    def test_deficit_vanishes(self, rule):
        ch = make_chart(ModelSpec("flat", 3))
        nc = build_normal_chart(ch, np.zeros(3), 2.0)
        tf = TestFunction(nc, np.zeros((3, 3)), 0.0, 2.0)
        val, err = eval_L(tf, 0.003, QuadratureSpec(rule=rule, order=32))
        assert abs(val) < 1e-12

    def test_mass_is_one(self):
        ch = make_chart(ModelSpec("flat", 2))
        nc = build_normal_chart(ch, np.zeros(2), 2.0)
        tf = TestFunction(nc, np.zeros((2, 2)), 0.0, 2.0)
        comp = eval_components(tf, 1e-3, QuadratureSpec(order=32), want_err=False)
        assert comp.mass == pytest.approx(1.0, abs=1e-13)


class TestSphereFunctionals:
    def test_scale_covariance(self, s3_setup):
        _, nc, cv = s3_setup
        q = QuadratureSpec(rule="radial_sphere", order=32)
        t = 6e-4
        tf1 = build_test_function(nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7)
        tf3 = build_test_function(
            nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7, scale=3.0
        )
        v1, _ = eval_L(tf1, t, q)
        v3, _ = eval_L(tf3, t, q)
        assert v3 == pytest.approx(9.0 * v1, rel=1e-10)

    def test_normalization_invariance(self, s3_setup):
        # the unit-mass deficit must not see the scale at all
        _, nc, cv = s3_setup
        q = QuadratureSpec(rule="radial_sphere", order=32)
        tf1 = build_test_function(nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7)
        tf3 = build_test_function(
            nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7, scale=5.0
        )
        v1, _ = eval_L_normalized(tf1, 6e-4, q)
        v3, _ = eval_L_normalized(tf3, 6e-4, q)
        assert v3 == pytest.approx(v1, rel=1e-10)

    def test_entropy_slope(self, s3_setup):
        """Shifted entropy decreases at unit rate for the curvature-adapted
        quadratic profile with alpha = 0 (Richardson in t)."""
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7)
        q = QuadratureSpec(rule="radial_sphere", order=40)

        def slope(t):
            c = eval_components(tf, t, q, want_err=False)
            n = 3
            shifted = (
                c.entropy + n / 2.0 + (n / 2.0) * np.log(4 * np.pi * t) * c.mass
            )
            return shifted / t

        s1, s2 = slope(1e-3), slope(5e-4)
        extrapolated = 2 * s2 - s1
        assert extrapolated == pytest.approx(-1.0, abs=2e-3)

    def test_hermite_and_radial_agree(self, s3_setup):
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode="optimal_a", r_s=1.7)
        t = 1e-3
        vh, _ = eval_L(tf, t, QuadratureSpec(rule="hermite", order=40))
        vr, _ = eval_L(tf, t, QuadratureSpec(rule="radial_sphere", order=40))
        assert vh == pytest.approx(vr, abs=1e-11)


class TestKernelOracle:
    """The radial kernel against a dense evaluation of the same integrals:
    product Gauss-Hermite nodes built here, the density sqrt(det g) and
    M^T g^{-1} M from the chart's metric (chart coordinates are normal
    coordinates at the origin)."""

    @pytest.mark.parametrize(
        "kind,n,K", [("space_form", 4, 1.0), ("space_form", 3, -1.0), ("flat", 3, 0.0)]
    )
    def test_components_match_dense_metric(self, kind, n, K):
        ch = make_chart(ModelSpec(kind, n, K=K))
        r_s = 0.95 * float(ch.domain.hi[0])
        nc = build_normal_chart(ch, np.zeros(n), r_s)
        rng = np.random.default_rng(8)
        a = rng.normal(scale=0.1, size=(n, n))
        tf = TestFunction(nc, a + a.T, 0.3, r_s)
        t, order = 0.01, 10
        got = _eval_once(tf, t, QuadratureSpec(rule="hermite", order=order), order)

        z1, w1 = np.polynomial.hermite.hermgauss(order)
        Z = np.array(list(itertools.product(z1, repeat=n)))
        W = np.prod(list(itertools.product(w1, repeat=n)), axis=1) / np.pi ** (n / 2)
        X = 2.0 * np.sqrt(t) * Z
        eta2, geta2 = tf.eta2_with_grad(X, t)
        assert np.any((eta2 < 1.0) & (eta2 > 1e-300))  # nodes on the cutoff ramp
        g = ch.metric(X)
        M = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
        base = eta2 * np.sqrt(np.linalg.det(g))
        logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * t) - (Z**2).sum(1)
        Q = np.einsum("mi,mij,mj->m", M, np.linalg.inv(g), M)
        want = [W @ base, W @ (base * logu2), W @ (base * Q)]
        assert got[:3] == pytest.approx(want, rel=1e-12)
        assert got[3] == pytest.approx(n * (n - 1) * K * want[0], rel=1e-12)


class TestGuards:
    def test_time_too_large(self, s3_setup):
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode="zero", alpha=0.0, r_s=1.0)
        with pytest.raises(TimeTooLarge):
            eval_L(tf, 0.02, QuadratureSpec(order=16))

    def test_support_too_large(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.raises(SupportTooLarge):
            TestFunction(nc, np.zeros((3, 3)), 0.0, 2.5)

    def test_positivity_warning(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.warns(PositivityWarning):
            build_test_function(nc, mode=-2.0 * np.eye(3), alpha=0.0, r_s=1.5)

    def test_bad_alpha_mode(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.raises(ConfigInvalid):
            build_test_function(nc, mode="zero", alpha="bogus", r_s=1.0)

    def test_clamped_profile_still_evaluates(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.warns(PositivityWarning):
            tf = build_test_function(nc, mode=-2.0 * np.eye(3), alpha=0.0, r_s=1.5)
        val, _ = eval_L(tf, 1e-3, QuadratureSpec(order=24))
        assert np.isfinite(val)


class TestBallVolume:
    def test_flat(self):
        ch = make_chart(ModelSpec("flat", 3))
        nc = build_normal_chart(ch, np.zeros(3), 2.0)
        assert ball_volume(nc, 1.5) == pytest.approx(
            4 * np.pi / 3 * 1.5**3, rel=1e-12
        )

    def test_sphere_closed_form(self):
        # Vol(B_r) on the unit 3-sphere is pi (2r - sin 2r)
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        nc = build_normal_chart(ch, np.zeros(3), 1.7)
        for r in (0.8, 1.5):
            want = np.pi * (2 * r - np.sin(2 * r))
            assert ball_volume(nc, r) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_matches_space_form_volume(self, n, K):
        spec = ModelSpec("flat", n) if K == 0 else ModelSpec("space_form", n, K=K)
        ch = make_chart(spec)
        nc = build_normal_chart(ch, np.zeros(n), float(ch.domain.hi[0]))
        assert ball_volume(nc, 1.0) == pytest.approx(
            ball_volume_K(n, K, 1.0), rel=1e-12
        )

    def test_ode_chart_matches_sphere_volume(self):
        """Off-centre S^3 normal chart from geodesic shooting: its density
        tables under its own sphere rule give pi (2r - sin 2r)."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        nc = prepare_normal_chart(
            ch, np.array([0.3, -0.2, 0.1]), 1.0,
            QuadratureSpec(rule="radial_sphere", order=16),
        )
        assert nc.kind == "ode"
        for r in (0.3, 0.7, 1.0):
            assert ball_volume(nc, r) == pytest.approx(
                ball_volume_K(3, 1.0, r), rel=1e-9
            )

    def test_ode_chart_needs_its_sphere_rule(self):
        """A flat ode chart (conformal factor 0) gives the Euclidean volume
        once the sphere rule behind its directions is known, and only then."""
        ch = make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.0, PROFILES["quartic_bump"]),
        ))
        dirs, _ = sphere_rule(3, 8)
        nc = build_normal_chart(ch, np.array([0.2, 0.1, -0.3]), 0.5,
                                dirs=dirs, r_samples=32)
        with pytest.raises(ConfigInvalid):
            ball_volume(nc, 0.4)
        nc.rule_key = (3, 10, 1234)
        with pytest.raises(ConfigInvalid):
            ball_volume(nc, 0.4)
        nc.rule_key = (3, 8, 1234)
        for r in (0.2, 0.4, 0.5):
            assert ball_volume(nc, r) == pytest.approx(
                4.0 * np.pi / 3.0 * r**3, rel=1e-12
            )

    def test_bishop_gromov_sphere_constant(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        nc = build_normal_chart(ch, np.zeros(3), 1.7)
        ratio = bishop_gromov_ratio(nc, np.array([0.3, 0.8, 1.3, 1.65]), 1.0)
        assert np.abs(ratio - 1.0).max() < 1e-9

    def test_bishop_gromov_flat_vs_hyperbolic_decreasing(self):
        ch = make_chart(ModelSpec("flat", 3))
        nc = build_normal_chart(ch, np.zeros(3), 2.5)
        ratio = bishop_gromov_ratio(nc, np.linspace(0.2, 2.4, 8), -1.0)
        assert np.all(np.diff(ratio) < 0)
