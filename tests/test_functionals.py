import itertools

import numpy as np
import pytest

from curvex import (
    ModelSpec,
    Perturbation,
    build_normal_chart,
    curvature_at,
    make_chart,
    scalar_curvature_batch,
)
from curvex import charts, expansion
from curvex.charts import PROFILES
from curvex.expansion import predict_volume, prepare_normal_chart, run_expansion
from curvex._spaceform import ball_volume_K, sphere_area_K
from curvex.errors import (
    ConfigInvalid,
    InvalidSpec,
    PositivityWarning,
    SupportTooLarge,
    TimeTooLarge,
)
from curvex.functionals import (
    QuadratureSpec,
    TestFunction,
    _eval_once,
    _hermite_nodes,
    _nodes,
    ball_volume,
    bishop_gromov_ratio,
    build_test_function,
    cutoff,
    cutoff_prime,
    eval_components,
    eval_L,
    eval_L_normalized,
    gaussian_integral,
    profile_matrix,
    sphere_rule,
)
from curvex.moments import (
    GaussianWeight,
    moment_quadratic,
    moment_quartic,
    sphere_area,
    sphere_monomial,
)
from curvex.rigidity import isoperimetric_probe
from oracles import eta2_pointwise, full_ode_table, recorded


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

    @pytest.mark.parametrize("m", [101, 4001])
    def test_plateau_is_the_smoothstep_bit_for_bit(self, m):
        """Large arrays run the smoothstep only beyond s = 1/2 and fill
        the plateau with 1 and -0: the same bits as the smoothstep formula
        taken at every point, the plateau edge and NaN included."""
        s = np.concatenate([np.linspace(-0.1, 1.2, m),
                            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
                             np.nan]])
        w = np.clip(2.0 * s - 1.0, 0.0, 1.0)
        want = (1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w),
                -60.0 * (w * (1.0 - w)) ** 2)
        for got, ref in zip((cutoff(s), cutoff_prime(s)), want):
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_c2_smoothness_at_corners(self):
        # second difference stays bounded across the corners
        for s0 in (0.5, 1.0):
            h = 1e-4
            d2 = (cutoff(s0 + h) - 2 * cutoff(s0) + cutoff(s0 - h)) / h**2
            assert abs(d2) < 1.0


def _monomial_integrals(dirs, wts, deg, step=2):
    """Exponents k (multiples of step, |k| <= deg) and the rule's integrals
    of the monomials y^k, as one product of a left block of coordinates
    against a right block, a chunk of directions at a time."""
    n = dirs.shape[1]
    split, half = (n + 1) // 2, deg // step

    def exps(m):
        return np.array([k for k in itertools.product(range(half + 1), repeat=m)
                         if sum(k) <= half]).reshape(-1, m)

    left, right = exps(split), exps(n - split)
    out = 0.0
    for lo in range(0, dirs.shape[0], 2048):
        # y_i^(step j) as (directions, j, i)
        pw = dirs[lo : lo + 2048, None, :] ** (step * np.arange(half + 1))[:, None]
        L = np.prod(pw[:, left, np.arange(split)], axis=-1)
        R = np.prod(pw[:, right, split + np.arange(n - split)], axis=-1)
        out = out + L.T @ (R * wts[lo : lo + 2048, None])
    keep = left.sum(1)[:, None] + right.sum(1)[None, :] <= half
    k = np.concatenate(
        [np.broadcast_to(left[:, None], keep.shape + (split,)),
         np.broadcast_to(right[None], keep.shape + (n - split,))], axis=-1
    )
    return step * k[keep], out[keep]


def _azimuths(n, o):
    return max(4 * o, 16) if n == 2 else 2 * o


class TestSphereRule:
    @pytest.mark.parametrize(
        "n,order,o",
        [pytest.param(n, order, o, id=f"{order}-{n}") for n, order, o in
         [(n, order, order) for n in (2, 3, 4) for order in (8, 9, 16, 24)]
         + [(4, 40, 25), (5, 8, 8), (5, 9, 9), (5, 16, 11), (6, 5, 5),
            (6, 10, 6)]],
    )
    def test_folded_rule_is_exact_on_even_monomials(self, n, order, o):
        """The rule folded onto the orthant integrates every even monomial
        up to the rule's degree as the full rule does and as the closed
        form.  o is the polar order left by the 2^15-direction limit.
        |y^k| <= 1, so the sphere's area sets the scale.  n = 4 at order 9
        holds the Chebyshev node cos(pi/2) = 6.1e-17, which a fold by sign
        instead of by index mis-weights."""
        full, folded = sphere_rule(n, order), sphere_rule(n, order, True)
        # azimuths 4k <= m of m = max(4 o, 16) (n = 2) or 2 o (n >= 3),
        # times ceil(o/2) nodes u >= 0 per polar factor
        m = _azimuths(n, o)
        polar = ((o + 1) // 2) ** (n - 2)
        assert folded[0].shape == (polar * (m // 4 + 1), n)
        assert full[0].shape == (o ** (n - 2) * m, n) and m * o ** (n - 2) <= 2**15
        assert np.allclose(np.linalg.norm(folded[0], axis=1), 1.0)
        assert np.all(folded[0] >= 0.0)
        deg = m - 1 if n == 2 else 2 * o - 1
        k, want = _monomial_integrals(*full, deg)
        k_f, got = _monomial_integrals(*folded, deg)
        assert np.array_equal(k, k_f)
        area = sphere_area(n)
        assert np.max(np.abs(got - want)) <= 1e-14 * area
        exact = np.array([sphere_monomial(n, tuple(e)) for e in k])
        assert np.max(np.abs(got - exact)) <= 1e-14 * area

    @pytest.mark.parametrize(
        "n,order,o", [(2, 8, 8), (3, 16, 16), (4, 9, 9), (5, 6, 6), (6, 10, 6)]
    )
    def test_full_rule_is_exact_on_every_monomial(self, n, order, o):
        """The full rule integrates every monomial up to its degree, odd
        ones (zero on the sphere) included, as the closed form."""
        deg = _azimuths(n, o) - 1 if n == 2 else 2 * o - 1
        k, got = _monomial_integrals(*sphere_rule(n, order), deg, step=1)
        exact = np.array([sphere_monomial(n, tuple(e)) for e in k])
        assert np.max(np.abs(got - exact)) <= 1e-14 * sphere_area(n)

    def test_limit_costs_no_accuracy(self, monkeypatch):
        """With a non-diagonal a, the functionals on the rule cut to 2^15
        directions equal those on the full product rule (131,072 directions
        on S^4 at order 16, 200,000 on S^5 at order 10)."""
        import curvex.functionals as F

        t = 1.0 / 256  # r_s / 2 sqrt(t) = 6: two radial panels
        for n, order in [(5, 16), (6, 10)]:
            nc = build_normal_chart(
                make_chart(ModelSpec("space_form", n, K=1.0)), np.zeros(n), 0.75
            )
            a = np.random.default_rng(5).normal(scale=0.1, size=(n, n))
            tf = TestFunction(nc, a + a.T, 0.2, 0.75)
            quad = QuadratureSpec(order=order)
            cut = eval_components(tf, t, quad, want_err=False)
            with monkeypatch.context() as mp:
                mp.setattr(F, "_MAX_DIRECTIONS", 2**40)
                F.sphere_rule.cache_clear()
                full = eval_components(tf, t, quad, want_err=False)
                F.sphere_rule.cache_clear()
            assert full.nodes > 4 * cut.nodes
            for name in ("mass", "entropy", "dirichlet", "sc_integral"):
                assert getattr(cut, name) == pytest.approx(
                    getattr(full, name), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_total_weight_is_area(self, n):
        dirs, wts = sphere_rule(n, 16)
        assert wts.sum() == pytest.approx(sphere_area(n), rel=1e-12)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quadratic_monomial(self, n):
        from curvex.moments import sphere_monomial

        dirs, wts = sphere_rule(n, 16)
        got = np.dot(wts, dirs[:, 0] ** 2)
        k = np.zeros(n, dtype=int)
        k[0] = 2
        assert got == pytest.approx(sphere_monomial(n, tuple(k)), rel=1e-12)

    @pytest.mark.parametrize(
        "rule",
        [lambda: sphere_rule(3, 8), lambda: sphere_rule(5, 7, True),
         lambda: _hermite_nodes(2, 6), lambda: _hermite_nodes(2, 7, True)],
        ids=["sphere_rule", "sphere_rule_folded", "hermite", "hermite_folded"],
    )
    def test_cached_rules_are_read_only(self, rule):
        """Every caller of a cached rule gets the same arrays, so none may
        write into them."""
        arrays = rule()
        assert all(a is b for a, b in zip(arrays, rule()))
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("order", [24, 25, 40])
    def test_hermite_fold_keeps_the_sign_based_fold(self, order):
        """Folding by node index (_half_rule) gives, bit for bit, the grid
        of the sign-based fold: keep z >= 0, double the weights of z > 0."""
        z1, w1 = np.polynomial.hermite.hermgauss(order)
        keep = z1 >= 0.0
        z1, w1 = z1[keep], np.where(z1[keep] > 0.0, 2.0 * w1[keep], w1[keep])
        Z = np.array(list(itertools.product(z1, repeat=2)))
        W = np.prod(list(itertools.product(w1, repeat=2)), axis=1) / np.pi
        zn = np.sqrt(np.einsum("mi,mi->m", Z, Z))
        dirs, rho, wts = _hermite_nodes(2, order, True)
        assert np.array_equal(rho, zn) and np.array_equal(wts, W)
        assert np.array_equal(dirs, Z / np.where(zn > 0.0, zn, 1.0)[:, None])

    def test_hermite_cache_holds_four_grids(self):
        """One expansion's main and error rules for two dimensions stay
        cached; a sweep over more grids does not pile them up."""
        for n, order in [(2, 6), (2, 8), (3, 6), (3, 8), (2, 10), (3, 10)]:
            _hermite_nodes(n, order, True)
        info = _hermite_nodes.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4


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
        val, _ = gaussian_integral(n, t, G, QuadratureSpec(rule=rule, order=24))
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

        val, _ = gaussian_integral(n, t, G, QuadratureSpec(rule=rule, order=24))
        assert val == pytest.approx(
            moment_quartic(w, lam, weighted=True), rel=1e-11
        )

    @pytest.mark.parametrize("rule,runs", [("radial_sphere", "radial_sphere"),
                                           ("hermite", "hermite"),
                                           ("auto", "hermite")])
    def test_rule_from_quadrature_spec(self, rule, runs, monkeypatch):
        """gaussian_integral runs quad.rule; 'auto' keeps the default by n
        (hermite for n <= 4)."""
        import curvex.functionals as F

        calls = recorded(monkeypatch, F, "_nodes")
        A = np.diag([1.0, -0.5, 0.25])
        G = lambda X: np.einsum("mi,ij,mj->m", X, A, X)
        val, _ = gaussian_integral(3, 0.05, G, QuadratureSpec(rule=rule, order=24))
        assert {args[0] for args, _, _ in calls} == {runs}
        want = moment_quadratic(GaussianWeight(3, 0.05), A)
        assert val == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [5, 6])
    def test_default_rule_above_four_dimensions(self, n):
        """Above n = 4 gaussian_integral runs the radial-spherical product
        rule, exact on quadratic moments."""
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        G = lambda X: np.einsum("mi,ij,mj->m", X, A, X)
        val, _ = gaussian_integral(n, 0.05, G, QuadratureSpec(order=24))
        want = moment_quadratic(GaussianWeight(n, 0.05), A)
        assert val == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestFlatExactness:
    @pytest.mark.parametrize("rule", ["radial_sphere", "hermite"])
    def test_deficit_vanishes(self, rule):
        ch = make_chart(ModelSpec("flat", 3))
        nc = build_normal_chart(ch, np.zeros(3), 2.0)
        tf = TestFunction(nc, np.zeros((3, 3)), 0.0, 2.0)
        val, err, _ = eval_L(tf, 0.003, QuadratureSpec(rule=rule, order=32))
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
        v1, _, _ = eval_L(tf1, t, q)
        v3, _, _ = eval_L(tf3, t, q)
        assert v3 == pytest.approx(9.0 * v1, rel=1e-10)

    def test_normalization_invariance(self, s3_setup):
        # the unit-mass deficit must not see the scale at all
        _, nc, cv = s3_setup
        q = QuadratureSpec(rule="radial_sphere", order=32)
        tf1 = build_test_function(nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7)
        tf3 = build_test_function(
            nc, cv, mode="optimal_a", alpha=0.0, r_s=1.7, scale=5.0
        )
        v1, _, _ = eval_L_normalized(tf1, 6e-4, q)
        v3, _, _ = eval_L_normalized(tf3, 6e-4, q)
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
        vh, _, _ = eval_L(tf, t, QuadratureSpec(rule="hermite", order=40))
        vr, _, _ = eval_L(tf, t, QuadratureSpec(rule="radial_sphere", order=40))
        assert vh == pytest.approx(vr, abs=1e-11)


def _dense_sums(tf, t, X, rho, W, dens, ginv, sc):
    """The four sums from pointwise eta^2 and grad eta^2 at the points X
    with a given density, full inverse metric and Sc at each point."""
    n = X.shape[-1]
    eta2, geta2 = eta2_pointwise(tf, X, t)
    M = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
    base = eta2 * dens
    logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * t) - rho**2
    Q = np.einsum("mi,mij,mj->m", M, ginv, M)
    return [W @ base, W @ (base * logu2), W @ (base * Q), W @ (base * sc)]


class TestKernelOracle:
    """The scalar ray kernel against a dense evaluation of the same
    integrals: eta^2 and its gradient pointwise, the density sqrt(det g)
    and M^T g^{-1} M from the chart's metric (chart coordinates are normal
    coordinates at the origin).  A diagonal profile a runs the folded
    Hermite grid, a general one the full grid; the dense oracle always
    uses the full grid, built here."""

    CASES = [("space_form", 4, 1.0), ("space_form", 3, -1.0), ("flat", 3, 0.0)]

    @pytest.mark.parametrize(
        "kind,n,K,profile,order",
        [pytest.param(*case, "random", 10, id="-".join(map(str, case)))
         for case in CASES]
        + [pytest.param(*case, profile, order,
                        id="-".join(map(str, (*case, profile, order))))
           for case in CASES for profile in ("diag", "rc3") for order in (9, 10)
           if not (case[0] == "flat" and profile == "rc3")],  # Rc = 0 there
    )
    def test_components_match_dense_metric(self, kind, n, K, profile, order):
        ch = make_chart(ModelSpec(kind, n, K=K))
        r_s = 0.95 * float(ch.domain.hi[0])
        nc = build_normal_chart(ch, np.zeros(n), r_s)
        if profile == "random":
            a = np.random.default_rng(8).normal(scale=0.1, size=(n, n))
            a = a + a.T
        elif profile == "diag":
            a = np.diag([0.2, -0.1, 0.05, 0.15][:n])
        else:
            a = curvature_at(ch, np.zeros(n)).rc / 3.0
        tf = TestFunction(nc, a, 0.3, r_s)
        t = 0.01
        got = _eval_once(tf, t, QuadratureSpec(rule="hermite", order=order), order)
        # a silent fall back to the full grid would show in the count
        folded = profile != "random"
        assert got[4] == ((order + 1) // 2 if folded else order) ** n

        z1, w1 = np.polynomial.hermite.hermgauss(order)
        Z = np.array(list(itertools.product(z1, repeat=n)))
        W = np.prod(list(itertools.product(w1, repeat=n)), axis=1) / np.pi ** (n / 2)
        X = 2.0 * np.sqrt(t) * Z
        eta2 = eta2_pointwise(tf, X, t)[0]
        assert np.any((eta2 < 1.0) & (eta2 > 1e-300))  # nodes on the cutoff ramp
        g = ch.metric(X)
        want = _dense_sums(tf, t, X, np.linalg.norm(Z, axis=1), W,
                           np.sqrt(np.linalg.det(g)), np.linalg.inv(g), 0.0)
        assert got[:3] == pytest.approx(want[:3], rel=1e-12)
        assert got[3] == pytest.approx(n * (n - 1) * K * want[0], rel=1e-12)

    @pytest.mark.parametrize("K", [1.0, -1.0])
    def test_radial_nodes_match_dense_metric(self, K):
        """radial_sphere rays on S^3(1) and H^3(-1), non-diagonal a."""
        ch = make_chart(ModelSpec("space_form", 3, K=K))
        r_s = 0.95 * float(ch.domain.hi[0])
        nc = build_normal_chart(ch, np.zeros(3), r_s)
        a = np.random.default_rng(9).normal(scale=0.1, size=(3, 3))
        tf = TestFunction(nc, a + a.T, 0.3, r_s)
        t, order = 0.01, 10
        quad = QuadratureSpec(rule="radial_sphere", order=order)
        got = _eval_once(tf, t, quad, order)
        s2t = 2.0 * np.sqrt(t)
        dirs, rho, W = _nodes("radial_sphere", 3, order,
                              c=min(quad.c_trunc, r_s / s2t),
                              kinks=(r_s / (2.0 * s2t), r_s / s2t))
        assert got[4] == W.size
        X = (s2t * rho[:, None] * dirs).reshape(-1, 3)  # (nd * nr, 3)
        rho = np.broadcast_to(rho, W.shape).ravel()
        eta2 = eta2_pointwise(tf, X, t)[0]
        assert np.any((eta2 < 1.0) & (eta2 > 1e-300))  # nodes on the cutoff ramp
        g = ch.metric(X)
        want = _dense_sums(tf, t, X, rho, W.ravel(),
                           np.sqrt(np.linalg.det(g)), np.linalg.inv(g), 6.0 * K)
        assert got[:4] == pytest.approx(want, rel=1e-12)

    def test_ode_chart_matches_full_table(self, monkeypatch):
        """On the c06 conformal chart the scalar form kappa^2 + beta^2
        w.g~^{-1}w against M.g~^{-1}.M from a full table (density, all of
        g~^{-1}) rebuilt from the chart's own shooting, at the same nodes;
        they differ by the Gauss-lemma residual of the table."""
        ch = make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        ))
        quad = QuadratureSpec(rule="radial_sphere", order=16)
        # a large profile and t near its bound (r_s / c_trunc)^2 make the
        # tangential term, and with it the curvature in w.g~^{-1}w, show:
        # reading that term off the flat metric moves the sum by 4e-7; a
        # non-diagonal a needs the full bundle
        a = np.array([[1.2, 0.4, -0.2], [0.4, 0.8, 0.28], [-0.2, 0.28, 1.6]])
        shots = recorded(monkeypatch, charts, "dopri45")
        nc = prepare_normal_chart(ch, np.zeros(3), 0.9, quad, a=a)
        assert not nc.folded and nc.dirs.shape[0] == 512
        ((_, _, t_out, _, _), _, (states, _)), = shots
        full = full_ode_table(ch, nc.dirs.shape[0], np.linspace(0.0, 0.9, 384),
                              t_out, states)
        tf = TestFunction(nc, a, 0.2, 0.9)
        t = 0.006
        got = _eval_once(tf, t, quad, 16)
        s2t = 2.0 * np.sqrt(t)
        dirs, rho, W = _nodes("radial_sphere", 3, 16,
                              c=min(quad.c_trunc, 0.9 / s2t),
                              kinks=(0.9 / (2.0 * s2t), 0.9 / s2t), nchart=nc)
        r = s2t * rho
        tab = full(r).swapaxes(0, 1)  # (nd, nr, 1 + n^2)
        sc = nc.scalar(r)
        X = (r[:, None] * dirs).reshape(-1, 3)
        want = _dense_sums(
            tf, t, X, np.broadcast_to(rho, W.shape).ravel(), W.ravel(),
            tab[..., 0].ravel(), tab[..., 1:10].reshape(-1, 3, 3), sc.ravel(),
        )
        assert got[:4] == pytest.approx(want, rel=1e-9)
        assert got[:4] != pytest.approx(want, rel=1e-14)  # not the same route


class TestRayEvaluator:
    """TestFunction.on_rays, the one evaluator of the kernel and the
    chart geometry, against eta^2 and its gradient pointwise
    (oracles.eta2_pointwise) and the chart's metric g at the points: on
    these charts the chart coordinates are normal coordinates at the
    origin, so the density is sqrt(det g) and the tangential term
    beta^2 w.g~^{-1}w is M_perp.g^{-1}.M_perp, M_perp the part of the
    covector M = grad eta^2 / (2 eta^2) - x/4t orthogonal to the ray,
    whose radial part is kappa."""

    T = 0.004
    A_OFF = np.array([[0.6, 0.3, -0.2], [0.3, -0.4, 0.25], [-0.2, 0.25, 0.9]])
    A_DIAG = np.diag([0.6, -0.4, 0.9])

    @staticmethod
    def _compare(tf, t, X, got, rtol):
        r = np.linalg.norm(X, axis=1)
        d = X / np.where(r > 0.0, r, 1.0)[:, None]
        eta2, geta2 = eta2_pointwise(tf, X, t, r)
        M = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
        kappa = np.einsum("mi,mi->m", M, d)
        perp = M - kappa[:, None] * d
        g = tf.nchart.chart.metric(X)
        tang = np.einsum("mi,mij,mj->m", perp, np.linalg.inv(g), perp)
        eta2_r, kappa_r, beta2_r, dens_r, wgw_r = (
            np.broadcast_to(v, got[0].shape).ravel() for v in got)
        live = eta2 > 1e-300
        assert live.sum() > 0.5 * live.size and not live.all()  # ramp and clamp
        # eta^2 and kappa lose digits where the profile cancels to zero
        np.testing.assert_allclose(eta2_r, eta2, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(kappa_r, kappa, rtol=1e-11,
                                   atol=1e-13 * np.abs(kappa).max())
        np.testing.assert_allclose(beta2_r * wgw_r, tang, rtol=rtol,
                                   atol=rtol * np.abs(tang).max())
        np.testing.assert_allclose(dens_r, np.sqrt(np.linalg.det(g)),
                                   rtol=rtol, atol=0)

    @pytest.fixture(scope="class")
    def sphere(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        return build_normal_chart(ch, np.zeros(3), 1.7)

    def test_points_on_closed_form_chart(self, sphere):
        """The Hermite layout: points (m, n) against radii (m,)."""
        tf = TestFunction(sphere, self.A_OFF, 0.3, 0.5)
        dirs, rho, _ = _hermite_nodes(3, 10)
        r = 2.0 * np.sqrt(self.T) * rho
        got = tf.on_rays(dirs, r, self.T)
        self._compare(tf, self.T, r[:, None] * dirs, got, 1e-12)

    def test_rays_on_closed_form_chart(self, sphere):
        """The ray layout: rays (nd, 1, n) against radii (nr,)."""
        tf = TestFunction(sphere, self.A_OFF, 0.3, 1.2)
        dirs = sphere_rule(3, 8)[0][:, None, :]
        r = np.linspace(0.0, 1.5, 31)
        got = tf.on_rays(dirs, r, self.T)
        self._compare(tf, self.T, (r[:, None] * dirs).reshape(-1, 3), got, 1e-12)

    @pytest.mark.parametrize("fold", [False, True], ids=["full", "folded"])
    def test_rays_on_ode_chart(self, fold):
        """The bundle of an S^2 x R ode chart, shot in full for a
        non-diagonal a and on the orthant for a diagonal one; the geometry
        comes from its spline tables."""
        ch = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        a = self.A_DIAG if fold else self.A_OFF
        nc = prepare_normal_chart(ch, np.zeros(3), 1.4,
                                  QuadratureSpec(rule="radial_sphere", order=8), a=a)
        assert nc.kind == "ode" and nc.folded is fold
        tf = TestFunction(nc, a, 0.3, 1.2)
        dirs = nc.dirs[:, None, :]
        r = np.linspace(0.0, 1.4, 31)
        got = tf.on_rays(dirs, r, self.T)
        self._compare(tf, self.T, (r[:, None] * dirs).reshape(-1, 3), got, 1e-10)


class TestFoldedBundle:
    """An ode chart shot at the origin of a mirror-even chart along the
    orthant of its rule against the same chart shot along the full rule.
    The rays the fold leaves out are reflections of the ones it keeps, so
    the two agree to the integration tolerance."""

    @pytest.mark.parametrize("which", ["c06", "S2xR"])
    def test_matches_full_bundle(self, which):
        spec = (ModelSpec("conformal_flat", 3, halfwidth=1.5,
                          perturbation=Perturbation(0.05, PROFILES["quartic_bump"]))
                if which == "c06" else ModelSpec("product_sphere_line", 3, K=1.0))
        ch = make_chart(spec)
        full, folded = (
            build_normal_chart(ch, np.zeros(3), 0.9,
                               rule=sphere_rule(3, 16, fold), fold=fold)
            for fold in (False, True)
        )
        assert (full.dirs.shape[0], folded.dirs.shape[0]) == (512, 72)
        assert folded.folded and not full.folded
        assert folded.nfev == full.nfev
        r = np.linspace(0.05, 0.9, 18)
        np.testing.assert_allclose(folded.shell(r), full.shell(r),
                                   rtol=1e-10, atol=0)
        curv = curvature_at(ch, np.zeros(3))
        quad = QuadratureSpec(rule="radial_sphere", order=16)
        for t in (2e-4, 5e-4, 1.1e-3):
            got, want = (
                eval_L_normalized(build_test_function(nc, curv, r_s=0.9), t,
                                  quad)[0]
                for nc in (folded, full)
            )
            assert abs(got - want) <= 1e-11

    def test_matches_full_bundle_n4(self):
        """S^2 x R^2 at order 8: 80 rays against 1,024.  Measured: shells
        within 3.2e-15 relative and L within 8.9e-15 absolute; the bounds
        are 1e-13 for both."""
        ch = make_chart(ModelSpec("product_sphere_line", 4, K=1.0))
        full, folded = (
            build_normal_chart(ch, np.zeros(4), 0.6, r_samples=96,
                               rule=sphere_rule(4, 8, fold), fold=fold)
            for fold in (False, True)
        )
        assert (full.dirs.shape[0], folded.dirs.shape[0]) == (1024, 80)
        r = np.linspace(0.05, 0.6, 12)
        np.testing.assert_allclose(folded.shell(r), full.shell(r),
                                   rtol=1e-13, atol=0)
        curv = curvature_at(ch, np.zeros(4))
        quad = QuadratureSpec(rule="radial_sphere", order=8)
        got, want = (
            eval_L_normalized(build_test_function(nc, curv, r_s=0.6), 4e-4,
                              quad)[0]
            for nc in (folded, full)
        )
        assert abs(got - want) <= 1e-13


class TestRadialFold:
    """A diagonal profile a on a closed-form chart runs the radial-spherical
    rule folded onto the orthant; a rotated profile R D R^T keeps the full
    rule.  The flat chart is rotation invariant, so both give the same
    functionals: an oracle for the fold that does not use it."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rotated_profile_matches_folded_diagonal(self, n):
        ch = make_chart(ModelSpec("flat", n, halfwidth=2.0))
        nc = build_normal_chart(ch, np.zeros(n), 1.5)
        D = np.diag([0.3, -0.1, 0.05, 0.15][:n])
        R = np.linalg.qr(np.random.default_rng(3).normal(size=(n, n)))[0]
        order = 16
        quad = QuadratureSpec(rule="radial_sphere", order=order)
        diag = TestFunction(nc, D, 0.2, 1.5)
        rot = TestFunction(nc, R @ D @ R.T, 0.2, 1.5)
        for t in (0.004, 0.02):
            got = eval_components(diag, t, quad)
            want = eval_components(rot, t, quad)
            # the fold keeps one direction in about 2^n
            assert 2 ** (n - 1) * got.nodes < want.nodes
            for name in ("mass", "entropy", "dirichlet"):
                # rounding apart (measured up to 9e-16 relative), well
                # inside the order-(o - 6) error estimates (3e-10 to 9e-8)
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-13)
                assert abs(getattr(got, name) - getattr(want, name)) <= (
                    got.errs[name])


class TestGuards:
    def test_hermite_grid_limited_to_four_dimensions(self):
        """The shared node builder refuses the product grid at n = 5
        (order^5 nodes, 1e8 at the default order) before building it."""
        G = lambda X: np.ones(X.shape[0])
        with pytest.raises(ConfigInvalid, match="n <= 4"):
            gaussian_integral(5, 0.01, G, QuadratureSpec(rule="hermite"))
        ch = make_chart(ModelSpec("space_form", 5, K=1.0))
        nc = build_normal_chart(ch, np.zeros(5), 0.5)
        tf = TestFunction(nc, np.zeros((5, 5)), 0.0, 0.5)
        with pytest.raises(ConfigInvalid, match="n <= 4"):
            eval_L(tf, 1e-4, QuadratureSpec(rule="hermite"))

    @pytest.mark.parametrize(
        "kw", [{"rule": "mc"}, {"order": 7}, {"c_trunc": 3.0}],
        ids=["mc_rule", "order_below_8", "c_trunc_3"],
    )
    def test_bad_quadrature_spec(self, kw):
        """Monte Carlo is not a quadrature rule; the error estimate runs at
        order - 6, and a truncation radius of 3 cuts the Gaussian too
        early."""
        with pytest.raises(ConfigInvalid):
            QuadratureSpec(**kw)

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

    def test_explicit_profile_of_the_wrong_shape(self, monkeypatch):
        """profile_matrix refuses an explicit mode that is not (n, n), so
        run_expansion raises before it shoots an ode chart for it."""
        for mode in (np.ones((3, 3, 1)), np.ones((2, 2)), np.ones(3)):
            with pytest.raises(ConfigInvalid, match="shape"):
                profile_matrix(3, None, mode)
        ch = make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        ))
        built = recorded(monkeypatch, expansion, "prepare_normal_chart")
        with pytest.raises(ConfigInvalid, match="shape"):
            run_expansion(ch, np.zeros(3), "L", mode=np.ones((3, 3, 1)), r_s=0.9,
                          quad=QuadratureSpec(rule="radial_sphere", order=16))
        assert built == []

    def test_bad_alpha_mode(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.raises(ConfigInvalid):
            build_test_function(nc, mode="zero", alpha="bogus", r_s=1.0)

    def test_clamped_profile_still_evaluates(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.warns(PositivityWarning):
            tf = build_test_function(nc, mode=-2.0 * np.eye(3), alpha=0.0, r_s=1.5)
        val, _, _ = eval_L(tf, 1e-3, QuadratureSpec(order=24))
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
        under the weights of the sphere rule it was shot along; a generic
        chart without a rule, or with weights that do not match its
        directions, is refused."""
        ch = make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.0, PROFILES["quartic_bump"]),
        ))
        p = np.array([0.2, 0.1, -0.3])
        dirs, wts = sphere_rule(3, 8)
        with pytest.raises(InvalidSpec):
            build_normal_chart(ch, p, 0.5, r_samples=32)
        with pytest.raises(InvalidSpec):
            build_normal_chart(ch, p, 0.5, rule=(dirs, wts[1:]), r_samples=32)
        nc = build_normal_chart(ch, p, 0.5, rule=(dirs, wts), r_samples=32)
        for r in (0.2, 0.4, 0.5):
            assert ball_volume(nc, r) == pytest.approx(
                4.0 * np.pi / 3.0 * r**3, rel=1e-12
            )

    def test_vector_radii_match_scalar_calls(self, s3_ode):
        radii = np.array([0.3, 0.7, 1.0])
        s3 = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        for nc in (s3_ode, build_normal_chart(s3, np.zeros(3), 1.7)):
            got = ball_volume(nc, radii)
            assert got.shape == radii.shape
            np.testing.assert_allclose(
                got, [ball_volume(nc, float(r)) for r in radii],
                rtol=1e-15, atol=0,
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


@pytest.fixture(scope="module")
def s3_ode():
    """Off-centre S^3 normal chart from geodesic shooting along the order-16
    radial-spherical rule (512 rays)."""
    ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
    nc = prepare_normal_chart(ch, np.array([0.3, -0.2, 0.1]), 1.0,
                              QuadratureSpec(rule="radial_sphere", order=16))
    assert nc.kind == "ode"
    return nc


@pytest.fixture
def conformal_c06():
    """The c06 conformal chart (quartic bump, eps 0.05) at the origin, shot
    along the orthant of the order-16 rule (72 rays) to r_s = 0.9; built
    per test, since
    the test below checks what a fresh chart has built."""
    ch = make_chart(ModelSpec(
        "conformal_flat", 3,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        halfwidth=1.5,
    ))
    return prepare_normal_chart(ch, np.zeros(3), 0.9,
                                QuadratureSpec(rule="radial_sphere", order=16))


class TestShell:
    """NormalChart.shell(r), the area of the geodesic sphere, behind every
    ball volume, probe radius and probe area."""

    def test_ode_chart_matches_sphere_area(self, s3_ode):
        r = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(s3_ode.shell(r), 4 * np.pi * np.sin(r) ** 2,
                                   rtol=0, atol=1e-9)
        assert s3_ode.shell(r.reshape(1, 41, 1)).shape == (1, 41, 1)

    @pytest.mark.parametrize("which", ["s3_ode", "conformal_c06"],
                             ids=["full", "folded"])
    def test_ode_shell_sums_the_table_density(self, which, request):
        """shell(r) is sum_d w_d density_d(r) r^(n-1) with the density of
        the chart's one table, as the geometry call reads it (clamped at
        the chart radius), on a full and a folded bundle."""
        nc = request.getfixturevalue(which)
        r = np.linspace(0.0, 1.1 * nc.radius, 24).reshape(4, 6)
        dens, _ = nc.geometry(r.ravel(), np.zeros((nc.dirs.shape[0], 1, 3)))
        want = (dens.T @ nc.weights).reshape(r.shape) * r**2
        np.testing.assert_allclose(nc.shell(r), want, rtol=1e-15, atol=0)

    def test_probe_closes_on_ode_chart(self, s3_ode):
        """The sphere is its own model: the probe margin vanishes."""
        v_max = ball_volume(s3_ode, 0.98)
        for frac in (0.1, 0.5, 0.9):
            probe = isoperimetric_probe(s3_ode, 1.0, frac * v_max)
            assert abs(probe["margin"]) <= 1e-8 * probe["model_area"]

    @pytest.mark.parametrize("kind,n,K", [
        ("flat", 2, 0.0), ("flat", 3, 0.0), ("space_form", 3, 1.0),
        ("space_form", 4, 1.0), ("space_form", 3, -1.0),
    ])
    def test_closed_form_is_sphere_area_K(self, kind, n, K):
        ch = make_chart(ModelSpec(kind, n, K=K))
        nc = build_normal_chart(ch, np.zeros(n), 0.9 * float(ch.domain.hi[0]))
        r = np.linspace(0.0, nc.radius, 17).reshape(-1, 1)
        assert np.array_equal(nc.shell(r), sphere_area_K(n, K, r))
        assert nc.shell(0.5) == sphere_area_K(n, K, 0.5)

    def test_anisotropic_ode_chart_follows_gray(self):
        """Off the centre of the c06 conformal chart the density depends on
        the direction, so the sphere-rule weights matter: ball volumes
        follow Gray's expansion through r^4 (expansion.predict_volume) up to
        a residual below 5e-3 r^6 (measured 7e-4 r^6; equal weights leave
        2 r^6 at r = 0.05)."""
        ch = make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        ))
        p = np.array([0.2, -0.1, 0.15])
        r2, r4 = predict_volume(curvature_at(ch, p, want_hessian=True))
        nc = prepare_normal_chart(ch, p, 0.6,
                                  QuadratureSpec(rule="radial_sphere", order=8))
        r = np.array([0.05, 0.1, 0.2, 0.3])
        ratio = ball_volume(nc, r) / (4.0 * np.pi / 3.0 * r**3) - 1.0
        assert np.all(np.abs(ratio - r2 * r**2 - r4 * r**4) < 5e-3 * r**6)

    def test_volume_and_probe_leave_sc_unbuilt(self, conformal_c06, monkeypatch):
        """Ball volumes and probes read the density from the table and the
        L-functional reads no Sc: the Sc spline of an ode chart (scalar
        curvature at 65 x 72 exp points) is not built for them.  W builds
        it from the scalar curvature at those exp points and adds t times
        the Sc integral to the same deficit."""
        v = ball_volume(conformal_c06, 0.8)
        assert conformal_c06._sc_spline is None
        isoperimetric_probe(conformal_c06, 0.0, 0.5 * v)
        assert conformal_c06._sc_spline is None

        built = recorded(monkeypatch, expansion, "prepare_normal_chart")
        ch, quad = conformal_c06.chart, QuadratureSpec(rule="radial_sphere", order=16)
        res_L = run_expansion(ch, np.zeros(3), "L", r_s=0.9, quad=quad)
        res_W = run_expansion(ch, np.zeros(3), "W", r_s=0.9, quad=quad)
        (_, _, nc_L), (_, _, nc_W) = built
        assert nc_L._sc_spline is None and nc_W._sc_spline is not None
        rg = np.linspace(0.0, 0.9, nc_W._sc_pts.shape[0])
        sc = scalar_curvature_batch(ch, nc_W._sc_pts.reshape(-1, 3))
        np.testing.assert_allclose(nc_W.scalar(rg), sc.reshape(rg.size, -1).T,
                                   rtol=1e-14, atol=0)
        assert np.ptp(sc) > 0.1  # Sc varies over the ball
        tf = build_test_function(nc_W, curvature_at(ch, np.zeros(3)), r_s=0.9)
        assert np.array_equal(res_L.ts, res_W.ts)
        for t, l_val, w_val in zip(res_L.ts, res_L.values, res_W.values):
            comp = eval_components(tf, float(t), quad, want_err=False)
            assert w_val - l_val == pytest.approx(
                t * comp.sc_integral / comp.mass, rel=1e-10)
            skip = eval_components(tf, float(t), quad, want_err=False,
                                   want_sc=False)
            assert skip.sc_integral is None
            assert (skip.mass, skip.entropy, skip.dirichlet) == (
                comp.mass, comp.entropy, comp.dirichlet)
