import time
import warnings

import numpy as np
import pytest

from curvex import ModelSpec, Perturbation, curvature_at, expansion, make_chart, norm_sq
from curvex.charts import PROFILES, MetricChart, build_normal_chart
from curvex.errors import (
    ConfigInvalid,
    IllConditionedFit,
    NoiseDominates,
    PositivityWarning,
)
from curvex.expansion import (
    extract_series,
    fit_volume_series,
    make_tgrid,
    predict_L,
    predict_scalar_term,
    predict_volume,
    predict_W,
    prepare_normal_chart,
    run_expansion,
)
from curvex.functionals import (
    QuadratureSpec,
    build_test_function,
    eval_L_normalized,
    eval_W_normalized,
    sphere_rule,
)
from curvex.tensor_core import space_form_curvature
from oracles import recorded, shooting_chart


class TestPredictions:
    """Frozen coefficient values on the unit 3-sphere."""

    def setup_method(self):
        self.cv = space_form_curvature(3, 1.0)
        self.a_opt = self.cv.rc / 3.0

    def test_deficit_optimal(self):
        p = predict_L(self.cv, self.a_opt)
        assert p.c1 == pytest.approx(-6.0)
        # lap Sc = 0 and |Rm|^2/6 = 2 with no mismatch penalty
        assert p.c2 == pytest.approx(-2.0)

    def test_deficit_zero_profile(self):
        p = predict_L(self.cv, np.zeros((3, 3)))
        # the normalized deficit: -(0 + 2 - 4 * |Rc/3|^2), |Rc/3|^2 = 4/3
        assert p.c2 == pytest.approx(-(2 - 16.0 / 3.0))

    def test_entropy_functional_optimal(self):
        p = predict_W(self.cv, self.a_opt)
        assert p.c1 == pytest.approx(0.0)
        assert p.c2 == pytest.approx(-2.0)

    def test_entropy_functional_zero_profile(self):
        p = predict_W(self.cv, np.zeros((3, 3)))
        # c2 = -(|Rm|^2/6 - 4 |Rc/3|^2) = -(2 - 16/3) = 10/3
        assert p.c2 == pytest.approx(10.0 / 3.0)

    def test_curvature_average_series(self):
        """On a space form the normalized average of Sc is Sc exactly, so
        t times it has c2 = lap Sc = 0; the profile a enters neither."""
        p = predict_scalar_term(self.cv)
        assert p.c1 == pytest.approx(6.0)
        assert p.c2 == 0.0

    def test_volume_sphere(self):
        r2, r4 = predict_volume(self.cv)
        assert r2 == pytest.approx(-0.2)
        assert r4 == pytest.approx(2.0 / 105.0)

    def test_flat_all_zero(self):
        cv = space_form_curvature(4, 0.0)
        p = predict_L(cv, np.zeros((4, 4)))
        assert p.c1 == 0.0 and p.c2 == 0.0


class TestNormalizedPrediction:
    """run_expansion fits L(u)/M(u), and predict_L predicts the same
    quantity: c2 = -(lap Sc + |Rm|^2/6 - 4 |a - Rc/3|^2).  The raw deficit
    L(u) differs by Sc m1 with m1 = 2 tr(a) - Sc/3; |Sc m1| is 12, 48,
    1.33 and 0.84 on these rows, so a prediction of the raw deficit
    misses each of them.  Measured: within 6.0e-5, 3.2e-4, 3.4e-3 and
    1.05e-4 relative."""

    @pytest.mark.parametrize(
        "spec,mode,r_s,want",
        [
            (ModelSpec("space_form", 3, K=1.0, halfwidth=1.75), "zero", 1.7,
             10.0 / 3.0),
            (ModelSpec("space_form", 4, K=-1.0), "zero", 1.45, 12.0),
            (ModelSpec("product_sphere_line", 3, K=1.0), "optimal_a", 0.9,
             -2.0 / 3.0),
            (ModelSpec("conformal_flat", 3, halfwidth=1.5, perturbation=
                       Perturbation(0.05, PROFILES["quartic_bump"])),
             np.diag([-0.3, 0.05, 0.4]), 0.9, None),
        ],
        ids=["S3-zero", "H4-zero", "S2xR-optimal", "c06-diagonal"],
    )
    def test_fit_matches_the_prediction(self, spec, mode, r_s, want):
        ch = make_chart(spec)
        res = run_expansion(ch, np.zeros(ch.n), "L", mode=mode, r_s=r_s,
                            quad=QuadratureSpec(rule="radial_sphere", order=16))
        assert "alpha" not in res.meta
        if want is not None:
            assert res.predicted.c2 == pytest.approx(want, rel=1e-9)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=1e-2)


class TestGrid:
    def test_geometric(self):
        ts = make_tgrid(1e-3, points=8)
        assert ts.shape == (8,)
        assert ts[-1] == pytest.approx(1e-3)
        assert np.allclose(np.diff(np.log(ts)), np.log(2) / 2)

    def test_guards(self):
        with pytest.raises(ConfigInvalid):
            make_tgrid(1e-3, points=3)

    @pytest.mark.parametrize("points", [4.5, 10.0, "10", True])
    def test_non_integer_points(self, points):
        """A grid of 4.5 points is not rounded to 5: anything but an
        integer raises ConfigInvalid, through run_expansion too."""
        with pytest.raises(ConfigInvalid, match="an integer of at least"):
            make_tgrid(1e-3, points=points)
        ch = make_chart(ModelSpec("space_form", 3, K=1.0))
        with pytest.raises(ConfigInvalid, match="an integer of at least"):
            run_expansion(ch, np.zeros(3), r_s=1.0, t_points=points)


class TestExtraction:
    def test_exact_series(self):
        ts = make_tgrid(1e-2, points=10)
        fit = extract_series(ts, 3.0 * ts - 7.0 * ts**2)
        assert fit.c1 == pytest.approx(3.0, abs=1e-10)
        assert fit.c2 == pytest.approx(-7.0, rel=1e-8)

    def test_cubic_contamination_shows_in_systematic(self):
        ts = make_tgrid(1e-2, points=12)
        vals = 3.0 * ts - 7.0 * ts**2 + 50.0 * ts**3
        fit = extract_series(ts, vals)
        # half-grid fit is closer to the limit than the full fit
        assert abs(fit.c2 - (-7.0)) < abs(fit.c2_full - (-7.0))
        assert fit.c2_sys > abs(fit.c2 - (-7.0)) * 0.1

    def test_weights_suppress_noisy_point(self):
        ts = make_tgrid(1e-2, points=10)
        vals = 2.0 * ts + 5.0 * ts**2
        errs = np.full_like(ts, 1e-12)
        vals_bad = vals.copy()
        vals_bad[2] += 1e-3  # an outlier the weights must bury
        errs_bad = errs.copy()
        errs_bad[2] = 1e-2
        fit = extract_series(ts, vals_bad, errs_bad)
        assert fit.c1 == pytest.approx(2.0, rel=1e-6)
        assert fit.c2 == pytest.approx(5.0, rel=1e-4)

    def test_ill_conditioned(self):
        ts = np.full(6, 1e-3) + np.arange(6) * 1e-15
        with pytest.raises(IllConditionedFit):
            extract_series(ts, 2 * ts)

    def test_noise_dominates_gate(self):
        ts = make_tgrid(1e-3, points=8)
        vals = 1.0 * ts
        errs = np.full_like(ts, 1e-2)  # errors far above any t^2 signal
        with pytest.raises(NoiseDominates):
            extract_series(ts, vals, errs, expected_c2_scale=1.0)
        # without the expected scale the same fit goes through
        extract_series(ts, vals, errs)


class TestRuns:
    def test_sphere_n3(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        res = run_expansion(
            ch,
            np.zeros(3),
            functional="L",
            r_s=1.7,
            quad=QuadratureSpec(rule="radial_sphere", order=24),
        )
        assert res.fit.c1 == pytest.approx(res.predicted.c1, rel=5e-3)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=5e-2)
        assert res.meta["normal_chart"] == "warped"
        assert "nfev" not in res.meta and "gauss_residual" not in res.meta
        # orders 24 and 18: a = Rc/3 = (2/3) I, so every integrand is
        # radial and the 2 o^2 directions fold onto one ray, times the
        # radii of the Laguerre rule, o // 2 + 4 of them, at every t: the
        # first cutoff kink r_s / (4 sqrt t) lies past 6 on the whole grid,
        # which runs in one kernel pass per order
        assert res.meta["rays"] == 1
        assert res.meta["rule"] == "radial_sphere"
        assert res.meta["fold"] == [[0, 1, 2]]
        assert np.all(1.7 / (4.0 * np.sqrt(res.ts)) >= 6.0)
        assert res.meta["radial_rule"] == "laguerre"
        assert res.meta["radial_m"] == 16
        assert res.meta["batches"] == 2
        assert res.meta["nodes"] == 10 * (16 + 13)

    @pytest.mark.filterwarnings("ignore::curvex.errors.PositivityWarning")
    def test_hyperbolic_n2(self):
        # optimal a is negative definite here and the profile crosses zero
        # at r = sqrt(3) < r_s; the clamp keeps the run healthy and the
        # clamped tail is far outside the Gaussian bulk at these times
        ch = make_chart(ModelSpec("space_form", 2, K=-1.0))
        res = run_expansion(
            ch,
            np.zeros(2),
            functional="L",
            r_s=1.9,
            quad=QuadratureSpec(rule="radial_sphere", order=24),
        )
        assert res.predicted.c1 == pytest.approx(2.0)
        assert res.fit.c1 == pytest.approx(2.0, rel=5e-3)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=5e-2)

    def test_flat_coefficients_vanish(self):
        ch = make_chart(ModelSpec("flat", 3))
        res = run_expansion(
            ch,
            np.zeros(3),
            functional="L",
            mode="zero",
            r_s=2.0,
            quad=QuadratureSpec(rule="radial_sphere", order=32),
        )
        assert abs(res.fit.c1) < 1e-6
        assert abs(res.fit.c2) < 1e-4

    def test_conformal_ode_route(self):
        """End-to-end run on a perturbed metric, whose centre is warped:
        nothing is shot, and the quadratic coefficient must track lap Sc
        at the center.  Measured: c2 = 23.30778 against the prediction
        23.32000 (5.2e-4 relative, the c3 t left in c2)."""
        spec = ModelSpec(
            "conformal_flat",
            3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        )
        ch = make_chart(spec)
        cv = curvature_at(ch, np.zeros(3))
        res = run_expansion(
            ch,
            np.zeros(3),
            functional="L",
            r_s=0.9,
            quad=QuadratureSpec(rule="radial_sphere", order=16),
            curv=cv,
        )
        assert res.fit.c1 == pytest.approx(1.2, rel=1e-3)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=1e-3)
        assert res.meta["normal_chart"] == "warped"
        assert res.meta["christoffel"] == "closed_form"
        # a = Rc/3 = -(2/15) I at the centre of a radial profile, so one
        # ray of the rule's 512 stands for all of them
        assert res.meta["rule"] == "radial_sphere"
        assert res.meta["fold"] == [[0, 1, 2]]
        assert res.meta["rays"] == 1
        assert "nfev" not in res.meta and "gauss_residual" not in res.meta
        # orders 16 and 10: the Laguerre rule's 12 and 9 radii at each of
        # the 10 times, one kernel pass per order
        assert res.meta["radial_rule"] == "laguerre"
        assert res.meta["radial_m"] == 12 and res.meta["batches"] == 2
        assert res.meta["nodes"] == 10 * (12 + 9)

    def test_sphere_line_ode_route(self):
        """Geodesic shooting through the finite-difference Christoffel
        route: on S^2 x R, lap Sc = 0 and c2 tracks -|Rm|^2/6."""
        # the catalog chart's metric alone, so its closed-form
        # Christoffels give way to the jet engine
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        ch = MetricChart(3, cat.domain, cat.metric)
        cv = curvature_at(ch, np.zeros(3))
        res = run_expansion(
            ch,
            np.zeros(3),
            functional="L",
            r_s=0.9,
            quad=QuadratureSpec(rule="radial_sphere", order=16),
            curv=cv,
        )
        want = -(cv.lap_sc + norm_sq(cv.rm) / 6.0)
        assert want == pytest.approx(-2.0 / 3.0, rel=1e-4)
        assert res.fit.c2 == pytest.approx(want, rel=0.10)
        assert res.fit.c1 == pytest.approx(-2.0, rel=1e-3)
        assert res.meta["christoffel"] == "finite_difference"
        assert res.meta["normal_chart"] == "ode"
        # a hand-built chart carries no symmetry mark: the full bundle
        assert ch.symmetry is None and res.meta["fold"] is None
        assert res.meta["rays"] == 512 and res.meta["nfev"] > 0

    def test_profile_mismatch_direction(self):
        """Moving a away from Ricci/3 must shift the entropy-functional c2
        upward by 4 |delta a|^2."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        cv = space_form_curvature(3, 1.0)
        q = QuadratureSpec(rule="radial_sphere", order=24)
        base = run_expansion(
            ch, np.zeros(3), functional="W", r_s=1.7, quad=q, curv=cv
        )
        B = np.diag([1.0, -1.0, 0.0]) * 0.2  # traceless perturbation
        shifted = run_expansion(
            ch,
            np.zeros(3),
            functional="W",
            mode=cv.rc / 3.0 + B,
            r_s=1.7,
            quad=q,
            curv=cv,
        )
        want_shift = 4.0 * np.sum(B * B)
        got_shift = shifted.fit.c2 - base.fit.c2
        assert got_shift == pytest.approx(want_shift, rel=0.05)


class TestRadialFactor:
    """The radial factor of radial_sphere is exact on the Gaussian weight
    (Gauss-Laguerre in rho^2) wherever the cutoff lies past its tail,
    which is every t of the default grid."""

    @pytest.mark.parametrize("order", [12, 16, 24, 40])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flat_space_reads_zero(self, n, order):
        """Flat space with a = 0: L/M and W/M vanish, and the rule leaves
        rounding alone at every t of the default grid (measured up to
        5.3e-15; the split Gauss-Legendre rule left up to 7e-7 at order
        12 and 5e-10 at order 16)."""
        nc = build_normal_chart(make_chart(ModelSpec("flat", n)), np.zeros(n), 0.9)
        tf = build_test_function(nc, None, mode="zero", r_s=0.9)
        ts = make_tgrid(0.9**2 / 720.0)
        quad = QuadratureSpec(order=order)
        for evaluate in (eval_L_normalized, eval_W_normalized):
            assert np.abs(evaluate(tf, ts, quad)[0]).max() <= 1e-14

    @pytest.mark.parametrize("spec,p,r_s,want", [
        (ModelSpec("product_sphere_line", 3, K=1.0), (0.0,) * 3, 0.9, -2.0 / 3.0),
        (ModelSpec("product_sphere_line", 4, K=1.0), (0.0,) * 4, 0.6, -2.0 / 3.0),
        (ModelSpec("space_form", 3, K=1.0), (0.3, 0.2, 0.1), 0.9, -2.0),
    ], ids=["S2xR", "S2xR2", "S3-off-centre"])
    def test_order_12_fits_c2(self, spec, p, r_s, want):
        """Order 12 fits c2 within 2.5e-3 relative (measured 4.6e-4 on
        S^2 x R, 2.0e-4 on S^2 x R^2 and 5.1e-4 off the centre of S^3).
        S^2 x R is shot through its metric and Christoffels
        (oracles.shooting_chart), since the catalog origin is warped, and
        the S^3 chart off its centre; both shoot the full order-12 rule.
        S^2 x R^2 runs on its warped chart, whose full rule would be
        3,456 rays.  The split Gauss-Legendre radial rule left
        t-independent offsets in the values on the shot charts (3.6e-8 on
        S^2 x R), which the fit turned into c2 = +1.657, +7.635 and
        +0.322, with no NoiseDominates."""
        ch = make_chart(spec)
        p = np.array(p)
        curv = curvature_at(ch, p)
        if spec.n == 3 and not np.any(p):
            ch = shooting_chart(ch)
        res = run_expansion(ch, p, "L", r_s=r_s, curv=curv,
                            quad=QuadratureSpec(rule="radial_sphere", order=12))
        assert res.meta["normal_chart"] == ("warped" if spec.n == 4 else "ode")
        assert res.meta["radial_rule"] == "laguerre" and res.meta["radial_m"] == 10
        assert res.predicted.c2 == pytest.approx(want, rel=1e-6)
        assert res.fit.c2 == pytest.approx(want, rel=2.5e-3)


class TestHermiteFold:
    """Space forms at the origin take a = Rc/3, a multiple of the identity,
    so run_expansion evaluates the product Hermite grid folded onto one
    block: the nondecreasing index tuples of the half rule z >= 0,
    C(ceil(order/2) + n - 1, n) nodes."""

    def test_s4_order24_node_count(self):
        ch = make_chart(ModelSpec("space_form", 4, K=1.0))
        res = run_expansion(
            ch, np.zeros(4), functional="L", r_s=1.45,
            quad=QuadratureSpec(rule="hermite", order=24),
        )
        assert res.fit.c1 == pytest.approx(-12.0, rel=5e-3)
        assert res.fit.c2 == pytest.approx(-4.0, rel=5e-2)
        # C(15, 4) + C(12, 4) per time against 24^4 + 18^4 on the full grid
        assert res.meta["fold"] == [[0, 1, 2, 3]]
        assert res.meta["nodes"] == 10 * (1365 + 495) == 18_600

    def test_odd_err_drop_folds_the_zero_node(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))
        res = run_expansion(
            ch, np.zeros(3), functional="L", r_s=1.7,
            quad=QuadratureSpec(rule="hermite", order=25),
        )
        assert res.fit.c1 == pytest.approx(-6.0, rel=5e-3)
        assert res.fit.c2 == pytest.approx(-2.0, rel=5e-2)
        assert np.all(np.isfinite(res.errors))
        # the odd order-25 rule and its order-19 error rule keep their
        # zero nodes: 13 and 10 half nodes per axis, C(15, 3) and C(12, 3)
        # nondecreasing triples
        assert res.meta["nodes"] == 10 * (455 + 220) == 6_750


class TestRuleRecord:
    """meta["rule"] is the rule that ran, with 'auto' resolved, and
    meta["fold"] lists the blocks of the partition its nodes were folded
    onto (None: not folded): one block is one ray, singletons the orthant,
    and the sets of equal entries of a diagonal a need not be contiguous.
    The Hermite grid folds onto the same partition as the rays."""

    A_OFF = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.1]])

    @pytest.mark.parametrize(
        "n,kind,mode,quad,rule,fold,rays",
        [
            (4, "space_form", "optimal_a", QuadratureSpec(order=16),
             "radial_sphere", [[0, 1, 2, 3]], 1),
            (3, "space_form", A_OFF, QuadratureSpec(order=16),
             "radial_sphere", None, 2 * 16**2),
            (3, "space_form", "optimal_a",
             QuadratureSpec(rule="hermite", order=16), "hermite",
             [[0, 1, 2]], None),
            (5, "flat", "zero", QuadratureSpec(order=8), "radial_sphere",
             [[0, 1, 2, 3, 4]], 1),
            (3, "space_form", np.diag([0.3, -0.1, 0.05]),
             QuadratureSpec(order=16), "radial_sphere", [[0], [1], [2]],
             8 * 9),
            (3, "space_form", np.diag([0.3, 0.05, 0.3]),
             QuadratureSpec(order=16), "radial_sphere", [[0, 2], [1]], 8),
            (4, "space_form", np.diag([0.3, 0.3, -0.1, -0.1]),
             QuadratureSpec(order=16), "radial_sphere", [[0, 1], [2, 3]], 8),
        ],
        ids=["auto-folded", "auto-off-diagonal", "hermite", "auto-n5",
             "auto-orthant", "auto-blocks", "auto-blocks-n4"],
    )
    def test_resolved_rule_and_fold(self, n, kind, mode, quad, rule, fold,
                                    rays):
        ch = make_chart(ModelSpec(kind, n, K=float(kind == "space_form")))
        res = run_expansion(ch, np.zeros(n), functional="W", mode=mode,
                            r_s=1.0, quad=quad)
        assert res.meta["rule"] == rule
        assert res.meta["fold"] == fold
        assert res.meta.get("rays") == rays


class TestOdeFold:
    """At the centre of the c06 conformal metric, shot in a hand-built
    chart (the catalog chart's centre is warped), the ode chart shoots
    the full sphere rule, whatever a is, and its nodes fold onto
    nothing."""

    A_OFF = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.1]])
    QUAD = QuadratureSpec(rule="radial_sphere", order=16)

    @pytest.fixture(scope="class")
    def c06(self):
        ch = make_chart(ModelSpec(
            "conformal_flat", 3, halfwidth=1.5,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        ))
        return shooting_chart(ch), curvature_at(ch, np.zeros(3))

    def test_non_diagonal_a_runs_the_full_bundle(self, c06):
        """The values equal, bit for bit, those of the full order-16
        bundle built by hand and evaluated at the same times."""
        ch, cv = c06
        res = run_expansion(ch, np.zeros(3), "L", mode=self.A_OFF, r_s=0.9,
                            quad=self.QUAD, curv=cv, t_points=4)
        assert res.meta["fold"] is None and res.meta["rays"] == 512
        assert res.meta["normal_chart"] == "ode"
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=sphere_rule(3, 16))
        tf = build_test_function(nc, cv, mode=self.A_OFF, r_s=0.9)
        want = [eval_L_normalized(tf, float(t), self.QUAD)[0] for t in res.ts]
        assert np.array_equal(res.values, want)


def _prepare_along_the_rule(chart, p, r_s, quad):
    """prepare_normal_chart handing the full sphere rule to
    build_normal_chart on every call, whether the chart shoots or not."""
    return build_normal_chart(chart, p, r_s,
                              rule=expansion.sphere_rule(chart.n, quad.order))


class TestBundleOnlyWhereShot:
    """prepare_normal_chart builds a sphere rule only for a chart that
    shoots; a warped centre reads its geometry from its warps."""

    QUAD = QuadratureSpec(rule="radial_sphere", order=16)

    @pytest.mark.parametrize("spec", [
        ModelSpec("flat", 3), ModelSpec("space_form", 4, K=1.0),
        ModelSpec("space_form", 3, K=-1.0),
        ModelSpec("product_sphere_line", 3, K=1.0),
        ModelSpec("product_sphere_line", 4, K=-1.0),
        ModelSpec("conformal_flat", 3, halfwidth=1.5,
                  perturbation=Perturbation(0.05, PROFILES["quartic_bump"]))],
        ids=["flat", "S4", "H3", "S2xR", "H2xR2", "conformal"])
    def test_no_bundle_at_a_catalog_origin(self, monkeypatch, spec):
        """No sphere rule at the origin of the catalog charts, and the
        expansion equals, bit for bit, the one on a chart handed the rule
        it ignores."""
        ch = make_chart(spec)
        p = np.zeros(ch.n)
        rules = recorded(monkeypatch, expansion, "sphere_rule")
        res = run_expansion(ch, p, "L", r_s=0.9, quad=self.QUAD, t_points=4)
        assert rules == [] and res.meta["normal_chart"] == "warped"
        monkeypatch.setattr(expansion, "prepare_normal_chart",
                            _prepare_along_the_rule)
        old = run_expansion(ch, p, "L", r_s=0.9, quad=self.QUAD, t_points=4)
        assert len(rules) == 1
        for got, want in [(res.values, old.values), (res.errors, old.errors),
                          (res.fit.c1, old.fit.c1), (res.fit.c2, old.fit.c2)]:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_bundle_on_a_shooting_chart(self, monkeypatch):
        """The ode chart of S^2 x R's metric at the origin of a hand-built
        chart is shot along one rule, the full sphere_rule(3, 8)."""
        ch = shooting_chart(make_chart(ModelSpec("product_sphere_line", 3, K=1.0)))
        p, quad = np.zeros(3), QuadratureSpec(rule="radial_sphere", order=8)
        rules = recorded(monkeypatch, expansion, "sphere_rule")
        nc = prepare_normal_chart(ch, p, 0.9, quad)
        assert [args for args, _, _ in rules] == [(3, 8)]
        assert nc.kind == "ode" and nc.dirs.shape[0] == 128
        old = _prepare_along_the_rule(ch, p, 0.9, quad)
        for got, want in [(nc.dirs, old.dirs), (nc.weights, old.weights)]:
            assert got.tobytes() == want.tobytes()
        assert nc.nfev == old.nfev and nc.gauss_residual == old.gauss_residual


class TestEveryDimension:
    """The default QuadratureSpec (auto, measured order) runs the product
    sphere rule in every dimension, built at the order the ladder keeps.
    a = Rc/3 = lambda I folds it onto one ray; a diagonal a with unequal
    entries (the S5 and H6 orthant cases) keeps its orthant,
    (o/2)^(n-2) (o/2 + 1) directions at the even order o kept.  meta
    records that order and no polar orders: the rule built is the one
    named."""

    @pytest.mark.parametrize(
        "n,K,shift",
        [(5, 1.0, 0.0), (6, 1.0, 0.0), (5, -1.0, 0.0), (6, -1.0, 0.0),
         (5, 1.0, 0.1), (6, -1.0, 0.1)],
        ids=["S5", "S6", "H5", "H6", "S5-orthant", "H6-orthant"],
    )
    def test_default_rule_fits_the_prediction(self, n, K, shift):
        ch = make_chart(ModelSpec("space_form", n, K=K))
        # a traceless diagonal shift of Rc/3 moves c2 by 4 |shift|^2
        a = space_form_curvature(n, K).rc / 3.0 + shift * np.diag(
            np.linspace(-1.0, 1.0, n))
        start = time.perf_counter()
        with warnings.catch_warnings():
            # on H^n the profile a = -(n-1)/3 reaches zero inside r_s = 1.2
            warnings.simplefilter("ignore", PositivityWarning)
            res = run_expansion(ch, np.zeros(n), functional="L", mode=a,
                                r_s=1.2)
        elapsed = time.perf_counter() - start
        o = res.meta["order"]
        assert res.meta["rule"] == "radial_sphere" and o <= 20
        assert res.meta["rays"] == (1 if shift == 0 else (o // 2) ** (n - 2) * (o // 2 + 1))
        assert not any(k.startswith("polar_order") for k in res.meta)
        assert res.fit.c1 == pytest.approx(res.predicted.c1, rel=5e-3)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=5e-2)
        assert elapsed < 2.0, f"expansion took {elapsed:.2f}s"

    @pytest.mark.parametrize("mode,rays", [("optimal_a", 1), ("off", 2 * 40 * 40)],
                             ids=["one-ray", "full"])
    def test_s3_keeps_the_polar_orders_asked_for(self, mode, rays):
        """On S^3 an explicit order 40 builds its rule at 40: one ray, or
        the full rule's 2 o^2 = 3,200 directions, and meta records order
        40 and no polar orders.  A chart that shoots runs on the rule it
        was shot along, 128 rays at order 8."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0))
        a = mode if mode == "optimal_a" else np.diag([0.3, 0.2, 0.1]) + 0.05
        res = run_expansion(ch, np.zeros(3), "L", mode=a, r_s=1.0,
                            quad=QuadratureSpec(order=40))
        assert res.meta["rays"] == rays and res.meta["order"] == 40
        assert not any(k.startswith("polar_order") for k in res.meta)
        shot = run_expansion(shooting_chart(ch), np.zeros(3), "L", r_s=1.0,
                             quad=QuadratureSpec(order=8), t_points=4)
        assert shot.meta["rays"] == 128 and shot.meta["order"] == 8
        assert not any(k.startswith("polar_order") for k in shot.meta)


def _rand_a(n, seed=3):
    a = np.random.default_rng(seed).normal(scale=0.1, size=(n, n))
    return a + a.T


def _c06():
    return make_chart(ModelSpec(
        "conformal_flat", 3, halfwidth=1.5,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"])))


class TestMeasuredOrder:
    """The default order is measured: the ladder runs 8 against 2, then
    14, 20, ... each against the rung below, and keeps the first order
    whose values differ from the rung below by no more than their
    rounding floor.  On the catalog rows at the default time grid that is
    8 on one ray (a = Rc/3 on a space form or c06, where order 2 is
    already exact to rounding) and 14 on the rows with more rays; c2
    stays within 1e-6 relative of the explicit order 40 (5e-6 for c06's
    W, whose c2 is 300 times smaller than its L's).  With
    t_max = r_s^2/100 the first kink lies at z_k = 2.5, the radial rule
    is the split Gauss-Legendre one, and the ladder climbs to 26.  A
    chart that shoots runs the fixed shot order 40 on the rays of its
    sphere_rule(n, 40)."""

    # chart, functional, a, r_s and the order the ladder keeps
    CASES = {
        "S3": lambda: (make_chart(ModelSpec("space_form", 3, K=1.0)), "L",
                       "optimal_a", 1.7, 8),
        "S3-random": lambda: (make_chart(ModelSpec("space_form", 3, K=1.0)),
                              "L", _rand_a(3), 1.7, 14),
        "H4-random": lambda: (make_chart(ModelSpec("space_form", 4, K=-1.0)),
                              "L", _rand_a(4), 0.9, 14),
        "c06-L": lambda: (_c06(), "L", "optimal_a", 0.9, 8),
        "c06-W": lambda: (_c06(), "W", "optimal_a", 0.9, 8),
        "S2xR": lambda: (make_chart(ModelSpec("product_sphere_line", 3, K=1.0)),
                         "L", "optimal_a", 0.9, 14),
    }
    # c2 against order 40: relative bound, None where order 40's full
    # rule (3.1 million nodes per time on H^4) costs more than the check
    RTOL_40 = {"S3": 1e-6, "S3-random": 1e-6, "H4-random": None,
               "c06-L": 1e-6, "c06-W": 5e-6, "S2xR": 1e-6}

    @pytest.mark.parametrize("case", list(CASES))
    def test_default_runs_stop_by_14(self, case):
        ch, functional, mode, r_s, order = self.CASES[case]()
        p = np.zeros(ch.n)
        res = run_expansion(ch, p, functional, mode=mode, r_s=r_s)
        assert res.meta["order"] == order
        assert "polar_order" not in res.meta
        if self.RTOL_40[case] is not None:
            ref = run_expansion(ch, p, functional, mode=mode, r_s=r_s,
                                quad=QuadratureSpec(order=40))
            assert res.fit.c2 == pytest.approx(ref.fit.c2, rel=self.RTOL_40[case])

    def test_split_radial_rule_stops_at_26(self):
        ch = make_chart(ModelSpec("space_form", 3, K=1.0))
        res = run_expansion(ch, np.zeros(3), "L", mode=_rand_a(3), r_s=1.0,
                            t_max=1.0 / 100)
        assert res.meta["order"] == 26
        assert "split_legendre" in res.meta["radial_rule"]

    def test_shot_chart_runs_the_shot_order(self, monkeypatch):
        """The measured order hands the full sphere_rule(3, 40) to a chart
        that shoots, and on a chart that pins its rays eval_components
        runs the radial rule at 40 with the estimate from 34, bit for bit
        as an explicit order 40: the spline tables of a shot chart would
        keep every rung changing above rounding."""
        ch = shooting_chart(make_chart(ModelSpec("space_form", 3, K=1.0)))
        with monkeypatch.context() as mp:
            mp.setattr(expansion, "build_normal_chart",
                       lambda chart, p, r0, rule=None: rule)
            dirs, _ = prepare_normal_chart(ch, np.zeros(3), 0.9, QuadratureSpec())
        assert dirs.shape == (3200, 3)
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=sphere_rule(3, 8))
        tf = build_test_function(nc, curvature_at(ch, np.zeros(3)), r_s=0.9)
        ts = make_tgrid(0.9**2 / 720, 4)
        got = eval_L_normalized(tf, ts)
        want = eval_L_normalized(tf, ts, QuadratureSpec(order=40))
        assert got[2]["order"] == 40 and got[2]["rays"] == 128
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()


class TestVolumeFit:
    def test_sphere_volume_series(self):
        # exact unit 3-sphere ball volumes, pi (2r - sin 2r)
        r = np.linspace(0.1, 0.5, 9)
        vols = np.pi * (2 * r - np.sin(2 * r))
        fit = fit_volume_series(r, vols, 3)
        assert fit.c1 == pytest.approx(-0.2, rel=1e-4)
        assert fit.c2 == pytest.approx(2.0 / 105.0, rel=1e-2)
