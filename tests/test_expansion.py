import time
import warnings

import numpy as np
import pytest

from curvex import ModelSpec, Perturbation, curvature_at, make_chart, norm_sq
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
    sphere_rule,
)
from curvex.tensor_core import space_form_curvature


class TestPredictions:
    """Frozen coefficient values on the unit 3-sphere."""

    def setup_method(self):
        self.cv = space_form_curvature(3, 1.0)
        self.a_opt = self.cv.rc / 3.0

    def test_deficit_optimal(self):
        p = predict_L(self.cv, self.a_opt, -2.0)
        assert p.c1 == pytest.approx(-6.0)
        # lap Sc = 0 and |Rm|^2/6 = 2 with no mismatch penalty
        assert p.c2 == pytest.approx(-2.0)

    def test_deficit_zero_profile(self):
        p = predict_L(self.cv, np.zeros((3, 3)), 0.0)
        # -(0 - 12 + 0 + 0 + 2 - 4 * |Rc/3|^2), |Rc/3|^2 = 4/3
        assert p.c2 == pytest.approx(-(0 - 12 + 2 - 16.0 / 3.0))

    def test_entropy_functional_optimal(self):
        p = predict_W(self.cv, self.a_opt, -2.0)
        assert p.c1 == pytest.approx(0.0)
        assert p.c2 == pytest.approx(-2.0)

    def test_entropy_functional_zero_profile(self):
        p = predict_W(self.cv, np.zeros((3, 3)), -2.0)
        # c2 = -(|Rm|^2/6 - 4 |Rc/3|^2) = -(2 - 16/3) = 10/3
        assert p.c2 == pytest.approx(10.0 / 3.0)

    def test_curvature_average_series(self):
        p = predict_scalar_term(self.cv, self.a_opt, 0.0)
        assert p.c1 == pytest.approx(6.0)
        # 0 - 12 + 2*2*6 + 0 = 12
        assert p.c2 == pytest.approx(12.0)

    def test_volume_sphere(self):
        r2, r4 = predict_volume(self.cv)
        assert r2 == pytest.approx(-0.2)
        assert r4 == pytest.approx(2.0 / 105.0)

    def test_flat_all_zero(self):
        cv = space_form_curvature(4, 0.0)
        p = predict_L(cv, np.zeros((4, 4)), 0.0)
        assert p.c1 == 0.0 and p.c2 == 0.0


class TestGrid:
    def test_geometric(self):
        ts = make_tgrid(1e-3, points=8)
        assert ts.shape == (8,)
        assert ts[-1] == pytest.approx(1e-3)
        assert np.allclose(np.diff(np.log(ts)), np.log(2) / 2)

    def test_guards(self):
        with pytest.raises(ConfigInvalid):
            make_tgrid(1e-3, points=3)


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
        assert res.meta["normal_chart"] == "space_form"
        assert "nfev" not in res.meta and "gauss_residual" not in res.meta
        assert res.meta["rays"] == 12 * 13  # the folded order-24 rule
        # orders 24 and 18: a = Rc/3 is diagonal, so the 2 o^2 directions
        # fold onto the orthant, o/2 Legendre nodes u >= 0 times the
        # o/2 + 1 azimuths 4k <= 2o, each times o radii per segment, with
        # segments [0, 3], [3, 10] and a split at the inner cutoff kink
        # r_s / (4 sqrt t) where it falls below the truncation radius 10
        assert res.meta["rule"] == "radial_sphere" and res.meta["fold"] is True
        segs = 2 + (1.7 / (4.0 * np.sqrt(res.ts)) < 10.0)
        assert segs.tolist() == [2] * 7 + [3] * 3
        assert res.meta["nodes"] == sum(
            o * (o // 2) * (o // 2 + 1) * int(k) for k in segs for o in (24, 18)
        )

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
            alpha=0.0,
            r_s=2.0,
            quad=QuadratureSpec(rule="radial_sphere", order=32),
        )
        assert abs(res.fit.c1) < 1e-6
        assert abs(res.fit.c2) < 1e-4

    def test_conformal_ode_route(self):
        """End-to-end geodesic-shooting route on a perturbed metric; the
        quadratic coefficient must track lap Sc at the center."""
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
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=0.05)
        assert res.meta["normal_chart"] == "ode"
        assert res.meta["christoffel"] == "closed_form"
        # a = Rc/3 is diagonal at the centre of a radial profile, so the
        # bundle is shot on the orthant: 72 of the rule's 512 rays
        assert res.meta["rule"] == "radial_sphere" and res.meta["fold"] is True
        assert res.meta["rays"] == 72 and res.meta["nfev"] > 0
        assert res.meta["nodes"] > 0 and res.meta["nodes"] % 72 == 0
        assert 0 < res.meta["gauss_residual"] < 1e-9

    def test_sphere_line_ode_route(self):
        """Geodesic shooting through the finite-difference Christoffel
        route: on S^2 x R, lap Sc = 0 and c2 tracks -|Rm|^2/6.  (At order
        12 the angular rule leaves a t-independent offset of 3.6e-8 in the
        values and c2 comes out near +1.66; order 16 resolves it.)"""
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
        # a hand-built chart carries no mirror symmetry: the full bundle
        assert not ch.mirror_even and res.meta["fold"] is False
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


class TestHermiteFold:
    """Space forms at the origin take a = Rc/3, a multiple of the identity,
    so run_expansion evaluates the product Hermite grid folded onto the
    orthant z >= 0."""

    def test_s4_order24_node_count(self):
        ch = make_chart(ModelSpec("space_form", 4, K=1.0))
        res = run_expansion(
            ch, np.zeros(4), functional="L", r_s=1.45,
            quad=QuadratureSpec(rule="hermite", order=24),
        )
        assert res.fit.c1 == pytest.approx(-12.0, rel=5e-3)
        assert res.fit.c2 == pytest.approx(-4.0, rel=5e-2)
        # 12^4 + 9^4 per time against 24^4 + 18^4 on the full grid
        assert res.meta["nodes"] == 10 * (12**4 + 9**4) == 272_970

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
        # zero nodes: 13 and 10 half nodes per axis
        assert res.meta["nodes"] == 10 * (13**3 + 10**3)


class TestRuleRecord:
    """meta["rule"] is the rule that ran, with 'auto' resolved, and
    meta["fold"] says whether its nodes were folded onto the orthant."""

    A_OFF = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.1]])

    @pytest.mark.parametrize(
        "n,kind,mode,quad,rule,fold",
        [
            (4, "space_form", "optimal_a", QuadratureSpec(order=16),
             "radial_sphere", True),
            (3, "space_form", A_OFF, QuadratureSpec(order=16),
             "radial_sphere", False),
            (3, "space_form", "optimal_a",
             QuadratureSpec(rule="hermite", order=16), "hermite", True),
            (5, "flat", "zero", QuadratureSpec(order=8), "radial_sphere",
             True),
        ],
        ids=["auto-folded", "auto-off-diagonal", "hermite", "auto-n5"],
    )
    def test_resolved_rule_and_fold(self, n, kind, mode, quad, rule, fold):
        ch = make_chart(ModelSpec(kind, n, K=float(kind == "space_form")))
        res = run_expansion(ch, np.zeros(n), functional="W", mode=mode,
                            r_s=1.0, quad=quad)
        assert res.meta["rule"] == rule
        assert res.meta["fold"] is fold


class TestOdeFold:
    """At the centre of the c06 conformal chart the ode bundle is folded
    for a diagonal a and shot in full for any other."""

    A_OFF = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.1]])
    QUAD = QuadratureSpec(rule="radial_sphere", order=16)

    @pytest.fixture(scope="class")
    def c06(self):
        ch = make_chart(ModelSpec(
            "conformal_flat", 3, halfwidth=1.5,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        ))
        return ch, curvature_at(ch, np.zeros(3))

    def test_non_diagonal_a_runs_the_full_bundle(self, c06):
        """The values equal, bit for bit, those of the full order-16
        bundle built by hand and evaluated at the same times."""
        ch, cv = c06
        res = run_expansion(ch, np.zeros(3), "L", mode=self.A_OFF, r_s=0.9,
                            quad=self.QUAD, curv=cv, t_points=4)
        assert res.meta["fold"] is False and res.meta["rays"] == 512
        nc = build_normal_chart(ch, np.zeros(3), 0.9, rule=sphere_rule(3, 16))
        tf = build_test_function(nc, cv, mode=self.A_OFF, r_s=0.9)
        want = [eval_L_normalized(tf, float(t), self.QUAD)[0] for t in res.ts]
        assert np.array_equal(res.values, want)

    def test_folded_bundle_refuses_non_diagonal_a(self, c06):
        ch, cv = c06
        nc = prepare_normal_chart(ch, np.zeros(3), 0.9, self.QUAD)
        assert nc.folded and nc.dirs.shape[0] == 72
        tf = build_test_function(nc, cv, mode=self.A_OFF, r_s=0.9)
        with pytest.raises(ConfigInvalid):
            eval_L_normalized(tf, 1e-3, self.QUAD)
        # a diagonal a runs on it, and off the centre nothing folds
        eval_L_normalized(build_test_function(nc, cv, r_s=0.9), 1e-3, self.QUAD)
        off = prepare_normal_chart(ch, np.array([0.1, 0.0, 0.0]), 0.5,
                                   QuadratureSpec(rule="radial_sphere", order=8))
        assert not off.folded and off.dirs.shape[0] == 128


class TestEveryDimension:
    """The default QuadratureSpec (auto, order 40) runs the product sphere
    rule in every dimension; above n = 4 it is cut to 2^15 directions."""

    @pytest.mark.parametrize(
        "n,K,rays",
        # folded polar orders 11 (n = 5) and 6 (n = 6): ceil(o/2)^(n-2)
        # polar nodes times o/2 + 1 azimuths
        [(5, 1.0, 6**3 * 6), (6, 1.0, 3**4 * 4), (5, -1.0, 6**3 * 6),
         (6, -1.0, 3**4 * 4)],
        ids=["S5", "S6", "H5", "H6"],
    )
    def test_default_rule_fits_the_prediction(self, n, K, rays):
        ch = make_chart(ModelSpec("space_form", n, K=K))
        start = time.perf_counter()
        with warnings.catch_warnings():
            # on H^n the profile a = -(n-1)/3 reaches zero inside r_s = 1.2
            warnings.simplefilter("ignore", PositivityWarning)
            res = run_expansion(ch, np.zeros(n), functional="L", r_s=1.2)
        elapsed = time.perf_counter() - start
        assert res.meta["rule"] == "radial_sphere"
        assert res.meta["order"] == 40 and res.meta["rays"] == rays
        assert res.fit.c1 == pytest.approx(res.predicted.c1, rel=5e-3)
        assert res.fit.c2 == pytest.approx(res.predicted.c2, rel=5e-2)
        assert elapsed < 2.0, f"expansion took {elapsed:.2f}s"


class TestVolumeFit:
    def test_sphere_volume_series(self):
        # exact unit 3-sphere ball volumes, pi (2r - sin 2r)
        r = np.linspace(0.1, 0.5, 9)
        vols = np.pi * (2 * r - np.sin(2 * r))
        fit = fit_volume_series(r, vols, 3)
        assert fit.c1 == pytest.approx(-0.2, rel=1e-4)
        assert fit.c2 == pytest.approx(2.0 / 105.0, rel=1e-2)
