"""Rigidity decision rules."""

import numpy as np
import pytest

from curvex.charts import ModelSpec, build_normal_chart, make_chart
from curvex.errors import ConfigInvalid
from curvex.rigidity import (
    assess_rigidity,
    isoperimetric_probe,
    scalar_bound_margin,
    space_form_residuals,
)
from curvex.tensor_core import space_form_curvature


@pytest.fixture(scope="module")
def sphere_chart():
    return make_chart(ModelSpec(kind="space_form", n=3, K=1.0))


@pytest.fixture(scope="module")
def flat_chart():
    return make_chart(ModelSpec(kind="flat", n=3, halfwidth=2.0))


class TestPointwise:
    def test_scalar_margin_exact(self):
        curv = space_form_curvature(3, 1.0)
        assert scalar_bound_margin(curv, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert scalar_bound_margin(curv, 0.5) == pytest.approx(3.0, abs=1e-14)
        flat = space_form_curvature(3, 0.0)
        assert scalar_bound_margin(flat, 1.0) == pytest.approx(
            -6.0, abs=1e-14
        )

    def test_space_form_residuals_vanish(self):
        curv = space_form_curvature(4, -1.0)
        res = space_form_residuals(curv, -1.0)
        assert abs(res["rm_excess"]) < 1e-12
        assert res["weyl_sq"] < 1e-24
        assert res["traceless_rc_sq"] < 1e-24

    def test_wrong_model_leaves_excess(self):
        curv = space_form_curvature(3, 1.0)
        res = space_form_residuals(curv, 0.5)
        # |Rm|^2 = 12 but the K=0.5 model wants 2*n(n-1)K^2 = 3
        assert res["rm_excess"] == pytest.approx(9.0, abs=1e-12)

    def test_product_chart_has_ricci_anisotropy(self):
        chart = make_chart(
            ModelSpec(kind="product_sphere_line", n=3, K=1.0)
        )
        from curvex.charts import curvature_at

        curv = curvature_at(chart, np.zeros(3), want_hessian=False)
        res = space_form_residuals(curv, 0.0)
        assert res["traceless_rc_sq"] > 0.1


class TestIsoperimetricProbe:
    def test_flat_ball_matches_flat_model(self, flat_chart):
        nc = build_normal_chart(flat_chart, np.zeros(3), r0=1.5)
        probe = isoperimetric_probe(nc, 0.0, 4 * np.pi / 3)
        assert probe["radius"] == pytest.approx(1.0, abs=1e-10)
        assert probe["area"] == pytest.approx(4 * np.pi, rel=1e-10)
        assert abs(probe["margin"]) < 1e-8

    def test_flat_ball_beats_sphere_model(self, flat_chart):
        # equal volume, positive-curvature model: flat has more boundary
        nc = build_normal_chart(flat_chart, np.zeros(3), r0=1.5)
        probe = isoperimetric_probe(nc, 1.0, 4 * np.pi / 3)
        assert probe["margin"] > 0.1

    def test_sphere5_margin_at_rounding_level(self):
        """The area is sphere_area(n) dens(r) r^(n-1), not a sum over a
        sphere rule, so on S^5 the probe closes to the rounding of the two
        volume integrals (a 20,000-direction rule left up to 4.3e-13)."""
        rep = assess_rigidity(make_chart(ModelSpec("space_form", 5, K=1.0)),
                              1.0, npoints=1)
        probes = rep.named("isoperimetric")
        assert len(probes) == 3 and rep.verdict == "consistent_with_rigidity"
        for c in probes:
            assert abs(c.margin) <= 1e-14 * c.detail["model_area"]
            assert abs(c.margin) < 1e-13

    def test_volume_guard(self, flat_chart):
        nc = build_normal_chart(flat_chart, np.zeros(3), r0=1.0)
        with pytest.raises(ConfigInvalid):
            isoperimetric_probe(nc, 0.0, 100.0)


class TestVerdicts:
    def test_space_form_is_consistent(self, sphere_chart):
        rep = assess_rigidity(sphere_chart, K=1.0, extended=True)
        assert rep.verdict == "consistent_with_rigidity"
        assert abs(rep.scalar_margin) < 1e-6
        for c in rep.checks:
            if c.name == "isoperimetric":
                rel = c.margin / c.detail["model_area"]
                assert abs(rel) < 1e-6
            else:
                assert abs(c.margin) < 1e-6

    def test_flat_against_positive_model(self, flat_chart):
        rep = assess_rigidity(flat_chart, K=1.0)
        assert rep.verdict == "hypothesis_violated"
        assert rep.scalar_margin == pytest.approx(-6.0, abs=1e-6)

    def test_flat_against_flat_model(self, flat_chart):
        rep = assess_rigidity(flat_chart, K=0.0)
        assert rep.verdict == "consistent_with_rigidity"

    def test_hyperbolic_cases(self):
        hyp = make_chart(
            ModelSpec(kind="space_form", n=3, K=-1.0, halfwidth=1.5)
        )
        assert assess_rigidity(hyp, K=-1.0).verdict == (
            "consistent_with_rigidity"
        )
        rep = assess_rigidity(hyp, K=0.0)
        assert rep.verdict == "hypothesis_violated"
        assert rep.scalar_margin == pytest.approx(-6.0, abs=1e-6)

    def test_inconclusive_when_bound_holds_but_shape_differs(
        self, sphere_chart
    ):
        # Sc = 6 >= 3 holds for the K=0.5 model, but the curvature tensor
        # is not the K=0.5 space form
        rep = assess_rigidity(sphere_chart, K=0.5)
        assert rep.verdict == "inconclusive"
        assert rep.scalar_margin == pytest.approx(3.0, abs=1e-6)

    def test_extended_adds_laplacian_check(self, sphere_chart):
        rep = assess_rigidity(sphere_chart, K=1.0, extended=True)
        laps = rep.named("lap_sc_nonneg")
        assert len(laps) == rep.meta["npoints"]
        assert all(abs(c.margin) < 1e-9 for c in laps)

    def test_sphere_line_against_flat_model(self):
        """S^2 x R's centre chart is warped, one warp per block (it was
        shot by geodesics, with the same margins to 1.6e-13).  Sc = 2 >= 0
        holds but the traceless Ricci part does not vanish, and geodesic
        balls have less area than flat balls of the same volume (margins
        about -0.36, -0.92, -1.60)."""
        ch = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        rep = assess_rigidity(ch, K=0.0)
        assert rep.verdict == "inconclusive"
        assert rep.scalar_margin == pytest.approx(2.0, abs=1e-6)
        assert all(c.margin > 0.1 for c in rep.named("traceless_rc_sq"))
        iso = [c.margin for c in rep.named("isoperimetric")]
        assert len(iso) == 3 and all(m < 0 for m in iso)
        assert iso[0] > iso[1] > iso[2]  # the deficit grows with volume

    @pytest.mark.parametrize("K,probe_K", [(1.0, 1.0), (1.0, 0.5),
                                           (-1.0, -1.0), (0.0, 1.0)])
    def test_closed_form_probes_match_quadrature(self, K, probe_K):
        """Closed-form charts ignore the probe's sphere rule.  Oracle: the
        areas 4 pi sn_K(r)^2 of both 3-dimensional space forms at the
        radii where scipy's quad volume reaches each probe volume."""
        from scipy.integrate import quad
        from scipy.optimize import brentq

        def sn(k, r):
            if k == 0.0:
                return r
            s = np.sqrt(abs(k))
            return (np.sin(s * r) if k > 0 else np.sinh(s * r)) / s

        def area_at_volume(k, v):
            vol = lambda r: quad(lambda x: 4 * np.pi * sn(k, x) ** 2, 0, r,
                                 epsabs=0, epsrel=2e-14)[0]
            r = brentq(lambda r: vol(r) - v, 1e-3, 3.0, xtol=1e-15, rtol=1e-15)
            return 4 * np.pi * sn(k, r) ** 2

        kind = "flat" if K == 0.0 else "space_form"
        ch = make_chart(ModelSpec(kind, 3, K=K, halfwidth=1.5))
        rep = assess_rigidity(ch, K=probe_K)
        r_ref = 0.95 * rep.meta["probe_radius"]
        v_ref = quad(lambda x: 4 * np.pi * sn(K, x) ** 2, 0, r_ref,
                     epsabs=0, epsrel=2e-14)[0]
        for frac, check in zip((0.25, 0.5, 0.75), rep.named("isoperimetric")):
            v = frac * v_ref
            want = area_at_volume(K, v) - area_at_volume(probe_K, v)
            assert abs(check.margin - want) <= 1e-12 * check.detail["model_area"]

    def test_named_filter_and_meta(self, flat_chart):
        rep = assess_rigidity(flat_chart, K=0.0, npoints=3)
        assert len(rep.named("scalar_bound")) == 3
        assert rep.meta["npoints"] == 3
        assert len(rep.named("isoperimetric")) == 3
