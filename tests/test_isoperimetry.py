"""Isoperimetric profile and radial symmetrization."""

import tracemalloc

import numpy as np
import pytest

from curvex import _numerics
from curvex._spaceform import ball_volume_K, sphere_area_K
from curvex.charts import ModelSpec, build_normal_chart, make_chart
from curvex.errors import (
    ConfigInvalid,
    LevelSetDegenerate,
    NonPositiveVolume,
    TimeTooLarge,
    VolumeTooLarge,
)
from curvex.functionals import (
    QuadratureSpec,
    TestFunction,
    build_test_function,
    check_time,
    eval_components,
    ray_bundle,
    resolve_rule,
)
from curvex.isoperimetry import (
    _u_on_rays,
    iso_profile,
    iso_profile_radius,
    symmetrize,
)
from oracles import eta2_pointwise, recorded


@pytest.fixture(scope="module")
def flat_chart():
    chart = make_chart(ModelSpec(kind="flat", n=3, halfwidth=2.0))
    return build_normal_chart(chart, np.zeros(3), r0=1.6)


@pytest.fixture(scope="module")
def radial_result(flat_chart):
    tf = build_test_function(
        flat_chart, None, mode=np.zeros((3, 3)), r_s=1.2
    )
    return symmetrize(tf, t=0.01, K=0.0, levels=512, order=32)


@pytest.fixture(scope="module")
def aniso_result(flat_chart):
    a = np.diag([0.3, -0.1, 0.05])
    tf = build_test_function(flat_chart, None, mode=a, r_s=1.2)
    return symmetrize(tf, t=0.01, K=0.0, levels=512, order=32)


class TestIsoProfile:
    def test_flat_unit_ball(self):
        # volume 4pi/3 in R^3 is the unit ball, boundary area 4pi
        r = iso_profile_radius(3, 0.0, 4 * np.pi / 3)
        assert abs(r - 1.0) < 1e-12
        assert abs(iso_profile(3, 0.0, 4 * np.pi / 3) - 4 * np.pi) < 1e-10

    def test_flat_n2(self):
        assert abs(iso_profile_radius(2, 0.0, np.pi) - 1.0) < 1e-12
        assert abs(iso_profile(2, 0.0, np.pi) - 2 * np.pi) < 1e-11

    @pytest.mark.parametrize("K", [1.0, -1.0, 0.25])
    def test_radius_roundtrip(self, K):
        for r0 in [0.3, 0.7, 1.4]:
            beta = float(ball_volume_K(3, K, r0))
            r = iso_profile_radius(3, K, beta)
            assert abs(r - r0) < 1e-10

    def test_sphere_total_volume_rejected(self):
        total = float(ball_volume_K(3, 1.0, np.pi))
        with pytest.raises(VolumeTooLarge):
            iso_profile_radius(3, 1.0, total)
        with pytest.raises(VolumeTooLarge):
            iso_profile_radius(3, 1.0, 2 * total)

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(NonPositiveVolume):
            iso_profile_radius(3, 0.0, 0.0)
        with pytest.raises(NonPositiveVolume):
            iso_profile(3, 1.0, -1.0)

    def test_hyperbolic_large_volume(self):
        # bracket doubling must reach large radii
        beta = float(ball_volume_K(3, -1.0, 5.0))
        assert abs(iso_profile_radius(3, -1.0, beta) - 5.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hyperbolic_huge_volume(self, n):
        """Volumes far beyond the flat ball of radius 1e6 still resolve on
        H^n: the radius is bounded by 1 + asinh(sn bound), so no sn_K
        overflows on the way (RuntimeWarnings fail the suite)."""
        for r0 in (30.0, 600.0 / (n - 1)):
            beta = float(ball_volume_K(n, -1.0, r0))
            assert iso_profile_radius(n, -1.0, beta) == pytest.approx(
                r0, rel=1e-13
            )

    def test_profile_value_is_sphere_area(self):
        beta = float(ball_volume_K(3, 1.0, 0.8))
        assert abs(
            iso_profile(3, 1.0, beta) - float(sphere_area_K(3, 1.0, 0.8))
        ) < 1e-9

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_array_matches_scalar_calls(self, K, n):
        top = 0.97 * np.pi if K > 0 else 4.0
        betas = ball_volume_K(n, K, np.linspace(0.02, top, 37))
        radii = iso_profile_radius(n, K, betas)
        assert radii.shape == betas.shape
        one_by_one = np.array(
            [iso_profile_radius(n, K, float(b)) for b in betas]
        )
        np.testing.assert_allclose(radii, one_by_one, rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            iso_profile(n, K, betas), sphere_area_K(n, K, radii),
            rtol=1e-14, atol=0,
        )

    def test_scalar_in_float_out(self):
        assert type(iso_profile_radius(3, -1.0, 2.0)) is float
        assert type(iso_profile(3, 1.0, np.float64(2.0))) is float

    def test_one_bad_element_raises(self):
        with pytest.raises(NonPositiveVolume):
            iso_profile_radius(3, 0.0, np.array([1.0, 0.0, 2.0]))
        total = float(ball_volume_K(3, 1.0, np.pi))
        with pytest.raises(VolumeTooLarge):
            iso_profile_radius(3, 1.0, np.array([1.0, total]))
        with pytest.raises(VolumeTooLarge):
            iso_profile_radius(3, 0.0, np.array([1.0, 1e300]))


class TestSymmetrizeRadial:
    """With a = 0 the function is already radial: the rearrangement is the
    identity and every comparison quantity must close to quadrature
    precision."""

    def test_mass_preserved(self, radial_result):
        assert abs(
            radial_result.mass_symmetrized - radial_result.mass_original
        ) < 1e-8

    def test_entropy_preserved(self, radial_result):
        assert abs(
            radial_result.entropy_symmetrized - radial_result.entropy_original
        ) < 1e-8

    def test_dirichlet_gap_vanishes(self, radial_result):
        gap = (
            radial_result.dirichlet_original
            - radial_result.dirichlet_symmetrized
        )
        assert abs(gap) < 1e-5 * radial_result.dirichlet_original
        assert gap > -1e-9 * radial_result.dirichlet_original

    def test_profile_inverts_the_function(self, radial_result):
        # r_bar(s) is the level radius of u itself, so the spline through
        # (r_bar, s) must reproduce the ladder
        spl = radial_result.profile.spline()
        vals = spl(radial_result.r_bar)
        np.testing.assert_allclose(vals, radial_result.levels, rtol=1e-10)

    def test_area_matches_comparison(self, radial_result):
        # round level sets: measured area equals the comparison-ball area
        np.testing.assert_allclose(
            radial_result.area_original,
            radial_result.area_comparison,
            rtol=1e-6,
        )


class TestSymmetrizeAnisotropic:
    def test_mass_preserved(self, aniso_result):
        assert abs(
            aniso_result.mass_symmetrized - aniso_result.mass_original
        ) < 1e-8

    def test_entropy_preserved(self, aniso_result):
        assert abs(
            aniso_result.entropy_symmetrized - aniso_result.entropy_original
        ) < 1e-8

    def test_dirichlet_gap_positive(self, aniso_result):
        gap = (
            aniso_result.dirichlet_original
            - aniso_result.dirichlet_symmetrized
        )
        assert gap > 0
        # anisotropy is genuinely felt, not roundoff
        assert gap > 1e-4

    def test_volumes_increase(self, aniso_result):
        assert np.all(np.diff(aniso_result.volumes) > 0)

    def test_holder_margin_nonnegative(self, aniso_result):
        scale = aniso_result.coarea * aniso_result.grad_integral
        assert np.all(aniso_result.holder_margin() >= -1e-9 * scale)

    def test_isoperimetric_deficit_sign(self, aniso_result):
        # measured boundary area can never beat the round ball
        assert np.all(
            aniso_result.area_original
            >= aniso_result.area_comparison * (1 - 1e-9)
        )

    def test_coarea_against_volume_ladder(self, aniso_result):
        # independent oracle: -dV/ds by finite differences of the
        # superlevel volumes must match the polar-route coarea integral
        fd = -np.gradient(aniso_result.volumes, aniso_result.levels)
        rel = np.abs(fd - aniso_result.coarea) / aniso_result.coarea
        assert np.median(rel) < 2e-3
        assert rel[2:-2].max() < 2e-2

    def test_crossings_on_the_eta2_cliff(self, flat_chart):
        """Near the zero of eta^2 one float spacing in r moves u by more
        than 1e-10 of itself, so those crossings are held to
        4 eps |du/dr| r / s instead, and the sweep runs (it raised at a
        fixed 1e-10).  The ladder still matches the r_bar balls, as c08
        checks."""
        tf = TestFunction(flat_chart, np.diag([0.1, -0.3, -2.0]), r_s=1.2)
        res = symmetrize(tf, t=0.012, K=0.0, levels=64, order=16)
        assert res.meta["crossing_residual"] > 1e-10  # the cliff is reached
        assert np.all(np.diff(res.volumes) > 0)
        ball = (4.0 * np.pi / 3.0) * res.r_bar**3
        assert np.max(np.abs(ball / res.volumes - 1.0)) < 1e-9

    def test_levels_descend(self, aniso_result):
        assert np.all(np.diff(aniso_result.levels) < 0)
        top = aniso_result.levels[0]
        bottom = aniso_result.levels[-1]
        assert abs(bottom / top - 1e-6 / (1 - 1e-3)) < 1e-12


class TestSymmetrizeSphereTarget:
    def test_mass_entropy_transfer(self, flat_chart):
        # rearranging onto the round sphere preserves the layer-cake
        # integrals just the same
        a = np.diag([0.2, -0.05, 0.1])
        tf = build_test_function(flat_chart, None, mode=a, r_s=1.2)
        res = symmetrize(tf, t=0.01, K=1.0, levels=512, order=32)
        assert abs(res.mass_symmetrized - res.mass_original) < 1e-8
        assert abs(res.entropy_symmetrized - res.entropy_original) < 1e-8
        assert res.r_bar.max() < np.pi
        # positive curvature target: balls of equal volume have smaller
        # boundary, so the comparison area sits below the flat one
        flat_area = sphere_area_K(3, 0.0, iso_profile_radius(3, 0.0, res.volumes))
        assert np.all(res.area_comparison <= flat_area + 1e-12)


class TestGuards:
    def test_non_flat_chart_rejected(self):
        chart = make_chart(ModelSpec(kind="space_form", n=3, K=1.0))
        nc = build_normal_chart(chart, np.zeros(3), r0=0.8)
        tf = build_test_function(
            nc, None, mode=np.zeros((3, 3)), r_s=0.6
        )
        with pytest.raises(ConfigInvalid):
            symmetrize(tf, t=0.001, K=1.0)

    def test_too_few_levels(self, flat_chart):
        tf = build_test_function(
            flat_chart, None, mode=np.zeros((3, 3)), r_s=1.2
        )
        with pytest.raises(ConfigInvalid):
            symmetrize(tf, t=0.01, levels=32)

    @pytest.mark.parametrize("levels", [100.0, "100", True, None])
    def test_non_integer_levels(self, flat_chart, levels):
        """levels=100.0 or "100" raised numpy's bare TypeError."""
        tf = TestFunction(flat_chart, np.zeros((3, 3)), 1.2)
        with pytest.raises(ConfigInvalid, match="an integer of at least 64"):
            symmetrize(tf, t=0.01, levels=levels)

    def test_oversized_sweep_raises_before_the_ladder(self, flat_chart):
        """c08's 272 rays by 10^7 levels are 2.7e9 crossings: refused
        before the ladder is allocated (an unbounded sweep of this size
        allocated until the process was killed)."""
        tf = TestFunction(flat_chart, np.diag([0.3, -0.1, 0.05]), 1.6)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match="272 rays by 10000000 levels"):
                symmetrize(tf, t=0.01, levels=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"

    def test_nonmonotone_ray_detected(self, flat_chart):
        # strong positive profile growth beats the Gaussian decay at this
        # time scale, so u increases along some ray near the center
        tf = build_test_function(
            flat_chart, None, mode=0.5 * np.eye(3), r_s=1.2
        )
        with pytest.raises(LevelSetDegenerate):
            symmetrize(tf, t=1.0, levels=64)

    def test_nonmonotone_at_a_valid_time(self, flat_chart):
        # 4 t lambda_max = 1.6 > 1 at t = 0.01 <= (r_s / 10)^2
        tf = TestFunction(flat_chart, 40.0 * np.eye(3), r_s=1.2)
        with pytest.raises(LevelSetDegenerate,
                           match=r"at least 4 t lambda_max\(a\) = 1.6;"):
            symmetrize(tf, t=0.01, levels=64)

    @pytest.mark.parametrize("t", [0.0, -0.01])
    def test_nonpositive_time_rejected(self, flat_chart, t):
        tf = TestFunction(flat_chart, np.zeros((3, 3)), r_s=1.2)
        with pytest.raises(ConfigInvalid, match="t must be positive"):
            symmetrize(tf, t=t, levels=64)

    def test_nonpositive_time_checked_first(self, flat_chart):
        # 4 t lambda_max = 160 > 1 would fail the monotonicity test, but a
        # negative time is a bad time first
        tf = TestFunction(flat_chart, -40.0 * np.eye(3), r_s=1.2)
        with pytest.raises(ConfigInvalid, match="t must be positive"):
            symmetrize(tf, t=-1.0, levels=64)

    def test_time_too_large(self, flat_chart):
        # (r_s / C_TRUNC)^2 = 0.0144: a time error, not a failed crossing
        tf = TestFunction(flat_chart, np.zeros((3, 3)), r_s=1.2)
        with pytest.raises(TimeTooLarge):
            symmetrize(tf, t=0.5, levels=64)

    def test_spline_second_derivative_unavailable(self, radial_result):
        spl = radial_result.profile.spline()
        with pytest.raises(ValueError):
            spl(0.5, 2)


class TestExactMonotonicity:
    """check_time(monotone=True) against sampled u: the exact condition
    4 t lambda_max(a) <= 1 must say whether u, from eta2_pointwise on 10^4
    radii along many directions (the eigenvectors of a among them), is
    nonincreasing."""

    @staticmethod
    def _sampled_nonincreasing(tf, t, dirs):
        r = np.linspace(0.0, tf.r_s, 10_000)
        X = (dirs[:, None, :] * r[None, :, None]).reshape(-1, 3)
        eta2, _ = eta2_pointwise(tf, X, np.tile(r, dirs.shape[0]))
        u = np.sqrt(np.exp(-np.tile(r, dirs.shape[0]) ** 2 / (4 * t)) * eta2)
        u = u.reshape(dirs.shape[0], -1)
        # a few ulps of slack where u is flat at the apex
        return bool(np.all(np.diff(u, axis=1) <= 4e-16 * u[:, 1:]))

    def test_agrees_with_sampled_u(self, flat_chart):
        rng = np.random.default_rng(11)
        verdicts = []
        for trial in range(40):
            m = rng.normal(size=(3, 3))
            a = 0.5 * (m + m.T)
            if trial % 4 == 0:
                a = np.diag(np.diagonal(a))
            t = rng.uniform(0.002, 0.0144)
            if trial % 5 == 1:  # negative definite: clamped inside the support
                a = -(m @ m.T) - 0.1 * np.eye(3)
            # 4 t |lambda_max| around 1, some of them close to it
            ratio = (rng.uniform(0.2, 2.0) if trial % 3 else
                     1.0 + rng.choice([-1, 1]) * 10 ** rng.uniform(-4, -2))
            a *= ratio / (4 * t * abs(np.linalg.eigvalsh(a)[-1]))
            tf = TestFunction(flat_chart, a, r_s=1.2)
            margin = 4 * t * np.linalg.eigvalsh(tf.a)[-1] - 1.0
            if abs(margin) < 1e-6:
                continue
            dirs = rng.normal(size=(24, 3))
            dirs = np.concatenate([dirs, np.linalg.eigh(tf.a)[1].T])
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            want = self._sampled_nonincreasing(tf, t, dirs)
            try:
                check_time(tf, t, monotone=True)
                got = True
            except LevelSetDegenerate:
                got = False
            assert got == want, (trial, margin)
            verdicts.append(got)
        # both verdicts, each many times
        assert len(verdicts) == 40
        assert 10 <= sum(verdicts) <= 30


def _u_and_slopes_pointwise(tf, t, X, r, dirs_rep):
    """u, du/dr and |grad u|^2 from pointwise eta^2 and grad eta^2 on full
    coordinate arrays."""
    n = tf.nchart.n
    eta2, geta2 = eta2_pointwise(tf, X, r)
    h2 = (4 * np.pi * t) ** (-n / 2.0) * np.exp(-r * r / (4 * t))
    u = np.sqrt(h2 * eta2)
    mvec = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
    grad = u[:, None] * mvec
    du_dr = np.einsum("mi,mi->m", grad, dirs_rep)
    grad_sq = np.einsum("mi,mi->m", grad, grad)
    return u, du_dr, grad_sq


class TestRayForm:
    """u, du/dr and |grad u|^2 along rays from the kernel and the chart's
    geometry against the pointwise evaluation on (nd * m, n)
    coordinates."""

    T = 0.1

    @pytest.fixture(scope="class")
    def case(self, flat_chart):
        # one negative eigenvalue: the profile crosses zero inside the
        # support along e_2, so the clamp is hit before the cutoff ends
        a = np.array([[0.5, 0.2, 0.0], [0.2, -1.5, 0.1], [0.0, 0.1, 0.3]])
        tf = TestFunction(flat_chart, a, r_s=1.2)
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(64, 3))
        dirs[:4] = np.eye(3)[[0, 1, 1, 2]]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = rng.uniform(0.0, tf.r_s, size=(64, 48))
        r[:, 0], r[:, 1] = 0.0, tf.r_s
        return tf, dirs, r

    def _rays(self, tf, dirs, r):
        u, du, gsq, dens = _u_on_rays(tf, self.T, dirs, r)
        assert np.all(dens == 1.0)  # flat chart
        return u, du, gsq

    def _pointwise(self, tf, dirs, r):
        m = r.shape[1]
        X = (dirs[:, None, :] * r[:, :, None]).reshape(-1, dirs.shape[1])
        out = _u_and_slopes_pointwise(
            tf, self.T, X, r.ravel(), np.repeat(dirs, m, axis=0)
        )
        return [v.reshape(r.shape) for v in out]

    def _max_rel(self, tf, dirs, r, da=None):
        ref = self._pointwise(tf, dirs, r)
        if da is not None:
            tf = TestFunction(tf.nchart, tf.a + da, tf.r_s)
        got = self._rays(tf, dirs, r)
        return max(
            float(np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-300)))
            for g, f in zip(got, ref)
        )

    def test_grid_covers_ramp_and_clamp(self, case):
        tf, dirs, r = case
        eta2, _ = eta2_pointwise(
            tf, (dirs[:, None, :] * r[:, :, None]).reshape(-1, 3), r.ravel()
        )
        clamped = eta2 <= 1e-300
        ramp = (r.ravel() > 0.5 * tf.r_s) & ~clamped
        assert clamped.sum() > 50 and ramp.sum() > 500

    def test_matches_pointwise(self, case):
        assert self._max_rel(*case) < 1e-12

    @pytest.mark.parametrize("shift", [
        # 1e-10 I moves q = d.a.d alone: w = a d - q d is unchanged
        {"da": 1e-10 * np.eye(3)},
        # a tangential change moves w, and q off the axes
        {"da": 1e-10 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]])},
    ])
    def test_perturbed_scalars_detected(self, case, shift):
        assert self._max_rel(*case, **shift) > 1e-12

    def test_clamped_points_have_zero_gradient(self, case):
        tf, dirs, r = case
        q = np.einsum("di,di->d", dirs, dirs @ tf.a)[:, None]
        val, kappa, beta2 = tf.eta2_with_grad(q, r, self.T)
        clamped = val <= 1e-300
        assert clamped.any()
        # grad eta^2 = 0 leaves M = -x/4t
        assert np.all(kappa[clamped] == -r[clamped] / (4.0 * self.T))
        assert np.all(beta2[clamped] == 0.0)

    def test_slope_matches_finite_difference(self, case):
        tf, dirs, r = case
        h = 1e-6
        r = np.clip(r, 2 * h, tf.r_s - 2 * h)
        u_hi = self._rays(tf, dirs, r + h)[0]
        u_lo = self._rays(tf, dirs, r - h)[0]
        _, du, _ = self._rays(tf, dirs, r)
        # away from where eta^2 reaches zero (the clamp and the end of the
        # cutoff), since u = sqrt(...) bends sharply there
        q = np.einsum("di,di->d", dirs, dirs @ tf.a)[:, None]
        smooth = (1.0 + q * (r + 2 * h) ** 2 > 0.05) & (
            r < 0.95 * tf.r_s
        )
        fd = (u_hi - u_lo) / (2 * h)
        err = np.abs(fd - du)[smooth]
        assert smooth.sum() > 2000
        assert np.all(err <= 1e-6 * np.abs(du[smooth]) + 1e-9 * np.abs(du).max())


class TestNewtonCrossings:
    def test_run_record(self, aniso_result):
        meta = aniso_result.meta
        # the folded order-32 S^2 rule of the diagonal a: o/2 Legendre
        # nodes u >= 0 times the o/2 + 1 azimuths 4k <= 2o
        o = 32
        assert meta["fold"] == [[0], [1], [2]]
        assert meta["rays"] == (o // 2) * (o // 2 + 1)
        # two kernel passes close every crossing of the sweep (the step
        # from the Hermite starts, the read at its roots), so nothing falls
        # back; the coarse stage starts from the Gaussian crossing (5
        # measured, 4 on c08)
        assert meta["newton_steps"] == 2
        assert meta["open_crossings"] == 0
        assert 2 <= meta["coarse_newton_steps"] <= 5
        assert meta["crossing_residual"] <= 1e-13

    def test_unconverged_crossings_raise(self, flat_chart, monkeypatch):
        """With kappa four times too large every Newton step covers a
        quarter of the way: the unbracketed step from the Hermite starts
        leaves the crossings open, and the fallback, capped at one
        evaluation, does not close them."""
        monkeypatch.setattr(_numerics, "_NEWTON_CAP", 1)
        kernel = TestFunction.eta2_with_grad

        def kernel_steep(self, q, r, t):
            eta2, kappa, beta2 = kernel(self, q, r, t)
            return eta2, 4.0 * kappa, beta2

        monkeypatch.setattr(TestFunction, "eta2_with_grad", kernel_steep)
        tf = build_test_function(
            flat_chart, None, mode=np.diag([0.3, -0.1, 0.05]),
            r_s=1.2,
        )
        with pytest.raises(LevelSetDegenerate, match="did not converge"):
            symmetrize(tf, t=0.01, K=0.0, levels=64, order=32)

    def test_c08_takes_two_kernel_passes(self, flat_chart, monkeypatch):
        """On c08 (272 rays by 512 levels) the kernel reads the sweep twice,
        both times whole; with stage 1, the fallback, the apex and the
        original side the points stay below the 402,671 that the bracketed
        second stage took (all 139,264 crossings, 68,893 of them again to
        confirm one step, and the read at the roots)."""
        tf = TestFunction(flat_chart, np.diag([0.3, -0.1, 0.05]), r_s=1.6)
        quad = QuadratureSpec(rule="radial_sphere", order=32)
        kernel = TestFunction.eta2_with_grad
        sizes = []

        def counting(self, q, r, t):
            sizes.append(np.shape(r))
            return kernel(self, q, r, t)

        monkeypatch.setattr(TestFunction, "eta2_with_grad", counting)
        eval_components(tf, 0.01, quad, want_err=False, want_sc=False)
        original = sum(np.prod(s) for s in sizes)
        sizes.clear()
        res = symmetrize(tf, t=0.01, K=0.0, levels=512, order=32)
        meta = res.meta
        sweep = meta["rays"] * 512
        assert sweep == 139_264
        assert sizes.count((meta["rays"], 512)) == 2
        coarse = meta["coarse_newton_steps"] * meta["rays"] * (512 // 8 + 1)
        fallback = meta["open_crossings"] * (meta["newton_steps"] - 1)
        bound = 2 * sweep + coarse + fallback + 1 + original
        points = sum(np.prod(s) for s in sizes)
        assert points <= bound < 402_671, (points, bound)

    def test_eta2_cliff_falls_back_once(self, flat_chart):
        """On the eta^2 cliff most crossings stay open after the root pass
        and are solved in one bracketed run, in which a step that rounds
        to zero stops a crossing: a few steps, where bisecting each
        bracket down to rounding took 56."""
        tf = TestFunction(flat_chart, np.diag([0.1, -0.3, -2.0]), r_s=1.2)
        res = symmetrize(tf, t=0.012, K=0.0, levels=64, order=16)
        assert res.meta["open_crossings"] > 0
        assert res.meta["newton_steps"] <= 12


def _gaussian_start_sweep(tf, t, K, levels, order):
    """volumes, r_bar, coarea and Newton steps of the sweep with every
    crossing solved in one bracketed_newton run from the Gaussian crossing
    sqrt(8 t log(u_max/s)), on symmetrize's rays and ladder."""
    n = tf.nchart.n
    fold = resolve_rule(tf, QuadratureSpec(rule="radial_sphere", order=order))[1]
    dirs, wd = ray_bundle(n, order, fold, tf.nchart)
    q = np.repeat(np.einsum("di,di->d", dirs, dirs @ tf.a), levels)
    u_max = float(_u_on_rays(tf, t, dirs[:1], np.zeros((1, 1)))[0][0, 0])
    s = np.geomspace(u_max * (1.0 - 1e-3), u_max * 1e-6, levels)
    log_s = np.tile(np.log(s), dirs.shape[0])
    log_h = -0.25 * n * np.log(4 * np.pi * t)

    def newton(r, live):
        eta2, kappa, _ = tf.eta2_with_grad(q[live], r, t)
        f = log_h + 0.5 * np.log(eta2) - r * r / (8.0 * t) - log_s[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            r_new = np.sqrt(r * (r - 2.0 * f / kappa))
        return r_new, f > 0.0, np.abs(f) <= 1e-13

    r0 = np.minimum(np.sqrt(8.0 * t * (np.log(u_max) - log_s)), tf.r_s)
    r, open_, steps = _numerics.bracketed_newton(newton, r0, 0.0, tf.r_s)
    assert open_.size == 0
    r = r.reshape(dirs.shape[0], levels)
    _, du, _, dens = _u_on_rays(tf, t, dirs, r)
    volumes = wd @ (r**n / n)
    coarea = wd @ (dens * r ** (n - 1) / np.maximum(-du, 1e-300))
    return volumes, iso_profile_radius(n, K, volumes), coarea, steps


class TestTwoStageCrossings:
    """The crossings solved on every eighth rung from the Gaussian crossing,
    then on every rung from the Hermite interpolant of the coarse roots,
    against all of them solved from the Gaussian crossing at once."""

    @pytest.mark.parametrize("a,r_s,t,K,levels,order", [
        (np.diag([0.3, -0.1, 0.05]), 1.6, 0.01, 0.0, 512, 32),  # c08
        (np.diag([0.1, -0.3, -2.0]), 1.2, 0.012, 0.0, 64, 16),  # eta^2 cliff
        (2.0 * np.eye(3), 1.2, 0.01, 0.0, 512, 32),  # one ray
        (np.diag([0.2, -0.05, 0.1]), 1.2, 0.01, 1.0, 512, 32),  # onto S^3
    ], ids=["c08", "eta2_cliff", "lambda_I", "K1"])
    def test_matches_the_gaussian_start(self, flat_chart, a, r_s, t, K,
                                        levels, order):
        tf = TestFunction(flat_chart, a, r_s=r_s)
        res = symmetrize(tf, t=t, K=K, levels=levels, order=order)
        volumes, r_bar, coarea, steps = _gaussian_start_sweep(
            tf, t, K, levels, order)
        for got, want in ((res.volumes, volumes), (res.r_bar, r_bar),
                          (res.coarea, coarea)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        if levels == 512:  # the warm start saves Newton steps
            assert res.meta["newton_steps"] < steps
        if np.array_equal(a, a[0, 0] * np.eye(3)):
            assert res.meta["rays"] == 1

    def test_non_finite_coarse_slope_falls_back(self, flat_chart, monkeypatch):
        """kappa is NaN on one ray throughout the coarse stage, which then
        bisects there: its slopes 2 r / kappa are NaN, so the start pass
        takes its fine crossings from the Gaussian crossing, and they
        converge."""
        tf = TestFunction(flat_chart, np.diag([0.3, -0.1, 0.05]), r_s=1.2)
        levels, order = 64, 8
        want = _gaussian_start_sweep(tf, 0.01, 0.0, levels, order)
        dirs = ray_bundle(3, order, ((0,), (1,), (2,)), flat_chart)[0]
        q = np.einsum("di,di->d", dirs, dirs @ tf.a)  # as symmetrize forms it
        bad = q == q[2]
        assert bad.sum() == 1
        sweeps = []  # the radii of each kernel call over the whole sweep
        kernel = TestFunction.eta2_with_grad

        def kernel_nan(self, q_live, r, t):
            eta2, kappa, beta2 = kernel(self, q_live, r, t)
            if np.shape(r) == (dirs.shape[0], levels):
                sweeps.append(r.copy())
            elif not sweeps and np.ndim(q_live) == 1:  # the coarse stage
                kappa = np.where(q_live == q[2], np.nan, kappa)
            return eta2, kappa, beta2

        monkeypatch.setattr(TestFunction, "eta2_with_grad", kernel_nan)
        res = symmetrize(tf, t=0.01, K=0.0, levels=levels, order=order)
        np.testing.assert_allclose(res.volumes, want[0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(res.coarea, want[2], rtol=1e-13, atol=0)
        assert res.meta["coarse_newton_steps"] > 20  # bisection
        assert res.meta["crossing_residual"] <= 1e-13
        starts = sweeps[0]  # the start pass; the root pass follows
        assert len(sweeps) == 2
        gauss = np.minimum(np.sqrt(8.0 * 0.01 * (np.log(res.profile.u[0])
                                                 - np.log(res.levels))), tf.r_s)
        np.testing.assert_array_equal(starts[bad][0], gauss)
        assert not np.allclose(starts[~bad], gauss, rtol=1e-6)


def test_symmetrize_peak_memory(flat_chart):
    """The c08 configuration stays well below the 708 MB that dense
    (nd * m, n) coordinate arrays took."""
    tf = build_test_function(
        flat_chart, None, mode=np.diag([0.3, -0.1, 0.05]), r_s=1.6
    )
    tracemalloc.start()
    try:
        symmetrize(tf, t=0.01, K=0.0, levels=512, order=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300e6, f"peak {peak / 1e6:.0f} MB"
