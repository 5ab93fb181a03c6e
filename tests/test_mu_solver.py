"""Radial entropy minimization and the curvature bound it implies."""

import numpy as np
import pytest
from scipy.optimize import minimize

from curvex import mu_solver
from curvex.errors import ConfigInvalid, GammaOutOfRange, OutOfDomain
from curvex.mu_solver import (
    MuBoundReport,
    RadialDomain,
    _entropy_gradient,
    _entropy_value,
    _normalize,
    mu_ball,
    mu_bound_report,
    mu_curve,
    rm_bound_from_mu,
)


class TestRadialDomain:
    def test_guards(self):
        with pytest.raises(ConfigInvalid):
            RadialDomain(n=3, K=0.0, R=-1.0)
        with pytest.raises(ConfigInvalid):
            RadialDomain(n=3, K=0.0, R=1.0, m=8)
        with pytest.raises(OutOfDomain):
            RadialDomain(n=3, K=1.0, R=np.pi)

    def test_mass_quadrature(self):
        # f = 1 - (r/2)^2 on the flat 3-ball of radius 2:
        # integral of f^2 * 4 pi r^2 dr = 256 pi / 105; the discrete mass
        # sees the piecewise-linear interpolant, an O(h^2) perturbation
        dom = RadialDomain(n=3, K=0.0, R=2.0, m=1024)
        f = 1.0 - (dom.r / 2.0) ** 2
        assert abs(dom.mass(f) - 256 * np.pi / 105) < 1e-5
        fine = RadialDomain(n=3, K=0.0, R=2.0, m=4096)
        f4 = 1.0 - (fine.r / 2.0) ** 2
        # h -> h/4 shrinks the defect by about 16
        assert abs(fine.mass(f4) - 256 * np.pi / 105) < 1e-6

    def test_dirichlet_exact_for_linear(self):
        # f = 1 - r/R has constant slope; the cell weights are exact for
        # the flat area element, so the energy is 4 pi R / 3 exactly
        dom = RadialDomain(n=3, K=0.0, R=2.0, m=512)
        f = 1.0 - dom.r / 2.0
        assert abs(dom.dirichlet(f) - 8 * np.pi / 3) < 1e-12

    def test_entropy_gradient_matches_fd(self):
        dom = RadialDomain(n=3, K=1.0, R=2.0, m=128)
        rng = np.random.default_rng(5)
        f = 0.5 + 0.1 * rng.standard_normal(dom.m)
        g = dom.entropy_grad(f)
        eps = 1e-6
        for i in [0, 17, 63, 127]:
            fp = f.copy()
            fp[i] += eps
            fm = f.copy()
            fm[i] -= eps
            fd = (dom.entropy(fp) - dom.entropy(fm)) / (2 * eps)
            assert abs(g[i] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_for_time_resolves_width(self):
        dom = RadialDomain.for_time(3, 0.0, 2.0, 0.01, per_width=32)
        assert (dom.r[1] - dom.r[0]) <= np.sqrt(0.01) / 32 * 1.01


@pytest.fixture(scope="module")
def result():
    return mu_ball(3, 0.0, 2.0, 0.01)


class TestFlatBall:
    """Large flat balls: the infimum of the entropy functional is zero,
    and the piecewise-linear discretization can only overshoot."""

    def test_value_bracket(self, result):
        assert -1e-6 <= result.value <= 1e-3

    def test_converged(self, result):
        assert result.converged
        assert result.kkt_residual < 1e-6

    def test_unit_mass(self, result):
        dom = RadialDomain(n=3, K=0.0, R=2.0, m=result.meta["m"])
        assert abs(dom.mass(result.f) - 1.0) < 1e-12

    def test_witness_dominance(self, result):
        assert result.witness_ok

    def test_scale_self_similarity(self, result):
        # flat problem is invariant under (t, R) -> (s^2 t, s R)
        other = mu_ball(3, 0.0, 1.0, 0.0025)
        assert abs(other.value - result.value) < 1e-3 * abs(result.value) + 1e-9


class TestGlobalOracle:
    """On coarse meshes scipy's SLSQP, started from the uniform profile
    1 - (r/R)^2, minimizes the same discrete W under the same unit-mass
    constraint and bounds f >= 0: an independent global route to the
    minimum that Newton reaches from the witness."""

    @pytest.mark.parametrize("n, K, R, m, t", [
        (3, 0.0, 1.0, 48, 0.02),
        (3, 1.0, 2.0, 64, 0.05),
        (3, -1.0, 1.5, 64, 0.03),
        # witnesses clamped to zero on part of the ball, or on all of it
        (4, 4.0, 1.4, 64, 0.2),
        (5, 4.0, 1.4, 64, 0.2),
        (5, 2.0, 1.5, 64, 0.7),
    ])
    def test_matches_slsqp_from_uniform(self, n, K, R, m, t):
        dom = RadialDomain(n=n, K=K, R=R, m=m)

        def full(x):  # the Dirichlet rim node stays zero
            return np.append(x, 0.0)

        sol = minimize(
            lambda x: _entropy_value(dom, full(x), t),
            _normalize(dom, 1.0 - (dom.r / R) ** 2)[:-1],
            jac=lambda x: _entropy_gradient(dom, full(x), t)[:-1],
            method="SLSQP",
            bounds=[(0.0, None)] * (m - 1),
            constraints=[{
                "type": "eq",
                "fun": lambda x: dom.mass(full(x)) - 1.0,
                "jac": lambda x: dom.mass_grad(full(x))[:-1],
            }],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        assert sol.success
        res = mu_ball(n, K, R, t, m=m)
        assert res.converged and res.witness_ok
        assert abs(res.value - sol.fun) < 1e-12


# every mu_ball call of the tier-1 suite from a witness profile that is
# nowhere clamped to zero: (args, keywords)
SUITE_CALLS = [
    ((3, 0.0, 2.0, 0.01), {}),
    ((3, 0.0, 1.0, 0.0025), {}),
    ((3, 0.0, 2.0, 0.005), {}),
    ((3, 0.0, 1.0, 0.00125), {}),
    ((3, -1.0, 3.0, 0.02), {}),
    ((3, 1.0, np.pi - 0.05, 0.01), {"per_width": 64}),
    ((3, 1.0, np.pi - 0.05, 0.02), {"per_width": 64}),
    ((3, 1.0, np.pi - 0.05, 0.04), {"per_width": 64}),
    ((3, 0.0, 1.0, 0.02), {"m": 48}),
    ((3, 1.0, 2.0, 0.05), {"m": 64}),
    ((3, -1.0, 1.5, 0.03), {"m": 64}),
    ((3, 0.0, 1.0, 0.01), {"m": 256}),
]

# converged values of the preconditioned projected-gradient flow that
# mu_ball used before Newton (KKT residual below 1e-8)
FLOW_VALUES = [
    ((3, 0.0, 2.0, 0.01), {}, 3.571271358238093e-05),
    ((3, 0.0, 1.0, 0.0025), {}, 3.57127136245694e-05),
    ((3, -1.0, 3.0, 0.02), {}, -0.0007222514332684282),
    ((3, 1.0, np.pi - 0.05, 0.01), {"per_width": 64}, -0.00019676486157310658),
    ((3, 1.0, np.pi - 0.05, 0.02), {"per_width": 64}, -0.0008332539217300594),
    ((3, 1.0, np.pi - 0.05, 0.04), {"per_width": 64}, -0.0035452048589819096),
    ((4, 4.0, 1.4, 0.2), {}, 4.74309913224052),
    ((5, 4.0, 1.4, 0.2), {}, 8.934228549165402),
]

# strong curvature at large t: 1 + a r^2 + alpha t <= 0 clamps the witness
# to zero near the centre, or on the whole ball for the last
CLAMPED_WITNESS = [(4, 4.0, 1.4, 0.2), (5, 4.0, 1.4, 0.2), (5, 2.0, 1.5, 0.7)]


class TestNewton:
    @pytest.mark.parametrize("args, kw", SUITE_CALLS)
    def test_few_certified_steps(self, args, kw):
        res = mu_ball(*args, **kw)
        assert res.converged and res.witness_ok
        assert res.iterations <= 8

    def test_coarse_flat_mesh_converges(self):
        # the gradient flow ran its 100,000 iterations here and stopped
        # unconverged, its Armijo test comparing values of W below W's
        # own rounding
        res = mu_ball(3, 0.0, 1.0, 0.01, m=256)
        assert res.converged
        assert res.iterations <= 8
        assert res.kkt_residual < 1e-8

    @pytest.mark.parametrize("args, kw, value", FLOW_VALUES)
    def test_same_minimum_as_gradient_flow(self, args, kw, value):
        assert abs(mu_ball(*args, **kw).value - value) < 1e-10

    def test_step_cap_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr(mu_solver, "_NEWTON_CAP", 1)
        res = mu_ball(3, -1.0, 3.0, 0.02)
        assert not res.converged
        assert res.iterations == 1
        assert res.value == res.witness_value  # still an admissible bound
        assert res.witness_ok

    @pytest.mark.parametrize("args", CLAMPED_WITNESS)
    def test_clamped_witness_converges(self, args):
        # pure Newton steps from these witnesses are not all certified
        # descent steps; the mass-shifted ones carry the run
        res = mu_ball(*args)
        assert res.converged and res.witness_ok
        assert res.iterations <= 12
        dom = RadialDomain(*args[:3], m=res.meta["m"])
        assert abs(dom.mass(res.f) - 1.0) < 1e-12

    def test_witness_has_unit_mass_when_clamped_everywhere(self):
        # the quadratic factor is clamped on the whole ball, so the raw
        # witness is of order sqrt(1e-300) and its mass underflows
        n, K, R, t = CLAMPED_WITNESS[-1]
        dom = RadialDomain.for_time(n, K, R, t)
        f = mu_solver._witness_profile(dom, t)
        assert abs(dom.mass(f) - 1.0) < 1e-12

    def test_unshifted_newton_stops_at_its_best_profile(self, monkeypatch):
        # without shifts no step from this witness is a certified descent
        # step past the first few: the run stops unconverged, at a unit
        # mass profile whose W is the reported value, below the witness
        monkeypatch.setattr(mu_solver, "_SHIFTS", (0.0,))
        n, K, R, t = CLAMPED_WITNESS[0]
        res = mu_ball(n, K, R, t)
        assert not res.converged
        assert res.witness_ok and res.value < res.witness_value
        dom = RadialDomain(n, K, R, m=res.meta["m"])
        assert abs(dom.mass(res.f) - 1.0) < 1e-12
        assert res.value == _entropy_value(dom, res.f, t)


class TestSphereCurve:
    def test_quadratic_decay_rate(self):
        # n=3, K=1: the entropy minimum decays like -q t^2 with q near 2
        ts = np.array([0.01, 0.02, 0.04])
        mus = [
            mu_ball(3, 1.0, np.pi - 0.05, float(t), per_width=64).value
            for t in ts
        ]
        rep = mu_bound_report(ts, mus)
        assert 1.9 <= rep.q_fit <= 2.2
        ratios = -np.array(mus) / ts**2
        assert np.all(ratios > 1.9)
        assert np.all(ratios < 2.3)

    def test_hyperbolic_ball_goes_negative(self):
        res = mu_ball(3, -1.0, 3.0, 0.02)
        assert res.converged
        assert res.value < 0
        assert res.witness_ok

    def test_mu_curve_returns_per_time(self):
        out = mu_curve(3, 0.0, 2.0, [0.01, 0.005])
        assert len(out) == 2
        assert out[0].t == 0.01


class TestBoundReport:
    def test_exact_quadratic_data(self):
        ts = np.array([0.01, 0.02, 0.03, 0.04])
        mus = -3.0 * ts**2
        rep = mu_bound_report(ts, mus)
        assert abs(rep.q_fit - 3.0) < 1e-12
        assert rep.q_stderr < 1e-10
        assert abs(rep.q_envelope - 3.0) < 1e-12
        assert rep.Q is None and rep.satisfied is None

    def test_hypothesis_flag(self):
        ts = np.array([0.01, 0.02])
        mus = -3.0 * ts**2
        assert mu_bound_report(ts, mus, Q=3.5).satisfied is True
        assert mu_bound_report(ts, mus, Q=2.5).satisfied is False

    def test_shape_guard(self):
        with pytest.raises(ConfigInvalid):
            mu_bound_report([0.01], [0.0])
        with pytest.raises(ConfigInvalid):
            mu_bound_report([0.01, 0.02], [0.0])

    def test_report_rm_bound_uses_envelope(self):
        ts = np.array([0.01, 0.02])
        rep = mu_bound_report(ts, -2.0 * ts**2)
        assert abs(rep.rm_bound(0.0) - 12.0) < 1e-12


class TestRmBound:
    def test_exact_arithmetic(self):
        assert rm_bound_from_mu(2.0, 0.0) == pytest.approx(12.0, abs=1e-14)
        assert rm_bound_from_mu(2.0, 1.0 / 12.0) == pytest.approx(
            24.0, abs=1e-12
        )
        assert rm_bound_from_mu(0.0, 0.0) == 0.0

    def test_gamma_domain(self):
        with pytest.raises(GammaOutOfRange):
            rm_bound_from_mu(1.0, 1.0 / 6.0)
        with pytest.raises(GammaOutOfRange):
            rm_bound_from_mu(1.0, 0.2)
        with pytest.raises(GammaOutOfRange):
            rm_bound_from_mu(1.0, -0.01)
        with pytest.raises(ConfigInvalid):
            rm_bound_from_mu(-1.0, 0.0)
