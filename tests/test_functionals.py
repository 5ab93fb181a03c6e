import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from curvex import (
    MetricChart,
    ModelSpec,
    Perturbation,
    build_normal_chart,
    curvature_at,
    make_chart,
    scalar_curvature_batch,
)
from curvex import charts, expansion, functionals
from curvex.charts import PROFILES
from curvex.expansion import predict_volume, prepare_normal_chart, run_expansion
from curvex._spaceform import ball_volume_K, sn, sphere_area_K
from curvex.errors import (
    ConfigInvalid,
    InvalidSpec,
    PositivityWarning,
    SupportTooLarge,
    TimeTooLarge,
)
from curvex.functionals import (
    Components,
    QuadratureSpec,
    TestFunction,
    _L_of,
    _normalized,
    _eval_once,
    _hermite_nodes,
    _nodes,
    _radial_nodes,
    ball_volume,
    bishop_gromov_ratio,
    build_test_function,
    cutoff,
    cutoff_prime,
    eval_components,
    eval_L_normalized,
    eval_W_normalized,
    gaussian_integral,
    orbit_rule,
    profile_matrix,
    ray_bundle,
    resolve_rule,
    sphere_rule,
)
from curvex.moments import (
    GaussianWeight,
    moment_quadratic,
    moment_quartic,
    sphere_area,
    sphere_monomial,
)
from curvex.isoperimetry import symmetrize
from curvex.rigidity import isoperimetric_probe
from oracles import eta2_pointwise, full_ode_table, recorded, shooting_chart


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
            tf = TestFunction(nc, a + a.T, 0.75)
            quad = QuadratureSpec(order=order)
            cut = eval_components(tf, t, quad, want_err=False)
            with monkeypatch.context() as mp:
                mp.setattr(F, "_MAX_DIRECTIONS", 2**40)
                F.orbit_rule.cache_clear()
                full = eval_components(tf, t, quad, want_err=False)
                F.orbit_rule.cache_clear()
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
         lambda: _hermite_nodes(2, 6), lambda: _hermite_nodes(2, 7, ((0, 1),))],
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
        """Folding onto n singleton blocks by node index (_half_rule) gives,
        bit for bit, the grid of the sign-based fold: keep z >= 0, double
        the weights of z > 0, take the product grid."""
        z1, w1 = np.polynomial.hermite.hermgauss(order)
        keep = z1 >= 0.0
        z1, w1 = z1[keep], np.where(z1[keep] > 0.0, 2.0 * w1[keep], w1[keep])
        for n in (2, 3, 4):
            Z = np.array(list(itertools.product(z1, repeat=n)))
            W = (np.prod(list(itertools.product(w1, repeat=n)), axis=1)
                 / np.pi ** (n / 2))
            zn = np.sqrt(np.einsum("mi,mi->m", Z, Z))
            dirs, rho, wts = _hermite_nodes(n, order, tuple((i,) for i in range(n)))
            assert np.array_equal(rho, zn) and np.array_equal(wts, W)
            assert np.array_equal(dirs, Z / np.where(zn > 0.0, zn, 1.0)[:, None])

    def test_hermite_cache_holds_four_grids(self):
        """One expansion's main and error rules for two dimensions stay
        cached; a sweep over more grids does not pile them up."""
        for n, order in [(2, 6), (2, 8), (3, 6), (3, 8), (2, 10), (3, 10)]:
            _hermite_nodes(n, order, (tuple(range(n)),))
        info = _hermite_nodes.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4


def _block_moment(blocks, k):
    """Closed form of the integral of prod_b |x_b|^(2 k_b) over S^(n-1):
    2 pi^(n/2) prod_b Gamma(k_b + n_b/2) / Gamma(n_b/2) / Gamma(K + n/2),
    K = sum k_b (the Gaussian integral over R^n, split into blocks and
    into polar coordinates)."""
    n = sum(map(len, blocks))
    out = 2.0 * math.pi ** (n / 2) / math.gamma(sum(k) + n / 2)
    for b, kb in zip(blocks, k):
        out *= math.gamma(kb + len(b) / 2) / math.gamma(len(b) / 2)
    return out


_PARTITIONS = [
    ((0, 1),), ((0,), (1,)),
    ((0, 1, 2),), ((0, 1), (2,)), ((0,), (1, 2)), ((0, 2), (1,)),
    ((0,), (1,), (2,)),
    ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0,), (1,), (2, 3)),
    ((0,), (1, 2), (3,)), ((0, 1, 2), (3,)), ((0, 3), (1,), (2,)),
    ((0,), (1,), (2,), (3,)), ((0, 1, 2, 3),),
    ((0, 1, 2), (3, 4)), ((0, 4), (1,), (2, 3)), ((0,), (1,), (2,), (3, 4)),
    ((0, 2, 4), (1, 3)), tuple((i,) for i in range(5)),
    ((0, 1), (2, 3), (4, 5)), ((0,), (1, 2, 3, 4, 5)), ((0, 5), (1, 4), (2, 3)),
    ((0,), (1,), (2,), (3,), (4, 5)), tuple((i,) for i in range(6)),
    (tuple(range(6)),),
]


class TestOrbitRule:
    """orbit_rule, the rule of the functions invariant under a block
    group, against closed forms that do not use it: the sphere's area,
    the integrals of prod_b |x_b|^(2 k_b), and for two blocks of two or
    more a rule built here from scipy's Gauss-Jacobi nodes.  The orders
    stay below the 2^15-direction limit, so o is the order."""

    @staticmethod
    def _orders(n):
        return (5, 6) if n == 6 else (8, 9)

    @pytest.mark.parametrize("blocks", _PARTITIONS,
                             ids=lambda b: "|".join("".join(map(str, x)) for x in b))
    def test_exact_on_block_moments(self, blocks):
        """Measured: weight sums within 1.3e-15 relative, the moments
        within 9.5e-16 of the sphere's area (bounds 1e-14); every
        partition but one block and S^1 misses some moment of degree
        2 o or 2 o + 2, so the degree is not higher than claimed."""
        n = sum(map(len, blocks))
        area = sphere_area_K(n, 0.0, 1.0)
        for o in self._orders(n):
            dirs, wts = orbit_rule(o, blocks)
            assert wts.sum() == pytest.approx(area, rel=1e-14, abs=0)
            assert np.all(wts > 0) and np.all(dirs >= 0.0)
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
            # each block's share lies on its first coordinate
            others = [i for b in blocks for i in b[1:]]
            assert not np.any(dirs[:, others])
            radii = np.stack([np.linalg.norm(dirs[:, b], axis=1) for b in blocks], -1)
            # every prod_b |x_b|^(2 k_b) of degree 2 K <= 2 o - 1
            for k in itertools.product(range(o), repeat=len(blocks)):
                if sum(k) <= o - 1:
                    got = wts @ np.prod(radii ** (2 * np.array(k)), axis=1)
                    assert abs(got - _block_moment(blocks, k)) <= 1e-14 * area, k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_singletons_and_one_block_are_the_old_rules(self, n):
        """n singleton blocks give sphere_rule's orthant, one block the
        direction e_1 carrying |S^(n-1)|, both bit for bit."""
        for o in self._orders(n):
            for got, want in zip(orbit_rule(o, tuple((i,) for i in range(n))),
                                 sphere_rule(n, o, True)):
                assert got.tobytes() == want.tobytes()
            dirs, wts = orbit_rule(o, (tuple(range(n)),))
            assert dirs.tobytes() == np.eye(1, n).tobytes()
            assert wts.tobytes() == np.array([sphere_area_K(n, 0.0, 1.0)]).tobytes()

    def test_leading_singleton_takes_the_s0_area(self, monkeypatch):
        """A leading singleton block, not paired with a second, carries
        |S^0| from sphere_area_K, exactly 2."""
        import curvex.functionals as F

        calls = recorded(monkeypatch, F, "sphere_area_K")
        F.orbit_rule.cache_clear()
        try:
            _, wts = orbit_rule(8, ((0,), (1, 2)))
        finally:
            F.orbit_rule.cache_clear()
        assert [(args, out) for args, _, out in calls if args[0] == 1] == [
            ((1, 0.0, 1.0), 2.0)]
        assert wts.sum() == pytest.approx(4.0 * np.pi, rel=1e-14, abs=0)

    @pytest.mark.parametrize("blocks", [((0, 1), (2, 3)), ((0, 2, 4), (1, 3)),
                                        ((0, 1, 2), (3, 4, 5))],
                             ids=["01|23", "024|13", "012|345"])
    def test_two_blocks_match_scipy_jacobi(self, blocks):
        """Two blocks of two or more: ceil(o/2) nodes v = s_2^2 of the
        Gauss-Jacobi rule for v^((n_2 - 2)/2) (1 - v)^((n_1 - 2)/2), weights
        |S^(n_1 - 1)| |S^(n_2 - 1)| / 2 times the rule's on [0, 1]."""
        (b1, b2), n = blocks, sum(map(len, blocks))
        for o in self._orders(n):
            x, w = roots_jacobi(-(-o // 2), (len(b1) - 2) / 2, (len(b2) - 2) / 2)
            v = (1 + x) / 2
            want = np.zeros((v.size, n))
            want[:, b1[0]], want[:, b2[0]] = np.sqrt(1 - v), np.sqrt(v)
            wts = (w / 2 ** ((len(b1) + len(b2) - 2) / 2) / 2
                   * sphere_area_K(len(b1), 0.0, 1.0)
                   * sphere_area_K(len(b2), 0.0, 1.0))
            dirs, got = orbit_rule(o, blocks)
            np.testing.assert_allclose(dirs, want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got, wts, rtol=0, atol=1e-14 * wts.sum())


@pytest.mark.parametrize("K", [1.0, 0.0, -1.0])
def test_s0_area_is_two(K):
    """|S^0| = 2 exactly at every K and radius, where the gamma quotient
    of omega_1 rounds to 1.9999999999999998; every n >= 2 keeps the gamma
    formula bit for bit."""
    r = np.array([0.1, 0.5, 1.0, 1.3])
    assert sphere_area_K(1, K, 0.7) == 2.0
    assert sphere_area_K(1, K, r).tolist() == [2.0] * 4
    for n in range(2, 7):
        omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        assert sphere_area_K(n, K, r).tobytes() == (
            n * omega * sn(K, r) ** (n - 1)).tobytes()


class TestFoldedHermiteGrid:
    """_hermite_nodes folded onto a partition: each block keeps the
    nondecreasing index tuples of the half rule, weighted by the number of
    their distinct permutations, and the blocks combine as a product.
    Checked against the closed-form block moments and against the full
    and orthant grids in run_expansion; TestSphereRule checks n singletons
    against the sign-based orthant fold bit for bit."""

    @pytest.mark.parametrize(
        "blocks", [b for b in _PARTITIONS if sum(map(len, b)) <= 4],
        ids=lambda b: "|".join("".join(map(str, x)) for x in b))
    @pytest.mark.parametrize("order", [7, 8, 11])
    def test_exact_on_block_moments(self, blocks, order):
        """pi^(-n/2) times the Gaussian integral of prod_b |z_b|^(2 k_b)
        is Gamma(K + n/2) / (2 pi^(n/2)) times _block_moment, K = sum k_b;
        every k with K <= order - 1 keeps each coordinate's degree within
        the 1-D rule's 2 order - 1.  Measured within 4.5e-15 relative
        (bound 1e-13).  The node count is prod_b C(ceil(order/2) + n_b - 1,
        n_b)."""
        n, h = sum(map(len, blocks)), (order + 1) // 2
        dirs, rho, wts = _hermite_nodes(n, order, blocks)
        assert wts.size == math.prod(math.comb(h + len(b) - 1, len(b))
                                     for b in blocks)
        z = dirs * rho[:, None]
        radii2 = np.stack([np.sum(z[:, b] ** 2, axis=1) for b in blocks], -1)
        for k in itertools.product(range(order), repeat=len(blocks)):
            if sum(k) <= order - 1:
                got = wts @ np.prod(radii2 ** np.array(k), axis=1)
                want = (_block_moment(blocks, k) * math.gamma(sum(k) + n / 2)
                        / (2.0 * math.pi ** (n / 2)))
                assert got == pytest.approx(want, rel=1e-13, abs=0), k

    @staticmethod
    def _unfolded(monkeypatch, to=None):
        """Build every folded Hermite grid on the partition to(n) instead
        of the fold asked for (to None: the full grid)."""
        nodes = functionals._hermite_nodes
        monkeypatch.setattr(functionals, "_hermite_nodes",
                            lambda n, order, fold=None: nodes(
                                n, order, fold and to and to(n)))

    @pytest.mark.parametrize("n,K,r_s,order,nodes",
                             [(4, 1.0, 1.45, 24, 18_600),
                              (3, -1.0, 1.1, 40, 25_090)],
                             ids=["S4-hermite24", "H3-hermite40"])
    def test_one_block_matches_the_full_grid(self, monkeypatch, n, K, r_s,
                                            order, nodes):
        """The benchmark's Hermite cases, a = Rc/3 = lambda I: the values
        on one block equal those on the full grid, the same sum regrouped.
        Measured 1.1e-11 (S^4) and 4.0e-12 (H^3) relative, bound 1e-10."""
        ch = make_chart(ModelSpec("space_form", n, K=K))
        quad = QuadratureSpec(rule="hermite", order=order)
        folded = run_expansion(ch, np.zeros(n), "L", r_s=r_s, quad=quad)
        assert folded.meta["fold"] == [list(range(n))]
        assert folded.meta["nodes"] == nodes
        with monkeypatch.context() as mp:
            self._unfolded(mp)
            full = run_expansion(ch, np.zeros(n), "L", r_s=r_s, quad=quad)
        assert full.meta["nodes"] == 10 * (order**n + (order - 6) ** n)
        np.testing.assert_allclose(folded.values, full.values, rtol=1e-10, atol=0)

    def test_two_blocks_match_the_orthant(self, monkeypatch):
        """Metamorphic: on S^3 a = diag(0.3, 0.05, 0.3) folds onto the
        blocks {0, 2}, {1}, and gives the values of the same a on the
        orthant grid, measured within 6.0e-12 relative (bound 1e-10).  L,
        not W: W's terms cancel to order t^2, so its values carry the
        rounding of the O(1) sums at every fold."""
        ch = make_chart(ModelSpec("space_form", 3, K=1.0))
        a = np.diag([0.3, 0.05, 0.3])
        quad = QuadratureSpec(rule="hermite", order=24)
        blocks = run_expansion(ch, np.zeros(3), "L", mode=a, r_s=1.0, quad=quad)
        assert blocks.meta["fold"] == [[0, 2], [1]]
        assert blocks.meta["nodes"] == 10 * (78 * 12 + 45 * 9)
        with monkeypatch.context() as mp:
            self._unfolded(mp, to=lambda n: tuple((i,) for i in range(n)))
            orthant = run_expansion(ch, np.zeros(3), "L", mode=a, r_s=1.0,
                                    quad=quad)
        assert orthant.meta["nodes"] == 10 * (12**3 + 9**3)
        np.testing.assert_allclose(blocks.values, orthant.values, rtol=1e-10,
                                   atol=0)


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
        tf = TestFunction(nc, np.zeros((3, 3)), 2.0)
        val, err, _ = eval_L_normalized(tf, 0.003,
                                        QuadratureSpec(rule=rule, order=32))
        assert abs(val) < 1e-12

    def test_mass_is_one(self):
        ch = make_chart(ModelSpec("flat", 2))
        nc = build_normal_chart(ch, np.zeros(2), 2.0)
        tf = TestFunction(nc, np.zeros((2, 2)), 2.0)
        comp = eval_components(tf, 1e-3, QuadratureSpec(order=32), want_err=False)
        assert comp.mass == pytest.approx(1.0, abs=1e-13)


class TestSphereFunctionals:
    QUAD = QuadratureSpec(rule="radial_sphere", order=32)

    @staticmethod
    def _scaled(comp, c, sc=True):
        """The Components of c u, with or without the Sc integral: mass,
        Dirichlet energy and Sc integral times c^2, the entropy
        c^2 (E + M log c^2)."""
        c2 = c * c
        return Components(comp.t, c2 * comp.mass,
                          c2 * (comp.entropy + comp.mass * np.log(c2)),
                          c2 * comp.dirichlet,
                          c2 * comp.sc_integral if sc else None)

    @pytest.fixture(scope="class")
    def case(self, s3_setup):
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode="optimal_a", r_s=1.7)
        return tf, eval_components(tf, 6e-4, self.QUAD)

    def test_scale_covariance(self, case):
        """The deficit is 2-homogeneous in u."""
        _, comp = case
        for c in (3.0, 0.2):
            assert _L_of(self._scaled(comp, c), 3) == pytest.approx(
                c * c * _L_of(comp, 3), rel=1e-10)

    def test_normalization_invariance(self, case):
        """The unit-mass L and W, the values eval_L_normalized and
        eval_W_normalized return, do not see a factor on u."""
        tf, comp = case
        for sc, ev in ((False, eval_L_normalized), (True, eval_W_normalized)):
            want = _normalized(self._scaled(comp, 1.0, sc), 3)[0]
            assert want == ev(tf, 6e-4, self.QUAD)[0]
            for c in (5.0, 0.2):
                assert _normalized(self._scaled(comp, c, sc), 3)[0] == (
                    pytest.approx(want, rel=1e-10))

    def test_entropy_slope(self, s3_setup):
        """Shifted entropy decreases at unit rate for the curvature-adapted
        quadratic profile (Richardson in t)."""
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode="optimal_a", r_s=1.7)
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
        vh, _, _ = eval_L_normalized(tf, t, QuadratureSpec(rule="hermite", order=40))
        vr, _, _ = eval_L_normalized(tf, t,
                                     QuadratureSpec(rule="radial_sphere", order=40))
        assert vh == pytest.approx(vr, abs=1e-11)


@dataclasses.dataclass
class _ShiftedProfile(TestFunction):
    """The bump with the time-shifted profile 1 + x.a.x + alpha t, which
    curvex does not build: its kernel written out from the formulas of the
    functionals module docstring with P = 1 + alpha t + q r^2."""

    alpha: float = 0.0

    def eta2_with_grad(self, q, r, t):
        cut, dcut = cutoff(r / self.r_s), cutoff_prime(r / self.r_s)
        P = 1.0 + self.alpha * t + q * r * r
        eta2 = cut * P
        live = eta2 > 1e-300
        slope = (0.5 * dcut / self.r_s) * P + cut * r * q  # d eta^2/dr / 2
        kappa = np.where(live, slope / np.where(live, eta2, 1.0), 0.0)
        beta2 = np.where(live, (r / np.where(live, P, 1.0)) ** 2, 0.0)
        return np.maximum(eta2, 1e-300), kappa - r / (4.0 * t), beta2


class TestTimeShiftIdentity:
    """The profile 1 + x.a.x + alpha t is (1 + alpha t) times the profile
    1 + x.a.x/(1 + alpha t), and L, the mass and the Sc integral are
    2-homogeneous in u, so the normalized L and W at (a, alpha, t) equal
    those at (a/(1 + alpha t), 0, t): alpha only rescales a, which is why
    the test function has no alpha and run_expansion fits one profile
    matrix.  The shifted side runs _ShiftedProfile's kernel through the
    same evaluators.  Both values are what is left of normalized terms of
    size (n/2) |log(4 pi t)| + n, about 13 at t = 1e-3, so rounding is
    measured against that size; W/M, about 2.5e-6 on S^3, keeps 6e-10 of
    its own size in rounding alone.  Measured: within 1.9e-15 absolute."""

    T = 1e-3
    TERMS = 1.5 * abs(math.log(4 * math.pi * T)) + 3.0
    # non-diagonal: both sides run the full rule of the same nodes
    A = np.array([[0.3, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.05]])

    @pytest.fixture(scope="class", params=["S3", "c06"])
    def warped(self, request):
        spec = {
            "S3": ModelSpec("space_form", 3, K=1.0, halfwidth=1.75),
            "c06": ModelSpec("conformal_flat", 3, halfwidth=1.5, perturbation=
                             Perturbation(0.05, PROFILES["quartic_bump"])),
        }[request.param]
        nc = build_normal_chart(make_chart(spec), np.zeros(3), 0.9)
        assert nc.kind == "warped"
        return nc

    def _values(self, tf, rule):
        quad = QuadratureSpec(rule=rule, order=16)
        return [ev(tf, self.T, quad)[0]
                for ev in (eval_L_normalized, eval_W_normalized)]

    def _shifted(self, nc, a, alpha, rule):
        return self._values(_ShiftedProfile(nc, a, 0.9, alpha), rule)

    def _rescaled(self, nc, a, rule):
        return self._values(build_test_function(nc, mode=a, r_s=0.9), rule)

    @pytest.mark.parametrize("rule", ["radial_sphere", "hermite"])
    @pytest.mark.parametrize("alpha", [-150.0, 0.7, 40.0])
    def test_alpha_rescales_a(self, warped, rule, alpha):
        got = self._shifted(warped, self.A, alpha, rule)
        want = self._rescaled(warped, self.A / (1.0 + alpha * self.T), rule)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * self.TERMS)

    @pytest.mark.parametrize("rule", ["radial_sphere", "hermite"])
    def test_alpha_is_inert_at_zero_a(self, warped, rule):
        want = self._rescaled(warped, np.zeros((3, 3)), rule)
        for alpha in (-150.0, -2.0, 4.0, 40.0):
            got = self._shifted(warped, np.zeros((3, 3)), alpha, rule)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * self.TERMS)


def _dense_sums(tf, t, X, rho, W, dens, ginv, sc):
    """The four sums from pointwise eta^2 and grad eta^2 at the points X
    with a given density, full inverse metric and Sc at each point."""
    n = X.shape[-1]
    eta2, geta2 = eta2_pointwise(tf, X)
    M = geta2 / (2.0 * eta2)[:, None] - X / (4.0 * t)
    base = eta2 * dens
    logu2 = np.log(eta2) - (n / 2.0) * np.log(4 * np.pi * t) - rho**2
    Q = np.einsum("mi,mij,mj->m", M, ginv, M)
    return [W @ base, W @ (base * logu2), W @ (base * Q), W @ (base * sc)]


def _sums_at(tf, t, quad, order):
    """_eval_once at the one time t: the four sums, then the node count."""
    sums, ran = _eval_once(tf, np.array([t]), quad, order,
                           *resolve_rule(tf, quad))
    return sums[:, 0].tolist() + [ran["nodes"]]


class TestKernelOracle:
    """The scalar ray kernel against a dense evaluation of the same
    integrals: eta^2 and its gradient pointwise, the density sqrt(det g)
    and M^T g^{-1} M from the chart's metric (chart coordinates are normal
    coordinates at the origin).  A diagonal profile a runs the Hermite
    grid folded onto its sets of equal entries (a = Rc/3 = lambda I on a
    space form: one block), a general one the full grid; the dense oracle
    always uses the full grid, built here."""

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
        tf = TestFunction(nc, a, r_s)
        t = 0.01
        quad = QuadratureSpec(rule="hermite", order=order)
        got = _sums_at(tf, t, quad, order)
        # a silent fall back to the full grid would show in the count
        h = (order + 1) // 2
        assert got[4] == {"random": order**n, "diag": h**n,
                          "rc3": math.comb(h + n - 1, n)}[profile]

        z1, w1 = np.polynomial.hermite.hermgauss(order)
        Z = np.array(list(itertools.product(z1, repeat=n)))
        W = np.prod(list(itertools.product(w1, repeat=n)), axis=1) / np.pi ** (n / 2)
        X = 2.0 * np.sqrt(t) * Z
        eta2 = eta2_pointwise(tf, X)[0]
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
        tf = TestFunction(nc, a + a.T, r_s)
        t, order = 0.01, 10
        quad = QuadratureSpec(rule="radial_sphere", order=order)
        got = _sums_at(tf, t, quad, order)
        s2t = 2.0 * np.sqrt(t)
        dirs, rho, W = _nodes("radial_sphere", 3, order, quad.c_trunc,
                              kink=r_s / (2.0 * s2t))
        assert got[4] == W.size
        X = (s2t * rho[:, None] * dirs).reshape(-1, 3)  # (nd * nr, 3)
        rho = np.broadcast_to(rho, W.shape).ravel()
        eta2 = eta2_pointwise(tf, X)[0]
        assert np.any((eta2 < 1.0) & (eta2 > 1e-300))  # nodes on the cutoff ramp
        g = ch.metric(X)
        want = _dense_sums(tf, t, X, rho, W.ravel(),
                           np.sqrt(np.linalg.det(g)), np.linalg.inv(g), 6.0 * K)
        assert got[:4] == pytest.approx(want, rel=1e-12)

    def test_ode_chart_matches_full_table(self, monkeypatch):
        """On the c06 conformal metric, shot in a hand-built chart, the
        scalar form kappa^2 + beta^2 w.g~^{-1}w against M.g~^{-1}.M from a
        full table (density, all of g~^{-1}) rebuilt from the chart's own
        shooting, at the same nodes; they differ by the Gauss-lemma
        residual of the table."""
        ch = shooting_chart(make_chart(ModelSpec(
            "conformal_flat", 3,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
            halfwidth=1.5,
        )))
        quad = QuadratureSpec(rule="radial_sphere", order=16)
        # a large profile and t near its bound (r_s / c_trunc)^2 make the
        # tangential term, and with it the curvature in w.g~^{-1}w, show:
        # reading that term off the flat metric moves the sum by 4e-7; a
        # non-diagonal a needs the full bundle
        a = np.array([[1.2, 0.4, -0.2], [0.4, 0.8, 0.28], [-0.2, 0.28, 1.6]])
        shots = recorded(monkeypatch, charts, "dopri45")
        nc = prepare_normal_chart(ch, np.zeros(3), 0.9, quad, a=a)
        assert nc.symmetry is None and nc.dirs.shape[0] == 512
        ((_, _, t_out, _, _), _, (states, _)), = shots
        full = full_ode_table(ch, nc.dirs.shape[0], np.linspace(0.0, 0.9, 384),
                              t_out, states)
        tf = TestFunction(nc, a, 0.9)
        t = 0.006
        got = _sums_at(tf, t, quad, 16)
        s2t = 2.0 * np.sqrt(t)
        dirs, rho, W = _nodes("radial_sphere", 3, 16, quad.c_trunc,
                              kink=0.9 / (2.0 * s2t), nchart=nc)
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
        eta2, geta2 = eta2_pointwise(tf, X, r)
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
        tf = TestFunction(sphere, self.A_OFF, 0.5)
        dirs, rho, _ = _hermite_nodes(3, 10)
        r = 2.0 * np.sqrt(self.T) * rho
        got = tf.on_rays(dirs, r, self.T)
        self._compare(tf, self.T, r[:, None] * dirs, got, 1e-12)

    def test_rays_on_closed_form_chart(self, sphere):
        """The ray layout: rays (nd, 1, n) against radii (nr,)."""
        tf = TestFunction(sphere, self.A_OFF, 1.2)
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
        assert nc.kind == "ode"
        assert nc.symmetry == (((0,), (1,), (2,)) if fold else None)
        tf = TestFunction(nc, a, 1.2)
        dirs = nc.dirs[:, None, :]
        r = np.linspace(0.0, 1.4, 31)
        got = tf.on_rays(dirs, r, self.T)
        self._compare(tf, self.T, (r[:, None] * dirs).reshape(-1, 3), got, 1e-10)


class TestFoldedBundle:
    """An ode chart shot at the origin of a mirror-even chart along the
    orthant of its rule against the same chart shot along the full rule.
    The rays the fold leaves out are reflections of the ones it keeps, so
    the two agree to the integration tolerance.  The c06 metric is shot in
    a hand-built chart with its mark, since its catalog chart is warped
    at the origin."""

    @pytest.mark.parametrize("which", ["c06", "S2xR"])
    def test_matches_full_bundle(self, which):
        spec = (ModelSpec("conformal_flat", 3, halfwidth=1.5,
                          perturbation=Perturbation(0.05, PROFILES["quartic_bump"]))
                if which == "c06" else ModelSpec("product_sphere_line", 3, K=1.0))
        ch = make_chart(spec)
        if which == "c06":
            ch = shooting_chart(ch, mark=ch.symmetry)
        full, folded = (
            build_normal_chart(ch, np.zeros(3), 0.9,
                               rule=sphere_rule(3, 16, fold),
                               fold=((0,), (1,), (2,)) if fold else None)
            for fold in (False, True)
        )
        assert (full.dirs.shape[0], folded.dirs.shape[0]) == (512, 72)
        assert folded.symmetry == ((0,), (1,), (2,))
        assert full.symmetry is None
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
        """S^2 x R^2 at order 8: the orthant's 80 rays and the orbit rule
        of its blocks {0, 1}, {2, 3}, 4 rays, against 1,024.  Measured:
        shells within 3.2e-15 relative and L within 8.9e-15 absolute; the
        bounds are 1e-13 for both."""
        ch = make_chart(ModelSpec("product_sphere_line", 4, K=1.0))
        full, *folded = (
            build_normal_chart(ch, np.zeros(4), 0.6, r_samples=96,
                               rule=ray_bundle(4, 8, fold), fold=fold)
            for fold in (None, ((0,), (1,), (2,), (3,)), ch.symmetry)
        )
        assert ch.symmetry == ((0, 1), (2, 3))
        assert [nc.dirs.shape[0] for nc in (full, *folded)] == [1024, 80, 4]
        r = np.linspace(0.05, 0.6, 12)
        curv = curvature_at(ch, np.zeros(4))
        quad = QuadratureSpec(rule="radial_sphere", order=8)
        want = eval_L_normalized(build_test_function(full, curv, r_s=0.6),
                                 4e-4, quad)[0]
        for nc in folded:
            np.testing.assert_allclose(nc.shell(r), full.shell(r),
                                       rtol=1e-13, atol=0)
            got = eval_L_normalized(build_test_function(nc, curv, r_s=0.6),
                                    4e-4, quad)[0]
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
        diag = TestFunction(nc, D, 1.5)
        rot = TestFunction(nc, R @ D @ R.T, 1.5)
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


def _orthant_sums(tf, t, quad, order):
    """The four sums of one rule over the orthant of the sphere rule,
    sphere_rule(n, order, True), through the ray evaluator: the radial
    fold's oracle, with the engine's radial nodes and every direction of
    the orthant evaluated on its own.  Returns Components (no errors) and
    the number of directions."""
    n = tf.nchart.n
    s2t = 2.0 * np.sqrt(t)
    rho, wr = _radial_nodes(order, n, tf.r_s / (2.0 * s2t), quad.c_trunc)
    dirs, wd = sphere_rule(n, order, True)
    W = np.outer(wd, wr) / np.pi ** (n / 2)
    r = s2t * rho
    eta2, kappa, beta2, dens, wgw = tf.on_rays(dirs[:, None, :], r, t)
    base = W * eta2 * dens
    logu2 = np.log(eta2) - (n / 2) * np.log(4 * np.pi * t) - rho**2
    comp = Components(t, base.sum(), (base * logu2).sum(),
                      (base * (kappa**2 + beta2 * wgw)).sum(),
                      (base * tf.nchart.scalar(r)).sum())
    return comp, dirs.shape[0]


class TestOneRay:
    """a = lambda I on a closed-form chart (rotation invariant) runs the
    radial_sphere rule on one ray weighted by the sphere's area; the
    oracle sums the same rule's orthant ray by ray (_orthant_sums).

    Measured: the four sums agree within 4.4e-16 relative.  The
    normalized L and W cancel terms of size 10 down to 1e-2 and 1e-7, so
    they agree only absolutely, within 1.8e-15 (bound 1e-13)."""

    CASES = [("space_form", 3, 1.0, 1.7), ("space_form", 3, -1.0, 1.1),
             ("space_form", 4, 1.0, 1.45)]

    @staticmethod
    def _check(tf, t, order):
        quad = QuadratureSpec(order=order)
        got = eval_components(tf, t, quad, want_err=False)
        want, nd = _orthant_sums(tf, t, quad, order)
        assert nd > 1
        for name in ("mass", "entropy", "dirichlet", "sc_integral"):
            assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                       rel=1e-13, abs=0)
        n = tf.nchart.n
        L = _L_of(want, n) / want.mass
        W = (_L_of(want, n) + t * want.sc_integral) / want.mass
        assert abs(eval_L_normalized(tf, t, quad)[0] - L) <= 1e-13
        assert abs(eval_W_normalized(tf, t, quad)[0] - W) <= 1e-13
        return got

    @pytest.mark.parametrize("order", [16, 24])
    @pytest.mark.parametrize("kind,n,K,r_s", CASES,
                             ids=["S3", "H3", "S4"])
    def test_space_form_matches_orthant(self, kind, n, K, r_s, order):
        ch = make_chart(ModelSpec(kind, n, K=K))
        nc = build_normal_chart(ch, np.zeros(n), r_s)
        tf = build_test_function(nc, curvature_at(ch, np.zeros(n)), r_s=r_s)
        for t in (r_s**2 / 720, r_s**2 / 5760):
            got = self._check(tf, t, order)
            # one ray: the radial nodes of one direction, the Laguerre
            # rule's order // 2 + 4 at both times
            rho = _radial_nodes(order, n, r_s / (4.0 * np.sqrt(t)))[0]
            assert got.nodes == rho.size == order // 2 + 4

    @pytest.mark.parametrize("order", [16, 24])
    def test_flat_n5_zero_profile(self, order):
        ch = make_chart(ModelSpec("flat", 5))
        nc = build_normal_chart(ch, np.zeros(5), 1.2)
        tf = build_test_function(nc, None, mode="zero", r_s=1.2)
        for t in (2e-3, 2.5e-4):
            self._check(tf, t, order)

    def test_symmetrize_matches_orthant(self):
        """symmetrize with a = 0 on flat n = 3 runs on one ray.  The oracle
        crosses each level on every ray of the order-16 orthant by
        bisection on u, to the last bit, and sums the flat volumes
        r^3/3; its mass is the orthant sum.  Measured: volumes within
        1.7e-13 relative, masses equal."""
        ch = make_chart(ModelSpec("flat", 3, halfwidth=2.0))
        nc = build_normal_chart(ch, np.zeros(3), 1.6)
        tf = build_test_function(nc, None, mode="zero", r_s=1.2)
        t, order = 0.01, 16
        res = symmetrize(tf, t=t, K=0.0, levels=64, order=order)
        assert res.meta["fold"] == [[0, 1, 2]] and res.meta["rays"] == 1

        dirs, wd = sphere_rule(3, order, True)
        levels = res.levels
        D = np.repeat(dirs, levels.size, axis=0)
        log_s = np.tile(np.log(levels), dirs.shape[0])
        log_h = -0.75 * np.log(4 * np.pi * t)
        lo, hi = np.zeros(log_s.size), np.full(log_s.size, tf.r_s)
        while True:
            mid = 0.5 * (lo + hi)
            if not np.any((mid > lo) & (mid < hi)):
                break
            eta2 = tf.on_rays(D, mid, t)[0]
            above = log_h + 0.5 * np.log(eta2) - mid**2 / (8 * t) > log_s
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        r = (0.5 * (lo + hi)).reshape(dirs.shape[0], levels.size)
        volumes = wd @ (r**3 / 3.0)
        np.testing.assert_allclose(res.volumes, volumes, rtol=1e-12, atol=0)
        want = _orthant_sums(tf, t, QuadratureSpec(rule="radial_sphere",
                                                   order=order), order)[0]
        assert res.mass_original == pytest.approx(want.mass, rel=1e-12, abs=0)



class TestOneRayBundle:
    """At the origin of the c06 conformal chart (a RadialProfile, so
    rotation invariant) prepare_normal_chart returns the warped chart for
    every a and shoots nothing.  The oracle is the orthant bundle of the
    order-16 rule, 72 rays, shot by hand on the same metric: by symmetry
    every one of its rays carries the warped density and, in any
    orthonormal basis of the ray's orthogonal plane, the same multiple
    (r/f)^2 of the identity as tangential block of g~^{-1}.

    Measured: density and shells within 4.2e-10 relative, the tangential
    block within 1.4e-10 absolute (bounds 1e-9), the shot table's own
    error."""

    QUAD = QuadratureSpec(rule="radial_sphere", order=16)
    A_OFF = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05], [0.0, -0.05, 0.1]])

    @pytest.fixture(scope="class")
    def c06(self):
        ch = make_chart(ModelSpec(
            "conformal_flat", 3, halfwidth=1.5,
            perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        ))
        cv = curvature_at(ch, np.zeros(3))
        one = prepare_normal_chart(ch, np.zeros(3), 0.9, self.QUAD, a=cv.rc / 3)
        orthant = build_normal_chart(shooting_chart(ch, mark=ch.symmetry),
                                     np.zeros(3), 0.9,
                                     rule=sphere_rule(3, 16, True),
                                     fold=((0,), (1,), (2,)))
        return ch, cv, one, orthant

    @staticmethod
    def _planes(dirs):
        """Per ray d an orthonormal pair u1, u2 spanning d's orthogonal
        plane (n = 3), away from the nearest axis."""
        e = np.eye(3)[np.argmin(np.abs(dirs), axis=1)]
        u1 = np.cross(dirs, e)
        u1 /= np.linalg.norm(u1, axis=1, keepdims=True)
        return u1, np.cross(dirs, u1)

    def test_tables_match_the_orthant_bundle(self, c06):
        ch, _, one, orthant = c06
        assert one.kind == "warped" and one.dirs is None
        assert orthant.kind == "ode" and orthant.dirs.shape == (72, 3)
        assert one.symmetry == ((0, 1, 2),)
        r = np.linspace(0.05, 0.9, 18)
        dens1, _ = one.geometry(r, np.zeros((1, 1, 3)))
        dens, _ = orthant.geometry(r, np.zeros((72, 1, 3)))
        np.testing.assert_allclose(dens, np.broadcast_to(dens1, dens.shape),
                                   rtol=1e-9, atol=0)
        np.testing.assert_allclose(one.shell(r), orthant.shell(r),
                                   rtol=1e-9, atol=0)
        (v1,), (v2,) = self._planes(np.eye(1, 3))
        u1, u2 = self._planes(orthant.dirs)
        for w1, w in ((v1, u1), (v2, u2), ((v1 + v2) / np.sqrt(2),
                                            (u1 + u2) / np.sqrt(2))):
            block1 = one.geometry(r, w1[None, None, :])[1]
            block = orthant.geometry(r, w[:, None, :])[1]
            np.testing.assert_allclose(
                block, np.broadcast_to(block1, block.shape), rtol=0, atol=1e-9)

    def test_other_profiles_need_more_rays(self, c06):
        """Every a runs on the warped chart, its nodes folded by a alone:
        a diagonal a with unequal entries onto the orthant, a non-diagonal
        one not at all.  prepare_normal_chart shoots for neither, nor for
        no test function (volumes, probes)."""
        ch, cv, one, _ = c06
        for a, fold, rays in ((np.diag([0.3, -0.1, 0.05]), ((0,), (1,), (2,)),
                               72), (self.A_OFF, None, 512)):
            nc = prepare_normal_chart(ch, np.zeros(3), 0.9, self.QUAD, a=a)
            assert nc.kind == "warped" and nc.nfev == 0
            tf = build_test_function(one, cv, mode=a, r_s=0.9)
            assert resolve_rule(tf, self.QUAD) == ("radial_sphere", fold)
            assert ray_bundle(3, 16, fold)[0].shape[0] == rays
            assert np.isfinite(eval_L_normalized(tf, 1e-3, self.QUAD)[0])
        none = prepare_normal_chart(ch, np.zeros(3), 0.9, self.QUAD)
        assert none.kind == "warped"

    def test_sphere_line_keeps_its_bundles(self):
        """S^2 x R is invariant under O(2) x O(1): a = Rc/3 = diag(1/3,
        1/3, 0) and no test function both shoot the orbit rule of its
        blocks, 8 rays; a diagonal a with distinct entries the orthant, 72;
        the same metric in a hand-built chart carries no mark and shoots
        all 512."""
        cat = make_chart(ModelSpec("product_sphere_line", 3, K=1.0))
        a = curvature_at(cat, np.zeros(3)).rc / 3
        for mode in (a, None):
            nc = prepare_normal_chart(cat, np.zeros(3), 0.9, self.QUAD, a=mode)
            assert nc.symmetry == ((0, 1), (2,)) and nc.dirs.shape[0] == 8
        nc = prepare_normal_chart(cat, np.zeros(3), 0.9, self.QUAD,
                                  a=np.diag([0.3, -0.1, 0.05]))
        assert nc.symmetry == ((0,), (1,), (2,)) and nc.dirs.shape[0] == 72
        bare = MetricChart(3, cat.domain, cat.metric)
        nc = prepare_normal_chart(bare, np.zeros(3), 0.9, self.QUAD, a=a)
        assert nc.symmetry is None and nc.dirs.shape[0] == 512


class TestTimeBatches:
    """eval_components takes a 1-D array of times and runs those on the
    t-independent nodes (the Hermite grid, the Laguerre radii) together,
    at most _BATCH_POINTS nodes per kernel pass; each other time runs its
    split Gauss-Legendre rule alone.  The oracle is the same call at one
    time: every sum and error estimate equal, bit for bit."""

    @staticmethod
    def _assert_batched_equals_alone(tf, ts, quad):
        got = eval_components(tf, ts, quad)
        for k, t in enumerate(ts):
            want = eval_components(tf, float(t), quad)
            for name in ("mass", "entropy", "dirichlet", "sc_integral"):
                assert getattr(got, name)[k] == getattr(want, name), name
                assert got.errs[name][k] == want.errs[name], name
        assert got.nodes == sum(eval_components(tf, float(t), quad).nodes
                                for t in ts)
        return got

    @pytest.mark.parametrize("rule,mode", [
        ("radial_sphere", "optimal_a"),
        ("radial_sphere", np.array([[0.3, 0.1, 0.0], [0.1, 0.2, -0.05],
                                    [0.0, -0.05, 0.1]])),
        ("hermite", np.diag([0.3, -0.1, 0.05])),
    ], ids=["one-ray", "full-bundle", "hermite-orthant"])
    def test_batched_equals_one_time_calls(self, s3_setup, rule, mode):
        """On S^3 at r_s 1.7, t up to r_s^2/150 puts the first kink at 3.1,
        so the radial rule runs Laguerre and split times in one call."""
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode=mode, r_s=1.7)
        ts = np.geomspace(1.7**2 / 150, 1.7**2 / 6000, 7)
        quad = QuadratureSpec(rule=rule, order=16)
        got = self._assert_batched_equals_alone(tf, ts, quad)
        rec = eval_L_normalized(tf, ts, quad)[2]
        assert rec == got.record() and rec["nodes"] == got.nodes
        kinks = 1.7 / (4.0 * np.sqrt(ts))
        if rule == "hermite":
            assert rec["batches"] == 2 and "radial_rule" not in rec
        else:
            split = int(np.sum(kinks < 6.0))
            assert 0 < split < ts.size
            assert rec["radial_rule"] == "laguerre+split_legendre"
            assert rec["radial_m"] == 12
            assert rec["batches"] == 2 * (1 + split)

    def test_batch_cap_splits_the_passes(self, s3_setup, monkeypatch):
        """A cap of 3 times' nodes at the main order runs 10 times in 4
        passes there (and in as many at the error rule's order as its
        nodes allow), with the same bits; a cap below one time's nodes
        runs one time per pass."""
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, mode=np.diag([0.3, -0.1, 0.05]), r_s=1.7)
        ts = np.geomspace(1.7**2 / 720, 1.7**2 / 14400, 10)
        quad = QuadratureSpec(rule="radial_sphere", order=16)
        whole = eval_components(tf, ts, quad)
        assert eval_W_normalized(tf, ts, quad)[2]["batches"] == whole.batches == 2
        orthant = ((0,), (1,), (2,))
        main, lo = (orbit_rule(o, orthant)[1].size * (o // 2 + 4) for o in (16, 10))
        cap = 3 * main
        for cap, passes in ((cap, 4 + -(-10 // (cap // lo))), (1, 20)):
            monkeypatch.setattr(functionals, "_BATCH_POINTS", cap)
            got = self._assert_batched_equals_alone(tf, ts, quad)
            assert eval_W_normalized(tf, ts, quad)[2]["batches"] == passes
            for name in ("mass", "entropy", "dirichlet", "sc_integral"):
                assert np.array_equal(getattr(got, name), getattr(whole, name))

    def test_times_are_checked_one_by_one(self, s3_setup):
        _, nc, cv = s3_setup
        tf = build_test_function(nc, cv, r_s=1.7)
        quad = QuadratureSpec(order=16)
        with pytest.raises(ConfigInvalid):
            eval_components(tf, np.array([1e-3, -1e-3]), quad)
        with pytest.raises(TimeTooLarge):
            eval_components(tf, np.array([1e-3, 0.1]), quad)
        with pytest.raises(ConfigInvalid):
            eval_components(tf, np.full((2, 2), 1e-3), quad)


def test_one_fold_per_evaluation(s3_setup, monkeypatch):
    """eval_components resolves its rule and fold once and runs both the
    main and the error-estimate rule on them: one fold_level call per
    evaluation, so a default 10-point run_expansion, which evaluates its
    whole time grid in one call and records the rule that call ran, makes
    one (the normal chart's fold is decided in curvex.expansion)."""
    ch, nc, cv = s3_setup
    calls = recorded(monkeypatch, functionals, "fold_level")
    for mode in ("optimal_a", np.diag([0.3, -0.1, 0.05])):
        tf = build_test_function(nc, cv, mode=mode, r_s=1.0)
        comp = eval_components(tf, 1e-3, QuadratureSpec(order=16))
        assert len(calls) == 1 and comp.errs
        calls.clear()
    run_expansion(ch, np.zeros(3), "W", r_s=1.0,
                  quad=QuadratureSpec(order=16), curv=cv)
    assert len(calls) == 1


class TestGuards:
    def test_hermite_grid_limited_to_four_dimensions(self):
        """The shared node builder refuses the product grid at n = 5
        (order^5 nodes, 1e8 at the default order) before building it."""
        G = lambda X: np.ones(X.shape[0])
        with pytest.raises(ConfigInvalid, match="n <= 4"):
            gaussian_integral(5, 0.01, G, QuadratureSpec(rule="hermite"))
        ch = make_chart(ModelSpec("space_form", 5, K=1.0))
        nc = build_normal_chart(ch, np.zeros(5), 0.5)
        tf = TestFunction(nc, np.zeros((5, 5)), 0.5)
        with pytest.raises(ConfigInvalid, match="n <= 4"):
            eval_L_normalized(tf, 1e-4, QuadratureSpec(rule="hermite"))

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
        tf = build_test_function(nc, cv, mode="zero", r_s=1.0)
        with pytest.raises(TimeTooLarge):
            eval_L_normalized(tf, 0.02, QuadratureSpec(order=16))

    def test_support_too_large(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.raises(SupportTooLarge):
            TestFunction(nc, np.zeros((3, 3)), 2.5)

    def test_positivity_warning(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.warns(PositivityWarning):
            build_test_function(nc, mode=-2.0 * np.eye(3), r_s=1.5)

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
        """alpha accepts 0 alone: the former 'normalized' mode, any other
        string and None are refused, naming the a/(1 + alpha t) identity."""
        _, nc, cv = s3_setup
        for alpha in ("normalized", "bogus", "0.5", None):
            with pytest.raises(ConfigInvalid, match=r"a/\(1 \+ alpha t\)"):
                build_test_function(nc, cv, mode="zero", alpha=alpha, r_s=1.0)

    @pytest.mark.parametrize("alpha", [0.3, -150.0, float("nan")])
    def test_nonzero_alpha_is_refused(self, s3_setup, alpha):
        """A time shift of the profile is a/(1 + alpha t) in every
        normalized functional, so the builder takes no other alpha than 0
        (which it still accepts as a keyword)."""
        _, nc, cv = s3_setup
        with pytest.raises(ConfigInvalid, match=r"a/\(1 \+ alpha t\)"):
            build_test_function(nc, cv, mode="zero", alpha=alpha, r_s=1.0)
        tf = build_test_function(nc, cv, mode="zero", alpha=0.0, r_s=1.0)
        assert np.array_equal(tf.a, np.zeros((3, 3)))

    def test_test_function_is_a_and_r_s(self):
        """The test function has no time shift and no scale: its fields
        are the chart, the profile matrix and the support radius."""
        assert [f.name for f in dataclasses.fields(TestFunction)] == [
            "nchart", "a", "r_s"]

    def test_clamped_profile_still_evaluates(self, s3_setup):
        _, nc, _ = s3_setup
        with pytest.warns(PositivityWarning):
            tf = build_test_function(nc, mode=-2.0 * np.eye(3), r_s=1.5)
        val, _, _ = eval_L_normalized(tf, 1e-3, QuadratureSpec(order=24))
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


def _c06_normal_chart(a=None):
    """The c06 metric shot in a hand-built chart with its mark: the
    catalog chart's origin is warped."""
    ch = make_chart(ModelSpec(
        "conformal_flat", 3,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        halfwidth=1.5,
    ))
    ch = shooting_chart(ch, mark=ch.symmetry)
    return prepare_normal_chart(ch, np.zeros(3), 0.9,
                                QuadratureSpec(rule="radial_sphere", order=16),
                                a=a)


@pytest.fixture
def conformal_c06():
    """The c06 conformal metric (quartic bump, eps 0.05) at the origin to
    r_s = 0.9, shot along one ray of the order-16 rule: its profile is
    rotation invariant and no test function asks for more; built per
    test, since the test below checks what a fresh chart has built."""
    return _c06_normal_chart()


@pytest.fixture
def conformal_c06_orthant():
    """The same chart shot along the orthant of the rule (72 rays), as a
    diagonal a with unequal entries asks for."""
    return _c06_normal_chart(np.diag([0.3, -0.1, 0.05]))


class TestShell:
    """NormalChart.shell(r), the area of the geodesic sphere, behind every
    ball volume, probe radius and probe area."""

    def test_ode_chart_matches_sphere_area(self, s3_ode):
        r = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(s3_ode.shell(r), 4 * np.pi * np.sin(r) ** 2,
                                   rtol=0, atol=1e-9)
        assert s3_ode.shell(r.reshape(1, 41, 1)).shape == (1, 41, 1)

    @pytest.mark.parametrize(
        "which", ["s3_ode", "conformal_c06_orthant", "conformal_c06"],
        ids=["full", "folded", "one_ray"])
    def test_ode_shell_sums_the_table_density(self, which, request):
        """shell(r) is sum_d w_d density_d(r) r^(n-1) with the density of
        the chart's one table, as the geometry call reads it (clamped at
        the chart radius), on a full bundle, an orthant and one ray."""
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
        curvature at the 65 exp points of its one ray) is not built for them.  W builds
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


_THREAD_CASE = textwrap.dedent(
    """
    import numpy as np
    from curvex import ModelSpec, build_normal_chart, make_chart
    from curvex.functionals import (QuadratureSpec, build_test_function,
                                    eval_L_normalized, gaussian_integral)
    quad = QuadratureSpec(rule="hermite", order=24)
    nc = build_normal_chart(make_chart(ModelSpec("space_form", 4, K=1.0)),
                            np.zeros(4), 1.45)
    a = 0.25 * np.eye(4)
    a[0, 1] = a[1, 0] = 0.05
    tf = build_test_function(nc, mode=a, r_s=1.45)
    val, err, ran = eval_L_normalized(tf, 1e-3, quad)
    g, _ = gaussian_integral(4, 1e-3, lambda X: np.exp(X @ a[0]), quad)
    print(ran["nodes"], val.hex(), err.hex(), g.hex())
    """
)


def test_sums_do_not_depend_on_the_blas_thread_count():
    """A non-diagonal a on S^4 runs the full order-24 Hermite grid, 331,776
    nodes, where a BLAS dot splits its sum by thread.  The functionals and
    gaussian_integral sum with numpy's own pairwise sum, so one and two
    BLAS threads give the same bits."""
    src = str(Path(functionals.__file__).resolve().parents[1])
    runs = [
        subprocess.run(
            [sys.executable, "-c", _THREAD_CASE], capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": k},
        )
        for k in ("1", "2")
    ]
    for out in runs:
        assert out.returncode == 0, out.stderr
    one, two = (out.stdout.split() for out in runs)
    assert one[0] == str(24**4 + 18**4)
    assert one == two
