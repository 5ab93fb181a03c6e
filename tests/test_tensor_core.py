import numpy as np
import pytest

from curvex.errors import DimensionTooSmall, InvalidSpec, MissingField
from curvex.tensor_core import (
    CurvatureData,
    e_functional,
    kulkarni_nomizu,
    norm_sq,
    space_form_curvature,
    v_tensor,
    weyl_decompose,
)
from oracles import curvature_symmetry_violations


def random_sym(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_curvature(rng, n, with_weyl=True):
    """Random algebraic curvature tensor as a span of Kulkarni-Nomizu
    products, optionally enriched with the Weyl part of another product."""
    rm = kulkarni_nomizu(random_sym(rng, n), random_sym(rng, n))
    rm = rm + 0.5 * kulkarni_nomizu(random_sym(rng, n), random_sym(rng, n))
    if with_weyl and n >= 4:
        extra = kulkarni_nomizu(random_sym(rng, n), random_sym(rng, n))
        _, _, w = weyl_decompose(extra)
        rm = rm + w
    return rm


class TestAlgebraicCurvature:
    """The symmetry oracle accepts Kulkarni-Nomizu products and names the
    identity a broken tensor fails."""

    def test_accepts_kn_product(self):
        rng = np.random.default_rng(3)
        rm = kulkarni_nomizu(random_sym(rng, 4), random_sym(rng, 4))
        assert curvature_symmetry_violations(rm) == {}

    def test_rejects_broken_bianchi(self):
        # a Levi-Civita component keeps both antisymmetries and pair
        # exchange but fails the first Bianchi sum (n=4; in n=3 the
        # identity is automatic)
        rng = np.random.default_rng(4)
        rm = kulkarni_nomizu(random_sym(rng, 4), random_sym(rng, 4))
        eps = np.zeros((4,) * 4)
        from itertools import permutations

        for p in permutations(range(4)):
            sgn = np.linalg.det(np.eye(4)[list(p)])
            eps[p] = sgn
        assert set(curvature_symmetry_violations(rm + 0.3 * eps)) == {
            "first Bianchi"}

    def test_rejects_broken_antisymmetry(self):
        rng = np.random.default_rng(14)
        rm = kulkarni_nomizu(random_sym(rng, 3), random_sym(rng, 3))
        bad = rm.copy()
        bad[0, 0, 1, 2] += 1.0
        assert "antisymmetry (0,1)" in curvature_symmetry_violations(bad)

    def test_rejects_broken_pair_exchange(self):
        # A_ij B_kl with A, B antisymmetric keeps both antisymmetries but
        # not the exchange of the pairs
        rng = np.random.default_rng(15)
        A, B = (rng.normal(size=(3, 3)) for _ in range(2))
        A, B = A - A.T, B - B.T
        bad = np.einsum("ij,kl->ijkl", A, B)
        found = curvature_symmetry_violations(bad)
        assert "pair exchange" in found
        assert not {"antisymmetry (0,1)", "antisymmetry (2,3)"} & set(found)


class TestSpaceForm:
    @pytest.mark.parametrize("n,K", [(2, 1.0), (3, 1.0), (3, -1.0), (4, 0.25), (6, 2.0)])
    def test_components(self, n, K):
        c = space_form_curvature(n, K)
        assert c.rm[0, 1, 0, 1] == pytest.approx(K)
        assert np.allclose(c.rc, (n - 1) * K * np.eye(n))
        assert c.sc == pytest.approx(n * (n - 1) * K)
        assert norm_sq(c.rm) == pytest.approx(2 * n * (n - 1) * K**2)

    def test_kn_delta_norm_frozen(self):
        # direct enumeration: (d(x)d)_ijkl = 2(d_ik d_jl - d_il d_jk),
        # squared norm = 4 * 2n(n-1); for n=3 that is 48
        g = np.eye(3)
        kn = kulkarni_nomizu(g, g)
        assert norm_sq(kn) == pytest.approx(48.0)
        brute = sum(
            kn[i, j, k, l] ** 2
            for i in range(3)
            for j in range(3)
            for k in range(3)
            for l in range(3)
        )
        assert brute == pytest.approx(48.0)

    def test_space_form_is_half_kn(self):
        n, K = 4, 0.7
        g = np.eye(n)
        c = space_form_curvature(n, K)
        assert np.allclose(c.rm, 0.5 * K * kulkarni_nomizu(g, g))


class TestEFunctional:
    def test_single_axis(self):
        # lam = e1 x e1 x e1 x e1 in n=2: iijj + ijij + ijji each contribute 1
        lam = np.zeros((2, 2, 2, 2))
        lam[0, 0, 0, 0] = 1.0
        assert e_functional(lam) == pytest.approx(3.0)

    def test_linear(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3,) * 4)
        b = rng.normal(size=(3,) * 4)
        assert e_functional(2 * a - b) == pytest.approx(
            2 * e_functional(a) - e_functional(b)
        )


class TestKulkarniNomizu:
    def test_symmetries(self):
        rng = np.random.default_rng(6)
        kn = kulkarni_nomizu(random_sym(rng, 4), random_sym(rng, 4))
        assert np.allclose(kn, -kn.transpose(1, 0, 2, 3))
        assert np.allclose(kn, -kn.transpose(0, 1, 3, 2))
        assert np.allclose(kn, kn.transpose(2, 3, 0, 1))
        bianchi = kn + kn.transpose(0, 2, 3, 1) + kn.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() < 1e-12


class TestVTensor:
    def test_zero_hessian_identity(self):
        """E(v) = (5 Sc^2 + 8 |Rc|^2 - 3 |Rm|^2) / 360 when the Ricci
        Hessian vanishes."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            rm = random_curvature(rng, n)
            rc = np.einsum("isjs->ij", rm)
            sc = float(np.trace(rc))
            curv = CurvatureData(
                n=n, rm=rm, rc=rc, sc=sc,
                grad_sc=np.zeros(n), lap_sc=0.0,
                hess_rc=np.zeros((n,) * 4), grad_rc=np.zeros((n,) * 3),
            )
            want = (5 * sc**2 + 8 * norm_sq(rc) - 3 * norm_sq(rm)) / 360.0
            got = e_functional(v_tensor(curv))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_random_hessian_identity(self):
        """With a Ricci Hessian obeying the twice-traced Bianchi relation
        (sum_ij H_iijj = 2 sum_ij H_ijij), the identity picks up
        -18 * lap_sc / 360."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            rm = random_curvature(rng, n)
            rc = np.einsum("isjs->ij", rm)
            sc = float(np.trace(rc))
            h = rng.normal(size=(n,) * 4)
            h = 0.5 * (h + h.transpose(1, 0, 2, 3))  # Ricci slots
            h = 0.5 * (h + h.transpose(0, 1, 3, 2))  # derivative slots
            s1 = np.einsum("iijj->", h)
            s2 = np.einsum("ijij->", h)
            a = (2 * s2 - s1) / (n * n - 2 * n)
            h = h + a * np.einsum("ij,kl->ijkl", np.eye(n), np.eye(n))
            lap = float(np.einsum("iijj->", h))  # Delta(tr Rc) via traces
            curv = CurvatureData(
                n=n, rm=rm, rc=rc, sc=sc,
                grad_sc=np.zeros(n), lap_sc=lap,
                hess_rc=h, grad_rc=np.zeros((n,) * 3),
            )
            want = (
                5 * sc**2 + 8 * norm_sq(rc) - 3 * norm_sq(rm) - 18 * lap
            ) / 360.0
            got = e_functional(v_tensor(curv))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_sphere_frozen_value(self):
        # n=3, K=1: (5*36 + 8*12 - 3*12)/360 = 2/3
        c = space_form_curvature(3, 1.0)
        c = CurvatureData(
            n=3, rm=c.rm, rc=c.rc, sc=c.sc,
            grad_sc=c.grad_sc, lap_sc=0.0,
            hess_rc=np.zeros((3,) * 4), grad_rc=np.zeros((3,) * 3),
        )
        assert e_functional(v_tensor(c)) == pytest.approx(2.0 / 3.0)

    def test_missing_hessian_raises(self):
        c = space_form_curvature(3, 1.0)
        bare = CurvatureData(
            n=3, rm=c.rm, rc=c.rc, sc=c.sc, grad_sc=c.grad_sc, lap_sc=0.0
        )
        with pytest.raises(MissingField):
            v_tensor(bare)


class TestWeylDecompose:
    def test_space_form_is_pure_scalar(self):
        c = space_form_curvature(4, 1.3)
        s, tr, w = weyl_decompose(c.rm)
        assert np.allclose(s, c.rm, atol=1e-12)
        assert np.abs(tr).max() < 1e-12
        assert np.abs(w).max() < 1e-12

    def test_reconstruction_and_pythagoras(self):
        rng = np.random.default_rng(9)
        rm = random_curvature(rng, 5)
        s, tr, w = weyl_decompose(rm)
        assert np.allclose(s + tr + w, rm, atol=1e-10)
        total = norm_sq(rm)
        parts = norm_sq(s) + norm_sq(tr) + norm_sq(w)
        assert parts == pytest.approx(total, rel=1e-10)
        # Weyl part is totally trace-free
        assert np.abs(np.einsum("isjs->ij", w)).max() < 1e-10

    def test_product_has_weyl_n4(self):
        # S^2 x R^2 curvature: R_0101 = K only
        n, K = 4, 1.0
        P = np.zeros((n, n))
        P[0, 0] = P[1, 1] = 1.0
        rm = K * (
            np.einsum("ik,jl->ijkl", P, P) - np.einsum("il,jk->ijkl", P, P)
        )
        s, tr, w = weyl_decompose(rm)
        assert norm_sq(w) > 0.1 * norm_sq(rm)

    def test_dimension_guard(self):
        c = space_form_curvature(2, 1.0)
        with pytest.raises(DimensionTooSmall):
            weyl_decompose(c.rm)


class TestCurvatureData:
    def test_trace_consistency_enforced(self):
        c = space_form_curvature(3, 1.0)
        with pytest.raises(InvalidSpec):
            CurvatureData(
                n=3, rm=c.rm, rc=c.rc + 0.5 * np.eye(3), sc=c.sc,
                grad_sc=np.zeros(3), lap_sc=0.0,
            )
