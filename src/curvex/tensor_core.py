"""Dense curvature algebra at a point.

Rank-2 and rank-4 tensors are stored as plain float64 arrays in an
orthonormal frame; dimensions stay small (n <= 6) so nothing is clever.
The sign convention is fixed by requiring R_ijij = K on a space form of
curvature K, which makes rc_ij = sum_s rm_isjs and sc = n(n-1)K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionTooSmall, InvalidSpec, MissingField

MAX_DIM = 6

__all__ = [
    "CurvatureData",
    "norm_sq",
    "e_functional",
    "kulkarni_nomizu",
    "v_tensor",
    "weyl_decompose",
    "space_form_curvature",
]


def _as_float_array(entries, shape):
    arr = np.asarray(entries, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {arr.shape}")
    return arr


def _check_dim(n: int):
    if not (1 <= n <= MAX_DIM):
        raise DimensionMismatch(f"dimension {n} outside supported range 1..{MAX_DIM}")


@dataclass
class CurvatureData:
    """Pointwise curvature package in an orthonormal frame.

    rm[i,j,k,l] carries the full tensor, rc and sc its traces.  grad_sc is
    the frame gradient of scalar curvature, lap_sc its metric Laplacian.
    hess_rc[i,j,k,l] = (second covariant derivative of Ricci)_{kl} acting on
    R_ij, i.e. nabla_k nabla_l R_ij; grad_rc[k,i,j] = nabla_k R_ij.  Both are
    optional because only the quartic density coefficient needs them.
    """

    n: int
    rm: np.ndarray
    rc: np.ndarray
    sc: float
    grad_sc: np.ndarray
    lap_sc: float
    hess_rc: np.ndarray | None = None
    grad_rc: np.ndarray | None = None

    def __post_init__(self):
        _check_dim(self.n)
        n = self.n
        self.rm = _as_float_array(self.rm, (n,) * 4)
        self.rc = _as_float_array(self.rc, (n, n))
        self.grad_sc = _as_float_array(self.grad_sc, (n,))
        self.sc = float(self.sc)
        self.lap_sc = float(self.lap_sc)
        if self.hess_rc is not None:
            self.hess_rc = _as_float_array(self.hess_rc, (n,) * 4)
        if self.grad_rc is not None:
            self.grad_rc = _as_float_array(self.grad_rc, (n,) * 3)
        scale = max(1.0, float(np.abs(self.rm).max()))
        tr_rm = np.einsum("isjs->ij", self.rm)
        if np.abs(tr_rm - self.rc).max() > 1e-8 * scale:
            raise InvalidSpec("rc is not the trace of rm")
        if abs(np.trace(self.rc) - self.sc) > 1e-8 * scale:
            raise InvalidSpec("sc is not the trace of rc")


def norm_sq(x) -> float:
    """Frobenius norm squared, any rank."""
    a = np.asarray(x, dtype=float)
    return float(np.sum(a * a))


def e_functional(lam) -> float:
    """Sum over index pairs of lam_iijj + lam_ijij + lam_ijji.

    This is the contraction a fourth-order monomial picks up against an
    isotropic (Gaussian or spherical) measure; see the moments module.
    """
    a = np.asarray(lam, dtype=float)
    return float(
        np.einsum("iijj->", a) + np.einsum("ijij->", a) + np.einsum("ijji->", a)
    )


def kulkarni_nomizu(h, k) -> np.ndarray:
    """(h . k)_ijkl = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il.

    Symmetric in its arguments and lands in the algebraic curvature space
    whenever h, k are symmetric.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    out = (
        np.einsum("ik,jl->ijkl", h, k)
        + np.einsum("jl,ik->ijkl", h, k)
        - np.einsum("il,jk->ijkl", h, k)
        - np.einsum("jk,il->ijkl", h, k)
    )
    return out


def v_tensor(curv: CurvatureData) -> np.ndarray:
    """Quartic coefficient of the volume density in normal coordinates.

    v_ijkl = (1/24) ( -(3/5) hess_rc[i,j,k,l]
                      -(2/15) sum_st rm_isjt rm_kslt
                      +(1/3) rc_ij rc_kl )
    Requires hess_rc.
    """
    if curv.hess_rc is None:
        raise MissingField("v_tensor requires hess_rc")
    quad = np.einsum("isjt,kslt->ijkl", curv.rm, curv.rm)
    v = (
        -(3.0 / 5.0) * curv.hess_rc
        - (2.0 / 15.0) * quad
        + (1.0 / 3.0) * np.einsum("ij,kl->ijkl", curv.rc, curv.rc)
    )
    return v / 24.0


def weyl_decompose(rm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a curvature tensor into scalar, traceless-Ricci and Weyl parts.

    Returns (scalar_part, traceless_ricci_part, weyl); the three are
    mutually orthogonal and sum to the input.  Needs n >= 3.
    """
    a = np.asarray(rm, dtype=float)
    n = a.shape[0]
    if n < 3:
        raise DimensionTooSmall("decomposition needs n >= 3")
    g = np.eye(n)
    rc = np.einsum("isjs->ij", a)
    sc = float(np.trace(rc))
    scalar_part = (sc / (2.0 * n * (n - 1))) * kulkarni_nomizu(g, g)
    ring_rc = rc - (sc / n) * g
    traceless_part = kulkarni_nomizu(ring_rc, g) / (n - 2.0)
    weyl = a - scalar_part - traceless_part
    return scalar_part, traceless_part, weyl


def space_form_curvature(n: int, K: float) -> CurvatureData:
    """Exact curvature package of the simply connected space form M^n_K."""
    _check_dim(n)
    if n < 2:
        raise DimensionTooSmall("space forms need n >= 2")
    g = np.eye(n)
    rm = K * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
    rc = (n - 1) * K * g
    sc = n * (n - 1) * K
    zero4 = np.zeros((n,) * 4)
    zero3 = np.zeros((n,) * 3)
    return CurvatureData(
        n=n,
        rm=rm,
        rc=rc,
        sc=sc,
        grad_sc=np.zeros(n),
        lap_sc=0.0,
        hess_rc=zero4,
        grad_rc=zero3,
    )
