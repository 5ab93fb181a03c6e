"""The fold policy (functionals.fold_level) as properties over seeded
random inputs: the partition run_expansion records is the one a reading
of (chart, centre, a) written here predicts, and folding changes no value
beyond the quadrature error, against runs that do not fold or fold less."""

import numpy as np
import pytest

from curvex import ModelSpec, Perturbation, curvature_at, make_chart
from curvex.charts import PROFILES
from curvex.expansion import run_expansion
from curvex.functionals import QuadratureSpec, fold_level, profile_matrix

_QUARTIC = PROFILES["quartic_bump"]

# (spec, r_s); the conformal charts carry the radial profile (warped at
# the origin) or the same function as a plain callable (no warps)
_CHARTS = [
    (ModelSpec("flat", 2), 1.0),
    (ModelSpec("flat", 4), 1.0),
    (ModelSpec("space_form", 3, K=1.0), 0.5),
    (ModelSpec("space_form", 4, K=-1.0), 0.5),
    (ModelSpec("product_sphere_line", 3, K=1.0), 0.5),
    (ModelSpec("product_sphere_line", 4, K=1.0), 0.5),
    (ModelSpec("conformal_flat", 3, perturbation=Perturbation(0.05, _QUARTIC)), 0.5),
    (ModelSpec("conformal_flat", 3,
               perturbation=Perturbation(0.05, lambda X: _QUARTIC(X))), 0.5),
]


def _blocks_about(spec, centre):
    """Block labels of the coordinates under the geometry's symmetry
    about centre, or None: flat space and a space form's origin are
    rotation invariant, S^2 x R^(n-2) at its origin splits into the
    sphere's two coordinates and the line's, the radial conformal profile
    is rotation invariant at its origin; nothing else has warps there."""
    n = spec.n
    if spec.kind == "flat":
        return [0] * n
    if np.any(centre):
        return None
    if spec.kind == "space_form":
        return [0] * n
    if spec.kind == "product_sphere_line":
        return [0, 0] + [1] * (n - 2)
    return [0] * n if hasattr(spec.perturbation.profile, "jet") else None


def _expected_fold(spec, centre, a):
    """The coordinates grouped by their block and their diagonal entry of
    a, when a is diagonal and the geometry has blocks about centre; None
    otherwise."""
    labels = _blocks_about(spec, centre)
    if labels is None or np.any(a - np.diag(np.diagonal(a))):
        return None
    groups = {}
    for i, key in enumerate(zip(labels, np.diagonal(a))):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


def _draw_a(rng, n, curv):
    kind = rng.integers(4)
    if kind == 0:
        return curv.rc / 3.0
    if kind == 1:
        return np.zeros((n, n))
    if kind == 2:  # few distinct entries, so blocks repeat
        return np.diag(rng.choice([-0.1, 0.2, 0.3], size=n))
    m = rng.normal(scale=0.1, size=(n, n))
    return m + m.T


def test_fold_level_is_the_common_refinement():
    """The sets of equal entries of a diagonal a (a NaN equals no entry)
    meet the geometry's blocks; a geometry without blocks or a
    non-diagonal a folds nothing."""
    whole, s2r = ((0, 1, 2, 3),), ((0, 1), (2, 3))
    a = np.diag([0.2, -0.1, 0.2, 0.2])
    assert fold_level(a, whole) == ((0, 2, 3), (1,))
    assert fold_level(a, s2r) == ((0,), (1,), (2, 3))
    assert fold_level(np.diag([np.nan, 1.0, np.nan, 1.0]), whole) == (
        (0,), (1, 3), (2,))
    assert fold_level(np.diag([0.3, 0.3, 0.0, 0.0]), s2r) == s2r
    assert fold_level(np.eye(4), s2r) == s2r and fold_level(a, None) is None
    assert fold_level(a + 0.1 * np.eye(4, k=1), whole) is None


def test_p3_recorded_fold_matches_a_reading_of_the_input():
    """Sixteen seeded draws over catalog charts, the origin or an
    off-centre point (where only flat space keeps a symmetry), and a from
    Rc/3, 0, a diagonal with repeated entries or a symmetric matrix."""
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(16):
        spec, r_s = _CHARTS[rng.integers(len(_CHARTS))]
        n = spec.n
        centre = np.zeros(n)
        if spec.n == 3 and rng.integers(3) == 0:
            centre[rng.integers(n)] = 0.1
        chart = make_chart(spec)
        curv = curvature_at(chart, centre)
        a = profile_matrix(n, curv, _draw_a(rng, n, curv))
        res = run_expansion(chart, centre, "L", mode=a, r_s=r_s,
                            t_points=4, curv=curv,
                            quad=QuadratureSpec(rule="radial_sphere", order=8))
        want = _expected_fold(spec, centre, a)
        assert res.meta["fold"] == want, (spec, centre, a)
        seen.add(None if want is None else len(want))
    # no fold, one block and partitions of two and more blocks all occur
    assert {None, 1, 2} <= seen


@pytest.mark.parametrize("n,r_s,order", [(3, 1.7, 16), (4, 1.45, 12)],
                         ids=["S3", "S4"])
def test_p4a_block_fold_agrees_with_the_rotated_full_rule(n, r_s, order):
    """a = diag(lambda, ..., mu, ...) on S^n folds onto the orbit rule of
    its two blocks; Q a Q^T for a random rotation Q is not diagonal and
    runs the full rule.  The geometry is rotation invariant, so the two
    runs integrate the same functionals.  Measured: within 1.8e-14
    against quadrature error estimates near 1e-6."""
    rng = np.random.default_rng(n)
    chart = make_chart(ModelSpec("space_form", n, K=1.0))
    quad = QuadratureSpec(order=order)
    for _ in range(2):
        lam, mu = rng.uniform(-0.4, 0.6, 2)
        d = np.full(n, lam)
        d[rng.choice(n, rng.integers(1, n), replace=False)] = mu
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        folded, full = (
            run_expansion(chart, np.zeros(n), "L", mode=a, r_s=r_s,
                          quad=quad, t_points=4)
            for a in (np.diag(d), Q @ np.diag(d) @ Q.T)
        )
        assert len(folded.meta["fold"]) == 2 and full.meta["fold"] is None
        assert 50 * folded.meta["rays"] < full.meta["rays"]
        bar = np.maximum(folded.errors, full.errors)
        assert np.all(np.abs(folded.values - full.values) <= bar)
