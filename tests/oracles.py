"""Pointwise reference formulas shared by the test modules.

They are written out from the definitions, independent of the ray form
the library evaluates, so the tests can compare the two."""

import numpy as np


def eta2_pointwise(tf, X, r=None):
    """(eta^2, grad eta^2) of a TestFunction at points X (m, n), the same
    at every time; r = |X| when given.

    eta^2 = cut(|x|/r_s) (1 + x.a.x), with the quintic
    smoothstep cut(s) = 1 - w^3 (10 - 15 w + 6 w^2), w = clip(2s - 1, 0, 1);
    floored at 1e-300, with the gradient zeroed where it is floored."""
    if r is None:
        r = np.linalg.norm(X, axis=1)
    w = np.clip(2.0 * r / tf.r_s - 1.0, 0.0, 1.0)
    cut = 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w)
    dcut_dr = -60.0 * (w * (1.0 - w)) ** 2 / tf.r_s
    ax = X @ tf.a
    poly = 1.0 + np.einsum("mi,mi->m", X, ax)
    raw = cut * poly
    clamped = raw <= 1e-300
    grad = (
        (dcut_dr * poly / np.maximum(r, 1e-300))[:, None] * X
        + (2.0 * cut)[:, None] * ax
    )
    grad[clamped] = 0.0
    return np.maximum(raw, 1e-300), grad


def recorded(monkeypatch, module, name):
    """Patch module.name to record each call: returns the list that
    collects (args, kwargs, result) per call."""
    calls = []
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


def full_ode_table(chart, nd, r_grid, t_out, states):
    """Spline in r of the density sqrt(det g~) and the whole g~^{-1},
    (nr, nd, 1 + n^2), rebuilt at the sample radii r_grid of an ode chart
    from the states its shooting sampled at t_out (rows: x (nd, n), then
    J (nd, n, n), rays in bundle order) with LAPACK determinants and
    inverses and scipy's not-a-knot cubic: g~ = (J/r)^T g(x) (J/r), and
    g~ = I at r = 0."""
    from scipy.interpolate import make_interp_spline

    n = chart.n
    y = states[np.searchsorted(t_out, r_grid)]
    assert np.array_equal(t_out[np.searchsorted(t_out, r_grid)], r_grid)
    x = y[:, : nd * n].reshape(-1, n)
    Jr = y[:, nd * n : nd * n * (n + 1)].reshape(-1, nd, n, n)
    Jr = Jr / np.where(r_grid > 0, r_grid, 1.0)[:, None, None, None]
    gt = Jr.swapaxes(-1, -2) @ chart.metric(x).reshape(Jr.shape) @ Jr
    gt[r_grid == 0] = np.eye(n)
    tab = np.concatenate(
        [np.sqrt(np.linalg.det(gt))[..., None],
         np.linalg.inv(gt).reshape(*gt.shape[:2], n * n)], axis=-1)
    return make_interp_spline(r_grid, tab, k=3, axis=0)


def curvature_symmetry_violations(rm, rtol=1e-14):
    """The symmetries of an algebraic curvature tensor that rm breaks,
    {name: largest defect}, empty when it has them all to rtol times
    max(1, max|rm|): antisymmetry in (0,1) and in (2,3), symmetry under
    pair exchange, and the first Bianchi identity on the last three slots."""
    e = np.asarray(rm, dtype=float)
    tol = rtol * max(1.0, float(np.abs(e).max()))
    defects = {
        "antisymmetry (0,1)": np.abs(e + e.transpose(1, 0, 2, 3)).max(),
        "antisymmetry (2,3)": np.abs(e + e.transpose(0, 1, 3, 2)).max(),
        "pair exchange": np.abs(e - e.transpose(2, 3, 0, 1)).max(),
        "first Bianchi": np.abs(
            e + e.transpose(0, 2, 3, 1) + e.transpose(0, 3, 1, 2)
        ).max(),
    }
    return {k: v for k, v in defects.items() if v > tol}


def shooting_chart(chart, mark=None):
    """chart's metric and Christoffel symbols in a hand-built MetricChart.
    It carries no warp, so its normal charts are shot at every centre:
    the shooting route a warped chart's geometry is checked against.  mark,
    a partition, stands in for the symmetry mark make_chart gives the
    catalog chart, so that a bundle may be folded at the origin."""
    from curvex.charts import MetricChart

    bare = MetricChart(chart.n, chart.domain, chart.metric,
                       christoffel=chart.christoffel)
    bare._symmetry = mark
    return bare


def conformal_warp(eps, phi, rho, dps=30):
    """(r, f) of the conformal chart e^{2 eps phi(|x|^2)} delta at the
    coordinate radii rho, by mpmath at dps digits: the arc length
    r = int_0^rho e^{eps phi(u^2)} du by tanh-sinh quadrature, and
    f = rho e^{eps phi(rho^2)}.  phi maps an mpmath number to one."""
    import mpmath

    with mpmath.workdps(dps):
        eps = mpmath.mpf(eps)
        out = []
        for x in rho:
            x = mpmath.mpf(float(x))
            r = mpmath.quad(lambda u: mpmath.exp(eps * phi(u * u)), [0, x])
            out.append((float(r), float(x * mpmath.exp(eps * phi(x * x)))))
    return np.array(out).T
