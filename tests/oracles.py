"""Pointwise reference formulas shared by the test modules.

They are written out from the definitions, independent of the ray form
the library evaluates, so the tests can compare the two."""

import numpy as np


def eta2_pointwise(tf, X, t, r=None):
    """(eta^2, grad eta^2) of a TestFunction at points X (m, n); r = |X|
    when given.

    eta^2 = scale^2 cut(|x|/r_s) (1 + x.a.x + alpha t), with the quintic
    smoothstep cut(s) = 1 - w^3 (10 - 15 w + 6 w^2), w = clip(2s - 1, 0, 1);
    floored at 1e-300, with the gradient zeroed where it is floored."""
    if r is None:
        r = np.linalg.norm(X, axis=1)
    w = np.clip(2.0 * r / tf.r_s - 1.0, 0.0, 1.0)
    cut = 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w)
    dcut_dr = -60.0 * (w * (1.0 - w)) ** 2 / tf.r_s
    ax = X @ tf.a
    poly = 1.0 + np.einsum("mi,mi->m", X, ax) + tf.alpha * t
    raw = cut * poly
    clamped = raw <= 1e-300
    grad = tf.scale**2 * (
        (dcut_dr * poly / np.maximum(r, 1e-300))[:, None] * X
        + (2.0 * cut)[:, None] * ax
    )
    grad[clamped] = 0.0
    return tf.scale**2 * np.maximum(raw, 1e-300), grad


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
