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
