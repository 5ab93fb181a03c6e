"""Small-time series: predicted coefficients and least-squares extraction.

For the normalized deficit L(u)/M(u) of the standard test function the
expansion is value = c1 * t + c2 * t^2 + o(t^2) with

  c1 = -Sc
  c2 = -( lap Sc + |Rm|^2 / 6 - 4 |a - Rc/3|^2 )

all evaluated at the center.  The unnormalized deficit
L(u) = M (c1 t + c2 t^2) differs at t^2 by Sc m1, the mass being
M = 1 + m1 t + O(t^2) with m1 = 2 tr(a) - Sc/3.  The profile is
1 + x.a.x; L, M and the Sc integral are 2-homogeneous in u, so L/M and
W/M do not see a constant factor on u.  The normalized curvature
average contributes Sc * t + lap Sc * t^2, so the entropy functional
keeps only the quadratic -( |Rm|^2/6 - 4 |a - Rc/3|^2 ) * t^2.
Extraction fits values on a geometric time grid by weighted least squares,
reports the smallest-half refit as the headline and the full-vs-half drift
as a systematic error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._spaceform import omega_n
from .charts import MetricChart, build_normal_chart, center_symmetry, curvature_at
from .errors import ConfigInvalid, IllConditionedFit, NoiseDominates
from .functionals import (
    QuadratureSpec,
    build_test_function,
    eval_L_normalized,
    eval_W_normalized,
    fold_level,
    profile_matrix,
    ray_bundle,
)
from .tensor_core import CurvatureData, norm_sq

__all__ = [
    "SeriesPrediction",
    "SeriesFit",
    "ExpansionResult",
    "predict_L",
    "predict_scalar_term",
    "predict_W",
    "predict_volume",
    "make_tgrid",
    "extract_series",
    "prepare_normal_chart",
    "run_expansion",
    "fit_volume_series",
]


@dataclass(frozen=True)
class SeriesPrediction:
    c1: float
    c2: float


def predict_L(curv: CurvatureData, a) -> SeriesPrediction:
    """Coefficients of the normalized deficit L(u)/M(u) through second
    order, what run_expansion fits, for the profile 1 + x.a.x."""
    mis = norm_sq(np.asarray(a, dtype=float) - curv.rc / 3.0)  # profile mismatch
    c2 = -(curv.lap_sc + norm_sq(curv.rm) / 6.0 - 4.0 * mis)
    return SeriesPrediction(c1=-curv.sc, c2=c2)


def predict_scalar_term(curv: CurvatureData) -> SeriesPrediction:
    """Coefficients of t * (the average of Sc against u^2 over its mass):
    the normalized weight has second moments 2 t I, so the average is
    Sc + lap Sc t + O(t^2), whatever a."""
    return SeriesPrediction(c1=curv.sc, c2=curv.lap_sc)


def predict_W(curv: CurvatureData, a) -> SeriesPrediction:
    """Entropy functional: the linear terms cancel and the quadratic keeps
    only the curvature-norm and profile-mismatch pieces."""
    L = predict_L(curv, a)
    s = predict_scalar_term(curv)
    return SeriesPrediction(c1=L.c1 + s.c1, c2=L.c2 + s.c2)


def predict_volume(curv: CurvatureData) -> tuple[float, float]:
    """(r^2, r^4) coefficients of Vol(B_r) / (omega_n r^n) - 1."""
    n = curv.n
    r2 = -curv.sc / (6.0 * (n + 2))
    r4 = -(
        curv.lap_sc
        - (5.0 / 18.0) * curv.sc**2
        + norm_sq(curv.rm) / 6.0
        - (4.0 / 9.0) * norm_sq(curv.rc)
    ) / (20.0 * (n + 2) * (n + 4))
    return r2, r4


def make_tgrid(t_max: float, points: int = 10):
    """Geometric time grid descending from t_max by factors 2^-1/2,
    returned ascending."""
    if points < 4:
        raise ConfigInvalid("need at least 4 grid points")
    ts = t_max * (2**-0.5) ** np.arange(points)
    return ts[::-1].copy()


@dataclass
class SeriesFit:
    c1: float
    c2: float
    c1_stderr: float
    c2_stderr: float
    c1_sys: float  # full-grid vs half-grid drift
    c2_sys: float
    cond: float
    c1_full: float
    c2_full: float


def _wlsq(ts, ys, ws):
    X = np.stack([ts, ts**2], axis=-1)
    sw = np.sqrt(ws)
    Xw = X * sw[:, None]
    cond = float(np.linalg.cond(Xw))
    if cond > 1e8:
        raise IllConditionedFit(f"design matrix condition {cond:.2e}")
    A = Xw.T @ Xw
    beta = np.linalg.solve(A, Xw.T @ (ys * sw))
    cov = np.linalg.inv(A)
    return beta, np.sqrt(np.diag(cov)), cond


def extract_series(
    ts,
    values,
    errors=None,
    expected_c2_scale: float | None = None,
) -> SeriesFit:
    """Fit values = c1 t + c2 t^2 by weighted least squares.

    Weights are 1 / (err^2 + (1e-14 |value|)^2).  The headline numbers come
    from refitting on the smaller half of the grid (closer to the t -> 0
    limit); the drift between the two fits is reported as a systematic.
    When expected_c2_scale is given and the statistical error on c2
    swamps it, raises NoiseDominates.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1:
        raise ConfigInvalid("grid and values must be matching 1-d arrays")
    if ts.size < 4:
        raise ConfigInvalid("need at least 4 points to fit and cross-check")
    order = np.argsort(ts)
    ts, values = ts[order], values[order]
    if errors is None:
        errors = np.zeros_like(values)
    else:
        errors = np.asarray(errors, dtype=float)[order]
    ws = 1.0 / (errors**2 + (1e-14 * np.abs(values)) ** 2 + 1e-300)

    beta_full, _, cond_full = _wlsq(ts, values, ws)
    half = max(4, ts.size // 2)
    bh, se, cond_half = _wlsq(ts[:half], values[:half], ws[:half])

    fit = SeriesFit(
        c1=float(bh[0]),
        c2=float(bh[1]),
        c1_stderr=float(se[0]),
        c2_stderr=float(se[1]),
        c1_sys=float(abs(bh[0] - beta_full[0])),
        c2_sys=float(abs(bh[1] - beta_full[1])),
        cond=max(cond_full, cond_half),
        c1_full=float(beta_full[0]),
        c2_full=float(beta_full[1]),
    )
    if expected_c2_scale is not None and fit.c2_stderr > 0.25 * abs(
        expected_c2_scale
    ):
        raise NoiseDominates(
            f"c2 statistical error {fit.c2_stderr:.2e} dwarfs the expected "
            f"scale {expected_c2_scale:.2e}"
        )
    return fit


# ---------------------------------------------------------------------------
# drivers


def prepare_normal_chart(chart: MetricChart, p, r_s: float, quad: QuadratureSpec,
                         a=None):
    """Normal chart at p of radius r_s: the warped chart at a warped
    centre (build_normal_chart), else an ode chart shot along the
    radial-spherical rule of quad, so the two stay aligned.

    That rule folds as far as a, the test function's profile matrix, and
    the chart's symmetry about p allow (functionals.fold_level), onto the
    orbit rule of the common refinement of their partitions: at n = 3 and
    order 16, 8 rays instead of 512 for a = Rc/3 on S^2 x R, the
    orthant's 72 for a diagonal a with distinct entries, the full rule for
    any other a.  a = None stands for no test function (volumes, shells,
    probes)."""
    p = np.asarray(p, dtype=float)
    fold = fold_level(a, center_symmetry(chart, p))
    return build_normal_chart(chart, p, r_s, fold=fold,
                              rule=ray_bundle(chart.n, quad.order, fold))


@dataclass
class ExpansionResult:
    ts: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    fit: SeriesFit
    predicted: SeriesPrediction
    functional: str
    meta: dict = field(default_factory=dict)


def run_expansion(
    chart: MetricChart,
    p,
    functional: str = "L",
    mode="optimal_a",
    r_s: float | None = None,
    t_max: float | None = None,
    t_points: int = 10,
    quad: QuadratureSpec = QuadratureSpec(),
    curv: CurvatureData | None = None,
) -> ExpansionResult:
    """Evaluate the normalized functional on a geometric grid and fit.

    t_max defaults to r_s^2 / 720, which keeps the cutoff region about
    6.7 sigma out, so truncation never pollutes the fit.
    """
    if functional not in ("L", "W"):
        raise ConfigInvalid("functional must be 'L' or 'W'")
    p = np.asarray(p, dtype=float)
    if curv is None:
        curv = curvature_at(chart, p, want_hessian=False)
    if r_s is None:
        raise ConfigInvalid("r_s is required")
    if t_max is None:
        t_max = r_s**2 / 720.0
    nc = prepare_normal_chart(chart, p, r_s, quad,
                              a=profile_matrix(chart.n, curv, mode))
    tf = build_test_function(nc, curv, mode=mode, r_s=r_s)
    pred = (predict_L if functional == "L" else predict_W)(curv, tf.a)
    ts = make_tgrid(t_max, t_points)
    evaluate = eval_L_normalized if functional == "L" else eval_W_normalized
    values, errors, ran = evaluate(tf, ts, quad)
    fit = extract_series(ts, values, errors)
    return ExpansionResult(
        ts=ts,
        values=values,
        errors=errors,
        fit=fit,
        predicted=pred,
        functional=functional,
        meta={
            "mode": mode if isinstance(mode, str) else "explicit",
            "r_s": r_s,
            "order": quad.order,
            **ran,
            "normal_chart": nc.kind,
            "christoffel": chart.christoffel_route,
            **(
                {"nfev": nc.nfev, "gauss_residual": nc.gauss_residual}
                if nc.kind == "ode" else {}
            ),
        },
    )


def fit_volume_series(radii, volumes, n: int) -> SeriesFit:
    """Fit Vol(B_r)/(omega_n r^n) - 1 = A r^2 + B r^4 via the series
    machinery (substituting s = r^2)."""
    radii = np.asarray(radii, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    ratio = volumes / (omega_n(n) * radii**n) - 1.0
    return extract_series(radii**2, ratio)
