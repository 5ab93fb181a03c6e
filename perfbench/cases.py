"""The benchmark's workloads: named cases, their correctness checks, and
the per-layer metrics derived from a traced pass.

Each case is one operation.  It calls curvex only through its public
functions and checks the result against the acceptance-gate tolerances
of tests/test_acceptance.py (c04-c11).  A series case calls run_expansion
either way; run traced, each step run_expansion calls (normal chart, test
function, time grid, each evaluation, the fit) runs inside a span, and
the chart's metric callable and the test function's eta2_with_grad are
wrapped with counters.  Tracing adds no arithmetic, so traced and
untraced outputs agree bit for bit.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

import curvex.expansion as expansion
from curvex import (
    ModelSpec,
    Perturbation,
    QuadratureSpec,
    assess_rigidity,
    ball_volume,
    bishop_gromov_ratio,
    build_normal_chart,
    build_test_function,
    curvature_at,
    fit_volume_series,
    make_chart,
    mu_ball,
    mu_bound_report,
    norm_sq,
    predict_volume,
    rm_bound_from_mu,
    run_expansion,
    space_form_curvature,
    symmetrize,
)
from curvex.charts import PROFILES

from spans import Tracer, count_calls


def _span(tr: Tracer | None, name: str):
    return tr.span(name) if tr is not None else nullcontext()


def _count_metric(tr: Tracer | None, chart):
    if tr is not None:
        chart.metric = count_calls(tr, chart.metric, "metric_calls", "metric_pts")
    return chart


def _count_kernel(tr: Tracer | None, tf):
    if tr is not None:
        tf.eta2_with_grad = count_calls(
            tr, tf.eta2_with_grad, "kernel_calls", "kernel_pts", "kernel_s"
        )


# the steps run_expansion looks up in curvex.expansion, and their spans
_EXPANSION_STEPS = {
    "prepare_normal_chart": "charts.prepare_normal_chart",
    "build_test_function": "functionals.build_test_function",
    "make_tgrid": "expansion.make_tgrid",
    "eval_L_normalized": "functionals.eval_L_normalized",
    "eval_W_normalized": "functionals.eval_W_normalized",
    "extract_series": "expansion.extract_series",
}


@contextmanager
def _expansion_spans(tr: Tracer | None):
    """While open, each step run_expansion calls runs inside its span, and
    every test function it builds gets the kernel counter.  The steps are
    swapped in the module run_expansion reads them from and restored on
    exit, so the traced pass runs run_expansion itself."""
    if tr is None:
        yield
        return

    def spanned(name, fn):
        def wrapped(*args, **kwargs):
            with tr.span(_EXPANSION_STEPS[name]):
                out = fn(*args, **kwargs)
            if name == "build_test_function":
                _count_kernel(tr, out)
            return out

        return wrapped

    saved = {name: getattr(expansion, name) for name in _EXPANSION_STEPS}
    try:
        for name, fn in saved.items():
            setattr(expansion, name, spanned(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(expansion, name, fn)


def _count(tr: Tracer | None, **counts):
    """Counts read from a result, added to the innermost open span."""
    if tr is not None:
        for key, value in counts.items():
            tr.count(key, value)


def _hex(x):
    """Exact, comparable form of a float or an array of floats."""
    if np.ndim(x) == 0:
        return float(x).hex()
    return [float(v).hex() for v in np.ravel(x)]


# ---------------------------------------------------------------------------
# checks: each returns (name, use, ok) where use = |measured - reference| /
# tolerance, so a check passes when use <= 1; flags carry use None


def rel_check(name, got, want, rtol):
    use = abs(got - want) / (rtol * abs(want))
    return (name, use, bool(use <= 1.0))


def abs_check(name, got, want, atol):
    use = abs(got - want) / atol
    return (name, use, bool(use <= 1.0))


def bounds_check(name, got, want, lo, hi):
    """lo <= got <= hi around the reference want; the tolerance is the
    distance from want to the bound on got's side."""
    use = (got - want) / (hi - want) if got >= want else (want - got) / (want - lo)
    return (name, use, bool(lo <= got <= hi))


def flag_check(name, ok):
    return (name, None, bool(ok))


# ---------------------------------------------------------------------------
# series cases


@dataclass(frozen=True)
class Series:
    """run_expansion at the chart origin with default time grid, optimal a
    and normalized alpha; `check` names the acceptance rule that applies:
    'c04' (space form, L), 'c05' (space form, W) or 'c06' (ODE chart)."""

    name: str
    spec: Callable[[], ModelSpec]
    functional: str
    r_s: float
    rule: str
    order: int
    check: str

    def __call__(self, seed: int, tr: Tracer | None):
        with _span(tr, "charts.make_chart"):
            chart = make_chart(self.spec())
        _count_metric(tr, chart)
        p = np.zeros(chart.n)
        # the seed only reaches rules that draw random nodes (n >= 5)
        quad = QuadratureSpec(rule=self.rule, order=self.order, seed=seed)
        with _span(tr, "charts.curvature_at"):
            curv = curvature_at(chart, p)
        with _expansion_spans(tr):
            res = run_expansion(
                chart, p, functional=self.functional, r_s=self.r_s,
                quad=quad, curv=curv,
            )
        fit, pred = res.fit, res.predicted
        outputs = {
            "values": _hex(res.values),
            **{k: _hex(v) for k, v in vars(fit).items()},
            "pred_c1": _hex(pred.c1),
            "pred_c2": _hex(pred.c2),
        }
        return outputs, self._checks(chart, curv, fit)

    def _checks(self, chart, curv, fit):
        if self.check == "c06":
            want = -(curv.lap_sc + norm_sq(curv.rm) / 6.0)
            return [rel_check("c2", fit.c2, want, 0.10)]
        n, K = chart.n, chart.K
        want_c2 = -(2 * n * (n - 1) * K * K) / 6.0
        if self.check == "c04":
            return [
                rel_check("c1", fit.c1, -n * (n - 1) * K, 5e-3),
                rel_check("c2", fit.c2, want_c2, 5e-2),
            ]
        return [  # c05
            abs_check("c1", fit.c1, 0.0, 1e-3),
            rel_check("c2", fit.c2, want_c2, 5e-2),
        ]


def _space_form(n, K, halfwidth=None):
    return lambda: ModelSpec("space_form", n, K=K, halfwidth=halfwidth)


def _conformal_bump():
    return ModelSpec(
        "conformal_flat", 3,
        perturbation=Perturbation(0.05, PROFILES["quartic_bump"]),
        halfwidth=1.5,
    )


def _sphere_line():
    return ModelSpec("product_sphere_line", 3, K=1.0)


# ---------------------------------------------------------------------------
# probe cases (acceptance checks c07-c11)


def c07_volume_series(seed, tr):
    with _span(tr, "charts.make_chart"):
        ch = _count_metric(tr, make_chart(_space_form(3, 1.0, 1.75)()))
    with _span(tr, "charts.build_normal_chart"):
        nc = build_normal_chart(ch, np.zeros(3), 1.0)
    radii = np.linspace(0.15, 0.95, 12)
    vols = []
    for r in radii:
        with _span(tr, "functionals.ball_volume"):
            vols.append(ball_volume(nc, float(r)))
    with _span(tr, "expansion.fit_volume_series"):
        fit = fit_volume_series(radii, vols, 3)
    _, r4_pred = predict_volume(space_form_curvature(3, 1.0))
    outputs = {"vols": _hex(vols), "c1": _hex(fit.c1), "c2": _hex(fit.c2)}
    return outputs, [
        rel_check("r2", fit.c1, -0.2, 1e-2),
        rel_check("r4", fit.c2, r4_pred, 5e-2),
    ]


def c08_symmetrize(seed, tr):
    with _span(tr, "charts.make_chart"):
        ch = _count_metric(tr, make_chart(ModelSpec("flat", 3, halfwidth=2.0)))
    with _span(tr, "charts.build_normal_chart"):
        nc = build_normal_chart(ch, np.zeros(3), 1.6)
    with _span(tr, "functionals.build_test_function"):
        tf = build_test_function(
            nc, mode=np.diag([0.3, -0.1, 0.05]), alpha=0.0, r_s=1.6
        )
    _count_kernel(tr, tf)
    with _span(tr, "isoperimetry.symmetrize"):
        res = symmetrize(tf, t=0.01, K=0.0, levels=512, order=32)
    ball = (4.0 * math.pi / 3.0) * res.r_bar**3  # flat 3-ball volume
    mass_tol = 1e-8 * max(1.0, res.mass_original)
    ent_tol = 1e-8 * max(1.0, abs(res.entropy_original))
    outputs = {
        k: _hex(getattr(res, k))
        for k in (
            "volumes", "r_bar", "mass_original", "mass_symmetrized",
            "entropy_original", "entropy_symmetrized",
            "dirichlet_original", "dirichlet_symmetrized",
        )
    }
    return outputs, [
        abs_check("equimeasurable", np.max(np.abs(ball / res.volumes - 1.0)),
                  0.0, 1e-9),
        flag_check("volumes_increase", np.all(np.diff(res.volumes) > 0)),
        abs_check("mass_drift", res.mass_symmetrized, res.mass_original,
                  mass_tol),
        abs_check("entropy_drift", res.entropy_symmetrized,
                  res.entropy_original, ent_tol),
        flag_check("dirichlet_gap",
                   res.dirichlet_original >= res.dirichlet_symmetrized),
    ]


def c09_mu(seed, tr):
    checks, outputs = [], {}
    for R, t in ((2.0, 0.01), (1.0, 0.0025)):
        with _span(tr, "mu_solver.mu_ball"):
            res = mu_ball(3, 0.0, R, t)
            _count(tr, iterations=res.iterations, grid_nodes=res.meta["m"])
        outputs[f"flat_R{R}"] = _hex(res.value)
        checks += [
            flag_check(f"flat_R{R}_converged", res.converged),
            bounds_check(f"flat_R{R}_mu", res.value, 0.0, -1e-6, 1e-3),
            flag_check(f"flat_R{R}_witness", res.witness_ok),
        ]
    ts = [0.01, 0.02, 0.04]
    mus = []
    for t in ts:
        with _span(tr, "mu_solver.mu_ball"):
            res = mu_ball(3, 1.0, np.pi - 0.05, t, per_width=64)
            _count(tr, iterations=res.iterations, grid_nodes=res.meta["m"])
        mus.append(res.value)
    with _span(tr, "mu_solver.mu_bound_report"):
        rep = mu_bound_report(ts, mus)
    outputs["sphere_mus"] = _hex(mus)
    outputs["q_fit"] = _hex(rep.q_fit)
    checks += [
        # mu ~ -(|Rm|^2/6) t^2 = -2 t^2 on the unit 3-sphere
        bounds_check("q_fit", rep.q_fit, 2.0, 1.9, 2.3),
        abs_check("rm_bound_12", rm_bound_from_mu(2.0, 0.0), 12.0, 1e-13),
        abs_check("rm_bound_24", rm_bound_from_mu(2.0, 1.0 / 12.0), 24.0, 1e-12),
    ]
    return outputs, checks


def c10_volume_ratio(seed, tr):
    radii = np.linspace(0.15, 1.2, 8)
    outputs = {}
    checks = []
    for kind, spec, K in (
        ("sphere", _space_form(3, 1.0, 1.75)(), 1.0),
        ("flat", ModelSpec("flat", 3, halfwidth=2.0), -1.0),
    ):
        with _span(tr, "charts.make_chart"):
            ch = _count_metric(tr, make_chart(spec))
        with _span(tr, "charts.build_normal_chart"):
            nc = build_normal_chart(ch, np.zeros(3), 1.3)
        with _span(tr, "functionals.bishop_gromov_ratio"):
            ratios = bishop_gromov_ratio(nc, radii, K)
        outputs[kind] = _hex(ratios)
        if kind == "sphere":
            checks.append(abs_check("sphere_ratio_constant", np.ptp(ratios),
                                    0.0, 1e-9))
        else:
            checks.append(flag_check("flat_ratio_decreasing",
                                     np.all(np.diff(ratios) < 0)))
    return outputs, checks


def rigidity_points(n: int, halfwidth: float, seed: int):
    """The chart origin plus four points drawn from the seed, spread over
    the central half of the chart box like assess_rigidity's own sampler."""
    rng = np.random.default_rng(seed)
    return [np.zeros(n)] + [
        rng.uniform(-0.5 * halfwidth, 0.5 * halfwidth, size=n) for _ in range(4)
    ]


def c11_rigidity(seed, tr):
    outputs, checks = {}, []
    for kind, spec in (
        ("sphere", _space_form(3, 1.0, 1.75)()),
        ("flat", ModelSpec("flat", 3, halfwidth=2.0)),
    ):
        with _span(tr, "charts.make_chart"):
            ch = _count_metric(tr, make_chart(spec))
        pts = rigidity_points(3, float(np.min(ch.domain.hi)), seed)
        with _span(tr, "rigidity.assess_rigidity"):
            rep = assess_rigidity(ch, 1.0, points=pts)
            _count(tr, checks=len(rep.checks))
        outputs[kind] = [rep.verdict, _hex(rep.scalar_margin),
                         _hex([c.margin for c in rep.checks])]
        if kind == "sphere":
            checks += [
                flag_check("sphere_verdict",
                           rep.verdict == "consistent_with_rigidity"),
                abs_check("sphere_scalar_margin", rep.scalar_margin, 0.0, 1e-6),
                abs_check("sphere_worst_margin",
                          max(abs(c.margin) for c in rep.checks), 0.0, 1e-6),
            ]
        else:
            checks += [
                flag_check("flat_verdict", rep.verdict == "hypothesis_violated"),
                abs_check("flat_scalar_margin", rep.scalar_margin, -6.0, 1e-6),
            ]
    return outputs, checks


# ---------------------------------------------------------------------------
# workloads

WORKLOADS: dict[str, list] = {
    "series_hermite": [
        Series("S4_L_hermite24", _space_form(4, 1.0), "L", 1.45,
               "hermite", 24, "c04"),
        Series("H3_L_hermite40", _space_form(3, -1.0), "L", 1.1,
               "hermite", 40, "c04"),
    ],
    "series_auto": [
        Series("S4_W_auto16", _space_form(4, 1.0), "W", 1.45,
               "auto", 16, "c05"),
        Series("S3_L_auto24", _space_form(3, 1.0), "L", 1.7,
               "auto", 24, "c04"),
    ],
    "series_ode": [
        Series("conformal3_L_radial16", _conformal_bump, "L", 0.9,
               "radial_sphere", 16, "c06"),
        Series("S2xR_L_radial16", _sphere_line, "L", 0.9,
               "radial_sphere", 16, "c06"),
    ],
    "probes": [c07_volume_series, c08_symmetrize, c09_mu, c10_volume_ratio,
               c11_rigidity],
}


def case_name(case) -> str:
    return case.name if isinstance(case, Series) else case.__name__


def run_pass(cases: list, seed: int, tr: Tracer | None,
             calibrate: Callable[[], float] | None = None,
             cal_s: float | None = None) -> dict:
    """One pass over a workload's cases, each started when the previous
    one finished.  A case that raises or misses a tolerance counts as a
    failed operation; it is never retried.

    With `calibrate`, the machine's speed is timed after every case (and
    before the first, unless `cal_s` gives that time), and each operation
    records the mean of the calibration times on its two sides; the pass
    times are the sums over its cases, calibrations left out."""
    ops = []
    if calibrate is not None and cal_s is None:
        cal_s = calibrate()
    for case in cases:
        name = case_name(case)
        c0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with _span(tr, f"case.{name}"):
                outputs, checks = case(seed, tr)
            error = None
        except Exception as exc:  # a failed operation, reported not raised
            outputs, checks, error = {}, [], f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - c0, time.process_time() - cpu0
        after = calibrate() if calibrate is not None else None
        ops.append(
            {
                "name": name,
                "wall_s": wall,
                "cpu_s": cpu,
                "cal_s": None if after is None else (cal_s + after) / 2,
                "ok": error is None and all(ok for _, _, ok in checks),
                "error": error,
                "checks": [
                    {"name": n, "use": u, "ok": ok} for n, u, ok in checks
                ],
                "outputs": outputs,
            }
        )
        cal_s = after
    return {
        "wall_s": sum(op["wall_s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "ops": ops,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

PER_LAYER = [
    ("charts.make_chart_s", "s"),
    ("charts.curvature_s", "s"),
    ("charts.normal_chart_s", "s"),
    ("charts.metric_calls", "count"),
    ("charts.metric_pts", "count"),
    ("charts.peak_mb", "MB"),
    ("functionals.eval_s", "s"),
    ("functionals.eval_first_s", "s"),
    ("functionals.evals", "count"),
    ("functionals.kernel_pts", "count"),
    ("functionals.kernel_pts_per_s", "1/s"),
    ("functionals.ball_volume_s", "s"),
    ("functionals.peak_mb", "MB"),
    ("expansion.fit_s", "s"),
    ("isoperimetry.symmetrize_s", "s"),
    ("isoperimetry.kernel_pts", "count"),
    ("rigidity.assess_s", "s"),
    ("rigidity.checks", "count"),
    ("mu_solver.mu_ball_s", "s"),
    ("mu_solver.iterations", "count"),
    ("mu_solver.grid_nodes", "count"),
]

# metrics that count work; they must repeat exactly between passes
COUNTS = [name for name, unit in PER_LAYER if unit == "count"]

_TIME_SPANS = {
    "charts.make_chart_s": ("charts.make_chart",),
    "charts.curvature_s": ("charts.curvature_at",),
    "charts.normal_chart_s": ("charts.prepare_normal_chart",
                              "charts.build_normal_chart"),
    "functionals.eval_s": ("functionals.eval_L_normalized",
                           "functionals.eval_W_normalized"),
    "functionals.ball_volume_s": ("functionals.ball_volume",
                                  "functionals.bishop_gromov_ratio"),
    "expansion.fit_s": ("expansion.extract_series",
                        "expansion.fit_volume_series"),
    "isoperimetry.symmetrize_s": ("isoperimetry.symmetrize",),
    "rigidity.assess_s": ("rigidity.assess_rigidity",),
    "mu_solver.mu_ball_s": ("mu_solver.mu_ball",),
}


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    def total(names):
        return sum(s["self_s"] for s in spans if s["name"] in names)

    def counted(key, prefix=""):
        return sum(
            s["counts"].get(key, 0) for s in spans if s["name"].startswith(prefix)
        )

    def peak_mb(layer):
        """None when the pass traced no memory."""
        peaks = [s["peak_bytes"] for s in spans
                 if s["name"].startswith(layer + ".")]
        if None in peaks:
            return None
        return max(peaks, default=0) / 2**20

    out = {name: total(names) for name, names in _TIME_SPANS.items()}
    evals = _TIME_SPANS["functionals.eval_s"]
    first, prev = 0.0, None
    for s in spans:  # the first time point of each expansion
        if s["name"] in evals and prev not in evals:
            first += s["self_s"]
        if s["name"].startswith(("functionals.", "expansion.")):
            prev = s["name"]
    kernel_s = counted("kernel_s")
    out.update(
        {
            "charts.metric_calls": counted("metric_calls"),
            "charts.metric_pts": counted("metric_pts"),
            "charts.peak_mb": peak_mb("charts"),
            "functionals.eval_first_s": first,
            "functionals.evals": sum(
                s["counts"].get("kernel_calls", 0)
                for s in spans if s["name"] in evals
            ),
            "functionals.kernel_pts": counted("kernel_pts"),
            "functionals.kernel_pts_per_s": (
                counted("kernel_pts") / kernel_s if kernel_s > 0 else 0.0
            ),
            "functionals.peak_mb": peak_mb("functionals"),
            "isoperimetry.kernel_pts": counted("kernel_pts", "isoperimetry."),
            "rigidity.checks": counted("checks"),
            "mu_solver.iterations": counted("iterations"),
            "mu_solver.grid_nodes": counted("grid_nodes"),
        }
    )
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}
