"""Command-line front end.

    curvex <experiment> --config cfg.ini [--out DIR] [--seed N] [--no-timestamp]

Experiments: expand_L, expand_W, volume, isoprofile, symmetrize, mu,
rigidity, moments_selftest.  Configuration is INI-style with [chart],
[experiment], [quadrature] and [output] sections, each experiment reading
those EXPERIMENTS lists; a missing section reads as empty, so its
defaults run.  Every experiment writes <experiment>.json (full
machine-readable summary, deterministically serialized) and, where a
table is natural, <experiment>.csv.

Exit status: 0 on success, 2 when the experiment ran but a configured
tolerance or expectation failed, 1 on errors, a config key or section the
experiment does not read too.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._spaceform import sphere_area_K
from .charts import (
    PROFILES,
    ModelSpec,
    Perturbation,
    build_normal_chart,
    curvature_at,
    make_chart,
)
from .errors import ConfigInvalid, CurvexError
from .expansion import (
    fit_volume_series,
    predict_volume,
    prepare_normal_chart,
    run_expansion,
)
from .functionals import QuadratureSpec, ball_volume, build_test_function
from .isoperimetry import iso_profile_radius, symmetrize
from .mu_solver import mu_bound_report, mu_curve
from .rigidity import assess_rigidity


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _known(found, keys: str, what: str):
    """found; ConfigInvalid, naming what, on an entry not among the
    space-separated keys."""
    unknown = sorted(set(found) - set(keys.lower().split()))
    if unknown:
        raise ConfigInvalid(f"unknown {what} {unknown}: only {keys}")
    return found


def _section(cfg: configparser.ConfigParser, name: str, keys: str):
    """The [name] section, empty when the config has none; ConfigInvalid
    on a key not among the space-separated keys."""
    return _known(cfg[name] if cfg.has_section(name) else {}, keys,
                  f"[{name}] keys")


def _chart_from(cfg: configparser.ConfigParser):
    sec = _section(cfg, "chart", "kind n K halfwidth eps profile")
    kind = sec.get("kind", "flat")
    n = int(sec.get("n", 3))
    K = float(sec.get("K", 0.0))
    hw = sec.get("halfwidth")
    pert = None
    if "eps" in sec:
        name = sec.get("profile", "quartic_bump")
        if name not in PROFILES:
            raise ConfigInvalid(f"unknown perturbation profile {name!r}")
        pert = Perturbation(
            eps=float(sec["eps"]), profile=PROFILES[name], name=name
        )
    spec = ModelSpec(
        kind=kind,
        n=n,
        K=K,
        perturbation=pert,
        halfwidth=float(hw) if hw is not None else None,
    )
    return make_chart(spec)


def _quad_from(cfg: configparser.ConfigParser):
    sec = _section(cfg, "quadrature", "rule order c_trunc")
    return QuadratureSpec(
        rule=sec.get("rule", "auto"),
        order=int(sec.get("order", 40)),
        c_trunc=float(sec.get("c_trunc", 10.0)),
    )


def _close(measured: float, target: float, rtol: float, atol: float) -> bool:
    return abs(measured - target) <= atol + rtol * abs(target)


def _expand(cfg, functional: str):
    sec = _section(cfg, "experiment", "r_s mode t_max t_points c1_rtol "
                   "c1_atol c2_rtol c2_atol")
    chart = _chart_from(cfg)
    quad = _quad_from(cfg)
    r_s = float(sec.get("r_s", 1.0))
    mode = sec.get("mode", "optimal_a")
    t_max_raw = sec.get("t_max", "auto")
    t_max = None if t_max_raw == "auto" else float(t_max_raw)

    result = run_expansion(
        chart,
        np.zeros(chart.n),
        functional=functional,
        mode=mode,
        r_s=r_s,
        t_max=t_max,
        t_points=int(sec.get("t_points", 10)),
        quad=quad,
    )
    fit, pred = result.fit, result.predicted
    c1_ok = _close(
        fit.c1, pred.c1,
        float(sec.get("c1_rtol", 0.02)), float(sec.get("c1_atol", 1e-6)),
    )
    c2_ok = _close(
        fit.c2, pred.c2,
        float(sec.get("c2_rtol", 0.10)), float(sec.get("c2_atol", 1e-4)),
    )
    payload = {
        "functional": functional,
        "predicted": {"c1": pred.c1, "c2": pred.c2},
        "fitted": {
            "c1": fit.c1,
            "c2": fit.c2,
            "c1_stderr": fit.c1_stderr,
            "c2_stderr": fit.c2_stderr,
            "cond": fit.cond,
        },
        "pass": bool(c1_ok and c2_ok),
        "margins": {
            "c1_error": fit.c1 - pred.c1,
            "c2_error": fit.c2 - pred.c2,
        },
        "meta": result.meta,
    }
    fitted_curve = fit.c1 * result.ts + fit.c2 * result.ts**2
    pred_curve = pred.c1 * result.ts + pred.c2 * result.ts**2
    rows = [
        ("t", "value", "error", "fitted", "predicted", "residual"),
        *zip(
            result.ts,
            result.values,
            result.errors,
            fitted_curve,
            pred_curve,
            result.values - fitted_curve,
        ),
    ]
    return payload, rows, payload["pass"]


def _volume(cfg, seed):
    sec = _section(cfg, "experiment", "chart_radius r_max points r2_rtol "
                   "r2_atol r4_rtol r4_atol")
    chart = _chart_from(cfg)
    r0 = float(sec.get("chart_radius", 0.9))
    # an ode chart is shot along the radial-spherical rule of [quadrature]
    nc = prepare_normal_chart(chart, np.zeros(chart.n), r0, _quad_from(cfg))
    r_hi = float(sec.get("r_max", 0.8 * r0))
    points = int(sec.get("points", 12))
    radii = np.linspace(r_hi / points, r_hi, points)
    vols = ball_volume(nc, radii)
    fit = fit_volume_series(radii, vols, chart.n)
    curv = curvature_at(chart, np.zeros(chart.n), want_hessian=False)
    r2_pred, r4_pred = predict_volume(curv)
    r2_ok = _close(fit.c1, r2_pred, float(sec.get("r2_rtol", 0.01)),
                   float(sec.get("r2_atol", 1e-9)))
    r4_ok = _close(fit.c2, r4_pred, float(sec.get("r4_rtol", 0.05)),
                   float(sec.get("r4_atol", 1e-9)))
    payload = {
        "predicted": {"r2": r2_pred, "r4": r4_pred},
        "fitted": {"r2": fit.c1, "r4": fit.c2,
                   "r2_stderr": fit.c1_stderr, "r4_stderr": fit.c2_stderr},
        "pass": bool(r2_ok and r4_ok),
    }
    rows = [("r", "volume"), *zip(radii, vols)]
    return payload, rows, payload["pass"]


def _isoprofile(cfg, seed):
    sec = _section(cfg, "experiment", "n K betas")
    n = int(sec.get("n", 3))
    K = float(sec.get("K", 0.0))
    betas = _floats(sec.get("betas", "0.5 1.0 2.0"))
    radii = iso_profile_radius(n, K, np.array(betas))
    table = [
        (b, float(r), float(a))
        for b, r, a in zip(betas, radii, sphere_area_K(n, K, radii))
    ]
    payload = {
        "n": n,
        "K": K,
        "profile": [
            {"volume": b, "radius": r, "area": a} for b, r, a in table
        ],
        "pass": True,
    }
    rows = [("volume", "radius", "area"), *table]
    return payload, rows, True


def _symmetrize(cfg, seed):
    sec = _section(cfg, "experiment", "chart_radius a r_s t K levels order "
                   "mass_tol")
    chart = _chart_from(cfg)
    nc = build_normal_chart(
        chart, np.zeros(chart.n), r0=float(sec.get("chart_radius", 1.6))
    )
    tf = build_test_function(
        nc, None, mode=np.diag(_floats(sec.get("a", "0 " * chart.n))),
        r_s=float(sec.get("r_s", 1.2)),
    )
    res = symmetrize(
        tf,
        t=float(sec.get("t", 0.01)),
        K=float(sec.get("K", 0.0)),
        levels=int(sec.get("levels", 512)),
        order=int(sec.get("order", 32)),
    )
    tol = float(sec.get("mass_tol", 1e-8))
    gap = res.dirichlet_original - res.dirichlet_symmetrized
    mass_ok = abs(res.mass_symmetrized - res.mass_original) < tol
    entropy_ok = abs(res.entropy_symmetrized - res.entropy_original) < tol
    gap_ok = gap >= -tol * max(1.0, res.dirichlet_original)
    payload = {
        "mass": {"original": res.mass_original,
                 "symmetrized": res.mass_symmetrized},
        "entropy": {"original": res.entropy_original,
                    "symmetrized": res.entropy_symmetrized},
        "dirichlet": {"original": res.dirichlet_original,
                      "symmetrized": res.dirichlet_symmetrized,
                      "gap": gap},
        "holder_margin_min": float(res.holder_margin().min()),
        "meta": res.meta,
        "pass": bool(mass_ok and entropy_ok and gap_ok),
    }
    rows = [
        ("level", "volume", "r_bar", "area_original", "area_comparison",
         "coarea"),
        *zip(res.levels, res.volumes, res.r_bar, res.area_original,
             res.area_comparison, res.coarea),
    ]
    return payload, rows, payload["pass"]


def _mu(cfg, seed):
    sec = _section(cfg, "experiment", "n K R ts per_width Q gamma")
    n = int(sec.get("n", 3))
    K = float(sec.get("K", 0.0))
    R = float(sec.get("R", 2.0))
    ts = _floats(sec.get("ts", "0.01 0.02 0.04"))
    results = mu_curve(
        n, K, R, ts, per_width=int(sec.get("per_width", 32)),
    )
    mus = [r.value for r in results]
    rep = mu_bound_report(
        ts, mus,
        Q=float(sec["Q"]) if "Q" in sec else None,
    )
    payload = {
        "n": n, "K": K, "R": R,
        "q_fit": rep.q_fit,
        "q_stderr": rep.q_stderr,
        "q_envelope": rep.q_envelope,
        "all_converged": bool(all(r.converged for r in results)),
        "witness_ok": bool(all(r.witness_ok for r in results)),
    }
    ok = payload["all_converged"] and payload["witness_ok"]
    if rep.satisfied is not None:
        payload["Q"] = rep.Q
        payload["hypothesis_satisfied"] = rep.satisfied
        ok = ok and rep.satisfied
    if "gamma" in sec:
        gamma = float(sec["gamma"])
        payload["gamma"] = gamma
        payload["rm_bound"] = rep.rm_bound(gamma)
    payload["pass"] = bool(ok)
    rows = [
        ("t", "mu", "iterations", "kkt_residual", "witness"),
        *(
            (r.t, r.value, r.iterations, r.kkt_residual, r.witness_value)
            for r in results
        ),
    ]
    return payload, rows, payload["pass"]


def _rigidity(cfg, seed):
    sec = _section(cfg, "experiment", "K npoints tol extended expect")
    chart = _chart_from(cfg)
    rep = assess_rigidity(
        chart,
        K=float(sec.get("K", 0.0)),
        npoints=int(sec.get("npoints", 5)),
        tol=float(sec.get("tol", 1e-6)),
        extended=sec.get("extended", "false").lower() == "true",
    )
    payload = {
        "verdict": rep.verdict,
        "scalar_margin": rep.scalar_margin,
        "checks": [
            {"name": c.name, "margin": c.margin, "passed": bool(c.passed)}
            for c in rep.checks
        ],
        "meta": rep.meta,
    }
    expect = sec.get("expect")
    ok = True
    if expect is not None:
        payload["expected_verdict"] = expect
        ok = rep.verdict == expect
    payload["pass"] = bool(ok)
    rows = [
        ("check", "margin", "passed"),
        *((c.name, c.margin, int(c.passed)) for c in rep.checks),
    ]
    return payload, rows, payload["pass"]


def _moments_selftest(cfg, seed):
    from .functionals import gaussian_integral
    from .moments import GaussianWeight, moment_quadratic

    sec = _section(cfg, "experiment", "n t trials tol")
    n = int(sec.get("n", 3))
    t = float(sec.get("t", 0.05))
    trials = int(sec.get("trials", 10))
    rng = np.random.default_rng(seed if seed is not None else 1234)
    quad = _quad_from(cfg)
    worst = 0.0
    for _ in range(trials):
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        exact = moment_quadratic(GaussianWeight(n, t), A)
        got, _ = gaussian_integral(
            n, t, lambda X: np.einsum("mi,ij,mj->m", X, A, X), quad
        )
        worst = max(worst, abs(got - exact) / max(abs(exact), 1e-300))
    tol = float(sec.get("tol", 1e-10))
    payload = {
        "n": n, "t": t, "trials": trials,
        "worst_relative_error": worst,
        "tolerance": tol,
        "pass": bool(worst < tol),
    }
    return payload, None, payload["pass"]


# each experiment and the config sections it reads
EXPERIMENTS = {
    "expand_L": (lambda cfg, seed: _expand(cfg, "L"),
                 "chart experiment quadrature output"),
    "expand_W": (lambda cfg, seed: _expand(cfg, "W"),
                 "chart experiment quadrature output"),
    "volume": (_volume, "chart experiment quadrature output"),
    "isoprofile": (_isoprofile, "experiment output"),
    "symmetrize": (_symmetrize, "chart experiment output"),
    "mu": (_mu, "experiment output"),
    "rigidity": (_rigidity, "chart experiment output"),
    "moments_selftest": (_moments_selftest, "experiment quadrature output"),
}


def _config_echo(cfg: configparser.ConfigParser) -> dict:
    return {s: dict(cfg[s]) for s in cfg.sections()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvex",
        description="curvature-functional verification experiments",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit wall-clock fields so reruns are byte-identical",
    )
    args = parser.parse_args(argv)

    try:
        cfg = configparser.ConfigParser()
        read = cfg.read(args.config)
        if not read:
            raise ConfigInvalid(f"config file {args.config!r} not found")

        run, sections = EXPERIMENTS[args.experiment]
        _known(cfg.sections(), sections, f"sections of {args.experiment}")
        out_dir = _section(cfg, "output", "dir").get("dir")
        if args.out is not None:
            out_dir = args.out
        out = Path(out_dir) if out_dir else Path.cwd()
        out.mkdir(parents=True, exist_ok=True)

        payload, rows, passed = run(cfg, args.seed)
        doc = {
            "experiment": args.experiment,
            "version": __version__,
            "config": _config_echo(cfg),
            "seed": args.seed,
            "result": payload,
        }
        if not args.no_timestamp:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        json_path = out / f"{args.experiment}.json"
        json_path.write_text(
            json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"
        )
        if rows is not None:
            with open(out / f"{args.experiment}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        print(f"{args.experiment}: {'pass' if passed else 'FAIL'} "
              f"-> {json_path}")
        return 0 if passed else 2
    except (CurvexError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
