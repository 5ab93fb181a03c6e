"""Decision rules for the rigidity side of scalar-curvature comparison.

Given a chart and a comparison curvature K, the hypothesis is the
pointwise bound Sc >= n(n-1)K.  The rigidity case says a manifold that
satisfies the bound and also saturates the model's isoperimetry must be
the space form itself, so its curvature tensor has constant-curvature
form with zero Weyl and zero traceless Ricci part.

assess_rigidity samples both sides: pointwise scalar margins plus
residuals of the constant-curvature shape, and isoperimetric probes
comparing measured geodesic-sphere areas with the model profile at equal
volume.  Verdict strings: 'hypothesis_violated' when a scalar margin is
negative beyond tolerance, 'consistent_with_rigidity' when every margin
closes, 'inconclusive' otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numerics import shell_radius
from .charts import MetricChart, _box_points, curvature_at
from .errors import ConfigInvalid, check_finite, check_integer
from .expansion import prepare_normal_chart
from .functionals import QuadratureSpec, ball_volume
from .isoperimetry import iso_profile
from .tensor_core import CurvatureData, norm_sq, weyl_decompose

__all__ = [
    "RigidityCheck",
    "RigidityReport",
    "scalar_bound_margin",
    "space_form_residuals",
    "isoperimetric_probe",
    "assess_rigidity",
]


@dataclass
class RigidityCheck:
    name: str
    margin: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class RigidityReport:
    verdict: str  # hypothesis_violated | consistent_with_rigidity | inconclusive
    n: int
    K: float
    scalar_margin: float  # worst pointwise Sc - n(n-1)K
    checks: list
    meta: dict = field(default_factory=dict)

    def named(self, name: str) -> list:
        return [c for c in self.checks if c.name == name]


def scalar_bound_margin(curv: CurvatureData, K: float) -> float:
    """Sc - n(n-1)K; nonnegative iff the comparison hypothesis holds."""
    n = curv.rc.shape[0]
    return float(curv.sc - n * (n - 1) * K)


def space_form_residuals(curv: CurvatureData, K: float) -> dict:
    """How far the curvature tensor is from the constant-curvature shape."""
    n = curv.rc.shape[0]
    rm_excess = float(norm_sq(curv.rm) - 2 * n * (n - 1) * K**2)
    out = {"rm_excess": rm_excess}
    if n >= 3:
        _, traceless_part, weyl = weyl_decompose(curv.rm)
        out["weyl_sq"] = float(norm_sq(weyl))
        out["traceless_rc_sq"] = float(norm_sq(traceless_part))
    return out


def isoperimetric_probe(nchart, K: float, volume: float) -> dict:
    """Measured geodesic-sphere area minus the model profile at equal
    volume.  Zero margin is the rigidity signature.  Volume, radius and
    area all come from the chart's sphere areas, on every chart kind."""
    r_max = nchart.radius * 0.98
    v_max = ball_volume(nchart, r_max)
    if volume >= v_max:
        raise ConfigInvalid(
            f"probe volume {volume} exceeds the chart ball {v_max}"
        )
    r = float(shell_radius(nchart.shell, volume, 0.5 * r_max, r_max))
    area = float(nchart.shell(r))
    model = iso_profile(nchart.n, K, volume)
    return {
        "radius": r,
        "area": area,
        "model_area": model,
        "margin": area - model,
    }


# the sphere rule an ode centre chart is shot along (hand-built charts,
# plain-callable profiles); warped centres (every other catalog chart,
# S^2 x R included) read their geometry from their warps and ignore it
_PROBE_QUAD = QuadratureSpec(rule="radial_sphere", order=16)
_PROBE_FRACS = (0.25, 0.5, 0.75)


def _sample_points(chart: MetricChart, npoints: int):
    """The origin, then npoints - 1 fixed points spread over the chart box
    halved about it (charts._box_points), the same at every call."""
    box = chart.domain
    return [np.zeros(chart.n),
            *_box_points(0.5 * box.lo, 0.5 * box.hi, max(npoints - 1, 0))]


def assess_rigidity(
    chart: MetricChart,
    K: float,
    points=None,
    npoints: int = 5,
    tol: float = 1e-6,
    extended: bool = False,
) -> RigidityReport:
    """Run the full battery at the points (by default _sample_points:
    the origin and npoints - 1 fixed points of the box halved about it)
    plus isoperimetric probes around the center; fold the margins into a
    verdict.

    The centre chart is warped where the chart has warps and otherwise
    shot along the order-16 radial-spherical sphere rule, so every catalog
    chart gets its probes: 1/4, 1/2 and 3/4 of the ball of 0.95 times
    meta["probe_radius"], 0.7 box halfwidths and below 0.9 pi/sqrt(K)."""
    check_finite(K, "model curvature K")
    check_finite(tol, "tolerance")
    if tol < 0:
        raise ConfigInvalid(f"tolerance {tol!r} is negative")
    n = chart.n
    if points is None:
        check_integer(npoints, 1, "sample points")
        points = _sample_points(chart, npoints)

    checks: list[RigidityCheck] = []
    margins = []
    for p in points:
        p = np.asarray(p, dtype=float)
        curv = curvature_at(chart, p)
        m = scalar_bound_margin(curv, K)
        margins.append(m)
        checks.append(
            RigidityCheck(
                name="scalar_bound",
                margin=m,
                passed=m >= -tol,
                detail={"point": p.tolist(), "sc": float(curv.sc)},
            )
        )
        res = space_form_residuals(curv, K)
        for key, val in res.items():
            checks.append(
                RigidityCheck(
                    name=key,
                    margin=val,
                    passed=abs(val) <= tol,
                    detail={"point": p.tolist()},
                )
            )
        if extended:
            checks.append(
                RigidityCheck(
                    name="lap_sc_nonneg",
                    margin=float(curv.lap_sc),
                    passed=curv.lap_sc >= -tol,
                    detail={"point": p.tolist()},
                )
            )

    scalar_margin = float(min(margins))

    # isoperimetric probes at the center
    probe_radius = 0.7 * float(np.min(chart.domain.hi))
    if K > 0:
        probe_radius = min(probe_radius, 0.9 * np.pi / np.sqrt(K))
    nc = prepare_normal_chart(chart, np.zeros(n), probe_radius, _PROBE_QUAD)
    v_ref = ball_volume(nc, probe_radius * 0.95)
    for frac in _PROBE_FRACS:
        probe = isoperimetric_probe(nc, K, frac * v_ref)
        rel = probe["margin"] / max(probe["model_area"], 1e-300)
        checks.append(
            RigidityCheck(
                name="isoperimetric",
                margin=probe["margin"],
                passed=abs(rel) <= tol,
                detail=probe,
            )
        )

    if scalar_margin < -tol:
        verdict = "hypothesis_violated"
    elif all(c.passed for c in checks):
        verdict = "consistent_with_rigidity"
    else:
        verdict = "inconclusive"

    return RigidityReport(
        verdict=verdict,
        n=n,
        K=K,
        scalar_margin=scalar_margin,
        checks=checks,
        meta={
            "tol": tol,
            "extended": extended,
            "npoints": len(points),
            "probe_radius": float(probe_radius),
        },
    )
