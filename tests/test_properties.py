"""Property P1 (a finite result or a CurvexError) over the entry points
that take numbers a caller can get wrong: a dimension or a mesh size that
is not an integer, a NaN or infinite parameter, a NaN among the values a
fit reads.  Each draw mixes valid inputs with those, and the call either
returns finite numbers or raises a typed error; a bare TypeError,
ZeroDivisionError or numpy LinAlgError, or a NaN result, fails it.

Parameters are drawn from a working range plus the special values; the
fit's values and errors from every float.  A ball of volume above 1e150,
a hyperbolic chart block whose sqrt(-K) times its box corner's radius
passes 40, and a mu bound or fit that overflows raise typed errors
(tests/test_mu_solver.py, tests/test_charts.py); a time t far outside
the working range (at R = 1, t = 1e160, or t = 1e-300 for n = 6) still
overflows inside mu_ball, so P1 over the whole float range is open
(ROADMAP item 7)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvex import ModelSpec, make_chart
from curvex.errors import CurvexError
from curvex.expansion import extract_series
from curvex.isoperimetry import iso_profile
from curvex.mu_solver import mu_ball, mu_bound_report, rm_bound_from_mu
from curvex.rigidity import assess_rigidity

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0])


def _real(lo, hi):
    """Floats in [lo, hi] or one of the values a careless caller passes."""
    return st.floats(lo, hi) | SPECIAL


def _count(lo, hi):
    """Integers in [lo, hi], or a float standing in for one."""
    return st.integers(lo, hi) | st.floats(lo, hi) | SPECIAL


def _finite(*xs):
    return all(np.all(np.isfinite(x)) for x in xs)


def _p1(call):
    """call's result, or None where it raised a CurvexError; any other
    exception fails the test."""
    try:
        out = call()
    except CurvexError:
        return None
    return out


@given(n=_count(-1, 5), K=_real(-2.0, 2.0), R=_real(0.05, 1.5),
       t=_real(1e-3, 0.05), m=st.none() | _count(0, 80),
       per_width=_count(-2, 40))
def test_mu_ball(n, K, R, t, m, per_width):
    res = _p1(lambda: mu_ball(n, K, R, t, m=m, per_width=per_width))
    if res is not None:
        assert _finite(res.value, res.f, res.kkt_residual)


@given(n=_count(-1, 6), K=_real(-4.0, 4.0),
       beta=_real(1e-6, 1e3) | st.lists(_real(1e-6, 1e3), min_size=1, max_size=4))
def test_iso_profile(n, K, beta):
    area = _p1(lambda: iso_profile(n, K, beta))
    if area is not None:
        assert _finite(area)


@given(values=st.lists(st.floats(), min_size=6, max_size=6),
       errors=st.none() | st.lists(st.floats(min_value=0.0), min_size=6, max_size=6))
def test_extract_series(values, errors):
    ts = np.geomspace(1e-3, 1e-2, 6)
    fit = _p1(lambda: extract_series(ts, values, errors))
    if fit is not None:
        assert _finite(*vars(fit).values())


@given(kind=st.sampled_from(["flat", "space_form", "product_sphere_line"]),
       n=_count(-1, 9), K=_real(-2.0, 2.0),
       halfwidth=st.none() | _real(0.1, 3.0))
def test_make_chart(kind, n, K, halfwidth):
    chart = _p1(lambda: make_chart(ModelSpec(kind, n, K=K, halfwidth=halfwidth)))
    if chart is not None:
        assert chart.n == n
        assert _finite(chart.metric(np.zeros((1, n))))


@given(Q=_real(-1.0, 1e3), gamma=_real(-0.5, 0.5))
def test_rm_bound_from_mu(Q, gamma):
    bound = _p1(lambda: rm_bound_from_mu(Q, gamma))
    if bound is not None:
        assert _finite(bound)


@given(mus=st.lists(_real(-1e-2, 1e-2), min_size=3, max_size=3),
       Q=st.none() | _real(0.0, 10.0))
def test_mu_bound_report(mus, Q):
    rep = _p1(lambda: mu_bound_report([0.01, 0.02, 0.04], mus, Q))
    if rep is not None:
        assert _finite(rep.q_fit, rep.q_stderr, rep.q_envelope)


@pytest.fixture(scope="module")
def s3():
    return make_chart(ModelSpec("space_form", 3, K=1.0, halfwidth=1.75))


@given(tol=_real(0.0, 1.0), npoints=_count(-1, 3))
def test_assess_rigidity(s3, tol, npoints):
    rep = _p1(lambda: assess_rigidity(s3, 1.0, npoints=npoints, tol=tol))
    if rep is not None:
        assert rep.verdict == "consistent_with_rigidity"
        assert _finite(rep.scalar_margin, [c.margin for c in rep.checks])
