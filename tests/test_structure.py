"""One implementation per quadrature job: Gauss-Legendre rules are built
in curvex._numerics alone (composite_gauss_legendre serves every
piecewise radial rule), and the normal chart's geometry is read by the one
ray evaluator, TestFunction.on_rays, so a second implementation cannot
creep back unnoticed; no quadrature draws random nodes; one function
decides how far a rule folds; one Golub-Welsch routine builds every
non-closed-form Gauss rule; normal charts come in two kinds, warped and
ode, and no normal-chart code tells flat space from a space form by
name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curvex"


def _found(match):
    """(module file, enclosing class and function names, node) of every
    node of the curvex sources' syntax trees that match accepts."""
    found = []

    def visit(node, scope, file):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if match(child):
                found.append((file, ".".join(inner), child))
            visit(child, inner, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    return found


def _callers(name):
    """(module file, enclosing class and function names) of every call of
    a function or method called `name` in the curvex sources."""
    calls = _found(lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == name)
    return [(file, scope) for file, scope, _ in calls]


def test_gauss_legendre_is_built_in_numerics_alone():
    callers = _callers("gauss_legendre")
    assert callers and {file for file, _ in callers} == {"_numerics.py"}


def test_geometry_is_read_by_the_ray_evaluator_alone():
    assert _callers("geometry") == [("functionals.py", "TestFunction.on_rays")]


def test_random_draws_stay_out_of_the_quadrature():
    """Every rule is deterministic: the only random generator seeds the
    CLI's moment self-test matrices (the positive-definiteness probe and
    the default rigidity points read fixed points, charts._box_points)."""
    assert sorted(_callers("default_rng")) == [("cli.py", "_moments_selftest")]


def test_no_time_shift_or_scale_is_read():
    """The test function is (a, r_s): a time shift alpha t of its profile
    is a/(1 + alpha t) and a factor on u cancels in every normalized
    functional, so no curvex module reads an `alpha` or a `scale`
    attribute."""
    reads = _found(lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("alpha", "scale"))
    assert [(file, scope, node.attr) for file, scope, node in reads] == []


def test_one_fold_policy():
    """How far a rule folds is decided in one place: the readings of the
    profile matrix a, whether it is diagonal and its sets of equal entries
    (a = lambda I is the one-block case), and the common refinement with
    the geometry's partition are called by functionals.fold_level alone,
    which resolve_rule and prepare_normal_chart both call."""
    for name in ("is_diagonal", "_equal_entries", "common_refinement"):
        assert _callers(name) == [("functionals.py", "fold_level")]
    assert sorted(_callers("fold_level")) == [
        ("expansion.py", "prepare_normal_chart"),
        ("functionals.py", "resolve_rule"),
    ]


def test_symmetry_is_a_partition_not_an_enum():
    """The fold levels are partitions of the coordinates, not the
    hard-coded members of an enum."""
    tree = ast.parse((SRC / "charts.py").read_text())
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)}
    assert not names & {"IntEnum", "Enum"}


def test_one_golub_welsch_routine():
    """Gauss-Gegenbauer, Gauss-Jacobi and Gauss-Laguerre nodes come from
    _numerics' one Golub-Welsch routine, the only eigensolver call there."""
    assert sorted(_callers("_golub_welsch")) == [
        ("_numerics.py", "gauss_gegenbauer"),
        ("_numerics.py", "gauss_jacobi"),
        ("_numerics.py", "gauss_laguerre"),
    ]
    assert [c for c in _callers("eigh") if c[0] == "_numerics.py"] == [
        ("_numerics.py", "_golub_welsch")]
    for name in ("gauss_jacobi", "gauss_gegenbauer", "gauss_laguerre"):
        assert _callers(name) and {f for f, _ in _callers(name)} <= {
            "_numerics.py", "functionals.py"}


def _gegenbauer_as_built_alone(m, lam):
    """gauss_gegenbauer's Golub-Welsch branch as it stood before it
    shared _golub_welsch with gauss_jacobi."""
    from math import gamma, pi, sqrt

    import numpy as np

    k = np.arange(1, m)
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = sqrt(pi) * gamma(lam + 0.5) / gamma(lam + 1.0) * v[0] ** 2
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def test_gegenbauer_bits_survive_the_shared_routine():
    from curvex._numerics import gauss_gegenbauer

    for lam in (1.5, 2.0, 2.5, 0.75):
        for m in (1, 2, 5, 8, 13, 40):
            got, want = gauss_gegenbauer(m, lam), _gegenbauer_as_built_alone(m, lam)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def _kind_comparisons():
    """(module file, enclosing scope, compared expression) of every
    comparison in the curvex sources with the chart kind names "flat" or
    "space_form"."""
    def names_a_kind(node):
        return isinstance(node, ast.Constant) and node.value in ("flat", "space_form")

    found = _found(lambda node: isinstance(node, ast.Compare) and any(
        map(names_a_kind, [node.left, *node.comparators])))
    return [(file, scope, ast.unparse(next(
        x for x in [node.left, *node.comparators] if not names_a_kind(x))))
        for file, scope, node in found]


def test_no_normal_chart_code_names_flat_or_space_form():
    """Only make_chart's catalog reads the kind names, from the ModelSpec,
    and symmetrize its chart's flatness, from MetricChart.kind; warped
    centres are found from the warp (MetricChart.warp), and
    closed_form_center is gone."""
    assert sorted(_kind_comparisons()) == [
        ("charts.py", "_default_halfwidth", "spec.kind"),
        ("charts.py", "_default_halfwidth", "spec.kind"),
        ("charts.py", "make_chart", "spec.kind"),
        ("isoperimetry.py", "symmetrize", "tf.nchart.chart.kind"),
    ]
    import curvex.charts as charts

    assert not hasattr(charts, "closed_form_center")
    flat = charts.make_chart(charts.ModelSpec("flat", 2))
    nc = charts.build_normal_chart(flat, [0.5, 0.0], 1.0)
    assert nc.kind == "warped" and not hasattr(nc, "K")


def test_normal_charts_are_warped_or_ode():
    """Every NormalChart the sources build is of kind 'warped' or 'ode'."""
    built = _found(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "NormalChart")
    assert sorted(node.args[3].value for _, _, node in built) == ["ode", "warped"]


def test_symmetrize_refuses_every_chart_but_flat():
    """symmetrize reads flatness from MetricChart.kind: a warped space form
    or conformal chart and an ode chart are refused with ConfigInvalid
    before any level is crossed, flat space runs."""
    import numpy as np
    import pytest

    from curvex import (ModelSpec, Perturbation, QuadratureSpec,
                        build_test_function, make_chart, symmetrize)
    from curvex.charts import PROFILES
    from curvex.errors import ConfigInvalid
    from curvex.expansion import prepare_normal_chart

    specs = [
        ModelSpec("space_form", 3, K=1.0),
        ModelSpec("space_form", 3, K=0.0),
        ModelSpec("conformal_flat", 3, halfwidth=1.5,
                  perturbation=Perturbation(0.05, PROFILES["quartic_bump"])),
        ModelSpec("product_sphere_line", 3, K=1.0),
    ]
    quad = QuadratureSpec(rule="radial_sphere", order=8)
    for spec in specs:
        nc = prepare_normal_chart(make_chart(spec), np.zeros(3), 0.6, quad)
        tf = build_test_function(nc, mode="zero", r_s=0.6)
        with pytest.raises(ConfigInvalid, match="flat"):
            symmetrize(tf, t=0.001, levels=64, order=8)
    flat = prepare_normal_chart(make_chart(ModelSpec("flat", 3)), np.zeros(3),
                                0.6, quad)
    tf = build_test_function(flat, mode="zero", r_s=0.6)
    assert symmetrize(tf, t=0.001, levels=64, order=8).mass_original > 0


def test_both_rules_fold_onto_one_partition():
    """resolve_rule returns fold_level's partition for every rule: no
    branch reads the rule's name to change the fold."""
    (fn,) = [node for file, _, node in _found(
        lambda n: isinstance(n, ast.FunctionDef) and n.name == "resolve_rule")
        if file == "functionals.py"]
    assert "hermite" not in {n.value for n in ast.walk(fn)
                             if isinstance(n, ast.Constant)}
    (ret,) = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    fold = ret.value.elts[1]
    assert isinstance(fold, ast.Call) and fold.func.id == "fold_level"
