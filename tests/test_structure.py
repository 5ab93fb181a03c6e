"""One implementation per quadrature job: Gauss-Legendre rules are built
in curvex._numerics alone (composite_gauss_legendre serves every
piecewise radial rule), and the normal chart's geometry is read by the one
ray evaluator, TestFunction.on_rays, so a second implementation cannot
creep back unnoticed; no quadrature draws random nodes; one function
decides how far a rule folds; one Golub-Welsch routine builds every
non-closed-form Gauss rule; normal charts are two classes with one
interface, which no module tells apart, and no normal-chart code tells
flat space from a space form by name; a chart that shoots folds nothing
and a chart's symmetry is read from its warps; the folded Hermite grid
is built with array operations, not from a Python list of index tuples;
every name charts exports has a caller; every rule is built at the
order it names, and one function climbs the order ladder."""

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


def test_no_module_imports_combinations_with_replacement():
    """The folded Hermite grid lists its index tuples with array
    operations (functionals._sorted_tuples): no module imports itertools'
    combinations_with_replacement, by name or through the module, so the
    per-tuple build cannot come back."""
    assert _found(lambda node: isinstance(node, ast.ImportFrom)
                  and node.module == "itertools"
                  and any(a.name == "combinations_with_replacement"
                          for a in node.names)) == []
    assert _found(lambda node: isinstance(node, (ast.Attribute, ast.Name))
                  and "combinations_with_replacement" in (
                      getattr(node, "attr", None), getattr(node, "id", None))) == []


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
    and resolve_rule alone calls it: only nodes fold, never the rays a
    chart shoots."""
    for name in ("is_diagonal", "_equal_entries", "common_refinement"):
        assert _callers(name) == [("functionals.py", "fold_level")]
    assert _callers("fold_level") == [("functionals.py", "resolve_rule")]


def test_no_shot_bundle_is_folded():
    """build_normal_chart and _ode_normal_chart take no fold, and no
    source call passes one to them: a chart that shoots shoots every ray
    of the sphere rule it is handed."""
    defs = _found(lambda node: isinstance(node, ast.FunctionDef) and node.name
                  in ("build_normal_chart", "_ode_normal_chart"))
    assert sorted(d.name for _, _, d in defs) == [
        "_ode_normal_chart", "build_normal_chart"]
    for _, _, d in defs:
        params = d.args.posonlyargs + d.args.args + d.args.kwonlyargs
        assert "fold" not in [a.arg for a in params]
        assert d.args.kwarg is None
    for name in ("build_normal_chart", "_ode_normal_chart"):
        calls = _found(lambda node: isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)) == name)
        assert calls
        assert [k.arg for _, _, c in calls for k in c.keywords
                if k.arg in ("fold", None)] == []


def test_symmetry_is_read_from_the_warps():
    """MetricChart holds no symmetry of its own: MetricChart.symmetry is
    computed from its warps, so a chart has one exactly when it has
    warps."""
    from dataclasses import fields

    from curvex.charts import MetricChart

    assert "_symmetry" not in {f.name for f in fields(MetricChart)}
    assert isinstance(MetricChart.symmetry, property)


def test_every_charts_export_has_a_caller():
    """Every name in charts.__all__ is read somewhere in the sources, the
    tests, the demos or the benchmark, so an export whose last caller
    goes is deleted with it."""
    from curvex import charts

    root = SRC.parents[1]
    read = set()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert [name for name in charts.__all__ if name not in read] == []


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


_NORMAL_CHARTS = ("NormalChart", "WarpedNormalChart", "OdeNormalChart")


def test_sources_build_the_two_normal_charts():
    """NormalChart has two subclasses, and the sources name them only to
    build each once: no isinstance test tells them apart."""
    from curvex.charts import NormalChart

    assert sorted(c.__name__ for c in NormalChart.__subclasses__()) == [
        "OdeNormalChart", "WarpedNormalChart"]
    named = _found(lambda node: isinstance(node, ast.Name)
                   and node.id in _NORMAL_CHARTS[1:])
    built = _found(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) in _NORMAL_CHARTS)
    assert sorted((f, s, n.func.id) for f, s, n in built) == [
        ("charts.py", "_ode_normal_chart", "OdeNormalChart"),
        ("charts.py", "build_normal_chart", "WarpedNormalChart"),
    ]
    assert len(named) == len(built)


def test_every_marked_catalog_chart_is_warped_at_its_origin():
    """Every make_chart kind whose metric carries a symmetry about the
    origin, one block or a direct sum of space-form blocks, has a warp per
    block there, and its symmetry is the contiguous partition of the
    warps' sizes: its normal chart at the origin is a WarpedNormalChart on
    that partition, built without shooting a ray (nfev 0, no bundle),
    whatever rule the caller hands it."""
    import numpy as np

    from curvex.charts import (PROFILES, ModelSpec, Perturbation,
                               build_normal_chart, make_chart)
    from curvex.functionals import sphere_rule

    specs = [
        ModelSpec("flat", 3),
        ModelSpec("space_form", 4, K=1.0),
        ModelSpec("space_form", 3, K=-1.0),
        ModelSpec("product_sphere_line", 3, K=1.0),
        ModelSpec("product_sphere_line", 4, K=-1.0),
        *(ModelSpec("conformal_flat", 3, halfwidth=1.5,
                    perturbation=Perturbation(0.05, PROFILES[name]))
          for name in sorted(PROFILES)),
    ]
    assert {s.kind for s in specs} == {
        "flat", "space_form", "product_sphere_line", "conformal_flat"}
    for spec in specs:
        ch = make_chart(spec)
        ends = np.cumsum([w.n for w in ch.warps])
        assert ch.symmetry == tuple(tuple(range(e - w.n, e))
                                    for w, e in zip(ch.warps, ends))
        nc = build_normal_chart(ch, np.zeros(spec.n), 0.5,
                                rule=sphere_rule(spec.n, 8))
        assert nc.kind == "warped" and nc.nfev == 0 and nc.dirs is None
        assert nc.symmetry == ch.symmetry and nc.warps == ch.warps


def test_no_module_compares_a_normal_chart_kind():
    """Code that needs a chart's shot bundle reads NormalChart.dirs: the
    only `kind` comparisons read the catalog's ModelSpec and
    symmetrize's MetricChart, and none names a normal chart's kind."""
    def compared(node):
        return [node.left, *node.comparators] if isinstance(node, ast.Compare) else []

    kinds = _found(lambda node: any(isinstance(x, ast.Attribute) and x.attr == "kind"
                                    for x in compared(node)))
    assert sorted({(f, ast.unparse(x)) for f, _, n in kinds for x in compared(n)
                   if isinstance(x, ast.Attribute)}) == [
        ("charts.py", "spec.kind"), ("isoperimetry.py", "tf.nchart.chart.kind")]
    named = _found(lambda node: any(isinstance(x, ast.Constant) and x.value in (
        "warped", "ode") for x in compared(node)))
    assert named == []


def _normal_chart_classes():
    """The ClassDef nodes of NormalChart and its subclasses."""
    return [node for _, _, node in _found(
        lambda n: isinstance(n, ast.ClassDef) and (n.name in _NORMAL_CHARTS))]


def test_normal_chart_attributes_are_set_by_constructors():
    """A normal chart's attributes are its class constants and what its
    constructor sets: no src statement assigns one elsewhere, on self
    in another method or on a chart from outside, save the Sc spline an
    ode chart builds on its first scalar call."""
    classes = _normal_chart_classes()
    names = {t.attr for c in classes for f in c.body if isinstance(f, ast.FunctionDef)
             and f.name == "__init__" for n in ast.walk(f)
             if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
             for t in ast.walk(n) if isinstance(t, ast.Attribute)
             and isinstance(t.ctx, ast.Store)}
    assert {"chart", "center", "radius", "n", "symmetry", "warps", "dirs",
            "weights", "nfev", "gauss_residual", "_basis", "_table",
            "_sc_pts", "_sc_spline"} == names

    def stores(node):
        return isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store) and node.attr in names

    chart_scopes = {c.name for c in classes}
    outside = [(f, s, ast.unparse(n)) for f, s, n in _found(stores)
               if not (ast.unparse(n.value) == "self" and (
                   s.split(".")[0] not in chart_scopes or s.endswith("__init__")))]
    assert outside == [("charts.py", "OdeNormalChart.scalar", "self._sc_spline")]
    assert [c for c in _callers("setattr") if c[0] == "charts.py"] == []


def test_ode_is_only_the_ode_class_constant():
    """The string 'ode' appears in the sources once, as OdeNormalChart.kind."""
    found = _found(lambda node: isinstance(node, ast.Constant) and node.value == "ode")
    assert [(f, s) for f, s, _ in found] == [("charts.py", "OdeNormalChart")]


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


_GONE = {"_rule_order", "_polar_order", "_MAX_DIRECTIONS", "polar_order",
         "polar_order_err"}


def test_no_rule_order_is_lowered():
    """No source defines, reads or writes a name of the direction cap that
    built a lower order than the one named (_MAX_DIRECTIONS, _rule_order,
    _polar_order) or of the orders it recorded (polar_order and
    polar_order_err, as names or as meta keys)."""
    def named(node):
        names = {getattr(node, a, None) for a in ("id", "attr", "name", "arg")}
        if isinstance(node, ast.Constant):
            names.add(node.value if isinstance(node.value, str) else None)
        return bool(names & _GONE)

    assert [(file, scope) for file, scope, _ in _found(named)] == []


def _compositions(n):
    """Every sequence of positive block sizes summing to n."""
    if n == 0:
        return [[]]
    return [[k] + rest for k in range(1, n + 1) for rest in _compositions(n - k)]


def _closed_form_directions(sizes, o, fold):
    """Directions of the product rule at order o on blocks of these sizes:
    ceil(o/2) nodes per block factor after the first (o for an unfolded
    singleton), and two leading singletons share the trapezoid azimuth,
    m = max(4 o, 16) angles on S^1 and 2 o beyond, m/4 + 1 of them when
    folded onto the quadrant."""
    n, half = sum(sizes), -(-o // 2)
    pair = sizes[:2] == [1, 1]
    count = 1
    for s in sizes[2 if pair else 1:]:
        count *= o if s == 1 and not fold else half
    if pair:
        m = max(4 * o, 16) if n == 2 else 2 * o
        count *= m // 4 + 1 if fold else m
    return count


def test_every_orbit_rule_is_built_at_the_order_asked():
    """For every partition of n <= 6 coordinates into contiguous blocks
    (every sequence of block sizes) and every order of 8, 9, 14 and 25,
    orbit_rule returns exactly the closed-form direction count at that
    order, folded and, for n singletons, unfolded as sphere_rule builds
    it; a count above the node bound raises ConfigInvalid instead."""
    import pytest

    from curvex.errors import ConfigInvalid
    from curvex.functionals import _MAX_NODES, orbit_rule

    try:
        for n in range(2, 7):
            for sizes in _compositions(n):
                starts = [sum(sizes[:i]) for i in range(len(sizes))]
                blocks = tuple(tuple(range(a, a + s)) for a, s in zip(starts, sizes))
                folds = (True, False) if sizes == [1] * n else (True,)
                for o in (8, 9, 14, 25):
                    for fold in folds:
                        want = _closed_form_directions(sizes, o, fold)
                        if want > _MAX_NODES:
                            with pytest.raises(ConfigInvalid, match="directions"):
                                orbit_rule(o, blocks, fold)
                            continue
                        dirs, wts = orbit_rule(o, blocks, fold)
                        assert dirs.shape == (want, n) and wts.shape == (want,)
    finally:
        orbit_rule.cache_clear()  # the largest rules hold tens of MB


def test_one_order_ladder():
    """The step to order - ERR_DROP is taken in one function, the ladder
    functionals._climb, and both eval_components and gaussian_integral
    reach their orders and error estimates through it."""
    steps = _found(lambda node: isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.Sub)
                   and getattr(node.right, "id", None) == "ERR_DROP")
    assert steps and {(file, scope) for file, scope, _ in steps} == {
        ("functionals.py", "_climb")}
    assert sorted(_callers("_climb")) == [
        ("functionals.py", "eval_components"),
        ("functionals.py", "gaussian_integral")]
