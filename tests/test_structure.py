"""One implementation per quadrature job: Gauss-Legendre rules are built
in curvex._numerics alone (composite_gauss_legendre serves every
piecewise radial rule), and the normal chart's geometry is read by the one
ray evaluator, TestFunction.on_rays, so a second implementation cannot
creep back unnoticed; no quadrature draws random nodes; one function
decides how far a rule folds."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curvex"


def _callers(name):
    """(module file, enclosing class and function names) of every call of
    a function or method called `name` in the curvex sources."""
    found = []

    def visit(node, scope, file):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "attr", getattr(f, "id", None)) == name:
                    found.append((file, ".".join(inner)))
            visit(child, inner, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    return found


def test_gauss_legendre_is_built_in_numerics_alone():
    callers = _callers("gauss_legendre")
    assert callers and {file for file, _ in callers} == {"_numerics.py"}


def test_geometry_is_read_by_the_ray_evaluator_alone():
    assert _callers("geometry") == [("functionals.py", "TestFunction.on_rays")]


def test_random_draws_stay_out_of_the_quadrature():
    """Every rule is deterministic: the only random generators seed the
    positive-definiteness probe, the rigidity sample points and the CLI's
    moment self-test matrices."""
    assert sorted(_callers("default_rng")) == [
        ("charts.py", "_check_positive_definite"),
        ("cli.py", "_moments_selftest"),
        ("rigidity.py", "_sample_points"),
    ]


def test_one_fold_policy():
    """How far a rule folds is decided in one place: the tests of the
    profile matrix a, diagonal and exactly lambda I, are called by
    functionals.fold_level alone, which resolve_rule and
    prepare_normal_chart both call."""
    for name in ("is_diagonal", "is_isotropic"):
        assert _callers(name) == [("functionals.py", "fold_level")]
    assert sorted(_callers("fold_level")) == [
        ("expansion.py", "prepare_normal_chart"),
        ("functionals.py", "resolve_rule"),
    ]
