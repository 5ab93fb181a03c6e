"""One implementation per quadrature job: Gauss-Legendre rules are built
in curvex._numerics alone (composite_gauss_legendre serves every
piecewise radial rule), and the normal chart's geometry is read by the one
ray evaluator, TestFunction.on_rays, so a second implementation cannot
creep back unnoticed; no quadrature draws random nodes; one function
decides how far a rule folds; one Golub-Welsch routine builds every
non-closed-form Gauss rule."""

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
    """Gauss-Gegenbauer and Gauss-Jacobi nodes come from _numerics'
    one Golub-Welsch routine, the only eigensolver call there."""
    assert sorted(_callers("_golub_welsch")) == [
        ("_numerics.py", "gauss_gegenbauer"),
        ("_numerics.py", "gauss_jacobi"),
    ]
    assert [c for c in _callers("eigh") if c[0] == "_numerics.py"] == [
        ("_numerics.py", "_golub_welsch")]
    for name in ("gauss_jacobi", "gauss_gegenbauer"):
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
