"""Every name a curvex module exports in __all__ resolves, so a deleted
function cannot stay exported."""

import importlib
import pkgutil

import pytest

import curvex

MODULES = ["curvex"] + [
    f"curvex.{m.name}" for m in pkgutil.iter_modules(curvex.__path__)
]


def test_every_submodule_is_listed():
    assert "curvex.functionals" in MODULES and "curvex.charts" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
