import importlib
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import flowqubo

MODULES = ["flowqubo"] + [f"flowqubo.{info.name}"
                          for info in pkgutil.iter_modules(flowqubo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """Each name in a module's __all__ is defined, and a star import of the
    module binds them all."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_each_modules_names():
    """The package exports ``__version__`` and each module's ``__all__``,
    every name in one list only and bound to its module's object; the
    package attribute ``reformulate`` is the function, not its module."""
    modules = [importlib.import_module(f"flowqubo.{name}")
               for name in ("errors", "flowsheets", "ip", "metrics", "qubo",
                            "reformulate", "solvers")]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert set(flowqubo.__all__) == {"__version__", *names}
    for module in modules:
        for name in module.__all__:
            assert getattr(flowqubo, name) is getattr(module, name)
    assert flowqubo.reformulate is sys.modules["flowqubo.reformulate"].reformulate


def test_benchmark_traced_names_resolve(monkeypatch):
    """Every function the benchmark's traced run wraps still exists under the
    name it wraps: ``layers.instrument`` looks each one up and registers a
    patch, installing none.  It takes the modules as ``perfbench/run.py``
    passes them, since the package's ``reformulate`` is the function."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    layers.instrument(types.SimpleNamespace(**{
        name: importlib.import_module(f"flowqubo.{name}")
        for name in ("cli", "flowsheets", "metrics", "reformulate", "solvers")}))
