import importlib
import pkgutil
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
