import importlib
import pkgutil

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

