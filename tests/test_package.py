"""The package's public surface: every name it exports resolves."""

import importlib
import pkgutil

import pytest

import ramsey_bounds

MODULES = ["ramsey_bounds"] + [f"ramsey_bounds.{info.name}"
                               for info in pkgutil.iter_modules(ramsey_bounds.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks only `import *`, which nothing else runs
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
