import importlib
import pkgutil

import pytest

import linkcov

MODULES = sorted(m.name for m in pkgutil.iter_modules(linkcov.__path__))


def test_package_imports():
    assert linkcov.__version__
    assert "linkage" in MODULES and "popsim" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"linkcov.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
