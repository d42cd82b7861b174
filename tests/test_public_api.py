"""Each module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil

import pytest

import langadapt

MODULES = sorted(info.name for info in pkgutil.iter_modules(langadapt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"langadapt.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from langadapt.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
