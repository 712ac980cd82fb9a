"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import conceptkit

MODULES = [
    module
    for module in (
        importlib.import_module(f"conceptkit.{m.name}")
        for m in pkgutil.iter_modules(conceptkit.__path__)
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
