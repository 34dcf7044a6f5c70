"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import sdemoments

MODULES = ["sdemoments"] + [f"sdemoments.{info.name}"
                            for info in pkgutil.iter_modules(sdemoments.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
