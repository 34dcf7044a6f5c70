"""Every name a module exports through ``__all__`` resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import sdemoments

MODULES = ["sdemoments"] + [f"sdemoments.{info.name}"
                            for info in pkgutil.iter_modules(sdemoments.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # numpy is the package's one dependency; scipy serves the tests alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdemoments.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, sdemoments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
