"""The demos run, and the timing demos import only names that exist."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", ["closed_form_checks", "flow_property_grid",
                                  "single_matrix_exponential",
                                  "monte_carlo_validation"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name == "flow_property_grid":
        found = re.search(r"deviation from per-time direct evaluation: (\S+)",
                          proc.stdout)
        assert found is not None, proc.stdout
        assert float(found.group(1)) <= 1e-12


@pytest.mark.parametrize("name", ["krylov_crossover", "benchmark_ratios"])
def test_timing_demo_imports_exist(name):
    # these take minutes to run; a renamed or removed name still breaks them
    with open(os.path.join(DEMOS, f"{name}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "sdemoments"
                for alias in node.names]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
