"""The names the benchmark in ``perfbench/`` reads from photonlat resolve.

``perfbench/layertrace.py`` looks up every (module, function) pair of its
``TRACED`` table by name, and ``perfbench/workloads.py`` calls package
and ``cli`` functions as attributes, so a library name deleted under them
breaks every benchmark run. These tests read both files without importing
them and resolve each name they use.
"""

import ast
import importlib
from pathlib import Path

import pytest

import photonlat
import photonlat.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def traced():
    """The ``TRACED`` table of layertrace.py."""
    for node in ast.walk(_tree("layertrace.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("layertrace.py defines no TRACED table")


def workload_names(holder):
    """The attributes workloads.py reads from ``self.<holder>``."""
    return {node.attr for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == holder and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"}


@pytest.mark.parametrize("module, function", traced())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"photonlat.{module}"), function))


@pytest.mark.parametrize("holder, package, expected", [
    ("pl", photonlat, {"FockPattern", "distribution", "sample",
                       "run_distinguishable_test", "spdc_weights"}),
    ("cli", photonlat.cli, {"main", "load_config", "build_device", "read_unitary",
                            "read_samples"}),
])
def test_workload_names_resolve(holder, package, expected):
    names = workload_names(holder)
    assert names >= expected
    assert all(callable(getattr(package, name)) for name in names)
