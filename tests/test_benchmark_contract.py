"""The names the benchmark in ``perfbench/`` reads from photonlat resolve.

``perfbench/layertrace.py`` looks up every (module, function) pair of its
``TRACED`` table by name, and ``perfbench/workloads.py`` calls package
and ``cli`` functions as attributes, so a library name deleted under them
breaks every benchmark run. The hooks of layertrace.py's ``_HOOKS`` read
arguments of the traced call by name and attributes of its result, so a
renamed parameter or field breaks ``--trace 1``. These tests read both
files without importing them and resolve each name they use. The
workloads also read a ``sample`` result by ``len``, iteration and each
item's ``.output``, and score the stream ``cli.read_samples`` returns;
the last two tests check that those still work.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import typing
from pathlib import Path

import numpy as np
import pytest

import photonlat
import photonlat.cli
import photonlat.haarstats

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


def hooks():
    """(traced key, argument names, result attributes) of each ``_HOOKS``
    entry of layertrace.py: the names its hook reads as
    ``bound.arguments["..."]`` and as ``result.<attribute>``."""
    tree = _tree("layertrace.py")
    body = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    consts = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant) for t in node.targets}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_HOOKS" for t in node.targets))
    for key, hook in zip(table.keys, table.values):
        key = consts[key.id] if isinstance(key, ast.Name) else key.value
        nodes = list(ast.walk(body[hook.id]))
        # ``bound.arguments`` itself, or a local name bound to it
        aliases = {t.id for node in nodes if isinstance(node, ast.Assign)
                   and getattr(node.value, "attr", None) == "arguments"
                   for t in node.targets}
        arguments = {node.slice.value for node in nodes if isinstance(node, ast.Subscript)
                     and (getattr(node.value, "attr", None) == "arguments"
                          or getattr(node.value, "id", None) in aliases)}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "result"}
        yield key, arguments, attributes


@pytest.mark.parametrize("key, arguments, attributes",
                         [pytest.param(*hook, id=hook[0]) for hook in hooks()])
def test_hook_reads_what_the_traced_function_has(key, arguments, attributes):
    module, function = key.split(".")
    fn = getattr(importlib.import_module(f"photonlat.{module}"), function)
    assert arguments <= inspect.signature(fn).parameters.keys()
    returned = typing.get_type_hints(fn)["return"] if attributes else None
    for name in attributes:
        assert hasattr(returned, name) or name in getattr(returned, "__dataclass_fields__", {})


def event_attributes():
    """The attributes workloads.py reads from each item it iterates out of
    ``events``, the name it gives a ``sample`` result."""
    return {node.attr for comp in ast.walk(_tree("workloads.py"))
            if isinstance(comp, (ast.ListComp, ast.GeneratorExp))
            for gen in comp.generators
            if isinstance(gen.iter, ast.Name) and gen.iter.id == "events"
            for node in ast.walk(comp.elt)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == gen.target.id}


def test_sample_result_has_what_the_workloads_read():
    # table_n5's check takes len(events) and stacks ev.output of every event
    assert "output" in event_attributes()
    u = photonlat.haarstats.haar_unitary(8, 1).entries
    table = photonlat.distribution(u, photonlat.FockPattern.from_modes((1, 2, 5), 8))
    events = photonlat.sample(table, 3, 40)
    assert len(events) == 40
    rows = list(events)
    assert len(rows) == 40
    for name in event_attributes():
        assert all(hasattr(row, name) for row in rows)
    outs = np.array([ev.output for ev in events], dtype=np.intp)
    assert outs.shape == (40, 3)
    assert set(map(tuple, outs.tolist())) <= set(map(tuple, table.mode_lists.tolist()))


def test_mixture_test_accepts_what_read_samples_returns(tmp_path):
    # sample_validate scores cli.read_samples' stream with the SPDC mixture
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "photons": {"n": 4},
                                  "evolution": {"n_steps": 64}}))
    for argv in (["simulate"], ["sample", "--unitary", tmp_path / "unitary.json",
                                "--events", 30]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert photonlat.cli.main([str(a) for a in [*argv, "--config", config,
                                                        "--out", tmp_path]]) == 0
    loaded = photonlat.cli.load_config(config)
    stream = photonlat.cli.read_samples(tmp_path / "samples.jsonl", loaded)
    trace = photonlat.run_distinguishable_test(
        stream, photonlat.cli.read_unitary(tmp_path / "unitary.json"),
        weights=photonlat.spdc_weights(1.0), input_modes=loaded["inputs"])
    assert trace.n_events + trace.n_rejected == 30
