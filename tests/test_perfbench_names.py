"""The package names the benchmark in ``perfbench/`` reaches for still resolve.

The benchmark's traced run wraps the functions named in ``tracing.TRACED``,
and its workloads import names from ``biflow`` and call module attributes
such as ``flow.picard_solve``.  A name that stops resolving breaks the
benchmark, possibly only in its traced run; these tests read the two files'
source, without running them, and look every name up in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _traced():
    for node in _tree("tracing.py").body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py defines no TRACED")


def _workload_names():
    """(module, name) for every name workloads.py imports from biflow and
    every attribute it reads off an imported biflow module."""
    names, modules = [], {}
    tree = _tree("workloads.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("biflow"):
            for alias in node.names:
                names.append((node.module, alias.name))
                try:  # a submodule, as ``from biflow import flow`` binds it
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    continue
                modules[alias.asname or alias.name] = module.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


def test_every_traced_name_resolves():
    traced = [(f"biflow.{module}", name) for module, names in _traced().items()
              for name in names]
    assert ("biflow.flow", "picard_solve") in traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_every_workload_name_resolves():
    names = _workload_names()
    assert ("biflow.flow", "picard_solve") in names and ("biflow.fields", "Grid") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("test, source", [
    (test_every_traced_name_resolves,
     "TRACED = {'flow': ('picard_solve',), 'fields': ('no_such_name',)}"),
    (test_every_workload_name_resolves,
     "from biflow import flow\nfrom biflow.fields import Grid\n"
     "flow.picard_solve()\nflow.no_such_name()"),
], ids=["traced", "workloads"])
def test_a_dead_name_is_caught(test, source, monkeypatch, tmp_path):
    for name in ("tracing.py", "workloads.py"):
        (tmp_path / name).write_text(source)
    monkeypatch.setattr(f"{__name__}.PERFBENCH", tmp_path)
    with pytest.raises(AssertionError, match="no_such_name"):
        test()
