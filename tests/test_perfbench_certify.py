"""The benchmark's ``certify`` workload meets its reference numbers.

``perfbench/workloads.py`` is loaded by path, read-only, and each of the
workload's tasks (the 14 kernel certificates in 1D-3D, base and refined, and
``kernel_mass`` at three times) runs once.  Its summary must match
``perfbench/reference.json`` within the benchmark's tolerances and its
invariants must hold, so a kernel change that moves a certificate fails here
rather than only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_certify_workload_meets_its_reference(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
    reference = workloads.load_reference()
    tasks = workloads.WORKLOADS["certify"].tasks(0, tmp_path)
    assert len(tasks) == 93
    for task in tasks:
        assert task.name in reference, task.name
        result = task.run()
        assert workloads.compare_summary(task.summary(result), reference.get(task.name)) == [], \
            task.name
        assert task.invariants(result) == [], task.name
