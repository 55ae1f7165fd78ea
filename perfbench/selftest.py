"""Self-test of the benchmark; runs in well under a minute.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Not named ``test_*.py`` so that the package's own test run does not collect it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_package()

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_emits_every_metric_with_its_unit(name):
    workload = workloads.tiny_workloads()[name]
    assert workload.why == workloads.WORKLOADS[name].why
    assert {"name": name, "why": workload.why} in BENCHMARK["workloads"]
    out_dir = worker.SCRATCH / f"selftest-{name}"
    out_dir.parent.mkdir(exist_ok=True)
    try:
        tasks = workload.tasks(7, out_dir)
        reference = workloads.load_reference()
        untraced = worker.measure(tasks, reference, seconds=0.0)
        traced = worker.measure_traced(tasks, reference, f"selftest-{name}",
                                       out_dir.with_suffix(".trace.json"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.with_suffix(".trace.json").unlink(missing_ok=True)

    for out, metrics, kind in (
            (untraced, run.end_to_end_metrics([0.5, 0.4], [untraced["cold_wall_s"]], untraced), "end_to_end"),
            (traced, run.per_layer_metrics(traced), "per_layer")):
        assert out["failed"] == 0, out["failures"]
        assert out["attempted"] >= 1
        assert {k: m["unit"] for k, m in metrics.items()} == _expected(kind)
        assert all(math.isfinite(m["value"]) for m in metrics.values())
    layers = traced["per_layer"]
    entry = {"evolve": "flow.picard_solve", "suites": "harness.run_suite",
             "certify": "kernel.certify_bound"}[name]
    assert layers[f"{entry}.calls"] >= 1  # the task's own call is traced
    if name != "evolve":
        assert layers["manifold.dpi.calls"] == 0
    assert layers["trace.spans"] > 0


def test_seeds_change_inputs_but_not_iteration_counts():
    cases = [c for c in workloads.EVOLVE_CASES if c.dim == 1]
    runs = {}
    for seed in (3, 4):
        tasks = workloads.WORKLOADS["evolve"].tasks(seed, None)
        tasks = [t for t in tasks if t.case in cases]
        runs[seed] = tasks, [t.run() for t in tasks]
    (a_tasks, a), (b_tasks, b) = runs[3], runs[4]
    for ta, tb, da, db in zip(a_tasks, b_tasks, a, b):
        assert not (ta.u0.values == tb.u0.values).all()
        assert (da.iterations, da.converged) == (db.iterations, db.converged)
        assert math.isclose(da.iterate_norms[-1], db.iterate_norms[-1], rel_tol=1e-12)


def test_gate_rejects_a_moved_reference_number():
    task = workloads.WORKLOADS["certify"].tasks(0, None)[0]
    summary = task.summary(task.run())
    reference = dict(workloads.load_reference()[task.name])
    assert workloads.compare_summary(summary, reference) == []
    reference["fitted_constant"] *= 1 + 10 * workloads.REL_TOL
    assert workloads.compare_summary(summary, reference)


def test_fails_without_the_package_sources():
    bare = worker.SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suites",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
