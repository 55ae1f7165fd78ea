"""One benchmark process: set up a workload, run it, check it, print JSON.

    python3 perfbench/worker.py --workload evolve --seed 0 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload evolve --seed 0 --only cold
    python3 perfbench/worker.py --workload evolve --seed 0 --only setup

``run.py`` starts this once for the warm passes (or the traced run), then a
few more times with ``--only cold`` or ``--only setup`` to sample cold passes
and set-up time in fresh processes.  The package is imported from the ``src``
directory next to this one, never from an installed copy.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"


def import_package():
    """Import biflow from this checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import biflow
    except ImportError as exc:
        sys.exit(f"cannot import biflow from {src}: {exc}")
    if src not in Path(biflow.__file__).resolve().parents:
        sys.exit(f"biflow imported from {biflow.__file__}, not from {src}")


class Pass:
    """One timed pass over a workload's tasks, checked after the clock stops."""

    def __init__(self, tasks, reference, tracer=None):
        from workloads import compare_summary

        self.results = {}
        self.problems = {}
        start = time.perf_counter()
        for task in tasks:
            try:
                if tracer is None:
                    self.results[task.name] = task.run()
                else:
                    with tracer.span(f"task.{task.name}"):
                        self.results[task.name] = task.run()
            except Exception:  # a task that raises is a failed task, not a crash
                traceback.print_exc(file=sys.stderr)
                self.problems[task.name] = ["raised"]
        self.wall_s = time.perf_counter() - start
        self.fingerprints = {}
        for task in tasks:
            if task.name not in self.results:
                continue
            result = self.results[task.name]
            try:
                self.problems[task.name] = (
                    task.invariants(result)
                    + compare_summary(task.summary(result), reference.get(task.name)))
                self.fingerprints[task.name] = task.fingerprint(result)
            except Exception as exc:  # malformed output fails its task
                self.problems[task.name] = [f"check raised {exc!r}"]
        self.tasks = tasks

    def check_repeats(self, first: "Pass"):
        """A task whose output differs from the first pass's counts as failed."""
        for name, fp in self.fingerprints.items():
            if name in first.fingerprints and fp != first.fingerprints[name]:
                self.problems[name].append("output differs from the first pass")

    def digests(self) -> dict:
        """Short hashes of the fingerprints of the tasks that passed their
        checks, to compare passes across processes."""
        return {name: hashlib.sha256(repr(fp).encode()).hexdigest()[:16]
                for name, fp in self.fingerprints.items() if not self.problems[name]}

    def failures(self) -> list[str]:
        return [f"{name}: {p}" for name, probs in self.problems.items() for p in probs]

    def stats(self) -> dict:
        total: dict = {}
        for task in self.tasks:
            if task.name in self.results:
                for key, value in task.stats(self.results[task.name]).items():
                    total[key] = total.get(key, 0) + value
        return total


def outcome(passes: list[Pass]) -> dict:
    return {
        "attempted": sum(len(p.tasks) for p in passes),
        "failed": sum(1 for p in passes for probs in p.problems.values() if probs),
        "failures": [f for p in passes for f in p.failures()],
    }


def measure(tasks, reference, seconds: float | None) -> dict:
    """Cold pass, then (unless ``seconds`` is None) warm passes while another
    one fits in ``seconds``; there is always at least one warm pass."""
    start = time.perf_counter()
    cold = Pass(tasks, reference)
    passes = [cold]
    while seconds is not None:
        warm = Pass(tasks, reference)
        warm.check_repeats(cold)
        passes.append(warm)
        walls = [p.wall_s for p in passes[1:]]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {
        **outcome(passes),
        "cold_wall_s": cold.wall_s,
        "digests": cold.digests(),
        "wall_samples_s": [p.wall_s for p in passes[1:]],
        "picard_iters": cold.stats().get("picard_iters", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(tasks, reference, run_id: str, trace_file: Path) -> dict:
    """Warm-up pass, untraced pass, traced pass; per-layer numbers from the last."""
    from tracing import Tracer

    first = Pass(tasks, reference)
    untraced = Pass(tasks, reference)
    tracer = Tracer(run_id)
    with tracer:
        traced = Pass(tasks, reference, tracer)
    tracer.write(trace_file)
    passes = [first, untraced, traced]
    for p in passes[1:]:
        p.check_repeats(first)
    layers = tracer.layer_metrics()
    stats = traced.stats()
    solves = stats.get("solves", 0)
    layers.update({
        "flow.picard_iters": stats.get("picard_iters", 0),
        "flow.picard_applications": stats.get("picard_applications", 0),
        "flow.converged_frac": stats.get("converged", 0) / solves if solves else 0.0,
        "harness.bytes_written": stats.get("bytes_written", 0),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    })
    return {**outcome(passes), "per_layer": layers}


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only", choices=("setup", "cold"),
                    help="stop after set-up, or after the cold pass")
    args = ap.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir = SCRATCH / run_id
    SCRATCH.mkdir(exist_ok=True)
    try:
        tasks = WORKLOADS[args.workload].tasks(args.seed, out_dir)
        reference = load_reference()
        setup_s = time.perf_counter() - _T0
        if args.only == "setup":
            result = {"setup_s": setup_s}
        elif args.trace:
            trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
            result = measure_traced(tasks, reference, run_id, trace_file)
            result["machine"] = machine_record()
        else:
            result = measure(tasks, reference, None if args.only else args.seconds)
            result.update(setup_s=setup_s, machine=machine_record())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
