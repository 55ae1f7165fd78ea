"""Benchmark of the biflow package, one workload per invocation.

    python3 perfbench/run.py --workload evolve --seed 0 --seconds 20 --trace 0

Workloads, each defined with the reason it was chosen in ``workloads.py``:
``evolve`` (six Picard solves), ``suites`` (three experiment suites) and
``certify`` (the kernel certificates).  Each is a closed loop: one process,
one caller, one task at a time.

``--trace 0`` runs a cold pass and then warm passes in one process for about
half of ``--seconds``, then cold passes in fresh processes while another one
fits in ``--seconds``, then set-up alone in fresh processes until there are
``SETUP_SAMPLES`` set-up times, and reports the end-to-end metrics as medians.  ``--trace 1`` runs a warm-up pass, an untraced pass and
a traced pass, and reports the per-layer metrics.  Every pass is checked
(``workloads.py``); a task that raises or fails a check counts in ``failed``.

The last line on stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the machine, the samples and any failures.  A
human-readable summary goes to stderr.  All three workloads in turn:

    for w in evolve suites certify; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 20 --trace 0
    done
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up time is the median over at least this many fresh processes, the
# measuring one included: imports can only be timed once per process.
SETUP_SAMPLES = 5
# One BLAS/OpenMP thread: the machine has two cores and is shared, and the
# package's work is FFTs and elementwise arithmetic, not BLAS.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The whole invocation must end within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "cold_wall_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(setup_samples: list[float], cold_samples: list[float],
                       out: dict) -> dict:
    values = {"setup_s": statistics.median(setup_samples),
              "cold_wall_s": statistics.median(cold_samples),
              "wall_s": statistics.median(out["wall_samples_s"]),
              "peak_rss_mb": out["peak_rss_mb"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(out: dict) -> dict:
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(out["per_layer"].items())}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            out = run_worker(base + ["--trace", "1"], deadline)
            metrics = per_layer_metrics(out)
            record = {}
        else:
            start = time.monotonic()
            out = run_worker(base + ["--seconds", str(args.seconds / 2), "--trace", "0"],
                             deadline)
            setup, cold = [out["setup_s"]], [out["cold_wall_s"]]
            probe_s = out["setup_s"] + out["cold_wall_s"]
            while True:
                fits = time.monotonic() - start + probe_s <= args.seconds
                if not fits and len(setup) >= SETUP_SAMPLES:
                    break
                probe = run_worker(base + ["--only", "cold" if fits else "setup"], deadline)
                setup.append(probe["setup_s"])
                if fits:
                    cold.append(probe["cold_wall_s"])
                    for key in ("attempted", "failed", "failures"):
                        out[key] += probe[key]
                    differ = [name for name, d in probe["digests"].items()
                              if d != out["digests"].get(name)]
                    out["failed"] += len(differ)
                    out["failures"] += [f"{name}: output differs between processes"
                                        for name in differ]
            metrics = end_to_end_metrics(setup, cold, out)
            record = {"setup_samples_s": setup, "cold_samples_s": cold,
                      "wall_samples_s": out["wall_samples_s"],
                      "picard_iters": out["picard_iters"]}
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "machine": out["machine"],
                   "failed_frac": out["failed"] / out["attempted"],
                   "failures": out["failures"][:20]})
    correct = out["failed"] == 0
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload} picard_iters = {out['picard_iters']} count", file=sys.stderr)
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} fraction", file=sys.stderr)
    print(f"{args.workload} correct = {correct} ({out['failed']} of "
          f"{out['attempted']} tasks failed)", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
