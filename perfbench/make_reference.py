"""Regenerate ``reference.json``: one pass of every workload at seed 0.

    python3 perfbench/make_reference.py

Only run this on code whose numbers are known good; the benchmark's
correctness check compares every later run against the file it writes.
"""

import json
import shutil
import sys

import worker


def main() -> int:
    worker.import_package()
    from workloads import REFERENCE_FILE, WORKLOADS

    out_dir = worker.SCRATCH / "reference"
    reference = {}
    try:
        for workload in WORKLOADS.values():
            for task in workload.tasks(0, out_dir):
                result = task.run()
                problems = task.invariants(result)
                if problems:
                    sys.exit(f"{task.name}: {problems}")
                reference[task.name] = task.summary(result)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
