"""Workload definitions of the biflow benchmark.

A workload is a list of tasks built from the workload seed.  Each task runs
one call into the package, summarises its result as a flat dict of numbers
(compared against ``reference.json`` within ``REL_TOL``), checks the
invariants the package promises, and gives a fingerprint that must repeat
exactly from one pass to the next in the same process.

Every workload is a closed loop: one process, one caller, one task at a time.
Tasks call the package through its module attributes (``flow.picard_solve``),
so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biflow import flow, harness, kernel
from biflow.fields import Grid, GridField
from biflow.flow import FlowConfig, equator_initial_data
from biflow.kernel import SampleSpec, default_profile
from biflow.manifold import SphereTarget

# Reference numbers may move by this much relative (plus ABS_TOL absolute)
# before a task counts as failed, so a round-off-level refactor such as a
# real-transform switch passes while a changed algorithm does not.
REL_TOL = 1e-7
ABS_TOL = 1e-12

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _close(a, b) -> bool:
    if isinstance(b, bool) or isinstance(b, str) or b is None:
        return a == b
    if isinstance(b, int):
        return isinstance(a, int) and a == b
    return math.isfinite(a) and abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def compare_summary(summary: dict, reference: dict | None) -> list[str]:
    """Problems found comparing one task's summary against its reference."""
    if reference is None:
        return []
    problems = []
    for key, want in reference.items():
        if key not in summary:
            problems.append(f"{key}: missing")
        elif not _close(summary[key], want):
            problems.append(f"{key}: got {summary[key]!r}, reference {want!r}")
    return problems


# ----------------------------------------------------------------------
# evolve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvolveCase:
    name: str
    dim: int
    points: int
    frames: int
    mode: str
    amplitude: float = 0.05
    frequency: int = 1


# Overhead-bound 1D, array-bound 2D/3D, the intrinsic F3 path, and 7 to 20
# Picard iterations, so per-solve and per-iteration costs separate.  The
# eps=0.5, q=4 case stops at max_picard_iters without converging by design.
EVOLVE_CASES = (
    EvolveCase("1d-m256-intrinsic", 1, 256, 32, "intrinsic"),
    EvolveCase("1d-m64-eps0.2-q2", 1, 64, 32, "extrinsic", 0.2, 2),
    EvolveCase("1d-m64-eps0.5-q4", 1, 64, 32, "extrinsic", 0.5, 4),
    EvolveCase("2d-m64", 2, 64, 16, "extrinsic"),
    EvolveCase("2d-m32-intrinsic", 2, 32, 16, "intrinsic"),
    EvolveCase("3d-m16", 3, 16, 8, "extrinsic"),
)


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed rotation of R^n (QR of a Gaussian matrix, det +1)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def seeded_initial_data(grid: Grid, target: SphereTarget, amplitude: float,
                        frequency: int, rng: np.random.Generator) -> GridField:
    """Equator-sine data moved by a random lattice shift and a random rotation
    of the codomain, renormalised to unit length.

    Both maps commute with the flow and leave every norm invariant, so the
    seed changes the input bits but not the work done.
    """
    u0 = equator_initial_data(grid, amplitude, frequency, target.ambient_dim)
    shift = tuple(int(s) for s in rng.integers(0, grid.points_per_axis, size=grid.dim))
    vals = np.roll(u0.values, shift, axis=tuple(range(grid.dim)))
    vals = vals @ random_rotation(rng, target.ambient_dim).T
    vals /= np.sqrt((vals ** 2).sum(axis=-1, keepdims=True))
    return GridField(grid, vals)


class EvolveTask:
    """One picard_solve call; its result is the FlowDiagnostics."""

    def __init__(self, case: EvolveCase, seed: int, index: int):
        self.name = case.name
        self.case = case
        grid = Grid(case.dim, 2.0 * math.pi, case.points)
        target = SphereTarget(3)
        self.config = FlowConfig(grid=grid, target=target, t_final=1.0,
                                 num_frames=case.frames, mode=case.mode,
                                 picard_tol=1e-9)
        rng = np.random.Generator(np.random.Philox(key=[seed, index]))
        self.u0 = seeded_initial_data(grid, target, case.amplitude, case.frequency, rng)

    def run(self):
        _, diag = flow.picard_solve(self.config, self.u0)
        return diag

    def summary(self, diag) -> dict:
        return {"iterations": diag.iterations, "converged": diag.converged,
                "failure": diag.failure, "constraint_flag": diag.constraint_flag,
                "tube_clamped": diag.tube_clamped,
                "d_1": diag.diff_norms[0], "final_norm": diag.iterate_norms[-1]}

    def invariants(self, diag) -> list[str]:
        problems = []
        tol = self.config.picard_tol
        if diag.converged and not diag.fixed_point_residual <= 2.0 * tol:
            problems.append(f"fixed-point residual {diag.fixed_point_residual!r} > 2*tol")
        # The max-iterations case ends off the sphere by more than the
        # constraint tolerance; its flag is held by the reference instead.
        if diag.converged and diag.constraint_flag:
            problems.append("constraint_flag set on a converged solve")
        return problems

    def fingerprint(self, diag):
        return json.dumps(diag.to_json(), sort_keys=True)

    def stats(self, diag) -> dict:
        return {"picard_iters": diag.iterations,
                "picard_applications": diag.iterations + int(diag.converged),
                "solves": 1, "converged": int(diag.converged)}


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

SUITE_IDS = ("operators", "norms", "distance")

# The operators ensemble is drawn from the workload seed, so only its
# seed-independent numbers have reference values; its ratios are held by
# operator_invariants and by the cold/warm determinism check.
_SEEDED_REPORT_KEYS = ("operator_bounds.json",)
# Summary checks that are statistical, not properties of the code: the
# operators suite calls the ensemble maximum stable when doubling the ensemble
# moves it by at most 10%, which fails for some seeds (2, 3 and 19 of 0..23).
# The benchmark checks that the flag agrees with the report instead.
_STATISTICAL_CHECKS = {"operator_bounds_stable"}


def operator_invariants(report: dict, stable_flag) -> list[str]:
    problems = []
    for key in ("growth_s", "growth_div"):
        # the doubled ensemble starts with the base one, so its maximum cannot shrink
        if not report[key] >= 0.0:
            problems.append(f"{key} = {report[key]!r} < 0")
    stable = all(report[k] <= 0.10 for k in ("growth_s", "growth_div"))
    if stable_flag is not stable:
        problems.append(f"operator_bounds_stable = {stable_flag!r} disagrees with the report")
    return problems


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}/{k}", obj[k], out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}/{i}", v, out)
    elif isinstance(obj, (bool, int, float, str)) or obj is None:
        out[prefix] = obj


def report_numbers(name: str, data: bytes) -> dict:
    """Flat {path: value} view of one JSON or CSV report."""
    out: dict = {}
    text = data.decode()
    if name.endswith(".json"):
        _flatten(name, json.loads(text), out)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        for i, row in enumerate(rows[1:]):
            for col, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = cell
                out[f"{name}/{i}/{col}"] = value
    return out


class SuiteTask:
    """One run_suite call; its result is the manifest and every file written."""

    def __init__(self, suite: str, seed: int, out_dir: Path):
        self.name = suite
        self.suite = suite
        self.seed = seed
        self.out_dir = out_dir / suite

    def run(self):
        manifest = harness.run_suite(self.suite, out_dir=self.out_dir, seed=self.seed)
        files = {p.relative_to(self.out_dir).as_posix(): p.read_bytes()
                 for p in sorted(self.out_dir.rglob("*")) if p.is_file()}
        return manifest, files

    def summary(self, result) -> dict:
        _, files = result
        out = {}
        for name, data in files.items():
            if name == "run_manifest.json":
                continue
            nums = report_numbers(name, data)
            if name in _SEEDED_REPORT_KEYS:
                nums = {k: v for k, v in nums.items()
                        if k.endswith(("ensemble_size", "excluded"))}
            out.update(nums)
        return out

    def invariants(self, result) -> list[str]:
        manifest, files = result
        problems = [f"summary check {k} failed" for k, ok in manifest.summary.items()
                    if ok is not True and k not in _STATISTICAL_CHECKS]
        if self.suite == "operators":
            problems += operator_invariants(json.loads(files["operator_bounds.json"]),
                                            manifest.summary.get("operator_bounds_stable"))
        if manifest.status != "completed":
            problems.append(f"manifest status {manifest.status!r}")
        if not manifest.summary:
            problems.append("empty suite summary")
        missing = set(manifest.outputs) - set(files)
        if missing:
            problems.append(f"listed outputs missing: {sorted(missing)}")
        return problems

    def fingerprint(self, result):
        _, files = result
        return {k: v for k, v in files.items() if k != "run_manifest.json"}

    def stats(self, result) -> dict:
        _, files = result
        return {"bytes_written": sum(len(v) for v in files.values())}


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

CERTIFICATE_JOBS = ([("2.2", 0)] + [("2.3", k) for k in (1, 2, 3, 4)]
                    + [("2.4", k) for k in (1, 2, 3, 4)] + [("2.5", j) for j in range(5)])
MASS_TIMES = (1e-2, 1.0, 1e2)


class CertificateTask:
    """One certify_bound call, at the base or the refined resolution."""

    def __init__(self, dim: int, estimate: str, order: int, refined: bool):
        self.name = f"{dim}d/{estimate}/k{order}/{'refined' if refined else 'base'}"
        self.estimate, self.order = estimate, order
        profile = default_profile(dim)
        self.profile = profile.refined() if refined else profile
        self.spec = SampleSpec().refined() if refined else None

    def run(self):
        return kernel.certify_bound(self.profile, self.estimate, self.order,
                                    sample_spec=self.spec)

    def summary(self, cert) -> dict:
        return {"fitted_constant": cert.fitted_constant,
                "samples": cert.sample_count, "excluded": cert.excluded_count}

    def invariants(self, cert) -> list[str]:
        ok = math.isfinite(cert.fitted_constant) and cert.fitted_constant >= 0
        return [] if ok else [f"fitted constant {cert.fitted_constant!r}"]

    def fingerprint(self, cert):
        return json.dumps(cert.to_json(), sort_keys=True)

    def stats(self, cert) -> dict:
        return {}


class MassTask:
    """One kernel_mass call."""

    def __init__(self, dim: int, t: float):
        self.name = f"{dim}d/mass/t={t!r}"
        self.profile = default_profile(dim)
        self.t = t

    def run(self):
        return kernel.kernel_mass(self.profile, self.t)

    def summary(self, mass) -> dict:
        return {"mass": mass}

    def invariants(self, mass) -> list[str]:
        return [] if abs(mass - 1.0) <= 1e-8 else [f"|mass - 1| = {abs(mass - 1.0):.3e} > 1e-8"]

    def fingerprint(self, mass):
        return repr(mass)

    def stats(self, mass) -> dict:
        return {}


# ----------------------------------------------------------------------
# workload table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tasks: Callable[[int, Path], list]  # (seed, report directory) -> tasks


def _evolve(seed, out_dir, cases=EVOLVE_CASES):
    return [EvolveTask(c, seed, i) for i, c in enumerate(cases)]


def _suites(seed, out_dir, suites=SUITE_IDS):
    return [SuiteTask(s, seed, out_dir) for s in suites]


def _certify(seed, out_dir, dims=(1, 2, 3), jobs=CERTIFICATE_JOBS, times=MASS_TIMES):
    # deterministic: the seed is accepted and ignored
    tasks = [CertificateTask(d, est, k, refined)
             for d in dims for est, k in jobs for refined in (False, True)]
    return tasks + [MassTask(d, t) for d in dims for t in times]


WORKLOADS = {
    "evolve": Workload(
        "evolve",
        "six picard_solve runs: the Picard path, where manifold, fields, norms and "
        "semigroup all work; 1D-3D, both modes and 7-20 iterations separate "
        "per-solve from per-iteration cost",
        _evolve),
    "suites": Workload(
        "suites",
        "run_suite operators, norms and distance: single-frame fields, semigroup "
        "and norms work and report writing with zero manifold calls, so a "
        "flow-only change should not move it",
        _suites),
    "certify": Workload(
        "certify",
        "the 14 kernel certificates in 1D-3D, base and refined, plus kernel_mass: "
        "only the kernel layer works, so a grid-side change should not move it",
        _certify),
}


def tiny_workloads() -> dict:
    """Seconds-long variants of every workload, for the benchmark's self-test."""
    tiny_case = EvolveCase("1d-m32-tiny", 1, 32, 8, "intrinsic")
    return {
        "evolve": Workload("evolve", WORKLOADS["evolve"].why,
                           lambda seed, out: _evolve(seed, out, (tiny_case,))),
        "suites": Workload("suites", WORKLOADS["suites"].why,
                           lambda seed, out: _suites(seed, out, ("distance",))),
        "certify": Workload("certify", WORKLOADS["certify"].why,
                            lambda seed, out: _certify(seed, out, (1,), [("2.2", 0)], (1.0,))),
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
