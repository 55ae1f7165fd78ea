"""Experiment orchestration: configs, suites, reports, run manifests.

Every run writes its manifest before any other output, then rewrites it at
the end with the full file list and pass/fail summary, or, if the run raised,
with status "failed" and the error message.  Reports are flat JSON
and CSV with deterministic formatting; random ensembles come from a seeded
counter-based generator, so a fixed seed reproduces every report byte for
byte (the manifest carries wall time and is the one file exempt from that).
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .fields import Grid, GridField, save_space_time_field
from .flow import (FlowConfig, constant_initial_data, distance_experiment,
                   equator_initial_data, picard_solve)
from .kernel import certify_bound, default_profile, kernel_mass
from .manifold import SphereTarget
from .norms import bmo_seminorm, carleson_functional, smoothing_ratios
from .semigroup import operator_bound_experiment

__all__ = [
    "RunManifest",
    "load_config",
    "default_config",
    "make_rng",
    "run_suite",
    "run_kernel_verify",
    "run_evolve",
    "run_contraction_sweep",
]

SUITES = ("kernel", "operators", "norms", "flow", "distance", "all")
SEEDED_SUITES = ("operators", "all")  # the ones that draw a random ensemble


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; deterministic across platforms."""
    return np.random.Generator(np.random.Philox(seed))


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

DEFAULT_CONFIG = {
    "grid": {"dim": "1", "box_length": str(2.0 * math.pi), "points_per_axis": "64"},
    "target": {"ambient_dim": "3", "tube_radius": "0.5", "blend_radius": "0.25"},
    "time": {"t_final": "1.0", "num_frames": "32", "grid_exponent": "4.0"},
    "picard": {"max_iters": "20", "tol": "1e-9", "tube_exit_policy": "error"},
    "mode": {"mode": "extrinsic"},
    "initial": {"kind": "equator_sine", "amplitude": "0.05", "frequency": "1"},
    "kernel": {"tolerance": "1e-9", "quadrature_nodes": "16", "c1": "0.5"},
    "experiments": {"ensemble_size": "64", "max_mode": "3",
                    "carleson_radius_fraction": "0.25",
                    "bmo_radius_fraction": "0.25",
                    "distance_delta": "0.05", "distance_amplitude": "0.2"},
}


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULT_CONFIG)
    return cp


def load_config(path=None) -> configparser.ConfigParser:
    """Sectioned config file; missing keys fall back to the defaults."""
    cp = default_config()
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    return cp


def _config_snapshot(cp: configparser.ConfigParser) -> dict:
    return {s: dict(cp[s]) for s in cp.sections()}


def flow_config_from(cp: configparser.ConfigParser) -> FlowConfig:
    try:
        grid = Grid(cp.getint("grid", "dim"), cp.getfloat("grid", "box_length"),
                    cp.getint("grid", "points_per_axis"))
        target = SphereTarget(cp.getint("target", "ambient_dim"),
                              cp.getfloat("target", "tube_radius"),
                              cp.getfloat("target", "blend_radius"))
        return FlowConfig(
            grid=grid, target=target,
            t_final=cp.getfloat("time", "t_final"),
            num_frames=cp.getint("time", "num_frames"),
            time_exponent=cp.getfloat("time", "grid_exponent"),
            mode=cp.get("mode", "mode"),
            max_picard_iters=cp.getint("picard", "max_iters"),
            picard_tol=cp.getfloat("picard", "tol"),
            tube_exit_policy=cp.get("picard", "tube_exit_policy"),
        )
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def initial_data_from(cp: configparser.ConfigParser, grid: Grid, target: SphereTarget,
                      amplitude: float | None = None) -> GridField:
    kind = cp.get("initial", "kind")
    if kind == "equator_sine":
        eps = cp.getfloat("initial", "amplitude") if amplitude is None else amplitude
        return equator_initial_data(grid, eps, cp.getint("initial", "frequency"),
                                    target.ambient_dim)
    if kind == "constant":
        point = np.zeros(target.ambient_dim)
        point[0] = 1.0
        return constant_initial_data(grid, point)
    raise ConfigError(f"unknown initial data kind {kind!r}")


# ----------------------------------------------------------------------
# manifest and report helpers
# ----------------------------------------------------------------------

@dataclass
class RunManifest:
    """Record of one orchestrated run; lists every emitted file."""

    command: str
    config: dict
    seed: int | None = None  # None for the commands that draw no ensemble
    code_version: str = __version__
    status: str = "running"
    wall_time_s: float = 0.0
    outputs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    error: str | None = None

    def write(self, out_dir: Path):
        payload = {
            "command": self.command, "config": self.config, "seed": self.seed,
            "code_version": self.code_version, "status": self.status,
            "wall_time_s": self.wall_time_s, "outputs": sorted(self.outputs),
            "summary": self.summary, "error": self.error,
        }
        (out_dir / "run_manifest.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1))


@contextlib.contextmanager
def _recorded(manifest: RunManifest, out_dir: Path):
    """Write the manifest before the run and again after it, with the wall
    time and status "completed", or "failed" and the error if it raised."""
    manifest.write(out_dir)  # manifest exists before any other output
    start = time.perf_counter()
    try:
        yield
        manifest.status = "completed"
    except Exception as exc:
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.wall_time_s = time.perf_counter() - start
        manifest.write(out_dir)


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(out_dir: Path, name: str, payload, manifest: RunManifest,
                prefix: str = "") -> None:
    (out_dir / name).write_text(
        json.dumps(payload, sort_keys=True, indent=1, default=_json_default))
    manifest.outputs.append(prefix + name)


def _write_csv(out_dir: Path, name: str, header: list[str], rows,
               manifest: RunManifest, prefix: str = "") -> None:
    with open(out_dir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])
    manifest.outputs.append(prefix + name)


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def _suite_kernel(cp, out_dir: Path, manifest: RunManifest, prefix: str = "") -> dict:
    dim = cp.getint("grid", "dim")
    tol = cp.getfloat("kernel", "tolerance")
    nodes = cp.getint("kernel", "quadrature_nodes")
    c1 = cp.getfloat("kernel", "c1")
    profile = default_profile(dim, tol, nodes)
    certs = [
        certify_bound(profile, "2.2"),
        certify_bound(profile, "2.3", 1),
        certify_bound(profile, "2.4", 1, c1=c1),
        certify_bound(profile, "2.5", 0, c1=c1),
    ]
    _write_json(out_dir, "kernel_certificates.json",
                [c.to_json() for c in certs], manifest, prefix)
    masses = {repr(t): kernel_mass(profile, t) for t in (1e-2, 1.0, 1e2)}
    mass_ok = all(abs(m - 1.0) <= 1e-8 for m in masses.values())
    _write_json(out_dir, "kernel_mass.json",
                {"masses": masses, "pass": mass_ok}, manifest, prefix)
    return {"kernel_mass_conservation": mass_ok,
            "kernel_certificates_finite": all(np.isfinite(c.fitted_constant)
                                              for c in certs)}


def _suite_operators(cp, out_dir: Path, manifest: RunManifest, prefix: str = "") -> dict:
    grid = Grid(cp.getint("grid", "dim"), cp.getfloat("grid", "box_length"), 32)
    frames = 12
    T = 0.5
    times = T * (np.arange(frames + 1) / frames) ** 4
    size = cp.getint("experiments", "ensemble_size")
    seed = manifest.seed
    base = operator_bound_experiment(grid, times, size, seed,
                                     max_mode=cp.getint("experiments", "max_mode"))
    doubled = operator_bound_experiment(grid, times, 2 * size, seed,
                                        max_mode=cp.getint("experiments", "max_mode"))
    report = {
        "ensemble": {k: base[k] for k in ("s_over_y1", "sdiv_over_y2",
                                          "ensemble_size", "excluded")},
        "doubled": {k: doubled[k] for k in ("s_over_y1", "sdiv_over_y2",
                                            "ensemble_size", "excluded")},
        "growth_s": doubled["s_over_y1"] / base["s_over_y1"] - 1.0,
        "growth_div": doubled["sdiv_over_y2"] / base["sdiv_over_y2"] - 1.0,
    }
    _write_json(out_dir, "operator_bounds.json", report, manifest, prefix)
    ok = (np.isfinite(base["s_over_y1"]) and np.isfinite(base["sdiv_over_y2"])
          and report["growth_s"] <= 0.10 and report["growth_div"] <= 0.10)
    return {"operator_bounds_stable": bool(ok)}


def smoothing_family_constants(grid: Grid, R: float, ambient_dim: int = 3) -> dict:
    """Fitted smoothing constants at one scale: max of each ratio over the
    amplitude-0.2 equator family with frequencies 4, 8, 16, 32, which spans
    the dyadic scales (scale covering makes the fitted constant scale-stable
    even though single members are not)."""
    best = {"cylinder_ratio": 0.0, "weighted_sup_ratio": 0.0, "quartic_ratio": 0.0}
    for qf in (4, 8, 16, 32):
        u0 = equator_initial_data(grid, 0.2, qf, ambient_dim)
        row = smoothing_ratios(u0, R)
        for k in best:
            best[k] = max(best[k], row[k])
    best["R"] = R
    return best


def _suite_norms(cp, out_dir: Path, manifest: RunManifest, prefix: str = "") -> dict:
    grid = Grid(1, cp.getfloat("grid", "box_length"), 256)
    target = SphereTarget(cp.getint("target", "ambient_dim"))
    R0 = grid.box_length / 4.0
    rows = [smoothing_family_constants(grid, R0 / 2 ** j,
                                       ambient_dim=target.ambient_dim)
            for j in range(3)]
    _write_csv(out_dir, "smoothing_ratios.csv",
               ["R", "cylinder_ratio", "weighted_sup_ratio", "quartic_ratio"],
               [[r["R"], r["cylinder_ratio"], r["weighted_sup_ratio"],
                 r["quartic_ratio"]] for r in rows], manifest, prefix)

    def drift(key):
        vals = [r[key] for r in rows]
        return max(vals) / min(vals) - 1.0

    ratios_ok = all(drift(k) <= 0.10 for k in
                    ("cylinder_ratio", "weighted_sup_ratio", "quartic_ratio"))

    # square-function / oscillation comparability across a test family
    fam_grid = Grid(1, cp.getfloat("grid", "box_length"), 128)
    Rc = fam_grid.box_length * cp.getfloat("experiments", "carleson_radius_fraction")
    family = []
    for q in (2, 4, 8):
        for a in (0.5, 1.0):
            coords = fam_grid.coordinates()[0]
            vals = a * np.sin(2 * np.pi * q * coords / fam_grid.box_length)
            family.append(GridField(fam_grid, vals[..., None]))
    table = []
    for g in family:
        b = bmo_seminorm(g, Rc)
        for i in (1, 2):
            c = carleson_functional(g, i, Rc)
            table.append({"order": i, "bmo": b, "carleson": c, "ratio": c / b ** 2})
    cfit = max(t["ratio"] for t in table)
    _write_json(out_dir, "carleson_comparability.json",
                {"fitted_constant": cfit, "table": table}, manifest, prefix)
    return {"smoothing_ratios_stable": bool(ratios_ok),
            "carleson_constant_finite": bool(np.isfinite(cfit))}


def _suite_flow(cp, out_dir: Path, manifest: RunManifest, prefix: str = "") -> dict:
    cfg = flow_config_from(cp)
    u0 = initial_data_from(cp, cfg.grid, cfg.target)
    traj, diag = picard_solve(cfg, u0)
    files = save_space_time_field(traj, out_dir / "solution")
    manifest.outputs.extend(f"{prefix}solution/{f}" for f in files)
    _write_json(out_dir, "flow_diagnostics.json", diag.to_json(), manifest, prefix)
    return {"flow_converged": bool(diag.converged),
            "flow_constraint_ok": not diag.constraint_flag}


def _suite_distance(cp, out_dir: Path, manifest: RunManifest, prefix: str = "") -> dict:
    grid = Grid(1, cp.getfloat("grid", "box_length"), 128)
    target = SphereTarget(cp.getint("target", "ambient_dim"))
    eps = cp.getfloat("experiments", "distance_amplitude")
    u0 = equator_initial_data(grid, eps, 1, target.ambient_dim)
    R = grid.box_length * cp.getfloat("experiments", "bmo_radius_fraction")
    report = distance_experiment(u0, R, delta=cp.getfloat("experiments", "distance_delta"))
    _write_csv(out_dir, "distance_estimate.csv", ["t", "lhs", "rhs", "holds"],
               [[r["t"], r["lhs"], r["rhs"], r["holds"]] for r in report["rows"]],
               manifest, prefix)
    _write_json(out_dir, "distance_summary.json",
                {k: report[k] for k in ("K", "delta", "R", "all_hold")}, manifest, prefix)
    return {"distance_estimate_holds": bool(report["all_hold"])}


_SUITE_FNS = {
    "kernel": _suite_kernel,
    "operators": _suite_operators,
    "norms": _suite_norms,
    "flow": _suite_flow,
    "distance": _suite_distance,
}


def run_suite(suite_id: str, config=None, out_dir="runs", seed: int = 0) -> RunManifest:
    """Execute one experiment suite (or all of them) and write its reports.

    Only the operators ensemble reads the seed, so the manifest records it for
    the suites in SEEDED_SUITES and null for the others.
    """
    if suite_id not in SUITES:
        raise ConfigError(f"unknown suite {suite_id!r}; choose from {SUITES}")
    cp = config if isinstance(config, configparser.ConfigParser) else load_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=f"run_suite {suite_id}",
                           config=_config_snapshot(cp),
                           seed=seed if suite_id in SEEDED_SUITES else None)
    names = [suite_id] if suite_id != "all" else list(_SUITE_FNS)
    with _recorded(manifest, out):
        for name in names:
            sub = out / name if suite_id == "all" else out
            prefix = f"{name}/" if suite_id == "all" else ""
            sub.mkdir(parents=True, exist_ok=True)
            summary = _SUITE_FNS[name](cp, sub, manifest, prefix)
            manifest.summary.update(summary)
    return manifest


# ----------------------------------------------------------------------
# dedicated commands
# ----------------------------------------------------------------------

# (estimate, derivative order) of every certificate, in report order
_ALL_CERTIFICATES = (("2.2", 0), *(("2.3", k) for k in range(1, 5)),
                     *(("2.4", k) for k in range(1, 5)), *(("2.5", j) for j in range(5)))


def run_kernel_verify(dim: int, estimate: str, order: int | None, tol: float,
                      out_file, c1: float = 0.5):
    """Emit one decay certificate as JSON, or with estimate "all" the list of
    all 14: 2.2 order 0, 2.3 and 2.4 orders 1-4, 2.5 orders 0-4, from the
    default profile with 16 quadrature nodes per unit k.

    order None means 0 for a single estimate; "all" covers every order and
    takes none.  A dim, tolerance or derivative order the certificate does not
    admit is a ConfigError; a quadrature that fails its residual check still
    raises.
    """
    if estimate != "all":
        jobs = ((estimate, order or 0),)
    elif order is None:
        jobs = _ALL_CERTIFICATES
    else:
        raise ConfigError(f"kernel-verify --estimate all covers every order; "
                          f"drop --order {order}")
    try:
        profile = default_profile(dim, tol)
        payloads = [certify_bound(profile, est, k, c1=c1).to_json() for est, k in jobs]
    except ValueError as exc:
        raise ConfigError(f"kernel-verify --dim {dim} --estimate {estimate} "
                          f"--tol {tol:g}: {exc}") from exc
    payload = payloads if estimate == "all" else payloads[0]
    Path(out_file).write_text(json.dumps(payload, sort_keys=True, indent=1))
    return payload


def run_evolve(config_path, out_dir) -> RunManifest:
    """Run one Picard solve per the config file; dump frames + diagnostics."""
    cp = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command="evolve", config=_config_snapshot(cp))
    with _recorded(manifest, out):
        manifest.summary = _suite_flow(cp, out, manifest)
    return manifest


def run_contraction_sweep(config_path, out_dir, amplitudes) -> RunManifest:
    """Picard runs across an amplitude family; CSV of contraction behaviour."""
    cp = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command="contraction-sweep", config=_config_snapshot(cp))
    with _recorded(manifest, out):
        cfg = flow_config_from(cp)
        R = cfg.grid.box_length * cp.getfloat("experiments", "bmo_radius_fraction")
        rows = []
        for eps in amplitudes:
            u0 = initial_data_from(cp, cfg.grid, cfg.target, amplitude=eps)
            bmo = bmo_seminorm(u0, R)
            traj, diag = picard_solve(cfg, u0)
            theta_max = max(diag.contraction_ratios) if diag.contraction_ratios else 0.0
            rows.append([eps, bmo, theta_max, diag.converged, diag.iterations,
                         diag.diff_norms[-1] if diag.diff_norms else 0.0])
        _write_csv(out, "contraction_sweep.csv",
                   ["amplitude", "bmo_seminorm", "theta_max", "converged",
                    "iterations", "d_last"], rows, manifest)
        manifest.summary = {"all_converged": all(r[3] for r in rows)}
    return manifest
