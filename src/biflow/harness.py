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
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, QuadratureResidualError, ScaleUnresolvableError
from .fields import Grid, GridField, save_space_time_field
from .flow import (FlowConfig, constant_initial_data, distance_experiment,
                   equator_initial_data, picard_solve)
from .kernel import CERTIFICATE_ORDERS, certify_bound, default_profile, kernel_mass
from .manifold import SphereTarget
from .norms import bmo_seminorm, carleson_functional, smoothing_ratios
from .semigroup import operator_bound_experiment

__all__ = [
    "SUITES",
    "SEEDED_SUITES",
    "RunManifest",
    "load_config",
    "default_config",
    "flow_config_from",
    "smoothing_family_constants",
    "run_suite",
    "run_kernel_verify",
    "run_evolve",
    "run_contraction_sweep",
]

SUITES = ("kernel", "operators", "norms", "flow", "distance", "all")
SEEDED_SUITES = ("operators", "all")  # the ones that draw a random ensemble


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_DEFAULT_CONFIG = {
    "grid": {"dim": "1", "box_length": str(2.0 * math.pi), "points_per_axis": "64"},
    "target": {"ambient_dim": "3", "tube_radius": "0.5"},
    "time": {"t_final": "1.0", "num_frames": "32"},
    "picard": {"max_iters": "20", "tol": "1e-9", "tube_exit_policy": "error"},
    "mode": {"mode": "extrinsic"},
    "initial": {"kind": "equator_sine", "amplitude": "0.05", "frequency": "1"},
    "kernel": {"tolerance": "1e-9", "c1": "0.5"},
    "experiments": {"ensemble_size": "64", "max_mode": "3",
                    "carleson_radius_fraction": "0.25",
                    "bmo_radius_fraction": "0.25",
                    "distance_delta": "0.05", "distance_amplitude": "0.2"},
}


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(_DEFAULT_CONFIG)
    return cp


def load_config(path=None) -> configparser.ConfigParser:
    """Sectioned config file; missing keys fall back to the defaults.  A file
    that cannot be read or parsed is a ConfigError."""
    cp = default_config()
    if path is not None:
        try:
            read = cp.read(path)
        except configparser.Error as exc:  # e.g. no section header, a repeated key
            raise ConfigError(f"cannot parse config file: {' '.join(str(exc).split())}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    return cp


def _check_settings(cp: configparser.ConfigParser) -> None:
    """Reject a section or key that no run reads: a typo is not a setting.
    configparser copies a [DEFAULT] key into every section, so it is named
    as written before the sections are read."""
    for key in cp.defaults():
        raise ConfigError(f"[DEFAULT] {key} is not a setting biflow reads")
    for section in cp.sections():
        if section not in _DEFAULT_CONFIG:
            raise ConfigError(f"[{section}] is not a section biflow reads")
        for key in cp.options(section):
            if key not in _DEFAULT_CONFIG[section]:
                raise ConfigError(f"[{section}] {key} is not a setting biflow reads")


def _config_snapshot(cp: configparser.ConfigParser) -> dict:
    return {s: dict(cp[s]) for s in cp.sections()}


def _number(cp: configparser.ConfigParser, section: str, key: str, kind: type):
    """[section] key parsed as kind, int or float; a value that does not
    parse is a ConfigError that names it as written."""
    text = cp.get(section, key)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key} = {text} is not {noun}") from None


def _finite(cp: configparser.ConfigParser, section: str, key: str) -> float:
    """[section] key as a finite float, for a value that no later check
    would reject when it is not finite."""
    value = _number(cp, section, key, float)
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {cp.get(section, key)} is not finite")
    return value


@contextlib.contextmanager
def _invalid_config():
    """Turn a value that the object built from it rejects (a ValueError, or
    a config key that cannot be read) into a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def flow_config_from(cp: configparser.ConfigParser) -> FlowConfig:
    with _invalid_config():
        grid = Grid(_number(cp, "grid", "dim", int), _number(cp, "grid", "box_length", float),
                    _number(cp, "grid", "points_per_axis", int))
        target = SphereTarget(_number(cp, "target", "ambient_dim", int),
                              _number(cp, "target", "tube_radius", float))
        return FlowConfig(
            grid=grid, target=target,
            t_final=_number(cp, "time", "t_final", float),
            num_frames=_number(cp, "time", "num_frames", int),
            mode=cp.get("mode", "mode"),
            max_picard_iters=_number(cp, "picard", "max_iters", int),
            picard_tol=_number(cp, "picard", "tol", float),
            tube_exit_policy=cp.get("picard", "tube_exit_policy"),
        )


def _experiment_value(cp: configparser.ConfigParser, key: str,
                      high: float = math.inf) -> float:
    """[experiments] key as a float, rejected unless it lies in (0, high]."""
    value = _number(cp, "experiments", key, float)
    if not 0.0 < value <= high:
        rule = "be positive" if high == math.inf else f"lie in (0, {high:g}]"
        raise ConfigError(f"[experiments] {key} must {rule}, got {value}")
    return value


def _ball_radius(cp: configparser.ConfigParser, key: str, grid: Grid, floor: float) -> float:
    """box_length times [experiments] key, a fraction in (0, 1/2], rejected
    unless the radius lies above floor, the smallest one the run resolves
    on its grid."""
    R = grid.box_length * _experiment_value(cp, key, 0.5)
    if not R > floor:
        raise ConfigError(
            f"[experiments] {key} = {cp.get('experiments', key)} gives R={R:.3g}, "
            f"not above {floor:.3g} on the {grid.points_per_axis}-point grid")
    return R


def _initial_data_from(cp: configparser.ConfigParser, grid: Grid, target: SphereTarget,
                       amplitude: float | None = None) -> GridField:
    kind = cp.get("initial", "kind")
    if kind == "equator_sine":
        eps = _finite(cp, "initial", "amplitude") if amplitude is None else amplitude
        frequency = _number(cp, "initial", "frequency", int)
        if not 1 <= frequency < grid.points_per_axis / 2:  # else it aliases
            raise ConfigError(f"[initial] frequency = {cp.get('initial', 'frequency')} must lie "
                              f"in [1, {grid.points_per_axis // 2}) on the "
                              f"{grid.points_per_axis}-point grid")
        return equator_initial_data(grid, eps, frequency, target.ambient_dim)
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
def _recorded(command: str, cp: configparser.ConfigParser, out_dir,
              seed: int | None = None):
    """Open a run in out_dir (made if missing) and yield (manifest, out).

    The manifest is written before the run and again after it, with the wall
    time and status "completed", or "failed" and the error if it raised."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command=command, config=_config_snapshot(cp), seed=seed)
    manifest.write(out)  # manifest exists before any other output
    start = time.perf_counter()
    try:
        _check_settings(cp)
        yield manifest, out
        manifest.status = "completed"
    except Exception as exc:
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.wall_time_s = time.perf_counter() - start
        manifest.write(out)


def _write_json(out_dir: Path, name: str, payload, manifest: RunManifest,
                prefix: str = "") -> None:
    (out_dir / name).write_text(
        json.dumps(payload, sort_keys=True, indent=1))
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

# Each suite reads and checks its configuration and returns the callable that
# does its work, work(out_dir, manifest, prefix) -> summary, so that a run
# of several suites rejects a bad value of any of them before any of them runs.

def _suite_kernel(cp):
    dim = _number(cp, "grid", "dim", int)
    tol = _number(cp, "kernel", "tolerance", float)
    c1 = _finite(cp, "kernel", "c1")
    if not c1 > 0.0:
        raise ConfigError(f"[kernel] c1 must be positive, got {c1}")
    with _invalid_config():
        profile = default_profile(dim, tol)

    def work(out_dir: Path, manifest: RunManifest, prefix: str) -> dict:
        # a tolerance below the rounding floor of the quadrature is known
        # only once it runs: every number is computed before any is written
        try:
            # each estimate at its lowest order
            certs = [certify_bound(profile, est, orders[0], c1=c1)
                     for est, orders in CERTIFICATE_ORDERS.items()]
            masses = {repr(t): kernel_mass(profile, t) for t in (1e-2, 1.0, 1e2)}
        except QuadratureResidualError as exc:
            raise ConfigError(
                f"[kernel] tolerance = {cp.get('kernel', 'tolerance')}: {exc}") from exc
        _write_json(out_dir, "kernel_certificates.json",
                    [c.to_json() for c in certs], manifest, prefix)
        mass_ok = all(abs(m - 1.0) <= 1e-8 for m in masses.values())
        _write_json(out_dir, "kernel_mass.json",
                    {"masses": masses, "pass": mass_ok}, manifest, prefix)
        return {"kernel_mass_conservation": mass_ok,
                "kernel_certificates_finite": all(np.isfinite(c.fitted_constant)
                                                  for c in certs)}
    return work


def _suite_operators(cp):
    with _invalid_config():
        grid = Grid(_number(cp, "grid", "dim", int), _number(cp, "grid", "box_length", float), 32)
    frames = 12
    T = 0.5
    times = T * (np.arange(frames + 1) / frames) ** 4
    size = _number(cp, "experiments", "ensemble_size", int)
    max_mode = _number(cp, "experiments", "max_mode", int)
    for key, value in (("ensemble_size", size), ("max_mode", max_mode)):
        if value < 1:
            raise ConfigError(f"[experiments] {key} must be at least 1, got {value}")
    if max_mode >= grid.points_per_axis // 2:  # else its modes alias
        raise ConfigError(f"[experiments] max_mode = {max_mode} must lie below "
                          f"{grid.points_per_axis // 2} on the {grid.points_per_axis}-point grid")

    def work(out_dir: Path, manifest: RunManifest, prefix: str) -> dict:
        # the doubled ensemble's first half is the base ensemble: one draw for both
        doubled = operator_bound_experiment(grid, times, 2 * size, manifest.seed,
                                            max_mode=max_mode)
        base = doubled["first_half"]
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
    return work


def smoothing_family_constants(grid: Grid, R: float, ambient_dim: int = 3) -> list[dict]:
    """Fitted smoothing constants at the scales R, R/2 and R/4: per scale,
    the max of each ratio over the amplitude-0.2 equator family with
    frequencies 4, 8, 16, 32, which spans the dyadic scales (scale covering
    makes the fitted constant scale-stable even though single members are
    not).  Each member's three rows come from one ``smoothing_ratios`` scan."""
    if R / 4 <= 2.0 * grid.spacing:
        raise ScaleUnresolvableError(
            f"R/4={R / 4:.3g} is not above 2h={2 * grid.spacing:.3g}")
    members = [smoothing_ratios(equator_initial_data(grid, 0.2, qf, ambient_dim), R)[:3]
               for qf in (4, 8, 16, 32)]
    keys = ("cylinder_ratio", "weighted_sup_ratio", "quartic_ratio")
    return [{**{k: max(row[k] for row in rows) for k in keys}, "R": rows[0]["R"]}
            for rows in zip(*members)]


def _suite_norms(cp):
    # the comparability family's grid, where the oscillation seminorm needs
    # a radius above 2h
    with _invalid_config():
        fam_grid = Grid(1, _number(cp, "grid", "box_length", float), 128)
        target = SphereTarget(_number(cp, "target", "ambient_dim", int))
    Rc = _ball_radius(cp, "carleson_radius_fraction", fam_grid, 2.0 * fam_grid.spacing)

    def work(out_dir: Path, manifest: RunManifest, prefix: str) -> dict:
        grid = Grid(1, fam_grid.box_length, 256)
        R0 = grid.box_length / 4.0
        rows = smoothing_family_constants(grid, R0, ambient_dim=target.ambient_dim)
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
    return work


def _suite_flow(cp):
    cfg = flow_config_from(cp)
    u0 = _initial_data_from(cp, cfg.grid, cfg.target)

    def work(out_dir: Path, manifest: RunManifest, prefix: str) -> dict:
        traj, diag = picard_solve(cfg, u0)
        files = save_space_time_field(traj, out_dir / "solution")
        manifest.outputs.extend(f"{prefix}solution/{f}" for f in files)
        _write_json(out_dir, "flow_diagnostics.json", diag.to_json(), manifest, prefix)
        return {"flow_converged": bool(diag.converged),
                "flow_constraint_ok": not diag.constraint_flag}
    return work


def _suite_distance(cp):
    with _invalid_config():
        grid = Grid(1, _number(cp, "grid", "box_length", float), 128)
        target = SphereTarget(_number(cp, "target", "ambient_dim", int))
    # distance_experiment samples times from (2h / K)^4 * 1.01 up to
    # (R / K)^4, a range that is empty, whatever K is, unless R is above this
    R = _ball_radius(cp, "bmo_radius_fraction", grid, 2.0 * grid.spacing * 1.01 ** 0.25)
    delta = _experiment_value(cp, "distance_delta")
    if delta < sys.float_info.min:  # the kernel-tail radius K is not finite below it
        text = cp.get("experiments", "distance_delta")
        raise ConfigError(f"[experiments] distance_delta = {text} is below the smallest "
                          f"normal float, {sys.float_info.min:.4g}")
    eps = _finite(cp, "experiments", "distance_amplitude")

    def work(out_dir: Path, manifest: RunManifest, prefix: str) -> dict:
        u0 = equator_initial_data(grid, eps, 1, target.ambient_dim)
        report = distance_experiment(u0, R, delta=delta)
        _write_csv(out_dir, "distance_estimate.csv", ["t", "lhs", "rhs", "holds"],
                   [[r["t"], r["lhs"], r["rhs"], r["holds"]] for r in report["rows"]],
                   manifest, prefix)
        _write_json(out_dir, "distance_summary.json",
                    {k: report[k] for k in ("K", "delta", "R", "all_hold")}, manifest, prefix)
        return {"distance_estimate_holds": bool(report["all_hold"])}
    return work


_SUITE_FNS = {
    "kernel": _suite_kernel,
    "operators": _suite_operators,
    "norms": _suite_norms,
    "flow": _suite_flow,
    "distance": _suite_distance,
}


def run_suite(suite_id: str, config=None, out_dir="runs", seed: int = 0) -> RunManifest:
    """Execute one experiment suite (or all of them) and write its reports.

    Every selected suite checks its configuration before any of them runs,
    so a rejected value, a negative seed included, leaves no report.  Only
    the operators ensemble reads the seed, so the manifest records it for the
    suites in SEEDED_SUITES and null for the others.
    """
    if suite_id not in SUITES:
        raise ConfigError(f"unknown suite {suite_id!r}; choose from {SUITES}")
    cp = load_config(config)
    names = [suite_id] if suite_id != "all" else list(_SUITE_FNS)
    with _recorded(f"run_suite {suite_id}", cp, out_dir,
                   seed if suite_id in SEEDED_SUITES else None) as (manifest, out):
        if suite_id in SEEDED_SUITES and seed < 0:
            raise ConfigError(f"--seed {seed} is negative; the ensemble seed is a "
                              "non-negative integer")
        works = [(name, _SUITE_FNS[name](cp)) for name in names]
        for name, work in works:
            sub = out / name if suite_id == "all" else out
            prefix = f"{name}/" if suite_id == "all" else ""
            sub.mkdir(parents=True, exist_ok=True)
            manifest.summary.update(work(sub, manifest, prefix))
    return manifest


# ----------------------------------------------------------------------
# dedicated commands
# ----------------------------------------------------------------------

def run_kernel_verify(dim: int, estimate: str, order: int | None, tol: float,
                      out_file, c1: float = 0.5):
    """Emit one decay certificate as JSON, or with estimate "all" the list of
    all 14, every estimate at every order ``CERTIFICATE_ORDERS`` admits, from
    the default profile with 16 quadrature nodes per unit k.

    order None means 0 for a single estimate; "all" covers every order and
    takes none.  A dim, tolerance, c1 or derivative order the certificate
    does not admit is a ConfigError, and so is a tolerance below the
    rounding floor of the quadrature, which the kernel reports as a
    QuadratureResidualError; no file is written then.
    """
    if not (math.isfinite(c1) and c1 > 0.0):
        raise ConfigError(f"kernel-verify --c1 must be positive and finite, got {c1:g}")
    if estimate != "all":
        jobs = ((estimate, order or 0),)
    elif order is None:
        jobs = [(est, k) for est, orders in CERTIFICATE_ORDERS.items() for k in orders]
    else:
        raise ConfigError(f"kernel-verify --estimate all covers every order; "
                          f"drop --order {order}")
    try:
        profile = default_profile(dim, tol)
        payloads = [certify_bound(profile, est, k, c1=c1).to_json() for est, k in jobs]
    except (ValueError, QuadratureResidualError) as exc:
        raise ConfigError(f"kernel-verify --dim {dim} --estimate {estimate} "
                          f"--tol {tol:g}: {exc}") from exc
    payload = payloads if estimate == "all" else payloads[0]
    Path(out_file).write_text(json.dumps(payload, sort_keys=True, indent=1))
    return payload


def run_evolve(config_path, out_dir) -> RunManifest:
    """Run one Picard solve per the config file; dump frames + diagnostics."""
    cp = load_config(config_path)
    with _recorded("evolve", cp, out_dir) as (manifest, out):
        manifest.summary = _suite_flow(cp)(out, manifest, "")
    return manifest


def run_contraction_sweep(config_path, out_dir, amplitudes) -> RunManifest:
    """Picard runs across an amplitude family; CSV of contraction behaviour."""
    cp = load_config(config_path)
    with _recorded("contraction-sweep", cp, out_dir) as (manifest, out):
        cfg = flow_config_from(cp)
        R = _ball_radius(cp, "bmo_radius_fraction", cfg.grid, 2.0 * cfg.grid.spacing)
        if cp.get("initial", "kind") == "constant":
            raise ConfigError("[initial] kind = constant has no amplitude to sweep")
        rows = []
        for eps in amplitudes:
            u0 = _initial_data_from(cp, cfg.grid, cfg.target, amplitude=eps)
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
