"""Config parsing, suites, manifests, CLI, determinism."""

import ast
import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biflow import harness
from biflow.cli import build_parser, main as cli_main
from biflow.errors import ConfigError, ManifoldTubeExitError
from biflow.fields import Grid, load_space_time_field
from biflow.flow import distance_experiment, equator_initial_data
from biflow.harness import (default_config, flow_config_from, load_config,
                            run_contraction_sweep, run_evolve, run_kernel_verify,
                            run_suite)


def test_default_config_builds_flow_config():
    cfg = flow_config_from(default_config())
    assert cfg.grid.dim == 1 and cfg.mode == "extrinsic"
    assert cfg.times()[0] == 0.0 and cfg.times()[-1] == cfg.t_final


def test_missing_config_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize("text, error", [
    ("dim = 1\n[grid]\n", "File contains no section headers."),  # a key before any section
    ("[grid\ndim = 1\n", "File contains no section headers."),  # an unclosed header
    ("[grid]\ndim = 1\ndim = 2\n", "option 'dim' in section 'grid' already exists"),
])
def test_cli_rejects_a_malformed_config_file_as_a_config_error(tmp_path, capsys, text, error):
    # like a file that cannot be read: one config error line, exit 2, no run
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(text)
    rc = cli_main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config file: ") and err.count("\n") == 1
    assert error in err and str(cfgfile) in err
    assert not (tmp_path / "out").exists()


def test_bad_config_value_raises(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[grid]\ndim = 7\n")
    with pytest.raises(ConfigError):
        flow_config_from(load_config(p))


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_suite("nonsense", out_dir=tmp_path)


def test_kernel_verify_writes_certificate(tmp_path):
    out = tmp_path / "cert.json"
    payload = run_kernel_verify(1, "2.3", 1, 1e-8, out)
    disk = json.loads(out.read_text())
    assert disk == json.loads(json.dumps(payload))
    assert disk["estimate_id"] == "2.3" and disk["order"] == 1


def test_kernel_verify_all_is_the_list_of_single_certificates(tmp_path):
    payloads = run_kernel_verify(1, "all", None, 1e-8, tmp_path / "all.json")
    singles = [run_kernel_verify(1, est, k, 1e-8, tmp_path / "one.json")
               for est, k in [("2.2", 0)] + [("2.3", k) for k in range(1, 5)]
               + [("2.4", k) for k in range(1, 5)] + [("2.5", j) for j in range(5)]]
    assert payloads == singles
    assert json.loads((tmp_path / "all.json").read_text()) == json.loads(json.dumps(singles))


def test_evolve_writes_manifest_first_and_lists_outputs(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "[grid]\npoints_per_axis = 32\n[time]\nnum_frames = 12\n"
        "[initial]\namplitude = 0.05\n")
    manifest = run_evolve(cfgfile, tmp_path / "out")
    mpath = tmp_path / "out" / "run_manifest.json"
    assert mpath.exists()
    disk = json.loads(mpath.read_text())
    assert disk["status"] == "completed" and disk["error"] is None
    assert disk["seed"] is None  # a solve draws no ensemble
    for name in disk["outputs"]:
        assert (tmp_path / "out" / name).exists()
    assert disk["summary"]["flow_converged"] is True
    # frames round-trip through the sidecar format
    sol = load_space_time_field(tmp_path / "out" / "solution")
    assert sol.num_frames == 13
    assert abs(np.sqrt((sol.values[0] ** 2).sum(-1)) - 1).max() < 1e-12


def test_contraction_sweep_csv(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[grid]\npoints_per_axis = 32\n[time]\nnum_frames = 12\n")
    manifest = run_contraction_sweep(cfgfile, tmp_path / "out", [0.02, 0.05])
    csv_path = tmp_path / "out" / "contraction_sweep.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "amplitude,bmo_seminorm,theta_max,converged,iterations,d_last"
    assert len(lines) == 3
    assert manifest.summary["all_converged"] is True
    assert all("np.float64" not in line for line in lines)


def _tree_digest(root, skip=("run_manifest.json",)):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_repeated_suite_runs_are_byte_identical(tmp_path):
    run_suite("operators", out_dir=tmp_path / "a", seed=5)
    run_suite("operators", out_dir=tmp_path / "b", seed=5)
    da, db = _tree_digest(tmp_path / "a"), _tree_digest(tmp_path / "b")
    assert da and da == db


def test_cli_kernel_verify_and_exit_codes(tmp_path, capsys):
    rc = cli_main(["kernel-verify", "--dim", "1", "--estimate", "2.2",
                   "--tol", "1e-8", "--out", str(tmp_path / "c.json")])
    assert rc == 0
    assert "fitted_constant" in capsys.readouterr().out
    assert (tmp_path / "c.json").exists()


def test_cli_flow_suite(tmp_path, capsys):
    rc = cli_main(["flow", "--out", str(tmp_path / "flowrun")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flow_converged: pass" in out


def _tube_exit_config(tmp_path):
    # amplitude 3 leaves the projection tube in the first Picard application
    cfgfile = tmp_path / "rough.cfg"
    cfgfile.write_text("[initial]\namplitude = 3.0\n")
    return cfgfile


def test_cli_tube_exit_has_own_exit_code_and_failed_manifest(tmp_path, capsys):
    rc = cli_main(["evolve", "--config", str(_tube_exit_config(tmp_path)),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("tube exit: ") and err.count("\n") == 1
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"].startswith("ManifoldTubeExitError: ")


def test_suite_tube_exit_leaves_failed_manifest(tmp_path):
    with pytest.raises(ManifoldTubeExitError) as err:
        run_suite("flow", _tube_exit_config(tmp_path), tmp_path / "out")
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"] == f"ManifoldTubeExitError: {err.value}"


def test_operators_suite_with_empty_ensemble_leaves_failed_manifest(tmp_path):
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text("[experiments]\nensemble_size = 0\n")
    with pytest.raises(ValueError, match="ensemble_size must be at least 1") as err:
        run_suite("operators", cfgfile, tmp_path / "out")
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"] == f"ConfigError: {err.value}"


@pytest.mark.parametrize("key, value", [
    ("ensemble_size", -3), ("ensemble_size", 0), ("max_mode", 0), ("max_mode", -2)])
def test_cli_operators_rejects_an_empty_ensemble_as_a_config_error(
        monkeypatch, tmp_path, capsys, key, value):
    # the message names the key and the value as written, not the doubled
    # count of the base-plus-doubled draw, and nothing is drawn
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"[experiments]\n{key} = {value}\n")
    monkeypatch.setattr("biflow.harness.operator_bound_experiment",
                        lambda *a, **k: pytest.fail("the ensemble was drawn"))
    rc = cli_main(["operators", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: [experiments] {key} must be at least 1, got {value}\n"
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"] == f"ConfigError: {err[len('config error: '):-1]}"


@pytest.mark.parametrize("key, value, message", [
    ("t_final", "nan", "t_final must be positive and finite, got nan"),
    ("num_frames", "3", "need at least 4 frames")])
def test_cli_evolve_rejects_bad_time_settings_as_config_errors(
        tmp_path, capsys, key, value, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"[time]\n{key} = {value}\n")
    rc = cli_main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: invalid configuration: {message}\n"
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"] == f"ConfigError: invalid configuration: {message}"


def _no_work(*args, **kwargs):
    pytest.fail("the run did work before rejecting its configuration")


@pytest.mark.parametrize("argv, config, message", [
    (["norms"], "carleson_radius_fraction = 0.75",
     "[experiments] carleson_radius_fraction must lie in (0, 0.5], got 0.75"),
    (["distance"], "bmo_radius_fraction = 0.6",
     "[experiments] bmo_radius_fraction must lie in (0, 0.5], got 0.6"),
    (["contraction-sweep", "--amplitudes", "0.05"], "bmo_radius_fraction = 0.75",
     "[experiments] bmo_radius_fraction must lie in (0, 0.5], got 0.75"),
    (["distance"], "distance_delta = -1",
     "[experiments] distance_delta must be positive, got -1.0"),
    (["contraction-sweep", "--amplitudes", "0.05,x"], "",
     "contraction-sweep --amplitudes '0.05,x' is not a comma-separated list "
     "of finite numbers"),
    (["contraction-sweep", "--amplitudes", ","], "",
     "contraction-sweep --amplitudes ',' is not a comma-separated list of finite numbers"),
])
def test_cli_rejects_bad_experiment_settings_before_any_work(
        monkeypatch, tmp_path, capsys, argv, config, message):
    # the message names the key or flag and its value, and nothing is computed
    for name in ("smoothing_ratios", "bmo_seminorm", "distance_experiment",
                 "picard_solve"):
        monkeypatch.setattr(f"biflow.harness.{name}", _no_work)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"[experiments]\n{config}\n")
    rc = cli_main([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # a bad flag is rejected before the run opens its manifest, a bad key after
    manifest = tmp_path / "out" / "run_manifest.json"
    assert manifest.exists() == bool(config)
    if config:
        disk = json.loads(manifest.read_text())
        assert disk["status"] == "failed" and disk["error"] == f"ConfigError: {message}"


@pytest.mark.parametrize("argv, config, message", [
    (["distance"], "[experiments]\ndistance_delta = abc",
     "[experiments] distance_delta = abc is not a number"),
    (["evolve"], "[initial]\namplitude = nan", "[initial] amplitude = nan is not finite"),
    # a key that is no setting any more
    (["kernel"], "[kernel]\nquadrature_nodes = 16",
     "[kernel] quadrature_nodes is not a setting biflow reads"),
    (["kernel"], "[kernel]\ntolerance = 1e-9x", "[kernel] tolerance = 1e-9x is not a number"),
    (["operators"], "[experiments]\nensemble_size = many",
     "[experiments] ensemble_size = many is not an integer"),
    (["norms"], "[experiments]\ncarleson_radius_fraction = 0.01",
     "[experiments] carleson_radius_fraction = 0.01 gives R=0.0628, "
     "not above 0.0982 on the 128-point grid"),
    (["distance"], "[experiments]\nbmo_radius_fraction = 0.01",
     "[experiments] bmo_radius_fraction = 0.01 gives R=0.0628, "
     "not above 0.0984 on the 128-point grid"),
    (["contraction-sweep", "--amplitudes", "0.05"], "[experiments]\nbmo_radius_fraction = 0.01",
     "[experiments] bmo_radius_fraction = 0.01 gives R=0.0628, "
     "not above 0.196 on the 64-point grid"),
    (["kernel"], "[kernel]\nc1 = -3", "[kernel] c1 must be positive, got -3.0"),
    (["operators"], "[grid]\ndim = 4", "invalid configuration: dim must be 1, 2 or 3"),
    (["norms"], "[target]\nambient_dim = 1", "invalid configuration: ambient_dim must be >= 2"),
    # the norms suite's value, checked before the kernel and operators suites run
    (["all"], "[target]\nambient_dim = 1", "invalid configuration: ambient_dim must be >= 2"),
    (["operators"], "[grid]\nbox_length = nan",
     "invalid configuration: box_length must be positive and finite, got nan"),
    (["evolve"], "[picard]\ntol = inf",
     "invalid configuration: picard_tol must be positive and finite, got inf"),
    (["evolve"], "[picard]\ntol = nan",
     "invalid configuration: picard_tol must be positive and finite, got nan"),
    # the kernel-tail radius K is not finite for a subnormal delta
    (["distance"], "[experiments]\ndistance_delta = 5e-324",
     "[experiments] distance_delta = 5e-324 is below the smallest normal float, 2.225e-308"),
    (["all"], "[experiments]\ndistance_delta = 5e-324",
     "[experiments] distance_delta = 5e-324 is below the smallest normal float, 2.225e-308"),
    # T^(1/4) below 2h: the solution norm has no cylinder to scan
    (["evolve"], "[time]\nt_final = 1e-3", "invalid configuration: t_final = 0.001: "
     "no dyadic radius fits between 2h=0.196 and 0.178"),
    (["all"], "[time]\nt_final = 1e-3", "invalid configuration: t_final = 0.001: "
     "no dyadic radius fits between 2h=0.196 and 0.178"),
    (["contraction-sweep", "--amplitudes", "0.05"], "[initial]\nkind = constant",
     "[initial] kind = constant has no amplitude to sweep"),
    # a frequency at or above M/2 aliases: 32 samples sin(pi j) = 0, the constant map
    (["evolve"], "[initial]\nfrequency = 32",
     "[initial] frequency = 32 must lie in [1, 32) on the 64-point grid"),
    (["flow"], "[initial]\nfrequency = 40",
     "[initial] frequency = 40 must lie in [1, 32) on the 64-point grid"),
    (["all"], "[initial]\nfrequency = 0",
     "[initial] frequency = 0 must lie in [1, 32) on the 64-point grid"),
    (["contraction-sweep", "--amplitudes", "0.05"], "[initial]\nfrequency = -1",
     "[initial] frequency = -1 must lie in [1, 32) on the 64-point grid"),
    # the ensemble's generator would reject it only when drawn, after all
    # has written the kernel reports
    (["operators", "--seed", "-1"], "",
     "--seed -1 is negative; the ensemble seed is a non-negative integer"),
    (["all", "--seed", "-1"], "",
     "--seed -1 is negative; the ensemble seed is a non-negative integer"),
])
def test_cli_rejects_unparsable_and_unresolvable_values_before_any_work(
        monkeypatch, tmp_path, capsys, argv, config, message):
    # a value that does not parse, is not finite, lies outside the range of
    # what is built from it, or gives a radius the suite's grid cannot
    # resolve is named, as is a key no run reads, and nothing is computed
    # or written
    _assert_rejected_before_any_work(monkeypatch, tmp_path, capsys, argv, config, message)


_UNREAD_SETTINGS = [
    ("[picard]\nmax_iter = 2", "[picard] max_iter is not a setting biflow reads"),
    # two misspelled keys: the first in the order of the default sections is named
    ("[picard]\nmax_iter = 2\n[time]\nnum_frame = 4",
     "[time] num_frame is not a setting biflow reads"),
    # the keys of the three values that are constants now
    ("[time]\ngrid_exponent = 4.0", "[time] grid_exponent is not a setting biflow reads"),
    ("[target]\nblend_radius = 0.25", "[target] blend_radius is not a setting biflow reads"),
    ("[kernel]\nquadrature_nodes = 16", "[kernel] quadrature_nodes is not a setting biflow reads"),
    ("[experiment]\nensemble_size = 8", "[experiment] is not a section biflow reads"),
    ("[experiment]", "[experiment] is not a section biflow reads"),
    # configparser copies a [DEFAULT] key into every section: it is named as written
    ("[DEFAULT]\ntol = 1e-10", "[DEFAULT] tol is not a setting biflow reads"),
]


@pytest.mark.parametrize("argv", [["evolve"], ["contraction-sweep", "--amplitudes", "0.05"],
                                  ["flow"], ["kernel"], ["all"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("config, message", _UNREAD_SETTINGS,
                         ids=["max_iter", "num_frame", "grid_exponent", "blend_radius",
                              "quadrature_nodes", "section", "empty_section", "default"])
def test_cli_rejects_a_setting_no_run_reads_before_any_work(
        monkeypatch, tmp_path, capsys, argv, config, message):
    # a misspelled or retired key would otherwise be recorded in the
    # manifest as if it had been used, and the run would pass
    _assert_rejected_before_any_work(monkeypatch, tmp_path, capsys, argv, config, message)


def _assert_rejected_before_any_work(monkeypatch, tmp_path, capsys, argv, config, message):
    for name in ("certify_bound", "operator_bound_experiment", "smoothing_ratios",
                 "bmo_seminorm", "distance_experiment", "picard_solve"):
        monkeypatch.setattr(f"biflow.harness.{name}", _no_work)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(config + "\n")
    rc = cli_main([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed" and disk["error"] == f"ConfigError: {message}"
    assert disk["outputs"] == []
    assert [p.name for p in (tmp_path / "out").rglob("*")] == ["run_manifest.json"]


def test_cli_kernel_rejects_a_tolerance_below_the_rounding_floor(tmp_path, capsys):
    # the floor is known only once the quadrature runs; the suite computes
    # every number before it writes one, so no report is left
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("[kernel]\ntolerance = 1e-30\n")
    rc = cli_main(["kernel", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [kernel] tolerance = 1e-30: rounding floor ")
    assert err.endswith(" exceeds tolerance 1.000e-30; double precision cannot meet it\n")
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed" and disk["error"] == f"ConfigError: {err[14:-1]}"
    assert disk["outputs"] == []
    assert [p.name for p in (tmp_path / "out").rglob("*")] == ["run_manifest.json"]


def test_cli_kernel_verify_rejects_a_tolerance_below_the_rounding_floor(tmp_path, capsys):
    rc = cli_main(["kernel-verify", "--dim", "2", "--estimate", "2.2", "--tol", "1e-30",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: kernel-verify --dim 2 --estimate 2.2 --tol 1e-30: "
                          "rounding floor ")
    assert err.endswith(" exceeds tolerance 1.000e-30; double precision cannot meet it\n")
    assert not (tmp_path / "c.json").exists()


def test_distance_radius_floor_is_the_edge_of_the_sampled_times():
    # the distance suite's floor on R: just above it distance_experiment
    # samples its times, just below it has none, whatever K is
    grid = Grid(1, 2 * np.pi, 128)
    floor = 2.0 * grid.spacing * 1.01 ** 0.25
    u0 = equator_initial_data(grid, 0.2, 1, 3)
    assert len(distance_experiment(u0, floor * (1 + 1e-12))["rows"]) == 8
    with pytest.raises(ValueError, match="no sampled times"):
        distance_experiment(u0, floor * (1 - 1e-12))


def test_sweep_tube_exit_leaves_failed_manifest(tmp_path):
    with pytest.raises(ManifoldTubeExitError):
        run_contraction_sweep(_tube_exit_config(tmp_path), tmp_path / "out", [3.0])
    disk = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert disk["status"] == "failed"
    assert disk["error"].startswith("ManifoldTubeExitError: ")


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["flow", "--threads", "2"])


@pytest.mark.parametrize("args", [
    ["--estimate", "2.3"],                 # default --order 0 is not admitted
    ["--estimate", "2.2", "--dim", "4"],
    ["--estimate", "2.2", "--tol", "-1"],
    ["--estimate", "2.2", "--tol", "20"],   # ln(10/tol) < 0: no truncation radius
    ["--estimate", "2.2", "--tol", "0.5"],  # sweep keeps no admissible sample
    ["--estimate", "all", "--order", "1"],  # all covers every order itself
])
def test_cli_kernel_verify_bad_arguments_are_config_errors(tmp_path, capsys, args):
    rc = cli_main(["kernel-verify", *args, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("args", [["--estimate", "2.5", "--c1", "-3"],
                                  ["--estimate", "all", "--c1", "0"]])
def test_cli_kernel_verify_rejects_a_nonpositive_c1_before_any_work(
        monkeypatch, tmp_path, capsys, args):
    # exp(-c1 |x|) with c1 <= 0 does not decay: no certificate is fitted to it
    monkeypatch.setattr("biflow.harness.certify_bound", _no_work)
    rc = cli_main(["kernel-verify", *args, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: kernel-verify --c1 must be positive and finite, got {args[-1]}\n")
    assert not (tmp_path / "c.json").exists()


def test_kernel_verify_config_and_seed_flags_are_gone():
    for flag in (["--config", "x.cfg"], ["--seed", "5"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernel-verify", "--estimate", "2.2",
                                       "--out", "c.json", *flag])


def test_evolve_and_sweep_take_no_seed():
    # a solve draws no ensemble, so a seed would be accepted and ignored
    for argv in (["evolve"], ["contraction-sweep", "--amplitudes", "0.05"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--seed", "5"])
        assert "seed" not in vars(build_parser().parse_args(argv))
    # of the suites only the operators ensemble draws from the seed
    with pytest.raises(SystemExit):
        build_parser().parse_args(["flow", "--seed", "5"])
    for suite in ("operators", "all"):
        assert build_parser().parse_args([suite, "--seed", "5"]).seed == 5


def _private_names_of_other_modules(path):
    """Private names a module imports from, or reads as an attribute of,
    another module of the package (a module or a name imported from one)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if a.name.startswith("_") and not a.name.endswith("__") and node.module:
                    yield f"{path.name}: from .{node.module} import {a.name}"
                imported.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported
                and node.attr.startswith("_") and not node.attr.endswith("__")):
            yield f"{path.name}: {node.value.id}.{node.attr}"


def test_no_module_imports_another_modules_private_names():
    # each private helper is owned by the module that defines it, and no
    # module of src/ reads one of another's: what a module shares, it makes
    # public (as semigroup.free_spectrum and Spectrum.with_coeffs are)
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = [use for path in sorted(src.glob("*.py"))
             for use in _private_names_of_other_modules(path)]
    assert found == []


def test_private_name_lint_sees_attribute_reads(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text("from . import flow\nfrom .fields import Grid as G, _x\n"
                   "flow._apply_T\nG._hidden\nG.__name__\nflow.picard_solve\n")
    assert sorted(_private_names_of_other_modules(mod)) == [
        "probe.py: G._hidden", "probe.py: flow._apply_T", "probe.py: from .fields import _x"]


# Every place src/ reorders an array's axes.  fields holds the two views
# between field layout and the component-major layout of the spectral layer;
# the other sites are the field boundaries that use them, and the member
# axis of the norms' stacks.  A new one must be added here.
_ALLOWED_LAYOUT_SITES = sorted([
    "fields.py: components_first: moveaxis",
    "fields.py: components_last: moveaxis",
    "fields.py: Spectrum.__init__: components_first",
    "fields.py: gradient: components_last",
    "fields.py: hessian: components_last",
    "fields.py: laplacian: components_last",
    "flow.py: _DerivBundle.__init__: components_first",
    "flow.py: nonlinearity_f1: components_last",
    "flow.py: nonlinearity_f2: components_last",
    "flow.py: nonlinearity_f3: components_last",
    "flow.py: _apply_T: components_last",
    "flow.py: constraint_diagnostics: components_first",
    "flow.py: constraint_diagnostics: components_first",
    "norms.py: _member_magnitudes.components: moveaxis",
    "norms.py: _stack_magnitudes.magnitudes: swapaxes",
    "semigroup.py: apply_G_trajectory: components_last",
    "semigroup.py: apply_S_trajectory: components_last",
    "semigroup.py: apply_S_div_trajectory: components_last",
])

_LAYOUT_OPS = ("moveaxis", "swapaxes", "rollaxis", "transpose", "T", "ascontiguousarray",
               "asfortranarray", "components_first", "components_last")


def _sites(path, ops):
    """'module: function: op' for every use of one of ops a module spells, as
    an attribute (np.moveaxis, a.T, a.transpose()) or a bare name (a variable
    named T aside), in the function or method around it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute):
                op = child.attr
            elif isinstance(child, ast.Name) and child.id != "T":
                op = child.id
            else:
                op = None
            if op in ops:
                yield f"{path.name}: {'.'.join(scope) or '<module>'}: {op}"
            yield from visit(child, scope)
    yield from visit(ast.parse(path.read_text()), [])


def test_axes_are_reordered_only_at_the_field_boundaries():
    # one layout in the spectral layer: no bundle, jet or sweep transposes
    # its arrays into a second copy
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = sorted(site for path in sorted(src.glob("*.py"))
                   for site in _sites(path, _LAYOUT_OPS))
    assert found == _ALLOWED_LAYOUT_SITES


def test_layout_lint_sees_every_spelling_of_a_reorder(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text("import numpy as np\nfrom numpy import moveaxis\n"
                   "from .fields import components_last\nT = 1.0\n"
                   "def f(a, T):\n    return np.moveaxis(a, 0, -1), a.T, T\n"
                   "class B:\n    def __init__(self, a):\n"
                   "        self.h = np.ascontiguousarray(a.transpose())\n"
                   "        g = lambda x: moveaxis(x, 0, 1).swapaxes(0, 1)\n"
                   "        self.g = components_last(a, 1)\n")
    assert sorted(_sites(mod, _LAYOUT_OPS)) == sorted([
        "probe.py: f: moveaxis", "probe.py: f: T",
        "probe.py: B.__init__: ascontiguousarray", "probe.py: B.__init__: transpose",
        "probe.py: B.__init__: moveaxis", "probe.py: B.__init__: swapaxes",
        "probe.py: B.__init__: components_last"])


def _public_top_level_names(tree):
    """Public top-level functions, classes and UPPER_CASE constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and n.id.isupper()]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_all_lists_exactly_the_public_names():
    # __all__ is the module's public surface: no public name left off it,
    # no listed name that the module does not define
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        listed = _dunder_all(tree)
        if path.name == "__init__.py" or listed is None:
            continue
        public = list(_public_top_level_names(tree))
        found += [f"{path.name}: {n} is public but not in __all__"
                  for n in public if n not in listed]
        found += [f"{path.name}: __all__ lists {n}, which is not defined or not public"
                  for n in listed if n not in public]
        found += [f"{path.name}: __all__ lists {n} twice"
                  for n in sorted(set(listed)) if listed.count(n) > 1]
    assert found == []


def _unread_parameters(tree):
    """(function, parameter) for every parameter its function body never reads;
    self, cls and *args are exempt.  A read in a nested function counts."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [a.kwarg.arg] if a.kwarg else []
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from ((node.name, p) for p in params
                    if p not in ("self", "cls") and p not in read)


def test_no_parameter_is_accepted_and_ignored():
    # a parameter no body reads is a setting that changes nothing
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = [f"{path.name}: {fn}({p})" for path in sorted(src.glob("*.py"))
             for fn, p in _unread_parameters(ast.parse(path.read_text()))]
    assert found == []


def _config_reads(tree):
    """(section, key) of every reader call in the harness that names both:
    _number, _finite and cp.get take the pair, _experiment_value and
    _ball_radius an [experiments] key."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        args = [a.value if isinstance(a, ast.Constant) else None for a in node.args]
        if name in ("_number", "_finite"):
            pair = args[1:3]
        elif name == "get" and isinstance(func.value, ast.Name) and func.value.id == "cp":
            pair = args[:2]
        elif name in ("_experiment_value", "_ball_radius"):
            pair = ["experiments", args[1]]
        else:
            continue
        if None not in pair:
            yield tuple(pair)


def test_every_config_key_is_read():
    # a default no run reads is a setting that changes nothing; the unknown-key
    # check rejects every other key, so the defaults are the whole config
    path = Path(harness.__file__)
    read = set(_config_reads(ast.parse(path.read_text())))
    defaults = {(s, k) for s, keys in harness._DEFAULT_CONFIG.items() for k in keys}
    assert read == defaults and len(defaults) == 22


_FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fftpack")


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _is_fft_module(name):
    name = "numpy" + name[2:] if name == "np" or name.startswith("np.") else name
    return any(name == m or name.startswith(m + ".") for m in _FFT_MODULES)


def _fft_lines(tree):
    """Line numbers of numpy.fft, scipy.fft and scipy.fftpack attribute reads
    (np for numpy) and of imports from those modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.value, ast.Attribute):
            # the innermost attribute of a chain, so each chain counts once
            if _is_fft_module(_dotted(node) or ""):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(_is_fft_module(a.name) for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and (
                _is_fft_module(node.module)
                or any(_is_fft_module(f"{node.module}.{a.name}") for a in node.names)):
            yield node.lineno


def _irfftn_calls_without_shape(tree):
    """Line numbers of irfftn calls that do not pass s=: without it an odd
    last axis comes back one point short."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "irfftn" and not any(k.arg == "s" for k in node.keywords):
                yield node.lineno


def test_fourier_transforms_live_in_fields_only():
    # fields is the one spectral layer: no other module touches numpy's or
    # scipy's FFT, and every inverse real transform there is given its shape
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name != "fields.py"
             for line in _fft_lines(ast.parse(path.read_text()))]
    assert found == []
    fields = ast.parse((src / "fields.py").read_text())
    assert list(_fft_lines(fields))  # the scan does see transforms
    # the shape check has irfftn calls to see
    assert [n for n in ast.walk(fields) if isinstance(n, ast.Call)
            and getattr(n.func, "attr", None) == "irfftn"]
    assert list(_irfftn_calls_without_shape(fields)) == []


def _scipy_imports(tree):
    """(line, module) of every scipy module an import statement names; a
    from-import of a name counts as importing scipy.<name> when the module
    is scipy itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = ([f"scipy.{a.name}" for a in node.names] if node.module == "scipy"
                     else [node.module])
        else:
            continue
        yield from ((node.lineno, n) for n in names if n == "scipy" or n.startswith("scipy."))


def test_scipy_imports_are_fft_in_fields_and_special():
    # the package needs scipy's transforms and special functions alone:
    # scipy.integrate or scipy.optimize would load scipy.linalg, scipy.sparse
    # and scipy's own BLAS into every process
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = {(path.name, module) for path in sorted(src.glob("*.py"))
             for _, module in _scipy_imports(ast.parse(path.read_text()))}
    assert {m for _, m in found} <= {"scipy.fft", "scipy.special"}
    assert {name for name, m in found if m == "scipy.fft"} == {"fields.py"}
    assert ("kernel.py", "scipy.special") in found  # the scan does see imports
    probe = ast.parse("import scipy.fft\nfrom scipy import integrate\n"
                      "from scipy.optimize import brentq\nimport numpy\nfrom . import fields\n")
    assert list(_scipy_imports(probe)) == [(1, "scipy.fft"), (2, "scipy.integrate"),
                                           (3, "scipy.optimize")]


def test_importing_the_package_loads_no_heavy_scipy_module():
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
    code = ("import sys, biflow, biflow.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_fft_lint_sees_every_spelling_of_a_transform():
    probe = ast.parse(
        "import numpy as np\nimport scipy\nimport scipy.fft\nfrom scipy import fftpack\n"
        "from scipy.fft import rfftn\nfrom numpy import fft\nimport scipy.fftpack as fp\n"
        "from scipy import special\nscipy.fft.rfftn(x)\nnp.fft.fftn(x)\nscipy.special.gamma(x)\n"
        "irfftn(c, axes=a)\nscipy.fft.irfftn(c, s=g.shape)\nscipy.fft.irfftn(c)\n")
    assert sorted(set(_fft_lines(probe))) == [3, 4, 5, 6, 7, 9, 10, 13, 14]
    assert list(_irfftn_calls_without_shape(probe)) == [12, 14]


def _calls_of(tree, name):
    """Line numbers of every call of name, bare (f()) or as an attribute (m.f())."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                yield node.lineno


def test_no_norm_builds_a_field():
    # a norm reads its input's values in place, through callbacks that give
    # one block of frames: it never copies the stack into a new field
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    assert list(_calls_of(ast.parse((src / "norms.py").read_text()), "SpaceTimeField")) == []
    # the scan does see the fields other modules build
    assert list(_calls_of(ast.parse((src / "semigroup.py").read_text()), "SpaceTimeField"))


def test_norms_fill_every_magnitude_stack_in_one_blocked_loop():
    # |u|, |f| and every derivative magnitude take one path, summed in one
    # order by pointwise_norm: only _stack_magnitudes walks the frame blocks
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "biflow" / "norms.py")
                     .read_text())
    stack, = (node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_stack_magnitudes")
    calls = list(_calls_of(tree, "frame_blocks"))
    assert len(calls) == 1 and list(_calls_of(stack, "frame_blocks")) == calls


def test_field_lint_sees_every_spelling_of_a_construction():
    probe = ast.parse(
        "from .fields import SpaceTimeField\nfrom . import fields\n"
        "def f(u: SpaceTimeField) -> SpaceTimeField:\n"
        "    a = SpaceTimeField(u.grid, u.times, u.values[..., None])\n"
        "    b = isinstance(u, SpaceTimeField)\n"
        "    return fields.SpaceTimeField(u.grid, u.times, u.values), a, b\n")
    assert list(_calls_of(probe, "SpaceTimeField")) == [4, 6]


_FREQUENCY_OPS = ("wavenumbers", "fftfreq", "rfftfreq")


def test_every_symbol_is_built_from_the_wavenumbers_in_one_place():
    # fields.multiplier builds every Fourier symbol: it alone reads the
    # wavenumbers, and Grid.wavenumbers alone asks for the FFT frequencies
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = sorted(site for path in sorted(src.glob("*.py"))
                   for site in _sites(path, _FREQUENCY_OPS))
    assert found == ["fields.py: Grid.wavenumbers: fftfreq",
                     "fields.py: multiplier: wavenumbers"]


def test_frequency_lint_sees_every_spelling_of_a_wavenumber_read(tmp_path):
    mod = tmp_path / "probe.py"
    mod.write_text("import numpy as np\nimport scipy.fft\nfrom numpy.fft import rfftfreq\n"
                   "K = np.fft.rfftfreq(8)\n"
                   "def wavenumbers(g):\n    return g.wavenumbers()\n"
                   "class B:\n    def k(self, g):\n        get = Grid.wavenumbers\n"
                   "        f = lambda m: scipy.fft.fftfreq(m) + rfftfreq(m)\n"
                   "        return get(g), f\n")
    assert sorted(_sites(mod, _FREQUENCY_OPS)) == sorted([
        "probe.py: <module>: rfftfreq", "probe.py: wavenumbers: wavenumbers",
        "probe.py: B.k: wavenumbers", "probe.py: B.k: fftfreq", "probe.py: B.k: rfftfreq"])


def _dpi_lines(tree):
    """Line numbers of every reference to dpi: a name, an attribute read or an
    imported name."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "dpi")
                or (isinstance(node, ast.Attribute) and node.attr == "dpi")
                or (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(a.name.split(".")[-1] == "dpi" for a in node.names))):
            yield node.lineno


def test_dpi_is_the_reference_only():
    # dpi recomputes the profile on every call and is the oracle the jet is
    # tested against: the package itself evaluates the projection geometry
    # through ProjectionJet alone, and only __init__ re-exports dpi
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name not in ("manifold.py", "__init__.py")
             for line in _dpi_lines(ast.parse(path.read_text()))]
    assert found == []
    # the scan does see the export
    assert list(_dpi_lines(ast.parse((src / "__init__.py").read_text())))
