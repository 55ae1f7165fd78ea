"""Config parsing, suites, manifests, CLI, determinism."""

import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from biflow.cli import build_parser, main as cli_main
from biflow.errors import ConfigError, ManifoldTubeExitError
from biflow.fields import load_space_time_field
from biflow.harness import (default_config, flow_config_from, load_config,
                            make_rng, run_contraction_sweep, run_evolve,
                            run_kernel_verify, run_suite)


def test_make_rng_is_deterministic():
    a = make_rng(7).normal(size=5)
    b = make_rng(7).normal(size=5)
    assert np.array_equal(a, b)


def test_default_config_builds_flow_config():
    cfg = flow_config_from(default_config())
    assert cfg.grid.dim == 1 and cfg.mode == "extrinsic"
    assert cfg.times()[0] == 0.0 and cfg.times()[-1] == cfg.t_final


def test_missing_config_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


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
    for name in disk["outputs"]:
        assert (tmp_path / "out" / name).exists()
    assert disk["summary"]["converged"] is True
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
])
def test_cli_kernel_verify_bad_arguments_are_config_errors(tmp_path, capsys, args):
    rc = cli_main(["kernel-verify", *args, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()


def test_kernel_verify_config_and_seed_flags_are_gone():
    for flag in (["--config", "x.cfg"], ["--seed", "5"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernel-verify", "--estimate", "2.2",
                                       "--out", "c.json", *flag])
