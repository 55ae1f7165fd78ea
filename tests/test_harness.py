"""Config parsing, suites, manifests, CLI, determinism."""

import ast
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


def test_no_module_imports_another_modules_private_names():
    # each private helper is owned by the module that defines it
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}: from .{node.module} import {a.name}"
                          for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
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


def _numpy_fft_lines(tree):
    """Line numbers of np.fft / numpy.fft attributes and numpy.fft imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and \
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.fft") for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
            yield node.lineno


def test_fourier_transforms_live_in_fields_only():
    # fields is the one spectral layer: no other module calls numpy.fft
    src = Path(__file__).resolve().parents[1] / "src" / "biflow"
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             if path.name != "fields.py"
             for line in _numpy_fft_lines(ast.parse(path.read_text()))]
    assert found == []
    fields = ast.parse((src / "fields.py").read_text())
    assert list(_numpy_fft_lines(fields))  # the scan does see transforms
