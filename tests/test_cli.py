"""End-to-end CLI runs: files, schemas, determinism, error JSON."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import railbridge
from railbridge import cli
from railbridge.cli import COMMAND_KEYS, main, validate_artifact
from railbridge.config import Config
from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    density_from_json_dict,
    density_to_json_dict,
)
from railbridge.homodyne import QuadratureDataset
from railbridge.tomography import fidelity

from oracles import format_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def single_photon_file(tmp_path, cutoff=3):
    reg = ModeRegister(("B",), (cutoff,))
    m = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    m[1, 1] = 1.0
    obj = {"schema": "density-1"}
    obj.update(density_to_json_dict(DensityMatrix(reg, m)))
    path = tmp_path / "one.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_simulate_default_table_and_files(tmp_path, capsys):
    out = str(tmp_path / "sim")
    code, stdout, _ = run(capsys, "simulate", "--out", out)
    assert code == 0
    assert "avg" in stdout
    report = read_json(os.path.join(out, "simulate.json"))
    validate_artifact("simulate-2", report)
    assert set(report["inputs"]) == {"H", "V", "D", "A", "R", "L"}
    assert 0.87 <= report["average_fidelity"] <= 0.97
    rho = density_from_json_dict(
        read_json(os.path.join(out, report["inputs"]["D"]["state_file"]))
    )
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
    manifest = read_json(os.path.join(out, "manifest.json"))
    validate_artifact("manifest-2", manifest)
    for name in manifest["outputs"]:
        assert os.path.exists(os.path.join(out, name))


# exact stdout of the two summary tables; a changed row, column, number
# format or average shows here
SIMULATE_DEFAULT_STDOUT = (
    "input  p_success  F(exact)\n"
    "-----  ---------  --------\n"
    "H      8.714e-10  0.9438\n"
    "V      8.997e-10  0.8491\n"
    "D      8.862e-10  0.9036\n"
    "A      8.862e-10  0.9036\n"
    "R      8.853e-10  0.9038\n"
    "L      8.853e-10  0.9038\n"
    "avg               0.9013\n"
)

PIPELINE_SEED1_SAMPLES200_STDOUT = (
    "input  p_success  F(corrected)  F(uncorrected)\n"
    "-----  ---------  ------------  --------------\n"
    "H      8.714e-10  0.9038        0.9439\n"
    "V      8.997e-10  0.9379        0.4925\n"
    "D      8.862e-10  0.9408        0.8305\n"
    "A      8.862e-10  0.6946        0.7476\n"
    "R      8.853e-10  0.8370        0.7940\n"
    "L      8.853e-10  0.8225        0.7921\n"
    "avg               0.8561        0.7667\n"
    "\n"
    "swap: F(corrected) = 0.9225, F(uncorrected) = 0.7098\n"
    "witness overlap: corrected 0.9237, uncorrected 0.7110 (> 0.5 certifies)\n"
)


def test_simulate_default_stdout_is_pinned(tmp_path, capsys):
    code, stdout, _ = run(capsys, "simulate", "--out", str(tmp_path / "sim"))
    assert code == 0
    assert stdout == SIMULATE_DEFAULT_STDOUT


def test_pipeline_stdout_is_pinned(tmp_path, capsys):
    code, stdout, _ = run(capsys, "pipeline", "--seed", "1", "--samples", "200",
                          "--out", str(tmp_path / "pipe"))
    assert code == 0
    assert stdout == PIPELINE_SEED1_SAMPLES200_STDOUT


def test_simulate_pert_order_is_ideal(tmp_path, capsys):
    out = str(tmp_path / "sim")
    code, _, _ = run(capsys, "simulate", "--out", out, "--order", "pert")
    assert code == 0
    report = read_json(os.path.join(out, "simulate.json"))
    assert abs(report["average_fidelity"] - 1.0) < 1e-9
    assert report["order"] == "pert"


def test_config_file_missing_key_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("gamma23 = 0.054\neta_d = 0.03\neta = 0.5\n"
                   "order = exact\ncutoff = 2\nseed = 1\n")
    code, _, stderr = run(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o")
    )
    assert code == 1
    err = json.loads(stderr)
    assert err["error"]["type"] == "ConfigError"
    assert "gamma1" in err["error"]["message"]


def test_sample_deterministic_and_sized(tmp_path, capsys):
    state = single_photon_file(tmp_path)
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert run(capsys, "sample", state, "--out", a, "--seed", "4",
               "--samples", "500")[0] == 0
    assert run(capsys, "sample", state, "--out", b, "--seed", "4",
               "--samples", "500")[0] == 0
    assert run(capsys, "sample", state, "--out", c, "--seed", "5",
               "--samples", "500")[0] == 0
    bytes_a = (tmp_path / "a" / "samples.csv").read_bytes()
    assert bytes_a == (tmp_path / "b" / "samples.csv").read_bytes()
    assert bytes_a != (tmp_path / "c" / "samples.csv").read_bytes()
    ds = QuadratureDataset.read_csv(str(tmp_path / "a" / "samples.csv"))
    assert len(ds) == 500


def test_sample_reconstruct_round_trip(tmp_path, capsys):
    state = single_photon_file(tmp_path, cutoff=2)
    sdir, rdir = str(tmp_path / "s"), str(tmp_path / "r")
    assert run(capsys, "sample", state, "--out", sdir, "--seed", "8",
               "--samples", "4000", "--eta", "1.0")[0] == 0
    code, stdout, _ = run(
        capsys, "reconstruct", os.path.join(sdir, "samples.csv"),
        "--out", rdir, "--eta", "1.0", "--cutoff", "2",
    )
    assert code == 0
    assert "converged=True" in stdout
    report = read_json(os.path.join(rdir, "reconstruct.json"))
    validate_artifact("reconstruct-1", report)
    rho = density_from_json_dict(report["rho"])
    target = np.zeros((3, 3), dtype=complex)
    target[1, 1] = 1.0
    assert fidelity(rho, DensityMatrix(rho.register, target)) > 0.9


def test_reconstruct_cutoff_flag_is_recorded_as_tomo_cutoff(tmp_path, capsys):
    # reconstruct simulates nothing: --cutoff sets the fit's tomo_cutoff
    state = single_photon_file(tmp_path, cutoff=2)
    sdir, rdir = str(tmp_path / "s"), str(tmp_path / "r")
    assert run(capsys, "sample", state, "--out", sdir, "--seed", "8",
               "--samples", "500")[0] == 0
    code, stdout, _ = run(
        capsys, "reconstruct", os.path.join(sdir, "samples.csv"),
        "--out", rdir, "--cutoff", "3",
    )
    assert code == 0
    assert "at cutoff 3" in stdout
    config = read_json(os.path.join(rdir, "manifest.json"))["config"]
    assert config["tomo_cutoff"] == 3
    assert "cutoff" not in config
    assert read_json(os.path.join(rdir, "reconstruct.json"))["rho"]["cutoff"] == 3


def test_reconstruct_empty_csv_fails(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("theta_rad,x\n")
    code, _, stderr = run(
        capsys, "reconstruct", str(empty), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert "empty" in json.loads(stderr)["error"]["message"]


def test_reconstruct_csv_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_rad,x\n0.1,0.2\nnot-a-number,1\n")
    code, _, stderr = run(
        capsys, "reconstruct", str(bad), "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert "line 3" in json.loads(stderr)["error"]["message"]


def test_reconstruct_rejects_samples_beyond_the_cutoff(tmp_path, capsys):
    # used to exit 0: iterations 0, converged true, likelihood gap 0 and the
    # maximally mixed state, with both samples floored
    far = tmp_path / "far.csv"
    far.write_text("theta_rad,x\n0.0,40.0\n1.0,-35.0\n")
    out = tmp_path / "o"
    code, stdout, stderr = run(capsys, "reconstruct", str(far), "--out", str(out))
    assert code == 1 and stdout == ""
    message = assert_one_error_line(stderr, "reconstruct")
    assert "2 of 2 samples" in message and "cutoff 4" in message
    assert not out.exists()


def test_wigner_single_photon_grid(tmp_path, capsys):
    state = single_photon_file(tmp_path)
    out = str(tmp_path / "w")
    code, stdout, _ = run(
        capsys, "wigner", state, "--out", out, "--grid", "-4", "4", "81"
    )
    assert code == 0
    rows = {}
    with open(os.path.join(out, "wigner.csv")) as fh:
        assert fh.readline().strip() == "q,p,w"
        for line in fh:
            q, p, w = (float(v) for v in line.split(","))
            rows[(q, p)] = w
    assert len(rows) == 81 * 81
    assert abs(rows[(0.0, 0.0)] + 1.0 / math.pi) < 1e-8
    assert abs(min(rows.values()) + 1.0 / math.pi) < 1e-8


def test_wigner_rejects_non_density(tmp_path, capsys):
    zeros = [[0, 0], [0, 0]]
    cases = {
        "not_a_density": ({"hello": 1}, "not a density-matrix JSON"),
        "non_hermitian": (
            {"labels": ["B"], "cutoff": 1, "re": [[0.5, 0.9], [0.1, 0.5]],
             "im": zeros},
            "not Hermitian",
        ),
        "negative": (
            {"labels": ["B"], "cutoff": 1, "re": [[1.5, 0], [0, -0.5]],
             "im": zeros},
            "negative eigenvalue",
        ),
    }
    for name, (obj, reason) in cases.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(obj))
        for command in ("wigner", "sample"):
            code, _, stderr = run(
                capsys, command, str(bad), "--out", str(tmp_path / "o")
            )
            assert code == 1, (name, command)
            assert stderr.count("\n") == 1, (name, command)
            assert reason in json.loads(stderr)["error"]["message"], (name, command)


def assert_one_error_line(stderr, command):
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, stderr
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError" and error["command"] == command
    return error["message"]


MALFORMED_DENSITIES = {
    "null_labels": {"labels": None, "cutoff": 1, "re": [[1, 0], [0, 0]],
                    "im": [[0, 0], [0, 0]]},
    "null_cutoff": {"labels": ["B"], "cutoff": None, "re": [[1, 0], [0, 0]],
                    "im": [[0, 0], [0, 0]]},
    "bare_number": 5,
    # loaded as cutoff 1 and the string as the one mode "B" before the checks
    "fractional_cutoff": {"labels": ["B"], "cutoff": 1.7, "re": [[1, 0], [0, 0]],
                          "im": [[0, 0], [0, 0]]},
    "string_labels": {"labels": "B", "cutoff": 1, "re": [[1, 0], [0, 0]],
                      "im": [[0, 0], [0, 0]]},
    "nan_entry": {"labels": ["B"], "cutoff": 1, "re": [[math.nan, 0], [0, 0]],
                  "im": [[0, 0], [0, 0]]},
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_DENSITIES))
def test_malformed_density_json_fails_as_one_error_line(tmp_path, capsys, shape):
    bad = tmp_path / f"{shape}.json"
    bad.write_text(json.dumps(MALFORMED_DENSITIES[shape]))
    out = tmp_path / "o"
    for command in ("wigner", "sample"):
        code, stdout, stderr = run(capsys, command, str(bad), "--out", str(out))
        assert code == 1 and stdout == "", command
        assert str(bad) in assert_one_error_line(stderr, command)
        assert not out.exists(), command


@pytest.mark.parametrize(
    "grid",
    [("-4", "4", "inf"), ("-4", "4", "2.7"), ("nan", "4", "5"), ("1", "1", "3"),
     ("4", "-4", "5")],
    ids=["infinite_n", "fractional_n", "nan_min", "equal_bounds", "reversed_bounds"],
)
def test_wigner_rejects_degenerate_grid(tmp_path, capsys, grid):
    state = single_photon_file(tmp_path)
    out = tmp_path / "w"
    code, stdout, stderr = run(
        capsys, "wigner", state, "--out", str(out), "--grid", *grid
    )
    assert code == 1 and stdout == ""
    assert "wigner grid" in assert_one_error_line(stderr, "wigner")
    assert not out.exists()


def test_out_of_memory_fails_as_one_error_line(tmp_path, capsys, monkeypatch):
    # an oversized --grid or --samples fails inside numpy's allocator
    def wigner(*_):
        raise MemoryError("Unable to allocate 745. TiB for an array")

    monkeypatch.setattr(cli, "wigner", wigner)
    out = tmp_path / "w"
    code, stdout, stderr = run(
        capsys, "wigner", single_photon_file(tmp_path), "--out", str(out)
    )
    assert code == 1 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    error = json.loads(lines[0])["error"]
    assert error["type"] == "MemoryError" and error["command"] == "wigner"
    assert not out.exists()


def test_swap_report(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code, stdout, _ = run(capsys, "swap", "--out", out)
    assert code == 0
    report = read_json(os.path.join(out, "swap.json"))
    validate_artifact("swap-1", report)
    assert report["witness"]["entangled"] is True
    assert 0.0 < report["sector_weight"] < 1.0
    assert "entangled" in stdout


def test_rates_report(tmp_path, capsys):
    out = str(tmp_path / "rt")
    code, _, _ = run(capsys, "rates", "--out", out)
    assert code == 0
    report = read_json(os.path.join(out, "rates.json"))
    validate_artifact("rates-1", report)
    assert abs(report["eta_d"] - 0.03) < 1e-12
    assert abs(report["gamma1"] - 0.20) < 0.005
    assert abs(report["predicted_triple_rate_hz"] - 0.12) < 0.01
    assert 0.5 < report["circuit_check"]["circuit_to_formula_ratio"] < 0.6


def test_rates_rejects_eta_d_flag(tmp_path, capsys):
    # rates derives eta_d from R_cc / R_gamma23, so the flag has no effect
    out = str(tmp_path / "rt")
    code, stdout, err = run(capsys, "rates", "--eta-d", "0", "--out", out)
    assert code == 1
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["command"] == "rates"
    assert "--eta-d" in error["message"]
    assert not os.path.exists(out)


def test_rates_rejects_config_eta_d_that_disagrees(tmp_path, capsys):
    # a config file is the other way in for an eta_d that rates never uses
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(Config(seed=1, eta_d=0.5)))
    out = str(tmp_path / "rt")
    code, stdout, err = run(capsys, "rates", "--config", str(cfg), "--out", out)
    assert code == 1
    assert stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    assert "eta_d = 0.5" in message and "eta_d = 0.03" in message
    assert "--eta-d" in message
    assert not os.path.exists(out)


def test_rates_without_a_gamma1_rate_fails_as_one_error_line(tmp_path, capsys):
    # R_gamma1 = 0 gives gamma1 = 0: the scaling formula is 0 and has no ratio
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(Config(seed=1, R_gamma1=0.0)))
    out = tmp_path / "rt"
    code, stdout, err = run(capsys, "rates", "--config", str(cfg), "--out", str(out))
    assert code == 1 and stdout == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("R_gamma1 = 0 gives gamma1 = 0")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, raw, command",
    [("gamma1", "nan", "simulate"), ("alpha_phase", "inf", "simulate"),
     ("R_alpha", "nan", "rates")],
)
def test_non_finite_config_value_fails_as_one_error_line(
    tmp_path, capsys, key, raw, command
):
    lines = format_config(Config(seed=1)).splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {raw}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 1 and stdout == ""
    error_lines = err.strip().splitlines()
    assert len(error_lines) == 1, err
    error = json.loads(error_lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert f"line {lineno}: value for {key!r} must be finite" in error["message"]
    assert not out.exists()


def test_out_of_range_config_physics_fails_at_load(tmp_path, capsys):
    # sample never builds SourceParams, so only the load can catch gamma1
    lines = format_config(Config(seed=1)).splitlines()
    lines = [("gamma1 = 1.5" if line.startswith("gamma1 =") else line) for line in lines]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    code, stdout, err = run(
        capsys, "sample", single_photon_file(tmp_path), "--config", str(cfg),
        "--out", str(out),
    )
    assert code == 1 and stdout == ""
    error_lines = err.strip().splitlines()
    assert len(error_lines) == 1, err
    error = json.loads(error_lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"{cfg}: ") and "gamma1" in error["message"]
    assert not out.exists()


def test_rates_accepts_config_with_derived_eta_d(tmp_path, capsys):
    # the default eta_d is exactly R_cc / R_gamma23 = 51 / 1700
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(Config(seed=1)))
    out = str(tmp_path / "rt")
    code, stdout, _ = run(capsys, "rates", "--config", str(cfg), "--out", out)
    assert code == 0
    assert stdout.startswith("eta_d = 0.0300")
    assert read_json(os.path.join(out, "manifest.json"))["config"]["eta_d"] == 0.03


def test_reconstruct_reports_likelihood_gap(tmp_path, capsys):
    state = single_photon_file(tmp_path, cutoff=2)
    sdir, rdir = str(tmp_path / "s"), str(tmp_path / "r")
    assert run(capsys, "sample", state, "--out", sdir, "--seed", "9",
               "--samples", "2000", "--eta", "0.6")[0] == 0
    code, stdout, _ = run(
        capsys, "reconstruct", os.path.join(sdir, "samples.csv"),
        "--out", rdir, "--eta", "0.6", "--cutoff", "2",
    )
    assert code == 0
    diag = read_json(os.path.join(rdir, "reconstruct.json"))["diagnostics"]
    assert diag["converged"] is True
    assert 0.0 <= diag["likelihood_gap"] < 1e-2
    assert f"likelihood gap {diag['likelihood_gap']:.2e}" in stdout


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    state = single_photon_file(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(format_config(Config(seed=3)))
    monkeypatch.setenv("RAILBRIDGE_SEED", "9")

    def seed_of(out, *flags):
        code = run(capsys, "sample", state, "--out", out, "--samples", "5", *flags)[0]
        assert code == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert "seed" not in manifest
        return manifest["config"]["seed"]

    # env only
    assert seed_of(str(tmp_path / "o1")) == 9
    # file beats env
    assert seed_of(str(tmp_path / "o2"), "--config", str(cfg)) == 3
    # flag beats file
    assert seed_of(str(tmp_path / "o3"), "--config", str(cfg), "--seed", "12") == 12
    # default when nothing is set
    monkeypatch.delenv("RAILBRIDGE_SEED")
    assert seed_of(str(tmp_path / "o4")) == 0


def test_bad_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RAILBRIDGE_SEED", "soon")
    out = tmp_path / "o"
    state = single_photon_file(tmp_path)
    code, _, stderr = run(capsys, "sample", state, "--out", str(out))
    assert code == 1
    assert "RAILBRIDGE_SEED" in json.loads(stderr)["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "pipeline"])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_fails_as_one_error_line_naming_its_source(
    tmp_path, capsys, monkeypatch, source, command
):
    monkeypatch.delenv("RAILBRIDGE_SEED", raising=False)
    argv = [command]
    if command == "sample":
        argv.append(single_photon_file(tmp_path))
    if source == "flag":
        argv += ["--seed", "-1"]
        named = "--seed"
    elif source == "config":
        # Config itself rejects seed -1, so render seed 0 and edit that line
        text = format_config(Config(seed=0)).replace("seed = 0\n", "seed = -1\n")
        lineno = text.splitlines().index("seed = -1") + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv += ["--config", str(cfg)]
        named = f"{cfg}: line {lineno}: value for 'seed'"
    else:
        monkeypatch.setenv("RAILBRIDGE_SEED", "-1")
        named = "RAILBRIDGE_SEED"
    out = tmp_path / "o"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1 and stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, stderr
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError" and error["command"] == command
    assert error["message"] == f"{named} must be >= 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_manifest_records_only_the_keys_the_command_reads(tmp_path, capsys, command):
    state = single_photon_file(tmp_path, cutoff=2)
    data = tmp_path / "data"
    if command == "reconstruct":
        assert run(capsys, "sample", state, "--out", str(data), "--seed", "1",
                   "--samples", "200")[0] == 0
    argv = {
        "simulate": [],
        "sample": [state, "--samples", "20"],
        "reconstruct": [str(data / "samples.csv"), "--cutoff", "1"],
        "wigner": [state, "--grid", "-1", "1", "3"],
        "swap": [],
        "rates": [],
        "pipeline": ["--samples", "50", "--seed", "1"],
    }[command]
    out = tmp_path / command
    code, _, stderr = run(capsys, command, *argv, "--out", str(out))
    assert code == 0, stderr
    manifest = read_json(os.path.join(out, "manifest.json"))
    validate_artifact("manifest-2", manifest)
    assert set(manifest["config"]) == set(COMMAND_KEYS[command])
    # the seed lives in config alone, and only where a command draws one
    assert "seed" not in manifest


@pytest.mark.parametrize(
    "argv",
    [["wigner", "STATE", "--cutoff", "3"], ["simulate", "--seed", "1"],
     ["sample", "STATE", "--order", "pert"], ["reconstruct", "DATA", "--samples", "5"],
     # a prefix of a flag the command does take (--eta-d) is not that flag
     ["simulate", "--eta", "0.5"], ["swap", "--eta", "0.5"], ["rates", "--eta", "0.3"],
     ["sample", "STATE", "--name", "x.csv"]],
    ids=["wigner_cutoff", "simulate_seed", "sample_order", "reconstruct_samples",
         "simulate_eta", "swap_eta", "rates_eta", "sample_name"],
)
def test_flag_for_an_unread_key_is_a_usage_error(tmp_path, capsys, argv):
    state = single_photon_file(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text("theta_rad,x\n0.0,0.5\n")
    argv = [{"STATE": state, "DATA": str(data)}.get(a, a) for a in argv]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err
    # the usage of the command, which lists the flags it does take
    assert err.splitlines()[0].startswith(f"usage: railbridge {argv[0]} ")
    assert not out.exists()


def test_simulate_exact_cutoff_one_fails_as_json(tmp_path, capsys):
    code, stdout, stderr = run(
        capsys, "simulate", "--cutoff", "1", "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ValueError" and error["command"] == "simulate"
    assert "cutoff >= 2" in error["message"]


def test_failed_run_removes_only_the_directory_it_created(tmp_path, capsys):
    for out in ("fresh", os.path.join("nested", "run")):
        assert run(capsys, "simulate", "--cutoff", "1", "--out", str(tmp_path / out))[0] == 1
    assert os.listdir(tmp_path) == []
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("keep me\n")
    assert run(capsys, "simulate", "--cutoff", "1", "--out", str(kept))[0] == 1
    assert os.listdir(kept) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "keep me\n"


def test_pipeline_full_run(tmp_path, capsys):
    out = str(tmp_path / "pipe")
    code, stdout, _ = run(capsys, "pipeline", "--out", out, "--seed", "11",
                          "--samples", "1000")
    assert code == 0
    report = read_json(os.path.join(out, "pipeline.json"))
    validate_artifact("pipeline-1", report)
    tele = report["teleport"]
    assert set(tele["inputs"]) == {"H", "V", "D", "A", "R", "L"}
    assert 0.82 <= tele["average_fidelity_corrected"] <= 0.97
    assert tele["average_fidelity_corrected"] > tele["average_fidelity_uncorrected"]
    swap = report["swap"]
    assert swap["fidelity_corrected"] > 0.8
    assert swap["fidelity_uncorrected"] > 0.55
    assert swap["witness_corrected"]["entangled"] is True
    for name in ("samples_H.csv", "swap_samples_L.csv"):
        assert os.path.exists(os.path.join(out, name))
    assert "swap" in stdout


def test_pipeline_outputs_reproducible(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run(capsys, "pipeline", "--out", out, "--seed", "2",
                   "--samples", "400")[0] == 0
    for name in sorted(os.listdir(a)):
        if name == "manifest.json":
            continue  # carries timestamps
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path):
    # one run pinned to one OpenBLAS thread, one at the library's default
    src = os.path.dirname(os.path.dirname(railbridge.__file__))
    outs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads or 'default'}"
        subprocess.run(
            [sys.executable, "-m", "railbridge.cli", "pipeline", "--seed", "3",
             "--samples", "200", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outs.append(out)
    a, b = outs
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name == "manifest.json":
            continue  # carries timestamps
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_large_fit_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # 20,000 rows at cutoff 4 are five row blocks; unblocked, OpenBLAS splits
    # the fit's 20,000-term sums across two threads
    sim, data = str(tmp_path / "sim"), str(tmp_path / "data")
    assert run(capsys, "simulate", "--out", sim)[0] == 0
    assert run(capsys, "sample", os.path.join(sim, "state_D.json"), "--samples",
               "20000", "--seed", "3", "--out", data)[0] == 0
    src = os.path.dirname(os.path.dirname(railbridge.__file__))
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"fit-{threads}"
        subprocess.run(
            [sys.executable, "-m", "railbridge.cli", "reconstruct",
             os.path.join(data, "samples.csv"), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        fits.append((out / "reconstruct.json").read_bytes())
    assert fits[0] == fits[1]
