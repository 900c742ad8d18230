"""CLI commands at perturbative order, where the swap sector is the whole state."""

import json
import os

import pytest

from railbridge.cli import main, validate_artifact


@pytest.mark.parametrize(
    "command, kind",
    [("swap", "swap-1"), ("pipeline", "pipeline-1")],
)
def test_pert_order_writes_valid_report(tmp_path, capsys, command, kind):
    out = str(tmp_path / command)
    argv = [command, "--order", "pert", "--seed", "1", "--out", out]
    if command == "pipeline":
        argv += ["--samples", "200"]
    assert main(argv) == 0, capsys.readouterr().err
    with open(os.path.join(out, f"{command}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    validate_artifact(kind, report)
    weight = report["sector_weight"] if command == "swap" else report["swap"]["sector_weight"]
    assert weight == 1.0
