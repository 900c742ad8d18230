"""`pipeline_report`: the pipeline's numbers as a pure function of its config."""

import json
import os
from dataclasses import replace

import pytest

from railbridge import cli
from railbridge.config import Config
from railbridge.homodyne import QuadratureDataset

CONFIG = Config(samples=200)


def test_report_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, datasets = cli.pipeline_report(replace(CONFIG, seed=1))
    assert os.listdir(tmp_path) == []
    assert report["schema"] == "pipeline-1"
    assert all(isinstance(d, QuadratureDataset) for d in datasets.values())


@pytest.mark.parametrize("seed", [1, 7])
def test_report_is_what_the_command_writes(tmp_path, capsys, seed):
    out = tmp_path / "pipe"
    argv = ["pipeline", "--seed", str(seed), "--samples", "200", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    report, datasets = cli.pipeline_report(replace(CONFIG, seed=seed))
    assert report == json.loads((out / "pipeline.json").read_text(encoding="utf-8"))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    csvs = [name for name in manifest["outputs"] if name.endswith(".csv")]
    assert len(csvs) == 12
    assert sorted(datasets) == csvs
    for name, dataset in datasets.items():
        written = QuadratureDataset.read_csv(str(out / name))
        assert written.theta.tobytes() == dataset.theta.tobytes(), name
        assert written.x.tobytes() == dataset.x.tobytes(), name


def test_report_needs_a_seed():
    # main resolves the seed (flag, config, RAILBRIDGE_SEED, then 0) first
    with pytest.raises(ValueError, match="seed"):
        cli.pipeline_report(CONFIG)
