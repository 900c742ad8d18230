"""Each measurement map and sampler table is built once, and shared read-only.

`tomography._measurement_map` is cached per (settings, eta, cutoff) and
`homodyne._sampler_table` per number of levels. A cached array must be
read-only and bit-equal to a fresh build, a fit must read the map of its
own eta, and warm caches must not show in any output: a pipeline run in a
process that has already run one writes the bytes of a fresh process.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import railbridge
from railbridge import cli
from railbridge.homodyne import (
    DEFAULT_GRID,
    _cumulative_kernel,
    _sampler_table,
    hermite_functions,
    sample,
)
from railbridge.protocol import INPUT_STATES
from railbridge.tomography import (
    ReconstructionOptions,
    _likelihood,
    _measurement_map,
    maxlik_reconstruct,
)

from test_lazy_certificate import assert_bit_equal, teleported

SINGLE = ((1.0,),)
JOINT = tuple((q.a, q.b) for q in INPUT_STATES.values())


@pytest.mark.parametrize("settings", [SINGLE, JOINT])
@pytest.mark.parametrize("eta", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("cutoff", [1, 2, 4])
def test_cached_map_is_read_only_and_equals_a_fresh_build(settings, eta, cutoff):
    cached = _measurement_map(settings, eta, cutoff)
    assert not cached.flags.writeable
    fresh = _measurement_map.__wrapped__(settings, eta, cutoff)
    assert cached.tobytes() == fresh.tobytes()
    assert _measurement_map(settings, eta, cutoff) is cached


@pytest.mark.parametrize("d", [1, 3, 5, 8])
def test_cached_sampler_table_is_read_only_and_equals_a_fresh_build(d):
    xgrid, rows = _sampler_table(d)
    assert not xgrid.flags.writeable and not rows.flags.writeable
    fresh_grid = np.linspace(*DEFAULT_GRID)
    fresh_rows = np.ascontiguousarray(
        _cumulative_kernel(hermite_functions(d - 1, fresh_grid), fresh_grid).T
    )
    assert xgrid.tobytes() == fresh_grid.tobytes()
    assert rows.tobytes() == fresh_rows.tobytes()
    assert _sampler_table(d)[1] is rows


def test_fits_at_alternating_eta_each_read_their_own_map():
    _measurement_map.cache_clear()
    data = sample(teleported(), 500, eta=0.5, seed=28)
    cold = {}
    for eta in (0.5, 1.0):
        _measurement_map.cache_clear()
        cold[eta] = maxlik_reconstruct(data, ReconstructionOptions(eta_correction=eta))
    _measurement_map.cache_clear()
    for eta in (0.5, 1.0, 0.5):
        opts = ReconstructionOptions(eta_correction=eta)
        lik = _likelihood([data], np.ones((1, 1)), opts)
        fresh = _measurement_map.__wrapped__(SINGLE, eta, opts.cutoff)
        assert lik.to_setting.tobytes() == fresh.tobytes()
        assert_bit_equal(maxlik_reconstruct(data, opts), cold[eta])
    assert _measurement_map.cache_info().currsize == 2


def output_bytes(out):
    return {
        name: (out / name).read_bytes()
        for name in sorted(os.listdir(out))
        if name != "manifest.json"  # carries timestamps
    }


def test_pipeline_in_a_warm_process_writes_the_bytes_of_a_fresh_one(tmp_path, capsys):
    _measurement_map.cache_clear()
    _sampler_table.cache_clear()
    argv = ["pipeline", "--seed", "5", "--samples", "200"]
    for run in ("cold", "warm"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == 0
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(railbridge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "railbridge.cli", *argv, "--out", str(tmp_path / "fresh")],
        env=env, check=True, capture_output=True,
    )
    fresh = output_bytes(tmp_path / "fresh")
    assert output_bytes(tmp_path / "cold") == fresh
    assert output_bytes(tmp_path / "warm") == fresh
