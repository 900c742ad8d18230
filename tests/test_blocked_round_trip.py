"""The quadrature round trip streams its O(N) stages in blocks of rows.

`homodyne.sample`, `QuadratureDataset.write_csv` and the fit rows of
`tomography._likelihood` each work through a dataset one block at a
time, and `read_csv` packs doubles as it parses. The blocks must not
show: every sample, CSV byte and fit row equals the single-pass reference
in `oracles`, at sizes around the block edges. And they must pay: at
200,000 samples each stage's traced peak stays within its output plus a
fixed allowance, where the single pass held several times its output.
"""

import tracemalloc

import numpy as np
import pytest

from railbridge import homodyne
from railbridge.fock import DensityMatrix, ModeRegister
from railbridge.homodyne import QuadratureDataset, sample
from railbridge.tomography import ReconstructionOptions, _likelihood

from oracles import csv_bytes_single_pass, fit_rows_single_pass, sample_single_pass

MB = 2**20
LARGE_N = 200_000


def random_density(seed, cutoff):
    rng = np.random.default_rng(seed)
    reg = ModeRegister(("B",), (cutoff,))
    v = rng.normal(size=(2, cutoff + 1)) + 1j * rng.normal(size=(2, cutoff + 1))
    v /= np.linalg.norm(v, axis=1)[:, None]
    w = rng.uniform(0.2, 0.8)
    mixed = w * np.outer(v[0], v[0].conj()) + (1 - w) * np.outer(v[1], v[1].conj())
    return DensityMatrix(reg, mixed)


def edge_sizes():
    b = homodyne._BLOCK_ROWS
    return (1, b - 1, b, b + 1, 2 * b + 1, 3 * b + 7)


def rows_at(data, cutoff):
    lik = _likelihood([data], np.ones((1, 1)), ReconstructionOptions(cutoff=cutoff))
    return lik.feats[0]


def traced_peak(fn):
    """fn()'s result and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("cutoff", [2, 4])
def test_samples_and_fit_rows_equal_single_pass_at_block_edges(cutoff, eta):
    # a lone last row is where a blocked matrix-vector product would
    # round differently, so every size ending one past a block is here
    rho = random_density(cutoff, cutoff)
    for n in edge_sizes():
        got = sample(rho, n, eta=eta, seed=n)
        want = sample_single_pass(rho, n, eta=eta, seed=n)
        assert np.array_equal(got.theta, want.theta), n
        assert np.array_equal(got.x, want.x), n
        for fit_cutoff in (2, 4):
            assert np.array_equal(rows_at(got, fit_cutoff), fit_rows_single_pass(got, fit_cutoff))


def test_csv_bytes_and_values_equal_single_pass(tmp_path):
    n = edge_sizes()[-1]
    data = sample(random_density(7, 2), n, eta=0.5, seed=7)
    path = tmp_path / "data.csv"
    data.write_csv(path)
    assert path.read_bytes() == csv_bytes_single_pass(data)
    # repr round-trips every float, so the written values are the reference
    back = QuadratureDataset.read_csv(path, eta_assumed=0.5)
    assert back.theta.tolist() == data.theta.tolist()
    assert back.x.tolist() == data.x.tolist()


def test_round_trip_working_memory_is_bounded(tmp_path):
    # the single pass peaked at 169.9, 167.8, 12.2 and 15.5 MB here
    rho = random_density(3, 4)
    data, peak = traced_peak(lambda: sample(rho, LARGE_N, seed=3))
    output = data.theta.nbytes + data.x.nbytes
    assert peak < output + 8 * MB, peak / MB

    lik, peak = traced_peak(lambda: _likelihood([data], np.ones((1, 1)), ReconstructionOptions()))
    assert peak < lik.feats.nbytes + 8 * MB, peak / MB
    del lik

    path = tmp_path / "large.csv"
    _, peak = traced_peak(lambda: data.write_csv(path))
    assert peak < 2 * MB, peak / MB

    back, peak = traced_peak(lambda: QuadratureDataset.read_csv(path))
    assert len(back) == LARGE_N
    assert peak < output + 2 * MB, peak / MB
