"""The fit certifies lazily and projects eigenvalues in plain floats, bit for bit.

`tomography._run_maxlik` computes the likelihood gap of an accepted
iterate only when the next step does not already show it too large, and
drops that step when the iterate passes. Every field of its result must
equal that of `oracles.run_maxlik`, the loop that certifies every
accepted iterate, and it must make fewer gradient passes. The plain-float
`_project_simplex` must give the bits of numpy's calls in
`oracles.project_simplex`.
"""

import dataclasses

import numpy as np
import pytest

from railbridge import tomography
from railbridge.fock import ModeRegister, PureState, normalize, project_density, to_density
from railbridge.homodyne import QuadratureDataset, sample
from railbridge.protocol import (
    INPUT_STATES,
    SourceParams,
    swap_entanglement,
    swap_qubit_sector,
    teleport,
)
from railbridge.tomography import (
    ReconstructionOptions,
    _likelihood,
    _project_simplex,
    _run_maxlik,
)

import oracles


def teleported(name="D"):
    return teleport(INPUT_STATES[name], SourceParams(), cutoff=2)[0]


def swapped_datasets(n_per_setting, seed):
    """One dataset per analyser setting of the swapped qubit sector, lossy at eta 0.5."""
    sector, _ = swap_qubit_sector(swap_entanglement(SourceParams(), cutoff=2)[0])
    pol = sector.register.subset(["D_pol"])
    out = {}
    for i, (name, q) in enumerate(INPUT_STATES.items()):
        cond, _ = project_density(sector, PureState(pol, {(0,): q.a, (1,): q.b}))
        out[name] = sample(normalize(cond), n_per_setting, eta=0.5, seed=seed + i)
    return out


def both_loops(datasets, settings, opts, labels):
    """The lazy and the eager loop's results on one likelihood."""
    lik = _likelihood(datasets, settings, opts)
    reg = ModeRegister(labels, (1,) * (len(labels) - 1) + (opts.cutoff,))
    return _run_maxlik(lik, opts, reg), oracles.run_maxlik(lik, opts, reg)


def fit_single(data, opts):
    return both_loops([data], np.ones((1, 1)), opts, ("B",))


def fit_joint(datasets, opts):
    settings = np.array([[q.a, q.b] for q in INPUT_STATES.values()], dtype=complex)
    return both_loops([datasets[name] for name in INPUT_STATES], settings, opts, ("D_pol", "B"))


def assert_bit_equal(lazy, eager):
    for field in dataclasses.fields(lazy):
        a, b = getattr(lazy, field.name), getattr(eager, field.name)
        if field.name == "rho":
            assert a.register == b.register
            assert a.matrix.tobytes() == b.matrix.tobytes()
        else:
            assert a == b, field.name


@pytest.mark.parametrize("cutoff", [2, 4])
@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_single_mode_fit_matches_the_eager_loop(cutoff, eta):
    # at cutoff 4 and eta 0.5 the step after the last iterate backtracks
    # below it once: that rejection goes with the step the loop drops
    data = sample(teleported(), 1000, eta=0.5, seed=31)
    lazy, eager = fit_single(data, ReconstructionOptions(cutoff=cutoff, eta_correction=eta))
    assert lazy.converged
    assert_bit_equal(lazy, eager)


@pytest.mark.parametrize("cutoff", [2, 4])
@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_joint_fit_matches_the_eager_loop(cutoff, eta):
    datasets = swapped_datasets(300, seed=22)
    lazy, eager = fit_joint(datasets, ReconstructionOptions(cutoff=cutoff, eta_correction=eta))
    assert lazy.converged
    assert_bit_equal(lazy, eager)


@pytest.mark.parametrize("n", [1, 3, 30])
@pytest.mark.parametrize("max_iter", [1, 2, 5, 2000])
def test_small_and_capped_fits_match_the_eager_loop(n, max_iter):
    # a cap ends the loop on an iterate whose gap the lazy loop has not yet computed
    data = sample(teleported("H"), n, eta=0.5, seed=23 + n)
    lazy, eager = fit_single(data, ReconstructionOptions(cutoff=2, max_iter=max_iter))
    assert_bit_equal(lazy, eager)


@pytest.mark.parametrize("x", [26.0, 26.5])
def test_fit_with_a_far_sample_matches_the_eager_loop(x):
    # at x = 26.5 the fit ends with that sample's probability at the floor,
    # which keeps the loop going whatever the gap
    base = sample(to_density(PureState(ModeRegister(("B",), (2,)), {(1,): 1 + 0j})), 2000, seed=50)
    data = QuadratureDataset(np.append(base.theta, 0.4), np.append(base.x, x))
    lazy, eager = fit_single(data, ReconstructionOptions(cutoff=2))
    assert lazy.floored_samples == (x == 26.5)
    assert_bit_equal(lazy, eager)


def test_lazy_loop_makes_fewer_gradient_passes(monkeypatch):
    # the corrected fit of one pipeline teleport input at the default sizes
    data = sample(teleported(), 2000, eta=0.5, seed=24)
    opts = ReconstructionOptions(cutoff=4, eta_correction=0.5)
    lik = _likelihood([data], np.ones((1, 1)), opts)
    reg = ModeRegister(("B",), (4,))
    calls = []
    gradient = tomography._Likelihood.gradient
    monkeypatch.setattr(
        tomography._Likelihood, "gradient", lambda self, p: calls.append(1) or gradient(self, p)
    )
    counts = []
    for run in (_run_maxlik, oracles.run_maxlik):
        calls.clear()
        result = run(lik, opts, reg)
        counts.append(len(calls))
    lazy_passes, eager_passes = counts
    assert result.converged
    assert lazy_passes < eager_passes


def ascending_vectors():
    rng = np.random.default_rng(25)
    for size in range(1, 13):
        for scale in (0.05, 0.5, 3.0):
            w = np.sort(rng.normal(1.0 / size, scale, size))
            yield w
            yield w - w.max() - scale  # every entry negative
            yield np.sort(rng.uniform(0.0, 1.0 / size, size))  # sums below 1
            yield np.sort(np.repeat(w[: (size + 1) // 2], 2)[:size])  # ties
    yield np.zeros(4)
    yield np.array([-0.0, 0.0, 0.5, 0.5])
    yield np.full(5, 0.2)


def test_project_simplex_matches_numpy_bit_for_bit():
    for w in ascending_vectors():
        got, want = _project_simplex(w), oracles.project_simplex(w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), w
