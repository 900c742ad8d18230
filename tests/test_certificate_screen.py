"""The fit screens its likelihood-gap certificate with the last top eigenvector.

Where the lazy loop of `tomography._run_maxlik` would compute the gap of an
accepted iterate, it first bounds that gap from below with the weights of
R's top eigenvector at the last computed gap, and skips the certificate
when the bound clears GAP_TOL. The results must stay bit-equal to those of
`oracles.run_maxlik`, the loop that certifies every accepted iterate, with
fewer passes over the data and fewer `eigvalsh` calls than the lazy loop
made without the screen.
"""

import collections

import numpy as np

from railbridge import tomography
from railbridge.fock import ModeRegister
from railbridge.homodyne import sample
from railbridge.protocol import INPUT_STATES
from railbridge.tomography import (
    GAP_TOL,
    ReconstructionOptions,
    _likelihood,
    _pack,
    _run_maxlik,
)

import oracles
from test_lazy_certificate import assert_bit_equal, swapped_datasets, teleported


def counted_calls(monkeypatch):
    """Calls of the fit's data passes (gradient, top_weights) and of gap (one eigvalsh each)."""
    calls = collections.Counter()
    for name in ("gradient", "top_weights", "gap"):
        method = getattr(tomography._Likelihood, name)
        monkeypatch.setattr(
            tomography._Likelihood,
            name,
            lambda self, a, name=name, method=method: calls.update([name]) or method(self, a),
        )
    return calls


def screened_counts(monkeypatch, lik, opts, reg):
    """The screened loop's result, data passes and gaps; its result must be the eager loop's."""
    calls = counted_calls(monkeypatch)
    result = _run_maxlik(lik, opts, reg)
    passes, gaps = calls["gradient"] + calls["top_weights"], calls["gap"]
    assert_bit_equal(result, oracles.run_maxlik(lik, opts, reg))
    return result, passes, gaps


def test_screen_cuts_passes_of_a_single_mode_fit(monkeypatch):
    # the corrected fit of one pipeline teleport input at the default sizes;
    # without the screen the lazy loop made 156 gradient passes and 62
    # eigvalsh calls over its 95 iterations
    data = sample(teleported(), 2000, eta=0.5, seed=24)
    opts = ReconstructionOptions(cutoff=4, eta_correction=0.5)
    lik = _likelihood([data], np.ones((1, 1)), opts)
    result, passes, gaps = screened_counts(monkeypatch, lik, opts, ModeRegister(("B",), (4,)))
    assert result.converged
    assert passes < 156
    assert gaps < 62


def test_screen_cuts_passes_of_a_joint_fit(monkeypatch):
    # without the screen the lazy loop made 82 gradient passes and 33
    # eigvalsh calls over this fit's 50 iterations
    datasets = swapped_datasets(300, seed=22)
    settings = np.array([[q.a, q.b] for q in INPUT_STATES.values()], dtype=complex)
    opts = ReconstructionOptions(cutoff=4, eta_correction=0.5)
    lik = _likelihood([datasets[name] for name in INPUT_STATES], settings, opts)
    reg = ModeRegister(("D_pol", "B"), (1, 4))
    result, passes, gaps = screened_counts(monkeypatch, lik, opts, reg)
    assert result.converged
    assert passes < 82
    assert gaps < 33


def test_screen_with_the_top_eigenvector_tracks_the_gap():
    # with v the top eigenvector at rho itself, the bound is the gap up to
    # rounding: it clears GAP_TOL at the maximally mixed start and not at
    # the certified fit
    data = sample(teleported(), 2000, eta=0.5, seed=24)
    opts = ReconstructionOptions(cutoff=4, eta_correction=0.5)
    lik = _likelihood([data], np.ones((1, 1)), opts)
    fit = _run_maxlik(lik, opts, ModeRegister(("B",), (4,)))
    for rho, clears in ((np.eye(lik.dim) / lik.dim, True), (fit.rho.matrix, False)):
        p = lik.probs(_pack(rho))
        grad = lik.gradient(p)
        assert (lik.gap(grad) >= GAP_TOL) is clears
        assert lik.screen(lik.top_weights(grad), p) is clears


def test_no_unit_vector_clears_the_screen_at_a_certified_fit():
    # N (v^dagger R v - 1) <= gap for every unit v, so below GAP_TOL no
    # vector may skip the certificate
    datasets = swapped_datasets(300, seed=22)
    settings = np.array([[q.a, q.b] for q in INPUT_STATES.values()], dtype=complex)
    opts = ReconstructionOptions(cutoff=2, eta_correction=0.5)
    lik = _likelihood([datasets[name] for name in INPUT_STATES], settings, opts)
    fit = _run_maxlik(lik, opts, ModeRegister(("D_pol", "B"), (1, 2)))
    p = lik.probs(_pack(fit.rho.matrix))
    assert lik.gap(lik.gradient(p)) < GAP_TOL
    rng = np.random.default_rng(27)
    for _ in range(200):
        v = rng.normal(size=lik.dim) + 1j * rng.normal(size=lik.dim)
        v /= np.linalg.norm(v)
        assert not lik.screen(lik._born(_pack(np.outer(v, v.conj()))), p)
