"""Maximum-likelihood fit regression pins.

`fit_pins.json` holds the density matrix and iteration count of two seeded
single-mode fits, recorded before the likelihood iteration was factored
per analysis setting. Density matrices must agree to 1e-12 absolute and
iteration counts exactly.
"""

import json
import os

import numpy as np
import pytest

from railbridge.fock import DensityMatrix, ModeRegister
from railbridge.homodyne import sample
from railbridge.tomography import ReconstructionOptions, maxlik_reconstruct

with open(os.path.join(os.path.dirname(__file__), "fit_pins.json")) as fh:
    PINS = json.load(fh)

TOL = 1e-12

# name -> (state seed, state cutoff, samples, sampling and correction eta, fit cutoff)
CASES = {
    "c2_eta0.5": (2024, 2, 4000, 0.5, 2),
    "c4_eta1": (2025, 3, 4000, 1.0, 4),
}


def fit_case(name):
    state_seed, state_cutoff, n, eta, cutoff = CASES[name]
    rng = np.random.default_rng(state_seed)
    d = state_cutoff + 1
    v = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    m = v.T @ v.conj()
    m /= np.trace(m).real
    rho = DensityMatrix(ModeRegister(("B",), (state_cutoff,)), m)
    data = sample(rho, n, eta=eta, seed=state_seed + 1)
    return maxlik_reconstruct(
        data, ReconstructionOptions(cutoff=cutoff, eta_correction=eta)
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_mode_fit_matches_pins(name):
    pin = PINS[name]
    res = fit_case(name)
    want = np.asarray(pin["re"]) + 1j * np.asarray(pin["im"])
    assert res.iterations == pin["iterations"]
    assert np.max(np.abs(res.rho.matrix - want)) <= TOL
