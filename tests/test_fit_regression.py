"""Maximum-likelihood fit regression pins.

`fit_pins.json` holds the density matrix of two seeded single-mode fits,
recorded from an earlier solver that stopped when its likelihood stalled.
The ML optimum is the same for any solver, so a fit on the same data must
reach at least the pinned density matrix's log-likelihood, certify its
likelihood gap below tol, and land near the pinned density matrix.

The log-likelihood and the gap are recomputed here from the dense
measurement operators, independent of the solver's packed coordinates.
"""

import json
import math
import os

import numpy as np
import pytest

from railbridge.fock import DensityMatrix, ModeRegister, loss_channel, to_density
from railbridge.homodyne import hermite_functions, sample
from railbridge.tomography import GAP_TOL, ReconstructionOptions, maxlik_reconstruct
from test_acceptance import fixed_state_set

with open(os.path.join(os.path.dirname(__file__), "fit_pins.json")) as fh:
    PINS = json.load(fh)

# bound on the largest entry of rho_fit - rho_pinned; both sit within
# 1e-2 nats of the optimum (measured 2.3e-5 for c2_eta0.5, 3.5e-6 for c4_eta1)
PIN_DISTANCE = 1e-3

# name -> (state seed, state cutoff, samples, sampling and correction eta, fit cutoff)
CASES = {
    "c2_eta0.5": (2024, 2, 4000, 0.5, 2),
    "c4_eta1": (2025, 3, 4000, 1.0, 4),
}


def loglik_and_gap(data, rho, eta):
    """L(rho) = sum_j log Tr[rho Pi_j] and the bound N (lambda_max(R) - 1) on L* - L.

    Pi_j is the adjoint loss channel applied to the quadrature projector
    |v_j><v_j|, so Tr[rho Pi_j] = <v_j| E(rho) |v_j> for the loss channel E.
    """
    cutoff = rho.shape[0] - 1
    v = hermite_functions(cutoff, data.x).T * np.exp(
        1j * np.outer(data.theta, np.arange(cutoff + 1))
    )
    kraus = loss_channel(eta, cutoff)
    lossy = sum(K @ rho @ K.conj().T for K in kraus)
    p = np.real(np.einsum("jm,mn,jn->j", v.conj(), lossy, v))
    weighted = v.T @ (v.conj() / p[:, None])  # sum_j |v_j><v_j| / p_j
    r_op = sum(K.conj().T @ weighted @ K for K in kraus) / len(p)
    gap = len(p) * (np.linalg.eigvalsh(r_op)[-1] - 1.0)
    return float(np.log(p).sum()), float(gap)


def case_data(name):
    state_seed, state_cutoff, n, eta, cutoff = CASES[name]
    rng = np.random.default_rng(state_seed)
    d = state_cutoff + 1
    v = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    m = v.T @ v.conj()
    m /= np.trace(m).real
    rho = DensityMatrix(ModeRegister(("B",), (state_cutoff,)), m)
    data = sample(rho, n, eta=eta, seed=state_seed + 1)
    return data, ReconstructionOptions(cutoff=cutoff, eta_correction=eta)


@pytest.mark.parametrize("name", sorted(CASES))
def test_single_mode_fit_matches_pins(name):
    data, opts = case_data(name)
    res = maxlik_reconstruct(data, opts)
    pinned = np.asarray(PINS[name]["re"]) + 1j * np.asarray(PINS[name]["im"])
    ll_fit, gap = loglik_and_gap(data, res.rho.matrix, opts.eta_correction)
    ll_pin, _ = loglik_and_gap(data, pinned, opts.eta_correction)
    assert ll_fit >= ll_pin - 1e-9
    assert res.converged
    assert gap < GAP_TOL
    assert abs(res.likelihood_gap - gap) <= 1e-6 * max(1.0, gap)
    # the certificate bounds how far any density matrix can sit above the fit
    assert ll_pin <= ll_fit + gap
    assert np.max(np.abs(res.rho.matrix - pinned)) <= PIN_DISTANCE


def test_converged_lossy_panel_fit_is_certified():
    # panel state 3 behind a 50% detector: a fit that stops when its
    # likelihood stalls reports converged with a gap above 1 nat
    rho = to_density(fixed_state_set()[3])
    data = sample(rho, 100_000, eta=0.5, seed=2003)
    opts = ReconstructionOptions(cutoff=2, eta_correction=0.5, max_iter=4000)
    res = maxlik_reconstruct(data, opts)
    assert res.converged
    _, gap = loglik_and_gap(data, res.rho.matrix, opts.eta_correction)
    assert gap < GAP_TOL
    assert math.isclose(res.likelihood_gap, gap, rel_tol=1e-6, abs_tol=1e-6)
