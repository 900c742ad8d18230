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
from railbridge.protocol import INPUT_STATES
from railbridge.tomography import (
    GAP_TOL,
    ReconstructionOptions,
    joint_reconstruct_swapped,
    maxlik_reconstruct,
)
from test_acceptance import fixed_state_set
from test_tomography import ideal_joint_state, joint_datasets

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
    p, weighted = probs_and_weights(data, rho, eta)
    r_op = weighted / len(p)
    gap = len(p) * (np.linalg.eigvalsh(r_op)[-1] - 1.0)
    return float(np.log(p).sum()), float(gap)


def probs_and_weights(data, rho, eta):
    """p_j = <v_j| E(rho) |v_j> and E^dagger(sum_j |v_j><v_j| / p_j)."""
    cutoff = rho.shape[0] - 1
    v = hermite_functions(cutoff, data.x).T * np.exp(
        1j * np.outer(data.theta, np.arange(cutoff + 1))
    )
    kraus = loss_channel(eta, cutoff)
    lossy = sum(K @ rho @ K.conj().T for K in kraus)
    p = np.real(np.einsum("jm,mn,jn->j", v.conj(), lossy, v))
    weighted = v.T @ (v.conj() / p[:, None])  # sum_j |v_j><v_j| / p_j
    return p, sum(K.conj().T @ weighted @ K for K in kraus)


def joint_loglik_and_gap(datasets, rho, eta):
    """L and the bound N (lambda_max(R) - 1) of the joint fit, from dense operators.

    Setting s reads <s|rho|s> on the Fock mode: p_sj = <v_j| E(<s|rho|s>) |v_j>,
    and R = (1/N) sum_s |s><s| x E^dagger(sum_j |v_j><v_j| / p_sj).
    """
    d = rho.shape[0] // 2
    blocks = rho.reshape(2, d, 2, d)
    loglik, r_op, n = 0.0, np.zeros_like(rho), 0
    for name, q in INPUT_STATES.items():
        s = np.array([q.a, q.b])
        reduced = np.einsum("a,ambn,b->mn", s.conj(), blocks, s)  # <s|rho|s>
        p, weighted = probs_and_weights(datasets[name], reduced, eta)
        loglik += float(np.log(p).sum())
        r_op += np.kron(np.outer(s, s.conj()), weighted)
        n += len(p)
    gap = n * (np.linalg.eigvalsh(r_op / n)[-1] - 1.0)
    return loglik, float(gap)


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


@pytest.mark.parametrize("cutoff", [2, 4])
@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_joint_fit_certificate_matches_dense_operators(cutoff, eta):
    # the factored joint fit's packed rows and setting map against the dense
    # product POVM |s><s| x Pi_j (measured: log-likelihoods within 2e-16
    # relative, gaps within 3e-12 nats)
    datasets = joint_datasets(ideal_joint_state(cutoff), 1000, eta=eta, seed=50 + cutoff)
    opts = ReconstructionOptions(cutoff=cutoff, eta_correction=eta)
    res = joint_reconstruct_swapped(datasets, opts)
    loglik, gap = joint_loglik_and_gap(datasets, res.rho.matrix, eta)
    assert res.converged
    assert gap < GAP_TOL
    assert abs(res.final_loglik - loglik) <= 1e-9 * abs(loglik)
    assert abs(res.likelihood_gap - max(0.0, gap)) <= 1e-6 * max(1.0, gap)
