import json
import math

import numpy as np
import pytest

from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    PureState,
    density_from_json_dict,
    loss_channel,
    normalize,
    project_density,
    to_density,
)
from railbridge.homodyne import QuadratureDataset, hermite_functions, quadrature_pdf, sample
from railbridge.protocol import INPUT_STATES
from railbridge.tomography import (
    GAP_TOL,
    ReconstructionOptions,
    ReconstructionResult,
    _feature_rows,
    _run_maxlik,
    _sample_vectors,
    entanglement_witness,
    fidelity,
    joint_reconstruct_swapped,
    maxlik_reconstruct,
    result_to_json_dict,
    wigner,
)


def single_mode(amps, cutoff=1, label="B"):
    reg = ModeRegister((label,), (cutoff,))
    return to_density(PureState(reg, {(n,): complex(a) for n, a in enumerate(amps)}))


def random_pure_density(rng, cutoff, label="B"):
    v = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    v /= np.linalg.norm(v)
    return single_mode(v, cutoff=cutoff, label=label)


def random_mixed(rng, cutoff, rank=2, label="B"):
    d = cutoff + 1
    m = np.zeros((d, d), dtype=complex)
    for _ in range(rank):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        m += np.outer(v, v.conj())
    m /= np.trace(m).real
    return DensityMatrix(ModeRegister((label,), (cutoff,)), m)


def fock_state(n, cutoff=4):
    amps = [0.0] * (cutoff + 1)
    amps[n] = 1.0
    return single_mode(amps, cutoff=cutoff)


def quadrature_povm(theta: float, x: float, eta: float, cutoff: int) -> np.ndarray:
    """Measurement operator of one quadrature sample at efficiency eta.

    The adjoint loss channel applied to the quadrature eigenprojector, so
    Tr[rho Pi] equals the density the lossy detector sees at (theta, x)
    for the pre-loss rho.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta={eta} outside (0, 1]")
    psi = hermite_functions(cutoff, np.array([float(x)]))[:, 0]
    v = psi * np.exp(1j * theta * np.arange(cutoff + 1))
    proj = np.outer(v, v.conj())
    return sum(K.conj().T @ proj @ K for K in loss_channel(eta, cutoff))


# ------------------------------------------------------------------ POVM


def test_povm_without_loss_is_projector():
    theta, x = 0.7, 0.9
    pi = quadrature_povm(theta, x, 1.0, 3)
    psi = hermite_functions(3, np.array([x]))[:, 0]
    vec = psi * np.exp(1j * theta * np.arange(4))
    assert np.allclose(pi, np.outer(vec, vec.conj()), atol=1e-12)
    # rank one and positive
    w = np.linalg.eigvalsh(pi)
    assert w.min() > -1e-14
    assert np.sum(w > 1e-12) == 1


def test_povm_loss_oracle_on_single_photon():
    # losing the photon with probability 1/2 mixes in the vacuum projector
    theta, x = 0.0, 0.4
    pi = quadrature_povm(theta, x, 0.5, 3)
    psi = hermite_functions(3, np.array([x]))[:, 0]
    assert abs(pi[1, 1] - (0.5 * psi[1] ** 2 + 0.5 * psi[0] ** 2)) < 1e-12
    # vacuum element is loss invariant
    for eta in (0.2, 0.6, 1.0):
        assert abs(quadrature_povm(theta, x, eta, 3)[0, 0] - psi[0] ** 2) < 1e-12
    with pytest.raises(ValueError):
        quadrature_povm(theta, x, 0.0, 3)


def test_povm_adjoint_identity_against_pdf():
    # Tr[rho Pi_eta] equals the pdf of the loss-degraded state
    rng = np.random.default_rng(8)
    rho = random_mixed(rng, 4)
    eta = 0.6
    lossy = DensityMatrix(
        rho.register, sum(K @ rho.matrix @ K.conj().T for K in loss_channel(eta, 4))
    )
    for theta, x in [(0.0, 0.3), (1.2, -1.1), (2.7, 2.0), (4.4, 0.0)]:
        lhs = float(np.real(np.trace(rho.matrix @ quadrature_povm(theta, x, eta, 4))))
        rhs = quadrature_pdf(lossy, theta)(x)
        assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------------- reconstruction


def test_maxlik_recovers_vacuum():
    data = sample(single_mode([1.0]), 10_000, seed=14)
    res = maxlik_reconstruct(data, ReconstructionOptions(cutoff=3))
    assert res.converged
    assert fidelity(res.rho, fock_state(0, cutoff=3)) >= 0.99
    # the fit is a genuine optimum: it must dominate the true state in
    # likelihood (finite-sample ML trades a little fidelity for that)
    ll_vac = float(np.sum(np.log(hermite_functions(0, data.x)[0] ** 2)))
    assert res.final_loglik >= ll_vac - 1e-6


def test_maxlik_round_trip_random_state():
    rng = np.random.default_rng(15)
    rho = random_pure_density(rng, 2)
    data = sample(rho, 100_000, seed=16)
    res = maxlik_reconstruct(data, ReconstructionOptions(cutoff=2))
    assert res.converged
    assert fidelity(res.rho, rho) >= 0.99


def test_maxlik_loss_corrected_single_photon():
    # detected half/half mixture; the corrected fit returns the photon.
    # corrected fits need more iterations than raw ones, and the optimum
    # scatters by about +-0.01 in fidelity between seeds at this n.
    data = sample(single_mode([0.0, 1.0]), 100_000, eta=0.5, seed=77)
    raw = maxlik_reconstruct(data, ReconstructionOptions(cutoff=4))
    assert abs(float(np.real(raw.rho.matrix[1, 1])) - 0.5) < 0.02
    corrected = maxlik_reconstruct(
        data, ReconstructionOptions(cutoff=4, eta_correction=0.5, max_iter=6000)
    )
    assert corrected.converged
    assert fidelity(corrected.rho, fock_state(1)) >= 0.98


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
@pytest.mark.parametrize("eta, floor", [(1.0, 0.98), (0.6, 0.90)])
def test_sample_then_fit_round_trip_is_certified(cutoff, eta, floor):
    # 20k samples of a random pure state at the fit's own cutoff; the loss-
    # corrected floor is looser because loss amplifies the estimator noise
    # (fidelities measured over three seeds: >= 0.990 at eta 1, >= 0.919 at 0.6)
    rng = np.random.default_rng(700 + 10 * cutoff + int(10 * eta) % 10)
    rho = random_pure_density(rng, cutoff)
    data = sample(rho, 20_000, eta=eta, seed=int(rng.integers(2**31)))
    opts = ReconstructionOptions(cutoff=cutoff, eta_correction=eta)
    res = maxlik_reconstruct(data, opts)
    assert res.converged
    assert 0.0 <= res.likelihood_gap < GAP_TOL
    assert fidelity(res.rho, rho) >= floor


def test_maxlik_trace_monotone_and_diagnostics():
    rng = np.random.default_rng(18)
    for trial in range(8):
        rho = random_mixed(rng, 2)
        data = sample(rho, 300, seed=100 + trial)
        res = maxlik_reconstruct(
            data, ReconstructionOptions(cutoff=2, max_iter=500)
        )
        diffs = np.diff(res.loglik_trace)
        assert diffs.min() >= -1e-9
        assert res.floored_samples == 0
        assert res.eta_used == 1.0


def test_maxlik_input_validation():
    with pytest.raises(ValueError):
        maxlik_reconstruct(QuadratureDataset(np.array([]), np.array([])))
    with pytest.raises(ValueError):
        ReconstructionOptions(eta_correction=0.0)
    with pytest.raises(ValueError):
        ReconstructionOptions(cutoff=0)


# ------------------------------------------------------------------- joint


def ideal_joint_state(cutoff=2):
    reg = ModeRegister(("D_pol", "B"), (1, cutoff))
    s = 1 / math.sqrt(2)
    return to_density(PureState(reg, {(0, 1): s + 0j, (1, 0): s + 0j}))


def joint_datasets(rho_joint, n_per_setting, eta, seed):
    out = {}
    for i, (name, q) in enumerate(INPUT_STATES.items()):
        vec = np.array([q.a, q.b])
        bra = PureState(
            rho_joint.register.subset(["D_pol"]), {(0,): vec[0], (1,): vec[1]}
        )
        cond, _ = project_density(rho_joint, bra)
        cond = normalize(cond)
        out[name] = sample(cond, n_per_setting, eta=eta, seed=seed + i)
    return out


def test_joint_fit_matches_settings_by_name_not_dict_order():
    datasets = joint_datasets(ideal_joint_state(cutoff=1), 300, eta=0.8, seed=60)
    opts = ReconstructionOptions(cutoff=1, eta_correction=0.8)
    forward = joint_reconstruct_swapped(datasets, opts)
    backward = joint_reconstruct_swapped(dict(reversed(datasets.items())), opts)
    assert np.array_equal(forward.rho.matrix, backward.rho.matrix)
    assert forward.iterations == backward.iterations


def test_joint_reconstruction_ideal_state():
    rho = ideal_joint_state()
    datasets = joint_datasets(rho, 10_000, eta=1.0, seed=40)
    res = joint_reconstruct_swapped(datasets, ReconstructionOptions(cutoff=2))
    assert res.converged
    assert fidelity(res.rho, rho) >= 0.98
    report = entanglement_witness(res.rho)
    assert report["entangled"]
    assert report["fidelity_to_max_entangled"] >= 0.98


def test_joint_reconstruction_loss_corrected():
    rho = ideal_joint_state()
    datasets = joint_datasets(rho, 10_000, eta=0.5, seed=41)
    res = joint_reconstruct_swapped(
        datasets, ReconstructionOptions(cutoff=2, eta_correction=0.5)
    )
    assert fidelity(res.rho, rho) >= 0.95


def test_joint_reconstruction_missing_settings():
    rho = ideal_joint_state()
    datasets = joint_datasets(rho, 100, eta=1.0, seed=42)
    del datasets["R"], datasets["L"]
    with pytest.raises(ValueError, match="L, R"):
        joint_reconstruct_swapped(datasets, ReconstructionOptions(cutoff=2))


def test_joint_reconstruction_unknown_settings():
    rho = ideal_joint_state()
    datasets = joint_datasets(rho, 100, eta=1.0, seed=42)
    datasets["X"] = datasets["Y"] = datasets["H"]
    with pytest.raises(ValueError, match="unknown analysis settings: X, Y"):
        joint_reconstruct_swapped(datasets, ReconstructionOptions(cutoff=2))


def test_joint_reconstruction_unequal_counts():
    # a pooled fit of these counts reaches fidelity 0.71 and reports converged
    rho = ideal_joint_state()
    datasets = joint_datasets(rho, 4000, eta=1.0, seed=43)
    for name, n in zip(INPUT_STATES, [3000, 500, 1000, 4000, 200, 2500]):
        ds = datasets[name]
        datasets[name] = QuadratureDataset(ds.theta[:n], ds.x[:n])
    with pytest.raises(ValueError, match="H=3000, V=500, D=1000, A=4000, R=200, L=2500"):
        joint_reconstruct_swapped(datasets, ReconstructionOptions(cutoff=2))


def lifted_joint_fit(datasets, opts):
    """The joint fit with every sample lifted to the 2(c+1)-dim space.

    Each sample's POVM element |s><s| x Pi_j is packed in full, (2(c+1))^2
    columns, and the loss channel acts as I_2 x K; the likelihood iteration
    then runs on one setting with the identity map.
    """
    blocks = []
    for name, q in INPUT_STATES.items():
        setting = np.array([q.a, q.b])
        ds = datasets[name]
        v = _sample_vectors(ds.theta, ds.x, opts.cutoff)
        blocks.append(np.einsum("a,jn->jan", setting, v).reshape(len(ds), -1))
    kraus = loss_channel(opts.eta_correction, opts.cutoff)
    feats = _feature_rows(np.concatenate(blocks), [np.kron(np.eye(2), K) for K in kraus])
    dim = 2 * (opts.cutoff + 1)
    reg = ModeRegister(("D_pol", "B"), (1, opts.cutoff))
    return _run_maxlik(feats[None], np.eye(dim * dim), opts, reg)


@pytest.mark.parametrize("cutoff", [2, 4])
@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_factored_joint_fit_matches_lifted_oracle(cutoff, eta):
    rho = ideal_joint_state(cutoff)
    datasets = joint_datasets(rho, 1000, eta=eta, seed=44 + cutoff)
    opts = ReconstructionOptions(cutoff=cutoff, eta_correction=eta)
    res = joint_reconstruct_swapped(datasets, opts)
    want = lifted_joint_fit(datasets, opts)
    assert np.max(np.abs(res.rho.matrix - want.rho.matrix)) <= 1e-12
    assert res.iterations == want.iterations
    assert res.converged == want.converged
    assert (res.floored_samples, res.rejected_steps) == (want.floored_samples, want.rejected_steps)
    assert abs(res.final_loglik - want.final_loglik) <= 1e-9 * abs(want.final_loglik)


# ---------------------------------------------------------------- fidelity


def test_fidelity_basic_laws():
    rng = np.random.default_rng(19)
    rho = random_mixed(rng, 3)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10
    # pure states: overlap law
    v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    p1 = single_mode(v1, cutoff=3)
    p2 = single_mode(v2, cutoff=3)
    assert abs(fidelity(p1, p2) - abs(np.vdot(v1, v2)) ** 2) < 1e-12
    # symmetry
    sig = random_mixed(rng, 3)
    assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10


def test_fidelity_mixed_oracle_and_errors():
    mix = single_mode([1.0, 0.0])
    mix = DensityMatrix(mix.register, np.diag([0.5, 0.5]).astype(complex))
    plus = single_mode([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert abs(fidelity(mix, plus) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity(mix, fock_state(0, cutoff=3))
    reg = ModeRegister(("B",), (1,))
    bad = DensityMatrix(reg, np.array([[1.5, 0], [0, -0.5]], dtype=complex))
    with pytest.raises(ValueError):
        fidelity(bad, mix)


# ------------------------------------------------------------------ Wigner


def wigner_integral_oracle(rho, q, p):
    # direct transform (1/pi) Int dy e^{2ipy} <q-y|rho|q+y>
    y = np.linspace(-8.0, 8.0, 16001)
    d = rho.matrix.shape[0]
    left = hermite_functions(d - 1, q - y)
    right = hermite_functions(d - 1, q + y)
    corr = np.einsum("my,mn,ny->y", left, rho.matrix, right)
    return float(np.real(np.trapezoid(np.exp(2j * p * y) * corr, y))) / math.pi


def test_wigner_spot_values():
    grid = np.array([0.0])
    assert abs(wigner(fock_state(0), grid, grid)[0, 0] - 1 / math.pi) < 1e-12
    assert abs(wigner(fock_state(1), grid, grid)[0, 0] + 1 / math.pi) < 1e-12
    reg = ModeRegister(("B",), (1,))
    mix = DensityMatrix(reg, np.diag([0.5, 0.5]).astype(complex))
    assert abs(wigner(mix, grid, grid)[0, 0]) < 1e-12


def test_wigner_matches_integral_transform():
    rng = np.random.default_rng(23)
    rho = random_mixed(rng, 4, rank=3)
    q_pts = [0.0, 0.3, -1.1]
    p_pts = [0.0, -0.7, 0.4]
    grid = wigner(rho, np.array(q_pts), np.array(p_pts))
    for i, q in enumerate(q_pts):
        for j, p in enumerate(p_pts):
            assert abs(grid[i, j] - wigner_integral_oracle(rho, q, p)) < 1e-8


def test_wigner_normalization_and_marginal():
    rng = np.random.default_rng(24)
    rho = random_mixed(rng, 4, rank=2)
    q = np.linspace(-5, 5, 201)
    p = np.linspace(-5, 5, 201)
    w = wigner(rho, q, p)
    total = np.trapezoid(np.trapezoid(w, p, axis=1), q)
    assert abs(total - 1.0) < 1e-4
    marginal = np.trapezoid(w, p, axis=1)
    pdf = quadrature_pdf(rho, 0.0)(q)
    assert np.max(np.abs(marginal - pdf)) < 1e-4


def test_wigner_grid_errors():
    with pytest.raises(ValueError):
        wigner(fock_state(0), np.array([]), np.array([0.0]))
    reg = ModeRegister(("a", "b"), (1, 1))
    with pytest.raises(ValueError):
        wigner(DensityMatrix(reg, np.eye(4, dtype=complex) / 4), np.array([0.0]), np.array([0.0]))


# ----------------------------------------------------------------- witness


def test_witness_reference_points():
    ideal = ideal_joint_state()
    report = entanglement_witness(ideal)
    assert abs(report["fidelity_to_max_entangled"] - 1.0) < 1e-12
    assert report["entangled"]

    reg = ModeRegister(("D_pol", "B"), (1, 1))
    mixed = DensityMatrix(reg, np.eye(4, dtype=complex) / 4)
    report = entanglement_witness(mixed)
    assert abs(report["fidelity_to_max_entangled"] - 0.25) < 1e-12
    assert not report["entangled"]


def test_witness_tracks_phase_family():
    phi0 = 0.8
    reg = ModeRegister(("D_pol", "B"), (1, 2))
    s = 1 / math.sqrt(2)
    psi = PureState(reg, {(0, 1): s + 0j, (1, 0): s * np.exp(1j * phi0)})
    report = entanglement_witness(to_density(psi))
    assert abs(report["fidelity_to_max_entangled"] - 1.0) < 1e-12
    assert abs(report["optimal_phase"] - phi0) < 1e-12
    with pytest.raises(ValueError):
        entanglement_witness(fock_state(0))


# ------------------------------------------------------- drift and JSON


def test_result_json_round_trip():
    data = sample(single_mode([1.0]), 2000, seed=51)
    res = maxlik_reconstruct(data, ReconstructionOptions(cutoff=2))
    blob = json.dumps(result_to_json_dict(res))
    obj = json.loads(blob)
    back = density_from_json_dict(obj["rho"])
    assert np.max(np.abs(back.matrix - res.rho.matrix)) < 1e-15
    diag = obj["diagnostics"]
    assert diag["converged"] == res.converged
    assert diag["iterations"] == res.iterations
    assert diag["eta_used"] == 1.0
    assert isinstance(res, ReconstructionResult)
