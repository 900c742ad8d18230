"""The one-pass exact engine against the per-input route it replaced.

Every exact-order teleport, swap, click distribution and pre-detection
state at a source point reads one shared Bell-circuit run
(`protocol._source_pass`), whatever the detection efficiency. The reference
builds the full pre-detection state for each input, rotating D before the
circuit, and conditions it on the clicks mode by mode (`oracles`). Density
matrices and states must agree to 1e-12 absolute, probabilities to 1e-12
relative.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from railbridge import protocol, rates
from railbridge.protocol import (
    BELL_CLICK_MODES,
    COUNTER_MODES,
    INPUT_STATES,
    SourceParams,
    _herald_view,
    _source_pass,
    _swap_density,
    click_pattern_distribution,
    counter_marginal,
    pattern_probabilities,
    predetection_state,
    swap_entanglement,
    teleport,
)

TOL = 1e-12


def random_point(rng):
    return SourceParams(
        gamma1=rng.uniform(0.05, 0.5),
        gamma23=rng.uniform(0.02, 0.5),
        alpha=rng.uniform(0.05, 0.5),
        phi_gamma1=rng.uniform(0.0, 2.0 * np.pi),
        phi_alpha=rng.uniform(0.0, 2.0 * np.pi),
        eta_d=rng.uniform(0.02, 1.0),
    )


def random_qubit(rng):
    v = rng.normal(size=4)
    return oracles.qubit_of(complex(v[0], v[1]), complex(v[2], v[3]))


def assert_matches_reference(chi, params, cutoff):
    pre = oracles.predetection_state(chi, params, cutoff)
    state = predetection_state(chi, params, cutoff)
    assert state.register == pre.register
    assert np.max(np.abs(state.array - pre.array)) <= TOL
    rho_ref, p_ref = oracles.condition_on_clicks(
        pre, COUNTER_MODES, params.eta_d, keep=("B",)
    )
    rho, p = teleport(chi, params, cutoff)
    assert np.max(np.abs(rho.matrix - rho_ref.matrix)) <= TOL
    assert abs(p - p_ref) <= TOL * p_ref
    marginal_ref = oracles.counter_marginal(pre)
    # entries are probabilities that sum to 1; tiny ones carry rounding
    assert np.max(np.abs(counter_marginal(chi, params, cutoff) - marginal_ref)) <= 1e-14
    dist_ref = pattern_probabilities(marginal_ref, params.eta_d)
    dist = click_pattern_distribution(chi, params, cutoff)
    for bits, q in dist_ref.items():
        assert abs(dist[bits] - q) <= TOL * q, bits


def assert_swap_matches_reference(params, cutoff):
    out = oracles.circuit_output(params, cutoff)
    rho_ref, p_ref = oracles.condition_on_clicks(
        out, BELL_CLICK_MODES, params.eta_d, keep=("D_H", "D_V", "B")
    )
    rho, p = swap_entanglement(params, cutoff)
    assert rho.register == rho_ref.register
    assert np.max(np.abs(rho.matrix - rho_ref.matrix)) <= TOL
    assert abs(p - p_ref) <= TOL * p_ref


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_one_pass_matches_per_input_route(cutoff):
    rng = np.random.default_rng(1100 + cutoff)
    # a cutoff-5 reference state holds 6^7 amplitudes; one point is enough
    for _ in range(2 if cutoff < 5 else 1):
        params = random_point(rng)
        for chi in (*INPUT_STATES.values(), random_qubit(rng)):
            assert_matches_reference(chi, params, cutoff)
        assert_swap_matches_reference(params, cutoff)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_factored_circuit_output_matches_the_full_tensor_circuit(cutoff):
    rng = np.random.default_rng(1200 + cutoff)
    for _ in range(2 if cutoff < 5 else 1):
        params = random_point(rng)
        s = _source_pass(params, cutoff).s
        ref = oracles.circuit_output(params, cutoff)
        assert s.register == ref.register
        assert np.max(np.abs(s.array - ref.array)) <= TOL


@pytest.mark.parametrize("eta_d", [0.03, 1.0])
@pytest.mark.parametrize("cutoff", [2, 4])
def test_swap_density_matches_the_sum_over_every_counter_row(cutoff, eta_d):
    # the reference weighs every (n_A_H, n_C_H) block, the no-click ones too
    params = replace(random_point(np.random.default_rng(1300 + cutoff)), eta_d=eta_d)
    rho_ref, p_ref = oracles.condition_on_clicks(
        _source_pass(params, cutoff).s, BELL_CLICK_MODES, eta_d, keep=("D_H", "D_V", "B")
    )
    sigma = _swap_density(params, cutoff)
    assert np.max(np.abs(sigma - p_ref * rho_ref.matrix)) <= TOL * p_ref


def test_one_pass_divides_by_the_weight_the_rotation_drops():
    # a strong pair source puts up to 2c photons in D; the diagonal herald
    # rotation cannot hold those within the cutoff and drops their weight
    params = SourceParams(gamma23=0.45, eta_d=0.4)
    chi = INPUT_STATES["D"]
    _, _, rotated_norm = _herald_view(chi, params, 2)
    assert 1e-4 < 1.0 - rotated_norm < 1e-2
    assert_matches_reference(chi, params, 2)


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_interleaved_points_never_read_a_stale_pass(cutoff):
    # the Monte-Carlo check runs the same point with unit efficiency, a scan
    # moves gamma1 or the efficiency, then the first point comes back
    base = SourceParams(gamma1=0.3, gamma23=0.2, eta_d=0.1)
    chi = INPUT_STATES["A"]
    for params in (
        base,
        replace(base, eta_d=1.0),
        replace(base, eta_d=0.45),
        base,
        replace(base, gamma1=0.25),
        replace(base, gamma1=0.25, eta_d=1.0),
        base,
    ):
        assert_matches_reference(chi, params, cutoff)
        assert_swap_matches_reference(params, cutoff)


def test_one_engine_sweep_op_runs_the_circuit_once_per_cutoff(monkeypatch):
    runs = []
    circuit = protocol._circuit_output

    def counted(params, cutoff):
        runs.append(cutoff)
        return circuit(params, cutoff)

    monkeypatch.setattr(protocol, "_circuit_output", counted)
    # a point no other test uses, so no earlier pass is cached for it
    params = SourceParams(gamma1=0.213, gamma23=0.0517, eta_d=0.0291)
    for cutoff in (2, 3, 4):
        for chi in INPUT_STATES.values():
            teleport(chi, params, cutoff)
        swap_entanglement(params, cutoff)
        rates.circuit_consistency(params, cutoff)
        rates.simulate_triple_rate(
            INPUT_STATES["D"], replace(params, eta_d=1.0), 10_000, seed=1, cutoff=cutoff
        )
        predetection_state(INPUT_STATES["H"], params, cutoff)
    assert runs == [2, 3, 4]


def test_pert_teleport_and_swap_never_run_the_circuit(monkeypatch):
    runs = []
    circuit = protocol._circuit_output

    def counted(params, cutoff):
        runs.append(cutoff)
        return circuit(params, cutoff)

    monkeypatch.setattr(protocol, "_circuit_output", counted)
    # a point no other test uses, so a run would not hide behind a cached pass
    params = SourceParams(gamma1=0.187, gamma23=0.0493, order="pert")
    for cutoff in (1, 2, 3):
        for chi in INPUT_STATES.values():
            teleport(chi, params, cutoff)
        swap_entanglement(params, cutoff)
    assert runs == []


def test_pert_params_share_the_exact_pass():
    # the click distribution is exact-order whatever the params say
    pert = SourceParams(order="pert")
    chi = INPUT_STATES["R"]
    pre = oracles.predetection_state(chi, pert, 2)
    np.testing.assert_allclose(
        counter_marginal(chi, pert, 2), oracles.counter_marginal(pre), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        predetection_state(chi, pert, 2).array, pre.array, rtol=0, atol=TOL
    )


def test_cached_pass_is_read_only():
    params = SourceParams()
    src = _source_pass(params, 2)
    arrays = {
        "s": src.s.array,
        "tau": src.tau,
        "rho_d": src.rho_d,
        "sigma": _swap_density(params, 2),
    }
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0.0
