"""The one-pass exact engine against the per-input route it replaced.

Every exact-order teleport, swap and click distribution at a source point
reads one shared Bell-circuit pass (`protocol._source_pass`). The reference
builds the full pre-detection state for each input and conditions it on the
clicks mode by mode (`oracles`). Density matrices must agree to 1e-12
absolute, probabilities to 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from railbridge.fock import normalize
from railbridge.protocol import (
    BELL_CLICK_MODES,
    COUNTER_MODES,
    INPUT_STATES,
    SourceParams,
    _circuit_input,
    _herald_view,
    _source_pass,
    apply_bell_circuit,
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
    pre = predetection_state(chi, params, cutoff)
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
    out = normalize(apply_bell_circuit(_circuit_input(params, cutoff)))
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


def test_one_pass_divides_by_the_weight_the_rotation_drops():
    # a strong pair source puts up to 2c photons in D; the diagonal herald
    # rotation cannot hold those within the cutoff and drops their weight
    params = SourceParams(gamma23=0.45, eta_d=0.4)
    chi = INPUT_STATES["D"]
    _, _, rotated_norm = _herald_view(chi, params, 2)
    assert 1e-4 < 1.0 - rotated_norm < 1e-2
    assert_matches_reference(chi, params, 2)


def test_interleaved_points_never_read_a_stale_pass():
    # the Monte-Carlo check runs the same point with unit efficiency, a scan
    # moves gamma1, then the first point comes back
    base = SourceParams(gamma1=0.3, gamma23=0.2, eta_d=0.1)
    chi = INPUT_STATES["A"]
    for params in (base, replace(base, eta_d=1.0), replace(base, gamma1=0.25), base):
        assert_matches_reference(chi, params, 3)
        assert_swap_matches_reference(params, 3)


def test_pert_params_share_the_exact_pass():
    # the click distribution is exact-order whatever the params say
    pert = SourceParams(order="pert")
    chi = INPUT_STATES["R"]
    pre = predetection_state(chi, pert, 2)
    np.testing.assert_allclose(
        counter_marginal(chi, pert, 2), oracles.counter_marginal(pre), rtol=0, atol=1e-14
    )


def test_cached_pass_is_read_only():
    src = _source_pass(SourceParams(), 2)
    for name, a in src._asdict().items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a[...] = 0.0
