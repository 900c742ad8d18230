"""Optical elements on the dense Fock amplitude tensor."""

import math

import numpy as np
import pytest

from railbridge.fock import (
    ModeRegister,
    PureState,
    norm,
    normalize,
    tensor,
    to_density,
    vacuum,
)
from railbridge.elements import (
    apply_pair_map,
    click_probability,
    coherent_state,
    half_wave_plate,
    hwp_matrix,
    polarising_bs,
    two_mode_squeezer,
)

from oracles import spcm_povm

SQ2 = math.sqrt(2.0)


def two_modes(cutoff=2, labels=("a", "b")):
    return ModeRegister.uniform(list(labels), cutoff)


def single_photon(reg, mode):
    occ = [0] * reg.n_modes
    occ[reg.index(mode)] = 1
    return PureState(reg, {tuple(occ): 1.0 + 0.0j})


def bs_matrix(t):
    """Beam splitter a -> sqrt(t) a + sqrt(1-t) b, b -> sqrt(1-t) a - sqrt(t) b."""
    s, r = math.sqrt(t), math.sqrt(1.0 - t)
    return np.array([[s, r], [r, -s]])


# ------------------------------------------------------------ beam splitter


def test_bs_full_transmission_is_identity_up_to_sign():
    # the pinned map sends b to -b at t=1, so identity holds modulo (-1)^n_b
    reg = two_modes()
    full = bs_matrix(1.0)
    out = apply_pair_map(PureState(reg, {(2, 0): 1.0 + 0.0j}), "a", "b", full)
    assert abs(out.array[2, 0] - 1.0) < 1e-12
    assert np.count_nonzero(out.array) == 1
    out = apply_pair_map(PureState(reg, {(2, 1): 1.0 + 0.0j}), "a", "b", full)
    assert abs(out.array[2, 1] + 1.0) < 1e-12


def test_bs_splits_single_photon_with_pinned_signs():
    reg = two_modes()
    t = 0.7
    out_a = apply_pair_map(single_photon(reg, "a"), "a", "b", bs_matrix(t))
    assert abs(out_a.array[1, 0] - math.sqrt(t)) < 1e-12
    assert abs(out_a.array[0, 1] - math.sqrt(1 - t)) < 1e-12
    out_b = apply_pair_map(single_photon(reg, "b"), "a", "b", bs_matrix(t))
    assert abs(out_b.array[1, 0] - math.sqrt(1 - t)) < 1e-12
    assert abs(out_b.array[0, 1] + math.sqrt(t)) < 1e-12


def test_bs_hong_ou_mandel_dip():
    reg = two_modes()
    psi = PureState(reg, {(1, 1): 1.0 + 0.0j})
    out = apply_pair_map(psi, "a", "b", bs_matrix(0.5))
    assert abs(out.array[1, 1]) < 1e-12
    assert abs(out.array[2, 0] - 1 / SQ2) < 1e-12
    assert abs(out.array[0, 2] + 1 / SQ2) < 1e-12


def test_bs_preserves_norm_on_photon_conserving_states():
    rng = np.random.default_rng(31)
    reg = two_modes(cutoff=3)
    amps = {}
    for occ in np.ndindex(reg.dims):
        if sum(occ) <= 3:
            amps[occ] = complex(rng.normal(), rng.normal())
    psi = normalize(PureState(reg, amps))
    out = apply_pair_map(psi, "a", "b", bs_matrix(0.37))
    assert abs(norm(out) - 1.0) < 1e-12


# ------------------------------------------------------- wave plates, Jones


def pol_register(cutoff=1):
    return ModeRegister.uniform(["x_H", "x_V"], cutoff)


def test_hwp_jones_matrix_values():
    m = hwp_matrix(0.0)
    assert np.max(np.abs(m - np.diag([1.0, -1.0]))) < 1e-12
    m = hwp_matrix(math.pi / 8)
    assert np.max(np.abs(m - np.array([[1, 1], [1, -1]]) / SQ2)) < 1e-12
    m = hwp_matrix(math.pi / 4)
    assert np.max(np.abs(m - np.array([[0, 1], [1, 0]]))) < 1e-12


def test_hwp_on_single_photons():
    reg = pol_register()
    h = PureState(reg, {(1, 0): 1.0 + 0.0j})
    v = PureState(reg, {(0, 1): 1.0 + 0.0j})
    out = half_wave_plate(v, "x", 0.0)
    assert abs(out.array[0, 1] + 1.0) < 1e-12
    out = half_wave_plate(h, "x", math.pi / 8)
    assert abs(out.array[1, 0] - 1 / SQ2) < 1e-12
    assert abs(out.array[0, 1] - 1 / SQ2) < 1e-12


def test_hwp_squares_to_identity():
    # restricted to total photons <= cutoff, where the truncated lift is unitary
    rng = np.random.default_rng(37)
    reg = pol_register(cutoff=2)
    amps = {
        occ: complex(rng.normal(), rng.normal())
        for occ in np.ndindex(reg.dims)
        if sum(occ) <= 2
    }
    psi = normalize(PureState(reg, amps))
    theta = 0.21
    back = half_wave_plate(half_wave_plate(psi, "x", theta), "x", theta)
    assert np.max(np.abs(back.array - psi.array)) < 1e-12


def test_pair_map_drops_over_cutoff_components():
    # |1,2> under a mixing plate reaches |3,0>, which the cutoff-2 register
    # cannot hold: that weight is dropped and the norm shrinks
    reg = pol_register(cutoff=2)
    psi = PureState(reg, {(1, 2): 1.0 + 0.0j})
    out = half_wave_plate(psi, "x", 0.21)
    assert norm(out) < 1.0 - 1e-6
    assert out.array.shape == reg.dims


def test_wave_plates_require_polarization_pair():
    reg = ModeRegister.uniform(["x_H"], 1)
    psi = vacuum(reg)
    with pytest.raises(KeyError):
        half_wave_plate(psi, "x", 0.1)


# ------------------------------------------------------------------- PBS


def test_pbs_transmits_h_and_swaps_v():
    reg = ModeRegister.uniform(["p_H", "p_V", "q_H", "q_V"], 1)
    h_in_p = PureState(reg, {(1, 0, 0, 0): 1.0 + 0.0j})
    out = polarising_bs(h_in_p, "p", "q")
    assert abs(out.array[1, 0, 0, 0] - 1.0) < 1e-12
    v_in_p = PureState(reg, {(0, 1, 0, 0): 1.0 + 0.0j})
    out = polarising_bs(v_in_p, "p", "q")
    assert abs(out.array[0, 0, 0, 1] - 1.0) < 1e-12


def test_pbs_is_an_involution():
    rng = np.random.default_rng(41)
    reg = ModeRegister.uniform(["p_H", "p_V", "q_H", "q_V"], 1)
    amps = {occ: complex(rng.normal(), rng.normal()) for occ in np.ndindex(reg.dims)}
    psi = normalize(PureState(reg, amps))
    back = polarising_bs(polarising_bs(psi, "p", "q"), "p", "q")
    assert np.max(np.abs(back.array - psi.array)) < 1e-12


# ------------------------------------------------------------------ sources


def test_tms_exact_matches_geometric_series():
    gamma, cutoff = 0.3, 6
    reg = two_modes(cutoff=cutoff)
    out = two_mode_squeezer(vacuum(reg), "a", "b", gamma)
    scale = math.sqrt(1 - gamma**2)
    for n in range(cutoff + 1):
        assert abs(out.array[n, n] - scale * gamma**n) < 1e-12
    assert abs(norm(out) ** 2 - (1 - gamma ** (2 * (cutoff + 1)))) < 1e-12


def test_tms_requires_vacuum_in_target_modes():
    reg = two_modes(cutoff=2)
    psi = PureState(reg, {(1, 0): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        two_mode_squeezer(psi, "a", "b", 0.1)


def test_tms_acts_only_on_its_pair():
    reg = ModeRegister.uniform(["a", "b", "c"], 2)
    psi = PureState(reg, {(0, 0, 1): 1.0 + 0.0j})
    out = two_mode_squeezer(psi, "a", "b", 0.2)
    scale = math.sqrt(1 - 0.2**2)
    assert abs(out.array[0, 0, 1] - scale) < 1e-12
    assert abs(out.array[1, 1, 1] - 0.2 * scale) < 1e-12
    assert abs(out.array[2, 2, 1] - 0.04 * scale) < 1e-12
    assert np.count_nonzero(out.array) == 3


# ---------------------------------------------------------- coherent source


def test_coherent_state_poisson_amplitudes():
    alpha, cutoff = 0.6, 8
    st = coherent_state("c", alpha, cutoff)
    for n in range(cutoff + 1):
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(
            math.factorial(n)
        )
        assert abs(st.array[n] - expected) < 1e-12


def test_coherent_state_warns_on_heavy_truncation():
    with pytest.warns(UserWarning):
        coherent_state("c", 2.0, 2)


# ------------------------------------------------------------------- SPCM


def test_spcm_povm_is_complete():
    povm = spcm_povm(0.3, cutoff=4)
    assert np.max(np.abs(povm.click + povm.no_click - np.eye(5))) < 1e-12


def test_spcm_click_probabilities():
    eta_d = 0.25
    povm = spcm_povm(eta_d, cutoff=3)
    assert abs(povm.click[0, 0]) < 1e-15
    assert abs(povm.click[1, 1] - eta_d) < 1e-12
    assert abs(povm.click[2, 2] - (1 - (1 - eta_d) ** 2)) < 1e-12
    assert abs(click_probability(2, eta_d) - (1 - (1 - eta_d) ** 2)) < 1e-12


def test_click_probability_on_coherent_light():
    # Poisson light through a binomial detector: p = 1 - exp(-eta |alpha|^2)
    alpha, eta_d, cutoff = 0.9, 0.4, 14
    st = normalize(coherent_state("c", alpha, cutoff))
    rho = to_density(st)
    povm = spcm_povm(eta_d, cutoff)
    p = float(np.real(np.trace(povm.click @ rho.matrix)))
    assert abs(p - (1 - math.exp(-eta_d * abs(alpha) ** 2))) < 1e-6


# ---------------------------------------------------------- composite checks


def test_mach_zehnder_interference():
    # the pinned splitter squares to identity, so a balanced interferometer
    # with no phase returns the photon; a pi phase swaps the output port
    reg = two_modes()
    psi = single_photon(reg, "a")
    bs = bs_matrix(0.5)
    out = apply_pair_map(apply_pair_map(psi, "a", "b", bs), "a", "b", bs)
    assert abs(abs(out.array[1, 0]) - 1.0) < 1e-12
    pi_on_b = np.diag([1.0, np.exp(1j * math.pi)])
    mid = apply_pair_map(apply_pair_map(psi, "a", "b", bs), "a", "b", pi_on_b)
    out = apply_pair_map(mid, "a", "b", bs)
    assert abs(abs(out.array[0, 1]) - 1.0) < 1e-12
    assert abs(out.array[1, 0]) < 1e-12


def test_hwp_then_pbs_routes_diagonal_photon():
    reg = ModeRegister.uniform(["p_H", "p_V", "q_H", "q_V"], 1)
    h = PureState(reg, {(1, 0, 0, 0): 1.0 + 0.0j})
    rotated = half_wave_plate(h, "p", math.pi / 8)
    out = polarising_bs(rotated, "p", "q")
    assert abs(out.array[1, 0, 0, 0] - 1 / SQ2) < 1e-12
    assert abs(out.array[0, 0, 0, 1] - 1 / SQ2) < 1e-12
