"""Optical elements on the sparse Fock representation."""

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
    beam_splitter,
    click_probability,
    coherent_state,
    half_wave_plate,
    hwp_matrix,
    phase_shift,
    polariser,
    polarising_bs,
    quarter_wave_plate,
    qwp_matrix,
    spcm_povm,
    two_mode_squeezer,
)

SQ2 = math.sqrt(2.0)


def two_modes(cutoff=2, labels=("a", "b")):
    return ModeRegister.uniform(list(labels), cutoff)


def single_photon(reg, mode):
    occ = [0] * reg.n_modes
    occ[reg.index(mode)] = 1
    return PureState(reg, {tuple(occ): 1.0 + 0.0j})


# ------------------------------------------------------------ beam splitter


def test_bs_full_transmission_is_identity_up_to_sign():
    # the pinned map sends b to -b at t=1, so identity holds modulo (-1)^n_b
    reg = two_modes()
    out = beam_splitter(PureState(reg, {(2, 0): 1.0 + 0.0j}), "a", "b", 1.0)
    assert abs(out.amplitude((2, 0)) - 1.0) < 1e-12
    assert len(out.amps) == 1
    out = beam_splitter(PureState(reg, {(2, 1): 1.0 + 0.0j}), "a", "b", 1.0)
    assert abs(out.amplitude((2, 1)) + 1.0) < 1e-12


def test_bs_splits_single_photon_with_pinned_signs():
    reg = two_modes()
    t = 0.7
    out_a = beam_splitter(single_photon(reg, "a"), "a", "b", t)
    assert abs(out_a.amplitude((1, 0)) - math.sqrt(t)) < 1e-12
    assert abs(out_a.amplitude((0, 1)) - math.sqrt(1 - t)) < 1e-12
    out_b = beam_splitter(single_photon(reg, "b"), "a", "b", t)
    assert abs(out_b.amplitude((1, 0)) - math.sqrt(1 - t)) < 1e-12
    assert abs(out_b.amplitude((0, 1)) + math.sqrt(t)) < 1e-12


def test_bs_hong_ou_mandel_dip():
    reg = two_modes()
    psi = PureState(reg, {(1, 1): 1.0 + 0.0j})
    out = beam_splitter(psi, "a", "b", 0.5)
    assert abs(out.amplitude((1, 1))) < 1e-12
    assert abs(out.amplitude((2, 0)) - 1 / SQ2) < 1e-12
    assert abs(out.amplitude((0, 2)) + 1 / SQ2) < 1e-12


def test_bs_preserves_norm_on_photon_conserving_states():
    rng = np.random.default_rng(31)
    reg = two_modes(cutoff=3)
    amps = {}
    for occ in reg.basis():
        if sum(occ) <= 3:
            amps[occ] = complex(rng.normal(), rng.normal())
    psi = normalize(PureState(reg, amps))
    out = beam_splitter(psi, "a", "b", 0.37)
    assert abs(norm(out) - 1.0) < 1e-12


def test_bs_rejects_bad_transmission():
    reg = two_modes()
    with pytest.raises(ValueError):
        beam_splitter(single_photon(reg, "a"), "a", "b", 1.5)


# ------------------------------------------------------------- phase shift


def test_phase_shift_multiplies_by_photon_number():
    reg = two_modes()
    psi = PureState(reg, {(2, 1): 1.0 + 0.0j})
    out = phase_shift(psi, "a", 0.3)
    assert abs(out.amplitude((2, 1)) - np.exp(2j * 0.3)) < 1e-12


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
    assert abs(out.amplitude((0, 1)) + 1.0) < 1e-12
    out = half_wave_plate(h, "x", math.pi / 8)
    assert abs(out.amplitude((1, 0)) - 1 / SQ2) < 1e-12
    assert abs(out.amplitude((0, 1)) - 1 / SQ2) < 1e-12


def test_hwp_squares_to_identity():
    # restricted to total photons <= cutoff, where the truncated lift is unitary
    rng = np.random.default_rng(37)
    reg = pol_register(cutoff=2)
    amps = {
        occ: complex(rng.normal(), rng.normal())
        for occ in reg.basis()
        if sum(occ) <= 2
    }
    psi = normalize(PureState(reg, amps))
    theta = 0.21
    back = half_wave_plate(half_wave_plate(psi, "x", theta), "x", theta)
    for occ, amp in psi.amps.items():
        assert abs(back.amplitude(occ) - amp) < 1e-12


def test_pair_map_drops_over_cutoff_components():
    # |1,2> under a mixing plate reaches |3,0>, which the cutoff-2 register
    # cannot hold: that weight is dropped and the norm shrinks
    reg = pol_register(cutoff=2)
    psi = PureState(reg, {(1, 2): 1.0 + 0.0j})
    out = half_wave_plate(psi, "x", 0.21)
    assert norm(out) < 1.0 - 1e-6
    for occ in out.amps:
        assert occ[0] <= 2 and occ[1] <= 2


def test_qwp_makes_circular_from_horizontal():
    # target (|H> + i|V>)/sqrt(2), compared up to global phase via overlap
    reg = pol_register()
    h = PureState(reg, {(1, 0): 1.0 + 0.0j})
    out = normalize(quarter_wave_plate(h, "x", math.pi / 4))
    target = np.zeros(reg.dim, dtype=complex)
    target[reg.basis_index((1, 0))] = 1 / SQ2
    target[reg.basis_index((0, 1))] = 1j / SQ2
    assert abs(abs(target.conj() @ out.dense()) - 1.0) < 1e-12


def test_qwp_matrix_is_unitary_with_quarter_phase():
    for theta in (0.0, 0.3, math.pi / 4):
        m = qwp_matrix(theta)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12
    # at theta=0 the fast axis is horizontal: H picks up i relative to V
    m = qwp_matrix(0.0)
    assert np.max(np.abs(m - np.diag([1j, 1.0]))) < 1e-12


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
    assert abs(out.amplitude((1, 0, 0, 0)) - 1.0) < 1e-12
    v_in_p = PureState(reg, {(0, 1, 0, 0): 1.0 + 0.0j})
    out = polarising_bs(v_in_p, "p", "q")
    assert abs(out.amplitude((0, 0, 0, 1)) - 1.0) < 1e-12


def test_pbs_is_an_involution():
    rng = np.random.default_rng(41)
    reg = ModeRegister.uniform(["p_H", "p_V", "q_H", "q_V"], 1)
    amps = {occ: complex(rng.normal(), rng.normal()) for occ in reg.basis()}
    psi = normalize(PureState(reg, amps))
    back = polarising_bs(polarising_bs(psi, "p", "q"), "p", "q")
    for occ, amp in psi.amps.items():
        assert abs(back.amplitude(occ) - amp) < 1e-12


# --------------------------------------------------------------- polariser


def test_polariser_at_45_on_h_photon():
    reg = pol_register()
    h = PureState(reg, {(1, 0): 1.0 + 0.0j})
    out, p = polariser(h, "x", math.pi / 4)
    assert abs(p - 0.5) < 1e-12
    # surviving photon sits in the polariser axis, stored as the H mode
    assert abs(abs(out.amplitude((1, 0))) - 1.0) < 1e-12
    assert abs(out.amplitude((0, 1))) < 1e-15


def test_polariser_aligned_and_crossed():
    reg = pol_register()
    h = PureState(reg, {(1, 0): 1.0 + 0.0j})
    _, p_pass = polariser(h, "x", 0.0)
    assert abs(p_pass - 1.0) < 1e-12
    # crossed polariser keeps only the vacuum component: none here
    out, p_block = polariser(h, "x", math.pi / 2)
    assert p_block < 1e-24
    assert out.amps == {}


def test_polariser_two_photon_attenuation():
    # two H photons through a 45 degree polariser: both must pass, p = 1/4
    reg = pol_register(cutoff=2)
    hh = PureState(reg, {(2, 0): 1.0 + 0.0j})
    _, p = polariser(hh, "x", math.pi / 4)
    assert abs(p - 0.25) < 1e-12


# ------------------------------------------------------------------ sources


def test_tms_exact_matches_geometric_series():
    gamma, cutoff = 0.3, 6
    reg = two_modes(cutoff=cutoff)
    out = two_mode_squeezer(vacuum(reg), "a", "b", gamma)
    scale = math.sqrt(1 - gamma**2)
    for n in range(cutoff + 1):
        assert abs(out.amplitude((n, n)) - scale * gamma**n) < 1e-12
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
    assert abs(out.amplitude((0, 0, 1)) - scale) < 1e-12
    assert abs(out.amplitude((1, 1, 1)) - 0.2 * scale) < 1e-12
    assert abs(out.amplitude((2, 2, 1)) - 0.04 * scale) < 1e-12
    assert len(out.amps) == 3


# ---------------------------------------------------------- coherent source


def test_coherent_state_poisson_amplitudes():
    alpha, cutoff = 0.6, 8
    st = coherent_state("c", alpha, cutoff)
    for n in range(cutoff + 1):
        expected = math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(
            math.factorial(n)
        )
        assert abs(st.amps[(n,)] - expected) < 1e-12


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
    out = beam_splitter(beam_splitter(psi, "a", "b", 0.5), "a", "b", 0.5)
    assert abs(abs(out.amplitude((1, 0))) - 1.0) < 1e-12
    mid = phase_shift(beam_splitter(psi, "a", "b", 0.5), "b", math.pi)
    out = beam_splitter(mid, "a", "b", 0.5)
    assert abs(abs(out.amplitude((0, 1))) - 1.0) < 1e-12
    assert abs(out.amplitude((1, 0))) < 1e-12


def test_hwp_then_pbs_routes_diagonal_photon():
    reg = ModeRegister.uniform(["p_H", "p_V", "q_H", "q_V"], 1)
    h = PureState(reg, {(1, 0, 0, 0): 1.0 + 0.0j})
    rotated = half_wave_plate(h, "p", math.pi / 8)
    out = polarising_bs(rotated, "p", "q")
    assert abs(out.amplitude((1, 0, 0, 0)) - 1 / SQ2) < 1e-12
    assert abs(out.amplitude((0, 0, 0, 1)) - 1 / SQ2) < 1e-12
