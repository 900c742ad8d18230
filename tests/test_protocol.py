"""Source construction, Bell projection, teleportation and swap conditioning."""

import math

import numpy as np
import pytest

from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    NullOutcomeError,
    PureState,
    normalize,
    tensor,
    to_density,
)
from railbridge.protocol import (
    INPUT_STATES,
    QubitSpec,
    SourceParams,
    TripleBudget,
    bell_project_ideal,
    build_bell_pair,
    build_resource_omega,
    click_pattern_distribution,
    ideal_swap_target_qubit,
    ideal_teleport_target,
    predetection_state,
    simulated_triple_breakdown,
    swap_entanglement,
    swap_qubit_sector,
    teleport,
    triple_budget,
    triple_sector_probabilities,
)

from oracles import (
    bell_project_physical,
    condition_on_clicks,
    embed_operator,
    partial_trace,
    qubit_of,
    spcm_povm,
    teleport_fidelity,
)

SQ2 = math.sqrt(2.0)

PERT = SourceParams(order="pert")
EXACT = SourceParams(order="exact")


def qubit_state(chi, cutoff=2):
    reg = ModeRegister.uniform(["A_H", "A_V"], cutoff)
    return PureState(reg, {(1, 0): complex(chi.a), (0, 1): complex(chi.b)})


def random_qubit(rng):
    v = rng.normal(size=4)
    return qubit_of(complex(v[0], v[1]), complex(v[2], v[3]))


def orthogonal(q):
    return QubitSpec(-q.b.conjugate(), q.a.conjugate())


def bloch(q):
    a, b = q.a, q.b
    return (
        2.0 * (a.conjugate() * b).real,
        2.0 * (a.conjugate() * b).imag,
        abs(a) ** 2 - abs(b) ** 2,
    )


def ideal_swap_target(params, cutoff=2):
    """Target of the swap: gamma1|H>_D|1>_B + alpha|V>_D|0>_B, normalized."""
    reg = ModeRegister.uniform(["D_H", "D_V", "B"], cutoff)
    amps = {
        (1, 0, 1): params.gamma1_amp,
        (0, 1, 0): params.alpha_amp,
    }
    return normalize(PureState(reg, amps))


# ------------------------------------------------------------------- types


def test_qubit_spec_normalization_guard():
    with pytest.raises(ValueError):
        QubitSpec(1.0, 1.0)
    q = qubit_of(1.0, 1.0)
    assert abs(abs(q.a) ** 2 + abs(q.b) ** 2 - 1.0) < 1e-12


def test_qubit_orthogonal_is_orthogonal():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = random_qubit(rng)
        o = orthogonal(q)
        assert abs(q.a.conjugate() * o.a + q.b.conjugate() * o.b) < 1e-12


def test_source_params_defaults_and_guards():
    p = SourceParams()
    assert p.alpha_value == p.gamma1 == 0.20
    assert p.gamma23 == 0.054
    with pytest.raises(ValueError):
        SourceParams(gamma1=1.5)
    with pytest.raises(ValueError):
        SourceParams(order="cubic")


# ----------------------------------------------------------------- sources


def test_resource_omega_pert_amplitudes():
    st = build_resource_omega(PERT)
    n = math.sqrt(1.0 + 0.2**2 + 0.2**2)
    assert abs(st.array[0, 0, 0] - 1.0 / n) < 1e-12
    assert abs(st.array[1, 0, 1] - 0.2 / n) < 1e-12
    assert abs(st.array[0, 1, 0] - 0.2 / n) < 1e-12
    assert np.count_nonzero(st.array) == 3


def test_resource_omega_zero_sources_is_vacuum():
    st = build_resource_omega(SourceParams(gamma1=0.0, alpha=0.0, order="pert"))
    assert st.array[0, 0, 0] == 1.0
    assert np.count_nonzero(st.array) == 1


def test_resource_omega_exact_cross_term():
    # both sources firing once: amplitude ratio to vacuum is alpha*gamma1,
    # checked against an independent tensor expansion of the two sources
    st = build_resource_omega(EXACT)
    ratio = st.array[1, 1, 1] / st.array[0, 0, 0]
    assert abs(ratio - 0.2 * 0.2) < 1e-12
    pair = math.sqrt(1 - 0.04) * 0.2  # squeezer ladder n=1
    drive = math.exp(-0.02) * 0.2  # Poisson n=1
    expected = pair * drive
    direct = st.array[1, 1, 1]
    vac = math.sqrt(1 - 0.04) * math.exp(-0.02)
    assert abs(direct / st.array[0, 0, 0] - expected / vac) < 1e-12


def test_bell_pair_pert_is_symmetric():
    st = build_bell_pair(PERT)
    assert abs(st.array[1, 0, 0, 1] - st.array[0, 1, 1, 0]) < 1e-12
    assert abs(st.array[1, 0, 0, 1] / st.array[0, 0, 0, 0] - 0.054) < 1e-12


def test_bell_pair_zero_amplitude_is_vacuum():
    st = build_bell_pair(SourceParams(gamma23=0.0, order="pert"))
    assert st.array[0, 0, 0, 0] == 1.0
    assert np.count_nonzero(st.array) == 1


def test_bell_pair_exact_contains_double_pairs():
    st = build_bell_pair(EXACT)
    g = 0.054
    assert abs(st.array[1, 1, 1, 1] / st.array[0, 0, 0, 0] - g * g) < 1e-12
    assert abs(st.array[2, 0, 0, 2] / st.array[0, 0, 0, 0] - g * g) < 1e-12


# --------------------------------------------------------- ideal projection


def bell_input(amps, cutoff=2, extra=("B",)):
    labels = ["A_H", "A_V", "C_H", "C_V", *extra]
    reg = ModeRegister.uniform(labels, cutoff)
    pad = (0,) * len(extra)
    return normalize(PureState(reg, {occ + pad: a for occ, a in amps.items()}))


def test_ideal_projection_on_hv_product():
    st = bell_input({(1, 0, 0, 1): 1.0 + 0.0j})
    _, p = bell_project_ideal(st)
    assert abs(p - 0.5) < 1e-12


def test_ideal_projection_rejects_phi_states():
    phi_plus = bell_input({(1, 0, 1, 0): 1 / SQ2 + 0.0j, (0, 1, 0, 1): 1 / SQ2 + 0.0j})
    with pytest.raises(NullOutcomeError):
        bell_project_ideal(phi_plus)


def test_ideal_projection_accepts_psi_plus_fully():
    psi_plus = bell_input({(1, 0, 0, 1): 1 / SQ2 + 0.0j, (0, 1, 1, 0): 1 / SQ2 + 0.0j})
    _, p = bell_project_ideal(psi_plus)
    assert abs(p - 1.0) < 1e-12


# ------------------------------------------------------ physical projection


def test_physical_circuit_matches_ideal_projector_at_pert_order():
    rng = np.random.default_rng(5)
    eta_d = 0.3
    for _ in range(8):
        chi = random_qubit(rng)
        joint = tensor(qubit_state(chi), build_resource_omega(PERT))
        ideal, p_ideal = bell_project_ideal(joint)
        rho, p_phys = bell_project_physical(joint, eta_d, keep=("B",))
        v = ideal.dense()
        fid = float(np.real(v.conj() @ rho.matrix @ v))
        assert fid > 1.0 - 1e-6
        # polariser pair passes the coincidence with probability 1/2, and
        # each counter sees exactly one photon
        assert p_phys == pytest.approx(0.5 * eta_d**2 * p_ideal, rel=1e-9)


def test_physical_circuit_ignores_phi_states():
    phi_minus = bell_input(
        {(1, 0, 1, 0): 1 / SQ2 + 0.0j, (0, 1, 0, 1): -1 / SQ2 + 0.0j}
    )
    with pytest.raises(NullOutcomeError):
        bell_project_physical(phi_minus, 0.5, keep=("B",))


def test_condition_on_clicks_matches_dense_povm_route():
    # independent oracle: diagonal click POVMs embedded densely, then a
    # partial trace of E@rho over everything but the kept mode
    rng = np.random.default_rng(11)
    reg = ModeRegister.uniform(["x", "y", "z"], 2)
    amps = {occ: complex(rng.normal(), rng.normal()) for occ in np.ndindex(reg.dims)}
    state = normalize(PureState(reg, amps))
    eta_d = 0.41
    rho_cond, p = condition_on_clicks(state, ["x", "y"], eta_d, keep=("z",))
    povm = spcm_povm(eta_d, 2)
    E = embed_operator(povm.click, reg, ["x"]) @ embed_operator(
        povm.click, reg, ["y"]
    )
    weighted = E @ to_density(state).matrix
    traced = partial_trace(DensityMatrix(reg, weighted), ["z"])
    p_dense = float(np.real(np.trace(traced.matrix)))
    assert p == pytest.approx(p_dense, rel=1e-12)
    assert np.max(np.abs(rho_cond.matrix * p - traced.matrix)) < 1e-12


# ------------------------------------------------------------ teleportation


def test_teleport_pert_reproduces_targets_for_six_inputs():
    for name, chi in INPUT_STATES.items():
        rho, p = teleport(chi, PERT)
        target = ideal_teleport_target(chi, PERT).dense()
        fid = float(np.real(target.conj() @ rho.matrix @ target))
        assert fid > 1.0 - 1e-9, name
        assert p > 0.0


def test_teleport_pert_success_probability_formula():
    g, g23 = 0.2, 0.054
    for chi in INPUT_STATES.values():
        _, p = teleport(chi, PERT)
        herald = g23**2 / (1 + 2 * g23**2)
        vals = (abs(chi.a) ** 2 * g**2 + abs(chi.b) ** 2 * g**2) / (
            2 * (1 + 2 * g**2)
        )
        assert p == pytest.approx(herald * vals, rel=1e-9)


def test_teleport_pert_survives_a_weak_herald_source():
    # p ~ 1e-18 here: the route must not treat it as a null outcome
    g, g23 = 0.2, 1e-8
    params = SourceParams(gamma23=g23, order="pert")
    for name, chi in INPUT_STATES.items():
        fid, p = teleport_fidelity(chi, params)
        assert fid > 1.0 - 1e-9, name
        herald = g23**2 / (1 + 2 * g23**2)
        assert p == pytest.approx(herald * g**2 / (2 * (1 + 2 * g**2)), rel=1e-9)


@pytest.mark.parametrize("order", ["pert", "exact"])
def test_teleport_without_herald_pairs_is_null(order):
    # no A/D pair: the herald counter never fires at either order
    with pytest.raises(NullOutcomeError):
        teleport(INPUT_STATES["D"], SourceParams(gamma23=0.0, order=order))


def test_teleport_pert_probability_independent_of_input():
    probs = [teleport(chi, PERT)[1] for chi in INPUT_STATES.values()]
    assert max(probs) - min(probs) < 1e-12 * max(probs)


def test_teleport_pert_carries_the_phase_difference():
    params = SourceParams(order="pert", phi_gamma1=0.7, phi_alpha=0.2)
    chi = INPUT_STATES["D"]
    rho, _ = teleport(chi, params)
    # off-diagonal element carries exp(-i (phi_gamma1 - phi_alpha))
    phase = np.angle(rho.matrix[1, 0])
    assert abs(phase - (-(0.7 - 0.2))) < 1e-9
    fid, _ = teleport_fidelity(chi, params)
    assert fid > 1.0 - 1e-9


def test_teleport_pert_orthogonal_inputs_stay_orthogonal():
    rng = np.random.default_rng(17)
    for _ in range(5):
        chi = random_qubit(rng)
        rho1, _ = teleport(chi, PERT)
        rho2, _ = teleport(orthogonal(chi), PERT)
        overlap = float(np.real(np.trace(rho1.matrix @ rho2.matrix)))
        assert overlap < 1e-6


def test_teleport_pert_bloch_map_is_identity():
    for chi in INPUT_STATES.values():
        rho, _ = teleport(chi, PERT)
        m = rho.matrix
        x = 2.0 * np.real(m[1, 0])
        y = 2.0 * np.imag(m[1, 0])
        z = np.real(m[0, 0] - m[1, 1])
        bx, by, bz = bloch(chi)
        assert abs(x - bx) < 1e-9 and abs(y - by) < 1e-9 and abs(z - bz) < 1e-9


def test_teleport_exact_fidelity_window():
    f_h, _ = teleport_fidelity(INPUT_STATES["H"], EXACT)
    f_d, _ = teleport_fidelity(INPUT_STATES["D"], EXACT)
    assert 0.90 < f_h < 1.0
    assert 0.80 < f_d < f_h


def test_teleport_exact_probability_scale():
    # physical projector passes half of the rank-1 rate; with the herald
    # counter the triple probability sits near eta_d^3 * g23^2 * g1^2 / 4
    _, p = teleport(INPUT_STATES["H"], EXACT)
    crude = EXACT.eta_d**3 * 0.054**2 * 0.2**2 / 4.0
    assert 0.5 * crude < p < 1.5 * crude


# ------------------------------------------------------------ triple budget


def test_triple_budget_frozen_arithmetic():
    b = triple_budget(SourceParams())
    e3 = 0.03**3
    assert b.p_good == pytest.approx(e3 * 0.04 * 0.002916, rel=1e-12)
    assert b.p_bad_a == pytest.approx(2 * e3 * 0.002916**2, rel=1e-12)
    assert b.p_bad_c == pytest.approx(2 * e3 * 0.0016 * 0.002916, rel=1e-12)
    assert b.fraction_bad == pytest.approx(0.184207, abs=1e-5)


def test_triple_budget_design_rule():
    p = SourceParams(gamma1=0.2, gamma23=0.04)
    b = triple_budget(p)
    assert b.p_bad_a / b.p_good == pytest.approx(2 * 0.2**2, rel=1e-12)


def test_triple_budget_fraction_ignores_detector_efficiency():
    f1 = triple_budget(SourceParams(eta_d=0.03)).fraction_bad
    f2 = triple_budget(SourceParams(eta_d=0.7)).fraction_bad
    assert f1 == pytest.approx(f2, rel=1e-12)


def test_simulated_sectors_sum_to_triple_probability():
    chi = INPUT_STATES["V"]
    sectors = triple_sector_probabilities(chi, EXACT)
    total = sum(sectors.values())
    _, p = teleport(chi, EXACT)
    assert total == pytest.approx(p, rel=1e-9)
    dist = click_pattern_distribution(chi, EXACT)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist[(1, 1, 1)] == pytest.approx(p, rel=1e-12)


def test_simulated_breakdown_brackets_the_scaling_estimate():
    fractions = []
    for chi in INPUT_STATES.values():
        b = simulated_triple_breakdown(chi, EXACT)
        assert 0.05 < b.fraction_bad < 0.30
        fractions.append(b.fraction_bad)
    mean = sum(fractions) / len(fractions)
    assert 0.12 < mean < 0.24


def test_simulated_good_rate_tracks_quarter_of_scaling():
    # ideal projector keeps 1/2, the polariser pair another 1/2, of the
    # scaling estimate eta_d^3 g1^2 g23^2 (up to source normalizations)
    b_sim = simulated_triple_breakdown(INPUT_STATES["H"], EXACT)
    b_est = triple_budget(EXACT)
    assert 0.15 < b_sim.p_good / b_est.p_good < 0.35


# -------------------------------------------------------------------- swap


def test_swap_pert_hits_the_entangled_target():
    rho, p = swap_entanglement(PERT)
    target = ideal_swap_target(PERT).dense()
    fid = float(np.real(target.conj() @ rho.matrix @ target))
    assert fid > 1.0 - 1e-9
    assert p > 0.0
    # equal amplitudes: both D outcomes equally likely
    dd = partial_trace(rho, ["D_H", "D_V"])
    pops = np.real(np.diagonal(dd.matrix)).reshape(dd.register.dims)
    assert pops[1, 0] == pytest.approx(0.5, abs=1e-9)
    assert pops[0, 1] == pytest.approx(0.5, abs=1e-9)


def test_swap_exact_qubit_sector_stays_close_to_target():
    # the D analyser only reports the single-photon sector; there the
    # remaining impostors are down by ~|gamma1|^2
    rho, p = swap_entanglement(EXACT)
    sector, weight = swap_qubit_sector(rho)
    target = ideal_swap_target_qubit(EXACT).dense()
    fid = float(np.real(target.conj() @ sector.matrix @ target))
    assert 0.85 < fid < 1.0
    assert 0.0 < weight < 1.0
    assert p > 0.0


def test_swap_exact_bare_coincidences_have_a_floor():
    # without reading D, double emissions of the C-side sources fake the
    # two-click signature, so the bare rate does not scale as gamma23^2
    base = swap_entanglement(EXACT)[1]
    weak = swap_entanglement(SourceParams(gamma23=0.0054))[1]
    assert weak > base / 20.0


def test_swap_heralded_rate_scales_with_gamma23():
    def sector_rate(params):
        rho, p = swap_entanglement(params)
        _, weight = swap_qubit_sector(rho)
        return p * weight

    base = sector_rate(EXACT)
    weak = sector_rate(SourceParams(gamma23=0.0054))
    assert base / weak == pytest.approx(100.0, rel=0.05)


def test_swap_probability_vanishes_with_gamma23_at_pert_order():
    base = swap_entanglement(PERT)[1]
    weak = swap_entanglement(SourceParams(gamma23=0.0054, order="pert"))[1]
    assert base / weak == pytest.approx(100.0, rel=0.02)


def test_exact_order_rejects_cutoff_below_two():
    # cutoff 1 cannot hold the double-pair impostors; exact order must refuse
    # it rather than report their absence as perfect fidelity
    chi = INPUT_STATES["D"]
    with pytest.raises(ValueError, match="cutoff >= 2"):
        teleport(chi, EXACT, cutoff=1)
    with pytest.raises(ValueError, match="cutoff >= 2"):
        swap_entanglement(EXACT, cutoff=1)
    with pytest.raises(ValueError, match="cutoff >= 2"):
        predetection_state(chi, EXACT, cutoff=1)
    # the perturbative order has no double pairs to lose
    rho, p = teleport(chi, PERT, cutoff=1)
    assert p > 0.0 and rho.register.cutoffs == (1,)
