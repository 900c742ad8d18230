"""Rate calibration arithmetic, the efficiency budget and the MC click check."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from railbridge.protocol import INPUT_STATES, SourceParams
from railbridge.rates import (
    MEASURED_TRIPLE_RATE_ERR_HZ,
    MEASURED_TRIPLE_RATE_HZ,
    EfficiencyBudget,
    RateModel,
    calibration_report,
    circuit_consistency,
    estimate_eta_d,
    estimate_gamma,
    predict_triple_rate,
    simulate_triple_rate,
)

from oracles import counter_marginal, predetection_state


def rate_for_gamma(
    gamma: complex, R_L: float, eta_d: float, loss_factor: float = 4.0
) -> float:
    """Singles rate a source of amplitude gamma produces; inverts
    `estimate_gamma` exactly."""
    if R_L <= 0.0 or eta_d <= 0.0:
        raise ValueError(f"R_L={R_L} and eta_d={eta_d} must both be > 0")
    if loss_factor <= 0.0:
        raise ValueError(f"loss_factor={loss_factor} must be > 0")
    return abs(gamma) ** 2 * R_L * eta_d / loss_factor


def test_estimate_eta_d_examples():
    assert abs(estimate_eta_d(51.0, 1700.0) - 0.030) < 1e-12
    assert estimate_eta_d(1700.0, 1700.0) == 1.0
    # linear in the numerator
    assert abs(estimate_eta_d(25.5, 1700.0) - 0.015) < 1e-12
    with pytest.raises(ValueError):
        estimate_eta_d(51.0, 0.0)
    with pytest.raises(ValueError):
        estimate_eta_d(-1.0, 1700.0)


def test_estimate_gamma_bench_values():
    g1 = estimate_gamma(22e3, 76e6, 0.03)
    g23 = estimate_gamma(1.7e3, 76e6, 0.03)
    assert abs(g1 - math.sqrt(4 * 22e3 / (76e6 * 0.03))) < 1e-15
    assert abs(g1 - 0.20) < 0.005
    assert abs(g23 - 0.054) < 0.001
    # without the analyser correction the same rate undershoots badly
    bare = estimate_gamma(22e3, 76e6, 0.03, loss_factor=1.0)
    assert abs(bare - 0.098) < 0.001
    assert abs(bare - g1 / 2.0) < 1e-15


def test_estimate_gamma_errors():
    with pytest.raises(ValueError):
        estimate_gamma(-1.0, 76e6, 0.03)
    with pytest.raises(ValueError):
        estimate_gamma(22e3, 0.0, 0.03)
    with pytest.raises(ValueError):
        estimate_gamma(22e3, 76e6, 0.0)
    with pytest.raises(ValueError):
        estimate_gamma(22e3, 76e6, 0.03, loss_factor=0.0)


def test_estimate_gamma_homogeneity():
    base = estimate_gamma(1.7e3, 76e6, 0.03)
    for k in (0.25, 2.0, 9.0, 1e4):
        scaled = estimate_gamma(k * 1.7e3, 76e6, 0.03)
        assert abs(scaled - math.sqrt(k) * base) <= 1e-12 * scaled


def test_gamma_rate_round_trip():
    for g in (0.054, 0.20, 0.8, 0.2 * np.exp(0.7j)):
        r = rate_for_gamma(g, 76e6, 0.03)
        back = estimate_gamma(r, 76e6, 0.03)
        assert abs(back - abs(g)) < 1e-12


def test_rate_model_invariants():
    model = RateModel()
    assert abs(model.eta_d - 0.03) < 1e-12
    with pytest.raises(ValueError):
        RateModel(R_gamma1=-1.0)
    with pytest.raises(ValueError):
        RateModel(R_cc=1800.0)  # coincidences above singles
    with pytest.raises(ValueError):
        RateModel(projector_loss_factor=0.0)


def test_predict_triple_rate_bench():
    model = RateModel()
    g1 = estimate_gamma(model.R_gamma1, model.R_L, model.eta_d)
    g23 = estimate_gamma(model.R_gamma23, model.R_L, model.eta_d)
    r = predict_triple_rate(model, (g1, g23))
    assert abs(r - 0.12) < 0.01
    expected = 76e6 * 0.5 * 0.03**3 * g1**2 * g23**2
    assert abs(r - expected) < 1e-12
    # the bench reference it is quoted against
    assert MEASURED_TRIPLE_RATE_HZ == 0.16
    assert MEASURED_TRIPLE_RATE_ERR_HZ == 0.03
    assert abs(r - MEASURED_TRIPLE_RATE_HZ) < 2 * MEASURED_TRIPLE_RATE_ERR_HZ


def test_predict_triple_rate_no_detection():
    model = RateModel(R_cc=0.0)
    assert model.eta_d == 0.0
    assert predict_triple_rate(model, (0.2, 0.054)) == 0.0


def test_efficiency_budget_bench_values():
    b = EfficiencyBudget(0.80, 0.81, 0.86, 0.50, 0.025)
    assert abs(b.product - 0.80 * 0.81 * 0.86) < 1e-15
    assert abs(b.product - 0.557) < 1e-3
    assert EfficiencyBudget(1.0, 1.0, 1.0, 1.0, 0.0).product == 1.0


def test_efficiency_budget_validation():
    with pytest.raises(ValueError):
        EfficiencyBudget(1.2, 0.8, 0.8, 0.5, 0.025)
    with pytest.raises(ValueError):
        EfficiencyBudget(0.8, 0.8, 0.8, 0.5, -0.01)


def test_circuit_consistency_at_bench_params():
    check = circuit_consistency(SourceParams())
    assert set(check["per_input"]) == set(INPUT_STATES)
    ratio = check["circuit_to_formula_ratio"]
    # the analyser pair passes the resonant combination with prob 1/2;
    # impostor pairs push the honest number a bit above that
    assert 0.55 < ratio < 0.58
    assert check["circuit_probability"] < check["formula_probability"]
    for p in check["per_input"].values():
        assert 0.0 < p < check["formula_probability"]


def test_monte_carlo_matches_click_arithmetic():
    # boosted amplitudes so triples are common enough to count
    params = SourceParams(gamma1=0.5, gamma23=0.4, eta_d=0.7)
    for seed, chi in ((1, "D"), (2, "H"), (3, "L")):
        sim = simulate_triple_rate(INPUT_STATES[chi], params, 200_000, seed=seed)
        assert sim.consistent(3.0)
        assert 0.0 < sim.p_mc < 1.0
        assert sim.n_triples > 100


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        simulate_triple_rate(INPUT_STATES["D"], SourceParams(), 0)
    for bad in (2.5, True, 1e5):
        with pytest.raises(ValueError, match=re.escape(f"n_pulses={bad!r}")):
            simulate_triple_rate(INPUT_STATES["D"], SourceParams(), bad)


def _counter_keys_and_probs(chi, params, cutoff=2):
    marginal = counter_marginal(predetection_state(chi, params, cutoff=cutoff))
    keys = np.indices(marginal.shape).reshape(marginal.ndim, -1).T
    return keys, marginal.ravel() / marginal.sum()


def _per_pulse_triples(chi, params, n_pulses, seed):
    """Reference route: one categorical draw and one thinning per pulse."""
    keys, probs = _counter_keys_and_probs(chi, params)
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(keys), size=n_pulses, p=probs)
    detected = rng.binomial(keys[draws], params.eta_d)
    return int(np.sum(np.all(detected >= 1, axis=1)))


def test_monte_carlo_counts_first_matches_per_pulse_route():
    params = SourceParams(gamma1=0.5, gamma23=0.4, eta_d=0.7)
    chi, n = INPUT_STATES["D"], 20_000
    z_fast, z_ref = [], []
    for seed in range(200):
        sim = simulate_triple_rate(chi, params, n, seed=seed)
        ref = _per_pulse_triples(chi, params, n, seed)
        z_fast.append((sim.p_mc - sim.p_analytic) / sim.std_error)
        z_ref.append((ref / n - sim.p_analytic) / sim.std_error)
    for z in (z_fast, z_ref):
        assert abs(np.mean(z)) < 0.25
        assert 0.8 <= np.std(z, ddof=1) <= 1.2


def test_monte_carlo_thinning_only_removes_triples():
    params = SourceParams(gamma1=0.5, gamma23=0.4)
    chi, n, seed = INPUT_STATES["H"], 50_000, 11
    lossy = simulate_triple_rate(chi, replace(params, eta_d=0.5), n, seed=seed)
    clean = simulate_triple_rate(chi, replace(params, eta_d=1.0), n, seed=seed)
    assert 0 < lossy.n_triples <= clean.n_triples
    # with unit efficiency every pulse that puts a photon in each counter scores
    keys, probs = _counter_keys_and_probs(chi, params)
    counts = np.random.default_rng(seed).multinomial(n, probs)
    assert clean.n_triples == int(counts[np.all(keys >= 1, axis=1)].sum())


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_monte_carlo_gate_at_benchmark_point(cutoff):
    # the engine-sweep check: bench amplitudes, unit-efficiency counters
    params = replace(SourceParams(), eta_d=1.0)
    sim = simulate_triple_rate(
        INPUT_STATES["D"], params, 1_000_000, seed=cutoff, cutoff=cutoff
    )
    assert sim.n_pulses == 1_000_000
    assert sim.consistent(5.0)


def test_calibration_report_round_trip():
    model = RateModel()
    rep = calibration_report(model)
    assert abs(rep["eta_d"] - 0.03) < 1e-12
    assert abs(rep["gamma1"] - estimate_gamma(22e3, 76e6, 0.03)) < 1e-15
    assert abs(rep["predicted_triple_rate_hz"] - 0.118105) < 1e-4
    assert rep["circuit_triple_rate_hz"] == (
        model.R_L * rep["circuit_check"]["circuit_probability"]
    )
    # must serialize as-is for the CLI
    parsed = json.loads(json.dumps(rep))
    assert parsed["rates_in"]["R_L"] == 76e6


def test_calibration_report_drive_amplitude_comes_from_R_alpha():
    base = calibration_report(RateModel())
    # the bench drive and resource singles rates are equal, so is alpha
    assert base["alpha"] == base["gamma1"]
    moved = calibration_report(replace(RateModel(), R_alpha=5e3))
    assert moved["alpha"] == estimate_gamma(5e3, 76e6, 0.03)
    assert moved["gamma1"] == base["gamma1"]
    params = SourceParams(
        gamma1=moved["gamma1"], gamma23=moved["gamma23"], alpha=moved["alpha"],
        eta_d=moved["eta_d"],
    )
    assert moved["circuit_check"] == circuit_consistency(params)
    assert (
        moved["circuit_check"]["circuit_probability"]
        != base["circuit_check"]["circuit_probability"]
    )
    # the scaling formula has no drive term
    assert moved["predicted_triple_rate_hz"] == base["predicted_triple_rate_hz"]
