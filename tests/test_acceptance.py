"""Release gate: the headline numbers the package promises, end to end.

Every test pins one user-facing guarantee with an explicit tolerance,
from the exactness of the perturbative protocol through the tomography
round trip to the full CLI pipeline. Wall-clock budgets are asserted
where a performance regression would make the tool impractical on a
single core.
"""

import cmath
import json
import math
import os
import time

import numpy as np

from railbridge.cli import main
from railbridge.fock import DensityMatrix, ModeRegister, PureState, to_density
from railbridge.homodyne import phase_estimate, sample
from railbridge.protocol import (
    INPUT_STATES,
    SourceParams,
    simulated_triple_breakdown,
    triple_budget,
)
from railbridge.rates import (
    EfficiencyBudget,
    RateModel,
    estimate_gamma,
    predict_triple_rate,
)
from railbridge.tomography import (
    ReconstructionOptions,
    fidelity,
    maxlik_reconstruct,
    wigner,
)

from oracles import phase_accuracy_curve, quadrature_pdf, teleport_fidelity, wrap_phase

BENCH = SourceParams()  # gamma1=0.20, gamma23=0.054, eta_d=0.03, exact order


def single_mode(amps, cutoff=None, label="B"):
    cutoff = len(amps) - 1 if cutoff is None else cutoff
    reg = ModeRegister((label,), (cutoff,))
    return to_density(PureState(reg, {(n,): complex(a) for n, a in enumerate(amps)}))


def fixed_state_set(count=20, cutoff=2, seed=314159):
    """The frozen pure-state panel used by the round-trip guarantee."""
    rng = np.random.default_rng(seed)
    reg = ModeRegister(("B",), (cutoff,))
    states = []
    for _ in range(count):
        v = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
        v /= np.linalg.norm(v)
        states.append(PureState(reg, {(n,): v[n] for n in range(cutoff + 1)}))
    return states


def test_perturbative_teleport_is_exact_for_all_inputs():
    params = SourceParams(order="pert")
    start = time.perf_counter()
    for chi in INPUT_STATES.values():
        f, _ = teleport_fidelity(chi, params)
        assert f >= 1.0 - 1e-9
    assert time.perf_counter() - start < 1.0


def test_false_positive_fraction_matches_budget_formula():
    start = time.perf_counter()
    formula = triple_budget(BENCH)
    simulated = simulated_triple_breakdown(INPUT_STATES["D"], BENCH)
    # closed form at the bench amplitudes; the circuit count sits below it
    # because detector thinning discounts the two-photon impostors harder
    assert abs(formula.fraction_bad - 0.184) < 1e-3
    assert abs(simulated.fraction_bad - formula.fraction_bad) < 0.04
    assert time.perf_counter() - start < 10.0


def test_exact_order_average_fidelity_band():
    fids = [teleport_fidelity(chi, BENCH)[0] for chi in INPUT_STATES.values()]
    assert 0.87 <= float(np.mean(fids)) <= 0.97


def test_tomography_round_trip_on_fixed_state_panel():
    start = time.perf_counter()
    for i, state in enumerate(fixed_state_set()):
        rho = to_density(state)
        clean = sample(rho, 100_000, eta=1.0, seed=1000 + i)
        fit = maxlik_reconstruct(clean, ReconstructionOptions(cutoff=2))
        assert fidelity(fit.rho, rho) >= 0.99
        lossy = sample(rho, 100_000, eta=0.5, seed=2000 + i)
        corrected = maxlik_reconstruct(
            lossy, ReconstructionOptions(cutoff=2, eta_correction=0.5, max_iter=4000)
        )
        assert fidelity(corrected.rho, rho) >= 0.97
    assert time.perf_counter() - start < 120.0


def test_corrected_fit_recovers_photon_from_lossy_data():
    # one photon behind a 50% detector: the uncorrected fit sees the
    # half/half mixture, the corrected fit returns the photon itself
    data = sample(single_mode([0.0, 1.0]), 100_000, eta=0.5, seed=77)
    raw = maxlik_reconstruct(data, ReconstructionOptions(cutoff=4))
    assert abs(float(np.real(raw.rho.matrix[1, 1])) - 0.50) <= 0.02
    corrected = maxlik_reconstruct(
        data, ReconstructionOptions(cutoff=4, eta_correction=0.5, max_iter=6000)
    )
    assert fidelity(corrected.rho, single_mode([0.0, 1.0], cutoff=4)) >= 0.98


def test_calibration_arithmetic_bench_values():
    eta_d, loss = 0.030, 4.0
    g1 = estimate_gamma(22e3, 76e6, eta_d, loss)
    g23 = estimate_gamma(1.7e3, 76e6, eta_d, loss)
    assert abs(g1 - 0.20) < 0.005
    assert abs(g23 - 0.054) < 0.005
    rate = predict_triple_rate(RateModel(), (g1, g23))
    assert abs(rate - 0.12) < 0.01
    assert abs(EfficiencyBudget(0.80, 0.81, 0.86, 0.50, 0.025).product - 0.557) < 1e-3


def test_full_pipeline_witness_beats_classical_limit(tmp_path, capsys):
    out = str(tmp_path / "pipe")
    start = time.perf_counter()
    code = main(["pipeline", "--out", out, "--seed", "11", "--samples", "2000"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 300.0
    with open(os.path.join(out, "pipeline.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    swap = report["swap"]
    assert swap["fidelity_corrected"] > 0.8
    assert swap["fidelity_uncorrected"] > 0.55
    # either way the state beats the 0.5 separable bound
    assert swap["witness_corrected"]["entangled"] is True
    assert swap["witness_uncorrected"]["fidelity_to_max_entangled"] > 0.5


def test_wigner_origin_values_and_marginals():
    grid = np.array([0.0])
    for amps, want in (
        ([1.0, 0.0], 1.0 / math.pi),
        ([0.0, 1.0], -1.0 / math.pi),
        (None, 0.0),
    ):
        if amps is None:
            reg = ModeRegister(("B",), (1,))
            rho = DensityMatrix(reg, np.diag([0.5, 0.5]).astype(complex))
        else:
            rho = single_mode(amps)
        assert abs(float(wigner(rho, grid, grid)[0, 0]) - want) < 1e-8

    # integrating the q axis out of W must reproduce the homodyne density
    rng = np.random.default_rng(8)
    reg = ModeRegister(("B",), (4,))
    q = np.linspace(-6.0, 6.0, 241)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = a @ a.conj().T
        m /= np.real(np.trace(m))
        rho = DensityMatrix(reg, m)
        marginal = np.trapezoid(wigner(rho, q, q), q, axis=1)
        assert float(np.max(np.abs(marginal - quadrature_pdf(rho, 0.0)(q)))) < 1e-4


def test_likelihood_never_decreases_on_random_datasets():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        cutoff = int(rng.integers(1, 4))
        v = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
        v /= np.linalg.norm(v)
        reg = ModeRegister(("B",), (cutoff,))
        rho = to_density(PureState(reg, {(n,): v[n] for n in range(cutoff + 1)}))
        eta = float(rng.choice([1.0, 0.8, 0.5]))
        data = sample(rho, int(rng.integers(200, 801)), eta=eta, seed=int(rng.integers(2**63)))
        res = maxlik_reconstruct(
            data,
            ReconstructionOptions(cutoff=cutoff, eta_correction=eta, max_iter=300),
        )
        diffs = np.diff(res.loglik_trace)
        assert diffs.size > 0
        assert float(diffs.min()) >= -1e-9


def test_phase_estimator_unbiased_and_curve_monotone():
    s = 1.0 / math.sqrt(2.0)
    for i, phi in enumerate((0.0, math.pi / 3, math.pi / 2, math.pi, 1.5 * math.pi)):
        rho = single_mode([s, s * cmath.exp(-1j * phi)])
        est = phase_estimate(sample(rho, 20_000, seed=900 + i), window=50)
        assert abs(wrap_phase(est.phi - phi)) < 3.0 * est.std_error
    curve = phase_accuracy_curve(
        single_mode([s, s]), 0.0, (200, 800, 3200), window=25, trials=12, seed=5
    )
    rms = [err for _, err in curve]
    assert all(a > b for a, b in zip(rms, rms[1:]))
