"""Count-rate calibration and the detection-efficiency budget.

Backward direction: measured singles and coincidence rates fix the pair
and drive amplitudes and the overall detection efficiency. Forward
direction: those numbers predict the good-triple rate the full protocol
should deliver.
Both directions are plain per-pulse arithmetic; the one modelling choice
(a polariser loss factor restoring pre-analyser rates) is isolated in
`estimate_gamma` and carried in every report.

The forward formula is a scaling estimate and sits roughly a factor two
above the exact circuit probability, so the report carries the ratio from
`circuit_consistency` instead of hiding it. A Monte-Carlo photon-thinning
run, `simulate_triple_rate`, cross-checks the click arithmetic of
`pattern_probabilities` by an independent route; the tests and the
benchmark run it, the report does not. Both read the counters' photon
numbers from `protocol.counter_marginal`, which reads the shared circuit
pass of the source point. That pass does not depend on the detection
efficiency, so a unit-efficiency check at a point reuses the circuit run
of the point's teleports. The Monte Carlo therefore checks the click
arithmetic and not that marginal; the tests check the marginal against a
pre-detection state built for one input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .protocol import (
    DEFAULT_CUTOFF,
    INPUT_STATES,
    QubitSpec,
    SourceParams,
    click_pattern_distribution,
    counter_marginal,
    pattern_probabilities,
    triple_budget,
)

# bench reference the forward prediction is compared against
MEASURED_TRIPLE_RATE_HZ = 0.16
MEASURED_TRIPLE_RATE_ERR_HZ = 0.03


@dataclass(frozen=True)
class RateModel:
    """Measured rates of one calibration run, all in Hz.

    R_L is the pulse rate; R_alpha, R_gamma1, R_gamma23 are the singles
    rates of the coherent drive and the two pair-source arms after the
    analysers; R_cc is the herald-arm pair coincidence rate.
    projector_loss_factor undoes the analyser attenuation when a singles
    rate is converted back to an emission amplitude.
    """

    R_L: float = 76e6
    R_alpha: float = 22e3
    R_gamma1: float = 22e3
    R_gamma23: float = 1.7e3
    R_cc: float = 51.0
    projector_loss_factor: float = 4.0

    def __post_init__(self) -> None:
        for name in ("R_L", "R_alpha", "R_gamma1", "R_gamma23", "R_cc"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name}={v} is negative")
        if self.R_cc > self.R_gamma23:
            raise ValueError(
                f"coincidences exceed singles: R_cc={self.R_cc} > "
                f"R_gamma23={self.R_gamma23}"
            )
        if self.projector_loss_factor <= 0.0:
            raise ValueError(
                f"projector_loss_factor={self.projector_loss_factor} must be > 0"
            )

    @property
    def eta_d(self) -> float:
        """Detection efficiency derived from the coincidence ratio."""
        return estimate_eta_d(self.R_cc, self.R_gamma23)


@dataclass(frozen=True)
class EfficiencyBudget:
    """Multiplicative efficiency budget of the homodyne channel.

    loss_factor covers propagation and optics, mode_match the overlap with
    the local oscillator, photodiode_qe the diodes themselves. product is
    their forecast; measured_eta and drift are what the calibration fringe
    actually showed.
    """

    loss_factor: float
    mode_match: float
    photodiode_qe: float
    measured_eta: float
    drift: float

    def __post_init__(self) -> None:
        for name in ("loss_factor", "mode_match", "photodiode_qe", "measured_eta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.drift < 0.0:
            raise ValueError(f"drift={self.drift} is negative")

    @property
    def product(self) -> float:
        return self.loss_factor * self.mode_match * self.photodiode_qe


# ------------------------------------------------------------- estimation


def estimate_eta_d(R_cc: float, R_gamma23: float) -> float:
    """Detection efficiency as the coincidence-to-singles ratio."""
    if R_cc < 0.0 or R_gamma23 < 0.0:
        raise ValueError(f"rates must be nonnegative, got ({R_cc}, {R_gamma23})")
    if R_gamma23 == 0.0:
        raise ValueError("R_gamma23 is zero, efficiency undefined")
    return R_cc / R_gamma23


def estimate_gamma(
    R: float, R_L: float, eta_d: float,
    loss_factor: float = RateModel.projector_loss_factor,
) -> float:
    """Emission amplitude from a singles rate.

    gamma = sqrt(loss_factor * R / (R_L * eta_d)). The singles are counted
    behind a polarisation analyser that keeps one port of one basis, so
    the bare ratio underestimates the emission probability by the
    loss_factor; with the default 4 the bench rates give gamma1 = 0.197 and
    gamma23 = 0.055, next to the SourceParams defaults 0.20 and 0.054.
    loss_factor=1 gives the at-analyser amplitude instead.
    """
    if R < 0.0:
        raise ValueError(f"rate R={R} is negative")
    if R_L <= 0.0 or eta_d <= 0.0:
        raise ValueError(f"R_L={R_L} and eta_d={eta_d} must both be > 0")
    if loss_factor <= 0.0:
        raise ValueError(f"loss_factor={loss_factor} must be > 0")
    return math.sqrt(loss_factor * R / (R_L * eta_d))


def predict_triple_rate(model: RateModel, gammas: Sequence[complex]) -> float:
    """Good-triple rate in Hz from the scaling estimate.

    R = R_L * 1/2 * p_good of `triple_budget`, i.e. R_L * 1/2 * eta_d^3 *
    |gamma1|^2 * |gamma23|^2. This counts one herald pair plus one resource
    pair, all three photons detected; see `circuit_consistency` for how
    much the full circuit shaves off.
    """
    g1, g23 = gammas
    params = SourceParams(gamma1=abs(g1), gamma23=abs(g23), eta_d=model.eta_d)
    return model.R_L * 0.5 * triple_budget(params).p_good


# ---------------------------------------------- circuit consistency checks


def circuit_consistency(
    params: SourceParams, cutoff: int = DEFAULT_CUTOFF
) -> Dict[str, object]:
    """Exact circuit triple probability versus the scaling formula.

    The formula overcounts: the projection circuit passes the resonant
    two-photon combination with probability 1/2 and the impostor budget
    shifts with the input, so the honest per-pulse probability runs near
    0.56 of the formula at bench amplitudes. Returned per canonical input
    and as a mean so the forward rate can be quoted either way.
    """
    formula = 0.5 * triple_budget(params).p_good
    if formula == 0.0:
        raise ValueError(
            f"the scaling formula's triple probability is 0 at gamma1 = "
            f"{params.gamma1!r}, gamma23 = {params.gamma23!r}, eta_d = "
            f"{params.eta_d!r}, so the circuit-to-formula ratio is undefined"
        )
    per_input = {
        name: click_pattern_distribution(chi, params, cutoff=cutoff)[(1, 1, 1)]
        for name, chi in INPUT_STATES.items()
    }
    mean_circuit = float(np.mean(list(per_input.values())))
    return {
        "per_input": per_input,
        "circuit_probability": mean_circuit,
        "formula_probability": formula,
        "circuit_to_formula_ratio": mean_circuit / formula,
    }


@dataclass(frozen=True)
class ClickSimulation:
    """Outcome of a photon-thinning Monte Carlo run of the triple counters."""

    n_pulses: int
    n_triples: int
    p_analytic: float

    @property
    def p_mc(self) -> float:
        return self.n_triples / self.n_pulses

    @property
    def std_error(self) -> float:
        p = self.p_analytic
        return math.sqrt(p * (1.0 - p) / self.n_pulses)

    def consistent(self, n_sigma: float = 3.0) -> bool:
        return abs(self.p_mc - self.p_analytic) <= n_sigma * self.std_error


def simulate_triple_rate(
    chi: QubitSpec,
    params: SourceParams,
    n_pulses: int,
    seed: Optional[int] = None,
    cutoff: int = DEFAULT_CUTOFF,
) -> ClickSimulation:
    """Monte Carlo triple-coincidence count by per-photon thinning.

    Each pulse takes a Fock occupation of the three counter modes from their
    exact joint distribution (`counter_marginal`), thins every photon with
    the detection efficiency, and scores a triple when all three counters
    see at least one survivor. No inclusion-exclusion arithmetic is reused,
    so this is an independent route to the same number as the (1,1,1)
    entry of `click_pattern_distribution`, which is computed here from the
    same marginal.

    Sampling is counts first: one multinomial draw gives how many of the
    n_pulses land on each occupation, which is exactly the histogram of
    n_pulses independent categorical draws. A counter that holds no photon
    cannot click, whatever the thinning, so a pulse can score only if every
    counter holds at least one photon. Only those pulses are expanded and
    thinned photon by photon; skipping the others changes no pulse's
    outcome, only how much randomness is spent on it.
    """
    if isinstance(n_pulses, bool) or not isinstance(n_pulses, numbers.Integral):
        raise ValueError(f"n_pulses={n_pulses!r} must be an integer")
    if n_pulses <= 0:
        raise ValueError(f"n_pulses={n_pulses} must be positive")
    # marginal over the three counter modes; hidden modes are orthogonal
    # bystanders so their probabilities just add up
    marginal = counter_marginal(chi, params, cutoff=cutoff)
    keys = np.indices(marginal.shape).reshape(marginal.ndim, -1).T
    probs = marginal.ravel() / marginal.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_pulses, probs)
    lit = np.all(keys >= 1, axis=1)
    occ_per_pulse = np.repeat(keys[lit], counts[lit], axis=0)
    detected = rng.binomial(occ_per_pulse, params.eta_d)
    n_triples = int(np.sum(np.all(detected >= 1, axis=1)))

    p_analytic = pattern_probabilities(marginal, params.eta_d)[(1, 1, 1)]
    return ClickSimulation(
        n_pulses=n_pulses, n_triples=n_triples, p_analytic=p_analytic
    )


# ------------------------------------------------------------------ report


def calibration_report(
    model: RateModel, cutoff: int = DEFAULT_CUTOFF
) -> Dict[str, object]:
    """All derived calibration quantities, with the circuit check, as one
    JSON-ready mapping.

    The drive amplitude alpha comes from R_alpha the way gamma1 comes from
    R_gamma1, and drives the circuit check; the scaling formula has no
    alpha term.
    """
    if model.R_gamma1 == 0.0:
        raise ValueError(
            "R_gamma1 = 0 gives gamma1 = 0, where the scaling formula's triple "
            "probability is 0 and the circuit-to-formula ratio has no value; "
            "set R_gamma1 > 0"
        )
    eta_d = model.eta_d
    alpha, gamma1, gamma23 = (
        estimate_gamma(R, model.R_L, eta_d, model.projector_loss_factor)
        for R in (model.R_alpha, model.R_gamma1, model.R_gamma23)
    )
    params = SourceParams(gamma1=gamma1, gamma23=gamma23, alpha=alpha, eta_d=eta_d)
    check = circuit_consistency(params, cutoff=cutoff)
    return {
        "rates_in": {
            "R_L": model.R_L,
            "R_alpha": model.R_alpha,
            "R_gamma1": model.R_gamma1,
            "R_gamma23": model.R_gamma23,
            "R_cc": model.R_cc,
        },
        "projector_loss_factor": model.projector_loss_factor,
        "eta_d": eta_d,
        "alpha": alpha,
        "gamma1": gamma1,
        "gamma23": gamma23,
        "predicted_triple_rate_hz": predict_triple_rate(model, (gamma1, gamma23)),
        "measured_triple_rate_hz": MEASURED_TRIPLE_RATE_HZ,
        "measured_triple_rate_err_hz": MEASURED_TRIPLE_RATE_ERR_HZ,
        "circuit_check": check,
        "circuit_triple_rate_hz": model.R_L * float(check["circuit_probability"]),
    }

