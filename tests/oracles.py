"""Reference routes the engine is checked against.

The exact-order engine reads every input at a source point off one shared
pass through the Bell circuit (`protocol._source_pass`). The functions here
are the route it replaced: build the full pre-detection state for one input
(`protocol.predetection_state`), then condition it on the counters' clicks
mode by mode. Nothing in the package calls them.
"""

from typing import Sequence, Tuple

import numpy as np

from railbridge.fock import DensityMatrix, ModeRegister, NullOutcomeError, PureState
from railbridge.protocol import (
    _NEVER_OBSERVED,
    BELL_CLICK_MODES,
    COUNTER_MODES,
    _click_weights,
    apply_bell_circuit,
)


def branches(
    state: PureState, keep: Sequence[str]
) -> Tuple[ModeRegister, ModeRegister, np.ndarray]:
    """Split a pure state into the ``keep`` modes and the rest.

    Returns the kept register (in the order given), the register of the
    other modes (in register order) and the amplitude tensor with axes
    (kept basis index, *other modes): fixing the other modes' occupation
    leaves the unnormalized kept-mode branch of that occupation.
    """
    reg = state.register
    keep_pos = [reg.index(m) for m in keep]
    rest_pos = [i for i in range(reg.n_modes) if i not in keep_pos]
    keep_reg = reg.subset(keep)
    rest_reg = reg.subset([reg.labels[i] for i in rest_pos])
    t = np.transpose(state.array, keep_pos + rest_pos)
    return keep_reg, rest_reg, t.reshape((keep_reg.dim,) + rest_reg.dims)


def condition_on_clicks(
    state: PureState,
    clicks: Sequence[str],
    eta_d: float,
    keep: Sequence[str],
) -> Tuple[DensityMatrix, float]:
    """Conditional state of ``keep`` given a click in every listed detector.

    Each entry of ``clicks`` is the mode one counter watches. Modes neither
    kept nor watched are traced out, as for blocked polariser ports.
    ``state`` is assumed normalized; returns the normalized conditional
    density matrix and the click probability.
    """
    if set(clicks) & set(keep):
        raise ValueError("click modes cannot also be kept")
    keep_reg, rest_reg, t = branches(state, keep)
    w = _click_weights(rest_reg, clicks, eta_d)
    m = t.reshape(keep_reg.dim, -1)
    rho = (t * w).reshape(keep_reg.dim, -1) @ m.conj().T
    p_total = float(np.real(np.trace(rho)))
    if p_total < _NEVER_OBSERVED:
        raise NullOutcomeError(
            f"click pattern has probability {p_total:.3e}"
        )
    return DensityMatrix(keep_reg, rho / p_total), p_total


def bell_project_physical(
    state: PureState,
    eta_d: float,
    keep: Sequence[str],
) -> Tuple[DensityMatrix, float]:
    """Run the physical circuit and condition on the two-counter coincidence."""
    out = apply_bell_circuit(state)
    return condition_on_clicks(out, BELL_CLICK_MODES, eta_d, keep)


def counter_marginal(state: PureState) -> np.ndarray:
    """Joint photon-number distribution of the three counter modes.

    Axes follow COUNTER_MODES; every other mode is summed out.
    """
    reg = state.register
    axes = [reg.index(m) for m in COUNTER_MODES]
    return np.einsum(np.abs(state.array) ** 2, list(range(reg.n_modes)), axes)
