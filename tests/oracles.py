"""Reference routes and shared helpers for the tests.

Nothing in the package calls them. They are:

* the per-input engine route: the exact-order engine reads every input at
  a source point off one shared pass through the Bell circuit
  (`protocol._source_pass`), and these functions are the route it
  replaced, which builds the full pre-detection state for one input
  (`protocol.predetection_state`) and conditions it on the counters'
  clicks mode by mode;
* dense operator algebra: the click POVM as explicit matrices, an
  operator lifted from some modes to a whole register, and the partial
  trace, which the engine's weighted contractions are checked against;
* builders for test inputs: a qubit from unnormalized amplitudes and a
  config rendered back to parseable text.
"""

import math
from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from railbridge.config import Config
from railbridge.fock import DensityMatrix, ModeRegister, NullOutcomeError, PureState
from railbridge.protocol import (
    _NEVER_OBSERVED,
    BELL_CLICK_MODES,
    COUNTER_MODES,
    QubitSpec,
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


# ------------------------------------------------------- dense operators


@dataclass(frozen=True)
class ClickPOVM:
    """Two-outcome POVM of a single-photon counter with efficiency eta_d.

    Both elements are diagonal in the Fock basis: no_click = (1-eta_d)^n,
    click = 1 - (1-eta_d)^n.
    """

    eta_d: float
    cutoff: int

    @property
    def no_click(self) -> np.ndarray:
        n = np.arange(self.cutoff + 1)
        return np.diag((1.0 - self.eta_d) ** n)

    @property
    def click(self) -> np.ndarray:
        return np.eye(self.cutoff + 1) - self.no_click


def spcm_povm(eta_d: float, cutoff: int) -> ClickPOVM:
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"detector efficiency eta_d={eta_d} outside [0, 1]")
    return ClickPOVM(eta_d=eta_d, cutoff=cutoff)


def embed_operator(
    op: np.ndarray, register: ModeRegister, modes: Sequence[str]
) -> np.ndarray:
    """Lift an operator acting on ``modes`` to the full register."""
    pos = [register.index(m) for m in modes]
    dims = register.dims
    n = register.n_modes
    d_t = int(np.prod([dims[p] for p in pos]))
    if op.shape != (d_t, d_t):
        raise ValueError(f"operator shape {op.shape} does not match modes {modes}")
    rest = [i for i in range(n) if i not in pos]
    d_r = int(np.prod([dims[i] for i in rest], initial=1.0))
    full = np.kron(op, np.eye(d_r))
    perm = pos + rest  # axis k of `full` corresponds to register axis perm[k]
    inv = np.argsort(perm)
    shape = [dims[p] for p in perm]
    t = full.reshape(shape + shape)
    t = np.transpose(t, axes=list(inv) + [n + i for i in inv])
    d = register.dim
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Trace out every mode not listed in ``keep`` (result ordered as given)."""
    reg = rho.register
    keep_pos = [reg.index(m) for m in keep]
    n = reg.n_modes
    # a traced mode's column axis reuses its row index, which sums the diagonal
    cols = [n + i if i in keep_pos else i for i in range(n)]
    out = np.einsum(
        rho.matrix.reshape(reg.dims + reg.dims), list(range(n)) + cols,
        keep_pos + [n + i for i in keep_pos],
    )
    keep_reg = reg.subset(keep)
    return DensityMatrix(keep_reg, out.reshape(keep_reg.dim, keep_reg.dim))


# ------------------------------------------------------------ test inputs


def qubit_of(a: complex, b: complex) -> QubitSpec:
    """The qubit with amplitudes proportional to (a, b)."""
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if n == 0.0:
        raise ValueError("qubit amplitudes cannot both vanish")
    return QubitSpec(complex(a) / n, complex(b) / n)


def format_config(config: Config) -> str:
    """Render a config as parseable text (inverse of parse_config)."""
    lines = []
    for f in fields(Config):
        v = getattr(config, f.name)
        if v is None:
            v = "none"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
