"""Reference routes and shared helpers for the tests.

Nothing in the package calls them. They are:

* the per-input engine route: the exact-order engine reads every input at
  a source point off one shared pass through the Bell circuit
  (`protocol._source_pass`), and these functions are the route it
  replaced, which rotates the herald's D analysis on the circuit input,
  runs the full-tensor circuit for that one input (`apply_bell_circuit`,
  `predetection_state`) and conditions the result on the counters' clicks
  mode by mode;
* dense operator algebra: the click POVM as explicit matrices, an
  operator lifted from some modes to a whole register, and the partial
  trace, which the engine's weighted contractions are checked against;
* the single-pass quadrature round trip: the quadrature density at one
  phase, and the inverse-CDF sampling, CSV writer and fit-row build over
  a whole dataset at once, which the package's block-by-block stages
  must reproduce bit for bit;
* the eager fit loop, which certifies every accepted iterate, and the
  simplex projection in numpy calls: the lazily certified loop and the
  plain-float projection must reproduce them bit for bit;
* builders for test inputs: a qubit from unnormalized amplitudes and a
  config rendered back to parseable text.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from railbridge.config import Config
from railbridge.elements import _pol_pair, apply_pair_map, half_wave_plate
from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    NullOutcomeError,
    PureState,
    loss_channel,
    normalize,
)
from railbridge.homodyne import (
    DEFAULT_GRID,
    GridError,
    QuadratureDataset,
    _cumulative_kernel,
    _interp_inverse,
    _phase_coefficients,
    _row_cdf_at,
    _single_mode_matrix,
    hermite_functions,
)
from railbridge.protocol import (
    _NEVER_OBSERVED,
    _S,
    BELL_CLICK_MODES,
    COUNTER_MODES,
    QubitSpec,
    SourceParams,
    _check_exact_cutoff,
    _circuit_input,
    _click_weights,
    _herald_rotation,
    _rotation_to_h,
)
from railbridge.tomography import (
    _P_FLOOR,
    _P_MOMENTUM_MIN,
    _STEP_GROWTH,
    _STEP_INIT,
    _STEP_MIN,
    GAP_TOL,
    ReconstructionOptions,
    ReconstructionResult,
    _Likelihood,
    _pack,
    _project_density,
    _sample_vectors,
    _unpack,
)


def polarising_bs(state: PureState, spatial_1: str, spatial_2: str) -> PureState:
    """Polarising beam splitter: H transmitted, V swapped between the two
    spatial modes. A pure mode relabeling, hence exactly unitary.

    Moved here from `railbridge.elements`, beside the full-tensor circuit
    that uses it: the package's circuit output applies the swap as an index
    relabelling of its two sources.
    """
    _pol_pair(state, spatial_1)
    _pol_pair(state, spatial_2)
    reg = state.register
    i1 = reg.index(f"{spatial_1}_V")
    i2 = reg.index(f"{spatial_2}_V")
    if reg.cutoffs[i1] != reg.cutoffs[i2]:
        raise ValueError("swapped V modes must share a cutoff")
    return PureState(reg, np.swapaxes(state.array, i1, i2))


def apply_bell_circuit(state: PureState) -> PureState:
    """Wave plates, polarising splitter and the two analysis rotations.

    Both beams pass a half-wave plate at pi/8 (H -> (H+V)/sqrt2), meet on
    the polarising splitter, and each output is analysed at +-45 degrees:
    the transmitted components end up in A_H and C_H (the counter modes)
    while A_V and C_V hold the blocked light. A coincidence of the two
    counters fires only on the symmetric |H V> + |V H> combination of the
    inputs, at half the rank-1 projector probability.

    This is the general circuit on any register holding the A and C modes,
    moved here from `railbridge.protocol`: the package builds its output S
    from the two sources' factors (`protocol._circuit_output`), and this
    full-tensor route is the reference S is checked against.
    """
    state = half_wave_plate(state, "A", math.pi / 8.0)
    state = half_wave_plate(state, "C", math.pi / 8.0)
    state = polarising_bs(state, "A", "C")
    state = apply_pair_map(state, "A_H", "A_V", _rotation_to_h(_S, _S))
    state = apply_pair_map(state, "C_H", "C_V", _rotation_to_h(_S, -_S))
    return state


def circuit_output(params: SourceParams, cutoff: int) -> PureState:
    """The normalized Bell-circuit output S of one source point, built afresh."""
    _check_exact_cutoff(cutoff)
    params = replace(params, order="exact")
    return normalize(apply_bell_circuit(_circuit_input(params, cutoff)))


def predetection_state(chi: QubitSpec, params: SourceParams, cutoff: int) -> PureState:
    """Exact-order state before the counters, built for one input.

    The herald rotation acts on D of the circuit input, then the circuit
    runs; the engine instead rotates the shared output S.
    """
    _check_exact_cutoff(cutoff)
    params = replace(params, order="exact")
    joint = apply_pair_map(
        _circuit_input(params, cutoff), "D_H", "D_V", _herald_rotation(chi)
    )
    return normalize(apply_bell_circuit(joint))


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


# ---------------------------------------------- quadrature round trip


def quadrature_pdf(rho: DensityMatrix, theta: float) -> Callable[[object], object]:
    """Probability density of X_theta for a single-mode state.

    Returns a callable mapping x (scalar or array) to the density, the
    kernel expansion that `sample` draws from at this one phase.
    """
    m = _single_mode_matrix(rho)
    d = m.shape[0]
    weights = _phase_coefficients(m, np.array([theta])).reshape(d, d)

    def pdf(x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        psi = hermite_functions(d - 1, arr)
        vals = np.einsum("mx,mn,nx->x", psi, weights, psi)
        return vals if np.ndim(x) else float(vals[0])

    return pdf


def sample_single_pass(
    rho: DensityMatrix, n_samples: int, eta: float = 1.0, seed=None
) -> QuadratureDataset:
    """`homodyne.sample` with every draw inverted in one pass over all N."""
    matrix = _single_mode_matrix(rho)
    if eta != 1.0:
        kraus = loss_channel(eta, rho.register.cutoffs[0])
        matrix = sum(K @ matrix @ K.conj().T for K in kraus)
    xgrid = np.linspace(*DEFAULT_GRID)
    d = matrix.shape[0]
    cumkernel = _cumulative_kernel(hermite_functions(d - 1, xgrid), xgrid)
    g = len(xgrid)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    coeff = _phase_coefficients(matrix, thetas)
    kernel_rows = np.ascontiguousarray(cumkernel.T)
    totals = coeff @ kernel_rows[-1]
    worst = float(np.max(np.abs(totals - 1.0)))
    if worst > 1e-3:
        raise GridError(f"grid integral off by {worst:.3e}")
    u = rng.random(n_samples) * totals
    lo_i = np.zeros(n_samples, dtype=np.intp)
    hi_i = np.full(n_samples, g - 1, dtype=np.intp)
    while True:
        narrow = (hi_i - lo_i) > 1
        if not narrow.any():
            break
        mid = (lo_i + hi_i) >> 1
        right = _row_cdf_at(coeff, kernel_rows, mid) < u
        lo_i = np.where(narrow & right, mid, lo_i)
        hi_i = np.where(narrow & ~right, mid, hi_i)
    lo_c = _row_cdf_at(coeff, kernel_rows, lo_i)
    hi_c = _row_cdf_at(coeff, kernel_rows, hi_i)
    xs = _interp_inverse(lo_c, hi_c, xgrid[lo_i], xgrid[hi_i], u)
    return QuadratureDataset(thetas, xs, eta_assumed=eta)


def fit_rows_single_pass(data: QuadratureDataset, cutoff: int) -> np.ndarray:
    """The packed bare projectors of every sample, (N, (cutoff+1)^2), in one pass."""
    v = _sample_vectors(data.theta, data.x, cutoff)
    return _pack(v[:, :, None] * v[:, None, :].conj())


def csv_bytes_single_pass(data: QuadratureDataset) -> bytes:
    """The bytes `QuadratureDataset.write_csv` writes, formatted in one pass."""
    body = "".join(f"{t!r},{x!r}\n" for t, x in zip(data.theta.tolist(), data.x.tolist()))
    return ("theta_rad,x\n" + body).encode("utf-8")


# ------------------------------------------------------------ the fit loop


def run_maxlik(
    lik: _Likelihood, opts: ReconstructionOptions, reg: ModeRegister
) -> ReconstructionResult:
    """Maximise lik over density matrices by accelerated projected gradient."""
    x = _pack(np.eye(lik.dim) / lik.dim)
    p = lik.probs(x)
    loglik = float(np.log(p).sum())
    grad = lik.gradient(p)
    gap = lik.gap(grad)
    trace = [loglik]
    x_prev, p_prev = x, p
    theta, step = 1.0, _STEP_INIT
    rejected = 0
    iterations = 0
    while (gap >= GAP_TOL or p.min() <= _P_FLOOR) and iterations < opts.max_iter:
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        if beta > 0.0:
            # p is linear in rho, so the momentum point costs no data pass
            p_y = p + beta * (p - p_prev)
            if p_y.min() <= _P_MOMENTUM_MIN:
                theta = 1.0  # restart the momentum from the last accepted iterate
                continue
            y = x + beta * (x - x_prev)
            loglik_y = float(np.log(p_y).sum())
            grad_y = lik.gradient(p_y)
        else:
            y, loglik_y, grad_y = x, loglik, grad
        while True:
            x_new = _project_density(y + step * grad_y)
            d = x_new - y
            p_new = lik.probs(x_new)
            loglik_new = float(np.log(p_new).sum())
            if loglik_new >= loglik_y + lik.n * (grad_y @ d - (d @ d) / (2.0 * step)):
                break
            if loglik_new < loglik:
                rejected += 1
            step *= 0.5
            if step < _STEP_MIN:
                break
        if loglik_new < loglik:
            if beta > 0.0:
                theta = 1.0
                continue
            break  # no ascent step left at machine precision
        iterations += 1
        x_prev, x = x, x_new
        p_prev, p = p, p_new
        loglik = loglik_new
        trace.append(loglik)
        theta = theta_next
        step *= _STEP_GROWTH
        grad = lik.gradient(p)
        gap = lik.gap(grad)
    floored = int(np.count_nonzero(p <= _P_FLOOR))  # p of the accepted rho
    return ReconstructionResult(
        DensityMatrix(reg, _unpack(x)), iterations, trace,
        gap < GAP_TOL and not floored, opts.eta_correction, floored, rejected, gap,
    )


def project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto the probability simplex."""
    u = np.sort(w)[::-1]
    shift = (np.cumsum(u) - 1.0) / np.arange(1, w.size + 1)
    k = np.flatnonzero(u > shift)[-1]
    return np.maximum(w - shift[k], 0.0)


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
