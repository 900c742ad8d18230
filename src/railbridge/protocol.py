"""Post-selected interface between dual-rail and single-rail optical qubits.

The simulated experiment prepares three sources on seven labelled modes:

* a pair source feeding (A_H, D_V), a second one feeding (A_V, D_H); a
  single detection in D heralds a dual-rail qubit a|H>_A + b|V>_A;
* a pair source feeding (C_H, B) and a weak coherent drive on C_V, which
  together put the single-rail target mode B in step with the C qubit.

A two-click projection on the A/C polarisation modes teleports the dual-rail
amplitudes onto mode B (vacuum/one-photon encoding). Run without the D
herald, the same projection leaves D and B in an entangled state.

Two implementations of the projection are provided: a rank-1 projector onto
(|H>_A|V>_C + |V>_A|H>_C)/sqrt(2) at perturbative order, and the physical
circuit (wave plates, polarising splitter, two counters) whose coincidences
respond to exactly that combination but also admit multi-pair false
positives at exact order. At both orders teleport heralds the swapped state.

Post-selection is exact conditional-state algebra throughout; nothing here
is sampled. Success probabilities come out alongside the states so that
rate estimates can reuse them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .elements import (
    _pair_tensor,
    apply_pair_map,
    click_probability,
    coherent_state,
    half_wave_plate,
    populate,
    two_mode_squeezer,
)
from .fock import (
    DensityMatrix,
    ModeRegister,
    NullOutcomeError,
    PureState,
    normalize,
    project,
    tensor,
    to_density,
    vacuum,
)

DEFAULT_CUTOFF = 2

# detector modes of the projection circuit and of the herald arm
BELL_CLICK_MODES = ("A_H", "C_H")
HERALD_CLICK_MODE = "D_H"
# the three counters of a teleport run, in click-pattern order
COUNTER_MODES = (*BELL_CLICK_MODES, HERALD_CLICK_MODE)
# an outcome or sector less likely than this counts as never observed
_NEVER_OBSERVED = 1e-30


@dataclass(frozen=True)
class SourceParams:
    """Source amplitudes and detection efficiency for one experiment run.

    gamma1 drives the (C_H, B) pair source, gamma23 the two A/D pair
    sources, alpha the coherent drive on C_V (defaults to gamma1 so the
    teleported superposition comes out balanced). The phi_* phases enter
    the corresponding amplitudes as exp(-i phi), which makes the teleported
    relative phase exp(-i (phi_gamma1 - phi_alpha)).
    """

    gamma1: float = 0.20
    gamma23: float = 0.054
    alpha: Optional[float] = None
    phi_gamma1: float = 0.0
    phi_alpha: float = 0.0
    eta_d: float = 0.03
    order: str = "exact"

    def __post_init__(self) -> None:
        if self.order not in ("pert", "exact"):
            raise ValueError(f"unknown order {self.order!r}")
        for name in ("gamma1", "gamma23", "alpha"):
            v = getattr(self, name)
            if v is not None and abs(v) >= 1.0:
                raise ValueError(f"|{name}| must be < 1, got {abs(v)}")
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError(f"eta_d={self.eta_d} outside [0, 1]")

    @property
    def alpha_value(self) -> float:
        return self.gamma1 if self.alpha is None else self.alpha

    @property
    def gamma1_amp(self) -> complex:
        return self.gamma1 * cmath.exp(-1j * self.phi_gamma1)

    @property
    def alpha_amp(self) -> complex:
        return self.alpha_value * cmath.exp(-1j * self.phi_alpha)


@dataclass(frozen=True)
class QubitSpec:
    """Dual-rail qubit amplitudes (a, b) on the H/V modes of one beam."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        n = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes have norm^2 {n}, expected 1")


_S = 1.0 / math.sqrt(2.0)

INPUT_STATES: Mapping[str, QubitSpec] = {
    "H": QubitSpec(1.0, 0.0),
    "V": QubitSpec(0.0, 1.0),
    "D": QubitSpec(_S, _S),
    "A": QubitSpec(_S, -_S),
    "R": QubitSpec(_S, 1j * _S),
    "L": QubitSpec(_S, -1j * _S),
}


@dataclass(frozen=True)
class TripleBudget:
    """Per-pulse probabilities of genuine and fake triple coincidences.

    bad_a: both pair sources on the herald side fire (no photon from the
    C/B side needed); bad_c: the C side emits twice alongside one herald
    pair. Both mimic the good herald + two-click signature.
    """

    p_good: float
    p_bad_a: float
    p_bad_c: float

    def __post_init__(self) -> None:
        for name in ("p_good", "p_bad_a", "p_bad_c"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def fraction_bad(self) -> float:
        total = self.p_good + self.p_bad_a + self.p_bad_c
        if total == 0.0:
            return 0.0
        return (self.p_bad_a + self.p_bad_c) / total


# --------------------------------------------------------------- sources


def build_resource_omega(params: SourceParams, cutoff: int = DEFAULT_CUTOFF) -> PureState:
    """Joint state of the C polarisation qubit and the single-rail mode B.

    Perturbative order keeps exactly the three printed terms
    |0>_C|0>_B + gamma1 |H>_C|1>_B + alpha |V>_C|0>_B (then normalizes);
    exact order carries the full squeezer ladder and Poisson drive,
    including the cross term alpha*gamma1 |H V>_C |1>_B.
    """
    reg = ModeRegister.uniform(["C_H", "C_V", "B"], cutoff)
    g1, al = params.gamma1_amp, params.alpha_amp
    if params.order == "pert":
        amps = {
            (0, 0, 0): 1.0 + 0.0j,
            (1, 0, 1): g1,
            (0, 1, 0): al,
        }
        return normalize(PureState(reg, amps))
    state = two_mode_squeezer(vacuum(reg), "C_H", "B", g1)
    with warnings.catch_warnings():
        # the ~1e-5 drive weight beyond cutoff 2 is renormalized away and is
        # orders below every tolerance used downstream
        warnings.simplefilter("ignore", UserWarning)
        drive = coherent_state("drive", al, cutoff)
    return normalize(populate(state, ("C_V",), drive.array))


def build_bell_pair(params: SourceParams, cutoff: int = DEFAULT_CUTOFF) -> PureState:
    """Polarisation-entangled pair shared between beams A and D.

    Two pair sources of equal amplitude feed (A_H, D_V) and (A_V, D_H).
    Perturbative order keeps |0> + gamma23 (|H>_A|V>_D + |V>_A|H>_D),
    normalized.
    """
    reg = ModeRegister.uniform(["A_H", "A_V", "D_H", "D_V"], cutoff)
    g23 = complex(params.gamma23)
    if params.order == "pert":
        amps = {
            (0, 0, 0, 0): 1.0 + 0.0j,
            (1, 0, 0, 1): g23,
            (0, 1, 1, 0): g23,
        }
        return normalize(PureState(reg, amps))
    state = two_mode_squeezer(vacuum(reg), "A_H", "D_V", g23)
    return normalize(two_mode_squeezer(state, "A_V", "D_H", g23))


# -------------------------------------------------------------- heralding


def herald_setting_for(chi: QubitSpec) -> QubitSpec:
    """D-side analysis state whose detection heralds the qubit ``chi`` in A."""
    return QubitSpec(chi.b.conjugate(), chi.a.conjugate())


# --------------------------------------------------- conditional detection


def _click_weights(
    reg: ModeRegister, counters: Sequence[str], eta_d: float
) -> np.ndarray:
    """Weight of a click in every listed counter, broadcastable over ``reg``.

    Each counter watches one mode and fires on its photon number n with
    click_probability(n, eta_d).
    """
    w = np.ones((1,) * reg.n_modes)
    for m in counters:
        w = w * click_probability(reg.photons(m), eta_d)
    return w


# ---------------------------------------------------------- Bell projection


def _rotation_to_h(axis_h: complex, axis_v: complex) -> np.ndarray:
    """2x2 unitary sending the given polarisation axis onto the H mode."""
    return np.array(
        [
            [np.conj(axis_h), np.conj(axis_v)],
            [-axis_v, axis_h],
        ],
        dtype=complex,
    )


def bell_project_ideal(state: PureState) -> Tuple[PureState, float]:
    """Rank-1 projection onto (<H|_A <V|_C + <V|_A <H|_C)/sqrt(2).

    Returns the normalized remainder on the leftover modes and the outcome
    probability; an input orthogonal to the pair raises NullOutcomeError.
    """
    reg = state.register
    bra_reg = reg.subset(["A_H", "A_V", "C_H", "C_V"])
    bra = PureState(bra_reg, {(1, 0, 0, 1): _S + 0.0j, (0, 1, 1, 0): _S + 0.0j})
    remainder, p = project(state, bra)
    return normalize(remainder), p


# ------------------------------------------------------------- teleportation


def _check_exact_cutoff(cutoff: int) -> None:
    # at cutoff 1 no mode holds two photons, so the double-pair impostors
    # the exact order exists to expose would silently vanish
    if cutoff < 2:
        raise ValueError(
            f"exact order needs cutoff >= 2 to represent double pairs, got {cutoff}"
        )


def _circuit_input(params: SourceParams, cutoff: int) -> PureState:
    """The Bell pair on beams A and D beside the resource on C and B."""
    return tensor(build_bell_pair(params, cutoff), build_resource_omega(params, cutoff))


def _herald_rotation(chi: QubitSpec) -> np.ndarray:
    """2x2 analysis rotation sending the D axis that announces ``chi`` onto D_H."""
    d = herald_setting_for(chi)
    return _rotation_to_h(complex(d.a), complex(d.b))


class _SourcePass(NamedTuple):
    """Read-only products of one source point's normalized circuit output S.

    s: S itself, a plain `PureState` in register order. tau: the (D_H,
    D_V) density of each (n_A_H, n_C_H) branch, axes (n_A_H, n_C_H, D, D)
    with D = (n_D_H, n_D_V) flattened. rho_d: the (D_H, D_V) density of
    S, the sum of the tau. None of them depends on the detection
    efficiency.
    """

    s: PureState
    tau: np.ndarray
    rho_d: np.ndarray


# the projector counters' modes first, the herald's D modes last
_BELL_MAJOR = (*BELL_CLICK_MODES, "A_V", "C_V", "B", "D_H", "D_V")


def _bell_major(s: PureState) -> np.ndarray:
    """A contiguous copy of S with axes (n_A_H, n_C_H, (n_A_V, n_C_V, n_B), D)."""
    reg = s.register
    n, nd = reg.cutoffs[0] + 1, (reg.cutoffs[0] + 1) ** 2
    x = np.transpose(s.array, [reg.index(m) for m in _BELL_MAJOR])
    return np.ascontiguousarray(x).reshape(n, n, -1, nd)


def _source_pass(params: SourceParams, cutoff: int) -> _SourcePass:
    """Run the Bell circuit once per source point and keep S with two reductions.

    The herald rotation is the only step that depends on the input, and it
    acts on D while the circuit acts on A and C, so the two commute: every
    input at one point rotates the same S. The detection efficiency enters
    only the counters' click weights, so the pass is keyed on the point
    without it: the Monte-Carlo check at unit efficiency, the swap and
    every teleport at one point share one circuit run, and only σ, the
    click-weighted swap density, is derived per efficiency
    (`_swap_density`).
    """
    _check_exact_cutoff(cutoff)
    return _circuit_pass(replace(params, order="exact", eta_d=1.0), cutoff)


def _lift(u: np.ndarray, cutoff: int) -> np.ndarray:
    """The 2x2 mode map ``u`` as a pair tensor on two modes of one cutoff."""
    return _pair_tensor(tuple(u.ravel().tolist()), cutoff, cutoff)


def _circuit_output(params: SourceParams, cutoff: int) -> PureState:
    """S: the normalized Bell-circuit output, built from the circuit's two sources.

    The pi/8 plates act within the Bell pair P on (A_H, A_V, D_H, D_V) and the
    resource W on (C_H, C_V, B), and the splitter only swaps A_V and C_V, so
    each analyser pairs a mode of P with one of W and S is one matrix product
    over (n_A_H, n_C_H): S[p,q,h,v,r,s,b] = sum_(a,c) U[p,q,b,a,c] V[a,c,r,s,h,v],
    U = sum_i T_A[p,q,a,i] W[c,i,b] and V = sum_j T_C[r,s,c,j] P[a,j,h,v].
    """
    n = cutoff + 1
    pair = half_wave_plate(build_bell_pair(params, cutoff), "A", math.pi / 8.0).array
    omega = half_wave_plate(build_resource_omega(params, cutoff), "C", math.pi / 8.0).array
    t_a, t_c = _lift(_rotation_to_h(_S, _S), cutoff), _lift(_rotation_to_h(_S, -_S), cutoff)
    # U and V as (p,q,b) x (a,c) and (a,c) x (r,s,h,v) matrices
    u = np.tensordot(t_a, omega, ([3], [1])).transpose(0, 1, 4, 2, 3).reshape(n**3, -1)
    v = np.tensordot(pair, t_c, ([1], [3])).transpose(0, 5, 3, 4, 1, 2).reshape(n**2, -1)
    reg = ModeRegister.uniform(("A_H", "A_V", "D_H", "D_V", "C_H", "C_V", "B"), cutoff)
    # u @ v has axes (A_H, A_V, B, C_H, C_V, D_H, D_V); view it in register order
    s = (u @ v).reshape((n,) * 7).transpose(0, 1, 5, 6, 3, 4, 2)
    return normalize(PureState(reg, s))


@functools.lru_cache(maxsize=1)
def _circuit_pass(params: SourceParams, cutoff: int) -> _SourcePass:
    # callers go through the inputs of one point in a row (six teleports, six
    # click distributions, one swap), so one slot serves them all; more would
    # only hold more memory
    s = _circuit_output(params, cutoff)
    s.array.flags.writeable = False
    x = _bell_major(s)
    tau = np.matmul(x.swapaxes(-1, -2), x.conj())
    tau.flags.writeable = False
    rho_d = tau.sum(axis=(0, 1))
    rho_d.flags.writeable = False
    return _SourcePass(s, tau, rho_d)


@functools.lru_cache(maxsize=1)
def _swap_density(params: SourceParams, cutoff: int) -> np.ndarray:
    """σ: the (D_H, D_V, B) density of S weighted by the A_H and C_H clicks.

    A_V and C_V are traced out; σ is the swap's unnormalized output and the
    density every teleport at the point rotates. It is the one reduction
    that depends on ``params.eta_d``; a one-slot cache serves the six
    teleports and the swap of one point and efficiency.
    """
    # click_probability(0) is 0: only n_A_H, n_C_H >= 1 weigh in
    x = _bell_major(_source_pass(params, cutoff).s)[1:, 1:]
    n, nd = cutoff + 1, (cutoff + 1) ** 2
    click = click_probability(np.arange(1, n), params.eta_d)
    rows = (x * np.multiply.outer(click, click)[:, :, None, None]).reshape(-1, n * nd)
    # rows @ conj rows runs over (B, D) on both sides; reorder to (D, B)
    sigma = (rows.T @ x.conj().reshape(-1, n * nd)).reshape(n, nd, n, nd)
    sigma = sigma.transpose(1, 0, 3, 2).reshape(nd * n, nd * n)
    sigma.flags.writeable = False
    return sigma


def predetection_state(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> PureState:
    """Exact-order state of all beams just before the three counters fire.

    The herald analysis rotation maps the D axis that announces ``chi``
    onto D_H, so the herald counter watches D_H and D_V holds the blocked
    component. It is applied to the point's shared circuit output S
    (`_source_pass`), which is exact because the rotation on D commutes
    with the circuit on A and C, and the result is renormalized for the
    weight the truncated rotation drops. The click arithmetic reads the
    reductions of S instead; this full state serves what needs every mode,
    the split of the triples by emission pattern.
    """
    s = _source_pass(params, cutoff).s
    return normalize(apply_pair_map(s, "D_H", "D_V", _herald_rotation(chi)))


def _rotated_diagonal(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """diag(U rho U^dag) for each D-density in the last two axes of ``rho``."""
    return np.real(np.sum(np.matmul(u, rho) * u.conj(), axis=-1))


def _herald_unitary(chi: QubitSpec, cutoff: int) -> np.ndarray:
    """U: the herald rotation lifted to the truncated, flattened (D_H, D_V)."""
    return _lift(_herald_rotation(chi), cutoff).reshape((cutoff + 1) ** 2, -1)


def _herald_view(
    chi: QubitSpec, params: SourceParams, cutoff: int
) -> Tuple[_SourcePass, np.ndarray, float]:
    """The point's source pass, the herald rotation U on D and the rotated norm.

    U drops the D components it would lift above the cutoff, so every
    probability divides by the norm left, Tr[U^dag U rho_D]: the weight
    `predetection_state` renormalizes away.
    """
    src = _source_pass(params, cutoff)
    u = _herald_unitary(chi, cutoff)
    return src, u, float(np.sum(_rotated_diagonal(u, src.rho_d)))


def _swapped(params: SourceParams, cutoff: int) -> np.ndarray:
    """σ, the swap's unnormalized (D_H, D_V, B) density: p |r><r| from the
    rank-1 projector at perturbative order, `_swap_density` at exact order."""
    if params.order == "pert":
        remainder, p = bell_project_ideal(_circuit_input(params, cutoff))
        return p * to_density(remainder).matrix
    return _swap_density(params, cutoff)


def teleport(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> Tuple[DensityMatrix, float]:
    """Conditional state of mode B given the herald and both projector clicks.

    Both orders herald the swapped state σ (`_swapped`) with the weight W
    on the rotated D: rho_B = Tr_D[(U^dag W U x I) σ]. Perturbative order
    takes W as one photon, giving a|0>_B + b e^(-i(phi_gamma1-phi_alpha))|1>_B
    for alpha = gamma1, with no detector efficiency in p. Exact order takes
    W as an SPCM click, so the state includes multi-pair false positives and
    p is the true per-pulse triple-coincidence probability; it needs
    cutoff >= 2.
    """
    n, nd = cutoff + 1, (cutoff + 1) ** 2
    if params.order == "pert":
        # one photon in D_H is entry n of the flattened D; U is exact on σ's D
        u, rotated_norm, weights = _herald_unitary(chi, cutoff), 1.0, np.eye(nd)[n]
    else:
        _, u, rotated_norm = _herald_view(chi, params, cutoff)
        weights = np.repeat(click_probability(np.arange(n), params.eta_d), n)
    # W on the rotated D_H, as the operator U^dag W U on the unrotated D
    herald = u.conj().T @ (weights[:, None] * u)
    sigma = _swapped(params, cutoff).reshape(nd, n, nd, n)
    rho = np.tensordot(herald, sigma, axes=([0, 1], [2, 0]))
    weight = float(np.real(np.trace(rho)))
    p = weight / rotated_norm
    if p < _NEVER_OBSERVED:
        raise NullOutcomeError(f"click pattern has probability {p:.3e}")
    return DensityMatrix(ModeRegister(("B",), (cutoff,)), rho / weight), p


def ideal_teleport_target(
    chi: QubitSpec, params: SourceParams, cutoff: int = DEFAULT_CUTOFF
) -> PureState:
    """Pure state the teleporter aims for: a*alpha|0>_B + b*gamma1|1>_B."""
    reg = ModeRegister(("B",), (cutoff,))
    amps = {
        (0,): chi.a * params.alpha_amp,
        (1,): chi.b * params.gamma1_amp,
    }
    return normalize(PureState(reg, amps))


def target_overlap(target: np.ndarray, rho: DensityMatrix) -> float:
    """<t|rho|t> for a unit-norm target vector and a unit-trace rho."""
    # a target reached exactly can round one ulp above 1
    return min(1.0, float(np.real(target.conj() @ rho.matrix @ target)))


def teleport_fidelity(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> Tuple[float, float]:
    """Overlap of the teleported state with its ideal target, plus the rate."""
    rho, p = teleport(chi, params, cutoff)
    target = ideal_teleport_target(chi, params, cutoff).dense()
    return target_overlap(target, rho), p


# ------------------------------------------------------- entanglement swap


def swap_entanglement(
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> Tuple[DensityMatrix, float]:
    """Joint D/B state conditioned on the projector alone (no herald).

    σ / Tr σ (`_swapped`). At perturbative order with alpha = gamma1 it is
    the maximally entangled (|H>_D|1>_B + |V>_D|0>_B)/sqrt(2); exact order
    keeps the multi-pair admixtures the projector cannot filter; it needs
    cutoff >= 2.
    """
    sigma = _swapped(params, cutoff)
    p = float(np.real(np.trace(sigma)))
    if p < _NEVER_OBSERVED:
        raise NullOutcomeError(f"click pattern has probability {p:.3e}")
    reg = ModeRegister.uniform(["D_H", "D_V", "B"], cutoff)
    return DensityMatrix(reg, sigma / p), p


def swap_qubit_sector(rho: DensityMatrix) -> Tuple[DensityMatrix, float]:
    """Restrict a (D_H, D_V, B) state to exactly one photon in the D beam.

    The polarisation analyser that reads out D only ever reports on this
    sector: vacuum never fires it and double pairs are higher order. The
    result lives on a two-level mode "D_pol" (occupation 0 = H photon,
    1 = V photon) times the B ladder, which is the space the joint
    reconstruction works in. Returns the normalized sector state and the
    sector weight within ``rho``.
    """
    reg = rho.register
    if set(reg.labels) != {"D_H", "D_V", "B"}:
        raise ValueError(f"expected modes D_H, D_V, B, got {reg.labels}")
    b_cut = reg.cutoff_of("B")
    out_reg = ModeRegister(("D_pol", "B"), (1, b_cut))
    # rows D_pol = 0 (one H photon) then D_pol = 1 (one V photon)
    idx = [
        np.ravel_multi_index(
            tuple({"D_H": h, "D_V": v, "B": n}[m] for m in reg.labels), reg.dims
        )
        for h, v in ((1, 0), (0, 1))
        for n in range(b_cut + 1)
    ]
    sub = rho.matrix[np.ix_(idx, idx)]
    weight = float(np.real(np.trace(sub)))
    if weight < _NEVER_OBSERVED:
        raise NullOutcomeError("no single-photon weight in the D beam")
    # at perturbative order the sector is the whole state, and its trace
    # can round one ulp above 1
    return DensityMatrix(out_reg, sub / weight), min(1.0, weight)


def ideal_swap_target_qubit(
    params: SourceParams, cutoff: int = DEFAULT_CUTOFF
) -> PureState:
    """Swap target in the analyser's qubit x Fock space (0 = H carries |1>_B)."""
    reg = ModeRegister(("D_pol", "B"), (1, cutoff))
    amps = {
        (0, 1): params.gamma1_amp,
        (1, 0): params.alpha_amp,
    }
    return normalize(PureState(reg, amps))


# ------------------------------------------------------ triple coincidences


def triple_budget(params: SourceParams) -> TripleBudget:
    """Printed scaling estimates of the triple-coincidence budget.

    p_good = eta_d^3 |g1|^2 |g23|^2, p_bad_a = 2 eta_d^3 |g23|^4,
    p_bad_c = 2 eta_d^3 |g1|^4 |g23|^2. The shared eta_d^3 cancels in
    fraction_bad.
    """
    e3 = params.eta_d**3
    g1_sq = abs(params.gamma1) ** 2
    g23_sq = abs(params.gamma23) ** 2
    return TripleBudget(
        p_good=e3 * g1_sq * g23_sq,
        p_bad_a=2.0 * e3 * g23_sq**2,
        p_bad_c=2.0 * e3 * g1_sq**2 * g23_sq,
    )


def triple_sector_probabilities(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> Dict[Tuple[int, int], float]:
    """Triple-coincidence probability split by emission pattern.

    Keys are (photons in the D beam, photons in the A+C beams) of each
    component entering the counters; the circuit conserves both numbers,
    so components of different keys cannot interfere in any click count
    and the split is exact. (1, 2) is the genuine event; (2, 2) and
    (1, 3) are the double-pair impostors.
    """
    pre = predetection_state(chi, params, cutoff)
    reg = pre.register
    n_d = np.broadcast_to(reg.photons("D_H") + reg.photons("D_V"), reg.dims)
    n_bell = np.broadcast_to(
        sum(reg.photons(m) for m in ("A_H", "A_V", "C_H", "C_V")), reg.dims
    )
    weights = np.abs(pre.array) ** 2 * _click_weights(
        reg, COUNTER_MODES, params.eta_d
    )
    table = np.zeros((n_d.max() + 1, n_bell.max() + 1))
    np.add.at(table, (n_d.ravel(), n_bell.ravel()), weights.ravel())
    return {
        (int(a), int(b)): float(table[a, b]) for a, b in np.argwhere(table > 0.0)
    }


def simulated_triple_breakdown(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> TripleBudget:
    """Triple budget measured from the exact-order simulation itself."""
    sectors = triple_sector_probabilities(chi, params, cutoff)
    return TripleBudget(
        p_good=sectors.get((1, 2), 0.0),
        p_bad_a=sectors.get((2, 2), 0.0),
        p_bad_c=sectors.get((1, 3), 0.0),
    )


def click_pattern_distribution(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> Dict[Tuple[int, int, int], float]:
    """Full per-pulse distribution over the three counters' click patterns.

    Patterns are (projector counter 1, projector counter 2, herald); the
    eight probabilities sum to 1 up to the cutoff truncation. The (1,1,1)
    entry equals the exact-order teleport probability.
    """
    return pattern_probabilities(counter_marginal(chi, params, cutoff), params.eta_d)


def counter_marginal(
    chi: QubitSpec,
    params: SourceParams,
    cutoff: int = DEFAULT_CUTOFF,
) -> np.ndarray:
    """Joint photon-number distribution of the three counter modes.

    Axes follow COUNTER_MODES; every other mode is summed out. Reads
    diag(U tau U^dag) off the shared source pass, at exact order whatever
    ``params.order`` says, and divides by its sum, the rotated norm
    Tr[U^dag U rho_D] of `_herald_view`.
    """
    n = cutoff + 1
    u = _herald_unitary(chi, cutoff)
    per_d = _rotated_diagonal(u, _source_pass(params, cutoff).tau).reshape(n, n, n, n)
    return per_d.sum(axis=-1) / per_d.sum()


def pattern_probabilities(
    marginal: np.ndarray, eta_d: float
) -> Dict[Tuple[int, int, int], float]:
    """All eight click-pattern probabilities from a counter marginal."""
    per_counter = []
    for d in marginal.shape:
        c = click_probability(np.arange(d), eta_d)
        per_counter.append(np.stack([1.0 - c, c]))
    table = np.einsum("abc,ia,jb,kc->ijk", marginal, *per_counter)
    return {bits: float(table[bits]) for bits in itertools.product((0, 1), repeat=3)}
