"""Linear-optical elements, squeezer sources and click detectors.

All passive elements are expressed as 2x2 mode maps lifted exactly to the
truncated Fock space with factorial-weighted transition amplitudes; no
matrix exponentials are involved. A map U sends creation operators to
c_i^dag -> sum_j U_ji c_j^dag, so a single photon in mode i acquires the
amplitude column U[:, i], matching ordinary Jones-matrix algebra for the
polarisation pairs.

Output components that would exceed a mode cutoff are dropped; with the
cutoffs used by the protocol simulations this affects amplitudes far below
the working precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Sequence, Tuple

import numpy as np

from .fock import PRUNE_TOL, ModeRegister, PureState


@functools.lru_cache(maxsize=64)
def _pair_tensor(u: Tuple[complex, ...], ca: int, cb: int) -> np.ndarray:
    """Transition tensor T[p, q, m, n] = <p, q| U |m, n> within the cutoffs.

    Expands (a^dag)^m (b^dag)^n binomially after substituting the mapped
    creation operators; the amplitude reaching |p, q> (p + q = m + n) is

        sum_{j+k=p} C(m,j) C(n,k) U00^j U10^(m-j) U01^k U11^(n-k)
                    * sqrt(p! q! / (m! n!))

    ``u`` is U flattened row-major. Circuits reuse a handful of maps (plates,
    analysers) at every point of a scan, so tensors are cached; each is
    read-only because callers share it.
    """
    u00, u01, u10, u11 = u
    f = math.factorial
    T = np.zeros((ca + 1, cb + 1, ca + 1, cb + 1), dtype=complex)
    for m, n in itertools.product(range(ca + 1), range(cb + 1)):
        base = 1.0 / math.sqrt(f(m) * f(n))
        for j, k in itertools.product(range(m + 1), range(n + 1)):
            p, q = j + k, m + n - j - k
            if p <= ca and q <= cb:
                cj = math.comb(m, j) * u00**j * u10 ** (m - j)
                ck = math.comb(n, k) * u01**k * u11 ** (n - k)
                T[p, q, m, n] += cj * ck * base * math.sqrt(f(p) * f(q))
    T.flags.writeable = False
    return T


def apply_pair_map(
    state: PureState, mode_a: str, mode_b: str, U: np.ndarray
) -> PureState:
    """Apply a 2x2 mode map on (mode_a, mode_b), exactly within the cutoffs."""
    reg = state.register
    ia, ib = reg.index(mode_a), reg.index(mode_b)
    u = tuple(np.asarray(U, dtype=complex).ravel().tolist())
    T = _pair_tensor(u, reg.cutoffs[ia], reg.cutoffs[ib])
    out = np.tensordot(T, state.array, axes=([2, 3], [ia, ib]))
    return PureState(reg, np.moveaxis(out, (0, 1), (ia, ib)))


def _pol_pair(state: PureState, spatial: str) -> Tuple[str, str]:
    h, v = f"{spatial}_H", f"{spatial}_V"
    labels = state.register.labels
    if h not in labels or v not in labels:
        raise KeyError(
            f"spatial mode {spatial!r} needs both polarisation modes {h!r}, {v!r}"
        )
    return h, v


def hwp_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def half_wave_plate(state: PureState, spatial: str, theta: float) -> PureState:
    """HWP with fast axis at ``theta``: [[cos2t, sin2t], [sin2t, -cos2t]]."""
    h, v = _pol_pair(state, spatial)
    return apply_pair_map(state, h, v, hwp_matrix(theta))


def two_mode_squeezer(
    state: PureState, mode_a: str, mode_b: str, gamma: complex
) -> PureState:
    """Populate a vacuum mode pair with pair emission of amplitude ``gamma``.

    Writes the full geometric ladder sqrt(1-|gamma|^2) sum_n gamma^n |n, n>
    within the cutoff; the perturbative single-pair form is built directly
    by the protocol's source constructors.
    """
    if abs(gamma) >= 1.0:
        raise ValueError("pair amplitude |gamma| must be < 1")
    ca, cb = state.register.cutoff_of(mode_a), state.register.cutoff_of(mode_b)
    scale = math.sqrt(1.0 - abs(gamma) ** 2)
    ladder = [scale * complex(gamma) ** n for n in range(min(ca, cb) + 1)]
    block = np.zeros((ca + 1, cb + 1), dtype=complex)
    block[: len(ladder), : len(ladder)] = np.diag(ladder)
    return populate(state, (mode_a, mode_b), block)


def populate(state: PureState, modes: Sequence[str], block: np.ndarray) -> PureState:
    """Fill modes that are vacuum in every term with a fixed amplitude block.

    Each term |0...0>_modes |rest> becomes sum_occ block[occ] |occ>_modes
    |rest>; ``block`` has one axis per mode in ``modes``, in that order.
    """
    reg = state.register
    pos = [reg.index(m) for m in modes]
    t = np.moveaxis(state.array, pos, range(len(pos)))
    flat = t.reshape(-1, *t.shape[len(pos):])
    if np.any(np.abs(flat[1:]) > PRUNE_TOL):
        raise ValueError(f"modes {tuple(modes)} must start in vacuum")
    out = np.multiply.outer(np.asarray(block, dtype=complex), flat[0])
    return PureState(reg, np.moveaxis(out, range(len(pos)), pos))


def coherent_state(label: str, alpha: complex, cutoff: int) -> PureState:
    """Single-mode coherent state |alpha> truncated at ``cutoff``.

    Keeps the Poisson amplitudes; a truncation warning fires when the
    dropped weight exceeds 1e-6.
    """
    reg = ModeRegister((label,), (cutoff,))
    pref = math.exp(-0.5 * abs(alpha) ** 2)
    amps = [
        pref * complex(alpha) ** n / math.sqrt(math.factorial(n))
        for n in range(cutoff + 1)
    ]
    kept = sum(abs(a) ** 2 for a in amps)
    if 1.0 - kept > 1e-6:
        warnings.warn(
            f"coherent state truncation drops {1.0 - kept:.2e} of the weight "
            f"(|alpha|={abs(alpha):.3g}, cutoff={cutoff})",
            stacklevel=2,
        )
    return PureState(reg, np.array(amps))


def click_probability(n, eta_d: float):
    """Probability that a non-number-resolving detector fires on n photons.

    ``n`` may be an integer or an integer array; arrays give the weight per
    element.
    """
    return 1.0 - (1.0 - eta_d) ** np.asarray(n)

