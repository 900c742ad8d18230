"""Truncated Fock-space state algebra for few-mode optical circuits.

Conventions used throughout the package:

* A mode register is an ordered collection of labelled bosonic modes, each
  with its own photon-number cutoff. Polarisation modes are labelled like
  ``"A_H"``/``"A_V"``; single-rail modes get a bare label like ``"B"``.
* Basis states are occupation tuples, ordered lexicographically with vacuum
  first. Dense objects (density matrices, operators) are indexed row-major
  by that order.
* A pure state is one dense complex amplitude tensor shaped
  ``register.dims``: axis k holds the photon number of mode k, so a k-mode
  operation is a contraction on k axes. ``state.array[occ]`` reads one
  amplitude; ``np.ndindex(register.dims)`` walks the basis in order.
* ``normalize`` fixes the global phase so that the first nonzero amplitude
  in lexicographic order is real and non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Union

import numpy as np

Occupation = Tuple[int, ...]

PRUNE_TOL = 1e-14
NULL_TOL = 1e-15


class NullOutcomeError(ValueError):
    """Raised when a projection leaves essentially zero probability."""


@dataclass(frozen=True)
class ModeRegister:
    """Ordered set of labelled modes with per-mode photon-number cutoffs."""

    labels: Tuple[str, ...]
    cutoffs: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.cutoffs):
            raise ValueError("labels and cutoffs length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate mode labels: {self.labels}")
        if any(c < 1 for c in self.cutoffs):
            raise ValueError("every cutoff must be >= 1")

    @classmethod
    def uniform(cls, labels: Sequence[str], cutoff: int) -> "ModeRegister":
        return cls(tuple(labels), tuple(cutoff for _ in labels))

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"mode {label!r} not in register {self.labels}") from None

    def cutoff_of(self, label: str) -> int:
        return self.cutoffs[self.index(label)]

    def contains(self, occ: Occupation) -> bool:
        """Whether ``occ`` is an occupation of this register within the cutoffs."""
        return len(occ) == self.n_modes and all(
            0 <= n < d for n, d in zip(occ, self.dims)
        )

    def photons(self, label: str) -> np.ndarray:
        """Photon number of one mode, shaped to broadcast over the
        register's amplitude tensor."""
        i = self.index(label)
        shape = [1] * self.n_modes
        shape[i] = self.dims[i]
        return np.arange(self.dims[i]).reshape(shape)

    def subset(self, labels: Sequence[str]) -> "ModeRegister":
        """Sub-register in the order requested by the caller."""
        return ModeRegister(tuple(labels), tuple(self.cutoff_of(m) for m in labels))


class PureState:
    """Pure state over a mode register, held as one dense amplitude tensor.

    ``PureState(register, {occupation: amplitude})`` fills the tensor from a
    mapping; ``PureState(register, array)`` wraps an array shaped
    ``register.dims``. Treat instances as immutable.
    """

    __slots__ = ("register", "array")

    def __init__(
        self,
        register: ModeRegister,
        amps: Union[Mapping[Occupation, complex], np.ndarray, None] = None,
    ) -> None:
        self.register = register
        if isinstance(amps, np.ndarray):
            if amps.shape != register.dims:
                raise ValueError(f"amplitudes {amps.shape} != dims {register.dims}")
            self.array = amps.astype(complex, copy=False)
            return
        self.array = np.zeros(register.dims, dtype=complex)
        for occ, a in (amps or {}).items():
            if not register.contains(tuple(occ)):
                raise ValueError(f"occupation {tuple(occ)} outside {register}")
            self.array[tuple(occ)] = a

    def dense(self) -> np.ndarray:
        """Amplitudes as a flat vector in lexicographic basis order (a copy)."""
        return self.array.flatten()


@dataclass
class DensityMatrix:
    """Dense density operator over a (small) mode register."""

    register: ModeRegister
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.register.dim
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({d}, {d})")

    def validate(self) -> None:
        """Check Hermiticity and unit trace to 1e-10, positivity to 1e-9."""
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError("density matrix trace differs from 1")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < -1e-9:
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")


def vacuum(register: ModeRegister) -> PureState:
    return PureState(register, {tuple(0 for _ in register.labels): 1.0 + 0.0j})


def norm(state: PureState) -> float:
    return math.sqrt(float(np.sum(np.abs(state.array) ** 2)))


def normalize(state: Union[PureState, DensityMatrix]):
    """Scale to unit norm/trace.

    Pure states additionally get the global-phase convention: the first
    nonzero amplitude in lexicographic basis order is made real non-negative.
    Amplitudes at or below ``PRUNE_TOL`` times the norm are set to zero.
    """
    if isinstance(state, DensityMatrix):
        tr = np.trace(state.matrix)
        if abs(tr) < NULL_TOL:
            raise NullOutcomeError("cannot normalize a zero-trace density matrix")
        return DensityMatrix(state.register, state.matrix / tr.real)
    n = norm(state)
    if n < NULL_TOL:
        raise NullOutcomeError("cannot normalize a zero state")
    flat = state.array.ravel()
    mag = np.abs(flat)
    first = int(np.argmax(mag > PRUNE_TOL))
    phase = flat[first] / mag[first] if mag[first] > PRUNE_TOL else 1.0
    out = np.where(mag > PRUNE_TOL * n, flat * (1.0 / (n * phase)), 0.0)
    return PureState(state.register, out.reshape(state.register.dims))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; registers must not share labels."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"registers share labels: {sorted(overlap)}")
    reg = ModeRegister(
        a.register.labels + b.register.labels, a.register.cutoffs + b.register.cutoffs
    )
    return PureState(reg, np.multiply.outer(a.array, b.array))


def project(
    state: PureState,
    bra: PureState,
    allow_null: bool = False,
) -> Tuple[PureState, float]:
    """Apply the bra <phi| on the modes of ``bra``'s register (same cutoffs).

    Returns the unnormalized remainder on the leftover modes and the outcome
    probability (squared norm of the remainder, assuming ``state`` is
    normalized). Raises NullOutcomeError below ``NULL_TOL`` unless
    ``allow_null`` is set.
    """
    reg = state.register
    bra_pos = [reg.index(m) for m in bra.register.labels]
    if tuple(bra.register.cutoffs) != tuple(reg.cutoffs[i] for i in bra_pos):
        raise ValueError("bra cutoffs do not match the projected modes")
    keep_reg = reg.subset([m for m in reg.labels if m not in bra.register.labels])
    out = np.tensordot(
        bra.array.conj(), state.array, axes=(list(range(len(bra_pos))), bra_pos)
    )
    remainder = PureState(keep_reg, out)
    p = norm(remainder) ** 2
    if p < NULL_TOL and not allow_null:
        raise NullOutcomeError(f"projection outcome has probability {p:.3e}")
    return remainder, p


def to_density(state: PureState) -> DensityMatrix:
    vec = state.dense()
    return DensityMatrix(state.register, np.outer(vec, vec.conj()))


def project_density(
    rho: DensityMatrix, bra: PureState
) -> Tuple[DensityMatrix, float]:
    """Density-matrix counterpart of project(): apply <phi| on bra's modes.

    Returns the unnormalized conditional operator on the leftover modes and
    the outcome probability (its trace). Raises NullOutcomeError below
    NULL_TOL.
    """
    reg = rho.register
    bra_pos = [reg.index(m) for m in bra.register.labels]
    if tuple(bra.register.cutoffs) != tuple(reg.cutoffs[i] for i in bra_pos):
        raise ValueError("bra cutoffs do not match the projected modes")
    keep_pos = [i for i in range(reg.n_modes) if i not in bra_pos]
    keep_reg = reg.subset([reg.labels[i] for i in keep_pos])
    # axis i of the (dims + dims) view is row mode i, axis n + i column mode i
    n = reg.n_modes
    out = np.einsum(
        bra.array.conj(), bra_pos,
        rho.matrix.reshape(reg.dims + reg.dims), list(range(2 * n)),
        bra.array, [n + i for i in bra_pos],
        keep_pos + [n + i for i in keep_pos],
    ).reshape(keep_reg.dim, keep_reg.dim)
    p = float(np.real(np.trace(out)))
    if p < NULL_TOL:
        raise NullOutcomeError(f"projection outcome has probability {p:.3e}")
    return DensityMatrix(keep_reg, out), p


def loss_channel(eta: float, cutoff: int) -> Tuple[np.ndarray, ...]:
    """Kraus matrices of pure photon loss with transmission ``eta`` on one mode.

    The channel is rho -> sum_k K_k rho K_k^dag, where K_k (k photons lost)
    has elements <m-k|K_k|m> = sqrt(C(m,k) eta^(m-k) (1-eta)^k). The set is
    exactly trace preserving on the truncated space because loss never
    raises the photon number.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission eta={eta} outside [0, 1]")
    d = cutoff + 1
    ops: List[np.ndarray] = []
    for k in range(d):
        K = np.zeros((d, d))
        for m in range(k, d):
            K[m - k, m] = math.sqrt(
                math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k
            )
        if np.any(K):
            ops.append(K)
    return tuple(ops)


def density_to_json_dict(rho: DensityMatrix) -> dict:
    """JSON-ready form: labels, cutoff (int when uniform), re/im parts."""
    cutoffs = rho.register.cutoffs
    cutoff: Union[int, List[int]]
    cutoff = cutoffs[0] if len(set(cutoffs)) == 1 else list(cutoffs)
    return {
        "labels": list(rho.register.labels),
        "cutoff": cutoff,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def _whole_number(value) -> int:
    # JSON Schema's "integer" also admits 2.0; a bool is no photon number
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not float(value).is_integer()
    ):
        raise ValueError(f"cutoff {value!r} is not an integer")
    return int(value)


def density_from_json_dict(obj: dict) -> DensityMatrix:
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(isinstance(m, str) for m in labels):
        raise ValueError(f"labels {labels!r} are not a list of strings")
    labels = tuple(labels)
    cutoff = obj["cutoff"]
    cutoffs = (
        tuple(_whole_number(c) for c in cutoff)
        if isinstance(cutoff, list)
        else tuple(_whole_number(cutoff) for _ in labels)
    )
    reg = ModeRegister(labels, cutoffs)
    m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    return DensityMatrix(reg, m.astype(complex))
