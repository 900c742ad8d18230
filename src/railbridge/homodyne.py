"""Balanced-homodyne statistics for a single optical mode.

Seeded synthetic datasets drawn at uniform phases by inverse-CDF
sampling of the exact quadrature distribution of a truncated density
matrix on a fixed grid (one bisection per draw against that draw's own
phase), CSV import/export, and phase estimation from the angle
dependence of the windowed mean quadrature. A dataset is two float
arrays, the phases and the quadrature values. The grid's CDF table is
built once per process for each number of levels. Sampling and CSV writing
work through a dataset in blocks of _BLOCK_ROWS rows, and reading packs
the values as it parses, so beyond the dataset itself they hold one
block's temporaries at most.

Conventions: [q, p] = i, X_theta = q cos(theta) + p sin(theta), vacuum
variance 1/2. The number-state wavefunctions are the Hermite functions
psi_n under the same scaling, and the eigenket amplitudes pick up a
phase e^{i n theta}, so

    pr(x | theta) = sum_{m,n} rho_mn e^{i (n - m) theta} psi_m(x) psi_n(x).
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .fock import DensityMatrix, loss_channel

# (x_min, x_max, points); wide enough for every reconstructed-class state
DEFAULT_GRID = (-6.0, 6.0, 2048)
# rows per block of the O(N) stages: sampling, CSV writing and fit rows;
# at cutoff 4 a block's widest temporary, complex (rows, 5, 5), is 1.6 MB
_BLOCK_ROWS = 4096


class GridError(ValueError):
    """The sampling grid cannot represent the requested distribution."""


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Values psi_n(x) for n = 0..n_max, stacked along the first axis.

    Upward recursion psi_{n+1} = (sqrt(2) x psi_n - sqrt(n) psi_{n-1}) /
    sqrt(n+1), seeded with the normalized Gaussian; stable for the photon
    numbers used here.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0) * x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(
            n + 1
        )
    return out


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows that cover range(n).

    A lone last row joins the block before it: numpy takes a one-row
    matrix-vector product as a dot product, whose rounding differs from
    that row's inside a longer product, and blocks must not show in any
    result.
    """
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        yield slice(start, stop)


def _single_mode_matrix(rho: DensityMatrix) -> np.ndarray:
    if rho.register.n_modes != 1:
        raise ValueError(
            f"homodyne model is single-mode; got register {rho.register.labels}"
        )
    return rho.matrix


@dataclass
class QuadratureDataset:
    """Homodyne samples plus the efficiency they were recorded at.

    ``theta`` and ``x`` are equal-length 1-D arrays of finite floats:
    sample j was recorded at phase theta[j] with quadrature value x[j].
    """

    theta: np.ndarray
    x: np.ndarray
    eta_assumed: float = 1.0

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.theta.ndim != 1 or self.theta.shape != self.x.shape:
            raise ValueError(
                f"theta and x must be 1-D arrays of equal length, got shapes "
                f"{self.theta.shape} and {self.x.shape}"
            )
        if not (np.isfinite(self.theta).all() and np.isfinite(self.x).all()):
            raise ValueError("theta and x must hold finite values only")

    def __len__(self) -> int:
        return len(self.theta)

    def write_csv(self, path) -> None:
        # .tolist() yields Python floats, whose repr is the shortest
        # round-tripping form; one block at a time keeps the lists small
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("theta_rad,x\n")
            for rows in _blocks(len(self)):
                fh.writelines(
                    f"{t!r},{x!r}\n"
                    for t, x in zip(self.theta[rows].tolist(), self.x[rows].tolist())
                )

    @classmethod
    def read_csv(cls, path, eta_assumed: float = 1.0) -> "QuadratureDataset":
        # packed doubles, not one float object per value
        thetas, xs = array("d"), array("d")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "theta_rad,x":
                raise ValueError(f"{path}: line 1: expected header 'theta_rad,x', got {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
                try:
                    theta, x = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                if not (math.isfinite(theta) and math.isfinite(x)):
                    raise ValueError(f"{path}: line {lineno}: non-finite value")
                thetas.append(theta)
                xs.append(x)
        return cls(thetas, xs, eta_assumed=eta_assumed)


def _phase_coefficients(matrix: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Real weights of the kernel expansion, one row per phase.

    pr(x | theta) = sum_{mn} Re[rho_mn e^{i(n-m)theta}] psi_m psi_n because
    the kernel is real, so a single real gemm against the (cumulative)
    kernel table gives densities (CDFs) for a whole batch of phases.
    """
    d = matrix.shape[0]
    rot = np.exp(1j * np.outer(thetas, np.arange(d)))
    coeff = np.real(rot.conj()[:, :, None] * matrix[None, :, :] * rot[:, None, :])
    return coeff.reshape(len(thetas), d * d)


def _cumulative_kernel(psi: np.ndarray, xgrid: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of each psi_m psi_n product, (d^2, grid).

    The operations are those of scipy's cumulative_trapezoid(initial=0),
    in the same order, so the table is bit-equal to it.
    """
    d = psi.shape[0]
    kernel = (psi[:, None, :] * psi[None, :, :]).reshape(d * d, -1)
    steps = np.diff(xgrid) * (kernel[:, 1:] + kernel[:, :-1]) / 2.0
    return np.concatenate((np.zeros((d * d, 1)), np.cumsum(steps, axis=1)), axis=1)


@functools.lru_cache(maxsize=4)
def _sampler_table(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """DEFAULT_GRID and its CDF table, one row (d^2,) per grid point, for d levels.

    Every draw from a d-level state inverts against the same table, so it
    is built once per d; both arrays are read-only because draws share them.
    """
    xgrid = np.linspace(*DEFAULT_GRID)
    rows = np.ascontiguousarray(_cumulative_kernel(hermite_functions(d - 1, xgrid), xgrid).T)
    xgrid.flags.writeable = False
    rows.flags.writeable = False
    return xgrid, rows


def _row_cdf_at(coeff: np.ndarray, kernel_rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """CDF of each sample's own distribution at its grid index."""
    return np.einsum("nd,nd->n", coeff, kernel_rows[idx])


def _interp_inverse(lo_c, hi_c, x_lo, x_hi, u):
    frac = np.where(hi_c > lo_c, (u - lo_c) / np.maximum(hi_c - lo_c, 1e-300), 0.0)
    return x_lo + np.clip(frac, 0.0, 1.0) * (x_hi - x_lo)


def sample(
    rho: DensityMatrix, n_samples: int, eta: float = 1.0, seed=None
) -> QuadratureDataset:
    """Draw homodyne samples from a single-mode state.

    Each sample's phase theta is drawn uniformly over [0, 2 pi) and its
    quadrature is inverted on DEFAULT_GRID; a state whose distribution the
    grid cannot hold raises GridError. Detection efficiency eta < 1 is
    applied as a photon-loss channel before sampling, and is recorded in
    the dataset as eta_assumed. Deterministic for a fixed seed. The
    inversion runs in blocks of draws, so its working memory beyond the
    returned arrays is one block's, whatever n_samples is.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    matrix = _single_mode_matrix(rho)
    # an invalid operator could hide negative densities behind the CDF table
    rho.validate()
    if eta != 1.0:
        kraus = loss_channel(eta, rho.register.cutoffs[0])
        matrix = sum(K @ matrix @ K.conj().T for K in kraus)
    xgrid, kernel_rows = _sampler_table(matrix.shape[0])
    g = len(xgrid)

    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    # xs holds the uniform draws until each block overwrites its own
    xs = rng.random(n_samples)
    # Every draw has its own phase, hence its own CDF row. Tabulating those
    # rows costs gigabytes of gemm traffic at 1e5 draws, so invert by
    # first-crossing bisection instead, evaluating each row only at the
    # ~log2(g) probed grid points.
    for rows in _blocks(n_samples):
        coeff = _phase_coefficients(matrix, thetas[rows])
        totals = coeff @ kernel_rows[-1]
        worst = float(np.max(np.abs(totals - 1.0)))
        if worst > 1e-3:
            raise GridError(
                f"grid integral off by {worst:.3e}; widen or refine the sampling grid"
            )
        # search for the unnormalized crossing cdf(x) = u * total instead of
        # dividing every row through by its total
        u = xs[rows] * totals
        lo_i = np.zeros(len(u), dtype=np.intp)
        hi_i = np.full(len(u), g - 1, dtype=np.intp)
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
        xs[rows] = _interp_inverse(lo_c, hi_c, xgrid[lo_i], xgrid[hi_i], u)
    return QuadratureDataset(thetas, xs, eta_assumed=eta)


@dataclass(frozen=True)
class PhaseEstimate:
    """Least-squares phase of the mean-quadrature fringe."""

    phi: float
    amplitude: float
    std_error: float
    n_windows: int


def phase_estimate(dataset: QuadratureDataset, window: int = 50) -> PhaseEstimate:
    """Estimate the source phase from the theta dependence of <X>.

    Samples are sorted by phase and averaged in windows of the given size;
    the window means are fitted to A cos(theta) + B sin(theta). Under the
    package phase convention (one-photon amplitude carrying e^{-i phi})
    the mean fringe is proportional to cos(theta + phi), so the estimate
    is atan2(-B, A). The standard error comes from the fit residuals.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(dataset)
    n_windows = n // window
    if n_windows < 3:
        raise ValueError(
            f"need at least 3 windows of {window} samples to fit a phase, got {n} samples"
        )
    thetas, xs = dataset.theta, dataset.x
    order = np.argsort(thetas)
    used = n_windows * window
    th = thetas[order][:used].reshape(n_windows, window)
    xv = xs[order][:used].reshape(n_windows, window)
    centres = np.arctan2(np.sin(th).mean(axis=1), np.cos(th).mean(axis=1))
    means = xv.mean(axis=1)

    design = np.column_stack([np.cos(centres), np.sin(centres)])
    coef, *_ = np.linalg.lstsq(design, means, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    r2 = a * a + b * b
    if r2 <= 0.0:
        raise ValueError("no phase-dependent signal in the dataset")
    resid = means - design @ coef
    dof = max(n_windows - 2, 1)
    cov = (float(resid @ resid) / dof) * np.linalg.inv(design.T @ design)
    grad = np.array([b, -a]) / r2
    var_phi = float(grad @ cov @ grad)
    return PhaseEstimate(
        phi=math.atan2(-b, a),
        amplitude=math.sqrt(r2),
        std_error=math.sqrt(max(var_phi, 0.0)),
        n_windows=n_windows,
    )
