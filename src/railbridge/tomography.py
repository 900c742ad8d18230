"""Maximum-likelihood state reconstruction from homodyne quadrature data.

Single-mode reconstruction with optional detection-efficiency correction
(the loss channel folded into the measurement operators), a joint
polarisation x Fock variant for the swapped two-mode state, and the
derived quantities read off the result: fidelity, Wigner grids and the
entanglement figure of merit.

The fit maximises L(rho) = sum_j log Tr[rho Pi_j] by accelerated projected
gradient (Shang, Zhang & Ng, PRA 95, 062336, 2017). The gradient of L/N is
R(rho) = (1/N) sum_j Pi_j / Tr[rho Pi_j]; a step moves to
Proj(y + t R(y)), where Proj is the Frobenius-nearest density matrix (one
eigendecomposition and a simplex projection of the eigenvalues) and y is
a FISTA momentum point. The step size t backtracks on the
sufficient-increase condition and grows a little after each accepted
step; the momentum restarts from the last accepted iterate whenever the
likelihood drops. Since L is concave, gap = N (lambda_max(R(rho)) - 1)
bounds L* - L(rho) from above (Glancy, Knill & Girard, NJP 14, 095017,
2012); the fit is converged once gap < GAP_TOL, checked at every
accepted iterate.

Each sample's measurement operator is contracted with the loss channel
once, up front, into a real row of (c+1)^2 packed coordinates, so every
likelihood or gradient evaluation is one thin real matrix-vector product
over the dataset. A joint element |s><s| x Pi_j reads only <s|rho|s>, so
the joint fit keeps (c+1)^2 columns per setting s, plus one fixed real map
from packed joint rho to packed <s|rho|s> (the identity for one mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .fock import DensityMatrix, ModeRegister, density_to_json_dict, loss_channel
from .homodyne import QuadratureDataset, hermite_functions
from .protocol import INPUT_STATES

_P_FLOOR = 1e-300
# certified likelihood gap L* - L, in nats, at which a fit stops
GAP_TOL = 1e-2
# a momentum point must keep every sample probability above this, or the
# momentum restarts: its log-likelihood and gradient would not be finite
_P_MOMENTUM_MIN = 1e-12
# projected-gradient step sizes, in units of rho per unit of R
_STEP_INIT = 1.0
_STEP_GROWTH = 1.2
_STEP_MIN = 1e-12
# label of the reconstructed Fock mode: the single-rail mode B
_FOCK_MODE = "B"


@dataclass(frozen=True)
class ReconstructionOptions:
    """Knobs of the iterative reconstruction.

    eta_correction = 1 reconstructs the detected state; < 1 folds that
    much loss into the POVM so the result refers to the pre-loss state.
    The fit stops once its certified likelihood gap falls below GAP_TOL,
    or after max_iter accepted steps.
    """

    cutoff: int = 4
    eta_correction: float = 1.0
    max_iter: int = 2000

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if not 0.0 < self.eta_correction <= 1.0:
            raise ValueError(f"eta_correction={self.eta_correction} outside (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class ReconstructionResult:
    """A fit and its diagnostics.

    iterations counts accepted steps, and loglik_trace lists the
    log-likelihood of the start and of each accepted iterate, never
    decreasing. rejected_steps counts trial steps that fell below the
    last accepted likelihood and were shortened; momentum restarts are
    not counted. likelihood_gap bounds L* - final_loglik in nats, and
    converged means it is below GAP_TOL.
    """

    rho: DensityMatrix
    iterations: int
    loglik_trace: List[float]
    converged: bool
    eta_used: float
    floored_samples: int = 0
    rejected_steps: int = 0
    likelihood_gap: float = math.inf

    @property
    def final_loglik(self) -> float:
        return self.loglik_trace[-1]


def _sample_vectors(thetas: np.ndarray, xs: np.ndarray, cutoff: int) -> np.ndarray:
    """Pre-loss eigenvectors of every sample, stacked as rows (N, cutoff+1)."""
    psi = hermite_functions(cutoff, xs)
    return psi.T * np.exp(1j * np.outer(thetas, np.arange(cutoff + 1)))


def _pack_hermitian(a: np.ndarray, iu) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of a stack of them.

    Scaled so the packed dot product of two matrices equals Tr[A B]; that
    turns every Born probability into one real row-times-vector product.
    """
    off = a[..., iu[0], iu[1]] * math.sqrt(2.0)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return np.concatenate([np.real(diag), np.real(off), np.imag(off)], axis=-1)


def _unpack_hermitian(h: np.ndarray, d: int, iu) -> np.ndarray:
    n_off = (d * (d - 1)) // 2
    a = np.zeros((d, d), dtype=complex)
    a[iu] = (h[d : d + n_off] + 1j * h[d + n_off :]) / math.sqrt(2.0)
    a = a + a.conj().T
    a[np.diag_indices(d)] = h[:d]
    return a


def _feature_rows(vectors: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Packed loss-contracted POVM element of every sample, one real row each."""
    n, d = vectors.shape
    iu = np.triu_indices(d, k=1)
    n_off = (d * (d - 1)) // 2
    feats = np.zeros((n, d + 2 * n_off))
    for K in kraus:
        w = vectors @ K.conj()  # rows K^dagger |v_j>
        feats[:, :d] += np.abs(w) ** 2
        cross = math.sqrt(2.0) * w[:, iu[0]] * w[:, iu[1]].conj()
        feats[:, d : d + n_off] += np.real(cross)
        feats[:, d + n_off :] += np.imag(cross)
    return feats


def _setting_maps(settings: np.ndarray, d: int) -> np.ndarray:
    """Real map (S d^2, D^2) from packed joint rho to packed <s|rho|s> of every setting.

    Row (s, i) is pack(|s><s| x b_i) for the dual basis b_i of the packed
    coordinates, so its dot product with pack(rho) is pack(<s|rho|s>)_i.
    """
    dim = settings.shape[1] * d
    basis = np.array([_unpack_hermitian(e, d, np.triu_indices(d, k=1)) for e in np.eye(d * d)])
    proj = np.einsum("sa,sb->sab", settings, settings.conj())
    lifted = np.einsum("sab,imn->siambn", proj, basis).reshape(-1, dim, dim)
    return _pack_hermitian(lifted, np.triu_indices(dim, k=1))


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto the probability simplex."""
    u = np.sort(w)[::-1]
    shift = (np.cumsum(u) - 1.0) / np.arange(1, w.size + 1)
    k = np.flatnonzero(u > shift)[-1]
    return np.maximum(w - shift[k], 0.0)


def _project_density(h: np.ndarray, dim: int, iu) -> np.ndarray:
    """Packed density matrix nearest (Frobenius) to the packed Hermitian h."""
    w, v = np.linalg.eigh(_unpack_hermitian(h, dim, iu))
    return _pack_hermitian((v * _project_simplex(w)) @ v.conj().T, iu)


def _run_maxlik(
    feats: np.ndarray, to_setting: np.ndarray, opts: ReconstructionOptions,
    reg: ModeRegister,
) -> ReconstructionResult:
    """Fit rho to per-setting feature rows feats (S, N_s, d^2) read through to_setting."""
    n_set, n_per, width = feats.shape
    n = n_set * n_per
    dim = math.isqrt(to_setting.shape[1])
    iu = np.triu_indices(dim, k=1)
    feats_t = feats.transpose(0, 2, 1)

    def forward(x: np.ndarray, p: np.ndarray) -> float:
        """Born probabilities of packed rho x into p; returns the log-likelihood."""
        np.matmul(feats, (to_setting @ x).reshape(n_set, width, 1), out=p)
        np.maximum(p, _P_FLOOR, out=p)
        return float(np.log(p).sum())

    def backward(p: np.ndarray) -> np.ndarray:
        """Packed R = (1/N) sum_j Pi_j / p_j, the gradient of L/N."""
        np.divide(1.0 / n, p, out=weights)
        return to_setting.T @ np.matmul(feats_t, weights).ravel()

    def certificate(g: np.ndarray) -> float:
        """N (lambda_max(R) - 1) >= L* - L; zero only up to rounding at the optimum."""
        lam = float(np.linalg.eigvalsh(_unpack_hermitian(g, dim, iu))[-1])
        return max(0.0, n * (lam - 1.0))

    p, p_prev, p_new, p_y, weights = (np.empty((n_set, n_per, 1)) for _ in range(5))
    x = _pack_hermitian(np.eye(dim, dtype=complex) / dim, iu)
    loglik = forward(x, p)
    grad = backward(p)
    gap = certificate(grad)
    trace = [loglik]
    x_prev = x
    theta, step = 1.0, _STEP_INIT
    rejected = 0
    iterations = 0
    while gap >= GAP_TOL and iterations < opts.max_iter:
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        if beta > 0.0:
            # p is linear in rho, so the momentum point costs no data pass
            np.subtract(p, p_prev, out=p_y)
            p_y *= beta
            p_y += p
            if p_y.min() <= _P_MOMENTUM_MIN:
                theta = 1.0  # restart the momentum from the last accepted iterate
                continue
            y = x + beta * (x - x_prev)
            loglik_y = float(np.log(p_y).sum())
            grad_y = backward(p_y)
        else:
            y, loglik_y, grad_y = x, loglik, grad
        while True:
            x_new = _project_density(y + step * grad_y, dim, iu)
            d = x_new - y
            loglik_new = forward(x_new, p_new)
            if loglik_new >= loglik_y + n * (grad_y @ d - (d @ d) / (2.0 * step)):
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
        p_prev, p, p_new = p, p_new, p_prev
        loglik = loglik_new
        trace.append(loglik)
        theta = theta_next
        step *= _STEP_GROWTH
        grad = backward(p)
        gap = certificate(grad)
    floored = int(np.count_nonzero(p <= _P_FLOOR))  # p of the accepted rho
    return ReconstructionResult(
        DensityMatrix(reg, _unpack_hermitian(x, dim, iu)), iterations, trace,
        gap < GAP_TOL, opts.eta_correction, floored, rejected, gap,
    )


def maxlik_reconstruct(
    data: QuadratureDataset, opts: ReconstructionOptions = ReconstructionOptions()
) -> ReconstructionResult:
    """Reconstruct a single-mode state from quadrature samples."""
    if len(data) == 0:
        raise ValueError("cannot reconstruct from an empty dataset")
    vectors = _sample_vectors(data.theta, data.x, opts.cutoff)
    feats = _feature_rows(vectors, loss_channel(opts.eta_correction, opts.cutoff))
    reg = ModeRegister((_FOCK_MODE,), (opts.cutoff,))
    return _run_maxlik(feats[None], np.eye((opts.cutoff + 1) ** 2), opts, reg)


def joint_reconstruct_swapped(
    datasets: Mapping[str, QuadratureDataset],
    opts: ReconstructionOptions = ReconstructionOptions(),
) -> ReconstructionResult:
    """Reconstruct the polarisation x Fock state behind six analysis settings.

    Each dataset holds the quadratures recorded while the polarisation
    analyser projected onto the named qubit state of `INPUT_STATES`
    (occupation 0 = H, 1 = V); the product POVM
    (qubit projector) x (lossy quadrature projector) feeds one pooled
    likelihood over all settings. That likelihood weighs every setting
    alike, so all six datasets must hold the same number of samples.
    """
    unknown = sorted(set(datasets) - set(INPUT_STATES))
    if unknown:
        raise ValueError(f"unknown analysis settings: {', '.join(unknown)}")
    missing = sorted(set(INPUT_STATES) - set(datasets))
    if missing:
        raise ValueError(f"missing analysis settings: {', '.join(missing)}")
    counts = [len(datasets[name]) for name in INPUT_STATES]
    if min(counts) == 0 or len(set(counts)) > 1:
        listed = ", ".join(f"{name}={n}" for name, n in zip(INPUT_STATES, counts))
        raise ValueError(f"analysis settings need equal nonzero sample counts, got {listed}")
    kraus = loss_channel(opts.eta_correction, opts.cutoff)
    feats = np.stack([
        _feature_rows(_sample_vectors(ds.theta, ds.x, opts.cutoff), kraus)
        for ds in (datasets[name] for name in INPUT_STATES)
    ])
    settings = np.array([[q.a, q.b] for q in INPUT_STATES.values()], dtype=complex)
    to_setting = _setting_maps(settings, opts.cutoff + 1)
    reg = ModeRegister(("D_pol", _FOCK_MODE), (1, opts.cutoff))
    return _run_maxlik(feats, to_setting, opts, reg)


def _psd_eigs(name: str, matrix: np.ndarray, tol: float = 1e-8):
    if np.max(np.abs(matrix - matrix.conj().T)) > tol:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    if w.min() < -tol:
        raise ValueError(f"{name} has negative eigenvalue {w.min():.3e}")
    return np.clip(w, 0.0, None), v


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("states live on different spaces")
    _psd_eigs("rho", rho.matrix)
    ws, vs = _psd_eigs("sigma", sigma.matrix)
    root = (vs * np.sqrt(ws)) @ vs.conj().T
    inner = root @ rho.matrix @ root
    w, _ = _psd_eigs("inner product operator", inner, tol=1e-6)
    if w.size and w.max() > 0.0:
        # eigh noise floor: sqrt() would inflate O(1e-17) junk to O(1e-9)
        w[w < w.max() * 1e-12] = 0.0
    f = float(np.sqrt(w).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def wigner(rho: DensityMatrix, q_grid: np.ndarray, p_grid: np.ndarray) -> np.ndarray:
    """Wigner function W(q, p) on the outer grid, rows indexed by q.

    W = (1/pi) Integral dy e^{2ipy} <q-y|rho|q+y> under the vacuum-
    variance-1/2 convention, evaluated through the closed-form
    number-basis kernels (Laguerre polynomials times a Gaussian).
    Normalized so the full plane integrates to 1.
    """
    # imported here: scipy.special is slow to import and only wigner needs it
    from scipy.special import eval_genlaguerre, eval_laguerre

    if rho.register.n_modes != 1:
        raise ValueError(f"Wigner model is single-mode; got {rho.register.labels}")
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if q.size == 0 or p.size == 0:
        raise ValueError("empty Wigner grid")
    qq, pp = np.meshgrid(q, p, indexing="ij")
    z = qq + 1j * pp
    r2 = qq * qq + pp * pp
    envelope = np.exp(-r2) / math.pi
    d = rho.matrix.shape[0]
    out = np.zeros_like(qq)
    for m in range(d):
        c = rho.matrix[m, m]
        if abs(c) > 1e-18:
            out += np.real(c) * (-1) ** m * envelope * eval_laguerre(m, 2.0 * r2)
        for n in range(m + 1, d):
            c = rho.matrix[m, n]
            if abs(c) < 1e-18:
                continue
            k = n - m
            scale = (-1) ** m * math.sqrt(
                2.0**k * math.factorial(m) / math.factorial(n)
            )
            kern = scale * envelope * z**k * eval_genlaguerre(m, k, 2.0 * r2)
            out += 2.0 * np.real(c * kern)
    return out


def entanglement_witness(rho: DensityMatrix) -> Dict[str, object]:
    """Best overlap with (|H>|1> + e^{i phi}|V>|0>)/sqrt(2) over phi.

    Crossing 1/2 certifies entanglement of the polarisation x Fock state.
    """
    reg = rho.register
    if reg.n_modes != 2 or reg.dims[0] != 2 or reg.dims[1] < 2:
        raise ValueError(f"expected a qubit x Fock register, got dims {reg.dims}")
    i_h1, i_v0 = np.ravel_multi_index(([0, 1], [1, 0]), reg.dims)
    m = rho.matrix
    coherence = m[i_h1, i_v0]
    fid = float(0.5 * np.real(m[i_h1, i_h1] + m[i_v0, i_v0]) + abs(coherence))
    return {
        "fidelity_to_max_entangled": fid,
        "entangled": bool(fid > 0.5),
        "optimal_phase": float(-np.angle(coherence)) if abs(coherence) > 0 else 0.0,
    }


def result_to_json_dict(result: ReconstructionResult) -> dict:
    return {
        "rho": density_to_json_dict(result.rho),
        "diagnostics": {
            "iterations": result.iterations,
            "final_loglik": result.final_loglik,
            "converged": result.converged,
            "eta_used": result.eta_used,
            "floored_samples": result.floored_samples,
            "rejected_steps": result.rejected_steps,
            "likelihood_gap": result.likelihood_gap,
        },
    }
