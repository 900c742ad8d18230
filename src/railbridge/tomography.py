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
2012); the fit is converged once gap < GAP_TOL and no sample probability
sits at the floor. The gap of an accepted iterate is computed only where
it can end the fit: a next step that gains more than GAP_TOL already
shows it too large, and so does the cheaper bound N (v^dagger R v - 1) for
the top eigenvector v of R at the last gap that did not stop, which needs
no pass over the data. A floored sample leaves Tr[rho R] < 1, and then the
gap bounds nothing.

Sample j, taken at analyser setting s, has p_sj = Tr[P_j E(<s|rho|s>)],
with P_j = |v_j><v_j| its bare quadrature projector and E the detector
loss, so Pi_j = |s><s| x E^dagger(P_j) (Lvovsky, J. Opt. B 6, S556, 2004).
In the real coordinates Re a + Im a, whose dot product is Tr[A B], each
sample's row is its packed P_j, and one fixed real matrix maps packed rho
to packed E(<s|rho|s>) for every s; the single-mode fit has the one
setting 1. One value, `_Likelihood`, holds the rows and the map and
gives the fit its Born probabilities and gradient, each one thin real
matrix-vector product over the dataset, and its gap. A sample with
Tr Pi_j at the probability floor has zero probability under every rho at
the cutoff and would void the gap, so both fits reject it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .fock import DensityMatrix, ModeRegister, density_to_json_dict, loss_channel
from .homodyne import QuadratureDataset, _blocks, hermite_functions
from .protocol import INPUT_STATES

_P_FLOOR = 1e-300
# certified likelihood gap L* - L, in nats, at which a fit stops
GAP_TOL = 1e-2
# float64 spacing at 1, which scales the rounding margin of a skipped certificate
_EPS = float(np.finfo(float).eps)
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
    The fit stops once its certified likelihood gap falls below GAP_TOL
    with no sample probability at the floor, or after max_iter accepted
    steps.
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
    not counted. likelihood_gap bounds L* - final_loglik in nats when
    floored_samples is 0, and converged means both that and a gap below
    GAP_TOL.
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


def _pack(a: np.ndarray) -> np.ndarray:
    """Real coordinates Re a + Im a of a Hermitian matrix, or of a stack of them, flattened.

    Re a is symmetric and Im a antisymmetric, so pack(A) . pack(B) = Tr[A B]
    and the norm is the Frobenius norm: every Born probability is one real
    row-times-vector product.
    """
    return (a.real + a.imag).reshape(*a.shape[:-2], -1)


def _unpack(h: np.ndarray) -> np.ndarray:
    """The Hermitian matrix, or stack of them, whose packed coordinates are h."""
    d = math.isqrt(h.shape[-1])
    t = h.reshape(*h.shape[:-1], d, d)
    t_t = np.swapaxes(t, -1, -2)
    return (t + t_t) / 2.0 + 1j * ((t - t_t) / 2.0)


@functools.lru_cache(maxsize=8)
def _measurement_map(
    settings: Tuple[Tuple[complex, ...], ...], eta: float, cutoff: int
) -> np.ndarray:
    """Real map (S d^2, D^2) from packed rho to packed E(<s|rho|s>) of every setting s.

    Settings are unit rows on the analysed factor, as nested tuples, and E
    is the loss at efficiency eta on d = cutoff + 1 levels; column k is the
    image of the k-th packed coordinate. A pipeline fits the same few
    (settings, eta, cutoff) again and again, so maps are cached; each is
    read-only because fits share it.
    """
    settings = np.array(settings)
    kraus = loss_channel(eta, cutoff)
    n, d = settings.shape[1], kraus[0].shape[0]
    basis = _unpack(np.eye((n * d) ** 2)).reshape(-1, n, d, n, d)
    seen = np.einsum("sa,kambn,sb->ksmn", settings.conj(), basis, settings)
    lossy = sum(K @ seen @ K.conj().T for K in kraus)
    m = _pack(lossy).reshape(len(basis), -1).T
    m.flags.writeable = False
    return m


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of the ascending w onto the probability simplex.

    The shift is (sum of the k largest - 1) / k at the last k where the
    k-th largest exceeds it. For the few eigenvalues of a fit, plain floats
    cost a fraction of numpy's per-call overhead, and the same sequential
    sums and divisions give the same bits.
    """
    values = w.tolist()
    total = shift = 0.0
    for k, u in enumerate(reversed(values), 1):
        total += u
        trial = (total - 1.0) / k
        if u > trial:
            shift = trial
    return np.array([v - shift if v > shift else 0.0 for v in values])


def _project_density(h: np.ndarray) -> np.ndarray:
    """Packed density matrix nearest (Frobenius) to the packed Hermitian h."""
    w, v = np.linalg.eigh(_unpack(h))
    return _pack((v * _project_simplex(w)) @ v.conj().T)


class _Likelihood:
    """L(rho) of per-setting feature rows feats (S, N_s, d^2) read through to_setting.

    Products over the rows run block by block and add in _blocks order, so no
    result depends on the BLAS thread count: OpenBLAS runs a product on one
    thread while rows x d^2 < 460,800, true of every block for d^2 <= 112 (a
    single-mode cutoff up to 9, a joint one up to 4).
    """

    def __init__(self, feats: np.ndarray, to_setting: np.ndarray) -> None:
        self.feats, self.to_setting = feats, to_setting
        self.feats_t = feats.transpose(0, 2, 1)
        self.blocks = list(_blocks(feats.shape[1]))
        self.n = feats.shape[0] * feats.shape[1]
        self.dim = math.isqrt(to_setting.shape[1])

    def _born(self, x: np.ndarray) -> np.ndarray:
        """Tr[Pi_j X] (S, N_s, 1) of the packed Hermitian x, one pass over the rows."""
        y = (self.to_setting @ x).reshape(len(self.feats), -1, 1)
        out = np.empty(self.feats.shape[:2] + (1,))
        for b in self.blocks:
            np.matmul(self.feats[:, b], y, out=out[:, b])
        return out

    def probs(self, x: np.ndarray) -> np.ndarray:
        """Born probabilities p (S, N_s, 1) of packed rho x, floored at _P_FLOOR."""
        p = self._born(x)
        return np.maximum(p, _P_FLOOR, out=p)

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Packed R = (1/N) sum_j Pi_j / p_j, the gradient of L/N."""
        w = 1.0 / self.n / p
        r = functools.reduce(np.add, (self.feats_t[:, :, b] @ w[:, b] for b in self.blocks))
        return self.to_setting.T @ r.ravel()

    def gap(self, grad: np.ndarray) -> float:
        """N (lambda_max(R) - 1) >= L* - L; zero only up to rounding at the optimum."""
        lam = float(np.linalg.eigvalsh(_unpack(grad))[-1])
        return max(0.0, self.n * (lam - 1.0))

    def top_weights(self, grad: np.ndarray) -> np.ndarray:
        """Weights c_j = Tr[Pi_j v v^dagger] (S, N_s, 1) of the top unit eigenvector v of R."""
        v = np.linalg.eigh(_unpack(grad))[1][:, -1]
        return self._born(_pack(np.outer(v, v.conj())))

    def screen(self, weights: np.ndarray, p: np.ndarray) -> bool:
        """Whether the weights of a unit vector v show gap >= GAP_TOL at unfloored p.

        For every unit v, gap = N (lambda_max(R) - 1) >= N (v^dagger R v - 1)
        = sum_j c_j / p_j - N = low, with no pass over the rows. R and low
        read the same computed p, so a wrong answer needs the rounding of
        low and of the gap the loop would compute to exceed the margin
        N eps (low + 3 N), each N-term sum rounded by at most N eps times
        the sum of its terms' sizes: low + N for the nonnegative c_j / p_j,
        N for the gradient's sums behind a gap below GAP_TOL (their terms
        add to N lambda_max < N + GAP_TOL), and N for the rounding of c and
        of v's unit norm.
        """
        low = float((weights / p).sum()) - self.n
        return low - self.n * _EPS * (low + 3.0 * self.n) > GAP_TOL


def _likelihood(datasets, settings: np.ndarray, opts: ReconstructionOptions) -> _Likelihood:
    """The likelihood p_sj = Tr[P_j E(<s|rho|s>)] of one dataset per setting s.

    The rows are the packed bare projectors P_j and E is the loss at
    opts.eta_correction.
    """
    # one block of samples at a time keeps the complex projector stack small
    feats = np.empty((len(datasets), len(datasets[0]), (opts.cutoff + 1) ** 2))
    for rows, ds in zip(feats, datasets):
        for block in _blocks(len(ds)):
            v = _sample_vectors(ds.theta[block], ds.x[block], opts.cutoff)
            rows[block] = _pack(v[:, :, None] * v[:, None, :].conj())
    key = tuple(map(tuple, settings.tolist()))
    lik = _Likelihood(feats, _measurement_map(key, opts.eta_correction, opts.cutoff))
    # Tr[rho Pi_j] <= Tr Pi_j = p_j(I), so a sample floored at I is floored for every rho
    dead = int(np.count_nonzero(lik.probs(_pack(np.eye(lik.dim))) <= _P_FLOOR))
    if dead:
        far = max(float(np.abs(ds.x).max()) for ds in datasets)
        raise ValueError(
            f"{dead} of {lik.n} samples lie beyond the reach of "
            f"cutoff {opts.cutoff} (largest |x| {far:.6g}): no state at that cutoff gives "
            "them a nonzero probability"
        )
    return lik


def _run_maxlik(
    lik: _Likelihood, opts: ReconstructionOptions, reg: ModeRegister
) -> ReconstructionResult:
    """Maximise lik over density matrices by accelerated projected gradient.

    An accepted iterate x is certified lazily: the next step comes first.
    L is concave, so gap(x) >= L* - L(x) >= L(x_new) - L(x); a step that
    gains more than GAP_TOL, beyond the rounding of the sums on either
    side, shows that x cannot stop, and its gap is never computed. Otherwise
    the gap is computed, and if x passes, the step is dropped with the
    rejections it counted. A momentum restart needs the gradient at x
    anyway, and a floored x never stops.

    Before that gap, a screen tries the top eigenvector v of R at the last
    such gap that did not stop: v's weights c bound gap(x) from below at the
    cost of one divide and sum over the samples, and a bound above GAP_TOL
    skips the certificate. A gap that is computed there and does not stop
    the fit refreshes v and c (one eigh and one pass over the rows). The gap
    of a momentum restart does not refresh them: on pipeline fits that cost
    more refresh passes than it saved gradient passes.
    """
    x = _pack(np.eye(lik.dim) / lik.dim)
    p = lik.probs(x)
    loglik = float(np.log(p).sum())
    grad, gap = None, math.inf  # grad is None while x is uncertified
    top = None  # the screen's weights c, None until a lazily computed gap does not stop
    trace = [loglik]
    x_prev, p_prev = x, p
    theta, step = 1.0, _STEP_INIT
    rejected = 0
    iterations = 0
    while iterations < opts.max_iter:
        floored = p.min() <= _P_FLOOR
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
            if grad is None:
                grad = lik.gradient(p)
                gap = lik.gap(grad)
                if gap < GAP_TOL and not floored:
                    break
            y, loglik_y, grad_y = x, loglik, grad
        rejected_before = rejected
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
        if grad is None and not floored:
            gain = loglik_new - loglik
            if gain > GAP_TOL:
                # each side is a sum of N terms, rounded by at most N eps times
                # the sum of their sizes: sum |log p| <= -L + 2 N max(0, log max p)
                # for the two log-likelihoods, and about N for the gap's gradient
                peak = max(0.0, math.log(max(p.max(), p_new.max())))
                sizes = 4.0 * lik.n * peak - loglik - loglik_new + lik.n
                gain -= lik.n * _EPS * sizes
            if gain <= GAP_TOL and (top is None or not lik.screen(top, p)):
                grad = lik.gradient(p)
                gap = lik.gap(grad)
                if gap < GAP_TOL:
                    rejected = rejected_before  # x stops: drop the step
                    break
                top = lik.top_weights(grad)
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
        grad = None
    if grad is None:
        gap = lik.gap(lik.gradient(p))
    floored = int(np.count_nonzero(p <= _P_FLOOR))  # p of the accepted rho
    return ReconstructionResult(
        DensityMatrix(reg, _unpack(x)), iterations, trace,
        gap < GAP_TOL and not floored, opts.eta_correction, floored, rejected, gap,
    )


def maxlik_reconstruct(
    data: QuadratureDataset, opts: ReconstructionOptions = ReconstructionOptions()
) -> ReconstructionResult:
    """Reconstruct a single-mode state from quadrature samples."""
    if len(data) == 0:
        raise ValueError("cannot reconstruct from an empty dataset")
    lik = _likelihood([data], np.ones((1, 1)), opts)
    reg = ModeRegister((_FOCK_MODE,), (opts.cutoff,))
    return _run_maxlik(lik, opts, reg)


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
    settings = np.array([[q.a, q.b] for q in INPUT_STATES.values()], dtype=complex)
    lik = _likelihood([datasets[name] for name in INPUT_STATES], settings, opts)
    reg = ModeRegister(("D_pol", _FOCK_MODE), (1, opts.cutoff))
    return _run_maxlik(lik, opts, reg)


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
    variance-1/2 convention, normalized so the full plane integrates to 1.
    With a = sqrt(2) (q + ip), W = sum_m rho_mm W_mm + 2 sum_{m<n}
    Re(rho_mn W_mn) over the number-basis kernels, built by the two-term
    recurrence from the vacuum Gaussian (Leonhardt 1997; QuTiP's
    iterative method): W_00 = e^{-|a|^2/2}/pi, W_0n = a W_0,n-1/sqrt(n),
    and W_mn = (a* W_m-1,n - sqrt(n) W_m-1,n-1)/sqrt(m) for n >= m.
    """
    if rho.register.n_modes != 1:
        raise ValueError(f"Wigner model is single-mode; got {rho.register.labels}")
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if q.size == 0 or p.size == 0:
        raise ValueError("empty Wigner grid")
    qq, pp = np.meshgrid(q, p, indexing="ij")
    a = math.sqrt(2.0) * (qq + 1j * pp)
    d = rho.matrix.shape[0]
    root_n = np.sqrt(np.arange(d))[:, None, None]
    # kern[n] holds W_mn for the current row m; entries n < m are stale
    kern = np.empty((d,) + a.shape, dtype=complex)
    kern[0] = np.exp(-(qq * qq + pp * pp)) / math.pi
    for n in range(1, d):
        kern[n] = a * kern[n - 1] / root_n[n]
    out = np.zeros_like(qq)
    for m in range(d):
        if m:
            kern[m:] = (a.conj() * kern[m:] - root_n[m:] * kern[m - 1 : -1]) / root_n[m]
        out += np.real(rho.matrix[m, m]) * np.real(kern[m])
        out += 2.0 * np.real(np.tensordot(rho.matrix[m, m + 1 :], kern[m + 1 :], axes=1))
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
