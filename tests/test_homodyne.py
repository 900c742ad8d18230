import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import eval_hermite, factorial
from scipy.stats import kstest

from railbridge.fock import DensityMatrix, ModeRegister, PureState, to_density
from railbridge.homodyne import (
    DEFAULT_GRID,
    GridError,
    _cumulative_kernel,
    PhaseEstimate,
    QuadratureDataset,
    hermite_functions,
    phase_accuracy_curve,
    phase_estimate,
    sample,
    wrap_phase,
)

from oracles import quadrature_pdf

XGRID = np.linspace(*DEFAULT_GRID[:2], DEFAULT_GRID[2])


def single_mode(amps, cutoff=1):
    reg = ModeRegister(("B",), (cutoff,))
    return to_density(PureState(reg, {(n,): complex(a) for n, a in enumerate(amps)}))


def random_density(rng, cutoff=4):
    reg = ModeRegister(("B",), (cutoff,))
    v1 = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    v2 = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    v1 /= np.linalg.norm(v1)
    v2 /= np.linalg.norm(v2)
    w = rng.uniform(0.2, 0.8)
    return DensityMatrix(reg, w * np.outer(v1, v1.conj()) + (1 - w) * np.outer(v2, v2.conj()))


def grid_integral(values):
    return float(np.trapezoid(values, XGRID))


def cmath_exp(phi):
    return complex(math.cos(phi), math.sin(phi))


def test_hermite_functions_match_closed_form():
    # psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi))
    x = np.linspace(-5.0, 5.0, 201)
    psi = hermite_functions(10, x)
    for n in range(11):
        ref = (
            eval_hermite(n, x)
            * np.exp(-0.5 * x * x)
            / math.sqrt(2.0**n * float(factorial(n)) * math.sqrt(math.pi))
        )
        assert np.max(np.abs(psi[n] - ref)) < 1e-10


def test_vacuum_pdf_is_gaussian_variance_half():
    pdf = quadrature_pdf(single_mode([1.0]), 0.7)
    vals = pdf(XGRID)
    ref = np.exp(-XGRID * XGRID) / math.sqrt(math.pi)
    assert np.max(np.abs(vals - ref)) < 1e-12
    assert abs(grid_integral(vals) - 1.0) < 1e-6
    assert abs(grid_integral(vals * XGRID**2) - 0.5) < 1e-6


def test_single_photon_pdf_dips_to_zero():
    pdf = quadrature_pdf(single_mode([0.0, 1.0]), 0.0)
    vals = pdf(XGRID)
    ref = 2.0 * XGRID**2 * np.exp(-XGRID * XGRID) / math.sqrt(math.pi)
    assert np.max(np.abs(vals - ref)) < 1e-12
    assert pdf(0.0) < 1e-12


def test_superposition_pdfs_mirror_under_theta_pi():
    rho = single_mode([1 / math.sqrt(2), 1 / math.sqrt(2)])
    p0 = quadrature_pdf(rho, 0.0)(XGRID)
    ppi = quadrature_pdf(rho, math.pi)(XGRID)
    assert np.max(np.abs(p0 - ppi[::-1])) < 1e-12
    # skewed: the interference term moves weight to positive x at theta=0
    assert grid_integral(p0 * XGRID) > 0.5


def test_pdf_positive_and_normalized_for_random_states():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = random_density(rng, cutoff=4)
        pdf = quadrature_pdf(rho, rng.uniform(0, 2 * math.pi))
        vals = pdf(XGRID)
        assert vals.min() >= -1e-12
        assert abs(grid_integral(vals) - 1.0) < 1e-6


def test_pdf_phase_covariance():
    rng = np.random.default_rng(3)
    reg = ModeRegister(("B",), (4,))
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps /= np.linalg.norm(amps)
    pure = PureState(reg, {(n,): complex(a) for n, a in enumerate(amps)})
    phi, theta = 0.7, 1.1
    # phase shift by phi: the n-photon amplitude picks up e^{i n phi}
    shifted = to_density(PureState(reg, pure.array * np.exp(1j * phi * np.arange(5))))
    lhs = quadrature_pdf(shifted, theta)(XGRID)
    rhs = quadrature_pdf(to_density(pure), theta - phi)(XGRID)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mean_quadrature_follows_source_phase():
    # one-photon amplitude e^{-i phi} -> <X_theta> = cos(theta + phi)/sqrt(2)
    phi = 0.9
    rho = single_mode([1 / math.sqrt(2), cmath_exp(-phi) / math.sqrt(2)])
    for theta in (0.0, 0.4, 1.3, 2.9):
        mean = grid_integral(quadrature_pdf(rho, theta)(XGRID) * XGRID)
        assert abs(mean - math.cos(theta + phi) / math.sqrt(2)) < 1e-5


def test_sample_vacuum_variance():
    ds = sample(single_mode([1.0]), 100_000, seed=5)
    xs = ds.x
    assert abs(xs.var() - 0.5) < 0.01
    assert abs(xs.mean()) < 0.01


def test_sample_lossy_photon_mixture_variance():
    # eta=0.5 on |1> gives the half vacuum half photon mixture, variance 1.0
    ds = sample(single_mode([0.0, 1.0]), 100_000, eta=0.5, seed=6)
    assert abs(ds.x.var() - 1.0) < 0.02
    assert ds.eta_assumed == 0.5


def test_sample_same_seed_identical_bytes(tmp_path):
    rho = single_mode([0.6, 0.8])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sample(rho, 500, seed=42).write_csv(a)
    sample(rho, 500, seed=42).write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    assert sample(rho, 500, seed=43).x[0] != sample(rho, 500, seed=42).x[0]


def test_cumulative_kernel_bit_equal_to_scipy():
    # the CDF table, hence every sample, must not move with the rewrite
    for d in range(2, 6):
        psi = hermite_functions(d - 1, XGRID)
        kernel = (psi[:, None, :] * psi[None, :, :]).reshape(d * d, -1)
        ref = cumulative_trapezoid(kernel, x=XGRID, axis=1, initial=0.0)
        assert np.array_equal(_cumulative_kernel(psi, XGRID), ref), d


def test_sample_phases_uniform_ks():
    ds = sample(single_mode([0.6, 0.8]), 2000, seed=9)
    stat = kstest(ds.theta / (2 * math.pi), "uniform").statistic
    assert stat < 0.05


def test_sample_rejects_bad_grid_and_modes():
    # |20> spreads past the fixed +-6 grid, whose CDF then misses 0.198
    with pytest.raises(GridError, match="grid integral"):
        sample(single_mode([0.0] * 20 + [1.0], cutoff=20), 10, seed=0)
    with pytest.raises(ValueError):
        sample(single_mode([1.0]), 0)
    # numpy would take True as 1 row and reject 2.5 with its own TypeError
    for count in (True, 2.5):
        with pytest.raises(ValueError, match="n_samples"):
            sample(single_mode([1.0]), count)
    reg = ModeRegister(("A", "B"), (1, 1))
    two = DensityMatrix(reg, np.eye(4) / 4)
    with pytest.raises(ValueError):
        quadrature_pdf(two, 0.0)


def test_csv_round_trip_and_errors(tmp_path):
    ds = sample(single_mode([0.6, 0.8]), 200, seed=1)
    path = tmp_path / "data.csv"
    ds.write_csv(path)
    back = QuadratureDataset.read_csv(path, eta_assumed=1.0)
    assert back.theta.tolist() == ds.theta.tolist()
    assert back.x.tolist() == ds.x.tolist()

    bad = tmp_path / "bad.csv"
    bad.write_text("theta,x\n0.0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        QuadratureDataset.read_csv(bad)
    bad.write_text("theta_rad,x\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(ValueError, match="line 3"):
        QuadratureDataset.read_csv(bad)
    bad.write_text("theta_rad,x\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="2 fields"):
        QuadratureDataset.read_csv(bad)


def test_dataset_needs_equal_length_1d_arrays():
    with pytest.raises(ValueError, match="equal length"):
        QuadratureDataset(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="1-D"):
        QuadratureDataset(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="1-D"):
        QuadratureDataset(0.1, 0.2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadratureDataset([0.1, 0.2, 0.3], [0.0, bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            QuadratureDataset([0.1, bad, 0.3], [0.0, 0.2, 0.5])


def test_write_csv_exact_bytes(tmp_path):
    # Python float reprs, never numpy scalar reprs such as np.float64(0.1)
    path = tmp_path / "two.csv"
    QuadratureDataset(np.array([0.1, 2 / 3]), np.array([-1.5, 1e-300])).write_csv(path)
    assert path.read_bytes() == b"theta_rad,x\n0.1,-1.5\n0.6666666666666666,1e-300\n"


def test_phase_estimate_exact_on_noiseless_curve():
    phi, amp = 1.234, 0.3
    thetas = np.linspace(0.0, 2 * math.pi, 40, endpoint=False)
    est = phase_estimate(QuadratureDataset(thetas, amp * np.cos(thetas + phi)), window=1)
    assert isinstance(est, PhaseEstimate)
    assert abs(wrap_phase(est.phi - phi)) < 1e-10
    assert abs(est.amplitude - amp) < 1e-10
    assert est.std_error < 1e-8


def test_phase_estimate_monte_carlo_unbiased():
    phi = math.pi / 3
    norm = math.sqrt(1.0 + 0.2**2)
    rho = single_mode([1.0 / norm, 0.2 * cmath_exp(-phi) / norm])
    ds = sample(rho, 10_000, seed=21)
    est = phase_estimate(ds, window=50)
    assert abs(wrap_phase(est.phi - phi)) < 3 * est.std_error


def test_phase_estimate_requires_enough_windows():
    ds = QuadratureDataset(0.1 * np.arange(100), np.zeros(100))
    with pytest.raises(ValueError, match="windows"):
        phase_estimate(ds, window=50)
    with pytest.raises(ValueError):
        phase_estimate(ds, window=0)


def test_wrap_phase_range():
    for delta, want in [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
                        (1.5 * math.pi, -0.5 * math.pi), (-0.3, -0.3)]:
        assert abs(wrap_phase(delta) - want) < 1e-12


def test_phase_accuracy_curve_decreases_with_samples():
    rho = single_mode([1 / math.sqrt(2), 1 / math.sqrt(2)])
    curve = phase_accuracy_curve(rho, 0.0, (200, 3200), window=25, trials=8, seed=2)
    assert [n for n, _ in curve] == [200, 3200]
    assert curve[1][1] < curve[0][1]
    assert curve[1][1] > 0.0
