"""Core Fock-space algebra: registers, amplitude tensors, channels, serialization."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from railbridge import fock
from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    NullOutcomeError,
    PureState,
    density_from_json_dict,
    density_to_json_dict,
    loss_channel,
    normalize,
    project,
    project_density,
    tensor,
    to_density,
    vacuum,
)
from railbridge.elements import coherent_state

from oracles import embed_operator, partial_trace


def random_pure(rng, labels, cutoff, n_terms=None):
    reg = ModeRegister.uniform(labels, cutoff)
    basis = list(np.ndindex(reg.dims))
    if n_terms is None:
        n_terms = len(basis)
    picks = rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False)
    amps = {}
    for i in picks:
        amps[basis[i]] = complex(rng.normal(), rng.normal())
    return normalize(PureState(reg, amps))


def random_density(rng, labels, cutoff, rank=3):
    reg = ModeRegister.uniform(labels, cutoff)
    d = reg.dim
    rho = np.zeros((d, d), dtype=complex)
    for _ in range(rank):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho += np.outer(v, v.conj())
    rho /= np.trace(rho).real
    return DensityMatrix(reg, rho)


# ---------------------------------------------------------------- registers


def test_register_basis_order_is_lexicographic():
    reg = ModeRegister(("a", "b"), (1, 2))
    basis = list(np.ndindex(reg.dims))
    assert basis == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, occ in enumerate(basis):
        # dense() puts each occupation at its row-major index
        assert np.ravel_multi_index(occ, reg.dims) == i
        flat = PureState(reg, {occ: 1.0}).dense()
        assert flat[i] == 1.0 and np.count_nonzero(flat) == 1


def test_register_rejects_duplicates_and_bad_cutoffs():
    with pytest.raises(ValueError):
        ModeRegister.uniform(["a", "a"], 2)
    with pytest.raises(ValueError):
        ModeRegister(("a",), (0,))


def test_register_per_mode_cutoffs():
    reg = ModeRegister(("pol", "B"), (1, 4))
    assert reg.dims == (2, 5)
    assert reg.dim == 10
    assert reg.cutoff_of("B") == 4


# ------------------------------------------------------------ normalization


def test_normalize_unit_norm_and_phase_convention():
    reg = ModeRegister.uniform(["a"], 2)
    psi = PureState(reg, {(0,): -2.0 + 0.0j, (1,): 2.0j})
    out = normalize(psi)
    assert abs(fock.norm(out) - 1.0) < 1e-12
    # first lexicographic amplitude rotated to the positive real axis
    assert out.array[0].real > 0.0
    assert abs(out.array[0].imag) < 1e-15
    assert abs(out.array[1] - (-1j) / math.sqrt(2)) < 1e-12


def test_normalize_prunes_tiny_entries():
    reg = ModeRegister.uniform(["a"], 2)
    psi = PureState(reg, {(0,): 1.0 + 0.0j, (2,): 1e-16 + 0.0j})
    assert normalize(psi).array[2] == 0.0


def test_normalize_takes_the_phase_from_the_first_kept_amplitude():
    # 5e-15 is below PRUNE_TOL but far above PRUNE_TOL times the norm, so it
    # is kept and must be the real, non-negative reference
    reg = ModeRegister(("a",), (1,))
    out = normalize(PureState(reg, np.array([5e-15, 1e-3j]))).array
    assert out[0].real > 0.0 and abs(out[0].imag) < 1e-15 * abs(out[0])
    assert abs(out[1] - 1j) < 1e-12


def test_normalize_reads_a_transposed_state_like_its_contiguous_copy():
    rng = np.random.default_rng(5)
    reg = ModeRegister(("a", "b", "c"), (2, 3, 1))
    view = (rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))).transpose(2, 1, 0)
    # a zero first row, an entry to prune and a reference past index 0
    view[0, 0] = 0.0
    view[0, 1, 0] = 1e-17
    assert not view.flags.c_contiguous
    out = normalize(PureState(reg, view)).array
    ref = normalize(PureState(reg, np.ascontiguousarray(view))).array
    assert out.shape == reg.dims
    np.testing.assert_array_equal(out == 0.0, ref == 0.0)
    assert out[0, 1, 0] == 0.0
    assert out[0, 1, 1].real > 0.0 and abs(out[0, 1, 1].imag) < 1e-15
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)


def test_normalize_zero_state_raises():
    reg = ModeRegister.uniform(["a"], 1)
    with pytest.raises(NullOutcomeError):
        normalize(PureState(reg, {}))


# ----------------------------------------------------------------- tensor


def test_tensor_vacuum_is_vacuum():
    a = vacuum(ModeRegister.uniform(["a"], 2))
    b = vacuum(ModeRegister.uniform(["b"], 2))
    ab = tensor(a, b)
    assert ab.array[0, 0] == 1.0
    assert np.count_nonzero(ab.array) == 1


def test_tensor_rejects_shared_labels():
    a = vacuum(ModeRegister.uniform(["a"], 1))
    with pytest.raises(ValueError):
        tensor(a, vacuum(ModeRegister.uniform(["a"], 1)))


def test_tensor_norm_is_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = random_pure(rng, ["x"], 2)
        b = random_pure(rng, ["y", "z"], 1)
        sa = PureState(a.register, 0.5 * a.array)
        assert abs(fock.norm(tensor(sa, b)) - fock.norm(sa) * fock.norm(b)) < 1e-12


# ---------------------------------------------------------------- project


def test_project_recovers_tensor_factor():
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = random_pure(rng, ["x", "y"], 2, n_terms=4)
        b = random_pure(rng, ["u"], 2)
        remainder, p = project(tensor(a, b), b)
        assert abs(p - 1.0) < 1e-12
        assert np.max(np.abs(remainder.array - a.array)) < 1e-12


def test_project_on_orthogonal_component_raises_null():
    reg = ModeRegister.uniform(["a"], 1)
    psi = PureState(reg, {(0,): 1.0 + 0.0j})
    bra = PureState(reg, {(1,): 1.0 + 0.0j})
    with pytest.raises(NullOutcomeError):
        project(psi, bra)


def test_project_probability_born_rule():
    # <+| on (|0> + i|1>)/sqrt(2): amplitude (1 + i)/2, probability 1/2
    reg = ModeRegister.uniform(["a"], 1)
    psi = normalize(PureState(reg, {(0,): 1.0 + 0.0j, (1,): 1.0j}))
    bra = normalize(PureState(reg, {(0,): 1.0 + 0.0j, (1,): 1.0 + 0.0j}))
    _, p = project(psi, bra)
    assert abs(p - 0.5) < 1e-12


# ------------------------------------------------------- densities, traces


def test_to_density_and_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = random_pure(rng, ["x"], 2)
    b = random_pure(rng, ["y"], 2)
    rho = to_density(tensor(a, b))
    ra = partial_trace(rho, ["x"])
    assert abs(np.trace(ra.matrix).real - 1.0) < 1e-12
    expected = to_density(a).matrix
    assert np.max(np.abs(ra.matrix - expected)) < 1e-12


def test_partial_trace_of_entangled_pair_is_maximally_mixed():
    reg = ModeRegister.uniform(["a", "b"], 1)
    bell = normalize(PureState(reg, {(0, 1): 1.0 + 0.0j, (1, 0): 1.0 + 0.0j}))
    ra = partial_trace(to_density(bell), ["a"])
    assert np.max(np.abs(ra.matrix - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_keep_order_controls_output_order():
    rng = np.random.default_rng(9)
    psi = random_pure(rng, ["x", "y"], 1, n_terms=4)
    rho = to_density(psi)
    xy = partial_trace(rho, ["x", "y"]).matrix
    yx = partial_trace(rho, ["y", "x"]).matrix
    # swapping the two qubit-size modes permutes basis index 1 <-> 2
    perm = [0, 2, 1, 3]
    assert np.max(np.abs(yx - xy[np.ix_(perm, perm)])) < 1e-12


# ----------------------------------------------------------------- channels


def apply_kraus(matrix, kraus):
    return sum(K @ matrix @ K.conj().T for K in kraus)


def trace_preserving(kraus):
    d = kraus[0].shape[1]
    s = sum(K.conj().T @ K for K in kraus)
    return bool(np.max(np.abs(s - np.eye(d))) <= 1e-12)


def test_loss_channel_is_trace_preserving_exactly():
    for eta in (0.0, 0.3, 0.5, 1.0):
        assert trace_preserving(loss_channel(eta, cutoff=4))


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_loss_channel_trace_preserving_on_random_states(cutoff):
    rng = np.random.default_rng(600 + cutoff)
    n = np.diag(np.arange(cutoff + 1.0))
    for _ in range(25):
        eta = float(rng.uniform(0.0, 1.0))
        kraus = loss_channel(eta, cutoff)
        assert trace_preserving(kraus)
        rho = random_density(rng, ["a"], cutoff, rank=int(rng.integers(1, cutoff + 2)))
        out = apply_kraus(rho.matrix, kraus)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
        # each photon survives with probability eta
        mean_in = np.real(np.trace(n @ rho.matrix))
        assert abs(np.real(np.trace(n @ out)) - eta * mean_in) < 1e-12


def test_loss_channel_eta_one_is_identity():
    kraus = loss_channel(1.0, cutoff=3)
    assert len(kraus) == 1
    assert np.array_equal(kraus[0], np.eye(4))


def test_loss_channel_rejects_bad_eta():
    with pytest.raises(ValueError):
        loss_channel(1.2, cutoff=2)
    with pytest.raises(ValueError):
        loss_channel(-0.1, cutoff=2)


def test_loss_on_single_photon():
    reg = ModeRegister.uniform(["a"], 2)
    rho = to_density(PureState(reg, {(1,): 1.0 + 0.0j}))
    out = apply_kraus(rho.matrix, loss_channel(0.5, 2))
    assert np.max(np.abs(out - np.diag([0.5, 0.5, 0.0]))) < 1e-12


def test_loss_composition_multiplies_transmissions():
    rng = np.random.default_rng(13)
    rho = random_density(rng, ["a"], 4)
    stepwise = rho.matrix
    for eta in (0.80, 0.81, 0.86):
        stepwise = apply_kraus(stepwise, loss_channel(eta, 4))
    single = apply_kraus(rho.matrix, loss_channel(0.80 * 0.81 * 0.86, 4))
    assert np.max(np.abs(stepwise - single)) < 1e-12


def test_loss_on_coherent_state_scales_alpha():
    # loss(eta) |alpha><alpha| = |sqrt(eta) alpha><sqrt(eta) alpha|
    alpha, eta, cutoff = 0.8, 0.6, 12
    rho = to_density(normalize(coherent_state("a", alpha, cutoff)))
    lossy = apply_kraus(rho.matrix, loss_channel(eta, cutoff))
    target = normalize(coherent_state("a", math.sqrt(eta) * alpha, cutoff)).dense()
    overlap = np.real(target.conj() @ lossy @ target)
    assert abs(overlap - 1.0) < 1e-8


def test_channel_positivity_and_trace_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(rng, ["a", "b"], 2)
        kraus = loss_channel(rng.uniform(0.2, 0.9), 2)
        lifted = [embed_operator(K, rho.register, ["b"]) for K in kraus]
        out = apply_kraus(rho.matrix, lifted)
        assert abs(np.real(np.trace(out)) - 1.0) < 1e-10
        w = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
        assert w.min() > -1e-12


# ------------------------------------------------------------ sparse vs dense


def quadratic_lift(h: np.ndarray, reg: ModeRegister) -> np.ndarray:
    """Matrix of sum_ij h_ij a_i^dag a_j on the truncated register basis."""
    basis = list(np.ndindex(reg.dims))
    index = {occ: i for i, occ in enumerate(basis)}
    G = np.zeros((len(basis), len(basis)), dtype=complex)
    n_modes = reg.n_modes
    for occ in basis:
        for i in range(n_modes):
            for j in range(n_modes):
                if h[i, j] == 0.0:
                    continue
                if i == j:
                    G[index[occ], index[occ]] += h[i, i] * occ[i]
                    continue
                if occ[j] == 0 or occ[i] + 1 > reg.cutoffs[i]:
                    continue
                new = list(occ)
                new[j] -= 1
                new[i] += 1
                amp = math.sqrt(occ[j]) * math.sqrt(occ[i] + 1)
                G[index[tuple(new)], index[occ]] += h[i, j] * amp
    return G


def test_sparse_pair_map_matches_exponential_lift():
    """Dual-route check: binomial transition amplitudes vs expm of the
    second-quantized generator, on states clear of the cutoff edge."""
    from railbridge.elements import apply_pair_map

    rng = np.random.default_rng(23)
    cutoff = 4
    reg = ModeRegister.uniform(["a", "b"], cutoff)
    basis = list(np.ndindex(reg.dims))
    for _ in range(4):
        # random 2x2 unitary via Hermitian generator
        h2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h2 = 0.5 * (h2 + h2.conj().T)
        U = scipy.linalg.expm(1j * h2)
        big = scipy.linalg.expm(1j * quadratic_lift(h2, reg))
        # state limited to total photon number <= cutoff: closed under the lift
        amps = {}
        for occ in basis:
            if sum(occ) <= cutoff:
                amps[occ] = complex(rng.normal(), rng.normal())
        psi = normalize(PureState(reg, amps))
        expected = big @ psi.dense()
        got = apply_pair_map(psi, "a", "b", U).dense()
        assert np.max(np.abs(expected - got)) < 1e-10


# ------------------------------------------------------------- serialization


def test_density_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(29)
    rho = random_density(rng, ["a", "b"], 2)
    blob = json.dumps(density_to_json_dict(rho))
    back = density_from_json_dict(json.loads(blob))
    assert back.register == rho.register
    assert np.array_equal(back.matrix, rho.matrix)
    # serialization is stable under a second round trip
    assert json.dumps(density_to_json_dict(back)) == blob


def test_density_json_uniform_cutoff_is_scalar():
    rho = to_density(vacuum(ModeRegister.uniform(["a", "b"], 2)))
    obj = density_to_json_dict(rho)
    assert obj["cutoff"] == 2
    mixed = to_density(vacuum(ModeRegister(("pol", "B"), (1, 4))))
    assert density_to_json_dict(mixed)["cutoff"] == [1, 4]


def test_density_json_cutoff_and_labels_types():
    # the density-1 schema's "integer" admits 2.0; fractions, bools and
    # labels that are not a list of strings are refused, not coerced
    obj = density_to_json_dict(to_density(vacuum(ModeRegister.uniform(["a", "b"], 2))))
    for cutoff in (2.0, [2, 2.0]):
        assert density_from_json_dict(dict(obj, cutoff=cutoff)).register.cutoffs == (2, 2)
    for cutoff in (2.5, [2, 1.5], True, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            density_from_json_dict(dict(obj, cutoff=cutoff))
    for labels in ("ab", ["a", 2], None):
        with pytest.raises(ValueError, match="not a list of strings"):
            density_from_json_dict(dict(obj, labels=labels))


def test_density_validate_flags_bad_matrices():
    reg = ModeRegister.uniform(["a"], 1)
    good = to_density(vacuum(reg))
    good.validate()
    with pytest.raises(ValueError):
        DensityMatrix(reg, np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)).validate()
    with pytest.raises(ValueError):
        DensityMatrix(reg, 2.0 * np.eye(2, dtype=complex)).validate()
    with pytest.raises(ValueError):
        DensityMatrix(
            reg, np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        ).validate()


def test_project_density_matches_pure_projection():
    rng = np.random.default_rng(31)
    for labels in (["a"], ["a", "c"]):
        state = random_pure(rng, ["a", "b", "c"], 2)
        bra = random_pure(rng, labels, 2)
        rem, p = project(state, bra)
        rho_rem, p_rho = project_density(to_density(state), bra)
        assert abs(p - p_rho) < 1e-12
        assert rho_rem.register == rem.register
        vec = rem.dense()
        assert np.max(np.abs(rho_rem.matrix - np.outer(vec, vec.conj()))) < 1e-12


def test_project_density_mixed_state_and_null():
    rng = np.random.default_rng(37)
    rho = random_density(rng, ["a", "b"], 1)
    bra_reg = ModeRegister(("a",), (1,))
    outs = []
    for occ in ((0,), (1,)):
        cond, p = project_density(rho, PureState(bra_reg, {occ: 1.0 + 0.0j}))
        assert p > 0
        outs.append((cond, p))
    # the two orthogonal outcomes decompose the reduced state on "b"
    total = outs[0][0].matrix + outs[1][0].matrix
    assert np.max(np.abs(total - partial_trace(rho, ["b"]).matrix)) < 1e-12
    empty = PureState(bra_reg, {(1,): 1.0 + 0.0j})
    pure = to_density(vacuum(ModeRegister.uniform(["a", "b"], 1)))
    with pytest.raises(NullOutcomeError):
        project_density(pure, empty)
    with pytest.raises(ValueError):
        project_density(rho, PureState(ModeRegister(("a",), (2,)), {(0,): 1.0}))
