"""Engine regression pins and seeded invariants.

`engine_pins.json` holds numbers computed by the sparse dict-of-tuples engine
that the dense-tensor engine replaced. Density matrices must agree to 1e-12
absolute, probabilities to 1e-12 relative.
"""

import json
import os

import numpy as np
import pytest

from railbridge.elements import apply_pair_map
from railbridge.fock import ModeRegister, PureState, norm, normalize
from railbridge.protocol import (
    INPUT_STATES,
    SourceParams,
    click_pattern_distribution,
    swap_entanglement,
    teleport,
)

with open(os.path.join(os.path.dirname(__file__), "engine_pins.json")) as fh:
    PINS = json.load(fh)

TOL = 1e-12


def assert_rel(got, want):
    assert abs(got - want) <= TOL * abs(want), (got, want)


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_teleport_matches_pins(cutoff):
    for name, chi in INPUT_STATES.items():
        pin = PINS["teleport"][str(cutoff)][name]
        rho, p = teleport(chi, SourceParams(), cutoff=cutoff)
        want = np.asarray(pin["re"]) + 1j * np.asarray(pin["im"])
        assert np.max(np.abs(rho.matrix - want)) <= TOL, name
        assert_rel(p, pin["probability"])


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_swap_probability_matches_pins(cutoff):
    _, p = swap_entanglement(SourceParams(), cutoff=cutoff)
    assert_rel(p, PINS["swap_probability"][str(cutoff)])


def test_click_distribution_matches_pins():
    dist = click_pattern_distribution(INPUT_STATES["D"], SourceParams(), cutoff=3)
    pins = PINS["click_distribution_D_c3"]
    assert sorted("".join(map(str, k)) for k in dist) == sorted(pins)
    for bits, p in dist.items():
        assert_rel(p, pins["".join(map(str, bits))])


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_pair_map_preserves_norm_of_bounded_states(cutoff):
    # a 2x2 unitary conserves the photon number of its pair, so a state with
    # at most `cutoff` photons in the pair never leaves the truncated space
    rng = np.random.default_rng(500 + cutoff)
    reg = ModeRegister.uniform(["a", "s", "b"], cutoff)
    for _ in range(5):
        amps = {
            occ: complex(rng.normal(), rng.normal())
            for occ in np.ndindex(reg.dims)
            if occ[0] + occ[2] <= cutoff
        }
        psi = normalize(PureState(reg, amps))
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U, _ = np.linalg.qr(z)
        out = apply_pair_map(psi, "a", "b", U)
        assert abs(norm(out) - 1.0) < 1e-12
        back = apply_pair_map(out, "a", "b", U.conj().T)
        assert np.max(np.abs(back.dense() - psi.dense())) < 1e-12
