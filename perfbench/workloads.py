"""The three benchmark workloads: inputs from a seed, one op, its gate.

Every workload is a closed loop with one client: the worker calls `op(k)`
for k = 0, 1, 2, ... back to back. `op` returns the program's outputs and
`check` returns the problems it finds in them (an empty list passes).
`corrupt` damages an op's outputs on purpose so the self-test can show
that the gate counts it. Layers are always reached through module
attributes (`protocol.teleport`, not a local name), so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import replace
from importlib import resources
from typing import Dict, List, Optional

import numpy as np

import railbridge
from railbridge import cli, homodyne, protocol, rates, tomography
from railbridge.fock import (
    DensityMatrix,
    ModeRegister,
    PureState,
    normalize,
    project_density,
    to_density,
)

CUTOFFS = (2, 3, 4)
# the release gate's frozen panel (tests/test_acceptance.py: fixed_state_set)
PANEL_SEED = 314159
PANEL_SIZE = 20
# the release gate fits 100k samples per dataset and asks fidelity >= 0.99
# raw and >= 0.97 corrected. At N samples the bands allow 100k/N times the
# infidelity: 0.95 and 0.85 at 20k. The measured infidelity grows only 2-3x
# from 100k to 20k samples, so a random seed stays further inside the
# scaled bands than inside the release gate's own, while a fit that ignores
# the data (the maximally mixed state scores 1/3) still fails them.
RELEASE_SAMPLES = 100_000
RELEASE_BANDS = (0.99, 0.97)
# 20k samples make an op about 1 s, so a 38 s run holds about 40 ops; at
# 100k an op took 4-9 s, and five ops gave no steady median
PANEL_SAMPLES = 20_000
MC_PULSES = 1_000_000
# three Monte-Carlo checks per op over thousands of ops: at the default 3
# sigma one check in 370 fails by chance, at 5 sigma one in 1.7 million
MC_SIGMA = 5.0
# relative spread of each scan parameter around the bench value
SCAN_SPREAD = 0.1


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part; distinct parts, distinct seeds."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def load_schemas() -> Dict[str, dict]:
    folder = resources.files(railbridge).joinpath("schemas")
    return {
        entry.name: json.loads(entry.read_text(encoding="utf-8"))
        for entry in folder.iterdir()
        if entry.name.endswith(".schema.json")
    }


def _quiet(argv: List[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Pipeline:
    """`railbridge pipeline` at the default config, one fresh seed per op.

    The run's last op repeats op 0's seed and must reproduce its
    pipeline.json byte for byte.
    """

    name = "pipeline"
    repeats_first = True

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.first_report: Optional[bytes] = None

    def op_seed(self, k: int) -> int:
        return derive_seed(self.seed, k) % 2**31

    def op(self, k: int, seed_of: Optional[int] = None) -> dict:
        out = os.path.join(self.work_dir, f"op{k}")
        shutil.rmtree(out, ignore_errors=True)
        seed = self.op_seed(k if seed_of is None else seed_of)
        code = _quiet(["pipeline", "--out", out, "--seed", str(seed)])
        report = None
        if code == 0:
            with open(os.path.join(out, "pipeline.json"), "rb") as fh:
                report = fh.read()
        return {"k": k, "dir": out, "code": code, "report": report,
                "repeat_of": seed_of}

    def repeat_first(self, k: int) -> dict:
        return self.op(k, seed_of=0)

    def check(self, out: dict) -> List[str]:
        shutil.rmtree(out["dir"], ignore_errors=True)
        if out["code"] != 0:
            return [f"pipeline exited with {out['code']}"]
        problems = []
        if out["k"] == 0:
            self.first_report = out["report"]
        if out["repeat_of"] is not None and out["report"] != self.first_report:
            problems.append("pipeline.json differs from op 0's for the same seed")
        swap = json.loads(out["report"])["swap"]
        if not swap["fidelity_corrected"] > 0.8:
            problems.append(f"swap fidelity_corrected {swap['fidelity_corrected']:.4f} <= 0.8")
        if not swap["fidelity_uncorrected"] > 0.55:
            problems.append(
                f"swap fidelity_uncorrected {swap['fidelity_uncorrected']:.4f} <= 0.55"
            )
        if swap["witness_corrected"]["entangled"] is not True:
            problems.append("corrected swap state not certified entangled")
        if not swap["witness_uncorrected"]["fidelity_to_max_entangled"] > 0.5:
            problems.append("uncorrected swap witness overlap <= 0.5")
        return problems

    def corrupt(self, out: dict) -> dict:
        report = json.loads(out["report"])
        report["swap"]["fidelity_corrected"] = 0.5
        return dict(out, report=json.dumps(report).encode())


class TomoPanel:
    """Sample, store, reload and fit one panel state per op.

    The panel is the release gate's `fixed_state_set`: 20 random pure
    states at cutoff 2, drawn from a fixed seed. The workload seed draws
    the homodyne samples. Fit time per state differs by 2x from state to
    state, so a panel drawn from the workload seed would make a run's
    median depend on which states it drew rather than on the code.
    `samples` per dataset defaults to PANEL_SAMPLES; the fidelity bands
    are the release gate's, scaled to it.
    """

    name = "tomo-panel"
    repeats_first = False

    def __init__(self, seed: int, work_dir: str, samples: int = PANEL_SAMPLES) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.samples = samples
        scale = RELEASE_SAMPLES / samples
        self.bands = tuple(1.0 - (1.0 - band) * scale for band in RELEASE_BANDS)
        rng = np.random.default_rng(PANEL_SEED)
        reg = ModeRegister(("B",), (2,))
        self.panel = []
        for _ in range(PANEL_SIZE):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            self.panel.append(to_density(PureState(reg, {(n,): v[n] for n in range(3)})))

    def _round_trip(self, rho: DensityMatrix, eta: float, seed: int, path: str):
        data = homodyne.sample(rho, self.samples, eta=eta, seed=seed)
        data.write_csv(path)
        return homodyne.QuadratureDataset.read_csv(path, eta_assumed=eta)

    def op(self, k: int) -> dict:
        rho = self.panel[k % PANEL_SIZE]
        path = os.path.join(self.work_dir, f"op{k}.csv")
        clean = self._round_trip(rho, 1.0, derive_seed(self.seed, k, 1), path)
        raw = tomography.maxlik_reconstruct(
            clean, tomography.ReconstructionOptions(cutoff=2)
        )
        lossy = self._round_trip(rho, 0.5, derive_seed(self.seed, k, 2), path)
        corrected = tomography.maxlik_reconstruct(
            lossy,
            tomography.ReconstructionOptions(cutoff=2, eta_correction=0.5, max_iter=4000),
        )
        os.remove(path)
        return {
            "target": rho,
            "raw": raw.rho,
            "corrected": corrected.rho,
            "rows": (len(clean), len(lossy)),
        }

    def check(self, out: dict) -> List[str]:
        problems = []
        if out["rows"] != (self.samples, self.samples):
            problems.append(f"read back {out['rows']} rows, wrote {self.samples} each")
        f_raw = tomography.fidelity(out["raw"], out["target"])
        f_cor = tomography.fidelity(out["corrected"], out["target"])
        raw_band, cor_band = self.bands
        if f_raw < raw_band:
            problems.append(f"raw fit fidelity {f_raw:.4f} < {raw_band:.4f}")
        if f_cor < cor_band:
            problems.append(f"corrected fit fidelity {f_cor:.4f} < {cor_band:.4f}")
        return problems

    def corrupt(self, out: dict) -> dict:
        d = out["raw"].matrix.shape[0]
        mixed = DensityMatrix(out["raw"].register, np.eye(d, dtype=complex) / d)
        return dict(out, raw=mixed)


class EngineSweep:
    """One source-parameter point per op, simulated at cutoffs 2, 3 and 4.

    gamma1, gamma23 and eta_d are drawn uniformly within 10 % of the bench
    values, so no two ops share a point. The Monte-Carlo click check runs
    the same point with unit-efficiency counters: at eta_d ~ 0.03 a triple
    has probability ~1e-9 per pulse and a million pulses would see none.
    """

    name = "engine-sweep"
    repeats_first = False

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.bench = protocol.SourceParams()

    def params(self, k: int) -> protocol.SourceParams:
        rng = np.random.default_rng(derive_seed(self.seed, k))
        lo, hi = 1.0 - SCAN_SPREAD, 1.0 + SCAN_SPREAD
        return replace(
            self.bench,
            gamma1=self.bench.gamma1 * rng.uniform(lo, hi),
            gamma23=self.bench.gamma23 * rng.uniform(lo, hi),
            eta_d=self.bench.eta_d * rng.uniform(lo, hi),
        )

    def op(self, k: int) -> dict:
        params = self.params(k)
        states, mc = [], []
        for c in CUTOFFS:
            for name, chi in protocol.INPUT_STATES.items():
                rho, _ = protocol.teleport(chi, params, cutoff=c)
                states.append((c, name, rho))
            rho_swap, _ = protocol.swap_entanglement(params, cutoff=c)
            states.append((c, "swap", rho_swap))
            rates.circuit_consistency(params, cutoff=c)
            mc.append(
                rates.simulate_triple_rate(
                    protocol.INPUT_STATES["D"], replace(params, eta_d=1.0),
                    MC_PULSES, seed=derive_seed(self.seed, k, c), cutoff=c,
                )
            )
            protocol.predetection_state(protocol.INPUT_STATES["H"], params, cutoff=c)
        return {"params": params, "states": states, "mc": mc}

    def check(self, out: dict) -> List[str]:
        problems = []
        fids: Dict[int, List[float]] = {c: [] for c in CUTOFFS}
        for c, name, rho in out["states"]:
            try:
                rho.validate()
            except ValueError as exc:
                problems.append(f"c{c} {name}: not a density matrix ({exc})")
                continue
            if name != "swap":
                chi = protocol.INPUT_STATES[name]
                t = protocol.ideal_teleport_target(chi, out["params"], c).dense()
                fids[c].append(float(np.real(t.conj() @ rho.matrix @ t)))
        for c, sim in zip(CUTOFFS, out["mc"]):
            if not sim.consistent(MC_SIGMA):
                problems.append(
                    f"c{c}: Monte-Carlo triples {sim.n_triples}/{sim.n_pulses} "
                    f"beyond {MC_SIGMA:g} sigma of p={sim.p_analytic:.3e}"
                )
        if len(fids[3]) == len(fids[4]) == len(protocol.INPUT_STATES):
            shift = abs(np.mean(fids[3]) - np.mean(fids[4]))
            if shift >= 1e-2:
                problems.append(f"average fidelity moves by {shift:.2e} from c3 to c4")
        return problems

    def corrupt(self, out: dict) -> dict:
        c, name, rho = out["states"][0]
        bad = DensityMatrix(rho.register, -rho.matrix)
        return dict(out, states=[(c, name, bad)] + out["states"][1:])


WORKLOADS = {w.name: w for w in (Pipeline, TomoPanel, EngineSweep)}


# ------------------------------------------------------------------ probes
#
# A traced run reports every layer metric on every workload. Where no op
# reached a layer, one fixed call into it (the same on every seed) stands
# in, run after the timed phase and labelled with its own phase.


def _probe_fit(work_dir: str, cutoff: Optional[int]) -> None:
    rho = protocol.teleport(protocol.INPUT_STATES["D"], protocol.SourceParams())[0]
    data = homodyne.sample(rho, 20_000, eta=0.5, seed=1)
    tomography.maxlik_reconstruct(
        data, tomography.ReconstructionOptions(cutoff=2, eta_correction=0.5)
    )


def _probe_joint(work_dir: str, cutoff: Optional[int]) -> None:
    rho, _ = protocol.swap_entanglement(protocol.SourceParams())
    sector, _ = protocol.swap_qubit_sector(rho)
    pol = sector.register.subset(["D_pol"])
    datasets = {}
    # the analysis settings are the six canonical qubit states
    for j, (name, chi) in enumerate(protocol.INPUT_STATES.items()):
        conditioned, _ = project_density(sector, PureState(pol, {(0,): chi.a, (1,): chi.b}))
        datasets[name] = homodyne.sample(normalize(conditioned), 500, seed=j)
    tomography.joint_reconstruct_swapped(
        datasets, tomography.ReconstructionOptions(cutoff=2, max_iter=500)
    )


def _probe_homodyne(work_dir: str, cutoff: Optional[int]) -> None:
    rho = protocol.teleport(protocol.INPUT_STATES["D"], protocol.SourceParams())[0]
    path = os.path.join(work_dir, "probe.csv")
    homodyne.sample(rho, 10_000, eta=0.5, seed=1).write_csv(path)
    homodyne.QuadratureDataset.read_csv(path, eta_assumed=0.5)
    os.remove(path)


def _probe_cli(work_dir: str, cutoff: Optional[int]) -> None:
    out = os.path.join(work_dir, "probe-cli")
    code = _quiet(["pipeline", "--out", out, "--seed", "1", "--samples", "200"])
    shutil.rmtree(out, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"probe pipeline exited with {code}")


def _probe_protocol(fn_name: str):
    def probe(work_dir: str, cutoff: Optional[int]) -> None:
        params, chi = protocol.SourceParams(), protocol.INPUT_STATES["H"]
        if fn_name == "swap_entanglement":
            protocol.swap_entanglement(params, cutoff=cutoff)
        else:
            getattr(protocol, fn_name)(chi, params, cutoff=cutoff)

    return probe


def _probe_rates(work_dir: str, cutoff: Optional[int]) -> None:
    params = protocol.SourceParams()
    rates.circuit_consistency(params, cutoff=2)
    rates.simulate_triple_rate(
        protocol.INPUT_STATES["D"], replace(params, eta_d=1.0), 100_000, seed=1, cutoff=2
    )


# span name -> (probe label, probe); one probe can stand in for several spans
PROBES = {
    "tomography.fit": ("fit", _probe_fit),
    "tomography.joint_fit": ("joint_fit", _probe_joint),
    "homodyne.sample": ("homodyne", _probe_homodyne),
    "homodyne.write_csv": ("homodyne", _probe_homodyne),
    "homodyne.read_csv": ("homodyne", _probe_homodyne),
    "cli.main": ("cli", _probe_cli),
    "cli.validate": ("cli", _probe_cli),
    "cli.pool_task": ("cli", _probe_cli),
    "rates.circuit": ("rates", _probe_rates),
    "rates.mc": ("rates", _probe_rates),
    "protocol.teleport": ("teleport", _probe_protocol("teleport")),
    "protocol.swap": ("swap", _probe_protocol("swap_entanglement")),
    "protocol.click_distribution": (
        "click_distribution", _probe_protocol("click_pattern_distribution")
    ),
    "protocol.predetection": ("predetection", _probe_protocol("predetection_state")),
}


def probe_phase(span: str, cutoff: Optional[int]) -> str:
    label = PROBES[span][0]
    return f"probe:{label}" if cutoff is None else f"probe:{label}.c{cutoff}"
