"""Command-line pipelines: simulate, sample, reconstruct, report.

Every subcommand is a pure function of (config, seed, input files) to an
output directory: rerunning with the same inputs reproduces the same
CSV/JSON bytes, and each directory gets exactly one manifest recording the
effective config, the resolved seed and the files written. All JSON
artifacts name and validate against a schema shipped with the package.
Everything runs on the calling thread; `pipeline` handles its six
teleport inputs one after another.

Failures print a machine-readable error object to stderr and exit nonzero;
parse errors in config, CSV or JSON inputs carry line information where
the underlying reader provides it. A failed run removes the output
directory, and any parents, that it created; a directory that already
existed stays.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import jsonschema
import numpy as np
import referencing

from . import __version__
from .config import (
    Config,
    ConfigError,
    check_seed,
    default_config,
    load_config,
    to_rate_model,
    to_source_params,
)
from .fock import (
    DensityMatrix,
    PureState,
    density_from_json_dict,
    density_to_json_dict,
    normalize,
    project_density,
    to_density,
)
from .homodyne import QuadratureDataset, sample
from .protocol import (
    INPUT_STATES,
    ideal_swap_target_qubit,
    ideal_teleport_target,
    swap_entanglement,
    swap_qubit_sector,
    target_overlap,
    teleport,
)
from .rates import calibration_report
from .tomography import (
    ANALYSIS_SETTINGS,
    ReconstructionOptions,
    entanglement_witness,
    fidelity,
    joint_reconstruct_swapped,
    maxlik_reconstruct,
    result_to_json_dict,
    wigner,
)


@functools.lru_cache(maxsize=None)
def _registry() -> referencing.Registry:
    """Every shipped schema under its $id, so one schema can $ref another's."""
    schemas = resources.files("railbridge").joinpath("schemas")
    contents = [
        json.loads(f.read_text(encoding="utf-8"))
        for f in schemas.iterdir()
        if f.name.endswith(".schema.json")
    ]
    return referencing.Registry().with_contents((s["$id"], s) for s in contents)


# one validator per artifact kind, its schema checked once when built
@functools.lru_cache(maxsize=None)
def _validator(kind: str) -> jsonschema.protocols.Validator:
    registry = _registry()
    schema = registry.contents(f"railbridge:{kind}")
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema, registry=registry)


def validate_artifact(kind: str, obj: dict) -> None:
    """Raise the error jsonschema.validate would raise for an invalid obj."""
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(obj))
    if error is not None:
        raise error


def _write_json(path: str, obj: dict) -> None:
    """Validate obj against the schema it names, then write it."""
    validate_artifact(obj["schema"], obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        # exc already carries line and column
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_density(path: str) -> DensityMatrix:
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a density-matrix JSON (not an object)")
    if isinstance(obj.get("rho"), dict):
        obj = obj["rho"]  # accept reconstruction results as well
    for key in ("labels", "cutoff", "re", "im"):
        if key not in obj:
            raise ValueError(f"{path}: not a density-matrix JSON (missing {key!r})")
    try:
        rho = density_from_json_dict(obj)
        rho.validate()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid density matrix: {exc}") from None
    return rho


def resolve_seed(config: Config) -> int:
    """Flag and file seeds are already folded into config; then env, then 0."""
    if config.seed is not None:
        return config.seed
    env = os.environ.get("RAILBRIDGE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(
                f"RAILBRIDGE_SEED={env!r} is not an integer"
            ) from None
        return check_seed(seed, "RAILBRIDGE_SEED")
    return 0


def _effective_config(args: argparse.Namespace) -> Config:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        check_seed(args.seed, "--seed")
    # each of these flags overrides the config key of the same name
    flags = ("seed", "cutoff", "eta", "eta_d", "order", "samples")
    updates = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    return replace(config, **updates)


def _manifest(
    out_dir: str,
    command: str,
    argv: Sequence[str],
    config: Config,
    seed: int,
    outputs: List[str],
) -> None:
    manifest = {
        "schema": "manifest-1",
        "artifact": "railbridge",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "config": config.to_dict(),
        "outputs": sorted(outputs),
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _input_table(
    inputs: Dict[str, dict], keys: Sequence[str], headers: Sequence[str]
) -> Tuple[Dict[str, float], str]:
    """Each fidelity key's mean over the inputs, as "average_<key>", and
    the table of per-input rows (success probability, then the keys) with
    an avg row."""
    means = [float(np.mean([row[k] for row in inputs.values()])) for k in keys]
    rows = [
        [name, f"{row['success_probability']:.3e}", *(f"{row[k]:.4f}" for k in keys)]
        for name, row in inputs.items()
    ]
    rows.append(["avg", "", *(f"{m:.4f}" for m in means)])
    averages = {f"average_{k}": m for k, m in zip(keys, means)}
    return averages, _table(["input", "p_success", *headers], rows)


# ------------------------------------------------------------- subcommands


def cmd_simulate(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    params = to_source_params(config)
    pert_params = replace(params, order="pert")
    outputs: List[str] = []
    inputs: Dict[str, dict] = {}
    for name, chi in INPUT_STATES.items():
        rho, p = teleport(chi, params, cutoff=config.cutoff)
        tvec = ideal_teleport_target(chi, params, config.cutoff).dense()
        f_conf = target_overlap(tvec, rho)
        if config.order == "pert":
            f_pert = f_conf
        else:
            rho_p, _ = teleport(chi, pert_params, cutoff=config.cutoff)
            f_pert = target_overlap(tvec, rho_p)
        fname = f"state_{name}.json"
        state = {"schema": "density-1", **density_to_json_dict(rho)}
        _write_json(os.path.join(out_dir, fname), state)
        outputs.append(fname)
        inputs[name] = {
            "success_probability": p,
            "fidelity": f_conf,
            "fidelity_pert": f_pert,
            "state_file": fname,
        }
    averages, text = _input_table(
        inputs, ("fidelity", "fidelity_pert"), (f"F({config.order})", "F(pert)")
    )
    report = {
        "schema": "simulate-1",
        "order": config.order,
        "cutoff": config.cutoff,
        "inputs": inputs,
        **averages,
    }
    _write_json(os.path.join(out_dir, "simulate.json"), report)
    outputs.append("simulate.json")
    return outputs, text


def cmd_sample(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    rho = _load_density(args.state)
    seed = resolve_seed(config)
    dataset = sample(rho, config.samples, eta=config.eta, seed=seed)
    fname = args.name or "samples.csv"
    dataset.write_csv(os.path.join(out_dir, fname))
    text = (
        f"{len(dataset)} samples from {args.state} at eta={config.eta} "
        f"-> {fname}"
    )
    return [fname], text


def cmd_reconstruct(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    dataset = QuadratureDataset.read_csv(args.data, eta_assumed=config.eta)
    opts = ReconstructionOptions(
        cutoff=args.cutoff if args.cutoff is not None else config.tomo_cutoff,
        eta_correction=config.eta,
    )
    result = maxlik_reconstruct(dataset, opts)
    report = {"schema": "reconstruct-1", **result_to_json_dict(result)}
    _write_json(os.path.join(out_dir, "reconstruct.json"), report)
    diag = report["diagnostics"]
    text = (
        f"reconstructed {len(dataset)} samples at cutoff {opts.cutoff}, "
        f"eta correction {opts.eta_correction}: "
        f"{diag['iterations']} iterations, "
        f"likelihood gap {diag['likelihood_gap']:.2e}, "
        f"converged={diag['converged']} -> reconstruct.json"
    )
    return ["reconstruct.json"], text


def cmd_wigner(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    lo, hi, n = args.grid
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"wigner grid MIN and MAX must be finite, got {lo}, {hi}")
    if not lo < hi:
        raise ValueError(f"wigner grid needs MIN < MAX, got {lo}, {hi}")
    if not float(n).is_integer():
        raise ValueError(f"wigner grid N must be a whole number, got {n}")
    n = int(n)
    if n < 2:
        raise ValueError(f"wigner grid needs at least 2 points, got {n}")
    rho = _load_density(args.state)
    axis = np.linspace(lo, hi, n)
    w = wigner(rho, axis, axis)
    fname = "wigner.csv"
    with open(os.path.join(out_dir, fname), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q,p,w\n")
        for i, q in enumerate(axis):
            for j, p in enumerate(axis):
                fh.write(f"{float(q)!r},{float(p)!r},{float(w[i, j])!r}\n")
    imin = np.unravel_index(np.argmin(w), w.shape)
    imax = np.unravel_index(np.argmax(w), w.shape)
    text = (
        f"wigner on [{lo}, {hi}]^2 ({n}x{n}) -> {fname}\n"
        f"min W = {w[imin]:.6f} at (q, p) = ({axis[imin[0]]:.2f}, {axis[imin[1]]:.2f})\n"
        f"max W = {w[imax]:.6f} at (q, p) = ({axis[imax[0]]:.2f}, {axis[imax[1]]:.2f})"
    )
    return [fname], text


def cmd_swap(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    params = to_source_params(config)
    rho_full, p = swap_entanglement(params, cutoff=config.cutoff)
    sector, weight = swap_qubit_sector(rho_full)
    witness = entanglement_witness(sector)
    report = {
        "schema": "swap-1",
        "success_probability": p,
        "sector_weight": weight,
        "witness": witness,
        "qubit_sector": density_to_json_dict(sector),
        "full_state": density_to_json_dict(rho_full),
    }
    _write_json(os.path.join(out_dir, "swap.json"), report)
    verdict = "entangled" if witness["entangled"] else "not certified"
    text = (
        f"swap success probability {p:.3e}, one-photon sector weight "
        f"{weight:.4f}\nwitness overlap {witness['fidelity_to_max_entangled']:.4f} "
        f"(> 0.5 certifies): {verdict} -> swap.json"
    )
    return ["swap.json"], text


def cmd_rates(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    model = to_rate_model(config)
    # an eta_d from the config file or --eta-d that differs from the derived
    # one would be recorded in the manifest but never used
    if not math.isclose(config.eta_d, model.eta_d, rel_tol=1e-9):
        raise ValueError(
            f"rates derives eta_d = {model.eta_d!r} from R_cc / R_gamma23, but "
            f"the config and flags give eta_d = {config.eta_d!r}; make eta_d "
            f"match or drop --eta-d"
        )
    report = {"schema": "rates-1", **calibration_report(model, cutoff=config.cutoff)}
    _write_json(os.path.join(out_dir, "rates.json"), report)
    text = (
        f"eta_d = {report['eta_d']:.4f}, gamma1 = {report['gamma1']:.4f}, "
        f"gamma23 = {report['gamma23']:.4f}\n"
        f"predicted triple rate {report['predicted_triple_rate_hz']:.4f} Hz "
        f"(circuit {report['circuit_triple_rate_hz']:.4f} Hz, measured "
        f"{report['measured_triple_rate_hz']} +- "
        f"{report['measured_triple_rate_err_hz']} Hz) -> rates.json"
    )
    return ["rates.json"], text


def _pipeline_teleport_state(
    name: str,
    idx: int,
    config: Config,
    seed: int,
    out_dir: str,
) -> Tuple[str, dict]:
    params = to_source_params(config)
    chi = INPUT_STATES[name]
    rho, p = teleport(chi, params, cutoff=config.cutoff)
    dataset = sample(rho, config.samples, eta=config.eta, seed=seed + idx)
    fname = f"samples_{name}.csv"
    dataset.write_csv(os.path.join(out_dir, fname))
    raw = maxlik_reconstruct(
        dataset,
        ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=1.0),
    )
    corrected = maxlik_reconstruct(
        dataset,
        ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=config.eta),
    )
    target = to_density(
        ideal_teleport_target(chi, params, cutoff=config.tomo_cutoff)
    )
    return fname, {
        "success_probability": p,
        "fidelity_corrected": fidelity(corrected.rho, target),
        "fidelity_uncorrected": fidelity(raw.rho, target),
        "samples_file": fname,
    }


def _pipeline_swap(config: Config, seed: int, out_dir: str) -> Tuple[List[str], dict]:
    params = to_source_params(config)
    rho_full, p = swap_entanglement(params, cutoff=config.cutoff)
    sector, weight = swap_qubit_sector(rho_full)
    datasets: Dict[str, QuadratureDataset] = {}
    outputs: List[str] = []
    for j, (setting, vec) in enumerate(ANALYSIS_SETTINGS.items()):
        bra = PureState(
            sector.register.subset(["D_pol"]), {(0,): vec[0], (1,): vec[1]}
        )
        conditioned, _ = project_density(sector, bra)
        dataset = sample(
            normalize(conditioned),
            config.samples,
            eta=config.eta,
            seed=seed + len(INPUT_STATES) + j,
        )
        fname = f"swap_samples_{setting}.csv"
        dataset.write_csv(os.path.join(out_dir, fname))
        outputs.append(fname)
        datasets[setting] = dataset
    corrected = joint_reconstruct_swapped(
        datasets, ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=config.eta)
    )
    raw = joint_reconstruct_swapped(
        datasets, ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=1.0)
    )
    target = to_density(ideal_swap_target_qubit(params, cutoff=config.tomo_cutoff))
    section = {
        "success_probability": p,
        "sector_weight": weight,
        "samples_per_setting": config.samples,
        "fidelity_corrected": fidelity(corrected.rho, target),
        "fidelity_uncorrected": fidelity(raw.rho, target),
        "witness_corrected": entanglement_witness(corrected.rho),
        "witness_uncorrected": entanglement_witness(raw.rho),
    }
    return outputs, section


def cmd_pipeline(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    seed = resolve_seed(config)
    outputs: List[str] = []
    inputs: Dict[str, dict] = {}
    for idx, name in enumerate(INPUT_STATES):
        fname, row = _pipeline_teleport_state(name, idx, config, seed, out_dir)
        outputs.append(fname)
        inputs[name] = row
    swap_outputs, swap_section = _pipeline_swap(config, seed, out_dir)
    outputs.extend(swap_outputs)
    averages, table = _input_table(
        inputs,
        ("fidelity_corrected", "fidelity_uncorrected"),
        ("F(corrected)", "F(uncorrected)"),
    )
    report = {
        "schema": "pipeline-1",
        "teleport": {
            "order": config.order,
            "samples_per_state": config.samples,
            "eta": config.eta,
            "inputs": inputs,
            **averages,
        },
        "swap": swap_section,
    }
    _write_json(os.path.join(out_dir, "pipeline.json"), report)
    outputs.append("pipeline.json")
    wit_c = swap_section["witness_corrected"]["fidelity_to_max_entangled"]
    wit_u = swap_section["witness_uncorrected"]["fidelity_to_max_entangled"]
    text = "\n".join(
        [
            table,
            "",
            f"swap: F(corrected) = {swap_section['fidelity_corrected']:.4f}, "
            f"F(uncorrected) = {swap_section['fidelity_uncorrected']:.4f}",
            f"witness overlap: corrected {wit_c:.4f}, uncorrected {wit_u:.4f} "
            f"(> 0.5 certifies)",
        ]
    )
    return outputs, text


# ------------------------------------------------------------------ driver


HANDLERS = {
    "simulate": cmd_simulate,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "wigner": cmd_wigner,
    "swap": cmd_swap,
    "rates": cmd_rates,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file (key = value lines)")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument(
        "--cutoff", type=int,
        help="Fock cutoff (simulation commands) or reconstruction cutoff",
    )
    common.add_argument(
        "--eta", type=float,
        help="homodyne efficiency: loss when sampling, correction when "
        "reconstructing",
    )
    common.add_argument("--eta-d", dest="eta_d", type=float,
                        help="click detector efficiency")
    common.add_argument("--order", choices=("pert", "exact"),
                        help="source expansion order")
    common.add_argument("--out", default="railbridge-out",
                        help="output directory (default railbridge-out)")
    common.add_argument("--samples", type=int,
                        help="samples per dataset (default from config)")

    parser = argparse.ArgumentParser(
        prog="railbridge",
        description="Teleportation between polarisation and photon-number "
        "qubits: simulation, homodyne sampling, loss-corrected tomography "
        "and rate calibration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "simulate", parents=[common],
        help="teleport the six canonical inputs, write states and a table",
    )
    p_sample = sub.add_parser(
        "sample", parents=[common],
        help="draw homodyne samples from a density-matrix JSON",
    )
    p_sample.add_argument("state", help="density-matrix JSON file")
    p_sample.add_argument("--name", help="output CSV name (default samples.csv)")
    p_rec = sub.add_parser(
        "reconstruct", parents=[common],
        help="maximum-likelihood fit of a quadrature CSV",
    )
    p_rec.add_argument("data", help="quadrature CSV (theta_rad,x)")
    p_wig = sub.add_parser(
        "wigner", parents=[common],
        help="Wigner function of a density-matrix JSON on a square grid",
    )
    p_wig.add_argument("state", help="density-matrix JSON file")
    p_wig.add_argument(
        "--grid", nargs=3, type=float, default=(-4.0, 4.0, 81),
        metavar=("MIN", "MAX", "N"), help="axis range and point count",
    )
    sub.add_parser(
        "swap", parents=[common],
        help="heraldless projection: joint state and entanglement witness",
    )
    sub.add_parser(
        "rates", parents=[common],
        help="calibration report from the configured bench rates",
    )
    sub.add_parser(
        "pipeline", parents=[common],
        help="simulate, sample and reconstruct everything end to end",
    )
    return parser


def _outermost_missing(path: str) -> Optional[str]:
    """The outermost directory that creating `path` would add, if any."""
    path, top = os.path.abspath(path), None
    while not os.path.exists(path):
        top, path = path, os.path.dirname(path)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    created = _outermost_missing(args.out)
    try:
        config = _effective_config(args)
        # a bad RAILBRIDGE_SEED must fail before any artifact is written
        seed = resolve_seed(config)
        os.makedirs(args.out, exist_ok=True)
        outputs, text = HANDLERS[args.command](args, config, args.out)
        _manifest(
            args.out, args.command, ["railbridge", *argv], config, seed, outputs
        )
        print(text)
        return 0
    except (ConfigError, ValueError, OSError, jsonschema.ValidationError) as exc:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        error = {
            "error": {
                "type": type(exc).__name__,
                "command": args.command,
                "message": str(exc),
            }
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
