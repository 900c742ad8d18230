"""Command-line pipelines: simulate, sample, reconstruct, report.

Every subcommand is a pure function of the config keys it reads (the
seed among them for `sample` and `pipeline`) and its input files to an
output directory: rerunning with the same inputs reproduces the same
CSV/JSON bytes. `COMMANDS` lists those keys; a command takes flags for
them and no others, and each directory gets exactly one manifest recording
them and the files written. All JSON artifacts name and validate against
a schema shipped with the package.
Everything runs on the calling thread. `pipeline` computes its report and
datasets first, in `pipeline_report`, which writes nothing, and then
writes them.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import jsonschema
import numpy as np
import referencing

from . import __version__
from .config import (
    RATE_KEYS,
    SOURCE_KEYS,
    Config,
    ConfigError,
    check_seed,
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
    ReconstructionOptions,
    ReconstructionResult,
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
    """The config file, or the defaults, with the command's flags folded in."""
    given = vars(args)
    config = load_config(given["config"]) if given.get("config") else Config()
    if given.get("seed") is not None:
        check_seed(given["seed"], "--seed")
    # each flag's dest is the config key it overrides
    updates = {
        k: given[k] for k in COMMAND_KEYS[args.command] if given.get(k) is not None
    }
    return replace(config, **updates)


def _manifest(
    out_dir: str, command: str, argv: Sequence[str], config: Config, outputs: List[str]
) -> None:
    manifest = {
        "schema": "manifest-2",
        "artifact": "railbridge",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "config": {k: getattr(config, k) for k in COMMAND_KEYS[command]},
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


def _averages(inputs: Dict[str, dict], keys: Sequence[str]) -> Dict[str, float]:
    """Each fidelity key's mean over the inputs, as "average_<key>"."""
    return {f"average_{k}": float(np.mean([r[k] for r in inputs.values()])) for k in keys}


def _input_table(section: dict, columns: Dict[str, str]) -> str:
    """A report section's rows and averages, each key of columns under its header."""
    rows = [
        [name, f"{row['success_probability']:.3e}", *(f"{row[k]:.4f}" for k in columns)]
        for name, row in section["inputs"].items()
    ]
    rows.append(["avg", "", *(f"{section[f'average_{k}']:.4f}" for k in columns)])
    return _table(["input", "p_success", *columns.values()], rows)


# ------------------------------------------------------------- subcommands


def cmd_simulate(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    params = to_source_params(config)
    outputs: List[str] = []
    inputs: Dict[str, dict] = {}
    for name, chi in INPUT_STATES.items():
        rho, p = teleport(chi, params, cutoff=config.cutoff)
        tvec = ideal_teleport_target(chi, params, config.cutoff).dense()
        fname = f"state_{name}.json"
        state = {"schema": "density-1", **density_to_json_dict(rho)}
        _write_json(os.path.join(out_dir, fname), state)
        outputs.append(fname)
        inputs[name] = {
            "success_probability": p,
            "fidelity": target_overlap(tvec, rho),
            "state_file": fname,
        }
    report = {
        "schema": "simulate-2",
        "order": config.order,
        "cutoff": config.cutoff,
        "inputs": inputs,
        **_averages(inputs, ("fidelity",)),
    }
    _write_json(os.path.join(out_dir, "simulate.json"), report)
    outputs.append("simulate.json")
    return outputs, _input_table(report, {"fidelity": f"F({config.order})"})


def cmd_sample(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    rho = _load_density(args.state)
    dataset = sample(rho, config.samples, eta=config.eta, seed=config.seed)
    fname = "samples.csv"
    dataset.write_csv(os.path.join(out_dir, fname))
    text = (
        f"{len(dataset)} samples from {args.state} at eta={config.eta} "
        f"-> {fname}"
    )
    return [fname], text


def cmd_reconstruct(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    dataset = QuadratureDataset.read_csv(args.data, eta_assumed=config.eta)
    opts = ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=config.eta)
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


def _fit_pair(
    fit: Callable[..., ReconstructionResult], data, config: Config
) -> Tuple[ReconstructionResult, ReconstructionResult]:
    """``fit`` of ``data`` at tomo_cutoff: loss-corrected at eta, then raw."""
    return tuple(
        fit(data, ReconstructionOptions(cutoff=config.tomo_cutoff, eta_correction=eta))
        for eta in (config.eta, 1.0)
    )


def _pipeline_teleport_state(
    chi, params, config: Config, seed: int
) -> Tuple[QuadratureDataset, dict]:
    """Teleport chi, sample the output at seed and fit it: the data and its row."""
    rho, p = teleport(chi, params, cutoff=config.cutoff)
    dataset = sample(rho, config.samples, eta=config.eta, seed=seed)
    corrected, raw = _fit_pair(maxlik_reconstruct, dataset, config)
    target = to_density(ideal_teleport_target(chi, params, cutoff=config.tomo_cutoff))
    return dataset, {
        "success_probability": p,
        "fidelity_corrected": fidelity(corrected.rho, target),
        "fidelity_uncorrected": fidelity(raw.rho, target),
    }


_PIPELINE_COLUMNS = {"fidelity_corrected": "F(corrected)",
                     "fidelity_uncorrected": "F(uncorrected)"}


def pipeline_report(config: Config) -> Tuple[dict, Dict[str, QuadratureDataset]]:
    """The pipeline-1 report of config and its datasets by CSV name; writes nothing.
    Teleport input idx samples at seed config.seed + idx and swap setting j at
    config.seed + len(INPUT_STATES) + j, the one place these seeds are laid out."""
    if config.seed is None:
        raise ValueError("pipeline_report needs a seed; config.seed is None")
    params = to_source_params(config)
    datasets: Dict[str, QuadratureDataset] = {}
    inputs: Dict[str, dict] = {}
    for idx, (name, chi) in enumerate(INPUT_STATES.items()):
        fname = f"samples_{name}.csv"
        datasets[fname], row = _pipeline_teleport_state(chi, params, config, config.seed + idx)
        inputs[name] = {**row, "samples_file": fname}
    rho_full, p = swap_entanglement(params, cutoff=config.cutoff)
    sector, weight = swap_qubit_sector(rho_full)
    pol = sector.register.subset(["D_pol"])
    settings: Dict[str, QuadratureDataset] = {}
    # the analysis settings are the six canonical qubit states
    for j, (setting, chi) in enumerate(INPUT_STATES.items()):
        conditioned, _ = project_density(sector, PureState(pol, {(0,): chi.a, (1,): chi.b}))
        settings[setting] = datasets[f"swap_samples_{setting}.csv"] = sample(
            normalize(conditioned), config.samples, eta=config.eta,
            seed=config.seed + len(INPUT_STATES) + j,
        )
    corrected, raw = _fit_pair(joint_reconstruct_swapped, settings, config)
    target = to_density(ideal_swap_target_qubit(params, cutoff=config.tomo_cutoff))
    report = {
        "schema": "pipeline-1",
        "teleport": {
            "order": config.order,
            "samples_per_state": config.samples,
            "eta": config.eta,
            "inputs": inputs,
            **_averages(inputs, _PIPELINE_COLUMNS),
        },
        "swap": {
            "success_probability": p,
            "sector_weight": weight,
            "samples_per_setting": config.samples,
            "fidelity_corrected": fidelity(corrected.rho, target),
            "fidelity_uncorrected": fidelity(raw.rho, target),
            "witness_corrected": entanglement_witness(corrected.rho),
            "witness_uncorrected": entanglement_witness(raw.rho),
        },
    }
    return report, datasets


def cmd_pipeline(args, config: Config, out_dir: str) -> Tuple[List[str], str]:
    report, datasets = pipeline_report(config)
    for fname, dataset in datasets.items():
        dataset.write_csv(os.path.join(out_dir, fname))
    _write_json(os.path.join(out_dir, "pipeline.json"), report)
    swap = report["swap"]
    wit_c = swap["witness_corrected"]["fidelity_to_max_entangled"]
    wit_u = swap["witness_uncorrected"]["fidelity_to_max_entangled"]
    text = (
        _input_table(report["teleport"], _PIPELINE_COLUMNS)
        + f"\n\nswap: F(corrected) = {swap['fidelity_corrected']:.4f}, "
        f"F(uncorrected) = {swap['fidelity_uncorrected']:.4f}\n"
        f"witness overlap: corrected {wit_c:.4f}, uncorrected {wit_u:.4f} (> 0.5 certifies)"
    )
    return [*datasets, "pipeline.json"], text


# ------------------------------------------------------------------ driver


# each command's handler, the config keys it reads and its help line: a
# command takes a flag for each of those keys that has one, and its
# manifest records exactly these
COMMANDS: Dict[str, Tuple[Callable, Tuple[str, ...], str]] = {
    "simulate": (cmd_simulate, (*SOURCE_KEYS, "cutoff"),
                 "teleport the six canonical inputs, write states and a table"),
    "sample": (cmd_sample, ("eta", "samples", "seed"),
               "draw homodyne samples from a density-matrix JSON"),
    "reconstruct": (cmd_reconstruct, ("eta", "tomo_cutoff"),
                    "maximum-likelihood fit of a quadrature CSV"),
    "wigner": (cmd_wigner, (),
               "Wigner function of a density-matrix JSON on a square grid"),
    "swap": (cmd_swap, (*SOURCE_KEYS, "cutoff"),
             "heraldless projection: joint state and entanglement witness"),
    # eta_d only to check it against the one derived from the rates
    "rates": (cmd_rates, (*RATE_KEYS, "cutoff", "eta_d"),
              "calibration report from the configured bench rates"),
    "pipeline": (cmd_pipeline,
                 (*SOURCE_KEYS, "cutoff", "eta", "samples", "tomo_cutoff", "seed"),
                 "simulate, sample and reconstruct everything end to end"),
}
COMMAND_KEYS = {name: keys for name, (_, keys, _) in COMMANDS.items()}

# the flag of each key that has one, named after it
_KEY_FLAGS = {
    "cutoff": dict(type=int, help="Fock cutoff of the simulation"),
    "eta": dict(
        type=float,
        help="homodyne efficiency: loss when sampling, correction when "
        "reconstructing",
    ),
    "eta_d": dict(type=float, help="click detector efficiency"),
    "order": dict(choices=("pert", "exact"), help="source expansion order"),
    "samples": dict(type=int, help="samples per dataset (default from config)"),
    "seed": dict(type=int, help="override the run seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railbridge",
        description="Teleportation between polarisation and photon-number "
        "qubits: simulation, homodyne sampling, loss-corrected tomography "
        "and rate calibration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (_, keys, help_line) in COMMANDS.items():
        # exact flag names only: an abbreviation such as --eta would
        # otherwise be read as another key's flag such as --eta-d
        p = commands[command] = sub.add_parser(
            command, help=help_line, allow_abbrev=False
        )
        # main reports a flag the command does not take with this usage
        p.set_defaults(command_parser=p)
        if keys:
            p.add_argument("--config", help="config file (key = value lines)")
        for key in keys:
            if key in _KEY_FLAGS:
                p.add_argument("--" + key.replace("_", "-"), **_KEY_FLAGS[key])
        p.add_argument("--out", default="railbridge-out",
                       help="output directory (default railbridge-out)")
    commands["sample"].add_argument("state", help="density-matrix JSON file")
    commands["reconstruct"].add_argument("data", help="quadrature CSV (theta_rad,x)")
    commands["reconstruct"].add_argument(
        "--cutoff", dest="tomo_cutoff", type=int, metavar="CUTOFF",
        help="reconstruction Fock cutoff",
    )
    commands["wigner"].add_argument("state", help="density-matrix JSON file")
    commands["wigner"].add_argument(
        "--grid", nargs=3, type=float, default=(-4.0, 4.0, 81),
        metavar=("MIN", "MAX", "N"), help="axis range and point count",
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
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    created = _outermost_missing(args.out)
    try:
        config = _effective_config(args)
        if "seed" in COMMAND_KEYS[args.command]:
            # a bad RAILBRIDGE_SEED must fail before any artifact is written
            config = replace(config, seed=resolve_seed(config))
        os.makedirs(args.out, exist_ok=True)
        outputs, text = COMMANDS[args.command][0](args, config, args.out)
        _manifest(args.out, args.command, ["railbridge", *argv], config, outputs)
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
