"""Flat key-value experiment configuration.

One file drives every CLI subcommand: source amplitudes and detection for
the simulation, homodyne efficiency and cutoffs for sampling and
reconstruction, bench rates for the calibration report. The format is one
`key = value` per line with `#` comments; values are typed per key and
unknown or malformed lines fail with their line number so a typo cannot
silently fall back to a default.

A loaded file must pin the physics keys explicitly (a run config is a lab
record, not a patch); the built-in `default_config` carries the bench
values for flag-only invocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, get_args, get_type_hints

from .protocol import DEFAULT_CUTOFF, SourceParams
from .rates import RateModel
from .tomography import ReconstructionOptions

# the bench values live on the physics dataclasses; Config reads them there
_SOURCE = SourceParams()
_RATES = RateModel()
_RECONSTRUCTION = ReconstructionOptions()


class ConfigError(ValueError):
    """Bad configuration file or value; message carries line numbers."""


@dataclass(frozen=True)
class Config:
    # simulation
    gamma1: float = _SOURCE.gamma1
    gamma23: float = _SOURCE.gamma23
    alpha: Optional[float] = _SOURCE.alpha  # none -> balanced drive (= gamma1)
    alpha_phase: float = _SOURCE.phi_alpha
    eta_d: float = _SOURCE.eta_d
    order: str = _SOURCE.order
    cutoff: int = DEFAULT_CUTOFF
    # homodyne and reconstruction
    eta: float = 0.5
    tomo_cutoff: int = _RECONSTRUCTION.cutoff
    samples: int = 2000
    # seed is tri-state: flag > file > RAILBRIDGE_SEED env > 0
    seed: Optional[int] = None
    # bench rates
    R_L: float = _RATES.R_L
    R_alpha: float = _RATES.R_alpha
    R_gamma1: float = _RATES.R_gamma1
    R_gamma23: float = _RATES.R_gamma23
    R_cc: float = _RATES.R_cc
    projector_loss_factor: float = _RATES.projector_loss_factor

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ConfigError(f"cutoff={self.cutoff} must be >= 1")
        if self.tomo_cutoff < 1:
            raise ConfigError(f"tomo_cutoff={self.tomo_cutoff} must be >= 1")
        if self.samples < 1:
            raise ConfigError(f"samples={self.samples} must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta={self.eta} outside (0, 1]")
        if self.seed is not None:
            check_seed(self.seed, "seed")
        # the physics checks live on the dataclasses every command builds
        try:
            to_source_params(self)
            to_rate_model(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# required in every loaded file; the rest default
REQUIRED_KEYS = ("gamma1", "gamma23", "eta_d", "eta", "order", "cutoff", "seed")

# key -> annotated type; Optional[T] takes T or the word none
KEY_TYPES: Dict[str, object] = get_type_hints(Config)


def default_config() -> Config:
    return Config()


def _parse_value(key: str, raw: str, lineno: int) -> object:
    kind = KEY_TYPES[key]
    if get_args(kind):
        if raw.lower() == "none":
            return None
        kind = get_args(kind)[0]
    if kind is str:
        return raw
    try:
        value = int(raw) if kind is int else float(raw)
    except ValueError:
        name = "an integer" if kind is int else "a number"
        raise ConfigError(
            f"line {lineno}: value for {key!r} must be {name}, got {raw!r}"
        ) from None
    # float() takes nan and inf, which no physics key means and strict JSON
    # cannot hold
    if kind is float and not math.isfinite(value):
        raise ConfigError(
            f"line {lineno}: value for {key!r} must be finite, got {raw!r}"
        )
    if key == "seed":
        check_seed(value, f"line {lineno}: value for 'seed'")
    return value


def check_seed(seed: int, source: str) -> int:
    """Return seed if numpy's default_rng takes it; source names its origin."""
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def parse_config(text: str, source: str = "<config>") -> Config:
    """Parse config text; every violation names its line number."""
    seen: Dict[str, object] = {}
    lines_of: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, raw = (part.strip() for part in body.partition("="))
        if key not in KEY_TYPES:
            raise ConfigError(f"{source}: line {lineno}: unknown key {key!r}")
        if key in seen:
            first = lines_of[key]
            raise ConfigError(
                f"{source}: line {lineno}: duplicate key {key!r} (first on "
                f"line {first})"
            )
        try:
            seen[key] = _parse_value(key, raw, lineno)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        lines_of[key] = lineno
    missing = [k for k in REQUIRED_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")
    try:
        return Config(**seen)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=path)


def to_source_params(config: Config) -> SourceParams:
    return SourceParams(
        gamma1=config.gamma1,
        gamma23=config.gamma23,
        alpha=config.alpha,
        phi_alpha=config.alpha_phase,
        eta_d=config.eta_d,
        order=config.order,
    )


def to_rate_model(config: Config) -> RateModel:
    return RateModel(**{f.name: getattr(config, f.name) for f in fields(RateModel)})
