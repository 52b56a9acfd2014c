"""Flat key-value scenario configuration files.

One ``key = value`` assignment per line; ``#`` starts a comment; float lists
use brackets, e.g. ``profile = [0, 4, -4]``.  Errors carry the offending line
number so a broken file points at itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .advection import VelocityProfile
from .splitting import ScenarioConfig, basis_index
from .transforms import BoundaryKind


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration content."""


_REQUIRED = ("n_x", "profile", "t_final", "D")
_REFERENCES = ("auto", "oracle", "analytic", "fd10", "none")


@dataclass(frozen=True)
class RunSettings:
    """A parsed config: the scenario plus run-level choices."""

    scenario: ScenarioConfig
    initial: str = "gaussian"
    reference: str = "auto"


# Each parser takes (key, raw value) and raises ValueError with a message
# that the caller prefixes with the line number.
def _number(cast, kind: str):
    def parse(key: str, raw: str):
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"{key} expects {kind}, got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {raw!r}")
        return value
    return parse


def _one_of(options, wording: str):
    def parse(key: str, raw: str) -> str:
        if raw not in options:
            raise ValueError(f"{key} must be {wording}, got {raw!r}")
        return raw
    return parse


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"{key} expects true or false, got {raw!r}")
    return lowered == "true"


def _parse_profile(key: str, raw: str) -> VelocityProfile:
    if not raw.startswith("["):
        return VelocityProfile.named(raw)
    if not raw.endswith("]"):
        raise ValueError("unterminated coefficient list")
    body = raw[1:-1].strip()
    if not body:
        raise ValueError("empty coefficient list")
    try:
        coeffs = tuple(float(tok) for tok in body.split(","))
    except ValueError:
        raise ValueError(f"coefficient list must be numbers, got {raw!r}") from None
    return VelocityProfile.custom(coeffs)


def _parse_boundary(key: str, raw: str) -> BoundaryKind:
    try:
        return BoundaryKind(raw)
    except ValueError:
        options = ", ".join(k.value for k in BoundaryKind)
        raise ValueError(f"{key} must be one of {options}, got {raw!r}") from None


def _parse_initial(key: str, raw: str) -> str:
    if not (raw in ("gaussian", "uniform") or raw.startswith("basis:")):
        raise ValueError(
            f"{key} must be gaussian, uniform, or basis:<index>, got {raw!r}"
        )
    return raw


_int, _float = _number(int, "an integer"), _number(float, "a number")

# config key -> (ScenarioConfig or RunSettings field, parser); the defaults
# live on those two dataclasses.  bc_x sets no field: it is always periodic.
_KEYS = {
    "n_x": ("n_x", _int),
    "n_y": ("n_y", _int),
    "profile": ("profile", _parse_profile),
    "D": ("diffusivity", _float),
    "t_final": ("t_final", _float),
    "steps": ("n_steps", _int),
    "L": ("length", _float),
    "U": ("velocity_scale", _float),
    "splitting": ("splitting", _one_of(("trotter", "strang"), "trotter or strang")),
    "bc_x": (None, _one_of(
        (BoundaryKind.PERIODIC.value,),
        "periodic (advection acts in the streamwise Fourier basis)")),
    "bc_y": ("bc_y", _parse_boundary),
    "checkpoints": ("checkpoints", _int),
    "merge_strang": ("merge_strang", _parse_bool),
    "initial": ("initial", _parse_initial),
    "reference": ("reference", _one_of(_REFERENCES, "one of " + ", ".join(_REFERENCES))),
}
_RUN_FIELDS = {f.name for f in fields(RunSettings)}


def parse_config(text: str) -> RunSettings:
    """Parse config text into RunSettings; raises ConfigError with line info."""
    # n_y comes before fields without a default in ScenarioConfig, so its
    # default, a 1D run, is set here
    scenario: dict[str, object] = {"n_y": 0}
    run: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        if not raw:
            raise ConfigError(f"line {lineno}: {key} has no value")
        lines[key] = lineno
        name, parse = _KEYS[key]
        try:
            value = parse(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        if name is not None:
            (run if name in _RUN_FIELDS else scenario)[name] = value
    for key in _REQUIRED:
        if key not in lines:
            raise ConfigError(f"missing required key {key!r}")
    try:
        settings = RunSettings(ScenarioConfig(**scenario), **run)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if settings.initial.startswith("basis:"):
        try:
            basis_index(settings.scenario, settings.initial)
        except ValueError as exc:
            raise ConfigError(f"line {lines['initial']}: {exc}") from None
    return settings


def load_config(path) -> RunSettings:
    """Read and parse a config file; errors mention the file name."""
    file = Path(path)
    try:
        text = file.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {file}: {exc}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{file}: {exc}") from None
