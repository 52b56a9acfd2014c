"""Flat key-value scenario configuration files.

One ``key = value`` assignment per line; ``#`` starts a comment; float lists
use brackets, e.g. ``profile = [0, 4, -4]``.  Errors carry the offending line
number so a broken file points at itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .advection import VelocityProfile
from .splitting import ScenarioConfig, basis_index
from .transforms import BoundaryKind


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration content."""


_REQUIRED = ("n_x", "profile", "t_final", "D")
_KNOWN = _REQUIRED + (
    "n_y",
    "L",
    "U",
    "steps",
    "splitting",
    "bc_x",
    "bc_y",
    "checkpoints",
    "initial",
    "reference",
    "merge_strang",
)
_REFERENCES = ("auto", "oracle", "analytic", "fd10", "none")
_INT_KEYS = {"n_x", "n_y", "steps", "checkpoints"}
_FLOAT_KEYS = {"L", "U", "D", "t_final"}
_BOOL_KEYS = {"merge_strang"}


@dataclass(frozen=True)
class RunSettings:
    """A parsed config: the scenario plus run-level choices."""

    scenario: ScenarioConfig
    initial: str = "gaussian"
    reference: str = "auto"


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _parse_scalar(key: str, raw: str, lineno: int):
    if key in _INT_KEYS or key in _FLOAT_KEYS:
        try:
            value = int(raw) if key in _INT_KEYS else float(raw)
        except ValueError:
            kind = "an integer" if key in _INT_KEYS else "a number"
            raise ConfigError(
                f"line {lineno}: {key} expects {kind}, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {raw!r}")
        return value
    if key in _BOOL_KEYS:
        lowered = raw.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ConfigError(f"line {lineno}: {key} expects true or false, got {raw!r}")
    return raw


def _parse_profile(raw: str, lineno: int) -> VelocityProfile:
    try:
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
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


def _parse_boundary(key: str, raw: str, lineno: int) -> BoundaryKind:
    try:
        return BoundaryKind(raw)
    except ValueError:
        options = ", ".join(k.value for k in BoundaryKind)
        raise ConfigError(
            f"line {lineno}: {key} must be one of {options}, got {raw!r}"
        ) from None


def parse_config(text: str) -> RunSettings:
    """Parse config text into RunSettings; raises ConfigError with line info."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip(raw_line)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        if not raw:
            raise ConfigError(f"line {lineno}: {key} has no value")
        lines[key] = lineno
        if key == "profile":
            values[key] = _parse_profile(raw, lineno)
        elif key == "bc_x":
            if raw != BoundaryKind.PERIODIC.value:
                raise ConfigError(
                    f"line {lineno}: bc_x must be periodic (advection acts in the "
                    f"streamwise Fourier basis), got {raw!r}"
                )
            values[key] = raw
        elif key == "bc_y":
            values[key] = _parse_boundary(key, raw, lineno)
        else:
            values[key] = _parse_scalar(key, raw, lineno)
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    splitting = values.get("splitting", "trotter")
    if splitting not in ("trotter", "strang"):
        raise ConfigError(
            f"line {lines['splitting']}: splitting must be trotter or strang, "
            f"got {splitting!r}"
        )
    initial = str(values.get("initial", "gaussian"))
    if not (initial in ("gaussian", "uniform") or initial.startswith("basis:")):
        raise ConfigError(
            f"line {lines['initial']}: initial must be gaussian, uniform, or "
            f"basis:<index>, got {initial!r}"
        )
    reference = str(values.get("reference", "auto"))
    if reference not in _REFERENCES:
        raise ConfigError(
            f"line {lines['reference']}: reference must be one of "
            f"{', '.join(_REFERENCES)}, got {reference!r}"
        )
    try:
        scenario = ScenarioConfig(
            n_x=values["n_x"],
            n_y=values.get("n_y", 0),
            profile=values["profile"],
            diffusivity=values["D"],
            t_final=values["t_final"],
            n_steps=values.get("steps", 1),
            length=values.get("L", 1.0),
            velocity_scale=values.get("U", 1.0),
            splitting=splitting,
            bc_y=values.get("bc_y", BoundaryKind.NEUMANN),
            checkpoints=values.get("checkpoints", 10),
            merge_strang=values.get("merge_strang", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if initial.startswith("basis:"):
        try:
            basis_index(scenario, initial)
        except ValueError as exc:
            raise ConfigError(f"line {lines['initial']}: {exc}") from None
    return RunSettings(scenario=scenario, initial=initial, reference=reference)


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
