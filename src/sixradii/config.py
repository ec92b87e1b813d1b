"""Flat key=value run configuration: parsing, precedence, and digests.

One documented key per error-model, trial, and stopping-criteria field; a
key's default and value kind are read from that dataclass field, so each
default is written once, on the domain object. Unknown keys are hard errors. Precedence when resolving: command-line flag
> config-file key > environment default (output directory only) > built-in
default. The serialized form is canonical, so its SHA-256 digest identifies
a configuration in provenance records.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Mapping, NamedTuple

from .histogram import StoppingCriteria
from .measurement import TrialConfig


class ConfigError(ValueError):
    """Bad config key or value; the message names the offender."""


@dataclass(frozen=True)
class RunConfig:
    """A resolved run: the trial setup, the stopping rule, and run-level keys."""

    trial: TrialConfig = field(default_factory=TrialConfig)
    stopping: StoppingCriteria = field(default_factory=StoppingCriteria)
    seed: int = 0
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _leaves(cls, path: tuple[str, ...] = ()):
    """(path, field) of every scalar field of ``cls``, nested dataclasses expanded."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from _leaves(f.default_factory, path + (f.name,))
        else:
            yield path + (f.name,), f


_LEAVES = {path[-1]: (path, f) for path, f in _leaves(RunConfig)}
# Value kind of each field annotation, and the Python types resolve accepts per
# kind; bool is an int subclass, so resolve gives a bool to bool keys only.
_KINDS = {t: t for t in ("float", "int", "bool", "str")} | {"tuple[str, ...]": "formats"}
_TYPES = {"float": (int, float), "int": int, "bool": bool, "str": (str, os.PathLike),
          "formats": tuple}


class SchemaField(NamedTuple):
    """One config key; its kind and default come from the field that owns it."""

    name: str
    kind: str  # float | int | bool | str | formats
    default: object
    help: str
    in_digest: bool  # False for keys that cannot affect results
    path: tuple[str, ...]  # attribute path from RunConfig to the value

    def read(self, cfg: RunConfig):
        value = cfg
        for attr in self.path:
            value = getattr(value, attr)
        return value


def _key(name: str, help_text: str, in_digest: bool = True) -> SchemaField:
    path, f = _LEAVES[name]
    return SchemaField(name, _KINDS[f.type], f.default, help_text, in_digest, path)


SCHEMA: tuple[SchemaField, ...] = (
    _key("radius", "circle radius in mm"),
    _key("seed", "root seed for all random streams"),
    _key("literal_rounding", "use the as-written rounding branch in the second iteration"),
    _key("wire_diameter", "wire diameter in mm"),
    _key("bend_elongation_per_mm", "straightened-length excess per mm of wire diameter"),
    _key("cut_elongation", "long-side bevel protrusion per cut, mm"),
    _key("cut_match_stdev", "stdev of cutting a wire to match, mm"),
    _key("juxtaposition_span", "width of the uniform juxtaposition error, mm"),
    _key("circumference_stdev_base", "groove-placement stdev intercept, mm"),
    _key("circumference_stdev_slope", "groove-placement stdev slope, mm per mm radius"),
    _key("fixed_errors_enabled", "apply systematic error terms"),
    _key("random_errors_enabled", "apply random error terms"),
    _key("min_peak_count", "minimum counts in the peak bin"),
    _key("peak_dominance", "required peak/neighbor count ratio"),
    _key("min_consecutive_bins", "minimum consecutive bins above the threshold fraction"),
    _key("bin_threshold_fraction", "fraction of the peak count a bin must exceed"),
    _key("out_dir", "directory for report files", in_digest=False),
    _key("formats", "output formats: csv,json,svg", in_digest=False),
)

_BY_NAME = {f.name: f for f in SCHEMA}
_VALID_FORMATS = ("csv", "json", "svg")


def parse_value(field: SchemaField, raw: str):
    text = raw.strip()
    try:
        if field.kind == "float":
            return float(text)
        if field.kind == "int":
            return int(text)
        if field.kind == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError
        if field.kind == "formats":
            parts = tuple(p.strip() for p in text.split(",") if p.strip())
            bad = [p for p in parts if p not in _VALID_FORMATS]
            if bad or not parts:
                raise ValueError
            return parts
        return text  # str
    except ValueError:
        raise ConfigError(f"invalid value for {field.name}: {raw!r}") from None


def _format_value(field: SchemaField, value) -> str:
    if field.kind == "bool":
        return "true" if value else "false"
    if field.kind == "float":
        return repr(float(value))
    if field.kind == "formats":
        return ",".join(value)
    return str(value)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; keys must be known."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        field = _BY_NAME.get(key)
        if field is None:
            raise ConfigError(f"unknown config key: {key}")
        if key in values:
            raise ConfigError(f"duplicate config key: {key}")
        values[key] = parse_value(field, raw)
    return values


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def serialize(cfg: RunConfig, result_keys_only: bool = False) -> str:
    """Canonical text form, one key per line in schema order.

    ``result_keys_only`` drops keys that cannot affect simulation results
    (output directory and formats); that view feeds provenance records and
    the digest, so reports stay byte-identical wherever they are written.
    """
    lines = [
        f"{key.name} = {_format_value(key, key.read(cfg))}"
        for key in SCHEMA
        if key.in_digest or not result_keys_only
    ]
    return "\n".join(lines) + "\n"


def digest(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize(cfg, result_keys_only=True).encode("utf-8")).hexdigest()


def resolve(
    file_values: Mapping | None = None,
    flag_values: Mapping | None = None,
    env_out_dir: str | None = None,
) -> RunConfig:
    """Merge defaults, environment, config file, and flags into a RunConfig.

    A value of the wrong type, or one the trial and stopping objects reject,
    raises :class:`ConfigError` here, whichever command the config is for.
    """
    merged: dict = {"out_dir": env_out_dir} if env_out_dir else {}
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if key not in _BY_NAME:
                raise ConfigError(f"unknown config key: {key}")
            kind = _BY_NAME[key].kind
            if not isinstance(value, _TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
                raise ConfigError(f"invalid value for {key}: {value!r}")
            merged[key] = value
    try:
        return _build(RunConfig, merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build(cls, values: Mapping):
    """An instance of ``cls`` taking its leaf fields from ``values`` where set."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _build(f.default_factory, values)
        elif f.name in values:
            kwargs[f.name] = values[f.name]
    return cls(**kwargs)
