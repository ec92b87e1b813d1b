"""Flat key=value run configuration: parsing, precedence, and digests.

One documented key per error-model, trial, and stopping-criteria field.
Unknown keys are hard errors. Precedence when resolving: command-line flag
> config-file key > environment default (output directory only) > built-in
default. The serialized form is canonical, so its SHA-256 digest identifies
a configuration in provenance records.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import ErrorModel
from .histogram import StoppingCriteria
from .measurement import TrialConfig


class ConfigError(ValueError):
    """Bad config key or value; the message names the offender."""


class SchemaField(NamedTuple):
    name: str
    kind: str  # float | int | bool | optional_float | str | formats
    default: object
    help: str
    in_digest: bool = True  # False for keys that cannot affect results


SCHEMA: tuple[SchemaField, ...] = (
    SchemaField("radius", "float", 450.0, "circle radius in mm"),
    SchemaField("seed", "int", 0, "root seed for all random streams"),
    SchemaField("literal_rounding", "bool", False,
                "use the as-written rounding branch in the second iteration"),
    SchemaField("wire_diameter", "float", 0.5, "wire diameter in mm"),
    SchemaField("bend_elongation_per_mm", "float", 0.057,
                "straightened-length excess per mm of wire diameter"),
    SchemaField("cut_elongation", "float", 0.095, "long-side bevel protrusion per cut, mm"),
    SchemaField("cut_match_stdev", "float", 0.09, "stdev of cutting a wire to match, mm"),
    SchemaField("juxtaposition_span", "float", 0.18, "width of the uniform juxtaposition error, mm"),
    SchemaField("circumference_stdev_base", "float", 0.05,
                "groove-placement stdev intercept, mm"),
    SchemaField("circumference_stdev_slope", "float", 8.68e-4,
                "groove-placement stdev slope, mm per mm radius"),
    SchemaField("circumference_stdev_override", "optional_float", None,
                "stdev pinned at radius 450 (set 0.3538 for the recorded constant); 'none' uses the fitted line"),
    SchemaField("fixed_errors_enabled", "bool", True, "apply systematic error terms"),
    SchemaField("random_errors_enabled", "bool", True, "apply random error terms"),
    SchemaField("min_peak_count", "int", 5, "minimum counts in the peak bin"),
    SchemaField("peak_dominance", "float", 1.05, "required peak/neighbor count ratio"),
    SchemaField("min_consecutive_bins", "int", 5,
                "minimum consecutive bins above the threshold fraction"),
    SchemaField("bin_threshold_fraction", "float", 0.20,
                "fraction of the peak count a bin must exceed"),
    SchemaField("out_dir", "str", "out", "directory for report files", in_digest=False),
    SchemaField("formats", "formats", ("csv", "json"), "output formats: csv,json,svg",
                in_digest=False),
)

_BY_NAME = {f.name: f for f in SCHEMA}
_VALID_FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class RunConfig:
    radius: float = 450.0
    seed: int = 0
    literal_rounding: bool = False
    wire_diameter: float = 0.5
    bend_elongation_per_mm: float = 0.057
    cut_elongation: float = 0.095
    cut_match_stdev: float = 0.09
    juxtaposition_span: float = 0.18
    circumference_stdev_base: float = 0.05
    circumference_stdev_slope: float = 8.68e-4
    circumference_stdev_override: float | None = None
    fixed_errors_enabled: bool = True
    random_errors_enabled: bool = True
    min_peak_count: int = 5
    peak_dominance: float = 1.05
    min_consecutive_bins: int = 5
    bin_threshold_fraction: float = 0.20
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def error_model(self) -> ErrorModel:
        return ErrorModel(
            wire_diameter=self.wire_diameter,
            bend_elongation_per_mm=self.bend_elongation_per_mm,
            cut_elongation=self.cut_elongation,
            cut_match_stdev=self.cut_match_stdev,
            juxtaposition_span=self.juxtaposition_span,
            circumference_stdev_base=self.circumference_stdev_base,
            circumference_stdev_slope=self.circumference_stdev_slope,
            circumference_stdev_override=self.circumference_stdev_override,
            fixed_errors_enabled=self.fixed_errors_enabled,
            random_errors_enabled=self.random_errors_enabled,
        )

    def trial_config(self) -> TrialConfig:
        return TrialConfig(
            radius=self.radius,
            error_model=self.error_model(),
            literal_rounding=self.literal_rounding,
        )

    def stopping_criteria(self) -> StoppingCriteria:
        return StoppingCriteria(
            min_peak_count=self.min_peak_count,
            peak_dominance=self.peak_dominance,
            min_consecutive_bins=self.min_consecutive_bins,
            bin_threshold_fraction=self.bin_threshold_fraction,
        )


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
        if field.kind == "optional_float":
            return None if text.lower() == "none" else float(text)
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
    if field.kind == "optional_float":
        return "none" if value is None else repr(float(value))
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
        f"{field.name} = {_format_value(field, getattr(cfg, field.name))}"
        for field in SCHEMA
        if field.in_digest or not result_keys_only
    ]
    return "\n".join(lines) + "\n"


def digest(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize(cfg, result_keys_only=True).encode("utf-8")).hexdigest()


def resolve(
    file_values: Mapping | None = None,
    flag_values: Mapping | None = None,
    env_out_dir: str | None = None,
) -> RunConfig:
    """Merge defaults, environment, config file, and flags into a RunConfig."""
    merged = {field.name: field.default for field in SCHEMA}
    if env_out_dir:
        merged["out_dir"] = env_out_dir
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if key not in _BY_NAME:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value
    return RunConfig(**merged)
