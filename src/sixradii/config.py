"""The run's parameter objects, and the flat key=value configuration that sets them.

The error model, the trial setup and the stopping rule are defined here,
beside the schema: one documented key per field, whose default and value
kind are read from that field, so each default is written once, on the
domain object. Unknown keys are hard errors. Precedence when resolving:
command-line flag > config-file key > environment default (output directory
only) > built-in default. The serialized form is canonical, so its SHA-256
digest identifies a configuration in provenance records. Only the standard
library is loaded here, so reading parameters loads no numpy.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Collection, Mapping, NamedTuple

# Fractional circumference error that flips the second iteration from 5 to 4.
FLIP_ERROR_FRACTION = 3e-5


@dataclass(frozen=True)
class ErrorModel:
    """Every modelled error source, each class behind an on/off toggle.

    Fixed errors are systematic offsets invisible to the measurer; random
    errors scatter from trial to trial. All lengths are millimeters. Defaults
    are the values measured for 0.5 mm copper wire cut with a 20-degree
    blade: bend shortening of the wire midline (so the straightened piece
    runs long), bevel protrusion per cut, the uniform juxtaposition overlap
    of beveled ends, cut-to-match scatter, and the radius-dependent scatter
    of laying wire in the circular groove.

    Four measured quantities are not modelled. The short side of a beveled
    cut falls 0.085 mm short, but pieces are laid long side to long side, so
    only the 0.095 mm protrusion enters the arithmetic. Cross-section
    distortion of the bent wire, a systematic error of the groove itself,
    and the error of marking 6R on the wire were assessed and found to have
    no measurable effect at the flip threshold (0.0 mm each).

    The groove-placement stdev is the fitted line at every radius: the
    recorded 0.3538 mm is that line's value at radius 350, not a constant
    for radius 450.

    Every command that runs trials applies these terms through one path, the
    block kernel :func:`sixradii.measurement.trial_block`.
    """

    wire_diameter: float = 0.5
    bend_elongation_per_mm: float = 0.057
    cut_elongation: float = 0.095
    cut_match_stdev: float = 0.09
    juxtaposition_span: float = 0.18
    circumference_stdev_base: float = 0.05
    circumference_stdev_slope: float = 8.68e-4
    fixed_errors_enabled: bool = True
    random_errors_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.wire_diameter < math.inf:
            raise ValueError("wire_diameter must be finite and > 0")
        for name in (
            "bend_elongation_per_mm",
            "cut_elongation",
            "cut_match_stdev",
            "juxtaposition_span",
            "circumference_stdev_base",
            "circumference_stdev_slope",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def bend_elongation(self) -> float:
        """Straightened-length excess of a wire cut to fit the full circle.

        The midline shortens when bent, so a wire cut to circumference length
        while in the groove is longer once straightened; the term is added to
        the piece. Proportional to wire diameter (0.057 mm per mm).
        """
        if not self.fixed_errors_enabled:
            return 0.0
        return self.bend_elongation_per_mm * self.wire_diameter

    def cut_elongation_effective(self) -> float:
        """Long-side bevel protrusion per cut, or 0 with fixed errors off."""
        return self.cut_elongation if self.fixed_errors_enabled else 0.0

    def cut_match_stdev_effective(self) -> float:
        """Stdev of cutting one wire to match another, or 0 with random errors off."""
        return self.cut_match_stdev if self.random_errors_enabled else 0.0

    def juxtaposition_span_effective(self) -> float:
        """Width of the uniform juxtaposition error, or 0 with random errors off."""
        return self.juxtaposition_span if self.random_errors_enabled else 0.0

    def circumference_stdev(self, radius: float) -> float:
        """Stdev of laying the wire into the circular groove at this radius."""
        if radius <= 0:
            raise ValueError("radius must be > 0")
        if not self.random_errors_enabled:
            return 0.0
        return self.circumference_stdev_base + self.circumference_stdev_slope * radius


def flip_threshold(radius: float) -> float:
    """Circumference error, in mm, that flips the second iteration from 5 to 4.

    0.003% of the circumference: about 38 microns on a 200 mm radius circle.
    Error sources well below this are ignorable.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    return FLIP_ERROR_FRACTION * 2.0 * math.pi * radius


@dataclass(frozen=True)
class TrialConfig:
    """Geometry and error model for one measurement setup.

    ``literal_rounding`` switches the second-iteration rounding to the
    as-written branch kept for study; the default is nearest-integer
    rounding, which is the only branch consistent with the fixed-only
    ablation outcome.
    """

    radius: float = 450.0
    error_model: ErrorModel = field(default_factory=ErrorModel)
    literal_rounding: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be finite and > 0")

    @property
    def six_r(self) -> float:
        return 6.0 * self.radius

    @property
    def true_circumference(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass(frozen=True)
class StoppingCriteria:
    """Parameters of the clean-single-peak rule.

    The peak must hold at least ``min_peak_count`` counts and be at least
    ``peak_dominance`` times each adjacent bin; at least
    ``min_consecutive_bins`` consecutive bins (the peak among them) must
    exceed ``bin_threshold_fraction`` of the peak; and within that group the
    counts must be strictly decreasing moving away from the peak on both
    sides.

    The decrease is strict: equal adjacent counts within the group mean the
    flanks are not yet resolved and measuring continues. The weak
    (non-increasing) variant stops campaigns roughly twice as early and
    measurably degrades how often the selected peak is the true one.
    """

    min_peak_count: int = 5
    peak_dominance: float = 1.05
    min_consecutive_bins: int = 5
    bin_threshold_fraction: float = 0.20

    def __post_init__(self) -> None:
        if self.min_peak_count < 1:
            raise ValueError("min_peak_count must be >= 1")
        if not 1.0 < self.peak_dominance < math.inf:
            raise ValueError("peak_dominance must be finite and > 1")
        if self.min_consecutive_bins < 1:
            raise ValueError("min_consecutive_bins must be >= 1")
        if not 0.0 < self.bin_threshold_fraction < 1.0:
            raise ValueError("bin_threshold_fraction must be in (0, 1)")


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
    path: tuple[str, ...]  # attribute path from RunConfig to the value

    def read(self, cfg: RunConfig):
        value = cfg
        for attr in self.path:
            value = getattr(value, attr)
        return value


def _key(name: str, help_text: str) -> SchemaField:
    path, f = _LEAVES[name]
    return SchemaField(name, _KINDS[f.type], f.default, help_text, path)


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
    _key("out_dir", "directory for report files"),
    _key("formats", "output formats: csv,json,svg"),
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


def keys_of(*fields: str, less: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The keys that set the named RunConfig fields, but those in ``less``, in schema order."""
    return tuple(key.name for key in SCHEMA if key.path[0] in fields and key.name not in less)


def serialize(cfg: RunConfig, keys: Collection[str] | None = None) -> str:
    """Canonical text form, one line per key in schema order: every key, or those in ``keys``.

    A command's provenance record and digest take the keys it reads, so
    reports stay byte-identical wherever they are written and whatever else
    the config sets.
    """
    return "".join(f"{key.name} = {_format_value(key, key.read(cfg))}\n"
                   for key in SCHEMA if keys is None or key.name in keys)


def digest(cfg: RunConfig, keys: Collection[str] = keys_of("seed", "trial", "stopping")) -> str:
    """SHA-256 of ``serialize(cfg, keys)``; by default over every key a result can depend on."""
    return hashlib.sha256(serialize(cfg, keys).encode("utf-8")).hexdigest()


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
