"""Command-line front end: config resolution, experiment dispatch, reports."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    keys_of,
    load_config_file,
    parse_value,
    resolve,
)
from .contfrac import cf_expand, convergent, pi_estimate
from .experiments import (
    AblationMode,
    CostCapError,
    SweepSpec,
    ablation_distribution,
    apply_ablation,
    fixed_budget_success,
    radius_budget_grid,
    radius_first_iteration_sweep,
    run_campaign_batch,
    summarize_success,
)
from .histogram import Histogram, run_campaign
from .measurement import DegenerateConfigError, simulate_trial
from .reports import provenance_payload, write_csv, write_json
from .stochastics import ReciprocalStudyConfig, reciprocal_peak_curve, rng_new
from .svgplot import render_histogram_svg

ENV_OUT_DIR = "SIXRADII_OUT"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_COST_CAP = 3


class Arg(NamedTuple):
    """One command argument, declared once.

    ``read`` turns the argument's text into its value, raising ValueError
    with the reason for a text it rejects; ``default`` is None when the
    argument is required. ``name`` keys the value in the report's
    ``parameters`` and in the object the command builds.
    """

    flag: str
    read: Callable
    default: object
    name: str
    help: str | None = None
    choices: Sequence[str] | None = None


class Command(NamedTuple):
    help: str
    run: Callable  # (arguments by name, config, threads) -> Report
    args: tuple[Arg, ...]
    reads: tuple[str, ...]  # the config keys ``run`` reads: the only ones flagged and hashed
    batch: bool = False  # whether ``run`` fans a batch out, and so takes --threads


def _number(kind: type, least: float | None = None) -> Callable:
    """Read an int or a float, of at least ``least``; a NaN is below every least value."""
    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"not {what}: {text!r}") from None
        if least is not None and not value >= least:
            raise ValueError(f"must be >= {least}")
        return value
    return read


def _list(read: Callable) -> Callable:
    """Read comma-separated values, at least one; empty items are skipped."""
    def read_list(text: str) -> tuple:
        values = tuple(read(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError("must list at least one value")
        return values
    return read_list


_INT, _FLOAT, _COUNT = _number(int), _number(float), _number(int, 1)


def _radius(text: str) -> float:
    radius = _FLOAT(text)
    if not 0 < radius < math.inf:
        raise ValueError("radius must be finite and > 0")
    return radius


def _field(cls: type, flag: str, read: Callable, name: str) -> Arg:
    """The argument for field ``name`` of ``cls``, with that field's default."""
    return Arg(flag, read, getattr(cls, name), name)


def _read(arg: Arg, text) -> object:
    """The argument's value: its default if not given, else its text as read."""
    if text is None:
        return arg.default
    try:
        return arg.read(text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {arg.flag}: {exc}") from None


_THREADS = Arg("--threads", _COUNT, os.cpu_count() or 1, "threads",
               help="worker processes for the command's batch (output is independent of this)")


def _add_argument(parser: argparse.ArgumentParser, arg: Arg) -> None:
    # a bool argument is a switch: given or not, it takes no text
    kind = ({"action": "store_true"} if arg.read is bool
            else {"required": arg.default is None, "choices": arg.choices})
    parser.add_argument(arg.flag, default=None, help=arg.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixradii",
        description="Simulate the wire measurement of a circle against six radii.",
        allow_abbrev=False,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help, allow_abbrev=False)
        # a flag for each key the command reads, and for where its reports go
        for field in SCHEMA:
            if field.name in (*command.reads, "out_dir", "formats"):
                flag = "--out" if field.name == "out_dir" else "--" + field.name.replace("_", "-")
                p.add_argument(flag, dest=f"cfg_{field.name}", metavar="VALUE", help=field.help)
        for arg in command.args + (_THREADS,) * command.batch:
            _add_argument(p, arg)
    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    values = {}
    for field in SCHEMA:
        raw = getattr(args, f"cfg_{field.name}", None)
        if raw is not None:
            values[field.name] = parse_value(field, raw)
    return values


def _spec(cls, command: str, values: Mapping):
    """``cls(**values)``; a value it rejects is a ConfigError naming its flag.

    The objects' messages start with the name of the field they reject, and
    ``command``'s declaration gives the field's flag.
    """
    try:
        return cls(**values)
    except ValueError as exc:
        field = str(exc).split()[0]
        flags = {arg.name: arg.flag for arg in _COMMANDS[command].args}
        raise ConfigError(f"invalid value for {flags.get(field, field)}: {exc}") from None


def _histogram_rows(hist: Histogram) -> list[tuple]:
    rows: list[tuple] = [(bin_value, hist.count(bin_value))
                         for bin_value in range(hist.lo, hist.hi + 1)]
    rows.append(("underflow", hist.underflow))
    rows.append(("overflow", hist.overflow))
    return rows


class Report(NamedTuple):
    """What one command reports.

    ``tables`` maps each CSV file stem to its (header, rows); ``histogram``
    is drawn as ``<command>.svg``. With ``results`` None the command
    reports on stdout only and writes no file.
    """

    summary: str
    results: Mapping | None = None
    tables: Mapping = {}
    histogram: Histogram | None = None


def _write_report(command: str, cfg: RunConfig, parameters: Mapping, report: Report) -> None:
    """Write the report files ``cfg.formats`` selects, then print the summary."""
    if report.results is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if "csv" in cfg.formats:
            for stem, (header, rows) in report.tables.items():
                write_csv(out / f"{stem}.csv", header, rows)
        if "json" in cfg.formats:
            payload = provenance_payload(command, cfg, _COMMANDS[command].reads, parameters,
                                         report.results)
            write_json(out / f"{command.replace('-', '_')}.json", payload)
        hist = report.histogram
        if "svg" in cfg.formats and hist is not None and hist.total_recorded > 0:
            render_histogram_svg(hist, out / f"{command}.svg")
    print(report.summary)


def cmd_trial(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    setup = cfg.trial
    if args["zero_errors"]:
        setup = replace(setup, error_model=apply_ablation(setup.error_model, AblationMode.NONE))
    trial = simulate_trial(rng_new(cfg.seed), setup)
    return Report(json.dumps(asdict(trial), sort_keys=True))


def cmd_campaign(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    result = run_campaign(rng_new(cfg.seed), cfg.trial, cfg.stopping, args["max_measurements"])
    selected = result.selected if result.selected is not None else "none"
    return Report(
        f"selected={selected} measurements={result.measurements} "
        f"discarded={result.discarded}",
        {
            "selected": result.selected,
            "measurements": result.measurements,
            "discarded": result.discarded,
            "stopped": result.selected is not None,
            "histogram": result.histogram.as_dict(),
            "stream_key": list(result.stream_key),
        },
        {"campaign": (("bin", "count"), _histogram_rows(result.histogram))},
        result.histogram,
    )


def cmd_success(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    outcomes = run_campaign_batch(
        cfg.trial, cfg.stopping, args["campaigns"], cfg.seed,
        args["max_measurements"], workers=threads,
    )
    stats = summarize_success(outcomes)
    mean = stats.mean_measurements
    return Report(
        f"success={stats.success_fraction:.3f} "
        f"mean_measurements={math.nan if mean is None else mean:.2f} "
        f"no_decision={stats.no_decision_fraction:.3f}",
        {
            "success_fraction": stats.success_fraction,
            "mean_measurements": stats.mean_measurements,
            "no_decision_fraction": stats.no_decision_fraction,
            "ci_half_width": stats.ci_half_width,
        },
        {
            "success": (
                ("success_fraction", "mean_measurements", "no_decision_fraction",
                 "ci_half_width", "n_campaigns"),
                [(stats.success_fraction, stats.mean_measurements,
                  stats.no_decision_fraction, stats.ci_half_width, stats.n_campaigns)],
            ),
            "success_campaigns": (
                ("campaign", "selected", "measurements", "discarded"),
                [(i, o.selected, o.measurements, o.discarded) for i, o in enumerate(outcomes)],
            ),
        },
    )


def cmd_budget(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    budget = args["budget"]
    stats = fixed_budget_success(cfg.trial, budget, args["campaigns"], cfg.seed, workers=threads)
    return Report(
        f"budget={budget} success={stats.success_fraction:.3f}",
        {"success_fraction": stats.success_fraction, "ci_half_width": stats.ci_half_width},
        {"budget": (
            ("budget", "success_fraction", "ci_half_width", "n_campaigns"),
            [(budget, stats.success_fraction, stats.ci_half_width, stats.n_campaigns)],
        )},
    )


def cmd_ablate(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    mode = AblationMode(args["mode"])
    distribution = ablation_distribution(cfg.trial, mode, args["trials"], cfg.seed)
    rendered = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(distribution.items()))
    return Report(
        f"mode={mode.value} distribution={{{rendered}}}",
        {"distribution": {str(k): v for k, v in distribution.items()}},
        {"ablate": (("second_quotient", "fraction"), sorted(distribution.items()))},
    )


def cmd_sweep_radius(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    points = radius_first_iteration_sweep(
        args["radii"], args["trials_per_radius"], cfg.trial, cfg.seed, workers=threads
    )
    fractions = [p.fraction_first_21 for p in points]
    return Report(
        f"radii={len(points)} min_fraction={min(fractions):.3f} "
        f"max_fraction={max(fractions):.3f}",
        {"fractions": {repr(p.radius): p.fraction_first_21 for p in points}},
        {"sweep_radius": (("radius", "fraction_first_21"), points)},
    )


def cmd_grid(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    cells = radius_budget_grid(_spec(SweepSpec, "grid", args), cfg.trial, cfg.seed, threads)
    budget_range = _effect_range(cells, by_budget=True)
    radius_range = _effect_range(cells, by_budget=False)
    return Report(
        f"cells={len(cells)} budget_effect={budget_range:.3f} "
        f"radius_effect={radius_range:.3f}",
        {"cells": [[c.radius, c.budget, c.success_fraction] for c in cells]},
        {"grid": (("radius", "budget", "success_fraction"), cells)},
    )


def _effect_range(cells, by_budget: bool) -> float:
    groups: dict = {}
    for cell in cells:
        key = cell.radius if by_budget else cell.budget
        groups.setdefault(key, []).append(cell.success_fraction)
    return max(max(vals) - min(vals) for vals in groups.values())


def _parse_cf_value(text: str) -> float | Fraction:
    """``pi`` and ``pi/3`` as doubles; any other text as the exact rational it spells."""
    lowered = text.strip().lower()
    if lowered == "pi":
        return math.pi
    if lowered == "pi/3":
        return math.pi / 3.0
    try:
        if "/" in lowered:
            num, _, den = lowered.partition("/")
            value = Fraction(int(num), int(den))
        else:
            # a double first, so that an exponent far outside its range is
            # rejected before Fraction raises 10 to its power
            value = float(lowered)
            if 0 < value < math.inf:
                value = Fraction(lowered)
        # the report's pi estimate, 3 x the convergent, must be a finite double
        if 0 < float(3 * value) < math.inf:
            return value
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ConfigError(f"invalid value for --value: {text!r} is not pi, pi/3, or a p/q or "
                      "decimal > 0 whose 3 x value is a finite double")


def cmd_cf(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    expansion = cf_expand(_parse_cf_value(args["value"]), args["terms"], args["tolerance"])
    if expansion.quotients == (0,):
        # a value below 1 cut after its leading 0: the convergent 0 estimates no pi
        flag = "--terms" if args["terms"] == 1 else "--tolerance"
        raise ConfigError(f"invalid value for {flag}: the expansion of {args['value']!r} "
                          "stops at [0], whose convergent 0 gives no pi estimate")
    ratio = convergent(expansion.quotients)
    pi_value = pi_estimate(ratio)
    quotients = ",".join(str(q) for q in expansion.quotients)
    return Report(
        f"quotients=[{quotients}] convergent={ratio.numerator}/{ratio.denominator} "
        f"pi={pi_value:.7f}",
        {
            "quotients": list(expansion.quotients),
            "exact": expansion.exact,
            "convergent": f"{ratio.numerator}/{ratio.denominator}",
            "pi_estimate": pi_value,
        },
        {"cf": (("term_index", "quotient"), list(enumerate(expansion.quotients)))},
    )


def cmd_recip(args: Mapping, cfg: RunConfig, threads: int) -> Report:
    study = _spec(ReciprocalStudyConfig, "recip", args)
    points = reciprocal_peak_curve(study, rng_new(cfg.seed), workers=threads)
    peaks = [math.nan if p.peak_location is None else p.peak_location for p in points]
    return Report(
        f"points={len(points)} first_peak={peaks[0]:.4f} last_peak={peaks[-1]:.4f}",
        {"points": [[p.denominator_stdev, p.peak_location, p.central_mean] for p in points]},
        {"recip": (("denominator_stdev", "peak_location", "central_mean"), points)},
    )


# Each command's help line, handler, arguments and the config keys it reads. Handlers call
# the library through this module's globals, so replacing one (as a tracer does) reaches them.
_MAX_MEASUREMENTS = Arg("--max-measurements", _COUNT, 10_000, "max_measurements")
_TRIAL_KEYS, _CAMPAIGN_KEYS = keys_of("seed", "trial"), keys_of("seed", "trial", "stopping")
_COMMANDS = {
    "trial": Command("run one measurement trial", cmd_trial, (
        Arg("--zero-errors", bool, False, "zero_errors",
            help="disable both error classes for this trial"),), _TRIAL_KEYS),
    "campaign": Command("measure until the stopping rule selects a value", cmd_campaign,
                        (_MAX_MEASUREMENTS,), _CAMPAIGN_KEYS),
    "success": Command("success statistics over repeated campaigns", cmd_success, (
        Arg("--campaigns", _COUNT, 500, "campaigns"), _MAX_MEASUREMENTS), _CAMPAIGN_KEYS, True),
    "budget": Command("success fraction at a fixed measurement budget", cmd_budget, (
        Arg("--budget", _COUNT, None, "budget"),
        Arg("--campaigns", _COUNT, 1000, "campaigns")), _TRIAL_KEYS, True),
    "ablate": Command("raw outcome distribution under an error ablation", cmd_ablate, (
        Arg("--mode", str, "all", "mode", choices=[m.value for m in AblationMode]),
        Arg("--trials", _COUNT, 10_000, "trials")),  # --mode sets both error toggles
        keys_of("seed", "trial", less=("fixed_errors_enabled", "random_errors_enabled"))),
    "sweep-radius": Command("first-iteration consistency across radii", cmd_sweep_radius, (
        Arg("--radii", _list(_radius), (100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0,
                                        450.0, 500.0, 550.0, 600.0), "radii"),
        Arg("--trials-per-radius", _COUNT, 2000, "trials_per_radius")),  # first counts never round
        keys_of("seed", "trial", less=("radius", "literal_rounding")), True),
    "grid": Command("success fraction over a radius x budget grid", cmd_grid, (
        _field(SweepSpec, "--radii", _list(_FLOAT), "radii"),
        _field(SweepSpec, "--budgets", _list(_INT), "budgets"),
        _field(SweepSpec, "--campaigns-per-cell", _INT, "campaigns_per_cell"),
        _field(SweepSpec, "--cost-cap", _INT, "cost_cap")),
        keys_of("seed", "trial", less=("radius",)), True),
    "cf": Command("continued-fraction expansion and convergent", cmd_cf, (
        Arg("--value", str, None, "value",
            help="pi, pi/3 (doubles), or exact text like 111/106 or 2.75; the reported "
                 "pi is 3 x the convergent, so it assumes the value approximates pi/3"),
        Arg("--terms", _COUNT, 3, "terms"),
        Arg("--tolerance", _number(float, 0), 0.0, "tolerance")), ()),
    "recip": Command("peak/mean of a ratio of normals across denominator stdevs", cmd_recip, (
        _field(ReciprocalStudyConfig, "--num-mean", _FLOAT, "numerator_mean"),
        _field(ReciprocalStudyConfig, "--num-stdev", _FLOAT, "numerator_stdev"),
        _field(ReciprocalStudyConfig, "--den-mean", _FLOAT, "denominator_mean"),
        _field(ReciprocalStudyConfig, "--stdevs", _list(_FLOAT), "denominator_stdevs"),
        _field(ReciprocalStudyConfig, "--samples", _INT, "samples_per_point"),
        _field(ReciprocalStudyConfig, "--bin-width", _FLOAT, "bin_width")), ("seed",), True),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        values = {arg.name: _read(arg, getattr(args, arg.flag[2:].replace("-", "_")))
                  for arg in command.args}
        threads = _read(_THREADS, args.threads) if command.batch else 1
        file_values = load_config_file(args.config) if args.config else {}
        cfg = resolve(file_values, _flag_values(args), os.environ.get(ENV_OUT_DIR))
        _write_report(args.command, cfg, values, command.run(values, cfg, threads))
        return EXIT_OK
    except CostCapError as exc:
        print(f"cost cap exceeded: {exc}", file=sys.stderr)
        return EXIT_COST_CAP
    except (ConfigError, DegenerateConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
