"""Command-line front end: config resolution, experiment dispatch, reports."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple

from .config import (
    SCHEMA,
    ConfigError,
    RunConfig,
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


def _flag_for(key: str) -> str:
    return "--out" if key == "out_dir" else "--" + key.replace("_", "-")


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value config file")
    common.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for campaign batches and recip grid points "
        "(output is independent of this)",
    )
    for field in SCHEMA:
        common.add_argument(
            _flag_for(field.name),
            dest=f"cfg_{field.name}",
            metavar="VALUE",
            help=field.help,
        )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixradii",
        description="Simulate the wire measurement of a circle against six radii.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trial", parents=[common], help="run one measurement trial")
    p.add_argument("--zero-errors", action="store_true",
                   help="disable both error classes for this trial")

    p = sub.add_parser("campaign", parents=[common],
                       help="measure until the stopping rule selects a value")
    p.add_argument("--max-measurements", type=int, default=10_000)

    p = sub.add_parser("success", parents=[common],
                       help="success statistics over repeated campaigns")
    p.add_argument("--campaigns", type=int, default=500)
    p.add_argument("--max-measurements", type=int, default=10_000)

    p = sub.add_parser("budget", parents=[common],
                       help="success fraction at a fixed measurement budget")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--campaigns", type=int, default=1000)

    p = sub.add_parser("ablate", parents=[common],
                       help="raw outcome distribution under an error ablation")
    p.add_argument("--mode", default="all",
                   choices=[m.value for m in AblationMode])
    p.add_argument("--trials", type=int, default=10_000)

    p = sub.add_parser("sweep-radius", parents=[common],
                       help="first-iteration consistency across radii")
    p.add_argument("--radii", default="100,150,200,250,300,350,400,450,500,550,600")
    p.add_argument("--trials-per-radius", type=int, default=2000)

    p = sub.add_parser("grid", parents=[common],
                       help="success fraction over a radius x budget grid")
    p.add_argument("--radii", default="200,300,450,600,900")
    p.add_argument("--budgets", default="25,50,100,200,325,500")
    p.add_argument("--campaigns-per-cell", type=int, default=100)
    p.add_argument("--cost-cap", type=int, default=100_000)

    p = sub.add_parser("cf", parents=[common],
                       help="continued-fraction expansion and convergent")
    p.add_argument("--value", required=True,
                   help="pi, pi/3 (doubles), or exact text like 111/106 or 2.75; the reported "
                        "pi is 3 x the convergent, so it assumes the value approximates pi/3")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--tolerance", type=float, default=0.0)

    p = sub.add_parser("recip", parents=[common],
                       help="peak/mean of a ratio of normals across denominator stdevs")
    p.add_argument("--num-mean", type=float, default=5.0)
    p.add_argument("--num-stdev", type=float, default=0.2)
    p.add_argument("--den-mean", type=float, default=1.0)
    p.add_argument("--stdevs", default="0,0.05,0.1,0.15,0.2")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--bin-width", type=float, default=0.02)

    return parser


def _flag_values(args: argparse.Namespace) -> dict:
    values = {}
    for field in SCHEMA:
        raw = getattr(args, f"cfg_{field.name}", None)
        if raw is not None:
            values[field.name] = parse_value(field, raw)
    if getattr(args, "zero_errors", False):
        values["fixed_errors_enabled"] = False
        values["random_errors_enabled"] = False
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    return resolve(file_values, _flag_values(args), os.environ.get(ENV_OUT_DIR))


# Numeric arguments checked before any command runs: (argument, name in the
# message, least value). A NaN is below every least value.
_LEAST = (
    ("max_measurements", "max_measurements", 1),
    ("campaigns", "n_campaigns", 1),
    ("budget", "budget", 1),
    ("trials", "n_trials", 1),
    ("trials_per_radius", "trials_per_radius", 1),
    ("terms", "max_terms", 1),
    ("tolerance", "tolerance", 0),
    ("threads", "threads", 1),
)


def _check_args(args: argparse.Namespace) -> None:
    """Reject a command argument below its least value, naming its flag."""
    for attr, name, least in _LEAST:
        value = getattr(args, attr, None)
        if value is not None and not value >= least:
            raise ConfigError(f"invalid value for {_flag_for(attr)}: {name} must be >= {least}")


def _spec(cls, flags: Mapping[str, str], **values):
    """``cls(**values)``; a value it rejects is a ConfigError naming its flag.

    ``flags`` maps field names to flags; the objects' messages start with the
    name of the field they reject.
    """
    try:
        return cls(**values)
    except ValueError as exc:
        field = str(exc).split()[0]
        raise ConfigError(f"invalid value for {flags.get(field, field)}: {exc}") from None


def _parse_list(text: str, flag: str, kind: type = float) -> tuple:
    try:
        values = tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"invalid value for {flag}: {text!r}") from None
    if not values:
        raise ConfigError(f"invalid value for {flag}: must list at least one value")
    return values


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
    parameters: Mapping = {}
    results: Mapping | None = None
    tables: Mapping = {}
    histogram: Histogram | None = None


def _write_report(command: str, cfg: RunConfig, report: Report) -> None:
    """Write the report files ``cfg.formats`` selects, then print the summary."""
    if report.results is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if "csv" in cfg.formats:
            for stem, (header, rows) in report.tables.items():
                write_csv(out / f"{stem}.csv", header, rows)
        if "json" in cfg.formats:
            payload = provenance_payload(command, cfg, report.parameters, report.results)
            write_json(out / f"{command.replace('-', '_')}.json", payload)
        hist = report.histogram
        if "svg" in cfg.formats and hist is not None and hist.total_recorded > 0:
            render_histogram_svg(hist, out / f"{command}.svg")
    print(report.summary)


def cmd_trial(args: argparse.Namespace, cfg: RunConfig) -> Report:
    trial = simulate_trial(rng_new(cfg.seed), cfg.trial)
    return Report(json.dumps(asdict(trial), sort_keys=True))


def cmd_campaign(args: argparse.Namespace, cfg: RunConfig) -> Report:
    result = run_campaign(rng_new(cfg.seed), cfg.trial, cfg.stopping, args.max_measurements)
    selected = result.selected if result.selected is not None else "none"
    return Report(
        f"selected={selected} measurements={result.measurements} "
        f"discarded={result.discarded}",
        {"max_measurements": args.max_measurements},
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


def cmd_success(args: argparse.Namespace, cfg: RunConfig) -> Report:
    outcomes = run_campaign_batch(
        cfg.trial, cfg.stopping, args.campaigns, cfg.seed,
        args.max_measurements, workers=args.threads,
    )
    stats = summarize_success(outcomes)
    mean = stats.mean_measurements
    return Report(
        f"success={stats.success_fraction:.3f} "
        f"mean_measurements={math.nan if mean is None else mean:.2f} "
        f"no_decision={stats.no_decision_fraction:.3f}",
        {"campaigns": args.campaigns, "max_measurements": args.max_measurements},
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


def cmd_budget(args: argparse.Namespace, cfg: RunConfig) -> Report:
    stats = fixed_budget_success(
        cfg.trial, args.budget, args.campaigns, cfg.seed, workers=args.threads
    )
    return Report(
        f"budget={args.budget} success={stats.success_fraction:.3f}",
        {"budget": args.budget, "campaigns": args.campaigns},
        {"success_fraction": stats.success_fraction, "ci_half_width": stats.ci_half_width},
        {"budget": (
            ("budget", "success_fraction", "ci_half_width", "n_campaigns"),
            [(args.budget, stats.success_fraction, stats.ci_half_width, stats.n_campaigns)],
        )},
    )


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> Report:
    mode = AblationMode(args.mode)
    distribution = ablation_distribution(cfg.trial, mode, args.trials, cfg.seed)
    rendered = ", ".join(f"{k}: {v:.3f}" for k, v in sorted(distribution.items()))
    return Report(
        f"mode={mode.value} distribution={{{rendered}}}",
        {"mode": mode.value, "trials": args.trials},
        {"distribution": {str(k): v for k, v in distribution.items()}},
        {"ablate": (("second_quotient", "fraction"), sorted(distribution.items()))},
    )


def cmd_sweep_radius(args: argparse.Namespace, cfg: RunConfig) -> Report:
    radii = _parse_list(args.radii, "--radii")
    if not all(0 < r < math.inf for r in radii):
        raise ConfigError("invalid value for --radii: radius must be finite and > 0")
    points = radius_first_iteration_sweep(
        radii, args.trials_per_radius, cfg.trial, cfg.seed, workers=args.threads
    )
    fractions = [p.fraction_first_21 for p in points]
    return Report(
        f"radii={len(points)} min_fraction={min(fractions):.3f} "
        f"max_fraction={max(fractions):.3f}",
        {"radii": list(radii), "trials_per_radius": args.trials_per_radius},
        {"fractions": {repr(p.radius): p.fraction_first_21 for p in points}},
        {"sweep_radius": (("radius", "fraction_first_21"), points)},
    )


def cmd_grid(args: argparse.Namespace, cfg: RunConfig) -> Report:
    spec = _spec(
        SweepSpec,
        {f: _flag_for(f) for f in ("radii", "budgets", "campaigns_per_cell", "cost_cap")},
        radii=_parse_list(args.radii, "--radii"),
        budgets=_parse_list(args.budgets, "--budgets", int),
        campaigns_per_cell=args.campaigns_per_cell,
        base_seed=cfg.seed,
        cost_cap=args.cost_cap,
    )
    cells = radius_budget_grid(spec, cfg.trial, workers=args.threads)
    budget_range = _effect_range(cells, by_budget=True)
    radius_range = _effect_range(cells, by_budget=False)
    return Report(
        f"cells={len(cells)} budget_effect={budget_range:.3f} "
        f"radius_effect={radius_range:.3f}",
        {
            "radii": list(spec.radii),
            "budgets": list(spec.budgets),
            "campaigns_per_cell": spec.campaigns_per_cell,
            "cost_cap": spec.cost_cap,
        },
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


def cmd_cf(args: argparse.Namespace, cfg: RunConfig) -> Report:
    value = _parse_cf_value(args.value)
    expansion = cf_expand(value, args.terms, args.tolerance)
    if expansion.quotients == (0,):
        # a value below 1 cut after its leading 0: the convergent 0 estimates no pi
        flag = "--terms" if args.terms == 1 else "--tolerance"
        raise ConfigError(f"invalid value for {flag}: the expansion of {args.value!r} "
                          "stops at [0], whose convergent 0 gives no pi estimate")
    ratio = convergent(expansion.quotients)
    pi_value = pi_estimate(ratio)
    quotients = ",".join(str(q) for q in expansion.quotients)
    return Report(
        f"quotients=[{quotients}] convergent={ratio.numerator}/{ratio.denominator} "
        f"pi={pi_value:.7f}",
        {"value": args.value, "terms": args.terms, "tolerance": args.tolerance},
        {
            "quotients": list(expansion.quotients),
            "exact": expansion.exact,
            "convergent": f"{ratio.numerator}/{ratio.denominator}",
            "pi_estimate": pi_value,
        },
        {"cf": (("term_index", "quotient"), list(enumerate(expansion.quotients)))},
    )


def cmd_recip(args: argparse.Namespace, cfg: RunConfig) -> Report:
    study = _spec(
        ReciprocalStudyConfig,
        {"numerator_mean": "--num-mean", "numerator_stdev": "--num-stdev",
         "denominator_mean": "--den-mean", "denominator_stdevs": "--stdevs",
         "samples_per_point": "--samples", "bin_width": "--bin-width"},
        numerator_mean=args.num_mean,
        numerator_stdev=args.num_stdev,
        denominator_mean=args.den_mean,
        denominator_stdevs=_parse_list(args.stdevs, "--stdevs"),
        samples_per_point=args.samples,
        bin_width=args.bin_width,
    )
    points = reciprocal_peak_curve(study, rng_new(cfg.seed), workers=args.threads)
    peaks = [math.nan if p.peak_location is None else p.peak_location for p in points]
    return Report(
        f"points={len(points)} first_peak={peaks[0]:.4f} last_peak={peaks[-1]:.4f}",
        asdict(study),
        {"points": [[p.denominator_stdev, p.peak_location, p.central_mean] for p in points]},
        {"recip": (("denominator_stdev", "peak_location", "central_mean"), points)},
    )


_COMMANDS = {
    "trial": cmd_trial,
    "campaign": cmd_campaign,
    "success": cmd_success,
    "budget": cmd_budget,
    "ablate": cmd_ablate,
    "sweep-radius": cmd_sweep_radius,
    "grid": cmd_grid,
    "cf": cmd_cf,
    "recip": cmd_recip,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        cfg = _resolve_config(args)
        _write_report(args.command, cfg, _COMMANDS[args.command](args, cfg))
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
