"""Batch experiments: success rates, budget curves, sweeps, and ablations.

Every experiment is a pure function of its configuration and seed. Campaigns
and grid cells run on child streams indexed by position, so batches can be
chunked across processes and merged by index with results identical to a
serial run.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .errors import ErrorModel
from .histogram import StoppingCriteria, run_campaign
from .measurement import (
    TrialConfig,
    first_iteration,
    sample_circumference_piece,
    simulate_trial,
)
from .stochastics import RngState, derive_child, derive_seed, rng_new


class CostCapError(RuntimeError):
    """A sweep would exceed its configured campaign budget."""


class AblationMode(Enum):
    ALL_ERRORS = "all"
    FIXED_ONLY = "fixed-only"
    RANDOM_ONLY = "random-only"
    NONE = "none"

    @classmethod
    def from_name(cls, name: str) -> "AblationMode":
        normalized = name.strip().lower().replace("_", "-")
        for mode in cls:
            if mode.value == normalized:
                return mode
        raise ValueError(f"unknown ablation mode: {name!r}")


def apply_ablation(model: ErrorModel, mode: AblationMode) -> ErrorModel:
    """Error model with the toggles set for the requested ablation.

    Note the juxtaposition error counts as random even though its mean is not
    zero, so the random-only ablation keeps a small systematic shrinkage.
    """
    fixed = mode in (AblationMode.ALL_ERRORS, AblationMode.FIXED_ONLY)
    random = mode in (AblationMode.ALL_ERRORS, AblationMode.RANDOM_ONLY)
    return replace(model, fixed_errors_enabled=fixed, random_errors_enabled=random)


@dataclass(frozen=True)
class SweepSpec:
    """Radius x measurement-budget grid layout."""

    radii: tuple[float, ...] = (200.0, 300.0, 450.0, 600.0, 900.0)
    budgets: tuple[int, ...] = (25, 50, 100, 200, 325, 500)
    campaigns_per_cell: int = 100
    base_seed: int = 0
    cost_cap: int = 100_000

    def __post_init__(self) -> None:
        if not self.radii or any(r <= 0 for r in self.radii):
            raise ValueError("radii must be non-empty and positive")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ValueError("budgets must be non-empty and >= 1")
        if self.campaigns_per_cell < 1:
            raise ValueError("campaigns_per_cell must be >= 1")
        if self.cost_cap < 1:
            raise ValueError("cost_cap must be >= 1")


@dataclass(frozen=True)
class CampaignOutcome:
    selected: int | None
    measurements: int
    discarded: int


@dataclass(frozen=True)
class SuccessStats:
    """Success fraction with its binomial 95% half-width, plus campaign stats."""

    success_fraction: float
    mean_measurements: float
    no_decision_fraction: float
    ci_half_width: float
    n_campaigns: int


class RadiusSweepPoint(NamedTuple):
    radius: float
    fraction_first_21: float


class GridCell(NamedTuple):
    radius: float
    budget: int
    success_fraction: float


def _run_tasks(fn: Callable, tasks: list, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, n))
    step = math.ceil(n / parts)
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def _campaign_range_worker(task) -> list[CampaignOutcome]:
    key, start, stop, cfg, criteria, max_measurements = task
    root = RngState(key[0], tuple(key[1:]))
    outcomes = []
    for i in range(start, stop):
        result = run_campaign(derive_child(root, i), cfg, criteria, max_measurements)
        selected = result.selected if criteria is not None else result.histogram.peak_bin()
        outcomes.append(CampaignOutcome(selected, result.measurements, result.discarded))
    return outcomes


def run_campaign_batch(
    cfg: TrialConfig,
    criteria: StoppingCriteria | None,
    n_campaigns: int,
    seed: int,
    max_measurements: int = 10_000,
    workers: int = 1,
) -> list[CampaignOutcome]:
    """n independent stopping-rule campaigns; campaign i uses child stream i.

    With ``criteria=None`` every campaign records exactly ``max_measurements``
    and selects its histogram's peak bin.
    """
    if n_campaigns < 1:
        raise ValueError("n_campaigns must be >= 1")
    root = rng_new(seed)
    tasks = [
        (root.key, start, stop, cfg, criteria, max_measurements)
        for start, stop in _split_ranges(n_campaigns, workers * 4)
    ]
    chunks = _run_tasks(_campaign_range_worker, tasks, workers)
    return [outcome for chunk in chunks for outcome in chunk]


def run_fixed_budget_batch(
    cfg: TrialConfig, budget: int, n_campaigns: int, seed: int, workers: int = 1
) -> list[CampaignOutcome]:
    """n campaigns that each record exactly ``budget`` measurements, no stopping rule."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return run_campaign_batch(cfg, None, n_campaigns, seed, budget, workers)


def summarize_success(outcomes: Sequence[CampaignOutcome]) -> SuccessStats:
    """Success = selected value 5; no-decision campaigns count as failures."""
    n = len(outcomes)
    successes = sum(1 for o in outcomes if o.selected == 5)
    stopped = [o.measurements for o in outcomes if o.selected is not None]
    fraction = successes / n
    mean_measurements = sum(stopped) / len(stopped) if stopped else float("nan")
    no_decision = sum(1 for o in outcomes if o.selected is None) / n
    half_width = 1.96 * math.sqrt(fraction * (1.0 - fraction) / n)
    return SuccessStats(fraction, mean_measurements, no_decision, half_width, n)


def success_probability(
    cfg: TrialConfig,
    criteria: StoppingCriteria,
    n_campaigns: int,
    seed: int,
    max_measurements: int = 10_000,
    workers: int = 1,
) -> SuccessStats:
    outcomes = run_campaign_batch(cfg, criteria, n_campaigns, seed, max_measurements, workers)
    return summarize_success(outcomes)


def fixed_budget_success(
    cfg: TrialConfig, budget: int, n_campaigns: int, seed: int, workers: int = 1
) -> SuccessStats:
    outcomes = run_fixed_budget_batch(cfg, budget, n_campaigns, seed, workers)
    return summarize_success(outcomes)


def ablation_distribution(
    cfg: TrialConfig, mode: AblationMode, n_trials: int, seed: int
) -> dict[int, float]:
    """Raw second-quotient distribution conditioned on a correct first iteration.

    Bypasses the stopping protocol: a degenerate (for example error-free)
    setup piles all mass into one bin, which the stopping rule can never
    accept, so ablation answers are read from the trial outcomes directly.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ablated = replace(cfg, error_model=apply_ablation(cfg.error_model, mode))
    root = rng_new(seed)
    counter: Counter[int] = Counter()
    kept = 0
    for t in range(n_trials):
        trial = simulate_trial(derive_child(root, t), ablated)
        if trial.first_quotient == 21:
            counter[trial.second_quotient] += 1
            kept += 1
    if kept == 0:
        return {}
    return {q: counter[q] / kept for q in sorted(counter)}


def _fitted_line_only(cfg_template: TrialConfig | None) -> TrialConfig:
    """The template (or the default setup) with the radius-450 override disabled."""
    cfg = cfg_template if cfg_template is not None else TrialConfig()
    return replace(cfg, error_model=replace(cfg.error_model, circumference_stdev_override=None))


def _radius_sweep_worker(task) -> RadiusSweepPoint:
    key, radius_index, radius, trials, cfg = task
    cfg_r = replace(cfg, radius=radius)
    root = RngState(key[0], tuple(key[1:]))
    radius_stream = derive_child(root, radius_index)
    hits = 0
    for t in range(trials):
        stream = derive_child(radius_stream, t)
        quotient, _ = first_iteration(stream, cfg_r, sample_circumference_piece(stream, cfg_r))
        hits += quotient == 21
    return RadiusSweepPoint(radius, hits / trials)


def radius_first_iteration_sweep(
    radii: Sequence[float],
    trials_per_radius: int,
    cfg_template: TrialConfig | None = None,
    seed: int = 0,
    workers: int = 1,
) -> list[RadiusSweepPoint]:
    """Fraction of trials whose first iteration yields 21, per radius.

    Always uses the fitted stdev line (the radius-450 override is disabled)
    so the radius axis is consistent.
    """
    if not radii:
        raise ValueError("radii must be non-empty")
    if trials_per_radius < 1:
        raise ValueError("trials_per_radius must be >= 1")
    cfg = _fitted_line_only(cfg_template)
    root = rng_new(seed)
    tasks = [
        (root.key, i, float(radius), trials_per_radius, cfg)
        for i, radius in enumerate(radii)
    ]
    return _run_tasks(_radius_sweep_worker, tasks, workers)


def _grid_cell_worker(task) -> GridCell:
    radius, budget, campaigns, cell_seed, cfg = task
    cfg_cell = replace(cfg, radius=radius)
    stats = fixed_budget_success(cfg_cell, budget, campaigns, cell_seed, workers=1)
    return GridCell(radius, budget, stats.success_fraction)


def radius_budget_grid(
    spec: SweepSpec, cfg_template: TrialConfig | None = None, workers: int = 1
) -> list[GridCell]:
    """Fixed-budget success fraction per (radius, budget) cell.

    Cell k runs :func:`fixed_budget_success` with seed ``derive_seed(base, k)``,
    so a single-cell grid reduces to that call exactly. The override is
    disabled for the same reason as in the radius sweep. Raises
    :class:`CostCapError` if cells x campaigns exceeds the cap.
    """
    cells = [(r, b) for r in spec.radii for b in spec.budgets]
    if len(cells) * spec.campaigns_per_cell > spec.cost_cap:
        raise CostCapError(
            f"{len(cells)} cells x {spec.campaigns_per_cell} campaigns exceeds "
            f"cost cap {spec.cost_cap}"
        )
    cfg = _fitted_line_only(cfg_template)
    tasks = [
        (float(radius), int(budget), spec.campaigns_per_cell, derive_seed(spec.base_seed, k), cfg)
        for k, (radius, budget) in enumerate(cells)
    ]
    return _run_tasks(_grid_cell_worker, tasks, workers)
