"""Batch experiments: success rates, budget curves, sweeps, and ablations.

Every experiment is a pure function of its configuration and seed. Streams
are addressed by path: campaign c of a batch runs on ``(seed, c)``, grid cell
k on ``(seed, k)`` with its campaigns on ``(seed, k, c)``, radius i of a
sweep on ``(seed, i)``, and each adds the index of its trial block. Each
batch is one worker ``fn(rng, item)`` and one call of the package's one
batch-worker helper, :func:`~sixradii.stochastics._run_tasks`, which
derives child stream i of the batch root for item i, so a batch forked
across processes gives the results of a serial run. Trials come from
:func:`~sixradii.measurement.trial_blocks`, one block kernel call per block.

numpy is imported by the functions that count trial outcomes, on their first
call, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Sequence

from .config import ErrorModel, StoppingCriteria, TrialConfig
from .histogram import CampaignResult, run_campaign
from .measurement import WINDOW_HI, trial_blocks
from .stochastics import RngState, _run_tasks, rng_new


class CostCapError(RuntimeError):
    """A sweep would exceed its configured campaign budget."""


class AblationMode(Enum):
    ALL_ERRORS = "all"
    FIXED_ONLY = "fixed-only"
    RANDOM_ONLY = "random-only"
    NONE = "none"


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
        if not self.radii or not all(0 < r < math.inf for r in self.radii):
            raise ValueError("radii must be non-empty, finite and positive")
        if not self.budgets or any(b < 1 for b in self.budgets):
            raise ValueError("budgets must be non-empty and >= 1")
        if self.campaigns_per_cell < 1:
            raise ValueError("campaigns_per_cell must be >= 1")
        if self.cost_cap < 1:
            raise ValueError("cost_cap must be >= 1")


@dataclass(frozen=True)
class SuccessStats:
    """Success fraction with its binomial 95% half-width, plus campaign stats;
    ``mean_measurements`` is over the campaigns that selected, None if none did."""

    success_fraction: float
    mean_measurements: float | None
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


def _campaign_worker(rng: RngState, item: tuple) -> CampaignResult:
    return run_campaign(rng, *item)


def run_campaign_batch(
    cfg: TrialConfig,
    criteria: StoppingCriteria | None,
    n_campaigns: int,
    seed: int | RngState,
    max_measurements: int = 10_000,
    workers: int = 1,
) -> list[CampaignResult]:
    """n independent :func:`~sixradii.histogram.run_campaign` runs; run i uses child stream i.

    ``seed`` is a seed, whose root stream roots the batch, or the root
    stream itself. With ``criteria=None`` every campaign records exactly
    ``max_measurements``, and ``run_campaign`` selects its histogram's peak
    bin, or nothing when no measurement fell in the window.
    """
    if n_campaigns < 1:
        raise ValueError("n_campaigns must be >= 1")
    root = seed if isinstance(seed, RngState) else rng_new(seed)
    items = [(cfg, criteria, max_measurements)] * n_campaigns
    return list(_run_tasks(_campaign_worker, root, items, workers))


def summarize_success(outcomes: Sequence[CampaignResult]) -> SuccessStats:
    """Success = selected value 5; no-decision campaigns count as failures."""
    n = len(outcomes)
    successes = sum(1 for o in outcomes if o.selected == 5)
    stopped = [o.measurements for o in outcomes if o.selected is not None]
    fraction = successes / n
    mean_measurements = sum(stopped) / len(stopped) if stopped else None
    no_decision = sum(1 for o in outcomes if o.selected is None) / n
    half_width = 1.96 * math.sqrt(fraction * (1.0 - fraction) / n)
    return SuccessStats(fraction, mean_measurements, no_decision, half_width, n)


def fixed_budget_success(
    cfg: TrialConfig, budget: int, n_campaigns: int, seed: int | RngState, workers: int = 1
) -> SuccessStats:
    """Success over n campaigns that each record exactly ``budget`` measurements.

    ``seed`` roots the batch as in :func:`run_campaign_batch`.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return summarize_success(run_campaign_batch(cfg, None, n_campaigns, seed, budget, workers))


def ablation_distribution(
    cfg: TrialConfig, mode: AblationMode, n_trials: int, seed: int
) -> dict[int, float]:
    """Raw second-quotient distribution conditioned on a correct first iteration.

    Bypasses the stopping protocol: a degenerate (for example error-free)
    setup piles all mass into one bin, which the stopping rule can never
    accept, so ablation answers are read from the trial outcomes directly.
    """
    import numpy as np

    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    ablated = replace(cfg, error_model=apply_ablation(cfg.error_model, mode))
    counts = sum(np.bincount(block.second[block.kept], minlength=WINDOW_HI + 2)
                 for block in trial_blocks(rng_new(seed), ablated, n_trials))
    kept = int(counts.sum())
    return {q: int(c) / kept for q, c in enumerate(counts) if c}


def _radius_sweep_worker(rng: RngState, item: tuple) -> RadiusSweepPoint:
    import numpy as np

    radius, trials, cfg = item
    blocks = trial_blocks(rng, replace(cfg, radius=radius), trials)
    hits = sum(int(np.count_nonzero(block.kept)) for block in blocks)
    return RadiusSweepPoint(radius, hits / trials)


def radius_first_iteration_sweep(
    radii: Sequence[float],
    trials_per_radius: int,
    cfg_template: TrialConfig = TrialConfig(),
    seed: int = 0,
    workers: int = 1,
) -> list[RadiusSweepPoint]:
    """Fraction of trials whose first iteration yields 21, per radius."""
    if not radii:
        raise ValueError("radii must be non-empty")
    if trials_per_radius < 1:
        raise ValueError("trials_per_radius must be >= 1")
    items = [(float(radius), trials_per_radius, cfg_template) for radius in radii]
    return list(_run_tasks(_radius_sweep_worker, rng_new(seed), items, workers))


def _grid_cell_worker(rng: RngState, item: tuple) -> GridCell:
    radius, budget, campaigns, cfg = item
    cfg_cell = replace(cfg, radius=radius)
    stats = fixed_budget_success(cfg_cell, budget, campaigns, rng)
    return GridCell(radius, budget, stats.success_fraction)


def radius_budget_grid(
    spec: SweepSpec, cfg_template: TrialConfig = TrialConfig(), workers: int = 1
) -> list[GridCell]:
    """Fixed-budget success fraction per (radius, budget) cell.

    Cell k runs :func:`fixed_budget_success` on stream ``(base_seed, k)``, so
    a single-cell grid reduces to that call exactly. Raises
    :class:`CostCapError` if cells x campaigns exceeds the cap.
    """
    cells = [(r, b) for r in spec.radii for b in spec.budgets]
    if len(cells) * spec.campaigns_per_cell > spec.cost_cap:
        raise CostCapError(
            f"{len(cells)} cells x {spec.campaigns_per_cell} campaigns exceeds "
            f"cost cap {spec.cost_cap}"
        )
    items = [
        (float(radius), int(budget), spec.campaigns_per_cell, cfg_template)
        for radius, budget in cells
    ]
    return list(_run_tasks(_grid_cell_worker, rng_new(spec.base_seed), items, workers))
