"""Batch experiments: success rates, budget curves, sweeps, and ablations.

Every experiment is a pure function of its configuration and seed. Streams
are addressed by path: campaign c of a batch runs on ``(seed, c)``, campaign
c of grid row i (radius i, every budget) on ``(seed, i, c)``, radius i of a
sweep on ``(seed, i)``, and each adds the index of its trial block. Each
batch is flat, one item per campaign or radius, and is one worker
``fn(rng, item)`` and one call of the package's one batch-worker helper,
:func:`~sixradii.stochastics._run_tasks`, so a batch forked across processes
gives the results of a serial run. The sweep and the ablation read one tally
of :func:`~sixradii.measurement.trial_blocks`.

numpy is imported by the functions that count trial outcomes, on their first
call, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

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


def summarize_success(outcomes: Iterable[CampaignResult]) -> SuccessStats:
    """Success = selected value 5; no-decision campaigns count as failures. One
    pass, so a caller can fold campaigns as they arrive without holding them."""
    n = successes = stopped = measured = 0
    for n, o in enumerate(outcomes, 1):
        if o.selected is not None:
            successes += o.selected == 5
            stopped += 1
            measured += o.measurements
    fraction = successes / n
    mean_measurements = measured / stopped if stopped else None
    half_width = 1.96 * math.sqrt(fraction * (1.0 - fraction) / n)
    return SuccessStats(fraction, mean_measurements, (n - stopped) / n, half_width, n)


def fixed_budget_success(
    cfg: TrialConfig, budget: int, n_campaigns: int, seed: int | RngState, workers: int = 1
) -> SuccessStats:
    """Success over n campaigns that each record exactly ``budget`` measurements.

    ``seed`` roots the batch as in :func:`run_campaign_batch`.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return summarize_success(run_campaign_batch(cfg, None, n_campaigns, seed, budget, workers))


def _trial_tally(rng: RngState, item: tuple):
    """How many kept trials of ``(cfg, n_trials)`` read each second count 0..WINDOW_HI + 1."""
    import numpy as np

    cfg, n_trials = item
    return sum(np.bincount(block.second[block.kept], minlength=WINDOW_HI + 2)
               for block in trial_blocks(rng, cfg, n_trials))


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
    counts = _trial_tally(rng_new(seed), (ablated, n_trials))
    kept = int(counts.sum())
    return {q: int(c) / kept for q, c in enumerate(counts) if c}


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
    items = [(replace(cfg_template, radius=float(r)), trials_per_radius) for r in radii]
    tallies = list(_run_tasks(_trial_tally, rng_new(seed), items, workers))
    return [RadiusSweepPoint(cfg.radius, int(counts.sum()) / trials_per_radius)
            for (cfg, _), counts in zip(items, tallies)]


def _grid_row_worker(rng: RngState, item: tuple) -> tuple[int | None, ...]:
    """One campaign of a grid row, run to the row's largest budget: its peak bin at each budget."""
    cfg, budgets = item
    return run_campaign(rng, cfg, None, max(budgets), budgets).peaks


def radius_budget_grid(
    spec: SweepSpec, cfg_template: TrialConfig = TrialConfig(), seed: int = 0, workers: int = 1
) -> list[GridCell]:
    """Fixed-budget success fraction per (radius, budget) cell.

    One batch of every (radius i, campaign c) on stream ``(seed, i, c)``, each
    run to the largest budget, and budget b's answer is the peak bin of the
    campaign's first b measurements. A fixed-budget campaign is a prefix of a
    longer one, so cell (i, b) is :func:`fixed_budget_success` on ``(seed, i)``,
    and a row's budgets compare on common random numbers. Each row is folded
    into one cell per budget as its campaigns arrive. Raises
    :class:`CostCapError` if cells x campaigns exceeds the cap.
    """
    radii = [float(r) for r in spec.radii]
    budgets = [int(b) for b in spec.budgets]
    n = spec.campaigns_per_cell
    if len(radii) * len(budgets) * n > spec.cost_cap:
        raise CostCapError(f"{len(radii) * len(budgets)} cells x {n} campaigns "
                           f"exceeds cost cap {spec.cost_cap}")
    items = [item for r in radii for item in [(replace(cfg_template, radius=r), budgets)] * n]
    cells = []  # item j is campaign j % n of row j // n
    batch = _run_tasks(_grid_row_worker, rng_new(seed), items, workers, lambda j: divmod(j, n))
    with closing(batch) as results:
        for r in radii:
            wins = [0] * len(budgets)
            for peaks in islice(results, n):
                wins = [w + (p == 5) for w, p in zip(wins, peaks)]
            cells += [GridCell(r, b, w / n) for b, w in zip(budgets, wins)]
    return cells
