"""Outcome histogram, the stopping rule, and the measurement campaign loop.

The measurer tallies second-iteration outcomes and keeps measuring until the
tally shows one clean peak: the peak clearly above its neighbors, a wide
enough base of well-filled bins, and counts falling away monotonically on
both flanks. The peak bin is then selected as the answer.

The rule is written once, over a stack of histograms. :func:`stopping_met`
runs it on one histogram; a campaign, which takes its trials a block at a
time, runs it through :func:`stopping_prefix` on every prefix of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import BLOCK_TRIALS, WINDOW_HI, DegenerateConfigError, TrialConfig, trial_blocks
from .stochastics import RngState

_CAMPAIGN_TRIAL_LIMIT = 1_000_000


class Histogram:
    """Counts of integer outcomes over the window 1..WINDOW_HI, with under/overflow."""

    __slots__ = ("counts", "underflow", "overflow")

    lo = 1
    hi = WINDOW_HI

    def __init__(self):
        self.counts = [0] * (self.hi - self.lo + 1)
        self.underflow = 0
        self.overflow = 0

    @property
    def total_recorded(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def record_all(self, values: np.ndarray) -> None:
        """Record an integer array; values below ``lo`` are underflow, above ``hi`` overflow."""
        below, above = values < self.lo, values > self.hi
        self.underflow += int(np.count_nonzero(below))
        self.overflow += int(np.count_nonzero(above))
        tally = np.bincount(values[~below & ~above] - self.lo, minlength=len(self.counts))
        self.counts = [c + int(t) for c, t in zip(self.counts, tally)]

    def count(self, value: int) -> int:
        if not self.lo <= value <= self.hi:
            return 0
        return self.counts[value - self.lo]

    def peak_bin(self) -> int:
        """In-window bin with the maximal count; ties break toward the lowest.

        Under- and overflow are not bins, so a window without counts has none.
        """
        if not any(self.counts):
            raise ValueError("no count in the histogram window")
        return self.lo + self.counts.index(max(self.counts))

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"Histogram({self.as_dict()})"


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


def _passes(h: np.ndarray, criteria: StoppingCriteria) -> np.ndarray:
    """The clean-single-peak rule on each row of a (histograms x bins) count array.

    A bin beyond the window edge counts as zero for the neighbor comparison.
    All above-threshold bins must form a single consecutive group around the
    peak; an above-threshold island elsewhere means the peak is not yet
    uniquely identifiable. Flank counts must strictly decrease away from the
    peak within the group. An empty row never passes.
    """
    rows = np.arange(len(h))
    n_bins = h.shape[1]
    peak = h.argmax(axis=1)  # ties break toward the lowest bin, as peak_bin
    peak_count = h[rows, peak]
    below = np.where(peak > 0, h[rows, peak - 1], 0)
    above = np.where(peak < n_bins - 1, h[rows, np.minimum(peak + 1, n_bins - 1)], 0)
    high = h > (criteria.bin_threshold_fraction * peak_count)[:, None]
    # above-threshold bins form one group (around the peak) when they form one run
    runs = high[:, 0] + np.count_nonzero(high[:, 1:] & ~high[:, :-1], axis=1)
    # within the group, counts rise strictly up to the peak and fall strictly after it
    step = np.diff(h, axis=1)
    rising = np.arange(n_bins - 1) < peak[:, None]
    unresolved = high[:, 1:] & high[:, :-1] & np.where(rising, step <= 0, step >= 0)
    return (
        (peak_count >= criteria.min_peak_count)
        & (peak_count >= criteria.peak_dominance * below)
        & (peak_count >= criteria.peak_dominance * above)
        & (runs == 1)
        & (np.count_nonzero(high, axis=1) >= criteria.min_consecutive_bins)
        & ~unresolved.any(axis=1)
    )


def stopping_met(hist: Histogram, criteria: StoppingCriteria) -> bool:
    """True when the histogram shows one clean, well-supported peak."""
    return bool(_passes(np.array([hist.counts]), criteria)[0])


def stopping_prefix(hist: Histogram, values: np.ndarray, criteria: StoppingCriteria) -> int | None:
    """First i at which :func:`stopping_met` passes once ``values[:i + 1]`` are recorded.

    ``hist`` is left as it is; None means no prefix passes. Every prefix's
    histogram is a row of a one-hot cumulative sum, and the rule runs on all
    rows at once.
    """
    bins = np.arange(hist.lo, hist.hi + 1)
    h = np.cumsum(values[:, None] == bins, axis=0) + np.array(hist.counts)
    hits = np.flatnonzero(_passes(h, criteria))
    return int(hits[0]) if hits.size else None


@dataclass
class CampaignResult:
    """Outcome of one measure-until-stopping campaign.

    ``selected`` is None when the measurement budget ran out before the
    stopping rule was satisfied (a no-decision outcome, not an error), and
    always when the campaign ran without a rule.
    """

    selected: int | None
    measurements: int
    discarded: int
    histogram: Histogram
    stream_key: tuple[int, ...]

    @property
    def stopped(self) -> bool:
        return self.selected is not None


def run_campaign(
    rng: RngState,
    cfg: TrialConfig,
    criteria: StoppingCriteria | None,
    max_measurements: int = 10_000,
) -> CampaignResult:
    """Measure repeatedly until the stopping rule selects a peak.

    Trials whose first quotient is not 21 are discarded: they are counted but
    neither recorded in the histogram nor charged against the measurement
    budget. The rule is evaluated after every recorded measurement. Trials
    come from :func:`~sixradii.measurement.trial_blocks` of ``rng``, so a
    campaign is a pure function of the stream key and the configuration, and
    a campaign that stops early is a prefix of a longer one.

    ``criteria=None`` never stops: the campaign records exactly
    ``max_measurements`` and ``selected`` stays None (a fixed-budget campaign
    reads its answer from ``histogram.peak_bin()``).
    """
    if max_measurements < 1:
        raise ValueError("max_measurements must be >= 1")
    hist = Histogram()
    recorded = 0
    trials = 0
    selected = None
    blocks = trial_blocks(rng, cfg)
    while recorded < max_measurements and selected is None:
        if trials >= _CAMPAIGN_TRIAL_LIMIT:
            raise DegenerateConfigError(
                "campaign exceeded the trial limit without recording enough "
                "measurements; first iteration almost never yields 21"
            )
        block = next(blocks)
        kept = np.flatnonzero(block.first == 21)[: max_measurements - recorded]
        values = block.second[kept]
        stop = stopping_prefix(hist, values, criteria) if criteria is not None else None
        if stop is not None:
            kept, values = kept[: stop + 1], values[: stop + 1]
        hist.record_all(values)
        if stop is not None:
            selected = hist.peak_bin()
        recorded += len(values)
        # a campaign that ends in this block ends at its last recorded trial
        trials += int(kept[-1]) + 1 if recorded == max_measurements or stop is not None else BLOCK_TRIALS
    return CampaignResult(
        selected=selected,
        measurements=recorded,
        discarded=trials - recorded,
        histogram=hist,
        stream_key=rng.key,
    )
