"""Outcome histogram, the stopping rule, and the measurement campaign loop.

The measurer tallies second-iteration outcomes and keeps measuring until the
tally shows one clean peak: the peak clearly above its neighbors, a wide
enough base of well-filled bins, and counts falling away monotonically on
both flanks. The peak bin is then selected as the answer, as it is when a
fixed-budget campaign has spent its budget.

The rule is written once, over a stack of histograms. :func:`stopping_met`
runs it on one histogram; a campaign, which takes its trials a block at a
time, runs it through :func:`stopping_prefix` on every prefix of a block.

numpy is imported by the functions that count, on their first call, so
importing this module loads no numpy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, ClassVar, NamedTuple, Sequence

from .config import StoppingCriteria, TrialConfig
from .measurement import BLOCK_TRIALS, WINDOW_HI, DegenerateConfigError, trial_blocks
from .stochastics import RngState

if TYPE_CHECKING:
    import numpy as np

_CAMPAIGN_TRIAL_LIMIT = 1_000_000
MAX_MEASUREMENTS = 10_000  # a campaign's default measurement budget


@dataclass(slots=True)
class Histogram:
    """Counts of integer outcomes over the window 1..WINDOW_HI, with under/overflow.

    ``Histogram()`` is an empty window. :func:`run_campaign` selects its
    :meth:`peak_bin`, when the stopping rule passes or the fixed budget is spent.
    """

    lo: ClassVar[int] = 1
    hi: ClassVar[int] = WINDOW_HI
    counts: list[int] = field(default_factory=lambda: [0] * WINDOW_HI)  # bins lo..hi
    underflow: int = 0
    overflow: int = 0

    @property
    def total_recorded(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def record_all(self, values: np.ndarray) -> None:
        """Record an integer array; values below ``lo`` are underflow, above ``hi`` overflow."""
        import numpy as np

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
        return {"lo": self.lo, "hi": self.hi, **asdict(self)}


def _passes(h: np.ndarray, criteria: StoppingCriteria) -> np.ndarray:
    """The clean-single-peak rule on each row of a (histograms x bins) count array.

    A bin beyond the window edge counts as zero for the neighbor comparison.
    All above-threshold bins must form a single consecutive group around the
    peak; an above-threshold island elsewhere means the peak is not yet
    uniquely identifiable. Flank counts must strictly decrease away from the
    peak within the group. An empty row never passes.
    """
    import numpy as np

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
    import numpy as np

    return bool(_passes(np.array([hist.counts]), criteria)[0])


def stopping_prefix(hist: Histogram, values: np.ndarray, criteria: StoppingCriteria) -> int | None:
    """First i at which :func:`stopping_met` passes once ``values[:i + 1]`` are recorded.

    ``hist`` is left as it is; None means no prefix passes. Every prefix's
    histogram is a row of a one-hot cumulative sum, and the rule runs on all
    rows at once.
    """
    import numpy as np

    bins = np.arange(hist.lo, hist.hi + 1)
    h = np.cumsum(values[:, None] == bins, axis=0) + np.array(hist.counts)
    hits = np.flatnonzero(_passes(h, criteria))
    return int(hits[0]) if hits.size else None


class CampaignResult(NamedTuple):
    """Outcome of one campaign; ``selected`` is the histogram's peak bin or None.

    With a stopping rule, None means the measurement budget ran out before
    the rule was satisfied (a no-decision outcome, not an error). A
    fixed-budget campaign (no rule) selects its peak bin once the budget is
    spent, and None only when no measurement fell in the window. ``peaks``
    holds the same selection at each budget a fixed-budget campaign was asked for.
    """

    selected: int | None
    measurements: int
    discarded: int
    histogram: Histogram
    stream_key: tuple[int, ...]
    peaks: tuple[int | None, ...] = ()


def _selection(hist: Histogram) -> int | None:
    """The histogram's peak bin, or None when no measurement fell in the window."""
    return hist.peak_bin() if any(hist.counts) else None


def run_campaign(
    rng: RngState,
    cfg: TrialConfig,
    criteria: StoppingCriteria | None,
    max_measurements: int = MAX_MEASUREMENTS,
    budgets: Sequence[int] = (),
) -> CampaignResult:
    """Measure repeatedly until the stopping rule, or the budget, selects a peak.

    Trials whose first quotient is not 21 are discarded: they are counted but
    neither recorded in the histogram nor charged against the measurement
    budget. The rule is evaluated after every recorded measurement. Trials
    come from :func:`~sixradii.measurement.trial_blocks` of ``rng``, so a
    campaign is a pure function of the stream key and the configuration, and
    a campaign that stops early is a prefix of a longer one.

    ``criteria=None`` runs a fixed-budget campaign: it records exactly
    ``max_measurements`` and then selects the histogram's peak bin, or None
    when the window is empty. As its recorded count passes each b of
    ``budgets`` (each at most ``max_measurements``), it selects the peak bin
    of its first b measurements into ``peaks``, in the order given: what a
    campaign of budget b on the same stream selects.
    """
    import numpy as np

    if max_measurements < 1:
        raise ValueError("max_measurements must be >= 1")
    if budgets and (criteria is not None or not all(1 <= b <= max_measurements for b in budgets)):
        raise ValueError("budgets need criteria=None and each in 1..max_measurements")
    hist = Histogram()
    recorded = trials = 0
    stop = None
    peaks = {}  # budget -> selection
    blocks = trial_blocks(rng, cfg)
    while recorded < max_measurements and stop is None:
        if trials >= _CAMPAIGN_TRIAL_LIMIT:
            raise DegenerateConfigError(
                "campaign exceeded the trial limit without recording enough "
                "measurements; first iteration almost never yields 21"
            )
        block = next(blocks)
        kept = np.flatnonzero(block.kept)[: max_measurements - recorded]
        values = block.second[kept]
        stop = stopping_prefix(hist, values, criteria) if criteria is not None else None
        if stop is not None:
            kept, values = kept[: stop + 1], values[: stop + 1]
        # record the block in pieces that end at the budgets it reaches, selecting at each
        start = 0
        for end in sorted({b - recorded for b in budgets if recorded < b <= recorded + len(values)}):
            hist.record_all(values[start:end])
            peaks[recorded + end] = _selection(hist)
            start = end
        if start < len(values):
            hist.record_all(values[start:])
        recorded += len(values)
        # a campaign that ends in this block ends at its last recorded trial
        trials += int(kept[-1]) + 1 if recorded == max_measurements or stop is not None else BLOCK_TRIALS
    # the rule passed or the fixed budget is spent; an empty window selects nothing
    selected = _selection(hist) if stop is not None or criteria is None else None
    return CampaignResult(selected, recorded, trials - recorded, hist, rng.key,
                          tuple(peaks[b] for b in budgets))
