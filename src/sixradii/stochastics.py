"""Deterministic random streams and the ratio-of-normals distribution study.

Every stochastic operation in this package draws from an :class:`RngState`,
which is addressed by a 64-bit seed plus a derivation path. Rebuilding a
state with the same key replays the same samples bit for bit, and child
streams are derived from the key rather than by consuming the parent, so
serial and parallel execution of the same layout give identical results.

The package's one batch-worker helper, :func:`_run_tasks`, lives here, at the
bottom of the import graph, so that both the ratio study below and the batch
experiments in :mod:`sixradii.experiments` fan out through it. A batch is a
root stream and a list of items, and item i runs on child stream i of the
root (or on the path below the root that the caller gives it), whichever
process runs it. The helper derives the streams, and a pool worker is sent
each as its address: a state builds its numpy generator on its first draw.

numpy is imported by the functions that draw or count, on their first call,
so importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

_MAX_SEED = 2**64

# Samples per chunk of the ratio study. Chunk c of grid point j is one task, on
# stream (seed, j, c), so this fixes the stream layout and the task size; a
# chunk is drawn tile by tile, so it sets no buffer's size.
_STUDY_CHUNK = 4_000_000
# Samples per tile: small enough that a tile's buffers stay in cache. Tiling
# moves no draw, no count and no addition of the deviation sum.
_TILE = 65_536
# Kept deviations per block of a chunk's deviation sum. The chunk's kept
# deviations, in sample order, are summed block by block (numpy's pairwise
# sum) and the block sums added in order, so this fixes the mean's rounding.
_SUM_BLOCK = 4096


class RngState:
    """A seeded random stream identified by (seed, derivation path)."""

    __slots__ = ("seed", "path", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not 0 <= int(seed) < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    @property
    def generator(self) -> np.random.Generator:
        """The stream's numpy generator, built on its first draw."""
        if not hasattr(self, "_generator"):
            import numpy as np

            sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.PCG64(sequence))
        return self._generator

    @property
    def key(self) -> tuple[int, ...]:
        """Full stream address; two states with equal keys replay identically."""
        return (self.seed, *self.path)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, path={self.path})"


def rng_new(seed: int) -> RngState:
    """Root stream for a seed. The sample sequence is a pure function of it."""
    return RngState(seed)


def derive_child(rng: RngState, index: int) -> RngState:
    """Independent child stream for a non-negative index (campaign, cell, trial block).

    Derivation depends only on the parent's key, never on how much of the
    parent stream has been consumed.
    """
    if index < 0:
        raise ValueError("child index must be >= 0")
    return RngState(rng.seed, rng.path + (int(index),))


def normal_block(rng: RngState, n: int) -> np.ndarray:
    """n standard-normal draws as an array."""
    return rng.generator.standard_normal(n)


def uniform_block(rng: RngState, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws from U[lo, hi] as an array."""
    if lo > hi:
        raise ValueError("lo must be <= hi")
    return rng.generator.uniform(lo, hi, n)


@dataclass(frozen=True)
class ReciprocalStudyConfig:
    """Grid study of the ratio of two normal variables.

    For each denominator stdev in the grid, numerator/denominator samples are
    histogrammed and the mode-bin center and in-window sample mean recorded.
    As the denominator spread grows the peak of the ratio distribution moves
    down while its central mass shifts up, which is the mechanism that biases
    the second measurement iteration toward 4.
    """

    numerator_mean: float = 5.0
    numerator_stdev: float = 0.2
    denominator_mean: float = 1.0
    denominator_stdevs: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    samples_per_point: int = 100_000_000
    bin_width: float = 0.02

    def __post_init__(self) -> None:
        # written so that a NaN fails every check
        if not -math.inf < self.numerator_mean < math.inf:
            raise ValueError("numerator_mean must be finite")
        if not 0 < self.denominator_mean < math.inf:
            raise ValueError("denominator_mean must be finite and > 0")
        if not abs(self.numerator_mean / self.denominator_mean) < math.inf:
            raise ValueError("numerator_mean / denominator_mean must be finite")
        if not 0 <= self.numerator_stdev < math.inf:
            raise ValueError("numerator_stdev must be finite and >= 0")
        if not self.denominator_stdevs:
            raise ValueError("denominator_stdevs must be non-empty")
        if not all(0 <= s < math.inf for s in self.denominator_stdevs):
            raise ValueError("denominator_stdevs must all be finite and >= 0")
        if self.samples_per_point < 10_000:
            raise ValueError("samples_per_point must be >= 10000")
        if not 0 < self.bin_width < math.inf:
            raise ValueError("bin_width must be finite and > 0")
        # 2 * ceil(5 * |r0| / bin_width) + 1 bins, at most 4,000,001 (32 MB
        # a histogram)
        if not 5.0 * abs(self.numerator_mean / self.denominator_mean) / self.bin_width <= 2e6:
            raise ValueError("bin_width must be >= 5 * |numerator_mean / denominator_mean| / 2e6 "
                             "(at most 4000001 histogram bins)")


class ReciprocalPoint(NamedTuple):
    denominator_stdev: float
    peak_location: float | None  # both None when no sample lands in the window
    central_mean: float | None


def _run_tasks(fn: Callable, root: RngState, items: list, workers: int,
               paths: list[tuple[int, ...]] | None = None) -> Iterator:
    """Yield ``fn(stream, item)`` for each item, in item order.

    The one batch-worker helper of the package: every batch goes through it,
    on up to ``workers`` processes. Item i runs on the stream at ``paths[i]``
    below ``root``, by default ``(i,)``: child stream i. Results come back in
    item order, so a batch gives the same results at any worker count, and
    lazily, so a caller that folds them holds few at once. A worker is sent
    each item with its stream, derived here and not yet drawn, so sent as its
    address. Items go out in about four chunks per worker: enough to even out
    items of uneven cost, few enough to keep the round trips cheap. numpy is
    loaded in the parent before the pool forks, so no worker loads it again.
    """
    if paths is None:
        streams = [derive_child(root, i) for i in range(len(items))]
    else:
        streams = [RngState(root.seed, root.path + tuple(path)) for path in paths]
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, streams, items)
        return
    # imported here, so that importing the package loads no process machinery;
    # numpy before the fork, so that the workers inherit it
    from concurrent.futures import ProcessPoolExecutor

    import numpy  # noqa: F401

    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        yield from pool.map(fn, streams, items, chunksize=chunksize)


def _recip_window(cfg: ReciprocalStudyConfig) -> tuple[float, int]:
    """The histogram's center r0 and its number of bins on either side."""
    r0 = cfg.numerator_mean / cfg.denominator_mean
    return r0, math.ceil(5.0 * abs(r0) / cfg.bin_width)


def _recip_chunk_worker(rng: RngState, item: tuple) -> tuple:
    """Occupied bins, their counts, in-window count and deviation sum of a chunk.

    The bins go back as int32 pairs (a chunk's counts fit, as a chunk has
    fewer than 2**31 samples), so a chunk's result is never larger than the
    point's histogram and is usually far smaller.

    Numerators come from child 0 of the chunk's stream and denominators from
    child 1, each drawn tile by tile into a tile buffer; consecutive draws
    into tiles are the draws of one call, and the kept deviations are summed
    in blocks of ``_SUM_BLOCK`` across tiles, so no result depends on the tile.
    """
    import numpy as np

    cfg, stdev, n = item
    numerator_draws = derive_child(rng, 0).generator
    denominator_draws = derive_child(rng, 1).generator
    r0, half_bins = _recip_window(cfg)
    w = cfg.bin_width
    tile = min(n, _TILE)
    num_buf, den_buf, off_buf, abs_buf = (np.empty(tile) for _ in range(4))
    idx_buf, keep_buf = np.empty(tile, dtype=np.int64), np.empty(tile, dtype=bool)
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
    in_window = 0
    deviation_sum = 0.0
    pending = np.empty(_SUM_BLOCK + tile)  # kept deviations not yet in a full block
    held = 0
    # A denominator near zero, or a stdev near the float limit, gives huge,
    # infinite or NaN ratios: they stay in the sample but fall outside the
    # window, so the arithmetic on them warns of nothing.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n, tile):
            m = min(tile, n - start)
            # standard_normal * stdev + mean is bit for bit normal(mean, stdev)
            numerators, denominators = num_buf[:m], den_buf[:m]
            numerator_draws.standard_normal(out=numerators)
            numerators *= cfg.numerator_stdev
            numerators += cfg.numerator_mean
            denominator_draws.standard_normal(out=denominators)
            denominators *= stdev
            denominators += cfg.denominator_mean
            deviations = np.divide(numerators, denominators, out=denominators)
            deviations -= r0
            offsets = np.rint(np.divide(deviations, w, out=off_buf[:m]), out=off_buf[:m])
            # NaN and +-inf offsets fail the comparison, so no isfinite mask is needed
            keep = np.less_equal(np.abs(offsets, out=abs_buf[:m]), half_bins, out=keep_buf[:m])
            # cast the whole tile into its buffer, then select (casting the
            # selected floats makes two fresh arrays and is several times
            # slower); the casts of NaN and inf offsets are never selected
            np.copyto(idx_buf[:m], offsets, casting="unsafe")
            idx = idx_buf[:m][keep]
            idx += half_bins
            # add.at, not bincount: its cost does not grow with the bin count
            np.add.at(counts, idx, 1)
            in_window += idx.size
            pending[held:held + idx.size] = deviations[keep]
            held += idx.size
            if held >= _SUM_BLOCK:
                full = held - held % _SUM_BLOCK
                for block_sum in pending[:full].reshape(-1, _SUM_BLOCK).sum(axis=1).tolist():
                    deviation_sum += block_sum
                pending[:held - full] = pending[full:held]
                held -= full
    deviation_sum += float(np.sum(pending[:held]))
    bins = np.flatnonzero(counts)
    return bins.astype(np.int32), counts[bins].astype(np.int32), in_window, deviation_sum


def reciprocal_peak_curve(
    cfg: ReciprocalStudyConfig, rng: RngState, workers: int = 1
) -> list[ReciprocalPoint]:
    """Peak location and clipped central mean of the ratio, per grid stdev.

    Bins are centered on the deterministic ratio r0 = numerator mean /
    denominator mean and span a window of +-5*r0 around it; ties in the mode
    break toward the lower bin. Samples whose denominator lands near zero
    produce extreme ratios; they are kept in the sample (the study is about
    exactly that pathology) but fall outside the histogram window, so peak
    and mean describe the central mass. The mean is accumulated as deviations
    from r0, which keeps the degenerate all-constant grid point exact.

    Grid point j is cut into chunks of ``_STUDY_CHUNK`` samples (the last may
    be partial), and chunk c runs on stream ``(seed, j, c)`` as one item of a
    single :func:`_run_tasks` batch, on up to ``workers`` processes. So
    extending the grid does not disturb earlier points, and every result is
    the same at any worker count. Each point's chunk results are merged in
    chunk order as they arrive: bin and in-window counts are summed, and the
    mean's deviation sum adds the chunk sums in chunk order. A chunk sums its
    kept deviations, in sample order, in blocks of ``_SUM_BLOCK`` (numpy's
    pairwise sum within a block) and adds the block sums in order. A chunk
    sends back only its occupied bins, so the merge holds the point's
    histogram and little more.
    """
    import numpy as np

    chunks = [min(_STUDY_CHUNK, cfg.samples_per_point - start)
              for start in range(0, cfg.samples_per_point, _STUDY_CHUNK)]
    items = [(cfg, stdev, n) for stdev in cfg.denominator_stdevs for n in chunks]
    paths = [(j, c) for j in range(len(cfg.denominator_stdevs)) for c in range(len(chunks))]
    r0, half_bins = _recip_window(cfg)
    points = []
    c = 0  # the chunk's index in its point: a counter, as enumerate's reused
    # pair would keep the last chunk's result alive while the next is drawn
    for bins, hits, n, chunk_sum in _run_tasks(_recip_chunk_worker, rng, items, workers, paths):
        if c == 0:
            counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
            in_window, deviation_sum = 0, 0.0
        counts[bins] += hits
        in_window += n
        deviation_sum += chunk_sum
        del bins, hits
        c = (c + 1) % len(chunks)
        if c == 0:
            peak = r0 + (int(np.argmax(counts)) - half_bins) * cfg.bin_width if in_window else None
            mean = r0 + deviation_sum / in_window if in_window else None
            points.append(ReciprocalPoint(float(cfg.denominator_stdevs[len(points)]), peak, mean))
    return points
