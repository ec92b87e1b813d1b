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
root, whichever process runs it. The caller derives the children, and a
pool worker is sent each child as its address: a state builds its numpy
generator on its first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_MAX_SEED = 2**64

# Samples per numerator draw in the ratio study. A chunk's numerators are one
# ``standard_normal`` call, so this fixes the stream layout; their buffer is a
# grid point's only chunk-sized array, so it also sets the worker's peak memory.
_STUDY_CHUNK = 4_000_000
# Samples per tile of the work after a chunk's numerator draw: small enough
# that a tile's buffers stay in cache. Tiling moves no draw and no sum.
_TILE = 65_536


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
        # 2 * ceil(5 * |r0| / bin_width) + 1 bins, at most 4,000,001: the
        # histogram is never larger than one chunk buffer
        if not 5.0 * abs(self.numerator_mean / self.denominator_mean) / self.bin_width <= 2e6:
            raise ValueError("bin_width must be >= 5 * |numerator_mean / denominator_mean| / 2e6 "
                             "(at most 4000001 histogram bins)")


class ReciprocalPoint(NamedTuple):
    denominator_stdev: float
    peak_location: float | None  # both None when no sample lands in the window
    central_mean: float | None


def _run_tasks(fn: Callable, root: RngState, items: list, workers: int) -> list:
    """``[fn(derive_child(root, i), item) for i, item in enumerate(items)]``.

    The one batch-worker helper of the package: every batch goes through it,
    on up to ``workers`` processes. Item i always runs on child stream i of
    ``root`` and results come back in item order, so a batch gives the same
    results at any worker count. A worker is sent each item with its child
    stream, derived here and not yet drawn, so sent as its address. Items go
    out in about four chunks per worker: enough to even out items of uneven
    cost, few enough to keep the round trips cheap.
    """
    streams = [derive_child(root, i) for i in range(len(items))]
    if workers <= 1 or len(items) <= 1:
        return list(map(fn, streams, items))
    # imported here, so that importing the package loads no process machinery
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, streams, items, chunksize=chunksize))


def _recip_point_worker(rng: RngState, item: tuple) -> ReciprocalPoint:
    cfg, stdev = item
    generator = rng.generator
    r0 = cfg.numerator_mean / cfg.denominator_mean
    w = cfg.bin_width
    half_bins = int(np.ceil(5.0 * abs(r0) / w))
    # One chunk buffer: a chunk's numerators, drawn in one call, which then
    # collects the kept deviations in sample order. Each tile's kept deviations
    # end at or before the tile's own end, so they overwrite only numerators
    # already used. Everything else lives in tile buffers.
    chunk = np.empty(min(cfg.samples_per_point, _STUDY_CHUNK))
    tile = min(chunk.size, _TILE)
    den_buf, off_buf, abs_buf = np.empty(tile), np.empty(tile), np.empty(tile)
    idx_buf, keep_buf = np.empty(tile, dtype=np.int64), np.empty(tile, dtype=bool)
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
    deviation_sum = 0.0
    in_window = 0
    remaining = cfg.samples_per_point
    while remaining > 0:
        n = min(remaining, _STUDY_CHUNK)
        generator.standard_normal(out=chunk[:n])
        kept = 0
        for start in range(0, n, tile):
            m = min(tile, n - start)
            # standard_normal * stdev + mean is bit for bit normal(mean, stdev),
            # and consecutive draws into tiles are the draws of one call
            numerators, denominators = chunk[start:start + m], den_buf[:m]
            numerators *= cfg.numerator_stdev
            numerators += cfg.numerator_mean
            generator.standard_normal(out=denominators)
            denominators *= stdev
            denominators += cfg.denominator_mean
            with np.errstate(divide="ignore", invalid="ignore"):
                deviations = np.divide(numerators, denominators, out=denominators)
            deviations -= r0
            offsets = np.rint(np.divide(deviations, w, out=off_buf[:m]), out=off_buf[:m])
            # NaN and +-inf offsets fail the comparison, so no isfinite mask is needed
            keep = np.less_equal(np.abs(offsets, out=abs_buf[:m]), half_bins, out=keep_buf[:m])
            # cast the whole tile into its buffer, then select (casting the
            # selected floats makes two fresh arrays and is several times
            # slower); the casts of NaN and inf offsets are never selected
            with np.errstate(invalid="ignore"):
                np.copyto(idx_buf[:m], offsets, casting="unsafe")
            idx = idx_buf[:m][keep]
            idx += half_bins
            # add.at, not bincount: its cost does not grow with the bin count
            np.add.at(counts, idx, 1)
            chunk[kept:kept + idx.size] = deviations[keep]
            kept += idx.size
        # the same compacted deviations, in the same order, as one array sum
        deviation_sum += float(np.sum(chunk[:kept]))
        in_window += kept
        remaining -= n
    peak = r0 + (int(np.argmax(counts)) - half_bins) * w if in_window else None
    mean = r0 + deviation_sum / in_window if in_window else None
    return ReciprocalPoint(float(stdev), peak, mean)


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

    Grid point j is item j of one :func:`_run_tasks` batch, on up to
    ``workers`` processes. It draws from child stream ``derive_child(rng, j)``
    in chunks of at most ``_STUDY_CHUNK`` samples, so extending the grid does
    not disturb earlier points, and every result is the same at any worker
    count. A chunk's numerators are one draw into the point's one chunk-sized
    buffer; the rest of the chunk runs in tiles of ``_TILE`` samples, whose
    denominator draws continue the same stream, so tiling changes no result.
    """
    items = [(cfg, stdev) for stdev in cfg.denominator_stdevs]
    return _run_tasks(_recip_point_worker, rng, items, workers)
