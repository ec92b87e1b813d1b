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
process runs it. Each item's stream is built where the item runs, in a
forked worker or on the serial path, so a batch holds no stream per item
before its work starts; forked workers send their results back as pickled
frames, and without ``os.fork`` a batch runs serially. Items may share a
stream: every grid point of the ratio study draws its chunk c from the same
stream, so the points compare on common random numbers and a chunk's draws
are made once for a whole group of points.

numpy is imported by the functions that draw or count, on their first call,
so importing this module loads no numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, NoReturn

if TYPE_CHECKING:
    import numpy as np

_MAX_SEED = 2**64

# Samples per chunk of the ratio study. Chunk c runs on stream (seed, c) for
# every grid point, so this fixes the stream layout and the task size; a
# chunk is drawn tile by tile, so it sets no buffer's size.
_STUDY_CHUNK = 4_000_000
# Bins of one task's grid points in all. A task counts a chunk for a group of
# consecutive points, in an int32 histogram each, and the merge holds the
# group's int32 histograms: at most 16 MB in all for a group, so a point of
# more than 1,000,000 bins has a group of its own. Grouping moves no result.
_GROUP_BINS = 2_000_000
# Samples per tile: small enough that a tile's buffers (about 1.3 MB) stay in
# cache. Tiling moves no draw, no count and no addition of the deviation sum.
_TILE = 32_768
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


@dataclass(frozen=True)
class ReciprocalStudyConfig:
    """Grid study of the ratio of two normal variables.

    For each denominator stdev in the grid, numerator/denominator samples are
    histogrammed and the mode-bin center and in-window sample mean recorded.
    As the denominator spread grows the peak of the ratio distribution moves
    down while its central mass shifts up, which is the mechanism that biases
    the second measurement iteration toward 4. Every grid point uses the same
    numerators and the same standard normal deviates z, with denominators
    ``denominator_mean + stdev * z``: each point keeps the exact ratio-of-normals
    law, and the differences between points carry less sampling noise.
    """

    numerator_mean: float = 5.0
    numerator_stdev: float = 0.2
    denominator_mean: float = 1.0
    denominator_stdevs: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    samples_per_point: int = 1_000_000
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
        # a bin's count, at most the point's samples, must fit the int32 histograms
        if self.samples_per_point >= 2**31:
            raise ValueError("samples_per_point must be < 2**31")
        if not 0 < self.bin_width < math.inf:
            raise ValueError("bin_width must be finite and > 0")
        # 2 * ceil(5 * |r0| / bin_width) + 1 bins, at most 4,000,001 (16 MB
        # a histogram)
        if not 5.0 * abs(self.numerator_mean / self.denominator_mean) / self.bin_width <= 2e6:
            raise ValueError("bin_width must be >= 5 * |numerator_mean / denominator_mean| / 2e6 "
                             "(at most 4000001 histogram bins)")


class ReciprocalPoint(NamedTuple):
    denominator_stdev: float
    peak_location: float | None  # both None when no sample lands in the window
    central_mean: float | None


class _RemoteTraceback(Exception):
    """A batch worker's formatted traceback, the cause of the exception it raised."""


def _run_tasks(fn: Callable, root: RngState, items: list, workers: int,
               path: Callable[[int], tuple[int, ...]] | None = None) -> Iterator:
    """Yield ``fn(stream, item)`` for each item, in item order.

    The one batch-worker helper of the package: every batch goes through it,
    on up to ``workers`` forked processes (serially where there is no
    ``os.fork``). Item i runs on the stream at ``path(i)`` below ``root``, by
    default ``(i,)``: child stream i, built where the item runs. Results come
    back in item order, so a batch gives the same results at any worker
    count, and lazily, so a caller that folds them holds few at once. Items
    go in about four chunks per worker, to even out items of uneven cost: a
    child takes chunk numbers from one pre-filled task pipe and sends on its
    own pipe a frame for each, an 8-byte length and the pickled ``(chunk,
    results)`` or ``(chunk, (exception, traceback text))``. The parent reads
    whole frames from whichever child is ready and raises an exception in its
    chunk's turn, from its traceback; however the batch ends, it kills the
    children still running and reaps them all.
    """
    def run(i: int):  # item i on its stream
        return fn(RngState(root.seed, root.path + (path(i) if path else (i,))), items[i])

    if workers <= 1 or len(items) <= 1 or not hasattr(os, "fork"):
        yield from map(run, range(len(items)))
        return
    import pickle  # these here, so that importing the package loads neither
    import select

    import numpy  # noqa: F401  (before the fork; not numpy.random, 2.5 MB more peak RSS)

    # at most PIPE_BUF // 4 chunks, so that the task pipe takes every 4-byte record
    size = max(1, len(items) // (4 * workers), math.ceil(len(items) / (select.PIPE_BUF // 4)))
    chunks = [range(i, min(i + size, len(items))) for i in range(0, len(items), size)]
    task_r, task_w = os.pipe()
    os.write(task_w, b"".join(k.to_bytes(4, "little") for k in range(len(chunks))))
    os.close(task_w)

    def work(out: int) -> NoReturn:  # a child: a frame on out for each chunk it takes
        try:
            while record := os.read(task_r, 4):
                k = int.from_bytes(record, "little")
                try:
                    frame = pickle.dumps((k, list(map(run, chunks[k]))), -1)
                except Exception as exc:
                    import traceback
                    frame = pickle.dumps((k, (exc, traceback.format_exc())), -1)
                for view in map(memoryview, (len(frame).to_bytes(8, "little"), frame)):
                    while view:
                        view = view[os.write(out, view):]
        finally:
            os._exit(0)  # never returning into the parent's stack

    def read(fd: int, n: int) -> bytearray:  # the next n bytes of a result pipe
        frame, got = bytearray(n), 0
        while got < n:
            if not (part := os.readv(fd, [memoryview(frame)[got:]])):
                raise RuntimeError("a batch worker ended without sending its results")
            got += part
        return frame

    poller, readers, done = select.poll(), {}, {}  # readers: result pipe -> child pid
    try:
        for _ in range(min(workers, len(chunks))):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                work(w)
            readers[r] = pid
            os.close(w)
            poller.register(r, select.POLLIN)
        for k in range(len(chunks)):
            while k not in done:
                if not readers:
                    raise RuntimeError("a batch worker ended without sending its results")
                for fd, _ in poller.poll():
                    if head := os.read(fd, 8):  # a length, written whole, so read whole
                        done.update([pickle.loads(read(fd, int.from_bytes(head, "little")))])
                    else:  # the child has ended
                        poller.unregister(fd)
                        os.waitpid(readers.pop(fd), 0)
                        os.close(fd)
            if isinstance(value := done.pop(k), tuple):  # the exception and its traceback
                raise value[0] from _RemoteTraceback(value[1])
            value.reverse()  # popped as yielded, so that a caller's fold frees each
            while value:
                yield value.pop()
    finally:
        for fd, pid in readers.items():
            os.kill(pid, 9)  # SIGKILL; importing signal would cost 2-3 ms
            os.waitpid(pid, 0)
            os.close(fd)
        os.close(task_r)


def _recip_window(cfg: ReciprocalStudyConfig) -> tuple[float, int]:
    """The histogram's center r0 and its number of bins on either side."""
    r0 = cfg.numerator_mean / cfg.denominator_mean
    return r0, math.ceil(5.0 * abs(r0) / cfg.bin_width)


def _recip_chunk_worker(rng: RngState, item: tuple) -> list[tuple]:
    """Occupied bins, their counts, in-window count and deviation sum of a chunk,
    one tuple per grid point of the item's group.

    The chunk's numerators come from child 0 of its stream and its standard
    normal denominator deviates z from child 1, each drawn tile by tile into
    a tile buffer, once for the whole group: every point of the group scales
    the same z by its own stdev. Consecutive draws into tiles are the draws
    of one call, and each point's kept deviations are summed in blocks of
    ``_SUM_BLOCK`` across tiles, so no result depends on the tile or on the
    other points of the group.

    A chunk has fewer than 2**31 samples, so each point counts in int32 and
    its bins go back as int32 pairs: a chunk's result is never larger than
    the point's histogram and is usually far smaller.
    """
    import numpy as np

    cfg, stdevs, n = item
    numerator_draws = derive_child(rng, 0).generator
    denominator_draws = derive_child(rng, 1).generator
    r0, half_bins = _recip_window(cfg)
    w = cfg.bin_width
    tile = min(n, _TILE)
    # tile scratch, shared by the group's points
    num_buf, z_buf, dev_buf, off_buf = (np.empty(tile) for _ in range(4))
    idx_buf, keep_buf = np.empty(tile, dtype=np.int64), np.empty(tile, dtype=bool)
    one = np.int32(1)  # an int32 one keeps add.at on its fast int32 loop
    counts = [np.zeros(2 * half_bins + 1, dtype=np.int32) for _ in stdevs]
    in_window = [0] * len(stdevs)
    sums = [0.0] * len(stdevs)
    # each point's kept deviations not yet in a full block: fewer than _SUM_BLOCK
    pending = np.empty((len(stdevs), _SUM_BLOCK))
    held = [0] * len(stdevs)
    # A denominator near zero, or a stdev near the float limit, gives huge,
    # infinite or NaN ratios: they stay in the sample but fall outside the
    # window, so the arithmetic on them warns of nothing.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, n, tile):
            m = min(tile, n - start)
            # standard_normal * stdev + mean is bit for bit normal(mean, stdev)
            numerators, z = num_buf[:m], z_buf[:m]
            numerator_draws.standard_normal(out=numerators)
            numerators *= cfg.numerator_stdev
            numerators += cfg.numerator_mean
            denominator_draws.standard_normal(out=z)
            for j, stdev in enumerate(stdevs):
                deviations = np.multiply(z, stdev, out=dev_buf[:m])
                deviations += cfg.denominator_mean
                np.divide(numerators, deviations, out=deviations)
                deviations -= r0
                offsets = np.rint(np.divide(deviations, w, out=off_buf[:m]), out=off_buf[:m])
                # cast the whole tile into its buffer, then select (casting the
                # selected floats makes two fresh arrays and is several times
                # slower); the casts of NaN and inf offsets are never selected
                idx = idx_buf[:m]
                np.copyto(idx, offsets, casting="unsafe")
                # NaN and +-inf offsets fail the comparison, so no isfinite mask is needed
                keep = np.less_equal(np.abs(offsets, out=offsets), half_bins, out=keep_buf[:m])
                if not keep.all():  # most tiles lie wholly in the window and skip both compresses
                    idx, deviations = idx[keep], deviations[keep]
                idx += half_bins
                # add.at, not bincount: its cost does not grow with the bin count
                np.add.at(counts[j], idx, one)
                in_window[j] += idx.size
                sums[j], held[j] = _add_blocks(deviations, pending[j], held[j], sums[j])
    results = []
    for j in range(len(stdevs)):
        bins = np.flatnonzero(counts[j]).astype(np.int32)
        results.append((bins, counts[j][bins], in_window[j],
                        sums[j] + float(np.sum(pending[j, :held[j]]))))
        counts[j] = None  # free each dense histogram once it is gathered
    return results


def _add_blocks(kept: np.ndarray, pending: np.ndarray, held: int, total: float) -> tuple:
    """Fold kept deviations, in sample order, into a sum of ``_SUM_BLOCK`` blocks.

    ``pending[:held]`` holds the deviations not yet in a full block. Each full
    block is summed by numpy's pairwise sum and added to ``total`` in order.
    Returns the new total and the number left pending, below ``_SUM_BLOCK``.
    """
    take = min(_SUM_BLOCK - held, kept.size)
    pending[held:held + take] = kept[:take]
    held += take
    if held < _SUM_BLOCK:
        return total, held
    total += float(pending.sum())
    rest = kept[take:]
    full = rest.size - rest.size % _SUM_BLOCK
    for block_sum in rest[:full].reshape(-1, _SUM_BLOCK).sum(axis=1).tolist():
        total += block_sum
    held = rest.size - full
    pending[:held] = rest[full:]
    return total, held


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

    The study is cut into chunks of ``_STUDY_CHUNK`` samples (the last may be
    partial), and chunk c runs on stream ``(seed, c)`` for every grid point:
    the points share their draws (common random numbers), and point j's
    denominators are ``denominator_mean + stdev_j * z``. Consecutive points
    form groups of at most ``_GROUP_BINS`` bins in all, and each (group,
    chunk) is one item of a single :func:`_run_tasks` batch, on up to
    ``workers`` processes, so a group draws each chunk once. A point thus
    depends only on the seed, the config and its own stdev: not on its place
    in the grid, on the grouping or on the worker count. Each group's chunk
    results are merged in chunk order as they arrive: bin and in-window
    counts are summed, and the mean's deviation sum adds the chunk sums in
    chunk order. A chunk sums a point's kept deviations, in sample order, in
    blocks of ``_SUM_BLOCK`` (numpy's pairwise sum within a block) and adds
    the block sums in order. A chunk sends back only its occupied bins, so
    the merge holds the group's histograms and little more.
    """
    import numpy as np

    r0, half_bins = _recip_window(cfg)
    stdevs = cfg.denominator_stdevs
    size = max(1, _GROUP_BINS // (2 * half_bins + 1))
    groups = [stdevs[i:i + size] for i in range(0, len(stdevs), size)]
    chunks = [min(_STUDY_CHUNK, cfg.samples_per_point - start)
              for start in range(0, cfg.samples_per_point, _STUDY_CHUNK)]
    items = [(cfg, group, n) for group in groups for n in chunks]
    points = []
    c = 0  # the chunk's index in its group: a counter, as enumerate's reused
    # pair would keep the last chunk's result alive while the next is drawn.
    # A group's histograms go when the next group's replace them: deleting
    # them first left the peak RSS of a 4,000,001-bin grid 8-11 MB higher
    # (the allocator then reused freed memory rather than fresh zero pages).
    for chunk_points in _run_tasks(_recip_chunk_worker, rng, items, workers,
                                   lambda j: (j % len(chunks),)):
        if c == 0:
            counts = [np.zeros(2 * half_bins + 1, dtype=np.int32) for _ in chunk_points]
            in_window, deviation_sums = [0] * len(chunk_points), [0.0] * len(chunk_points)
        for j, (bins, hits, n, chunk_sum) in enumerate(chunk_points):
            counts[j][bins] += hits
            in_window[j] += n
            deviation_sums[j] += chunk_sum
        del chunk_points, bins, hits
        c = (c + 1) % len(chunks)
        if c == 0:
            for j, n in enumerate(in_window):
                peak = r0 + (int(np.argmax(counts[j])) - half_bins) * cfg.bin_width if n else None
                mean = r0 + deviation_sums[j] / n if n else None
                points.append(ReciprocalPoint(float(stdevs[len(points)]), peak, mean))
    return points
