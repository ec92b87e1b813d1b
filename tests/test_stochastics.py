import math
import os
import signal
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixradii import stochastics
from sixradii.stochastics import (
    ReciprocalStudyConfig,
    _run_tasks,
    derive_child,
    normal_block,
    reciprocal_peak_curve,
    rng_new,
)

from reference import sample_normal, sample_uniform


def test_same_seed_replays_identically():
    a = rng_new(42)
    b = rng_new(42)
    assert [sample_normal(a, 0, 1) for _ in range(100)] == [
        sample_normal(b, 0, 1) for _ in range(100)
    ]


def test_different_seeds_differ():
    a = rng_new(1)
    b = rng_new(2)
    draws_a = [sample_normal(a, 0, 1) for _ in range(100)]
    draws_b = [sample_normal(b, 0, 1) for _ in range(100)]
    assert draws_a != draws_b


def test_child_streams_deterministic():
    first = derive_child(rng_new(7), 3)
    second = derive_child(rng_new(7), 3)
    assert [sample_normal(first, 0, 1) for _ in range(50)] == [
        sample_normal(second, 0, 1) for _ in range(50)
    ]


def test_child_stream_independent_of_parent_consumption():
    parent = rng_new(9)
    [sample_normal(parent, 0, 1) for _ in range(10)]
    late_child = derive_child(parent, 0)
    fresh_child = derive_child(rng_new(9), 0)
    assert sample_normal(late_child, 0, 1) == sample_normal(fresh_child, 0, 1)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_stream_is_pure_function_of_seed(seed):
    assert normal_block(rng_new(seed), 8).tolist() == normal_block(rng_new(seed), 8).tolist()


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        rng_new(2**64)
    with pytest.raises(ValueError):
        rng_new(-1)
    with pytest.raises(ValueError):
        derive_child(rng_new(1), -2)


def test_pool_workers_inherit_numpy_from_the_parent():
    # the parent loads numpy before it forks, so no worker loads it again, and
    # a forked batch loads no process-pool machinery
    probe = """
import sys
from sixradii.stochastics import _run_tasks, rng_new

def seen(rng, item):
    return "numpy" in sys.modules

if __name__ == "__main__":
    print("numpy" in sys.modules, list(_run_tasks(seen, rng_new(0), list(range(4)), 2)),
          [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(stochastics.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "False [True, True, True, True] []\n"


class WorkerError(Exception):
    pass


def test_a_worker_exception_reaches_the_caller(deadline):
    # with the worker's own traceback chained as its cause
    def failing_worker(rng, item):
        if item == 13:
            raise WorkerError(f"item {item} failed")
        return item

    with deadline(30), pytest.raises(WorkerError, match="^item 13 failed$") as excinfo:
        list(_run_tasks(failing_worker, rng_new(0), list(range(40)), 2))
    assert "in failing_worker\n" in "".join(traceback.format_exception(excinfo.value))


# run serially, these workers would end the test process itself
@pytest.mark.skipif(not hasattr(os, "fork"), reason="batches run serially without os.fork")
@pytest.mark.parametrize("end", ["kill", "exit"])
def test_a_worker_that_dies_makes_the_batch_raise(end, deadline):
    # a worker ending mid-batch without sending its chunk, by a signal or by
    # os._exit(0), is an error in the caller, not a hang
    def fn(rng, item):
        if item == 7:
            if end == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)
        return item

    with deadline(30), pytest.raises(RuntimeError, match="ended without sending"):
        list(_run_tasks(fn, rng_new(0), list(range(40)), 2))


def test_without_fork_a_batch_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "fork")
    batch = _run_tasks(lambda rng, item: (os.getpid(), rng.key), rng_new(3), list(range(5)), 2)
    assert list(batch) == [(os.getpid(), (3, i)) for i in range(5)]


def test_closing_a_batch_early_leaves_no_child(deadline):
    # the first chunk (item 0) is quick, every later item takes 20 s: the
    # close kills the workers mid-item rather than waiting for them
    def fn(rng, item):
        if item > 0:
            time.sleep(20)
        return item

    with deadline(10):
        batch = _run_tasks(fn, rng_new(0), list(range(10)), 2)
        assert next(batch) == 0
        batch.close()


def test_results_larger_than_a_pipe_come_back_whole_and_in_order(deadline):
    # 1 MB results on both workers at once: each child blocks on its full pipe
    # until the parent reads it, and no frame is cut or swapped
    def fn(rng, item):
        return bytes([item]) * (1 << 20) + rng.generator.bytes(16)

    items = list(range(10))
    with deadline(60):
        pooled = list(_run_tasks(fn, rng_new(5), items, 2))
    assert pooled == list(_run_tasks(fn, rng_new(5), items, 1))
    assert [result[0] for result in pooled] == items
    assert all(len(result) == (1 << 20) + 16 for result in pooled)


def test_normal_degenerate_returns_mean_exactly():
    assert sample_normal(rng_new(0), 0.0, 0.0) == 0.0
    assert sample_normal(rng_new(0), 3.25, 0.0) == 3.25


def test_normal_rejects_negative_stdev():
    with pytest.raises(ValueError):
        sample_normal(rng_new(0), 0.0, -1e-9)


def test_normal_moments_at_1e6():
    rng = rng_new(123)
    draws = np.array([sample_normal(rng, 0.0, 1.0) for _ in range(1_000_000)])
    assert abs(float(draws.mean())) < 0.01
    assert 0.995 <= float(draws.std(ddof=1)) <= 1.005


def test_normal_one_sigma_mass():
    # fraction within one sigma of the mean, against the erf oracle
    rng = rng_new(456)
    draws = 5.0 + 2.0 * normal_block(rng, 1_000_000)
    inside = np.mean((draws >= 3.0) & (draws <= 7.0))
    expected = math.erf(1.0 / math.sqrt(2.0))
    assert abs(inside - expected) < 0.01


def test_scalar_normal_matches_distribution():
    rng = rng_new(789)
    draws = np.array([sample_normal(rng, 5.0, 2.0) for _ in range(50_000)])
    assert abs(draws.mean() - 5.0) < 0.05
    assert abs(draws.std(ddof=1) - 2.0) < 0.05


def test_uniform_degenerate_and_validation():
    assert sample_uniform(rng_new(0), 0.5, 0.5) == 0.5
    with pytest.raises(ValueError):
        sample_uniform(rng_new(0), 1.0, 0.0)


def test_uniform_range_and_mean():
    draws = rng_new(321).generator.uniform(-0.18, 0.0, 1_000_000)
    assert float(draws.min()) >= -0.18
    assert float(draws.max()) <= 0.0
    assert abs(float(draws.mean()) + 0.09) < 0.001


def test_uniform_variance():
    draws = rng_new(654).generator.uniform(0.0, 0.18, 1_000_000)
    expected = 0.18**2 / 12.0
    assert abs(float(draws.var(ddof=1)) - expected) <= 0.05 * expected


def test_reciprocal_config_validation():
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(denominator_mean=0.0)
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(samples_per_point=9_999)
    # a bin counts at most samples_per_point, in int32 histograms
    ReciprocalStudyConfig(samples_per_point=2**31 - 1)
    with pytest.raises(ValueError, match=r"^samples_per_point must be < 2\*\*31$"):
        ReciprocalStudyConfig(samples_per_point=2**31)
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(denominator_stdevs=(0.1, -0.1))
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(bin_width=0.0)
    # 2 * ceil(5 * 5 / 1.25e-5) + 1 = 4,000,001 bins is the most allowed
    ReciprocalStudyConfig(bin_width=1.25e-5)
    for numerator_mean, bin_width in [(5.0, 1.2e-5), (1000.0, 1e-6), (5.0, 1e-320)]:
        with pytest.raises(ValueError, match="^bin_width "):
            ReciprocalStudyConfig(numerator_mean=numerator_mean, bin_width=bin_width)
    # r0 = 0 has one bin at any width
    ReciprocalStudyConfig(numerator_mean=0.0, bin_width=1e-320)


def test_reciprocal_degenerate_grid_is_exact():
    cfg = ReciprocalStudyConfig(
        numerator_mean=5.0,
        numerator_stdev=0.0,
        denominator_mean=1.0,
        denominator_stdevs=(0.0,),
        samples_per_point=10_000,
    )
    (point,) = reciprocal_peak_curve(cfg, rng_new(1))
    assert point.peak_location == 5.0
    assert point.central_mean == 5.0


def test_reciprocal_trends_small_scale():
    cfg = ReciprocalStudyConfig(
        denominator_stdevs=(0.0, 0.1, 0.2),
        samples_per_point=1_000_000,
        bin_width=0.05,
    )
    points = reciprocal_peak_curve(cfg, rng_new(5))
    for earlier, later in zip(points, points[1:]):
        assert later.peak_location <= earlier.peak_location + cfg.bin_width
        assert later.central_mean >= earlier.central_mean - 1e-3


def test_reciprocal_deterministic():
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.0, 0.1), samples_per_point=50_000)
    assert reciprocal_peak_curve(cfg, rng_new(3)) == reciprocal_peak_curve(cfg, rng_new(3))


def _reference_point(cfg, rng, stdev):
    """The ratio study's point at one stdev, written plainly: chunk c draws
    ``normal(mean, stdev, n)`` numerators from stream ``(seed, c, 0)`` and
    standard normals z from ``(seed, c, 1)``, takes ``mean + stdev * z`` as
    denominators, masks explicitly for finiteness and sums each chunk's kept
    deviations slice by slice, then the chunk sums."""
    r0 = cfg.numerator_mean / cfg.denominator_mean
    half_bins = int(np.ceil(5.0 * abs(r0) / cfg.bin_width))
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
    deviation_sum = 0.0
    in_window = 0
    chunk = stochastics._STUDY_CHUNK
    for c, start in enumerate(range(0, cfg.samples_per_point, chunk)):
        n = min(chunk, cfg.samples_per_point - start)
        stream = derive_child(rng, c)
        numerators = derive_child(stream, 0).generator.normal(
            cfg.numerator_mean, cfg.numerator_stdev, n)
        z = derive_child(stream, 1).generator.standard_normal(n)
        denominators = cfg.denominator_mean + stdev * z
        with np.errstate(divide="ignore", invalid="ignore"):
            deviations = numerators / denominators - r0
        offsets = np.rint(deviations / cfg.bin_width)
        keep = np.isfinite(offsets) & (np.abs(offsets) <= half_bins)
        counts += np.bincount(offsets[keep].astype(np.int64) + half_bins,
                              minlength=counts.size)
        kept = deviations[keep]
        chunk_sum = 0.0
        for start in range(0, kept.size, stochastics._SUM_BLOCK):
            chunk_sum += float(np.sum(kept[start:start + stochastics._SUM_BLOCK]))
        deviation_sum += chunk_sum
        in_window += int(np.count_nonzero(keep))
    if not in_window:
        return None, None
    peak = r0 + (int(np.argmax(counts)) - half_bins) * cfg.bin_width
    return peak, r0 + deviation_sum / in_window


@pytest.mark.parametrize("stdev", [0.0, 0.2, 0.5, 2.0])
def test_reciprocal_point_matches_reference(stdev, monkeypatch):
    # 10,007 samples in chunks of 4,096: two full chunks and a partial one
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 4096)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.1, stdev), samples_per_point=10_007)
    point = reciprocal_peak_curve(cfg, rng_new(11))[1]
    assert (point.peak_location, point.central_mean) == _reference_point(cfg, rng_new(11), stdev)


@pytest.mark.parametrize("tile", [1, 4096, 10_000])
@pytest.mark.parametrize("stdev", [0.0, 0.2, 2.0])
def test_reciprocal_tiles_change_no_bit(stdev, tile, monkeypatch):
    # 25,007 samples in chunks of 10,000: two full chunks and a partial one,
    # each cut into full tiles and (at tile 4,096) a partial tile
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 10_000)
    monkeypatch.setattr(stochastics, "_TILE", tile)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(stdev,), samples_per_point=25_007)
    (point,) = reciprocal_peak_curve(cfg, rng_new(17))
    assert (point.peak_location, point.central_mean) == _reference_point(cfg, rng_new(17), stdev)


def _traced_peak(cfg):
    tracemalloc.start()
    try:
        reciprocal_peak_curve(cfg, rng_new(19))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_reciprocal_point_memory_does_not_grow_with_chunk_or_samples(monkeypatch):
    # a point holds tile buffers and its histogram; a 1M-sample chunk buffer
    # would add 8 MB
    peaks = []
    for chunk, samples in [(100_000, 200_000), (100_000, 1_000_000), (1_000_000, 2_500_000)]:
        monkeypatch.setattr(stochastics, "_STUDY_CHUNK", chunk)
        cfg = ReciprocalStudyConfig(denominator_stdevs=(0.2,), samples_per_point=samples)
        peaks.append(_traced_peak(cfg))
    assert max(peaks) - min(peaks) < 256 * 1024
    assert max(peaks) < 12 * 8 * stochastics._TILE


def test_reciprocal_fine_bins_merge_two_histograms_at_a_time(monkeypatch):
    # 1,000,001 bins over 6 chunks: the merge holds the point's histogram and
    # the arriving chunk's, never one per chunk
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 100_000)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.2,), samples_per_point=600_000,
                                bin_width=5e-5)
    histogram_bytes = 8 * (2 * 500_000 + 1)
    assert _traced_peak(cfg) < 3 * histogram_bytes


def test_reciprocal_fine_bins_hold_three_histograms_over_three_points(monkeypatch):
    # three points of 1,000,001 bins, each over 6 chunks: still no more than
    # the bound of one point above
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 100_000)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.1, 0.2, 0.3), samples_per_point=600_000,
                                bin_width=5e-5)
    histogram_bytes = 8 * (2 * 500_000 + 1)
    assert _traced_peak(cfg) < 3 * histogram_bytes


@pytest.mark.parametrize("workers", [1, 2])
def test_extending_the_grid_leaves_earlier_points_alone(workers, monkeypatch, deadline):
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 4096)
    short = ReciprocalStudyConfig(denominator_stdevs=(0.1, 0.2), samples_per_point=10_007)
    extended = replace(short, denominator_stdevs=(0.1, 0.2, 0.5))
    with deadline(60):
        assert (reciprocal_peak_curve(extended, rng_new(23), workers=workers)[:2]
                == reciprocal_peak_curve(short, rng_new(23), workers=workers))


@pytest.mark.parametrize("group_bins", [2501, 5002, stochastics._GROUP_BINS])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_point_does_not_depend_on_the_rest_of_the_grid(workers, group_bins, monkeypatch,
                                                         deadline):
    # 2,501 bins a point, so groups of one, two and all four points
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 4096)
    monkeypatch.setattr(stochastics, "_GROUP_BINS", group_bins)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.5, 0.0, 0.2, 0.1), samples_per_point=10_007)
    with deadline(60):
        grid = reciprocal_peak_curve(cfg, rng_new(29), workers=workers)
    for point in grid:
        alone = replace(cfg, denominator_stdevs=(point.denominator_stdev,))
        assert [point] == reciprocal_peak_curve(alone, rng_new(29))


def _ratio_moments(cfg, stdev, lo, hi):
    """P(lo < R < hi), E[R; lo < R < hi] and E[R^2; lo < R < hi] for R = N / D.

    Each is an integral over d > 0 of the density of D times a closed form in
    N's normal cdf and pdf over n in (lo d, hi d), taken by the trapezoid
    rule on a fixed grid (it matches adaptive ``quad`` to about 1e-14 here).
    D <= 0 puts R in the study's window with probability below 1e-9.
    """
    special = pytest.importorskip("scipy.special")
    mu, sigma = cfg.numerator_mean, cfg.numerator_stdev
    d = np.linspace(0.0, cfg.denominator_mean + 10 * stdev, 30_001)[1:]
    density = (np.exp(-0.5 * ((d - cfg.denominator_mean) / stdev) ** 2)
               / (stdev * math.sqrt(2 * math.pi)))

    def below(x):
        # integrals of 1, n and n^2 times N's density up to x
        z = (x - mu) / sigma
        cdf, pdf = special.ndtr(z), np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        return (cdf, mu * cdf - sigma * pdf,
                (mu * mu + sigma * sigma) * cdf - sigma * pdf * (mu + x))

    lo_parts = below(np.multiply.outer(lo, d))
    hi_parts = below(np.multiply.outer(hi, d))
    return tuple(np.trapezoid(density * (h - l) / d**k, d)
                 for k, (l, h) in enumerate(zip(lo_parts, hi_parts)))


def test_reciprocal_chunk_matches_the_ratio_of_normals():
    # Marsaglia's ratio of normals, at the study's defaults and denominator
    # stdev 0.2: one 4e6-sample chunk on stream (5, 0). Thresholds fixed
    # before the first run: chi-square over the 51 central bins below its
    # 1e-3 upper quantile, in-window mass and mean within 4 standard errors.
    stats = pytest.importorskip("scipy.stats")
    stdev, n = 0.2, 4_000_000
    cfg = ReciprocalStudyConfig(denominator_stdevs=(stdev,), samples_per_point=n)
    ((bins, hits, in_window, deviation_sum),) = stochastics._recip_chunk_worker(
        derive_child(rng_new(5), 0), (cfg, (stdev,), n))
    r0, w, half_bins = 5.0, cfg.bin_width, 1250
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
    counts[bins] = hits
    offsets = np.arange(-25, 26)
    probabilities, _, _ = _ratio_moments(cfg, stdev, r0 + (offsets - 0.5) * w,
                                         r0 + (offsets + 0.5) * w)
    observed = counts[half_bins - 25:half_bins + 26]
    expected = n * probabilities
    assert float(np.sum((observed - expected) ** 2 / expected)) < stats.chi2.isf(1e-3, 51)

    edge = (half_bins + 0.5) * w
    mass, first, second = _ratio_moments(cfg, stdev, r0 - edge, r0 + edge)
    assert abs(in_window - n * mass) < 4 * math.sqrt(n * mass * (1 - mass))
    mean, variance = first / mass, second / mass - (first / mass) ** 2
    assert abs(r0 + deviation_sum / in_window - mean) < 4 * math.sqrt(variance / in_window)


@pytest.mark.parametrize("stdevs", [(0.1,), (0.0, 0.2), (0.0, 0.05, 0.1, 0.5, 2.0)],
                         ids=lambda stdevs: f"{len(stdevs)}-point")
def test_reciprocal_points_independent_of_workers(stdevs, monkeypatch, deadline):
    # forked workers inherit the patched chunk size
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 4096)
    cfg = ReciprocalStudyConfig(denominator_stdevs=stdevs, samples_per_point=10_007)
    serial = reciprocal_peak_curve(cfg, rng_new(13))
    with deadline(60):
        for workers in (2, 7):
            assert reciprocal_peak_curve(cfg, rng_new(13), workers=workers) == serial
