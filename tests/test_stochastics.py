import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixradii import stochastics
from sixradii.stochastics import (
    ReciprocalStudyConfig,
    derive_child,
    normal_block,
    reciprocal_peak_curve,
    rng_new,
    uniform_block,
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
    with pytest.raises(ValueError):
        uniform_block(rng_new(0), 1.0, 0.0, 4)


def test_uniform_range_and_mean():
    draws = uniform_block(rng_new(321), -0.18, 0.0, 1_000_000)
    assert float(draws.min()) >= -0.18
    assert float(draws.max()) <= 0.0
    assert abs(float(draws.mean()) + 0.09) < 0.001


def test_uniform_variance():
    draws = uniform_block(rng_new(654), 0.0, 0.18, 1_000_000)
    expected = 0.18**2 / 12.0
    assert abs(float(draws.var(ddof=1)) - expected) <= 0.05 * expected


def test_reciprocal_config_validation():
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(denominator_mean=0.0)
    with pytest.raises(ValueError):
        ReciprocalStudyConfig(samples_per_point=9_999)
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


def _reference_point(cfg, rng, j):
    """Grid point j of the ratio study, written plainly: ``normal(mean, stdev, n)``
    on the same stream and chunks, with an explicit finiteness mask."""
    generator = derive_child(rng, j).generator
    stdev = cfg.denominator_stdevs[j]
    r0 = cfg.numerator_mean / cfg.denominator_mean
    half_bins = int(np.ceil(5.0 * abs(r0) / cfg.bin_width))
    counts = np.zeros(2 * half_bins + 1, dtype=np.int64)
    deviation_sum = 0.0
    in_window = 0
    chunk = stochastics._STUDY_CHUNK
    for start in range(0, cfg.samples_per_point, chunk):
        n = min(chunk, cfg.samples_per_point - start)
        numerators = generator.normal(cfg.numerator_mean, cfg.numerator_stdev, n)
        denominators = generator.normal(cfg.denominator_mean, stdev, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            deviations = numerators / denominators - r0
        offsets = np.rint(deviations / cfg.bin_width)
        keep = np.isfinite(offsets) & (np.abs(offsets) <= half_bins)
        counts += np.bincount(offsets[keep].astype(np.int64) + half_bins,
                              minlength=counts.size)
        deviation_sum += float(np.sum(deviations[keep]))
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
    assert (point.peak_location, point.central_mean) == _reference_point(cfg, rng_new(11), 1)


@pytest.mark.parametrize("tile", [1, 4096, 10_000])
@pytest.mark.parametrize("stdev", [0.0, 0.2, 2.0])
def test_reciprocal_tiles_change_no_bit(stdev, tile, monkeypatch):
    # 25,007 samples in chunks of 10,000: two full chunks and a partial one,
    # each cut into full tiles and (at tile 4,096) a partial tile
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 10_000)
    monkeypatch.setattr(stochastics, "_TILE", tile)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(stdev,), samples_per_point=25_007)
    (point,) = reciprocal_peak_curve(cfg, rng_new(17))
    assert (point.peak_location, point.central_mean) == _reference_point(cfg, rng_new(17), 0)


def test_reciprocal_point_memory_is_one_chunk(monkeypatch):
    # the chunk buffer is the only chunk-sized array a grid point allocates
    monkeypatch.setattr(stochastics, "_STUDY_CHUNK", 1_000_000)
    cfg = ReciprocalStudyConfig(denominator_stdevs=(0.2,), samples_per_point=2_500_000)
    tracemalloc.start()
    try:
        reciprocal_peak_curve(cfg, rng_new(19))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * stochastics._STUDY_CHUNK


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
