import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixradii.errors import ErrorModel
from sixradii.histogram import (
    Histogram,
    StoppingCriteria,
    run_campaign,
    stopping_met,
)
from sixradii.measurement import TrialConfig
from sixradii.stochastics import rng_new


def hist_from(counts_by_bin):
    hist = Histogram()
    for bin_value, count in counts_by_bin.items():
        for _ in range(count):
            hist.record(bin_value)
    return hist


def test_record_and_totals():
    hist = Histogram()
    hist.record(5)
    assert hist.count(5) == 1
    assert hist.total_recorded == 1


def test_window_overflow_and_underflow():
    hist = Histogram()
    hist.record(20)
    hist.record(0)
    assert hist.overflow == 1
    assert hist.underflow == 1
    assert all(c == 0 for c in hist.counts)
    assert hist.total_recorded == 2


def test_conservation_over_mixed_values():
    hist = Histogram()
    for i in range(300):
        hist.record(i % 25)
    assert hist.total_recorded == 300
    assert sum(hist.counts) + hist.underflow + hist.overflow == 300


def test_peak_bin_argmax_and_ties():
    assert hist_from({4: 80, 5: 120, 6: 60}).peak_bin() == 5
    assert hist_from({4: 50, 5: 50}).peak_bin() == 4  # tie: lowest bin
    assert hist_from({7: 1}).peak_bin() == 7


def test_peak_bin_empty_rejected():
    with pytest.raises(ValueError):
        Histogram().peak_bin()


def test_stopping_met_clean_peak():
    hist = hist_from({2: 1, 3: 3, 4: 6, 5: 12, 6: 8, 7: 4, 8: 2})
    assert stopping_met(hist, StoppingCriteria())


def test_stopping_not_met_broken_flank():
    hist = hist_from({2: 1, 3: 3, 4: 6, 5: 12, 6: 5, 7: 8, 8: 2})
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_not_met_small_peak():
    hist = hist_from({3: 1, 4: 4, 5: 2})
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_requires_dominant_peak():
    # a neighbor within 5% of the peak keeps the campaign going
    hist = hist_from({3: 5, 4: 20, 5: 20, 6: 9, 7: 4})
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_requires_wide_enough_base():
    hist = hist_from({4: 8, 5: 20, 6: 9})  # 3 bins above threshold, need 5
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_rejects_plateau_flank():
    # equal adjacent counts within the group leave the flank unresolved
    hist = hist_from({3: 4, 4: 8, 5: 20, 6: 8, 7: 8, 8: 4})
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_rejects_above_threshold_island():
    hist = hist_from({2: 3, 3: 6, 4: 12, 5: 20, 6: 12, 7: 6, 8: 1, 10: 7})
    assert not stopping_met(hist, StoppingCriteria())


def test_stopping_false_on_empty():
    assert not stopping_met(Histogram(), StoppingCriteria())


@given(
    counts=st.lists(st.integers(min_value=0, max_value=60), min_size=16, max_size=16)
)
@settings(max_examples=300, deadline=None)
def test_stopping_implies_unique_peak(counts):
    hist = Histogram()
    hist.counts = list(counts)
    if stopping_met(hist, StoppingCriteria()):
        peak = hist.peak_bin()
        assert counts.count(max(counts)) == 1
        assert max(counts) >= 5
        index = peak - hist.lo
        for neighbor in (index - 1, index + 1):
            if 0 <= neighbor < 16:
                assert counts[index] >= 1.05 * counts[neighbor]


def test_stopping_below_min_count_is_false():
    for total in range(1, 5):
        hist = hist_from({5: total})
        assert not stopping_met(hist, StoppingCriteria())


def test_criteria_validation():
    with pytest.raises(ValueError):
        StoppingCriteria(peak_dominance=1.0)
    with pytest.raises(ValueError):
        StoppingCriteria(bin_threshold_fraction=1.0)
    with pytest.raises(ValueError):
        StoppingCriteria(min_peak_count=0)


def test_campaign_reproducible():
    cfg = TrialConfig()
    a = run_campaign(rng_new(7), cfg, StoppingCriteria(), 600)
    b = run_campaign(rng_new(7), cfg, StoppingCriteria(), 600)
    assert a == b


def test_campaign_budget_and_selection_invariants():
    result = run_campaign(rng_new(3), TrialConfig(), StoppingCriteria(), 400)
    assert result.measurements <= 400
    assert result.stopped == (result.selected is not None)
    if result.stopped:
        assert result.selected == result.histogram.peak_bin()
    fixed = run_campaign(rng_new(3), TrialConfig(), None, 400)
    assert fixed.measurements == 400
    assert fixed.histogram.total_recorded == 400
    assert fixed.selected is None


def test_zero_error_campaign_never_stops():
    # all mass in one bin can never satisfy the consecutive-bins rule
    model = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
    result = run_campaign(rng_new(1), TrialConfig(error_model=model), StoppingCriteria(), 150)
    assert result.selected is None
    assert result.measurements == 150
    assert result.histogram.count(5) == 150


def test_campaign_records_stream_key_and_digest():
    result = run_campaign(rng_new(9), TrialConfig(), StoppingCriteria(), 200, config_digest="abc")
    assert result.stream_key == (9,)
    assert result.config_digest == "abc"


def test_campaign_requires_positive_budget():
    with pytest.raises(ValueError):
        run_campaign(rng_new(0), TrialConfig(), StoppingCriteria(), 0)
