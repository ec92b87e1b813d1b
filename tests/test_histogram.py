import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixradii.config import ErrorModel, StoppingCriteria, TrialConfig
from sixradii.histogram import (
    Histogram,
    run_campaign,
    stopping_met,
    stopping_prefix,
)
from sixradii.measurement import DegenerateConfigError, trial_block
from sixradii.stochastics import derive_child, rng_new

import reference


def hist_from(counts_by_bin):
    hist = Histogram()
    hist.record_all(np.repeat(list(counts_by_bin), list(counts_by_bin.values())))
    return hist


def test_record_and_totals():
    hist = Histogram()
    hist.record_all(np.array([5]))
    assert hist.count(5) == 1
    assert hist.total_recorded == 1


def test_window_overflow_and_underflow():
    hist = Histogram()
    hist.record_all(np.array([20, 0]))
    assert hist.overflow == 1
    assert hist.underflow == 1
    assert all(c == 0 for c in hist.counts)
    assert hist.total_recorded == 2


def test_conservation_over_mixed_values():
    hist = Histogram()
    hist.record_all(np.arange(300) % 25)
    assert hist.total_recorded == 300
    assert sum(hist.counts) + hist.underflow + hist.overflow == 300


def test_peak_bin_argmax_and_ties():
    assert hist_from({4: 80, 5: 120, 6: 60}).peak_bin() == 5
    assert hist_from({4: 50, 5: 50}).peak_bin() == 4  # tie: lowest bin
    assert hist_from({7: 1}).peak_bin() == 7


def test_peak_bin_empty_rejected():
    with pytest.raises(ValueError):
        Histogram().peak_bin()
    # under- and overflow are recorded but are not bins, so there is no peak
    hist = Histogram()
    hist.record_all(np.array([0, 17, 20]))
    assert hist.total_recorded == 3
    with pytest.raises(ValueError):
        hist.peak_bin()


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
    if result.selected is not None:
        assert result.selected == result.histogram.peak_bin()
    fixed = run_campaign(rng_new(3), TrialConfig(), None, 400)
    assert fixed.measurements == 400
    assert fixed.histogram.total_recorded == 400
    assert fixed.selected == fixed.histogram.peak_bin()


def test_zero_error_campaign_never_stops():
    # all mass in one bin can never satisfy the consecutive-bins rule
    model = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
    result = run_campaign(rng_new(1), TrialConfig(error_model=model), StoppingCriteria(), 150)
    assert result.selected is None
    assert result.measurements == 150
    assert result.histogram.count(5) == 150


def test_campaign_records_stream_key():
    result = run_campaign(rng_new(9), TrialConfig(), StoppingCriteria(), 200)
    assert result.stream_key == (9,)


def test_campaign_requires_positive_budget():
    with pytest.raises(ValueError):
        run_campaign(rng_new(0), TrialConfig(), StoppingCriteria(), 0)


# Dominance and threshold fractions exact in binary put counts exactly on the edge.
_RULES = st.builds(
    StoppingCriteria,
    min_peak_count=st.integers(min_value=1, max_value=8),
    peak_dominance=st.one_of(st.sampled_from([1.25, 1.5, 2.0]),
                             st.floats(min_value=1.01, max_value=2.0)),
    min_consecutive_bins=st.integers(min_value=1, max_value=7),
    bin_threshold_fraction=st.one_of(st.sampled_from([0.125, 0.25, 0.5]),
                                     st.floats(min_value=0.05, max_value=0.6)),
)


@st.composite
def _histogram_and_outcomes(draw):
    """16 bin counts near the rule's edge, and outcomes that keep or break their shape.

    Half the time the counts are arbitrary. Otherwise they have one peak
    anywhere, bins 1 and 16 included, neighbors at most 2 below it, flanks
    that fall strictly beyond them except for at most one plateau, and
    optionally one bin reset to anything up to one above the peak (a tie for
    the peak, or an island above the threshold).
    Outcomes are 0 to 20: the highest bin, which lifts the peak past its
    neighbors, a bin drawn in proportion to the counts, or anything.
    """
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(min_value=0, max_value=30), min_size=16, max_size=16))
    else:
        peak = draw(st.integers(min_value=0, max_value=15))
        height = draw(st.integers(min_value=0, max_value=40))
        falls = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=16, max_size=16))
        falls[0] = draw(st.integers(min_value=0, max_value=2))  # a peak not yet dominant
        if draw(st.booleans()):
            falls[draw(st.integers(min_value=1, max_value=15))] = 0
        counts = [max(0, height - sum(falls[:abs(i - peak)])) for i in range(16)]
        if draw(st.booleans()):
            counts[draw(st.integers(min_value=0, max_value=15))] = draw(
                st.integers(min_value=0, max_value=height + 1))
    profile = [b for b, c in enumerate(counts, start=1) for _ in range(c)] or [0]
    value = st.one_of(st.just(counts.index(max(counts)) + 1), st.sampled_from(profile),
                      st.integers(min_value=0, max_value=20))
    n = draw(st.integers(min_value=0, max_value=80))
    return counts, draw(st.lists(value, min_size=n, max_size=n))


def _bins(**counts_by_bin):
    return [counts_by_bin.get(f"b{b}", 0) for b in range(1, 17)]


@given(
    state=_histogram_and_outcomes(),
    criteria=st.one_of(st.just(StoppingCriteria()), _RULES),
)
# the peak reaches exactly 1.5 times its neighbors at the second outcome
@example(state=(_bins(b4=2, b5=4, b6=5, b7=4, b8=2), [1, 6]),
         criteria=StoppingCriteria(1, 1.5, 3, 0.25))
# a distant bin sits exactly at the threshold once the peak reaches 8
@example(state=(_bins(b5=5, b6=7, b7=5, b13=4), [6]), criteria=StoppingCriteria(1, 1.25, 3, 0.5))
@settings(max_examples=400, deadline=None)
def test_stopping_prefix_matches_stopping_met_after_each_record(state, criteria):
    counts, values = state
    base = Histogram()
    base.counts = list(counts)
    hist = Histogram()
    hist.counts = list(counts)
    expected = None
    for i, value in enumerate(values):
        reference.record(hist, value)
        if reference.stopping_met(hist, criteria):
            expected = i
            break
    assert stopping_prefix(base, np.array(values, dtype=np.int64), criteria) == expected
    assert base.counts == counts


@given(state=_histogram_and_outcomes(), criteria=st.one_of(st.just(StoppingCriteria()), _RULES))
@settings(max_examples=200, deadline=None)
def test_stopping_met_matches_the_scalar_rule(state, criteria):
    counts, values = state
    hist = Histogram()
    hist.counts = list(counts)
    assert stopping_met(hist, criteria) == reference.stopping_met(hist, criteria)
    for value in values:
        reference.record(hist, value)
        assert stopping_met(hist, criteria) == reference.stopping_met(hist, criteria)


def test_record_all_matches_record():
    values = np.array([0, 1, 5, 5, 16, 17, 20, 3])
    one_by_one, at_once = Histogram(), Histogram()
    for value in values:
        reference.record(one_by_one, int(value))
    at_once.record_all(values)
    assert at_once == one_by_one


def test_stopped_campaign_is_a_prefix_of_a_fixed_budget_one():
    cfg = TrialConfig()
    stopped = run_campaign(rng_new(12), cfg, StoppingCriteria(), 2000)
    assert stopped.selected is not None
    fixed = run_campaign(rng_new(12), cfg, None, stopped.measurements)
    assert (fixed.histogram, fixed.discarded) == (stopped.histogram, stopped.discarded)


def test_fixed_budget_campaign_is_a_prefix_of_a_longer_one():
    # measurement n of a campaign is the n-th kept trial of its block streams
    cfg = TrialConfig()
    root = rng_new(4)
    blocks = [trial_block(derive_child(root, b), cfg) for b in range(3)]
    first = np.concatenate([b.first for b in blocks])
    second = np.concatenate([b.second for b in blocks])
    kept = np.flatnonzero(first == 21)
    for n in (1, 2, 100, 255, 256, 257, 600):
        result = run_campaign(root, cfg, None, n)
        expected = Histogram()
        expected.record_all(second[kept[:n]])
        assert result.histogram == expected
        assert result.discarded == kept[n - 1] + 1 - n


def test_campaign_that_never_keeps_a_trial_hits_the_trial_limit(monkeypatch):
    # 10 mm bevels lengthen the piece by 30 mm, so the first count is 17, never 21
    from sixradii import histogram

    monkeypatch.setattr(histogram, "_CAMPAIGN_TRIAL_LIMIT", 5000)
    cfg = TrialConfig(error_model=ErrorModel(cut_elongation=10.0))
    with pytest.raises(DegenerateConfigError, match="trial limit"):
        run_campaign(rng_new(0), cfg, StoppingCriteria(), 10)


# Setups for the multi-budget selection: the default errors at three radii,
# the random-only ablation, and fixed errors whose 0.3 mm bevels leave so
# short a leftover piece that every kept trial reads 17, past the window.
_SELECTION_SETUPS = [
    *(TrialConfig(radius=r) for r in (200.0, 450.0, 900.0)),
    *(TrialConfig(radius=r, error_model=ErrorModel(fixed_errors_enabled=False))
      for r in (200.0, 450.0)),
    TrialConfig(error_model=ErrorModel(cut_elongation=0.3, random_errors_enabled=False)),
]
_EMPTY_WINDOW = _SELECTION_SETUPS[-1]


@given(seed=st.integers(0, 2**32), cfg=st.sampled_from(_SELECTION_SETUPS),
       budgets=st.lists(st.integers(1, 600), min_size=1, max_size=5))
@example(seed=4, cfg=_SELECTION_SETUPS[1], budgets=[256, 1, 257, 255, 600, 256])
@example(seed=4, cfg=_EMPTY_WINDOW, budgets=[300, 1, 300])
@settings(max_examples=40, deadline=None)
def test_multi_budget_selection_matches_one_budget_campaigns(seed, cfg, budgets):
    # one campaign run to the largest budget selects at each budget b what a
    # campaign of budget b on the same stream selects, and is itself unchanged
    shared = run_campaign(rng_new(seed), cfg, None, max(budgets), budgets)
    assert len(shared.peaks) == len(budgets)
    assert shared._replace(peaks=()) == run_campaign(rng_new(seed), cfg, None, max(budgets))
    for budget, peak in zip(budgets, shared.peaks):
        assert peak == run_campaign(rng_new(seed), cfg, None, budget).selected
    if cfg is _EMPTY_WINDOW:
        assert shared.histogram.overflow == max(budgets)
        assert shared.peaks == (None,) * len(budgets)


def test_multi_budget_campaign_hits_the_same_trial_limit(monkeypatch):
    from sixradii import histogram

    monkeypatch.setattr(histogram, "_CAMPAIGN_TRIAL_LIMIT", 5000)
    cfg = TrialConfig(error_model=ErrorModel(cut_elongation=10.0))
    messages = []
    for budgets in ((), (3, 10)):
        with pytest.raises(DegenerateConfigError, match="trial limit") as raised:
            run_campaign(rng_new(0), cfg, None, 10, budgets)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("criteria, budgets", [(StoppingCriteria(), (5,)), (None, (0,)),
                                                (None, (5, 11))])
def test_budgets_need_a_fixed_budget_campaign_that_reaches_them(criteria, budgets):
    with pytest.raises(ValueError, match="budgets"):
        run_campaign(rng_new(0), TrialConfig(), criteria, 10, budgets)
