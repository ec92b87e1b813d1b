import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, ks_2samp

from sixradii.config import ErrorModel, TrialConfig
from sixradii.experiments import AblationMode, apply_ablation
from sixradii.measurement import (
    _FIRST_STEPS,
    _RUNAWAY_LIMIT,
    BLOCK_TRIALS,
    WINDOW_HI,
    DegenerateConfigError,
    TrialResult,
    _lay,
    accumulate_until_exceeds,
    simulate_trial,
    trial_block,
    trial_blocks,
)
from sixradii.stochastics import derive_child, rng_new

import reference
from reference import first_iteration, round_count, sample_circumference_piece, second_iteration

ZERO = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
FIXED_ONLY = ErrorModel(random_errors_enabled=False)


def zero_cfg(radius=450.0):
    return TrialConfig(radius=radius, error_model=ZERO)


def fixed_cfg(radius=450.0):
    return TrialConfig(radius=radius, error_model=FIXED_ONLY)


def test_trial_config_derived_lengths():
    cfg = TrialConfig(radius=450.0)
    assert cfg.six_r == 2700.0
    assert cfg.true_circumference == pytest.approx(2 * math.pi * 450, rel=1e-15)
    with pytest.raises(ValueError):
        TrialConfig(radius=0.0)


def test_circumference_piece_zero_errors_is_exact_geometry():
    piece = sample_circumference_piece(rng_new(1), zero_cfg())
    assert piece == pytest.approx(2 * math.pi * 450 - 2700, rel=1e-15)
    assert round(piece, 4) == 127.4334


def test_circumference_piece_fixed_only():
    piece = sample_circumference_piece(rng_new(1), fixed_cfg())
    expected = (2 * math.pi * 450 - 2700) + 0.057 * 0.5 + 3 * 0.095
    assert piece == pytest.approx(expected, rel=1e-15)
    assert round(piece, 4) == 127.7469


def test_circumference_piece_spread_matches_variance_addition():
    # independent normal terms: stdev = sqrt(circ^2 + cut^2); at radius 350 the
    # fitted groove line gives the recorded 0.3538
    cfg = TrialConfig(radius=350.0)
    root = rng_new(77)
    draws = [
        sample_circumference_piece(derive_child(root, i), cfg) for i in range(100_000)
    ]
    expected = math.sqrt(0.3538**2 + 0.09**2)
    assert statistics.stdev(draws) == pytest.approx(expected, rel=0.03)


def test_accumulate_zero_errors_reference_counts():
    acc = accumulate_until_exceeds(rng_new(0), zero_cfg(), 127.4334, 2700.0)
    assert acc.pieces_used == 22
    assert acc.total_before_last == pytest.approx(21 * 127.4334, rel=1e-12)
    assert acc.total == pytest.approx(22 * 127.4334, rel=1e-12)


def test_accumulate_strict_inequality_boundary():
    # a total exactly equal to the target does not stop the accumulation
    acc = accumulate_until_exceeds(rng_new(0), zero_cfg(), 5.0, 10.0)
    assert acc.pieces_used == 3
    acc = accumulate_until_exceeds(rng_new(0), zero_cfg(), 5.0 - 1e-9, 10.0)
    assert acc.pieces_used == 3


def test_accumulate_preconditions():
    with pytest.raises(ValueError):
        accumulate_until_exceeds(rng_new(0), zero_cfg(), 10.0, 10.0)
    with pytest.raises(ValueError):
        accumulate_until_exceeds(rng_new(0), zero_cfg(), 0.0, 10.0)
    with pytest.raises(ValueError):
        accumulate_until_exceeds(rng_new(0), zero_cfg(), -1.0, 10.0)


@given(
    piece=st.floats(min_value=0.5, max_value=50.0),
    factor=st.floats(min_value=1.5, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_accumulate_soundness(piece, factor, seed):
    target = piece * factor
    acc = accumulate_until_exceeds(rng_new(seed), TrialConfig(), piece, target)
    assert acc.pieces_used >= 2
    assert acc.total_before_last <= target < acc.total


def test_first_iteration_zero_errors():
    cfg = zero_cfg()
    piece = sample_circumference_piece(rng_new(1), cfg)
    quotient, remainder = first_iteration(rng_new(1), cfg, piece)
    assert quotient == 21
    assert remainder == pytest.approx(2700 - 21 * (2 * math.pi * 450 - 2700), rel=1e-10)


def test_first_iteration_fixed_only():
    cfg = fixed_cfg()
    piece = sample_circumference_piece(rng_new(1), cfg)
    quotient, remainder = first_iteration(rng_new(1), cfg, piece)
    assert quotient == 21
    expected = 2700 - 21 * piece + 0.095
    assert remainder == pytest.approx(expected, rel=1e-12)
    assert round(remainder, 3) == 17.410


def test_round_count_branches():
    assert round_count(6, 7.0, 10.0) == 5  # more than half sticks out: round down
    assert round_count(6, 3.0, 10.0) == 6  # less than half sticks out: round up
    assert round_count(6, 5.0, 10.0) == 6  # exactly half: tie rounds up


def test_round_count_literal_branch_is_inverted():
    assert round_count(6, 7.0, 10.0, literal=True) == 6
    assert round_count(6, 3.0, 10.0, literal=True) == 5
    assert round_count(6, 5.0, 10.0, literal=True) == 6


def test_round_count_validation():
    with pytest.raises(ValueError):
        round_count(6, -0.1, 10.0)
    with pytest.raises(ValueError):
        round_count(6, 1.0, 0.0)


def test_round_count_is_nearest_integer_of_ratio():
    # identical pieces of length L against an integer target: the rounded count
    # must equal floor(target/L + 1/2) with ties up, checked in exact integers
    for length in range(1, 101):
        for target in range(1, 1001):
            pieces_to_pass = target // length + 1
            overshoot = pieces_to_pass * length - target
            got = round_count(pieces_to_pass, float(overshoot), float(length))
            assert got == (2 * target + length) // (2 * length), (length, target)


def test_second_iteration_zero_errors_gives_five():
    cfg = zero_cfg()
    piece = sample_circumference_piece(rng_new(1), cfg)
    _, remainder = first_iteration(rng_new(1), cfg, piece)
    assert second_iteration(rng_new(1), cfg, piece, remainder) == 5


def test_second_iteration_fixed_only_gives_seven():
    cfg = fixed_cfg()
    piece = sample_circumference_piece(rng_new(1), cfg)
    _, remainder = first_iteration(rng_new(1), cfg, piece)
    assert second_iteration(rng_new(1), cfg, piece, remainder) == 7
    assert piece / remainder == pytest.approx(7.338, abs=1.5e-3)


def test_second_iteration_literal_branch_gives_eight():
    cfg = replace(fixed_cfg(), literal_rounding=True)
    piece = sample_circumference_piece(rng_new(1), cfg)
    _, remainder = first_iteration(rng_new(1), cfg, piece)
    assert second_iteration(rng_new(1), cfg, piece, remainder) == 8


def test_second_iteration_validation():
    with pytest.raises(ValueError):
        second_iteration(rng_new(0), zero_cfg(), -1.0, 5.0)
    with pytest.raises(ValueError):
        second_iteration(rng_new(0), zero_cfg(), 100.0, 0.0)


def _reference_second_count(rng, cfg, c_piece, remainder):
    """The second count from an accumulation bounded only by the runaway guard."""
    acc = accumulate_until_exceeds(rng, cfg, remainder, c_piece, _RUNAWAY_LIMIT)
    if acc.total <= c_piece:
        return math.inf  # the mark is never passed
    return round_count(acc.pieces_used, acc.total - c_piece, acc.total - acc.total_before_last,
                       literal=cfg.literal_rounding)


def _at_second_iteration(root, t, cfg):
    """Child stream t of root, replayed up to the second iteration."""
    stream = derive_child(root, t)
    c_piece = sample_circumference_piece(stream, cfg)
    _, remainder = first_iteration(stream, cfg, c_piece)
    return stream, c_piece, remainder


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    radius=st.sampled_from([200.0, 450.0, 900.0]),
    mode=st.sampled_from(list(AblationMode)),
    literal=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_bounded_second_iteration_matches_reference(seed, radius, mode, literal):
    cfg = TrialConfig(radius=radius, error_model=apply_ablation(ErrorModel(), mode),
                      literal_rounding=literal)
    root = rng_new(seed)
    for t in range(10):
        stream, c_piece, remainder = _at_second_iteration(root, t, cfg)
        if not 0 < remainder < c_piece:
            continue
        replay = _at_second_iteration(root, t, cfg)[0]
        expected = min(_reference_second_count(replay, cfg, c_piece, remainder), WINDOW_HI + 1)
        assert second_iteration(stream, cfg, c_piece, remainder) == expected


def test_second_iteration_stops_when_the_mark_is_never_passed(deadline):
    # each copy of a 0.05 piece loses 0.09 on average to juxtaposition, so the
    # total drifts away from the mark; the count is past the window at once
    cfg = TrialConfig()
    assert 0.05 < 0.5 * cfg.error_model.juxtaposition_span_effective()
    with deadline(5):
        assert second_iteration(rng_new(0), cfg, 127.0, 0.05) == WINDOW_HI + 1


@pytest.mark.parametrize("radius", [100.0, 200.0, 450.0, 900.0, 333.33])
def test_zero_error_trial_is_radius_invariant(radius):
    result = simulate_trial(rng_new(11), zero_cfg(radius))
    assert (result.first_quotient, result.second_quotient) == (21, 5)
    assert not result.discarded


def test_zero_error_quotients_match_exact_arithmetic():
    # the geometry oracle: floor(6R / (C-6R)) and round((C-6R) / remainder)
    ratio = 2 * math.pi - 6
    assert math.floor(6 / ratio) == 21
    second = ratio / (6 - 21 * ratio)
    assert math.floor(second + 0.5) == 5


def test_simulate_trial_reproducible():
    a = simulate_trial(rng_new(42), TrialConfig())
    b = simulate_trial(rng_new(42), TrialConfig())
    assert a == b


def test_fixed_only_trials_identical_across_streams():
    results = {simulate_trial(rng_new(seed), fixed_cfg()) for seed in range(5)}
    assert len(results) == 1


def test_trial_blocks_and_simulate_trial_read_the_kernel_rows():
    cfg = TrialConfig()
    blocks = list(trial_blocks(rng_new(2), cfg, BLOCK_TRIALS + 44))
    assert [len(column) for block in blocks for column in block] == [BLOCK_TRIALS] * 4 + [44] * 4
    whole = trial_block(derive_child(rng_new(2), 1), cfg)
    assert all(np.array_equal(cut, column[:44]) for cut, column in zip(blocks[1], whole))
    row = blocks[0]
    assert simulate_trial(rng_new(2), cfg) == TrialResult(
        int(row.first[0]), int(row.second[0]), float(row.piece[0]), float(row.remainder[0]),
        bool(row.first[0] != 21))


def test_default_trials_mode_is_five():
    cfg = TrialConfig()
    root = rng_new(8)
    counts = {}
    for t in range(10_000):
        result = reference.simulate_trial(derive_child(root, t), cfg)
        if not result.discarded:
            counts[result.second_quotient] = counts.get(result.second_quotient, 0) + 1
    assert max(counts, key=counts.get) == 5


def test_fixed_bias_response_is_monotone():
    # growing the cut protrusion (randomness off) can only push the count up
    quotients = []
    for step in range(16):
        model = ErrorModel(random_errors_enabled=False, cut_elongation=0.02 * step)
        result = simulate_trial(rng_new(0), TrialConfig(error_model=model))
        quotients.append(result.second_quotient)
    assert quotients == sorted(quotients)
    assert quotients[0] == 5


def _kernel_quotients(cfg, n_trials, seed):
    blocks = list(trial_blocks(rng_new(seed), cfg, n_trials))
    return np.concatenate([b.first for b in blocks]), np.concatenate([b.second for b in blocks])


def _reference_quotients(cfg, n_trials, seed):
    rng = rng_new(seed)  # one stream: its successive trials are independent too
    trials = [reference.simulate_trial(rng, cfg) for _ in range(n_trials)]
    return (np.array([t.first_quotient for t in trials]),
            np.array([t.second_quotient for t in trials]))


def _chi2_pvalue(a, b):
    """Two-sample chi-square p-value of two count vectors over the same categories.

    Categories with fewer than 20 counts in both samples together are pooled.
    """
    table = np.array([a, b])
    rare = table.sum(axis=0) < 20
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def _outcome_counts(first, second):
    """Kept trials per second count 0..16 and 17 (past the window), then discards."""
    kept = second[first == 21]
    return np.append(np.bincount(kept, minlength=WINDOW_HI + 2), np.count_nonzero(first != 21))


@pytest.mark.parametrize("radius", [200.0, 450.0, 900.0])
@pytest.mark.parametrize("mode", [AblationMode.ALL_ERRORS, AblationMode.RANDOM_ONLY])
def test_kernel_matches_scalar_reference_in_distribution(mode, radius):
    # 1e5 kernel trials per radius against 1e5 scalar trials per mode over the
    # three radii: second counts 0..16, the 17 overflow and the discard rate
    cfg = TrialConfig(radius=radius, error_model=apply_ablation(ErrorModel(), mode))
    kernel = _outcome_counts(*_kernel_quotients(cfg, 100_000, 21))
    scalar = _outcome_counts(*_reference_quotients(cfg, 33_334, 22))
    assert _chi2_pvalue(kernel, scalar) > 1e-4


def test_row_accumulation_matches_accumulate_until_exceeds():
    # 20 copies of a 5 mm piece fall short of 101 mm and 21 pass it, so the
    # spread of the final total is the scatter of the copies
    cfg = TrialConfig()
    em = cfg.error_model
    n = 5000
    ref = np.full(n, 5.0)
    laid, _, total = _lay(rng_new(1), ref, ref, np.full(n, 101.0), 64,
                          em.cut_match_stdev_effective(), em.juxtaposition_span_effective())
    rng = rng_new(2)
    scalar = [accumulate_until_exceeds(rng, cfg, 5.0, 101.0) for _ in range(n)]
    assert _chi2_pvalue(np.bincount(laid + 1, minlength=30),
                        np.bincount([a.pieces_used for a in scalar], minlength=30)) > 1e-4
    assert ks_2samp(total, [a.total for a in scalar]).pvalue > 1e-4


@pytest.mark.parametrize("radius", [200.0, 450.0, 900.0])
@pytest.mark.parametrize("model, literal", [(FIXED_ONLY, False), (ZERO, False), (FIXED_ONLY, True)])
def test_kernel_is_exact_without_random_errors(model, literal, radius):
    cfg = TrialConfig(radius=radius, error_model=model, literal_rounding=literal)
    expected = reference.simulate_trial(rng_new(0), cfg)
    block = trial_block(rng_new(0), cfg)
    assert set(block.first.tolist()) == {expected.first_quotient}
    assert set(block.second.tolist()) == {expected.second_quotient}


def test_kernel_point_masses_at_radius_450():
    def outcomes(model, literal=False):
        block = trial_block(rng_new(3), TrialConfig(error_model=model, literal_rounding=literal))
        return set(block.first.tolist()), set(block.second.tolist())

    assert outcomes(FIXED_ONLY) == ({21}, {7})
    assert outcomes(ZERO) == ({21}, {5})
    assert outcomes(FIXED_ONLY, literal=True) == ({21}, {8})


def test_kernel_slow_rows_match_scalar_reference():
    # a 50 mm juxtaposition span shortens every copy by 25 mm on average, so
    # the first count needs about 27 copies, past the kernel's first pass
    cfg = TrialConfig(error_model=ErrorModel(juxtaposition_span=50.0))
    first, second = _kernel_quotients(cfg, 20_000, 5)
    assert np.count_nonzero(first > _FIRST_STEPS) > 15_000
    ref_first, ref_second = _reference_quotients(cfg, 10_000, 6)
    values = np.arange(max(first.max(), ref_first.max()) + 1)
    assert _chi2_pvalue(np.bincount(first, minlength=values.size),
                        np.bincount(ref_first, minlength=values.size)) > 1e-4
    assert _chi2_pvalue(np.bincount(second, minlength=WINDOW_HI + 2),
                        np.bincount(ref_second, minlength=WINDOW_HI + 2)) > 1e-4


def test_kernel_keeps_the_guards(deadline):
    with pytest.raises(DegenerateConfigError, match="outside"):
        trial_block(rng_new(0), TrialConfig(error_model=ErrorModel(cut_elongation=1000.0)))
    with deadline(10), pytest.raises(DegenerateConfigError, match="pieces"):
        trial_block(rng_new(0), TrialConfig(error_model=ErrorModel(juxtaposition_span=400.0)))
