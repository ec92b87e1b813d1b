import math
from dataclasses import replace

import pytest

from sixradii.config import ErrorModel, StoppingCriteria, TrialConfig
from sixradii.experiments import (
    AblationMode,
    CostCapError,
    GridCell,
    SweepSpec,
    ablation_distribution,
    apply_ablation,
    fixed_budget_success,
    radius_budget_grid,
    radius_first_iteration_sweep,
    run_campaign_batch,
    summarize_success,
)
from sixradii.histogram import run_campaign
from sixradii.stochastics import RngState, derive_child, rng_new


def test_ablation_mode_parsing():
    # the CLI's --mode choices are exactly these values, looked up as given
    assert [m.value for m in AblationMode] == ["all", "fixed-only", "random-only", "none"]
    assert AblationMode("fixed-only") is AblationMode.FIXED_ONLY
    with pytest.raises(ValueError):
        AblationMode("RANDOM_ONLY")


def test_apply_ablation_toggles():
    model = ErrorModel()
    fixed = apply_ablation(model, AblationMode.FIXED_ONLY)
    assert fixed.fixed_errors_enabled and not fixed.random_errors_enabled
    rand = apply_ablation(model, AblationMode.RANDOM_ONLY)
    assert rand.random_errors_enabled and not rand.fixed_errors_enabled
    none = apply_ablation(model, AblationMode.NONE)
    assert not none.fixed_errors_enabled and not none.random_errors_enabled


def test_ablation_none_is_point_mass_at_five():
    assert ablation_distribution(TrialConfig(), AblationMode.NONE, 200, 1) == {5: 1.0}


def test_ablation_fixed_only_is_point_mass_at_seven():
    assert ablation_distribution(TrialConfig(), AblationMode.FIXED_ONLY, 200, 1) == {7: 1.0}


def test_ablation_literal_rounding_gives_eight():
    cfg = TrialConfig(literal_rounding=True)
    assert ablation_distribution(cfg, AblationMode.FIXED_ONLY, 200, 1) == {8: 1.0}


def test_ablation_random_only_mode_is_four():
    dist = ablation_distribution(TrialConfig(), AblationMode.RANDOM_ONLY, 4000, 2)
    assert max(dist, key=dist.get) == 4


def test_ablation_fractions_sum_to_one():
    dist = ablation_distribution(TrialConfig(), AblationMode.ALL_ERRORS, 2000, 3)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_campaign_batch_parallel_matches_serial():
    cfg = TrialConfig()
    criteria = StoppingCriteria()
    serial = run_campaign_batch(cfg, criteria, 10, 5, max_measurements=150, workers=1)
    parallel = run_campaign_batch(cfg, criteria, 10, 5, max_measurements=150, workers=2)
    assert serial == parallel


def test_fixed_budget_batch_parallel_matches_serial():
    cfg = TrialConfig()
    serial = run_campaign_batch(cfg, None, 12, 5, 30, workers=1)
    parallel = run_campaign_batch(cfg, None, 12, 5, 30, workers=3)
    assert serial == parallel


def test_chunked_batches_match_serial():
    # 41 campaigns go out in chunks of 5 at two workers and of 3 at three:
    # every chunk must keep its items' batch indices and come back in order
    serial = run_campaign_batch(TrialConfig(), None, 41, 5, 20, workers=1)
    assert len({(o.selected, o.discarded) for o in serial}) > 1
    for workers in (2, 3):
        assert run_campaign_batch(TrialConfig(), None, 41, 5, 20, workers=workers) == serial


def test_grid_cells_run_on_their_own_streams_across_chunks():
    # 3 radii x 11 campaigns are 33 items, in chunks of 4 at two workers and of 2
    # at three, so chunks straddle rows; campaign c of row i runs on (seed, i, c)
    # to the row's largest budget, and cell (i, b) is the fixed-budget success
    # of b measurements on (seed, i), whatever the order or repetition of budgets
    for budgets in ((3, 8), (100, 3, 100, 8)):
        spec = SweepSpec(radii=(200.0, 450.0, 900.0), budgets=budgets, campaigns_per_cell=11)
        cells = radius_budget_grid(spec, TrialConfig(), 3, workers=1)
        expected = [
            GridCell(radius, budget, fixed_budget_success(
                replace(TrialConfig(), radius=radius), budget, 11, RngState(3, (i,))
            ).success_fraction)
            for i, radius in enumerate(spec.radii) for budget in budgets
        ]
        assert cells == expected
        assert len({c.success_fraction for c in cells}) > 1
        for workers in (2, 3):
            assert radius_budget_grid(spec, TrialConfig(), 3, workers=workers) == cells


def test_summarize_success_counts_no_decision_as_failure():
    model = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
    cfg = TrialConfig(error_model=model)
    outcomes = run_campaign_batch(cfg, StoppingCriteria(), 5, 1, max_measurements=60)
    stats = summarize_success(outcomes)
    assert stats.no_decision_fraction == 1.0
    assert stats.success_fraction == 0.0
    assert stats.mean_measurements is None


def test_fixed_budget_campaign_with_an_empty_window_selects_nothing():
    # at radius 200 about one kept trial in five reads 0 or past the window
    cfg = TrialConfig(radius=200.0)
    outcomes = run_campaign_batch(cfg, None, 40, 3, max_measurements=1)
    root = rng_new(3)
    for c, outcome in enumerate(outcomes):
        hist = run_campaign(derive_child(root, c), cfg, None, 1).histogram
        assert outcome.selected == (hist.peak_bin() if any(hist.counts) else None)
    assert any(o.selected is None for o in outcomes)


def test_budget_one_matches_trial_distribution():
    # a single-measurement campaign just reports that trial's outcome, so the
    # success fraction must track the conditioned trial distribution
    cfg = TrialConfig()
    stats = fixed_budget_success(cfg, 1, 4000, 6)
    dist = ablation_distribution(cfg, AblationMode.ALL_ERRORS, 4000, 60)
    sigma = math.sqrt(2 * stats.success_fraction * (1 - stats.success_fraction) / 4000)
    assert abs(stats.success_fraction - dist.get(5, 0.0)) < 4 * sigma + 1e-9


def test_radius_sweep_fraction_grows_with_radius():
    points = radius_first_iteration_sweep((150.0, 300.0, 450.0), 800, TrialConfig(), 4)
    fractions = [p.fraction_first_21 for p in points]
    assert fractions[0] < fractions[2]
    assert fractions[2] > 0.9


def test_sweep_validation():
    with pytest.raises(ValueError):
        radius_first_iteration_sweep((), 100)
    with pytest.raises(ValueError):
        radius_first_iteration_sweep((450.0,), 0)


def test_grid_single_cell_reduces_to_fixed_budget():
    # row i runs its campaigns on the streams (seed, i, c)
    spec = SweepSpec(radii=(450.0,), budgets=(30,), campaigns_per_cell=12)
    (cell,) = radius_budget_grid(spec, TrialConfig(), 9)
    direct = fixed_budget_success(TrialConfig(), 30, 12, derive_child(rng_new(9), 0))
    assert cell.success_fraction == direct.success_fraction


def test_grid_cost_cap():
    # rows share their campaigns: 2 radii x 10 campaigns run 20, one over the cap
    spec = SweepSpec(radii=(200.0, 450.0), budgets=(25, 50), campaigns_per_cell=10, cost_cap=19)
    with pytest.raises(CostCapError):
        radius_budget_grid(spec)


def test_grid_deterministic_across_workers():
    spec = SweepSpec(radii=(300.0, 450.0), budgets=(10, 25), campaigns_per_cell=6)
    serial = radius_budget_grid(spec, seed=2, workers=1)
    assert radius_budget_grid(spec, seed=2, workers=2) == serial


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(radii=())
    with pytest.raises(ValueError):
        SweepSpec(budgets=(0,))
    with pytest.raises(ValueError):
        SweepSpec(campaigns_per_cell=0)


def test_success_stats_ci_width():
    outcomes = run_campaign_batch(TrialConfig(), None, 50, 3, 20)
    stats = summarize_success(outcomes)
    p = stats.success_fraction
    assert stats.ci_half_width == pytest.approx(1.96 * math.sqrt(p * (1 - p) / 50))
    assert 0.0 <= p <= 1.0
