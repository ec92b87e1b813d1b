import math

import pytest

from sixradii.errors import ErrorModel
from sixradii.experiments import (
    AblationMode,
    CostCapError,
    SweepSpec,
    ablation_distribution,
    apply_ablation,
    fixed_budget_success,
    radius_budget_grid,
    radius_first_iteration_sweep,
    run_campaign_batch,
    summarize_success,
)
from sixradii.histogram import StoppingCriteria
from sixradii.measurement import TrialConfig
from sixradii.stochastics import derive_child, rng_new


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
    # 41 campaigns go out in chunks of 5 at two workers and of 3 at three, and
    # 18 grid cells in chunks of 2: every chunk must keep its items' batch
    # indices and come back in order
    serial = run_campaign_batch(TrialConfig(), None, 41, 5, 20, workers=1)
    assert len({(o.selected, o.discarded) for o in serial}) > 1
    for workers in (2, 3):
        assert run_campaign_batch(TrialConfig(), None, 41, 5, 20, workers=workers) == serial
    spec = SweepSpec(radii=(200.0, 450.0, 900.0), budgets=(1, 2, 3, 5, 8, 13),
                     campaigns_per_cell=4, base_seed=3)
    cells = radius_budget_grid(spec, workers=1)
    assert len(cells) == 18
    assert len({c.success_fraction for c in cells}) > 1
    assert radius_budget_grid(spec, workers=2) == cells


def test_summarize_success_counts_no_decision_as_failure():
    model = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
    cfg = TrialConfig(error_model=model)
    outcomes = run_campaign_batch(cfg, StoppingCriteria(), 5, 1, max_measurements=60)
    stats = summarize_success(outcomes)
    assert stats.no_decision_fraction == 1.0
    assert stats.success_fraction == 0.0
    assert math.isnan(stats.mean_measurements)


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
    # cell k runs its campaigns on the streams (base_seed, k, c)
    spec = SweepSpec(radii=(450.0,), budgets=(30,), campaigns_per_cell=12, base_seed=9)
    (cell,) = radius_budget_grid(spec, TrialConfig())
    direct = fixed_budget_success(TrialConfig(), 30, 12, derive_child(rng_new(9), 0))
    assert cell.success_fraction == direct.success_fraction


def test_grid_cost_cap():
    spec = SweepSpec(radii=(200.0, 450.0), budgets=(25, 50), campaigns_per_cell=10, cost_cap=39)
    with pytest.raises(CostCapError):
        radius_budget_grid(spec)


def test_grid_deterministic_across_workers():
    spec = SweepSpec(radii=(300.0, 450.0), budgets=(10, 25), campaigns_per_cell=6, base_seed=2)
    assert radius_budget_grid(spec, workers=1) == radius_budget_grid(spec, workers=2)


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
