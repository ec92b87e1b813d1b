"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Stochastic criteria use
the fixed seeds documented next to each test; reruns are bit-identical.

Criterion 3 asserts a trial-level fraction band that the error constants
cannot produce (see notes in the decisions ledger outside the package); its
mode assertion passes, the band assertion fails, and the supplementary test
directly after it records the protocol-level rate that does land in the band.
"""

import json
import math
from fractions import Fraction

from scipy.stats import spearmanr

from sixradii.cli import main
from sixradii.config import ErrorModel, StoppingCriteria, TrialConfig
from sixradii.contfrac import cf_expand, convergent, euclid_quotients, pi_estimate
from sixradii.experiments import (
    AblationMode,
    SweepSpec,
    ablation_distribution,
    apply_ablation,
    fixed_budget_success,
    radius_budget_grid,
    radius_first_iteration_sweep,
    run_campaign_batch,
    summarize_success,
)
from sixradii.stochastics import ReciprocalStudyConfig, reciprocal_peak_curve, rng_new


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_c01_zero_error_oracle():
    zero = ErrorModel(fixed_errors_enabled=False, random_errors_enabled=False)
    results = {}
    for radius in (100.0, 200.0, 450.0, 900.0):
        from sixradii.measurement import simulate_trial

        trial = simulate_trial(rng_new(1), TrialConfig(radius=radius, error_model=zero))
        results[radius] = (trial.first_quotient, trial.second_quotient)
    ratio = 2 * math.pi - 6
    oracle = (math.floor(6 / ratio), math.floor(ratio / (6 - 21 * ratio) + 0.5))
    ok = all(quotients == (21, 5) == oracle for quotients in results.values())
    assert report(1, ok, f"zero-error quotients {results} == exact-arithmetic {oracle}")


def test_c02_fixed_only_ablation():
    dist = ablation_distribution(TrialConfig(), AblationMode.FIXED_ONLY, 10_000, 31)
    ok = dist == {7: 1.0}
    assert report(2, ok, f"fixed-only distribution {dist} == {{7: 1.0}} over 1e4 trials")


def test_c03_random_only_ablation_trial_level():
    dist = ablation_distribution(TrialConfig(), AblationMode.RANDOM_ONLY, 10_000, 31)
    mode = max(dist, key=dist.get)
    fraction = dist[mode]
    ok_mode = mode == 4
    ok_band = 0.58 <= fraction <= 0.72
    report(3, ok_mode and ok_band,
           f"random-only trial mode={mode} fraction={fraction:.4f} (band [0.58, 0.72])")
    assert ok_mode, "mode of the random-only second quotient must be 4"
    assert ok_band, (
        "trial-level fraction of 4 cannot reach [0.58, 0.72] with the measured "
        "error constants; the rate lands in-band at protocol level (see the "
        "supplement test and the decisions ledger)"
    )


def test_c03_supplement_random_only_protocol_level():
    # the in-band reading of the 65% figure: fraction of campaigns whose
    # protocol-selected value is 4 under the random-only ablation
    cfg = TrialConfig(error_model=apply_ablation(ErrorModel(), AblationMode.RANDOM_ONLY))
    outcomes = run_campaign_batch(cfg, StoppingCriteria(), 200, 17, workers=4)
    fraction = sum(1 for o in outcomes if o.selected == 4) / len(outcomes)
    ok = 0.58 <= fraction <= 0.72
    assert report(3, ok, f"(supplement) protocol-level fraction selecting 4 = {fraction:.3f}")


def test_c04_headline_success_and_measurements():
    outcomes = run_campaign_batch(TrialConfig(), StoppingCriteria(), 500, 31, workers=4)
    stats = summarize_success(outcomes)
    ok = 0.65 <= stats.success_fraction <= 0.85 and 250 <= stats.mean_measurements <= 420
    assert report(
        4, ok,
        f"success={stats.success_fraction:.3f} (band [0.65, 0.85]), "
        f"mean measurements={stats.mean_measurements:.1f} (band [250, 420]), "
        f"no-decision={stats.no_decision_fraction:.3f}",
    )


def test_c05_fixed_budget_curves():
    at_50 = fixed_budget_success(TrialConfig(), 50, 1000, 31, workers=4)
    at_100 = fixed_budget_success(TrialConfig(), 100, 1000, 31, workers=4)
    ok = at_50.success_fraction > 0.40 and at_100.success_fraction > 0.50
    assert report(
        5, ok,
        f"budget 50 success={at_50.success_fraction:.3f} (> 0.40), "
        f"budget 100 success={at_100.success_fraction:.3f} (> 0.50)",
    )


def test_c06_radius_sweep():
    radii = tuple(float(r) for r in range(100, 650, 50))
    points = radius_first_iteration_sweep(radii, 4000, TrialConfig(), 31, workers=4)
    by_radius = {p.radius: p.fraction_first_21 for p in points}
    rho = float(spearmanr([p.radius for p in points],
                          [p.fraction_first_21 for p in points]).statistic)
    ok = by_radius[450.0] >= 0.95 and rho > 0.9
    assert report(
        6, ok,
        f"fraction(21) at R=450 = {by_radius[450.0]:.4f} (>= 0.95), "
        f"Spearman over {{100..600}} = {rho:.3f} (> 0.9)",
    )


def test_c07_continued_fractions():
    expansion = cf_expand(math.pi / 3, 3)
    ratio = convergent(expansion.quotients)
    pi_value = pi_estimate(ratio)
    ok = (
        expansion.quotients == (1, 21, 5)
        and ratio == Fraction(111, 106)
        and abs(pi_value - 3.141509) < 5e-7
    )
    checked = 0
    for q in range(1, 1001):
        for p in range(1, 1001):
            if math.gcd(p, q) != 1:
                continue
            exact = cf_expand(Fraction(p, q))
            if not exact.exact or convergent(exact.quotients) != Fraction(p, q):
                ok = False
            if euclid_quotients(p, q) != list(exact.quotients):
                ok = False
            checked += 1
    assert report(
        7, ok,
        f"pi/3 -> {list(expansion.quotients)} -> {ratio} -> pi={pi_value:.7f}; "
        f"round-trip verified on {checked} reduced p/q <= 1000",
    )


def test_c08_reciprocal_study_at_1e8():
    cfg = ReciprocalStudyConfig(samples_per_point=100_000_000)
    points = reciprocal_peak_curve(cfg, rng_new(5), workers=4)
    peaks = [p.peak_location for p in points]
    means = [p.central_mean for p in points]
    ok_peaks = all(b <= a + cfg.bin_width for a, b in zip(peaks, peaks[1:]))
    ok_means = all(b >= a - 1e-4 for a, b in zip(means, means[1:]))
    ok = ok_peaks and ok_means
    assert report(
        8, ok,
        f"peaks {['%.3f' % p for p in peaks]} non-increasing, "
        f"central means {['%.4f' % m for m in means]} non-decreasing, 1e8 samples/point",
    )


def test_c09_budget_effect_exceeds_radius_effect():
    cells = radius_budget_grid(SweepSpec(campaigns_per_cell=200), TrialConfig(), 88, workers=4)
    radii = sorted({c.radius for c in cells})
    budgets = sorted({c.budget for c in cells})
    value = {(c.radius, c.budget): c.success_fraction for c in cells}
    budget_effect = max(
        max(value[(r, b)] for b in budgets) - min(value[(r, b)] for b in budgets)
        for r in radii
    )
    radius_effect = max(
        max(value[(r, b)] for r in radii) - min(value[(r, b)] for r in radii)
        for b in budgets
    )
    ok = budget_effect > radius_effect
    assert report(
        9, ok,
        f"budget effect {budget_effect:.3f} > radius effect {radius_effect:.3f} "
        f"over {len(radii)}x{len(budgets)} grid, 200 campaigns/cell",
    )


def _collect(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def test_c10_cli_reproducibility(tmp_path, capsys):
    file_commands = [
        ("cf", ["cf", "--value", "pi/3", "--terms", "3"]),
        ("campaign", ["campaign", "--seed", "4", "--max-measurements", "300",
                      "--formats", "csv,json,svg"]),
        ("success", ["success", "--campaigns", "5", "--seed", "4",
                     "--max-measurements", "250"]),
        ("budget", ["budget", "--budget", "15", "--campaigns", "6", "--seed", "4"]),
        ("ablate", ["ablate", "--mode", "random-only", "--trials", "300", "--seed", "4"]),
        ("sweep", ["sweep-radius", "--radii", "300,450", "--trials-per-radius", "100",
                   "--seed", "4"]),
        ("grid", ["grid", "--radii", "300,450", "--budgets", "5,10",
                  "--campaigns-per-cell", "3", "--seed", "4"]),
        ("recip", ["recip", "--samples", "10000", "--stdevs", "0,0.1", "--seed", "4"]),
    ]
    ok = True
    for name, argv in file_commands:
        runs = []
        for attempt in ("one", "two"):
            out_dir = tmp_path / f"{name}_{attempt}"
            assert main(argv + ["--out", str(out_dir)]) == 0
            runs.append(_collect(out_dir))
        if runs[0] != runs[1] or not runs[0]:
            ok = False
    capsys.readouterr()

    for name, argv in [("success", file_commands[2][1]), ("grid", file_commands[6][1])]:
        by_threads = {}
        for threads in (1, 4):
            out_dir = tmp_path / f"{name}_threads{threads}"
            assert main(argv + ["--out", str(out_dir), "--threads", str(threads)]) == 0
            by_threads[threads] = _collect(out_dir)
        if by_threads[1] != by_threads[4]:
            ok = False
    capsys.readouterr()

    stdouts = []
    for _ in range(2):
        assert main(["trial", "--seed", "4"]) == 0
        stdouts.append(capsys.readouterr().out)
    if stdouts[0] != stdouts[1] or not json.loads(stdouts[0]):
        ok = False

    assert report(
        10, ok,
        "all report files byte-identical across reruns and thread counts {1, 4}; "
        "trial stdout stable",
    )


def test_c11_rounding_rule_regression():
    nearest = ablation_distribution(TrialConfig(), AblationMode.FIXED_ONLY, 10_000, 31)
    literal = ablation_distribution(
        TrialConfig(literal_rounding=True), AblationMode.FIXED_ONLY, 10_000, 31
    )
    ok = nearest == {7: 1.0} and literal == {8: 1.0}
    assert report(
        11, ok,
        f"nearest-integer rule -> {nearest}, as-written branch -> {literal}",
    )
