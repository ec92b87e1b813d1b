import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sixradii import cli
from sixradii.cli import main
from sixradii.errors import ErrorModel
from sixradii.measurement import TrialConfig, trial_blocks
from sixradii.stochastics import rng_new

COMMON = ["--formats", "csv,json"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_all_outputs(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def test_trial_reports_json(capsys):
    code, out, _ = run(capsys, "trial", "--seed", "1", "--radius", "450")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "first_quotient",
        "second_quotient",
        "c_minus_six_r",
        "remainder_piece",
        "discarded",
    }


def test_trial_zero_errors(capsys):
    code, out, _ = run(capsys, "trial", "--seed", "1", "--zero-errors")
    payload = json.loads(out)
    assert code == 0
    assert payload["first_quotient"] == 21
    assert payload["second_quotient"] == 5


@pytest.mark.parametrize("seed, radius, zero_errors",
                         [(1, 450.0, False), (7, 450.0, False), (123, 200.0, False),
                          (5, 450.0, True)])
def test_trial_is_the_first_trial_of_a_campaign(seed, radius, zero_errors, capsys):
    flags = ["--zero-errors"] if zero_errors else []
    code, out, _ = run(capsys, "trial", "--seed", str(seed), "--radius", repr(radius), *flags)
    assert code == 0
    model = ErrorModel(fixed_errors_enabled=not zero_errors,
                       random_errors_enabled=not zero_errors)
    block = next(trial_blocks(rng_new(seed), TrialConfig(radius=radius, error_model=model)))
    assert json.loads(out) == {
        "first_quotient": int(block.first[0]),
        "second_quotient": int(block.second[0]),
        "c_minus_six_r": float(block.piece[0]),
        "remainder_piece": float(block.remainder[0]),
        "discarded": bool(block.first[0] != 21),
    }


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_success_without_a_decision_writes_null_not_nan(tmp_path, capsys):
    # 3 measurements never satisfy the rule, so no campaign stops
    code, out, _ = run(capsys, "success", "--campaigns", "2", "--max-measurements", "3",
                       "--seed", "1", "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert "mean_measurements=nan " in out
    assert _strict_json(tmp_path / "success.json")["results"]["mean_measurements"] is None
    assert (tmp_path / "success.csv").read_text().splitlines()[1].split(",")[1] == ""


def test_recip_without_a_sample_in_the_window_writes_null_not_nan(tmp_path, capsys):
    # r0 = 0 gives one bin, here far too narrow to catch a sample
    code, _, _ = run(capsys, "recip", "--num-mean", "0", "--bin-width", "1e-300",
                     "--samples", "10000", "--stdevs", "0.1", "--seed", "1",
                     "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert _strict_json(tmp_path / "recip.json")["results"]["points"] == [[0.1, 0.0, None]]
    assert (tmp_path / "recip.csv").read_text().splitlines()[1] == "0.1,0.0,"


# cf and recip do not use the trial model, but a config it rejects still fails
@pytest.mark.parametrize("argv", [["trial"], ["cf", "--value", "pi/3"], ["recip"]],
                         ids=lambda argv: argv[0])
def test_trial_bad_radius_names_key(argv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--seed", "1", "--radius", "-5", "--out", str(out_dir))
    assert code == 2
    assert "radius" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key, value", [
    ("radius", "nan"),
    ("radius", "inf"),
    ("cut_match_stdev", "nan"),
    ("wire_diameter", "nan"),
    ("juxtaposition_span", "nan"),
    ("juxtaposition_span", "inf"),
    ("peak_dominance", "nan"),
], ids=lambda value: value)
def test_config_key_not_finite_exits_two_naming_it(key, value, tmp_path, capsys):
    out_dir = tmp_path / "out"
    command = "campaign" if key == "peak_dominance" else "trial"
    code, out, err = run(capsys, command, "--seed", "3", "--" + key.replace("_", "-"), value,
                         "--out", str(out_dir))
    assert code == 2
    assert err.startswith(f"error: {key} must be finite")
    assert out == ""
    assert not out_dir.exists()


def test_first_iteration_that_never_passes_the_mark_exits_two(tmp_path, capsys):
    # a juxtaposition loss of 200 on average outweighs the 127 piece, so the
    # first iteration can never reach 6R and the runaway guard fires
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "trial", "--juxtaposition-span", "400", "--out", str(out_dir))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_dir.exists()


def test_internal_failure_exits_one(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "fixed_budget_success", broken)
    code, out, err = run(capsys, "budget", "--budget", "5", "--out", str(tmp_path), *COMMON)
    assert code == 1
    assert err == "internal error: boom\n"
    assert out == ""


def test_value_error_from_the_kernel_exits_one(monkeypatch, tmp_path, capsys):
    # a ValueError raised by the program is a bug, not a config error
    from sixradii import measurement

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(measurement, "trial_block", broken)
    code, out, err = run(capsys, "campaign", "--out", str(tmp_path), *COMMON)
    assert code == 1
    assert err.startswith("internal error: ")
    assert out == ""


def test_campaign_whose_first_iteration_never_passes_the_mark_exits_two(
        tmp_path, capsys, deadline):
    out_dir = tmp_path / "out"
    with deadline(20):
        code, out, err = run(capsys, "campaign", "--juxtaposition-span", "400",
                             "--out", str(out_dir))
    assert code == 2
    assert err.startswith("error: accumulation used more than 1000000 pieces")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, flag", [
    (["campaign", "--max-measurements", "0"], "--max-measurements"),
    (["success", "--campaigns", "0"], "--campaigns"),
    (["budget", "--budget", "0"], "--budget"),
    (["ablate", "--trials", "-1"], "--trials"),
    (["sweep-radius", "--radii", "0,450"], "--radii"),
    pytest.param(["sweep-radius", "--radii", "450,nan"], "--radii", id="sweep-radius-nan"),
    pytest.param(["sweep-radius", "--radii", "inf"], "--radii", id="sweep-radius-inf"),
    (["sweep-radius", "--trials-per-radius", "0"], "--trials-per-radius"),
    (["grid", "--budgets", "0,5"], "--budgets"),
    (["grid", "--campaigns-per-cell", "0"], "--campaigns-per-cell"),
    (["grid", "--radii", "nan"], "--radii"),
    (["cf", "--value", "nan"], "--value"),
    (["cf", "--value", "pi", "--tolerance", "nan"], "--tolerance"),
    (["recip", "--samples", "10"], "--samples"),
    (["recip", "--stdevs", "-0.1"], "--stdevs"),
    (["recip", "--den-mean", "nan"], "--den-mean"),
    (["recip", "--bin-width", "inf"], "--bin-width"),
    (["recip", "--num-stdev", "inf"], "--num-stdev"),
    pytest.param(["recip", "--stdevs", "0,inf"], "--stdevs", id="recip-stdevs-inf"),
    (["recip", "--num-mean", "1e308", "--den-mean", "1e-300"], "--num-mean"),
    pytest.param(["recip", "--num-mean", "1000", "--bin-width", "1e-6"], "--bin-width",
                 id="recip-too-many-bins"),
    pytest.param(["recip", "--bin-width", "1e-320"], "--bin-width", id="recip-bins-overflow"),
    (["recip", "--threads", "-3"], "--threads"),
    (["success", "--threads", "0"], "--threads"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_argument_errors_exit_two_naming_the_flag(argv, flag, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert err.startswith(f"error: invalid value for {flag}: ")
    assert out == ""
    assert not out_dir.exists()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["trial", "--no-such-flag", "1"])
    assert excinfo.value.code == 2


def test_unknown_ablation_mode_exits_two(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["ablate", "--mode", "bogus", "--out", str(out_dir)])
    assert excinfo.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not out_dir.exists()


def test_importing_the_cli_loads_no_process_machinery():
    # the pool is imported when a batch first fans out, not at start-up
    probe = ("import sys, sixradii.cli; "
             "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "[]\n"


def test_a_stream_is_its_address_until_it_draws():
    # deriving builds no generator, and an undrawn stream pickles as its address
    probe = ("import pickle, sys; from sixradii.stochastics import derive_child, rng_new; "
             "rng = derive_child(derive_child(rng_new(5), 2), 0); "
             "print('numpy.random' in sys.modules); "
             "rng = pickle.loads(pickle.dumps(rng)); "
             "from numpy.random import PCG64, Generator, SeedSequence; "
             "ref = Generator(PCG64(SeedSequence(5, spawn_key=(2, 0)))); "
             "print(rng.generator.standard_normal(8).tolist() == "
             "ref.standard_normal(8).tolist())")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "False\nTrue\n"


def test_unknown_config_key_exits_two(tmp_path, capsys):
    # a measured but unmodelled quantity is not a key either, nor is a stdev
    # pinned at one radius (errors.py says why the fitted line needs none)
    for key in ("not_a_key", "cut_shortening_short_side", "circumference_stdev_override"):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 3\n")
        code, _, err = run(capsys, "trial", "--config", str(config))
        assert code == 2
        assert key in err


def test_flag_overrides_config_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("radius = 350\n")
    code, out, _ = run(
        capsys, "trial", "--config", str(config), "--radius", "200",
        "--zero-errors", "--seed", "1",
    )
    assert code == 0
    piece = json.loads(out)["c_minus_six_r"]
    assert piece == pytest.approx(2 * math.pi * 200 - 1200, rel=1e-12)


def test_campaign_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    code, out, _ = run(
        capsys, "campaign", "--seed", "9", "--out", str(out_dir),
        "--max-measurements", "400", "--formats", "csv,json,svg",
    )
    assert code == 0
    assert (out_dir / "campaign.csv").exists()
    assert (out_dir / "campaign.json").exists()
    assert (out_dir / "campaign.svg").exists()
    assert out.startswith("selected=")
    payload = json.loads((out_dir / "campaign.json").read_text())
    assert payload["command"] == "campaign"
    assert payload["results"]["measurements"] >= 1
    assert "config_digest" in payload


def test_campaign_csv_has_window_and_overflow_rows(tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    run(capsys, "campaign", "--seed", "9", "--out", str(out_dir),
        "--max-measurements", "200", *COMMON)
    lines = (out_dir / "campaign.csv").read_text().splitlines()
    assert lines[0] == "bin,count"
    assert len(lines) == 1 + 16 + 2
    assert lines[-2].startswith("underflow,")
    assert lines[-1].startswith("overflow,")


def test_success_summary_and_files(tmp_path, capsys):
    out_dir = tmp_path / "success"
    code, out, _ = run(
        capsys, "success", "--campaigns", "6", "--seed", "9",
        "--max-measurements", "300", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    assert out.startswith("success=")
    header = (out_dir / "success.csv").read_text().splitlines()[0]
    assert header == "success_fraction,mean_measurements,no_decision_fraction,ci_half_width,n_campaigns"
    campaigns = (out_dir / "success_campaigns.csv").read_text().splitlines()
    assert campaigns[0] == "campaign,selected,measurements,discarded"
    assert len(campaigns) == 7


def test_budget_command(tmp_path, capsys):
    out_dir = tmp_path / "budget"
    code, out, _ = run(
        capsys, "budget", "--budget", "10", "--campaigns", "8",
        "--seed", "3", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    assert out.startswith("budget=10 success=")
    assert (out_dir / "budget.csv").read_text().splitlines()[0] == (
        "budget,success_fraction,ci_half_width,n_campaigns"
    )


def test_ablate_fixed_only(tmp_path, capsys):
    out_dir = tmp_path / "ablate"
    code, out, _ = run(
        capsys, "ablate", "--mode", "fixed-only", "--trials", "50",
        "--seed", "1", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    assert "distribution={7: 1.000}" in out
    assert (out_dir / "ablate.csv").read_text() == "second_quotient,fraction\n7,1.0\n"


def test_sweep_radius_command(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out, _ = run(
        capsys, "sweep-radius", "--radii", "300,450", "--trials-per-radius", "150",
        "--seed", "2", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    lines = (out_dir / "sweep_radius.csv").read_text().splitlines()
    assert lines[0] == "radius,fraction_first_21"
    assert len(lines) == 3


def test_grid_command_and_cost_cap(tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code, out, _ = run(
        capsys, "grid", "--radii", "300,450", "--budgets", "5,10",
        "--campaigns-per-cell", "4", "--seed", "2", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    lines = (out_dir / "grid.csv").read_text().splitlines()
    assert lines[0] == "radius,budget,success_fraction"
    assert len(lines) == 5

    code, _, err = run(
        capsys, "grid", "--radii", "300,450", "--budgets", "5,10",
        "--campaigns-per-cell", "4", "--cost-cap", "10", "--out", str(out_dir),
    )
    assert code == 3
    assert "cost cap" in err


def test_cf_command(tmp_path, capsys):
    out_dir = tmp_path / "cf"
    code, out, _ = run(
        capsys, "cf", "--value", "pi/3", "--terms", "3", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    assert out.strip() == "quotients=[1,21,5] convergent=111/106 pi=3.1415094"
    payload = json.loads((out_dir / "cf.json").read_text())
    assert payload["results"]["quotients"] == [1, 21, 5]


def test_cf_rational_value(capsys, tmp_path):
    code, out, _ = run(
        capsys, "cf", "--value", "355/113", "--terms", "6", "--out", str(tmp_path), *COMMON,
    )
    assert code == 0
    assert "convergent=355/113" in out


def test_cf_small_float_value(capsys, tmp_path):
    code, out, _ = run(
        capsys, "cf", "--value", "0.00000001", "--out", str(tmp_path), *COMMON,
    )
    assert code == 0
    assert out.startswith("quotients=[0,100000000] convergent=1/100000000 ")


def test_cf_decimal_text_is_exact(capsys, tmp_path):
    # typed decimals expand as the rational they spell, not as the nearest double
    code, _, _ = run(capsys, "cf", "--value", "2.75", "--out", str(tmp_path), *COMMON)
    assert code == 0
    results = json.loads((tmp_path / "cf.json").read_text())["results"]
    assert results["quotients"] == [2, 1, 3]
    assert results["exact"] is True


def test_cf_subnormal_value(capsys, tmp_path):
    code, out, _ = run(capsys, "cf", "--value", "1e-320", "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert f"convergent=1/{10**320} " in out
    assert json.loads((tmp_path / "cf.json").read_text())["results"]["pi_estimate"] == 3e-320


def test_cf_spaced_ratio(capsys, tmp_path):
    code, out, _ = run(capsys, "cf", "--value", "111 / 106", "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert "convergent=111/106 " in out


# 1.7e308 is a double, but 3 x 1.7e308 is not: its pi estimate would be inf
@pytest.mark.parametrize("value", ["x/y", "1/0", "nan", "inf", "1e400", "1.7e308"])
def test_cf_bad_value(value, capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "cf", "--value", value, "--out", str(out_dir))
    assert code == 2
    assert err.startswith("error: invalid value for --value: ")
    assert not out_dir.exists()


# a value below 1 cut after its leading quotient 0 has the convergent 0
@pytest.mark.parametrize("extra, flag", [
    (["--terms", "1"], "--terms"),
    (["--tolerance", "0.9"], "--tolerance"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_cf_cut_at_leading_zero_exits_two(extra, flag, capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "cf", "--value", "0.5", *extra, "--out", str(out_dir))
    assert code == 2
    assert err.startswith(f"error: invalid value for {flag}: ")
    assert out == ""
    assert not out_dir.exists()


def test_recip_command(tmp_path, capsys):
    out_dir = tmp_path / "recip"
    code, out, _ = run(
        capsys, "recip", "--samples", "10000", "--stdevs", "0,0.1",
        "--seed", "5", "--out", str(out_dir), *COMMON,
    )
    assert code == 0
    lines = (out_dir / "recip.csv").read_text().splitlines()
    assert lines[0] == "denominator_stdev,peak_location,central_mean"
    assert len(lines) == 3


def test_env_var_sets_default_out_dir(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("SIXRADII_OUT", str(env_dir))
    code, _, _ = run(capsys, "budget", "--budget", "5", "--campaigns", "4", "--seed", "1", *COMMON)
    assert code == 0
    assert (env_dir / "budget.csv").exists()


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for out_dir in dirs:
        code, _, _ = run(
            capsys, "success", "--campaigns", "5", "--seed", "11",
            "--max-measurements", "250", "--out", str(out_dir), *COMMON,
        )
        assert code == 0
    assert read_all_outputs(dirs[0]) == read_all_outputs(dirs[1])


def test_output_independent_of_thread_count(tmp_path, capsys):
    outputs = {}
    for threads in (1, 4):
        out_dir = tmp_path / f"threads{threads}"
        code, _, _ = run(
            capsys, "success", "--campaigns", "6", "--seed", "11",
            "--max-measurements", "250", "--threads", str(threads),
            "--out", str(out_dir), *COMMON,
        )
        assert code == 0
        outputs[threads] = read_all_outputs(out_dir)
    assert outputs[1] == outputs[4]
