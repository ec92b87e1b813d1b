import json
import math

import pytest

from sixradii.cli import main

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


def test_trial_bad_radius_names_key(capsys):
    code, _, err = run(capsys, "trial", "--seed", "1", "--radius", "-5")
    assert code == 2
    assert "radius" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["trial", "--no-such-flag", "1"])
    assert excinfo.value.code == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    # a measured but unmodelled quantity (see errors.py) is not a key either
    for key in ("not_a_key", "cut_shortening_short_side"):
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


def test_cf_bad_value(capsys, tmp_path):
    code, _, err = run(capsys, "cf", "--value", "x/y", "--out", str(tmp_path))
    assert code == 2
    assert "--value" in err


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
