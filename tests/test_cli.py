import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sixradii import cli
from sixradii.cli import main
from sixradii.config import ErrorModel, RunConfig, TrialConfig, serialize
from sixradii.measurement import trial_blocks
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
    code, out, _ = run(capsys, "recip", "--num-mean", "0", "--bin-width", "1e-300",
                       "--samples", "10000", "--stdevs", "0.1", "--seed", "1",
                       "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert out == "points=1 first_peak=nan last_peak=nan\n"
    assert _strict_json(tmp_path / "recip.json")["results"]["points"] == [[0.1, None, None]]
    assert (tmp_path / "recip.csv").read_text().splitlines()[1] == "0.1,,"
    # a numerator spread far past the +-5 r0 window: no peak at the window's edge
    code, out, _ = run(capsys, "recip", "--num-stdev", "1e9", "--samples", "10000",
                       "--stdevs", "0,0.1", "--seed", "1", "--out", str(tmp_path), *COMMON)
    assert code == 0
    assert out == "points=2 first_peak=nan last_peak=nan\n"
    assert (tmp_path / "recip.csv").read_text().splitlines()[1:] == ["0.0,,", "0.1,,"]


@pytest.mark.parametrize("spread", [["--stdevs", "1e308"],
                                    ["--num-stdev", "1e308", "--stdevs", "0.1"]],
                         ids=["denominator", "numerator"])
def test_recip_near_the_float_limit_warns_of_nothing(spread, tmp_path):
    # overflowing draws and ratios are kept in the sample, outside the window
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "sixradii.cli", "recip", "--samples", "10000",
                             *spread, "--out", str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (0, "")


# cf and recip do not read radius and take no --radius, but a config file may
# still set it, and a value the trial model rejects still fails
@pytest.mark.parametrize("argv", [["trial"], ["cf", "--value", "pi/3"], ["recip"]],
                         ids=lambda argv: argv[0])
def test_trial_bad_radius_names_key(argv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("radius = -5\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--config", str(config), "--out", str(out_dir))
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
    pytest.param(["sweep-radius", "--radii", ","], "--radii", id="sweep-radius-empty"),
    pytest.param(["grid", "--budgets", ",,"], "--budgets", id="grid-budgets-empty"),
    pytest.param(["recip", "--stdevs", ","], "--stdevs", id="recip-stdevs-empty"),
    (["success", "--threads", "0"], "--threads"),
    pytest.param(["success", "--campaigns", "abc"], "--campaigns", id="success-not-a-number"),
    pytest.param(["grid", "--cost-cap", "x"], "--cost-cap", id="grid-not-a-number"),
    pytest.param(["recip", "--samples", "many"], "--samples", id="recip-not-a-number"),
    pytest.param(["budget", "--budget", "1", "--threads", "two"], "--threads",
                 id="threads-not-a-number"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_argument_errors_exit_two_naming_the_flag(argv, flag, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    assert err.startswith(f"error: invalid value for {flag}: ")
    assert out == ""
    assert not out_dir.exists()


# each file-writing command with every argument at its default, but for one
# size kept tiny: its parameters are the defaults, written out
_DEFAULT_PARAMETERS = [
    (["campaign"], {"max_measurements": 10000}),
    (["success", "--campaigns", "1"], {"campaigns": 1, "max_measurements": 10000}),
    (["budget", "--budget", "1"], {"budget": 1, "campaigns": 1000}),
    (["ablate", "--trials", "10"], {"mode": "all", "trials": 10}),
    (["sweep-radius", "--trials-per-radius", "1"],
     {"radii": [100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0],
      "trials_per_radius": 1}),
    (["grid", "--campaigns-per-cell", "1"],
     {"radii": [200.0, 300.0, 450.0, 600.0, 900.0], "budgets": [25, 50, 100, 200, 325, 500],
      "campaigns_per_cell": 1, "cost_cap": 100000}),
    (["cf", "--value", "pi/3"], {"value": "pi/3", "terms": 3, "tolerance": 0.0}),
    (["recip", "--samples", "10000"],
     {"numerator_mean": 5.0, "numerator_stdev": 0.2, "denominator_mean": 1.0,
      "denominator_stdevs": [0.0, 0.05, 0.1, 0.15, 0.2], "samples_per_point": 10000,
      "bin_width": 0.02}),
]


@pytest.mark.parametrize("argv, parameters", _DEFAULT_PARAMETERS,
                         ids=[argv[0] for argv, _ in _DEFAULT_PARAMETERS])
def test_command_defaults_reach_the_report_parameters(argv, parameters, tmp_path, capsys):
    code, _, _ = run(capsys, *argv, "--formats", "json", "--out", str(tmp_path))
    assert code == 0
    (report,) = tmp_path.glob("*.json")
    assert json.loads(report.read_text())["parameters"] == parameters


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["trial", "--no-such-flag", "1"])
    assert excinfo.value.code == 2


# one spelling per flag: an abbreviation is refused, so that an unambiguous
# prefix cannot quietly mean another flag once a command loses one
@pytest.mark.parametrize("argv", [
    ["budget", "--bud", "5", "--camp", "2", "--form", "csv"],
    ["budget", "--budget", "5", "--camp", "2"],
    ["grid", "--rad", "300"],
], ids=["budget", "budget-campaigns", "grid"])
def test_abbreviated_flag_exits_two(argv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out", str(out_dir)])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


# Each result key moved far enough off its default to move the results of
# every command that reads it, at the sizes below.
_MOVED = {
    "radius": "300", "seed": "1", "literal_rounding": "true", "wire_diameter": "10",
    "bend_elongation_per_mm": "1", "cut_elongation": "0.5", "cut_match_stdev": "1",
    "juxtaposition_span": "1", "circumference_stdev_base": "1",
    "circumference_stdev_slope": "0.003", "fixed_errors_enabled": "false",
    "random_errors_enabled": "false", "min_peak_count": "100", "peak_dominance": "3",
    "min_consecutive_bins": "8", "bin_threshold_fraction": "0.5",
}
_TINY = {
    "campaign": ["--max-measurements", "400"],
    "success": ["--campaigns", "4", "--max-measurements", "400"],
    "budget": ["--budget", "20", "--campaigns", "100"],
    "ablate": ["--trials", "2000"],
    "sweep-radius": ["--radii", "100,450", "--trials-per-radius", "2000"],
    "grid": ["--radii", "300,450", "--budgets", "20", "--campaigns-per-cell", "50"],
    "cf": ["--value", "111/106"],
    "recip": ["--samples", "10000", "--stdevs", "0,0.1"],
}


@pytest.mark.parametrize("command", sorted(_TINY))
def test_a_key_is_read_and_hashed_or_refused_and_ignored(command, tmp_path, capsys):
    # no config key is accepted, hashed into the provenance and then ignored
    def report(*extra):
        out_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        threads = ["--threads", "1"] if cli._COMMANDS[command].batch else []
        code, _, _ = run(capsys, command, *_TINY[command], *extra, *threads,
                         "--formats", "json", "--out", str(out_dir))
        assert code == 0
        return (out_dir / f"{command.replace('-', '_')}.json").read_text()

    base = report()
    for key, value in _MOVED.items():
        flag = "--" + key.replace("_", "-")
        if key in cli._COMMANDS[command].reads:
            moved, before = json.loads(report(flag, value)), json.loads(base)
            assert moved["results"] != before["results"], key
            changed = set(moved["config"].splitlines()) - set(before["config"].splitlines())
            assert [line.split(" = ")[0] for line in changed] == [key]
        else:
            with pytest.raises(SystemExit) as excinfo:
                main([command, *_TINY[command], flag, value])
            assert excinfo.value.code == 2, key
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            assert report("--config", str(config)) == base, key


def test_readme_lists_the_keys_each_command_reads():
    # the README's groups: the trial keys run from radius to random_errors_enabled
    # in the key list, less seed, and the stopping keys are the four after them
    keys = [line.split(" = ")[0] for line in serialize(RunConfig()).splitlines()]
    end = keys.index("random_errors_enabled") + 1
    groups = {"the trial keys": set(keys[:end]) - {"seed"},
              "the stopping keys": set(keys[end:end + 4])}
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | config keys it reads | count |\n", 1)[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[1:]:
        commands, reads, count = (cell.strip() for cell in row.strip("|").split("|"))
        kept, _, less = re.sub(r"\(.*?\)", "", reads).partition(" less ")
        named = set(re.findall(r"`(\w+)`", kept)).union(
            *(group for phrase, group in groups.items() if phrase in kept))
        for command in re.findall(r"`([\w-]+)`", commands):
            listed[command] = (named - set(re.findall(r"`(\w+)`", less)), int(count))
    assert listed == {name: (set(command.reads), len(command.reads))
                      for name, command in cli._COMMANDS.items()}


def test_threads_is_offered_only_where_a_batch_runs(tmp_path, capsys):
    batch = {name for name, command in cli._COMMANDS.items() if command.batch}
    assert batch == {"success", "budget", "sweep-radius", "grid", "recip"}
    for command in ("trial", "campaign", "ablate", "cf"):
        out_dir = tmp_path / command
        with pytest.raises(SystemExit) as excinfo:
            main([command, *_TINY.get(command, []), "--threads", "2", "--out", str(out_dir)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out_dir.exists()


def test_unknown_ablation_mode_exits_two(tmp_path, capsys):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["ablate", "--mode", "bogus", "--out", str(out_dir)])
    assert excinfo.value.code == 2
    assert "--mode" in capsys.readouterr().err
    assert not out_dir.exists()


def test_importing_the_cli_loads_no_process_machinery():
    # batches fork their workers directly: no command loads a process pool
    probe = ("import sys, sixradii.cli; "
             "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "[]\n"


def test_a_forked_command_prints_its_lines_once(tmp_path):
    # the workers end in os._exit: none flushes the stdout buffer it inherited
    # ("start" is still in it at the fork) or returns into the command
    probe = ("import sys; from sixradii import cli; print('start'); "
             "print('end', cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe, "success", *_TINY["success"],
                             "--threads", "2", "--formats", "csv", "--out", str(tmp_path)],
                            capture_output=True, text=True, env=env, check=True)
    start, line, end = result.stdout.splitlines()
    assert (start, line.split("=")[0], end) == ("start", "success", "end 0")
    assert result.stderr == ""


@pytest.mark.parametrize("command", ["success", "budget", "sweep-radius", "grid"])
def test_a_degenerate_config_exits_two_at_any_thread_count(command, tmp_path, capsys):
    # a worker's DegenerateConfigError reaches main with its type and message
    seen = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        seen.append(run(capsys, command, *_TINY[command], "--circumference-stdev-base", "1e6",
                        "--threads", threads, "--out", str(out_dir)))
        assert not out_dir.exists()
    code, out, err = seen[0]
    assert seen[1] == seen[0]
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: circumference piece \S+ outside \(0, 6R\); "
                        r"check error magnitudes\n", err)


# Runs main on its argv in a fresh interpreter, then prints the exit code and
# the numpy modules loaded as its last line of stdout.
_NUMPY_PROBE = """
import sys
from sixradii import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")])
"""


@pytest.mark.parametrize("argv, code, named", [
    (["cf", "--value", "111/106", "--terms", "3", "--formats", "csv,json,svg"], 0, None),
    (["--help"], 0, None),
    (["success", "--radius", "-1"], 2, "radius"),
    (["success", "--campaigns", "0"], 2, "--campaigns"),
    (["recip", "--bin-width", "0"], 2, "--bin-width"),
    (["trial", "--no-such-flag", "1"], 2, "--no-such-flag"),
], ids=["cf", "help", "config-error", "argument-error", "recip-error", "unknown-flag"])
def test_cf_help_and_input_errors_load_no_numpy(argv, code, named, tmp_path):
    # the kernels import numpy on their first call, so a command that runs
    # none of them starts without it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv, "--out", str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert result.stdout.splitlines()[-1] == f"{code} []"
    if named is not None:
        assert named in result.stderr
    if argv[0] == "cf":
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cf.csv", "cf.json"]


def test_importing_the_cli_loads_every_module_and_no_numpy():
    # bench/tracer.py install() imports sixradii.cli and then reads these
    # modules from sys.modules by name
    probe = ("import sys, sixradii.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('sixradii.')), "
             "'numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    modules = ["cli", "config", "contfrac", "experiments", "histogram", "measurement",
               "reports", "stochastics", "svgplot"]
    assert result.stdout == f"{[f'sixradii.{m}' for m in modules]} False\n"


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
    # pinned at one radius (the ErrorModel docstring says why the fitted line needs none)
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
