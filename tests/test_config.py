import hashlib
from pathlib import Path

import pytest

from sixradii.config import (
    SCHEMA,
    ConfigError,
    ErrorModel,
    RunConfig,
    StoppingCriteria,
    TrialConfig,
    digest,
    parse_config_text,
    parse_value,
    resolve,
    serialize,
)


def test_defaults_build_default_domain_objects():
    cfg = resolve()
    assert cfg.trial.error_model == ErrorModel()
    assert cfg.trial == TrialConfig()
    assert cfg.stopping == StoppingCriteria()


def test_serialize_parse_roundtrip():
    cfg = RunConfig()
    parsed = parse_config_text(serialize(cfg))
    assert resolve(parsed) == cfg


def test_roundtrip_with_modified_values():
    cfg = resolve({
        "radius": 222.5,
        "seed": 99,
        "fixed_errors_enabled": False,
        "formats": ("csv", "svg"),
    })
    assert resolve(parse_config_text(serialize(cfg))) == cfg


def test_digest_is_stable_and_sensitive():
    assert digest(RunConfig()) == digest(RunConfig())
    assert digest(RunConfig()) != digest(resolve({"radius": 451.0}))


def test_serialize_writes_the_given_keys_in_schema_order():
    cfg = resolve({"seed": 4})
    assert serialize(cfg, ("seed", "radius")) == "radius = 450.0\nseed = 4\n"
    assert serialize(cfg, ()) == ""
    assert digest(cfg, ()) == hashlib.sha256(b"").hexdigest()


def test_a_float_key_set_from_an_int_is_written_as_a_float():
    cfg = resolve({"radius": 450})
    assert "radius = 450.0\n" in serialize(cfg)
    assert digest(cfg) == digest(resolve({"radius": 450.0}))


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="wire_diamter"):
        parse_config_text("wire_diamter = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("radius = 450\nradius = 300\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="radius"):
        parse_config_text("radius = abc\n")
    # a library caller's value of the wrong type is a config error too
    with pytest.raises(ConfigError, match="radius"):
        resolve({"radius": "abc"})
    # bool is an int subclass, but only a bool key takes one
    for key in ("radius", "seed"):
        with pytest.raises(ConfigError, match=key):
            resolve({key: True})
    assert resolve({"out_dir": Path("reports")}).out_dir == Path("reports")


def test_comments_and_blank_lines_ignored():
    values = parse_config_text("# comment\n\nradius = 300  # trailing\n")
    assert values == {"radius": 300.0}


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("radius 300\n")


def test_bool_and_formats_parsing():
    field = {f.name: f for f in SCHEMA}
    assert parse_value(field["fixed_errors_enabled"], "true") is True
    assert parse_value(field["fixed_errors_enabled"], "0") is False
    assert parse_value(field["formats"], "csv,svg") == ("csv", "svg")
    with pytest.raises(ConfigError, match="formats"):
        parse_value(field["formats"], "csv,pdf")
    with pytest.raises(ConfigError, match="fixed_errors_enabled"):
        parse_value(field["fixed_errors_enabled"], "maybe")


_SAMPLE_VALUES = {
    float: (1.25, 2.5),
    int: (7, 9),
    bool: (True, False),
    str: ("dir_a", "dir_b"),
    tuple: (("csv",), ("csv", "json", "svg")),
}


@pytest.mark.parametrize("field", SCHEMA, ids=lambda f: f.name)
def test_precedence_flag_beats_file_beats_default(field):
    # a fraction must lie in (0, 1), which the generic float samples do not
    samples = ((0.25, 0.5) if field.name == "bin_threshold_fraction"
               else _SAMPLE_VALUES[type(field.default)])
    file_value, flag_value = samples
    assert field.read(resolve()) == field.default
    from_file = resolve({field.name: file_value})
    assert field.read(from_file) == file_value
    from_flag = resolve({field.name: file_value}, {field.name: flag_value})
    assert field.read(from_flag) == flag_value


def test_env_out_dir_is_weakest_override():
    assert resolve(env_out_dir="envdir").out_dir == "envdir"
    assert resolve({"out_dir": "filedir"}, env_out_dir="envdir").out_dir == "filedir"
    assert resolve({"out_dir": "filedir"}, {"out_dir": "flagdir"}, "envdir").out_dir == "flagdir"


def test_resolve_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        resolve({"mystery": 1.0})


_EVERY_KEY_SET = {
    "radius": 222.5,
    "seed": 99,
    "literal_rounding": True,
    "wire_diameter": 0.6,
    "bend_elongation_per_mm": 0.05,
    "cut_elongation": 0.1,
    "cut_match_stdev": 0.08,
    "juxtaposition_span": 0.2,
    "circumference_stdev_base": 0.04,
    "circumference_stdev_slope": 1.5e-05,
    "fixed_errors_enabled": False,
    "random_errors_enabled": False,
    "min_peak_count": 7,
    "peak_dominance": 1.1,
    "min_consecutive_bins": 4,
    "bin_threshold_fraction": 0.25,
    "out_dir": "reports",
    "formats": ("csv", "json", "svg"),
}


@pytest.mark.parametrize("values, text, sha", [
    ({}, (
        "radius = 450.0\n"
        "seed = 0\n"
        "literal_rounding = false\n"
        "wire_diameter = 0.5\n"
        "bend_elongation_per_mm = 0.057\n"
        "cut_elongation = 0.095\n"
        "cut_match_stdev = 0.09\n"
        "juxtaposition_span = 0.18\n"
        "circumference_stdev_base = 0.05\n"
        "circumference_stdev_slope = 0.000868\n"
        "fixed_errors_enabled = true\n"
        "random_errors_enabled = true\n"
        "min_peak_count = 5\n"
        "peak_dominance = 1.05\n"
        "min_consecutive_bins = 5\n"
        "bin_threshold_fraction = 0.2\n"
        "out_dir = out\n"
        "formats = csv,json\n"
    ), "7baa4005a6eefadc1af7ed95a187363d5dd1104cffdef5c2bb8aeb8dc327e797"),
    (_EVERY_KEY_SET, (
        "radius = 222.5\n"
        "seed = 99\n"
        "literal_rounding = true\n"
        "wire_diameter = 0.6\n"
        "bend_elongation_per_mm = 0.05\n"
        "cut_elongation = 0.1\n"
        "cut_match_stdev = 0.08\n"
        "juxtaposition_span = 0.2\n"
        "circumference_stdev_base = 0.04\n"
        "circumference_stdev_slope = 1.5e-05\n"
        "fixed_errors_enabled = false\n"
        "random_errors_enabled = false\n"
        "min_peak_count = 7\n"
        "peak_dominance = 1.1\n"
        "min_consecutive_bins = 4\n"
        "bin_threshold_fraction = 0.25\n"
        "out_dir = reports\n"
        "formats = csv,json,svg\n"
    ), "c4004c33c9fc06e4922ab512d36d38f6814a81061263b20a1063d0ca204b871d"),
], ids=["defaults", "every-key-set"])
def test_canonical_text_and_digest_are_pinned(values, text, sha):
    cfg = resolve(values)
    assert serialize(cfg) == text
    assert digest(cfg) == sha


def test_readme_lists_every_key_with_its_default():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("All keys with defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
    assert lines == serialize(RunConfig()).splitlines()
