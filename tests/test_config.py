"""The config-key table: its agreement with the code and the README, and bad values of every key."""

import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xastruct import cli, config, crystal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_tables_list_the_table():
    section = README.read_text().split("### Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (`[^`]*`|unset) \|", section, flags=re.M)
    assert [key for key, _ in rows] == list(config.KEYS)
    assert {key: default.strip("`") if default != "unset" else "" for key, default in rows} == {
        key: row.default for key, row in config.KEYS.items()}


def test_table_names_what_the_code_reads():
    assert config.TRAINING["task"].choices == tuple(cli.TASKS)
    assert config.TEMPLATE_NAMES == tuple(cli.TEMPLATES)
    assert config.DATA["mnnd_min"].least == crystal.MIN_SITE_SEPARATION
    assert cli.CONFIG_DEFAULTS == {key: row.default for key, row in config.KEYS.items()}
    for row in config.KEYS.values():
        assert set(row.commands.split()) <= {"synth", "extract", "train", "eval", "predict", "plot"}


def test_a_typed_config_checks_to_itself():
    values = config.check_config({"elements": "Ni, O", "lr": "3e-3", "absorber": ""})
    assert values["elements"] == ["Ni", "O"] and values["lr"] == 3e-3 and values["absorber"] is None
    assert config.check_config(values) == values


# argv of each command that reads a key, up to --out; none of the inputs exists
COMMANDS = {
    "synth": ["synth"],
    "extract": ["extract", "no-such.jsonl"],
    "train": ["train", "--task", "mnnd", "--data", "no-such-dir"],
    "eval": ["eval", "--checkpoint", "no-such.json", "--data", "no-such-dir"],
    "predict": ["predict", "--checkpoint", "no-such.json", "--input", "no-such.json"],
    "plot": ["plot", "no-such.json"],
}
# values out of a rule between keys, for keys whose row alone bounds no range
RULE_BREAKERS = {"mnnd_max": st.floats(0.5, 1.7), "lambda_a": st.floats(-1e6, -0.2),
                 "conv_blocks": st.integers(7, 10**6)}


def out_of_range(key: str, row: config.Key):
    """Values of `key` that parse but break its row's bounds or a rule; None if there are none."""
    if key in RULE_BREAKERS:
        return RULE_BREAKERS[key]
    if row.type is int and row.choices:
        return st.integers(-10**6, 10**6).filter(lambda v: v not in row.choices)
    if row.odd:
        return st.integers(1, 10**6).map(lambda v: 2 * v)
    if row.least is not None:
        below = row.least - 1
        return (st.integers(max_value=below) if row.type is int
                else st.floats(max_value=row.least, exclude_max=True, allow_infinity=False))
    if row.positive:
        beyond = st.floats(max_value=0.0, allow_infinity=False)
        if row.most is not None:
            beyond |= st.floats(min_value=row.most, exclude_min=True, allow_infinity=False)
        return beyond
    return None


@st.composite
def bad_settings(draw):
    """(key, a command that reads it, a bad value of it)."""
    key = draw(st.sampled_from(sorted(config.KEYS)))
    row = config.KEYS[key]
    kinds = [st.text(string.ascii_lowercase, min_size=1).map(lambda s: "@" + s),  # not a number
             st.sampled_from(["nan", "inf", "-inf"])]
    beyond = out_of_range(key, row)
    if beyond is not None:
        kinds.append(beyond.map(str))
    return key, draw(st.sampled_from(row.commands.split())), draw(st.one_of(kinds))


# each example runs in the same tmp_path, which no run writes to
NO_FIXTURE_CHECK = [HealthCheck.function_scoped_fixture]


@settings(max_examples=300, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
@given(setting=bad_settings())
def test_bad_value_of_any_key_fails_naming_it_before_its_commands_write(setting, tmp_path, capsys):
    key, command, value = setting
    out = tmp_path / "out"
    rc = cli.main([*COMMANDS[command], "--out", str(out), "--set", f"{key}={value}"])
    err = capsys.readouterr().err
    assert rc == (2 if config.KEYS[key].usage else 1), err
    assert f"'{key}'" in err and "Traceback" not in err, err
    assert not out.exists()


@settings(max_examples=50, deadline=None, suppress_health_check=NO_FIXTURE_CHECK)
@given(key=st.text(string.ascii_lowercase + "_", min_size=1).filter(lambda k: k not in config.KEYS),
       command=st.sampled_from(sorted(COMMANDS)))
def test_unknown_key_is_usage_error_naming_it(key, command, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*COMMANDS[command], "--out", str(out), "--set", f"{key}=1"]) == 2
    assert capsys.readouterr().err == f"usage error: unknown config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("conv_blocks", 9), ("encoder_hidden", 0), ("lr", 0.0)])
def test_train_config_from_python_meets_the_same_rows(key, value):
    with pytest.raises(ValueError, match=f"^config key '{key}' must "):
        config.check_config({key: value})


@pytest.mark.parametrize("key,value,kind", [
    ("conv_blocks", 2.7, "an integer"), ("embed_k", True, "an integer"), ("seed", 3.0, "an integer"),
    ("lr", True, "a number"), ("task", 3, "a string"), ("forward_kind", None, "a string"),
])
def test_value_that_is_not_a_string_must_be_of_its_rows_kind(key, value, kind):
    """A value from Python or a checkpoint header is checked, not coerced: int(2.7) is 2 and
    int(True) is 1."""
    with pytest.raises(ValueError, match=f"^config key '{key}' must be {kind}, got {value!r}$"):
        config.check_config({key: value})


def test_string_values_parse_and_numbers_of_the_kind_pass():
    values = config.check_config({"embed_k": "2", "conv_blocks": 2, "lr": 1, "sigma2": "0.004"})
    assert values["embed_k"] == 2 and type(values["embed_k"]) is int
    assert values["lr"] == 1.0 and type(values["lr"]) is float
    assert (values["conv_blocks"], values["sigma2"]) == (2, 0.004)


@pytest.mark.parametrize("value", [0.5, "0.5", 0.25])
def test_mnnd_min_at_or_below_the_site_separation_floor_is_refused(value):
    """No template cell at mnnd 0.5 passes the oracle's shell-radius floor, so the table stops
    what synth would refuse later."""
    with pytest.raises(config.UsageError, match=f"^config key 'mnnd_min' must be above 0.5, "
                                                f"got {float(value)}$"):
        config.check_config({"mnnd_min": value, "mnnd_max": 0.5})
    assert config.check_config({"mnnd_min": 0.51, "mnnd_max": 0.6})["mnnd_min"] == 0.51
