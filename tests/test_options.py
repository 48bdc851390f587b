"""The CLI's option surface, pinned: each command's flags and each
config-file key's JSON kind. Adding, removing or renaming a flag or a key
changes this file too, so every change to the surface shows in a diff.

A config file takes the same values as the flags: for every flag that
takes a config key, the flag and the same value from a ``--config`` file
give equal ``RunConfig``s.
"""

import json

import pytest

import qevspeed.cli as cli

# command -> its flags (argparse's own -h/--help left out), in no particular order
FLAGS = {
    "speed": (
        "--model", "--metric", "--alpha", "--omega", "--gamma-ratio", "--markovian-limit",
        "--tmin", "--tmax", "--points", "--config", "--format", "--out",
    ),
    "figure": ("--metric", "--points", "--config", "--format", "--out"),
    "regions": ("--gamma-ratio", "--markovian-limit", "--n-max", "--config", "--format", "--out"),
    "detect": (
        "--model", "--metric", "--alpha", "--omega", "--gamma-ratio", "--markovian-limit",
        "--sweep", "--time", "--config", "--format", "--out",
    ),
}

# config-file key -> the JSON kind its value must have, as the usage error names it
CONFIG_KINDS = {
    "model": "a string",
    "metric": "a string",
    "alpha": "a number",
    "omega": "a number",
    "gamma_ratio": "a number",
    "markovian_limit": "true or false",
    "tmin": "a number",
    "tmax": "a number",
    "points": "an integer",
    "time": "a number",
    "sweep": "a string",
    "n_max": "an integer",
    "format": "a string",
    "out": "a string",
}

# config-file key -> a value that is not its default
VALUES = {
    "model": "open-1q",
    "metric": "wy",
    "alpha": 0.5,
    "omega": 2.5,
    "gamma_ratio": 0.25,
    "markovian_limit": True,
    "tmin": 0.5,
    "tmax": 3.0,
    "points": 7,
    "time": 2.0,
    "sweep": "t:0.1:1:3",
    "n_max": 3,
    "format": "json",
    "out": "table.json",
}

COMMAND_LINES = {"speed": ["speed"], "figure": ["figure", "fig1a"], "regions": ["regions"], "detect": ["detect"]}


def test_each_command_takes_its_flags():
    commands = cli.build_parser().commands
    assert sorted(commands) == sorted(FLAGS)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        assert sorted(flags) == sorted(FLAGS[name]), name


def test_the_config_keys_are_the_flags_but_config():
    """Every flag but ``--config`` is a config key, and every key a flag."""
    flags = {flag for command in FLAGS.values() for flag in command} - {"--config"}
    assert sorted(flags) == sorted("--" + key.replace("_", "-") for key in CONFIG_KINDS)


def test_an_unknown_key_lists_the_config_keys(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"alfa": 0.5}))
    assert cli.main(["regions", "--config", str(path)]) == 2
    assert capsys.readouterr().err.endswith(f"valid keys: {', '.join(sorted(CONFIG_KINDS))}\n")


@pytest.mark.parametrize("key", CONFIG_KINDS)
def test_each_config_key_has_its_kind(key, tmp_path, capsys):
    """A JSON list is of no key's kind, so the error names the key's own."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: []}))
    assert cli.main(["regions", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config key '{key}' must be {CONFIG_KINDS[key]}, got []\n"


@pytest.mark.parametrize(
    "command, key",
    [
        (command, flag[2:].replace("-", "_"))
        for command, flags in FLAGS.items()
        for flag in flags
        if flag != "--config"
    ],
)
def test_a_flag_and_a_config_file_give_one_config(command, key, tmp_path):
    value = VALUES[key]
    flag = ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    parser = cli.build_parser()
    from_flag = cli.merge_config(parser.parse_args([*COMMAND_LINES[command], *flag]))
    from_file = cli.merge_config(parser.parse_args([*COMMAND_LINES[command], "--config", str(path)]))
    assert from_flag == from_file
    assert from_flag != cli.merge_config(parser.parse_args(COMMAND_LINES[command]))
