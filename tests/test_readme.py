"""The README's examples run: the library quick start, and every
``qevspeed`` command of the CLI section through ``cli.main``."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import qevspeed.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """The text of the README section headed ``## title``."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def code_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def cli_examples() -> list[list[str]]:
    """The arguments of each ``qevspeed`` command, continuation lines joined."""
    examples = []
    for block in code_blocks(section("CLI"), "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qevspeed "):
                examples.append(shlex.split(line)[1:])
    return examples


EXAMPLES = cli_examples()


def test_library_quick_start():
    (block,) = code_blocks(section("Library quick start"), "python")
    exec(compile(block, "README.md", "exec"), {})


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in EXAMPLES} == set(cli._RUNNERS)


@pytest.mark.parametrize("argv", EXAMPLES)
def test_cli_example(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where --out files land
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
