"""The README's Python quick start runs as written against the package,
its config defaults block is the default config, and its per-command flag
list is the parser's."""

import argparse
import pathlib
import re

from railbridge.cli import build_parser
from railbridge.config import Config, parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["fit"].converged


def test_readme_config_defaults_block_is_the_config_defaults():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"Defaults:\n\n```\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0], source="README.md") == Config()


def test_readme_flags_by_command_are_the_parser_flags():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"Flags by command:\n\n((?:[- ] .*\n)+)", text)
    assert len(blocks) == 1
    documented = {}
    for item in re.split(r"^- ", blocks[0], flags=re.M)[1:]:
        commands, _, flags = item.partition(":")
        for command in re.findall(r"`(\w+)`", commands):
            documented[command] = set(re.findall(r"`(--[\w-]+)`", flags))
    (subparsers,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in subparsers.choices.items()
    }
    assert documented == parsed
