"""The README's Python quick start runs as written against the package,
and its config defaults block is the default config."""

import pathlib
import re

from railbridge.config import Config, parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["fit"].converged


def test_readme_config_defaults_block_is_the_default_config():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"Defaults:\n\n```\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0], source="README.md") == Config()
