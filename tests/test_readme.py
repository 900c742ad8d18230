"""The README's Python quick start runs as written against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["fit"].converged
