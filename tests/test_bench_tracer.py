"""The benchmark's tracer still reaches every layer of `railbridge pipeline`.

perfbench/tracing.py hooks functions by name and skips a name it cannot
find, after which its per-layer figures read 0. A refactor that renames a
hooked function, or moves the pipeline's calls off it, fails here.
"""

import importlib.util
import os
from collections import Counter

from railbridge import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_pipeline_layers(tmp_path, capsys):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        argv = ["pipeline", "--samples", "200", "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = {s["id"]: s for s in tracer.spans}
    (root,) = [s["id"] for s in spans.values() if s["name"] == "cli.main"]

    def under_root(span):
        while span["parent"] is not None:
            if span["parent"] == root:
                return True
            span = spans[span["parent"]]
        return False

    counts = Counter(s["name"] for s in spans.values() if under_root(s))
    assert {name: counts[name] for name in (
        "cli.pool_task", "tomography.fit", "tomography.joint_fit",
        "homodyne.sample", "homodyne.write_csv",
    )} == {
        "cli.pool_task": 6, "tomography.fit": 12, "tomography.joint_fit": 2,
        "homodyne.sample": 12, "homodyne.write_csv": 12,
    }
