"""Start-up cost: scipy stays off the import path of every command but wigner."""

import subprocess
import sys


def test_pipeline_runs_without_importing_scipy(tmp_path):
    # a fresh interpreter, so modules loaded by other tests do not count;
    # running a whole pipeline shows the import was not just deferred to it
    code = (
        "import sys, railbridge, railbridge.cli as cli\n"
        f"assert cli.main(['pipeline', '--seed', '1', '--samples', '200', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert 'scipy' not in sys.modules, loaded[:10]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
