"""Start-up cost: scipy stays off the import path of every command."""

import subprocess
import sys


def run_without_scipy(code):
    # a fresh interpreter, so modules loaded by other tests do not count
    code = (
        "import sys, railbridge, railbridge.cli as cli\n"
        + code
        + "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert 'scipy' not in sys.modules, loaded[:10]\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_pipeline_runs_without_importing_scipy(tmp_path):
    # running a whole pipeline shows the import was not just deferred to it
    run_without_scipy(
        f"assert cli.main(['pipeline', '--seed', '1', '--samples', '200', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
    )


def test_wigner_runs_without_importing_scipy(tmp_path):
    state = str(tmp_path / "sim" / "state_D.json")
    run_without_scipy(
        f"assert cli.main(['simulate', '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        f"assert cli.main(['wigner', {state!r}, '--out', {str(tmp_path / 'w')!r}]) == 0\n"
    )
