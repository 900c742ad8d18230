"""The benchmark's own test: short runs of every workload.

    python3 perfbench/selftest.py

Each workload runs for one second (one op; two for pipeline, whose last
op repeats op 0), untraced and traced. The test asserts that the result
line names exactly the metrics in BENCHMARK.json, each with its unit,
and that no op failed. A run with op 0's output deliberately corrupted
must count that op as failed. Finally the command must refuse to run,
with no result line, in a directory that holds only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    line = done.stdout.strip().splitlines()[-1]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: dict, listed: list, where: str) -> None:
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{name} trace {trace}"
            result = result_of(run("--workload", name, "--seed", "1", "--seconds", "1",
                                   "--trace", str(trace)))
            check_metrics(result, listed, where)
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{where}: {result['failed']} of "
                                     f"{result['attempted']} ops failed")
            print(f"ok  {where}: {len(listed)} metrics, {result['attempted']} ops")
        result = result_of(run("--workload", name, "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--corrupt-op", "0"))
        if result["failed"] < 1 or result["correct"]:
            raise AssertionError(f"{name}: corrupted op 0 was not counted as failed")
        print(f"ok  {name}: corrupted op counted ({result['failed']} of "
              f"{result['attempted']} failed)")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError("the benchmark ran without the program's sources")
    print("ok  refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
