"""railbridge benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 38 --trace 0

Run from the root of a checkout. Set-up time is sampled in several fresh
worker processes; the ops run in one more. Every worker gets PYTHONPATH
pointing at the checkout's `src/` and one BLAS thread, and pins itself
to one CPU, the same on every run. The human-readable report goes first;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and the metrics BENCHMARK.json names (end-to-end
with `--trace 0`, per-layer with `--trace 1`). Full results, the
environment and the spans are written to `perfbench/out/`.

    python3 perfbench/run.py --baseline [--seed N] [--seconds S]

runs every workload untraced and traced, prints the reference figures
(panel time, pipeline time, seconds per fit iteration, seconds per 100k
homodyne draws, seconds per teleport) and writes them to
`perfbench/out/BENCH_baseline.json`. Its tomo-panel runs fit the release
gate's 100k samples per dataset, as the ROADMAP figures do.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("pipeline", "tomo-panel", "engine-sweep")
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives the median
BLAS_THREADS = "1"  # at most nproc on any machine; steadier than the default
WORKER_SLACK_S = 120  # beyond --seconds: set-up, the last op, probes
RELEASE_SAMPLES = 100_000  # samples per tomo-panel dataset in the release gate


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(workload: str, seed: int, seconds: int, trace: int, tag: str,
               setup_only: bool = False, corrupt_op=None, panel_samples=None) -> dict:
    result = OUT / f"{workload}-seed{seed}-trace{trace}-{tag}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result),
        "--work-dir", str(OUT / "work" / f"{workload}-{seed}-{tag}-{os.getpid()}"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if corrupt_op is not None:
        cmd += ["--corrupt-op", str(corrupt_op)]
    if panel_samples is not None:
        cmd += ["--panel-samples", str(panel_samples)]
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        timeout=seconds + WORKER_SLACK_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    result.unlink()  # measure() writes the composed result
    if Path(out["railbridge"]).resolve() != (SRC / "railbridge").resolve():
        raise RuntimeError(f"worker imported railbridge from {out['railbridge']}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int, corrupt_op=None,
            panel_samples=None) -> dict:
    OUT.mkdir(exist_ok=True)
    setups = [
        run_worker(workload, seed, seconds, trace, f"setup{i}", setup_only=True)["setup_s"]
        for i in range(SETUP_SAMPLES - 1)
    ]
    run = run_worker(workload, seed, seconds, trace, "run", corrupt_op=corrupt_op,
                     panel_samples=panel_samples)
    setups.append(run["setup_s"])
    op_s = run["op_s"]
    attempted, failed = len(op_s), len(run["failures"])
    run.update(
        workload=workload,
        seed=seed,
        trace=trace,
        setup_samples=setups,
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / run["phase_s"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        },
        fail_frac=failed / attempted,
    )
    run["environment"].update(git_commit=git_commit(), workload_seed=seed)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)
    return run


def report(run: dict) -> None:
    e2e = run["end_to_end"]
    n = run["attempted"]
    tail = run["op_tail"]
    tail_txt = f", p{tail['percentile']:.0f} {tail['value']:.4f} s" if tail else ""
    print(f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
          f"(closed loop, one client)")
    print(f"  setup_s      {e2e['setup_s']['value']:.4f} s    "
          f"(median of {len(run['setup_samples'])} fresh processes)")
    print(f"  ops_per_s    {e2e['ops_per_s']['value']:.4f} 1/s  "
          f"({n} ops in {run['phase_s']:.2f} s)")
    print(f"  op_p50_s     {e2e['op_p50_s']['value']:.4f} s    (n={n}{tail_txt})")
    print(f"  fail_frac    {run['fail_frac']:.4f}      ({run['failed']} of {n} ops failed)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']['value']:.1f} MB")
    for f in run["failures"]:
        print(f"  FAILED op {f['op']}: {'; '.join(f['problems'])}")
    print("  environment  " + json.dumps(run["environment"], sort_keys=True))
    if run["trace"]:
        print("  span                           calls/op   total s/op   self s/op")
        for name, row in run["span_table"].items():
            print(f"  {name:<30} {row['calls']:>8.2f} {row['total_s']:>12.4f} "
                  f"{row['self_s']:>11.4f}")
        layers = run["layers"]
        wall = layers["cli.pool_wall_s"]["value"]
        if wall > 0:
            print(f"  cli.pool_busy_s / cli.pool_wall_s = "
                  f"{layers['cli.pool_busy_s']['value'] / wall:.2f}")
        print(f"  tracing overhead {layers['trace.overhead_frac']['value']:.2e} of the "
              f"untraced op_p50_s ({layers['trace.spans_per_op']['value']:.1f} spans per op)")
        for name, m in layers.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")


def result_line(run: dict) -> str:
    metrics = run["layers"] if run["trace"] else run["end_to_end"]
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


def baseline(seed: int, seconds: int) -> None:
    # the ROADMAP quotes the panel at the release gate's sample count
    samples = {"tomo-panel": RELEASE_SAMPLES}
    runs = {(w, t): measure(w, seed, seconds, t, panel_samples=samples.get(w))
            for w in WORKLOADS for t in (0, 1)}
    for run in runs.values():
        report(run)

    def p50(w, t=0):
        return runs[(w, t)]["end_to_end"]["op_p50_s"]["value"]

    def layer(w, name):
        return runs[(w, 1)]["layers"][name]["value"]

    figures = {
        "tomo_panel_state_s": p50("tomo-panel"),
        "pipeline_s": p50("pipeline"),
        "fit_s_per_iter": layer("tomo-panel", "tomography.fit_s_per_iter"),
        "joint_fit_s_per_iter": layer("pipeline", "tomography.joint_fit_s_per_iter"),
        "sample_s_per_100k_draws": 1e5 * layer("tomo-panel", "homodyne.sample_s")
        / layer("tomo-panel", "homodyne.sample_draws"),
        # each engine-sweep op teleports the six canonical inputs per cutoff
        "teleport_s_c2": layer("engine-sweep", "protocol.teleport_s.c2") / 6,
        "engine_sweep_point_s": p50("engine-sweep"),
        "tracing_overhead_measured": {w: p50(w, 1) / p50(w) - 1.0 for w in WORKLOADS},
    }
    out = {"seed": seed, "seconds": seconds, "figures": figures,
           "environment": runs[(WORKLOADS[0], 0)]["environment"]}
    with open(OUT / "BENCH_baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps(figures, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="railbridge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true",
                    help="run every workload untraced and traced; print reference figures")
    ap.add_argument("--corrupt-op", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "railbridge" / "__init__.py").is_file():
        print(f"error: no railbridge sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.baseline:
        baseline(args.seed, args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace, args.corrupt_op)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(run)
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
