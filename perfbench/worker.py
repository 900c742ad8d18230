"""One measured process: set up a workload, run its ops, write a result.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's `src/` and the BLAS thread variables already set. The process
pins itself to one CPU before it imports anything of the program, so
every thread it runs (the pipeline's pool too) shares that CPU.
`--setup-only` stops once the first op is ready, which is how run.py
samples set-up time several times. The result goes to the JSON file named by `--result`.
"""

import time

T_START = time.perf_counter()  # set-up time runs from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def pin_to_one_cpu() -> dict:
    """Run this process and all its threads on the lowest CPU it may use."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return {"nproc": len(allowed), "pinned_cpu": allowed[0]}


def environment(cpus: dict) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        **cpus,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 20:  # it would be the median or lower
        return None
    ordered = sorted(values)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def run_ops(wl, seconds: float, corrupt_op=None) -> dict:
    """Closed loop: ops back to back for about `seconds`."""
    op_s, failures = [], []

    def one(fn, k):
        t = time.perf_counter()
        took = None
        try:
            out = fn(k)
            took = time.perf_counter() - t
            if k == corrupt_op:
                out = wl.corrupt(out)
            problems = wl.check(out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        op_s.append(took if took is not None else time.perf_counter() - t)
        if problems:
            failures.append({"op": k, "problems": problems})

    # start another op while it is expected to end within half an op of
    # `seconds`, so the timed phase is centred on `seconds`; pipeline keeps
    # room for its repeat of op 0
    reserve = 1.5 if wl.repeats_first else 0.5
    start = time.perf_counter()
    k = 0
    while True:
        one(wl.op, k)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + reserve * statistics.median(op_s) > seconds:
            break
    if wl.repeats_first:
        one(wl.repeat_first, k)
    return {
        "op_s": op_s,
        "phase_s": time.perf_counter() - start,
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-op", type=int, default=None)
    ap.add_argument("--panel-samples", type=int, default=None)
    args = ap.parse_args(argv)
    cpus = pin_to_one_cpu()

    import railbridge
    import tracing
    import workloads

    workloads.load_schemas()
    os.makedirs(args.work_dir, exist_ok=True)
    options = {} if args.panel_samples is None else {"samples": args.panel_samples}
    wl = workloads.WORKLOADS[args.workload](args.seed, args.work_dir, **options)
    setup_s = time.perf_counter() - T_START

    result = {"setup_s": setup_s, "railbridge": os.path.dirname(railbridge.__file__)}
    if not args.setup_only:
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
        try:
            result.update(run_ops(wl, args.seconds, args.corrupt_op))
            n_ops = len(result["op_s"])
            if args.trace:
                for span, cutoff in tracing.missing_groups(tracer.spans):
                    phase = workloads.probe_phase(span, cutoff)
                    if not any(s["phase"] == phase for s in tracer.spans):
                        tracer.phase = phase
                        workloads.PROBES[span][1](args.work_dir, cutoff)
        finally:
            tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["op_tail"] = tail_percentile(result["op_s"])
        result["environment"] = environment(cpus)
        if args.trace:
            spans = tracer.spans
            layers = tracing.layer_metrics(spans, n_ops, workloads.probe_phase)
            op_spans = sum(1 for s in spans if s["phase"] == "ops") / n_ops
            cost = op_spans * tracing.span_cost_s()
            p50 = statistics.median(result["op_s"])
            layers["trace.spans_per_op"] = {"value": op_spans, "unit": "count"}
            layers["trace.overhead_frac"] = {"value": cost / (p50 - cost), "unit": "ratio"}
            result["layers"] = layers
            result["span_table"] = tracing.span_table(spans, n_ops)
            spans_file = os.path.splitext(args.result)[0] + "-spans.json"
            with open(spans_file, "w", encoding="utf-8") as fh:
                json.dump(spans, fh)
            result["spans_file"] = spans_file
    shutil.rmtree(args.work_dir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
