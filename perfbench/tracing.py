"""In-memory call spans around railbridge's public functions.

`Tracer.install()` replaces each traced function with a wrapper in the
module that defines it and in every railbridge module that imported it by
name (so calls that `cli` and `rates` make into other layers are caught),
and `Tracer.uninstall()` puts the originals back. Nothing under `src/` is
edited. Each call becomes one span: name, start, end, thread id, parent
span and a few attributes read off the arguments or the result.

`layer_metrics()` folds the spans into the per-layer figures listed in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

CUTOFFS = (2, 3, 4)


def _cutoff_of(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"cutoff": bound.arguments["cutoff"]}

    return attrs


def _fit_attrs(args, kwargs, result):
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "rejected": result.rejected_steps,
    }


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _pulses(args, kwargs, result):
    return {"pulses": result.n_pulses}


def _exit_code(args, kwargs, result):
    return {"code": result}


class Tracer:
    """Collects spans; `phase` labels which part of the run made them."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = "ops"
        self._stack = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans

    def _frames(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._stack, "frames"):
            self._stack.frames = []
        return self._stack.frames

    def open(self, name: str) -> dict:
        frames = self._frames()
        if frames:
            parent: Optional[int] = frames[-1]
        else:
            # a pool thread's first span hangs off whatever the main thread
            # is blocked in (cli.main while the pipeline pool runs)
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "thread": threading.get_ident(),
                "phase": self.phase,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
        frames.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._frames().pop()

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    # -------------------------------------------------------- patching

    def _patch_everywhere(self, home, attr: str, name: str, attrs=None) -> None:
        orig = getattr(home, attr, None)
        if orig is None:
            return
        traced = self.wrap(orig, name, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "railbridge" and getattr(mod, attr, None) is orig:
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, traced)

    def install(self) -> None:
        from railbridge import cli, homodyne, protocol, rates, tomography

        for attr, name in (
            ("teleport", "protocol.teleport"),
            ("swap_entanglement", "protocol.swap"),
            ("click_pattern_distribution", "protocol.click_distribution"),
            ("predetection_state", "protocol.predetection"),
        ):
            fn = getattr(protocol, attr)
            self._patch_everywhere(protocol, attr, name, _cutoff_of(fn))
        self._patch_everywhere(homodyne, "sample", "homodyne.sample", _rows)
        self._patch_everywhere(
            tomography, "maxlik_reconstruct", "tomography.fit", _fit_attrs
        )
        self._patch_everywhere(
            tomography, "joint_reconstruct_swapped", "tomography.joint_fit", _fit_attrs
        )
        self._patch_everywhere(rates, "circuit_consistency", "rates.circuit")
        self._patch_everywhere(rates, "simulate_triple_rate", "rates.mc", _pulses)
        self._patch_everywhere(cli, "main", "cli.main", _exit_code)
        self._patch_everywhere(cli, "validate_artifact", "cli.validate")
        self._patch_everywhere(cli, "_pipeline_teleport_state", "cli.pool_task")

        dataset = homodyne.QuadratureDataset
        write = dataset.__dict__["write_csv"]
        read = dataset.__dict__["read_csv"]
        self._patches.append((dataset, "write_csv", write))
        self._patches.append((dataset, "read_csv", read))
        dataset.write_csv = self.wrap(write, "homodyne.write_csv", _csv_bytes)
        dataset.read_csv = classmethod(
            self.wrap(read.__func__, "homodyne.read_csv", _rows)
        )

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a no-op timed both ways."""
    noop = lambda: None  # noqa: E731
    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# ------------------------------------------------------------ reduction


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [
            (max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(
            [iv for iv in inside if iv[1] > iv[0]]
        )
    return out


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _sum_dur(spans, per, *_):
    return sum(_dur(s) for s in spans) / per


def _count(spans, per, *_):
    return len(spans) / per


# a call that raised has no result attributes; it adds nothing to the sums
def _sum_attr(key):
    return lambda spans, per, *_: sum(s.get(key, 0) for s in spans) / per


def _per_iter(spans, per, *_):
    iters = sum(s.get("iterations", 0) for s in spans)
    return sum(_dur(s) for s in spans) / iters if iters else 0.0


def _frac_converged(spans, per, *_):
    return sum(1 for s in spans if s.get("converged")) / len(spans)


def _frac_rejected(spans, per, *_):
    iters = sum(s.get("iterations", 0) for s in spans)
    return sum(s.get("rejected", 0) for s in spans) / iters if iters else 0.0


def _cli_self(spans, per, all_spans, self_t):
    return sum(self_t[s["id"]] for s in spans) / per


def _pool_wall(spans, per, all_spans, self_t):
    # one window per cli.main call: first pool task start to last task end
    windows: Dict[int, List[float]] = {}
    for s in all_spans:
        if s["name"] == "cli.pool_task" and s["parent"] is not None:
            w = windows.setdefault(s["parent"], [s["start"], s["end"]])
            w[0], w[1] = min(w[0], s["start"]), max(w[1], s["end"])
    ids = {s["id"] for s in spans}
    return sum(b - a for p, (a, b) in windows.items() if p in ids) / per


# (metric, unit, span name, cutoff or None, reducer(spans, per, all_spans, self_t))
LAYER_METRICS: List[Tuple[str, str, str, Optional[int], Callable]] = [
    ("tomography.fit_s", "s", "tomography.fit", None, _sum_dur),
    ("tomography.fit_calls", "count", "tomography.fit", None, _count),
    ("tomography.fit_iterations", "count", "tomography.fit", None, _sum_attr("iterations")),
    ("tomography.fit_s_per_iter", "s", "tomography.fit", None, _per_iter),
    ("tomography.fit_converged_frac", "ratio", "tomography.fit", None, _frac_converged),
    ("tomography.fit_rejected_frac", "ratio", "tomography.fit", None, _frac_rejected),
    ("tomography.joint_fit_s", "s", "tomography.joint_fit", None, _sum_dur),
    ("tomography.joint_fit_iterations", "count", "tomography.joint_fit", None,
     _sum_attr("iterations")),
    ("tomography.joint_fit_s_per_iter", "s", "tomography.joint_fit", None, _per_iter),
]
for _short, _span in (
    ("teleport", "protocol.teleport"),
    ("swap", "protocol.swap"),
    ("click_distribution", "protocol.click_distribution"),
    ("predetection", "protocol.predetection"),
):
    for _c in CUTOFFS:
        LAYER_METRICS.append((f"protocol.{_short}_s.c{_c}", "s", _span, _c, _sum_dur))
LAYER_METRICS += [
    ("rates.circuit_s", "s", "rates.circuit", None, _sum_dur),
    ("rates.mc_s", "s", "rates.mc", None, _sum_dur),
    ("rates.mc_pulses", "count", "rates.mc", None, _sum_attr("pulses")),
    ("homodyne.sample_s", "s", "homodyne.sample", None, _sum_dur),
    ("homodyne.sample_draws", "count", "homodyne.sample", None, _sum_attr("rows")),
    ("homodyne.write_csv_s", "s", "homodyne.write_csv", None, _sum_dur),
    ("homodyne.write_csv_bytes", "bytes", "homodyne.write_csv", None, _sum_attr("bytes")),
    ("homodyne.read_csv_s", "s", "homodyne.read_csv", None, _sum_dur),
    ("homodyne.read_csv_rows", "count", "homodyne.read_csv", None, _sum_attr("rows")),
    ("cli.main_s", "s", "cli.main", None, _sum_dur),
    ("cli.self_s", "s", "cli.main", None, _cli_self),
    ("cli.validate_s", "s", "cli.validate", None, _sum_dur),
    ("cli.validate_calls", "count", "cli.validate", None, _count),
    ("cli.pool_wall_s", "s", "cli.main", None, _pool_wall),
    ("cli.pool_busy_s", "s", "cli.pool_task", None, _sum_dur),
]


def _matches(s: dict, span: str, cutoff: Optional[int]) -> bool:
    return s["name"] == span and (cutoff is None or s.get("cutoff") == cutoff)


def missing_groups(spans: List[dict]) -> List[Tuple[str, Optional[int]]]:
    """(span name, cutoff) pairs that no op reached."""
    out = []
    for _, _, span, cutoff, _ in LAYER_METRICS:
        key = (span, cutoff)
        if key not in out and not any(
            s["phase"] == "ops" and _matches(s, span, cutoff) for s in spans
        ):
            out.append(key)
    return out


def layer_metrics(
    spans: List[dict], n_ops: int, probe_phase: Callable[[str, Optional[int]], str]
) -> Dict[str, dict]:
    """Per-op layer figures from the ops' spans.

    Where no op reached a layer, the figure comes from the spans of that
    layer's probe (phase `probe_phase(span, cutoff)`), counted as one op.
    """
    self_t = self_times(spans)
    out = {}
    for metric, unit, span, cutoff, reduce in LAYER_METRICS:
        chosen = [s for s in spans if s["phase"] == "ops" and _matches(s, span, cutoff)]
        per = n_ops
        if not chosen:
            phase = probe_phase(span, cutoff)
            chosen = [s for s in spans if s["phase"] == phase and _matches(s, span, cutoff)]
            per = 1
        value = reduce(chosen, per, spans, self_t) if chosen else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def span_table(spans: List[dict], n_ops: int) -> Dict[str, dict]:
    """Calls, total and self seconds per op for every span name of the ops."""
    self_t = self_times(spans)
    table: Dict[str, dict] = {}
    for s in spans:
        if s["phase"] != "ops":
            continue
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += _dur(s)
        row["self_s"] += self_t[s["id"]]
    for row in table.values():
        for key in row:
            row[key] /= n_ops
    return dict(sorted(table.items()))
