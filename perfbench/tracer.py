"""Spans around swarmnet's public entry points, and the per-layer table.

The traced run wraps each entry point from here, in the benchmark, so the
program under test is unchanged. A wrapper replaces the function under
every name a swarmnet module binds it to, because callers look functions
up by the name they imported (`cli.run_cell`, `experiment.run_cell`,
`pso.step` inside `pso.run`, ...).

A span is (pid, id, parent pid, parent id, name, start, end, counts). Spans
stay in memory; the main process writes its own at the end, and each
forked sweep worker appends its own whenever its outermost span closes,
because pool workers exit without running atexit handlers.
`time.perf_counter` is CLOCK_MONOTONIC on Linux, so spans from all
processes share one clock.

This module imports nothing from swarmnet at import time: `run.py` uses the
aggregation half without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

# Span names are "<layer>.<function>"; the layer is the swarmnet module.
TARGETS = (
    ("cli", "main"),
    ("config", "load_config"),
    ("topology", "build_topology"),
    ("benchmarks", "make_objective"),
    ("benchmarks", "Objective.evaluate_many"),
    ("pso", "run"),
    ("pso", "step"),
    ("interaction", "diversity_series"),
    ("interaction", "build_network"),
    ("interaction", "destruction_curve"),
    ("interaction", "area_under_destruction"),
    ("experiment", "run_cell"),
    ("experiment", "run_sweep"),
    ("experiment", "summarize"),
    ("io", "find_log_files"),
    ("io", "read_interaction_log"),
    ("io", "read_run_trace"),
    ("io", "read_diversity_series"),
    ("io", "read_summary"),
    ("io", "write_interaction_log"),
    ("io", "write_run_trace"),
    ("io", "write_diversity_series"),
    ("io", "write_destruction_surface"),
    ("io", "write_summary"),
)

LAYERS = ("cli", "config", "topology", "benchmarks", "pso",
          "interaction", "experiment", "io")


def _counts(name, args, result):
    """Work counts recorded with a span, computed after its end time."""
    if name == "benchmarks.evaluate_many":
        return {"rows": len(args[1])}
    if name == "io.read_interaction_log":
        return {"rows": int(result.choices.size), "bytes": os.path.getsize(args[0])}
    if name == "io.write_interaction_log":
        return {"rows": int(args[1].choices.size), "bytes": os.path.getsize(args[0])}
    if name == "interaction.destruction_curve":
        # Symmetric weights with a zero diagonal: each edge is counted twice.
        return {"edges": int((args[0].weights > 0).sum()) // 2}
    if name == "interaction.diversity_series":
        return {"samples": len(result[0])}
    if name == "experiment.run_sweep":
        return {"result_bytes": sum(len(pickle.dumps(r)) for r in result[0])}
    return None


class Tracer:
    """Records spans of the calls into swarmnet made by one workload."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.next_id = 0

    def install(self) -> None:
        """Wrap every target under each name swarmnet modules bind it to."""
        for layer, attr in TARGETS:
            module = importlib.import_module(f"swarmnet.{layer}")
            owner_name, _, func_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, func_name)
            wrapper = self._wrap(f"{layer}.{func_name}", original)
            setattr(owner, func_name, wrapper)
            if owner_name:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "swarmnet":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else (0, -1)
            tracer.stack.append((pid, span_id))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
            tracer.spans.append((pid, span_id, parent[0], parent[1], name,
                                 start, end, _counts(name, args, result)))
            if pid != tracer.main_pid and all(p != pid for p, _ in tracer.stack):
                tracer.dump()
            return result

        return wrapper

    def dump(self) -> None:
        """Append this process's spans to its file and forget them."""
        pid = os.getpid()
        own = [s for s in self.spans if s[0] == pid]
        self.spans = []
        with open(self.out_dir / f"spans-{pid}.jsonl", "a") as fh:
            for span in own:
                fh.write(json.dumps(span) + "\n")


def load_spans(trace_dir) -> list[tuple]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def layer_metrics(spans: list[tuple], main_pid: int) -> dict[str, float]:
    """Per-layer figures of one traced invocation.

    `.s` sums inclusive span durations over every process, so on the sweep
    it counts both workers. Self time is a span's duration minus its
    same-process children; children in another process ran in parallel
    and do not block it.
    """
    child_time: dict[tuple[int, int], float] = {}
    for pid, _, ppid, parent_id, _, start, end, _ in spans:
        if ppid == pid:
            key = (ppid, parent_id)
            child_time[key] = child_time.get(key, 0.0) + (end - start)

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    blocking = 0.0
    step_us = []
    for pid, span_id, _, _, name, start, end, extra in spans:
        dur = end - start
        own = dur - child_time.get((pid, span_id), 0.0)
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += own
        if pid == main_pid:
            blocking += own
        if name == "pso.step":
            step_us.append(dur * 1e6)
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def pct(q):
        if not step_us:
            return 0.0
        if len(step_us) == 1:
            return step_us[0]
        return statistics.quantiles(step_us, n=100, method="inclusive")[q - 1]

    read_s = total.get("io.read_interaction_log", 0.0)
    read_rows = counts.get("io.read_interaction_log.rows", 0)
    metrics = {
        "benchmarks.evaluate_many.calls": calls.get("benchmarks.evaluate_many", 0),
        "benchmarks.evaluate_many.rows": counts.get("benchmarks.evaluate_many.rows", 0),
        "benchmarks.evaluate_many.s": total.get("benchmarks.evaluate_many", 0.0),
        "benchmarks.make_objective.s": total.get("benchmarks.make_objective", 0.0),
        "pso.step.calls": calls.get("pso.step", 0),
        "pso.step.self_s": self_s.get("pso.step", 0.0),
        "pso.step.p50_us": pct(50),
        "pso.step.p99_us": pct(99),
        "pso.run.s": total.get("pso.run", 0.0),
        "interaction.diversity_series.s": total.get("interaction.diversity_series", 0.0),
        "interaction.diversity_series.samples":
            counts.get("interaction.diversity_series.samples", 0),
        "interaction.build_network.calls": calls.get("interaction.build_network", 0),
        "interaction.build_network.s": total.get("interaction.build_network", 0.0),
        "interaction.destruction_curve.calls":
            calls.get("interaction.destruction_curve", 0),
        "interaction.destruction_curve.s":
            total.get("interaction.destruction_curve", 0.0),
        "interaction.destruction_curve.edges":
            counts.get("interaction.destruction_curve.edges", 0),
        "interaction.area_under_destruction.s":
            total.get("interaction.area_under_destruction", 0.0),
        "io.read_interaction_log.calls": calls.get("io.read_interaction_log", 0),
        "io.read_interaction_log.rows": read_rows,
        "io.read_interaction_log.bytes": counts.get("io.read_interaction_log.bytes", 0),
        "io.read_interaction_log.s": read_s,
        "io.read_interaction_log.rows_per_s": read_rows / read_s if read_s else 0.0,
        "io.write_interaction_log.rows": counts.get("io.write_interaction_log.rows", 0),
        "io.write_interaction_log.bytes":
            counts.get("io.write_interaction_log.bytes", 0),
        "io.write_interaction_log.s": total.get("io.write_interaction_log", 0.0),
        "io.write_other.s": sum(
            v for k, v in total.items()
            if k.startswith("io.write_") and k != "io.write_interaction_log"
        ),
        "experiment.run_cell.calls": calls.get("experiment.run_cell", 0),
        "experiment.run_cell.self_s": self_s.get("experiment.run_cell", 0.0),
        # run_sweep runs in the main process only; its self time is the
        # wait for the workers plus moving tasks and results between them.
        "experiment.run_sweep.wait_s": self_s.get("experiment.run_sweep", 0.0),
        "experiment.result_bytes": counts.get("experiment.run_sweep.result_bytes", 0),
        "experiment.summarize.s": total.get("experiment.summarize", 0.0),
        "topology.build_topology.calls": calls.get("topology.build_topology", 0),
        "topology.build_topology.s": total.get("topology.build_topology", 0.0),
        "config.load_config.s": total.get("config.load_config", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "trace.blocking_self_s": blocking,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
