"""Per-layer tracing from outside the program.

The traced run calls ``treekv.cli.main`` in-process with the public
functions and methods of each module replaced by timing wrappers.  Every
wrapper is a span: it records its inclusive time, and its self time is the
inclusive time minus that of the spans it encloses.  Counters are taken at
the same boundaries, from the arguments and results of the wrapped call.
Nothing in the package itself is changed; ``instrument`` restores every
replaced attribute on exit.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Spans whose per-call latency is kept for p50 and p99.
LATENCY_SPANS = ("engine.stream_step", "policies.evict")
CLI_COMMANDS = ("gen_weights", "compare", "decode", "map", "analyze", "prefill")

# (metric, unit, what it measures); the order of the per-layer report.
METRICS = [
    ("engine.stream_step_s", "s", "AttentionStream.step self time: softmax and glue"),
    ("engine.stream_step_calls", "count", "AttentionStream.step calls"),
    ("engine.stream_step_p50_us", "us", "AttentionStream.step per-call latency, median"),
    ("engine.stream_step_p99_us", "us", "AttentionStream.step per-call latency, p99"),
    ("engine.slots_attended", "count", "cache slots attended over all steps"),
    ("engine.project_s", "s", "Q/K/V projection"),
    ("engine.apply_positions_s", "s", "rotary encoding of the cache and query"),
    ("engine.kv_append_s", "s", "KVCache.append"),
    ("engine.kv_evict_s", "s", "KVCache.evict left shift"),
    ("engine.weights_io_s", "s", "weight generation, save and load, embedding synthesis"),
    ("policies.update_scores_s", "s", "score accumulation"),
    ("policies.evict_s", "s", "EvictionPolicy.evict self time, all policies"),
    ("policies.evict_calls", "count", "EvictionPolicy.evict calls"),
    ("policies.evict_p50_us", "us", "EvictionPolicy.evict per-call latency, median"),
    ("policies.evict_p99_us", "us", "EvictionPolicy.evict per-call latency, p99"),
    ("policies.cursor_wraps", "count", "tree cursor returns to the first slot"),
    ("policies.decode_self_s", "s", "decode_with_policy bookkeeping"),
    ("policies.retained_ints", "count", "retained-list entries decode builds"),
    ("prefill.observation_scores_s", "s", "block scoring"),
    ("prefill.compress_s", "s", "tree cycle over blocks"),
    ("prefill.blocks_evicted", "count", "content blocks evicted, all streams"),
    ("trace.write_s", "s", "write_trace"),
    ("trace.bytes_written", "bytes", "trace bytes written"),
    ("trace.read_s", "s", "read_trace parse"),
    ("trace.bytes_read", "bytes", "trace bytes read"),
    ("trace.validate_s", "s", "validate_trace replay check"),
    ("trace.distribution_map_s", "s", "distribution_map"),
    ("trace.signals_at_step_s", "s", "signals_at_step extraction"),
    ("wavelet.profile_s", "s", "magnitude_profile self time"),
    ("wavelet.dwt_s", "s", "dwt_multi"),
    ("wavelet.reconstruct_s", "s", "reconstruct_component"),
    ("wavelet.signals", "count", "signals decomposed"),
    ("rng.normals_s", "s", "NormalStream.normals"),
    ("rng.normals_drawn", "count", "normal variates drawn"),
    *((f"cli.{name}_s", "s", f"treekv {name.replace('_', '-')}, inclusive")
      for name in CLI_COMMANDS),
    ("cli.self_s", "s", "argument, config and token-file parsing, CSV formatting"),
    ("tracing_overhead_s", "s", "traced minus untraced in-process wall time"),
]


class Tracer:
    """Span times and counters of one traced iteration."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.latency_ns = defaultdict(list)
        self.counts = defaultdict(int)
        self._children = [0]  # enclosed span time, one entry per open span

    def wrap(self, span, fn, count=None):
        keep = span in LATENCY_SPANS
        children = self._children

        def traced(*args, **kwargs):
            children.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self.self_ns[span] += elapsed - children.pop()
                self.total_ns[span] += elapsed
                self.calls[span] += 1
                if keep:
                    self.latency_ns[span].append(elapsed)
                children[-1] += elapsed
            if count is not None:
                # Counting is tracer work: the enclosing span does not own it.
                mark = perf_counter_ns()
                count(self.counts, args, result)
                children[-1] += perf_counter_ns() - mark
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        seconds = {span: ns / 1e9 for span, ns in self.self_ns.items()}
        out = {
            "engine.stream_step_calls": self.calls["engine.stream_step"],
            "policies.evict_calls": self.calls["policies.evict"],
            "cli.self_s": sum(v for k, v in seconds.items() if k.startswith("cli.")),
        }
        for span in LATENCY_SPANS:
            samples = sorted(self.latency_ns[span])
            out[f"{span}_p50_us"] = _percentile(samples, 0.50) / 1e3
            out[f"{span}_p99_us"] = _percentile(samples, 0.99) / 1e3
        for name in CLI_COMMANDS:
            out[f"cli.{name}_s"] = self.total_ns[f"cli.{name}"] / 1e9
        out.update(self.counts)
        for metric, unit, _what in METRICS:
            if metric not in out:  # a span's self time, or a count not taken
                out[metric] = seconds.get(metric[:-2], 0.0) if unit == "s" else 0
        return out


def _percentile(samples, q):
    if not samples:
        return 0.0
    return float(samples[min(len(samples) - 1, int(q * len(samples)))])


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# Counters: (counts, wrapped call's args, result) -> None.
def _slots(counts, args, result):
    counts["engine.slots_attended"] += len(result.row)


def _cursor(counts, args, result):
    state = getattr(args[0], "state", None)  # only tree policies have a cursor
    if state is not None and state.idx == 1:
        counts["policies.cursor_wraps"] += 1


def _retained(counts, args, result):
    counts["policies.retained_ints"] += sum(
        len(cell) for record in result.steps for row in record.retained for cell in row
    )


def _blocks(counts, args, result):
    partition = args[0]
    counts["prefill.blocks_evicted"] += len(partition.content_blocks) - (len(result) - 1)


def _trace_written(counts, args, result):
    counts["trace.bytes_written"] += os.path.getsize(args[1])


def _trace_read(counts, args, result):
    counts["trace.bytes_read"] += os.path.getsize(args[0])


def _signals(counts, args, result):
    counts["wavelet.signals"] += result.signal_count


def _normals(counts, args, result):
    counts["rng.normals_drawn"] += len(result)


# (module, [Class.]attribute, span, counter) of every traced entry point.
TARGETS = [
    ("engine", "AttentionStream.step", "engine.stream_step", _slots),
    ("engine", "project", "engine.project", None),
    ("engine", "apply_positions", "engine.apply_positions", None),
    ("engine", "KVCache.append", "engine.kv_append", None),
    ("engine", "KVCache.evict", "engine.kv_evict", None),
    *(("engine", name, "engine.weights_io", None) for name in
      ("generate_weights", "save_weights", "load_weights", "synthesize_embeddings")),
    ("policies", "update_scores", "policies.update_scores", None),
    *(("policies", f"{policy}.evict", "policies.evict", _cursor) for policy in
      ("TreeKV", "StreamingLLM", "H2O", "TOVA", "FullAttention")),
    ("policies", "decode_with_policy", "policies.decode_self", _retained),
    ("prefill", "observation_scores", "prefill.observation_scores", None),
    ("prefill", "treekv_prefill_compress", "prefill.compress", _blocks),
    ("trace", "write_trace", "trace.write", _trace_written),
    ("trace", "read_trace", "trace.read", _trace_read),
    ("trace", "validate_trace", "trace.validate", None),
    ("trace", "distribution_map", "trace.distribution_map", None),
    ("trace", "signals_at_step", "trace.signals_at_step", None),
    ("wavelet", "magnitude_profile", "wavelet.profile", _signals),
    ("wavelet", "dwt_multi", "wavelet.dwt", None),
    ("wavelet", "reconstruct_component", "wavelet.reconstruct", None),
    ("rng", "NormalStream.normals", "rng.normals", _normals),
    ("cli", "main", "cli.main", None),
    *(("cli", f"cmd_{name}", f"cli.{name}", None) for name in CLI_COMMANDS),
]


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced entry point of the loaded package through tracer.

    A module-level function is replaced in every treekv module that imported
    it by name, so calls through ``from .x import f`` are traced too.  An
    entry point that a later version of the package no longer has is
    skipped, and its metrics read 0.
    """
    import treekv.cli  # noqa: F401 - loads every module the CLI uses

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "treekv" or name.startswith("treekv."))]
    undo = []
    try:
        for module, path, span, count in TARGETS:
            *classes, attr = path.split(".")
            owner = sys.modules.get(f"treekv.{module}")
            for name in classes:
                owner = getattr(owner, name, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapped = tracer.wrap(span, original, count)
            holders = [owner] if classes else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
