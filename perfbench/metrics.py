"""Metric names, units and how each is derived from a run.

:data:`END_TO_END` and :data:`PER_LAYER` are the lists
``BENCHMARK.json`` declares; ``perfbench/tests`` keeps the two in step.
Per-layer counts and self times are *per operation* (query, commit) so
that runs of different lengths compare; ``.ms`` figures are per call.
Every time is scaled to the nominal machine speed of
:class:`~perfbench.workloads.SpeedProbe`; the untraced table also prints
the raw wall-clock percentiles and the factor used.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from perfbench.layers import SpanRecorder
from perfbench.workloads import RunResult, percentile, ratio

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "page_requests_per_query": ("1/op", "lower"),
    "ok_frac": ("ratio", "higher"),
    "rss_peak_mb": ("MB", "lower"),
}

#: Spans whose call count and self time are reported per operation.
COUNTED_SPANS = (
    "storage.pager.read.data",
    "storage.pager.read.index_leaf",
    "storage.pager.read.index_internal",
    "storage.buffer.fetch",
    "storage.deferred.drain",
    "storage.sequences.get_subsequence",
    "index.rstar.read_node",
    "index.rstar.insert",
    "engines.queues.expand_node",
    "engines.scheduling.select",
    "core.lower_bounds.batch_lower_bounds",
    "core.lower_bounds.batch_lower_bounds_znorm",
    "core.lower_bounds.lb_keogh_pow",
    "core.distance.dtw_pow",
    "core.normalize.znormalize",
    "core.normalize.rolling_stats",
    "core.envelope.query_envelope",
    "storage.wal.append",
    "storage.wal.sync",
    "storage.wal.commit",
)

#: Spans reported by self time only.
SELF_ONLY_SPANS = (
    "engines.ru-cost.search",
    "engines.ru.search",
    "engines.hlmj.search",
    "engines.hlmj-wg.search",
    "engines.range.search",
    "engines.stream.search",
    "ingest.commit",
    "shard.executor.run",
    "shard.merge",
)

#: Spans reported as mean inclusive milliseconds per call.
PER_CALL_SPANS = {
    "storage.persistence.save_database.ms": "storage.persistence.save_database",
    "storage.persistence.load_database.ms": "storage.persistence.load_database",
    "ingest.checkpoint.ms": "ingest.checkpoint",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for span in COUNTED_SPANS:
        units[f"{span}.calls"] = "1/op"
        units[f"{span}.self_ms"] = "ms/op"
    for span in ("core.lower_bounds.batch_lower_bounds", "core.lower_bounds.batch_lower_bounds_znorm"):
        units[f"{span}.rows"] = "1/op"
    units["storage.deferred.drain.batch_mean"] = "1/call"
    for span in SELF_ONLY_SPANS:
        units[f"{span}.self_ms"] = "ms/op"
    for name in PER_CALL_SPANS:
        units[name] = "ms"
    units.update(
        {
            "storage.pager.pages_per_query": "1/op",
            "storage.buffer.hit_ratio": "ratio",
            "storage.buffer.evictions": "1/op",
            "storage.buffer.retries": "1/op",
            "engines.candidates_per_query": "1/op",
            "engines.lb_prune_ratio": "ratio",
            "engines.dtw_per_candidate": "ratio",
            "storage.wal.bytes_per_input_byte": "B/B",
            "ingest.recover.ms": "ms",
            "ingest.recover.replay_ms": "ms",
            "shard.subquery.max_ms": "ms",
            "shard.straggler_ratio": "ratio",
            "serve.queue.wait_p50_ms": "ms",
            "serve.queue.wait_p90_ms": "ms",
            "serve.exec_p50_ms": "ms",
            "serve.queue.depth_max": "count",
            "serve.rejected": "count",
            "serve.shed": "count",
            "serve.partial": "count",
            "serve.pages_per_query_alone": "1/op",
            "serve.pages_per_query_served": "1/op",
            "loadgen.late_p99_ms": "ms",
            "layers.unattributed_ms": "ms/op",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


#: name -> unit for the traced run.
PER_LAYER: Dict[str, str] = _per_layer_units()


def end_to_end(setups: List[float], run: RunResult) -> Dict[str, Tuple[float, str]]:
    """The gated metrics, plus the workload's own figures after them."""
    tally = run.tally
    speed = run.speed
    # One closed-loop client: queries per second of its time in calls.
    queries_per_s = ratio(len(run.query_latencies), run.client_s) / speed
    p50 = 1000 * percentile(run.query_latencies, 50)
    p90 = 1000 * percentile(run.query_latencies, 90)
    out = {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "query_p50_ms": (p50 * speed, "ms"),
        "query_p90_ms": (p90 * speed, "ms"),
        "queries_per_s": (queries_per_s, "1/s"),
        "page_requests_per_query": (ratio(tally.logical_reads, tally.queries), "1/op"),
        "ok_frac": (1.0 - ratio(run.failed, run.attempted), "ratio"),
        "rss_peak_mb": (run.rss_peak_mb, "MB"),
    }
    extra = {
        "pages_per_query": (ratio(tally.page_accesses, tally.queries), "1/op"),
        "failed_frac": (ratio(run.failed, run.attempted), "ratio"),
        "query_samples": (float(len(run.query_latencies)), "count"),
        "speed_factor": (speed, "ratio"),
        "query_p50_wall_ms": (p50, "ms"),
        "query_p90_wall_ms": (p90, "ms"),
    }
    extra.update(run.extra)
    return {**out, **extra}


def per_layer(
    recorder: SpanRecorder, run: RunResult, untraced: RunResult
) -> Dict[str, Tuple[float, str]]:
    ops = max(1, run.ops)
    ms = 1000 * run.speed  # seconds to nominal-speed milliseconds
    totals = recorder.layers.get
    values: Dict[str, float] = {}

    for span in COUNTED_SPANS + SELF_ONLY_SPANS:
        t = totals(span)
        calls, self_s, items = (t.calls, t.self_s, t.items) if t else (0, 0.0, 0)
        if span in COUNTED_SPANS:
            values[f"{span}.calls"] = calls / ops
        values[f"{span}.self_ms"] = ms * self_s / ops
        if span.startswith("core.lower_bounds.batch_lower_bounds"):
            values[f"{span}.rows"] = items / ops
        if span == "storage.deferred.drain":
            values[f"{span}.batch_mean"] = ratio(items, calls)
    for name, span in PER_CALL_SPANS.items():
        t = totals(span)
        values[name] = ms * ratio(t.total_s, t.calls) if t else 0.0

    tally = run.tally
    buffers = run.buffers
    values["storage.pager.pages_per_query"] = ratio(tally.page_accesses, tally.queries)
    values["storage.buffer.hit_ratio"] = ratio(buffers.hits, buffers.hits + buffers.misses)
    values["storage.buffer.evictions"] = buffers.evictions / ops
    values["storage.buffer.retries"] = buffers.retries / ops
    values["engines.candidates_per_query"] = ratio(tally.candidates, tally.queries)
    values["engines.lb_prune_ratio"] = ratio(tally.lb_pruned, tally.lb_keogh)
    values["engines.dtw_per_candidate"] = ratio(tally.dtw, tally.candidates)

    load = totals("storage.persistence.load_database")
    recover_ms = run.layers.get("ingest.recover.ms", (0.0, "ms"))[0]
    values["ingest.recover.replay_ms"] = (
        recover_ms - ms * load.total_s if load and recover_ms else 0.0
    )
    fanouts = [d for d in recorder.fanouts if d]
    values["shard.subquery.max_ms"] = (
        ms * statistics.fmean(max(d) for d in fanouts) if fanouts else 0.0
    )
    values["shard.straggler_ratio"] = (
        statistics.fmean(max(d) / statistics.fmean(d) for d in fanouts) if fanouts else 0.0
    )
    values["serve.queue.depth_max"] = float(recorder.queue_depth_max)
    values["layers.unattributed_ms"] = ms * (run.busy_s - recorder.thread_self_s["op"]) / ops
    values["trace.overhead_ratio"] = ratio(
        run.busy_s * run.speed, untraced.busy_s * untraced.speed
    )
    for name, (value, _) in run.layers.items():
        values[name] = value
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
