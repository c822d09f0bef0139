"""Per-layer metrics for the traced run.

:func:`install` wraps the public functions each layer exposes; the
engine itself carries no benchmark code.  :func:`layer_metrics`
turns the recorded spans, the caches' own counters and the residency
report into the per-layer figures named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import os
import threading
from typing import Any, Dict, List, Optional, Sequence

from perfbench.stats import percentile
from perfbench.tracer import Span, Tracer, outermost, self_times
from repro.analysis.cost_models import c_e_best, c_e_worst
from repro.boolean.reduction import reduction_cache_stats
from repro.kernels import compile_cache_stats
from perfbench.workloads import CARDINALITY, WRITE_BATCH_ROWS


def _evaluate_name(args: tuple, kwargs: dict, result: Any) -> str:
    planes = args[1] if len(args) > 1 else kwargs["planes"]
    kind = {
        "PlaneSet": "packed",
        "MappedPlaneSet": "mapped",
        "CompressedPlaneSet": "compressed",
    }.get(type(planes).__name__, "other")
    return f"kernels.evaluate.{kind}"


def _compact_name(args: tuple, kwargs: dict, result: Any) -> Optional[str]:
    # Only a compaction that folded something counts as one.
    return "index.compact" if result else None


#: (module, class or None for a module function, attribute, span name).
#: ``reduce_values_cached`` and ``compile_function`` are wrapped where
#: ``encoded_bitmap`` looks them up; ``reduce_values`` where the
#: reduction cache calls it on a miss, which is one Quine–McCluskey run.
PATCHES = (
    ("repro.query.planner", "Planner", "plan", "query.plan"),
    ("repro.query.planner", "Planner", "plan_many", "query.plan"),
    ("repro.index.encoded_bitmap", None, "reduce_values_cached", "boolean.reduce"),
    ("repro.boolean.reduction", None, "reduce_values", "boolean.qm"),
    ("repro.index.encoded_bitmap", None, "compile_function", "kernels.compile"),
    ("repro.kernels.compiler", "CompiledKernel", "evaluate", _evaluate_name),
    ("repro.index.base", "Index", "lookup", "index.lookup"),
    ("repro.index.encoded_bitmap", "EncodedBitmapIndex", "compact", _compact_name),
    ("repro.shard.executor", None, "run_partition_batch", "shard.partition"),
    ("repro.shard.executor", "ParallelExecutor", "execute_many", "shard.execute_many"),
    ("repro.shard.residency", "ResidencyManager", "acquire", "shard.acquire"),
    ("repro.shard.residency", "ResidencyManager", "prefetch", "shard.prefetch"),
    ("repro.database", "Database", "query", "database.query"),
    ("repro.database", None, "cache_key", "serving.cache_lookup"),
    ("repro.serving.result_cache", "ResultCache", "lookup", "serving.cache_lookup"),
    ("repro.storage.wal", "FileWriteAheadLog", "append", "storage.wal_append"),
    ("repro.table.table", "Table", "append_rows", "table.append_rows"),
    ("repro.shard.partition", "PartitionedTable", "append_rows", "table.append_rows"),
    ("repro.query.executor", "QueryResult", "row_ids", "bitmap.materialise"),
    ("repro.bitmap.bitvector", "BitVector", "concat", "bitmap.concat"),
    ("repro.database", "Database", "create_index", "database.create_index"),
    ("repro.database", "Database", "reorder", "database.reorder"),
    ("repro.database", "Database", "save", "database.save"),
)

#: Per-layer metric name -> unit, in the order ``BENCHMARK.json`` lists them.
UNITS = {
    "query.plan_calls_per_read": "count",
    "query.plan_ms": "ms",
    "boolean.qm_calls_per_read": "count",
    "boolean.reduce_ms": "ms",
    "boolean.reduction_hit_ratio": "1",
    "kernels.compile_ms": "ms",
    "kernels.compile_hit_ratio": "1",
    "kernels.evaluate_ms.packed": "ms",
    "kernels.evaluate_ms.mapped": "ms",
    "kernels.evaluate_ms.compressed": "ms",
    "kernels.vectors_accessed_per_read": "count",
    "paper.c_e_best_per_read": "count",
    "paper.c_e_worst_per_read": "count",
    "index.lookup_ms": "ms",
    "index.compactions": "count",
    "index.compact_ms": "ms",
    "shard.partition_ms": "ms",
    "shard.orchestration_ms": "ms",
    "shard.acquire_ms": "ms",
    "shard.prefetch_ms": "ms",
    "shard.faults_per_read": "count",
    "shard.page_reads_physical_per_read": "count",
    "shard.peak_resident_bytes": "B",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p95": "ms",
    "serving.service_ms_p50": "ms",
    "serving.cache_hit_ratio": "1",
    "serving.cache_lookup_ms": "ms",
    "serving.gen_late_ms_p95": "ms",
    "storage.wal_append_ms": "ms",
    "storage.wal_bytes_per_row": "B",
    "table.append_rows_ms": "ms",
    "bitmap.materialise_ms": "ms",
    "bitmap.concat_ms": "ms",
    "database.create_index_s": "s",
    "database.reorder_s": "s",
    "database.save_s": "s",
    "baseline.numpy_scan_ms": "ms",
    "trace.overhead_pct": "%",
    "run.error_rate": "1",
    "run.steal_pct": "%",
}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in :data:`PATCHES`."""
    for module_name, class_name, attr, name in PATCHES:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name)


def counters(db: Any, table: str) -> Dict[str, int]:
    """Cumulative cache and residency counters, diffed around a phase."""
    reduction = reduction_cache_stats()
    compiled = compile_cache_stats()
    residency = db.residency_report(table) or {}
    return {
        "reduction_hits": reduction[0],
        "reduction_misses": reduction[1],
        "compile_hits": compiled[0],
        "compile_misses": compiled[1],
        "cache_hits": db.result_cache.hits,
        "cache_misses": db.result_cache.misses,
        "faults": residency.get("faults", 0),
        "page_reads_physical": residency.get("page_reads_physical", 0),
        "peak_resident_bytes": residency.get("peak_resident_bytes", 0),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def c_e_model(spec: Sequence[tuple], partitions: int,
              cardinality: Dict[str, int]) -> tuple:
    """Section 3's best and worst vectors read for one conjunction,
    summed over its leaves and the table's partitions."""
    best = worst = 0
    for leaf in spec:
        m = cardinality[leaf[1]]
        if leaf[0] == "in":
            delta = len(leaf[2])
        elif leaf[0] == "eq":
            delta = 1
        else:
            delta = leaf[3] - leaf[2] + 1
        best += c_e_best(delta, m)
        worst += c_e_worst(m)
    return best * partitions, worst * partitions


class SpanView:
    """Aggregates over the spans of one time window."""

    def __init__(self, spans: Sequence[Span], since: float) -> None:
        self.spans = [span for span in spans if span.start >= since]
        self.own = self_times(self.spans)
        self.by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)

    def outer(self, name: str) -> List[Span]:
        return outermost(self.by_name.get(name, []), name)

    def total(self, name: str) -> float:
        """Inclusive seconds of the outermost spans called ``name``."""
        return sum(span.duration for span in self.outer(name))

    def count(self, name: str) -> int:
        return len(self.outer(name))

    def self_total(self, name: str) -> float:
        return sum(self.own[s.sid] for s in self.by_name.get(name, []))


def layer_metrics(
    *,
    tracer: Tracer,
    workload: Any,
    traced_since: float,
    reads: Sequence[Any],
    writes: int,
    before: Dict[str, int],
    after: Dict[str, int],
    setups: int,
    untraced_p50: float,
    traced_p50: float,
    scan_seconds: Dict[int, float],
    lateness: Sequence[float],
    wal_bytes: int,
    error_rate: float,
    steal: float,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`UNITS` for one traced run."""
    view = SpanView(tracer.spans, traced_since)
    setup_view = SpanView(
        [s for s in tracer.spans if s.start < traced_since], float("-inf")
    )
    done = [read for read in reads if read.error is None]
    nreads = max(1, len(done))
    per_read_ms = lambda seconds: 1e3 * seconds / nreads  # noqa: E731
    per_write_ms = lambda seconds: 1e3 * seconds / max(1, writes)  # noqa: E731
    delta = {key: after[key] - before[key] for key in before}

    partitions = workload.partitions or 1
    models = [c_e_model(workload.specs[read.spec], partitions, CARDINALITY)
              for read in done]
    queue, service = _serving_split(view.spans, reads)

    metrics = {
        "query.plan_calls_per_read": view.count("query.plan") / nreads,
        "query.plan_ms": per_read_ms(view.total("query.plan")),
        "boolean.qm_calls_per_read": view.count("boolean.qm") / nreads,
        "boolean.reduce_ms": per_read_ms(view.total("boolean.reduce")),
        "boolean.reduction_hit_ratio": _ratio(
            delta["reduction_hits"], delta["reduction_misses"]),
        "kernels.compile_ms": per_read_ms(view.total("kernels.compile")),
        "kernels.compile_hit_ratio": _ratio(
            delta["compile_hits"], delta["compile_misses"]),
        "kernels.vectors_accessed_per_read":
            sum(read.vectors for read in done) / nreads,
        "paper.c_e_best_per_read": sum(m[0] for m in models) / nreads,
        "paper.c_e_worst_per_read": sum(m[1] for m in models) / nreads,
        "index.lookup_ms": per_read_ms(view.self_total("index.lookup")),
        "index.compactions": float(view.count("index.compact")),
        "index.compact_ms": 1e3 * view.total("index.compact"),
        "shard.partition_ms": per_read_ms(view.total("shard.partition")),
        "shard.orchestration_ms":
            per_read_ms(view.self_total("shard.execute_many")),
        "shard.acquire_ms": per_read_ms(view.total("shard.acquire")),
        "shard.prefetch_ms": per_read_ms(view.total("shard.prefetch")),
        "shard.faults_per_read": delta["faults"] / nreads,
        "shard.page_reads_physical_per_read":
            delta["page_reads_physical"] / nreads,
        "shard.peak_resident_bytes": float(after["peak_resident_bytes"]),
        "serving.queue_wait_ms_p50": _p(queue, 50),
        "serving.queue_wait_ms_p95": _p(queue, 95),
        "serving.service_ms_p50": _p(service, 50),
        "serving.cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_misses"]),
        "serving.cache_lookup_ms":
            per_read_ms(view.total("serving.cache_lookup")),
        "serving.gen_late_ms_p95": _p(list(lateness), 95),
        "storage.wal_append_ms": per_write_ms(view.total("storage.wal_append")),
        "storage.wal_bytes_per_row":
            wal_bytes / max(1, writes * WRITE_BATCH_ROWS),
        "table.append_rows_ms": per_write_ms(view.total("table.append_rows")),
        "bitmap.materialise_ms": per_read_ms(view.total("bitmap.materialise")),
        "bitmap.concat_ms": per_read_ms(view.total("bitmap.concat")),
        "database.create_index_s":
            setup_view.total("database.create_index") / setups,
        "database.reorder_s": setup_view.total("database.reorder") / setups,
        "database.save_s": setup_view.total("database.save") / setups,
        "baseline.numpy_scan_ms": per_read_ms(
            sum(scan_seconds[read.spec] for read in done)),
        "trace.overhead_pct":
            100.0 * (traced_p50 / untraced_p50 - 1.0) if untraced_p50 else 0.0,
        "run.error_rate": error_rate,
        "run.steal_pct": 100.0 * steal,
    }
    for kind in ("packed", "mapped", "compressed"):
        metrics[f"kernels.evaluate_ms.{kind}"] = per_read_ms(
            view.total(f"kernels.evaluate.{kind}"))
    return {name: metrics[name] for name in UNITS}


def _p(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _serving_split(spans: Sequence[Span], reads: Sequence[Any]) -> tuple:
    """Queue wait and service time per served request, in ms.

    The single server worker takes requests first in, first out, so
    the n-th root ``database.query`` span off the client thread serves
    the n-th request the client submitted.
    """
    submitted = sorted(r.submitted_at for r in reads if r.submitted_at)
    if not submitted:
        return [], []
    client = threading.main_thread().ident
    served = sorted(
        (s for s in spans
         if s.name == "database.query" and s.parent is None
         and s.thread != client),
        key=lambda s: s.start,
    )
    queue = [1e3 * (s.start - t) for s, t in zip(served, submitted)]
    service = [1e3 * s.duration for s in served[: len(submitted)]]
    return queue, service


def wal_size(path: Optional[str]) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0
