"""Per-layer metrics from a traced run's spans.

Each metric is computed over the spans of one kind of trace: query traces
(rooted at ``op.query``, ``op.batch`` or ``server.service.query``) or
refresh traces (rooted at ``op.refresh`` or ``server.service.refresh``).
Per-query figures divide by the queries the traced run answered, per
refresh figures by its refreshes.  A layer the workload does not reach
reports 0.

:data:`SHOULD_MOVE` records, for every metric, the end-to-end metric it
should move and on which workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import median
from tracing import Span, Tracer

QUERY_ROOTS = ("op.query", "op.batch", "server.service.query")
REFRESH_ROOTS = ("op.refresh", "server.service.refresh")

#: per-layer metric -> (unit, the end-to-end metric it should move, where)
SHOULD_MOVE: Dict[str, Tuple[str, str]] = {
    "query.router.route_ms": ("ms", "query_p50_ms on olap_cold"),
    "rtree.tree.search_ms": ("ms", "query_p50_ms, query_qps on olap_cold"),
    "rtree.tree.matches": ("count", "query_p50_ms, query_qps on olap_cold"),
    "rtree.node.decodes": (
        "count", "query_p50_ms on olap_cold; ~0 on olap_warm"),
    "rtree.node.decode_ms": (
        "ms", "query_p50_ms on olap_cold; ~0 on olap_warm"),
    "storage.buffer.fetches": (
        "count", "query_sim_ms, query_p50_ms on olap_cold"),
    "storage.buffer.hit_ratio": (
        "ratio", "query_sim_ms, query_p50_ms on olap_cold"),
    "storage.buffer.evictions": (
        "count", "query_sim_ms, query_p50_ms on olap_cold"),
    "storage.buffer.fetch_ms": (
        "ms", "query_sim_ms, query_p50_ms on olap_cold"),
    "storage.io.sequential_reads": ("count", "query_sim_ms on olap_cold"),
    "storage.io.random_reads": ("count", "query_sim_ms on olap_cold"),
    "storage.io.pages_written": ("count", "refresh_sim_ms on olap_warm"),
    "storage.io.refresh_reads": ("count", "refresh_sim_ms on olap_warm"),
    "core.answer.finalize_ms": ("ms", "query_p50_ms on olap_cold"),
    "core.answer.rows_per_match": ("ratio", "query_p50_ms on olap_cold"),
    "query.batch.execute_ms": ("ms", "query_qps on olap_warm"),
    "query.batch.shared_share": ("ratio", "query_qps on olap_warm"),
    "query.batch.pushdowns": ("count", "query_qps on olap_warm"),
    "cube.computation.execute_ms": (
        "ms", "refresh_p50_ms on olap_warm; setup_s"),
    "rtree.merge.merge_pack_ms": ("ms", "refresh_p50_ms on olap_warm"),
    "core.persistence.save_ms": ("ms", "refresh_p50_ms on serve_http"),
    "core.persistence.load_ms": ("ms", "refresh_p50_ms on serve_http"),
    "server.service.query_ms": ("ms", "query_p50_ms on serve_http"),
    "server.service.refresh_ms": ("ms", "refresh_p50_ms on serve_http"),
    "server.admission.wait_ms": ("ms", "query_p99_ms on serve_http"),
    "server.admission.coalesced_share": (
        "ratio", "query_p99_ms on serve_http"),
    "server.admission.peak_depth": ("count", "query_p99_ms on serve_http"),
    "server.http.client_p50_ms": ("ms", "query_p50_ms on serve_http"),
    "server.http.outside_ms": ("ms", "query_p50_ms on serve_http"),
    "trace.overhead_share": ("ratio", "(cost of tracing; no e2e metric)"),
    "trace.io_equal": ("bool", "(1 = tracing left page I/O unchanged)"),
    "trace.speed_factor": (
        "ratio", "(reference-speed factor applied to the ms figures)"),
}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(
    tracer: Tracer,
    queries: int,
    refreshes: int,
    batched: int,
    pushdowns: float,
    overhead: float,
    io_equal: bool,
    client_ms: Optional[Sequence[float]] = None,
    service_refresh_ms: Optional[Sequence[float]] = None,
    peak_depth: int = 0,
    speed: float = 1.0,
) -> Tuple[Dict[str, Tuple[float, str]], List[Dict[str, Any]]]:
    """Every per-layer metric, plus a table row per metric for the report.

    ``speed`` converts the traced pass's wall times to reference speed
    (see ``calibrate``); every ``*_ms`` figure is multiplied by it.
    """
    roots = tracer.roots()
    by_kind: Dict[str, Dict[str, List[Span]]] = {"query": {}, "refresh": {}}
    for span in tracer.spans:
        root = roots.get(span.trace)
        if root in QUERY_ROOTS:
            kind = "query"
        elif root in REFRESH_ROOTS:
            kind = "refresh"
        else:
            continue
        by_kind[kind].setdefault(span.name, []).append(span)

    def spans(kind: str, name: str) -> List[Span]:
        return by_kind[kind].get(name, [])

    def busy(kind: str, name: str) -> float:
        return sum(span.busy for span in spans(kind, name))

    def self_time(kind: str, name: str) -> float:
        return sum(span.self_time for span in spans(kind, name))

    def io(kind: str, names: Sequence[str], key: str) -> int:
        return sum(
            span.attrs[key]
            for name in names
            for span in spans(kind, name)
            if span.attrs and key in span.attrs
        )

    fetches = spans("query", "storage.buffer.fetch")
    misses = sum(span.count for span in fetches)
    evictions = sum(
        span.attrs.get("evictions", 0) for span in fetches if span.attrs
    )
    searches = spans("query", "rtree.tree.search")
    matches = sum(span.count for span in searches)
    rows_out = sum(span.count for span in spans("query", "core.answer.finalize"))
    batches = spans("query", "query.batch.execute")
    engine_q = ("engine.query", "engine.query_batch")
    service = [span.busy for span in tracer.named("server.service.query")]
    service_p50 = _ms(median(service)) if service else 0.0
    client_p50 = median(client_ms) if client_ms else 0.0
    coalesced = sum(
        span.count for span in tracer.named("engine.query_batch")
        if roots.get(span.trace) == "server.service.query"
    )
    waits = [
        span.self_time for span in tracer.named("server.admission.submit")
    ]

    values: Dict[str, float] = {
        "query.router.route_ms": _ms(_per(busy("query", "query.router.route"), queries)),
        "rtree.tree.search_ms": _ms(_per(self_time("query", "rtree.tree.search"), queries)),
        "rtree.tree.matches": _per(matches, queries),
        "rtree.node.decodes": _per(len(spans("query", "rtree.node.decode")), queries),
        "rtree.node.decode_ms": _ms(_per(busy("query", "rtree.node.decode"), queries)),
        "storage.buffer.fetches": _per(len(fetches), queries),
        "storage.buffer.hit_ratio": 1.0 - _per(misses, len(fetches)) if fetches else 0.0,
        "storage.buffer.evictions": _per(evictions, queries),
        "storage.buffer.fetch_ms": _ms(_per(busy("query", "storage.buffer.fetch"), queries)),
        "storage.io.sequential_reads": _per(io("query", engine_q, "sequential_reads"), queries),
        "storage.io.random_reads": _per(io("query", engine_q, "random_reads"), queries),
        "storage.io.pages_written": _per(io("refresh", ("engine.update",), "writes"), refreshes),
        "storage.io.refresh_reads": _per(
            io("refresh", ("engine.update",), "sequential_reads")
            + io("refresh", ("engine.update",), "random_reads"),
            refreshes,
        ),
        "core.answer.finalize_ms": _ms(_per(self_time("query", "core.answer.finalize"), queries)),
        "core.answer.rows_per_match": _per(rows_out, matches),
        "query.batch.execute_ms": _ms(_per(sum(s.busy for s in batches), len(batches))),
        "query.batch.shared_share": _per(batched, queries),
        "query.batch.pushdowns": _per(pushdowns, len(batches)),
        "cube.computation.execute_ms": _ms(_per(busy("refresh", "cube.computation.execute"), refreshes)),
        "rtree.merge.merge_pack_ms": _ms(_per(self_time("refresh", "rtree.merge.merge_pack"), refreshes)),
        "core.persistence.save_ms": _ms(_per(busy("refresh", "core.persistence.save"), refreshes)),
        "core.persistence.load_ms": _ms(_per(busy("refresh", "core.persistence.load"), refreshes)),
        "server.service.query_ms": service_p50,
        "server.service.refresh_ms": median(service_refresh_ms) if service_refresh_ms else 0.0,
        "server.admission.wait_ms": _ms(median(waits)) if waits else 0.0,
        "server.admission.coalesced_share": _per(coalesced, len(service)),
        "server.admission.peak_depth": float(peak_depth),
        "server.http.client_p50_ms": client_p50,
        "server.http.outside_ms": client_p50 - service_p50 if service else 0.0,
        "trace.overhead_share": overhead,
        "trace.io_equal": 1.0 if io_equal else 0.0,
        "trace.speed_factor": speed,
    }
    for name in values:
        if name.endswith("_ms"):
            values[name] *= speed
    metrics = {name: (values[name], SHOULD_MOVE[name][0]) for name in SHOULD_MOVE}
    table = [
        {
            "metric": name,
            "value": values[name],
            "unit": unit,
            "should_move": target,
        }
        for name, (unit, target) in SHOULD_MOVE.items()
    ]
    return metrics, table
