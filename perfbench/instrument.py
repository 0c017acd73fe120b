"""Attach a :class:`~tracing.Tracer` to the program's layer boundaries.

Each wrapper is installed by replacing the attribute the caller looks up
(a class method, or a name a module imported), and :func:`instrument`
returns the :class:`~tracing.Patches` that put the originals back.  The
wrappers only read clocks and counters; they never call into the
simulated I/O model, so a traced run performs exactly the page I/O of an
untraced one (the benchmark checks this on every traced run).

Span names, by layer::

    query.router.route       QueryRouter.route
    rtree.tree.search        CubetreeForest.query_view (lazy: timed per
                             __next__), .query_view_aggregate,
                             .query_view_group
    rtree.node.decode        RLeafNode/RInteriorNode.from_bytes
    storage.buffer.fetch     BufferPool.fetch_page (count = 1 on a miss)
    core.answer.finalize     finalize_matches / finalize_fold
    query.batch.execute      execute_batch
    cube.computation.execute ParallelCubeComputation.execute
    rtree.merge.merge_pack   merge_pack (as called by Cubetree.update)
    core.persistence.save    save_database (as called by the server)
    core.persistence.load    load_any_engine (as called by the server)
    engine.query / engine.query_batch / engine.update
                             CubetreeEngine entry points
    server.service.query     CubetreeServer.query
    server.service.refresh   CubetreeServer.refresh_now
    server.admission.submit  AdmissionQueue.submit
"""

from __future__ import annotations

import threading
from typing import Any, Dict

import repro.core.engine as engine_mod
import repro.core.cubetree as cubetree_mod
import repro.query.batch as batch_mod
import repro.server.service as service_mod
from repro.core.cubetree import FoldedSlice
from repro.core.engine import CubetreeEngine
from repro.core.forest import CubetreeForest
from repro.cube.parallel import ParallelCubeComputation
from repro.query.router import QueryRouter
from repro.rtree.node import RInteriorNode, RLeafNode
from repro.server.admission import AdmissionQueue
from repro.server.service import CubetreeServer
from repro.storage.buffer import BufferPool

from tracing import Patches, Tracer


def _io_attrs(io: Any) -> Dict[str, int]:
    return {
        "sequential_reads": io.sequential_reads,
        "random_reads": io.random_reads,
        "writes": io.writes,
    }


def instrument(tracer: Tracer) -> Patches:
    """Wrap every layer boundary listed in the module docstring."""
    patches = Patches()
    wrap = tracer.wrap

    # -- query path ---------------------------------------------------
    patches.set(
        QueryRouter, "route", wrap(QueryRouter.route, "query.router.route")
    )

    query_view = CubetreeForest.query_view

    def traced_query_view(self, *args: Any, **kwargs: Any) -> Any:
        return tracer.iterate(
            query_view(self, *args, **kwargs), "rtree.tree.search"
        )

    patches.set(CubetreeForest, "query_view", traced_query_view)
    patches.set(
        CubetreeForest,
        "query_view_aggregate",
        wrap(CubetreeForest.query_view_aggregate, "rtree.tree.search"),
    )

    query_view_group = CubetreeForest.query_view_group

    def traced_query_view_group(self, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("rtree.tree.search") as span:
            results = query_view_group(self, *args, **kwargs)
            span.count = sum(
                len(entry) for entry in results
                if not isinstance(entry, FoldedSlice)
            )
        return results

    patches.set(CubetreeForest, "query_view_group", traced_query_view_group)

    for cls in (RLeafNode, RInteriorNode):
        patches.set(
            cls, "from_bytes",
            staticmethod(wrap(cls.from_bytes, "rtree.node.decode")),
        )

    fetch_page = BufferPool.fetch_page

    def traced_fetch_page(self, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("storage.buffer.fetch") as span:
            misses = self.stats.misses
            evictions = self.stats.evictions
            page = fetch_page(self, *args, **kwargs)
            span.count = self.stats.misses - misses
            if self.stats.evictions != evictions:
                span.attrs = {"evictions": self.stats.evictions - evictions}
        return page

    patches.set(BufferPool, "fetch_page", traced_fetch_page)

    def traced_finalize(fn: Any) -> Any:
        def finalize(*args: Any, **kwargs: Any) -> Any:
            with tracer.span("core.answer.finalize") as span:
                rows = fn(*args, **kwargs)
                span.count = len(rows)
            return rows

        return finalize

    for module in (engine_mod, batch_mod):
        patches.set(
            module, "finalize_matches",
            traced_finalize(module.finalize_matches),
        )
        patches.set(
            module, "finalize_fold",
            wrap(module.finalize_fold, "core.answer.finalize"),
        )
    patches.set(
        batch_mod, "execute_batch",
        wrap(batch_mod.execute_batch, "query.batch.execute"),
    )

    # -- refresh path -------------------------------------------------
    patches.set(
        ParallelCubeComputation, "execute",
        wrap(ParallelCubeComputation.execute, "cube.computation.execute"),
    )
    patches.set(
        cubetree_mod, "merge_pack",
        wrap(cubetree_mod.merge_pack, "rtree.merge.merge_pack"),
    )
    patches.set(
        service_mod, "save_database",
        wrap(service_mod.save_database, "core.persistence.save"),
    )
    patches.set(
        service_mod, "load_any_engine",
        wrap(service_mod.load_any_engine, "core.persistence.load"),
    )

    # -- engine entry points ------------------------------------------
    # The admission executor answers queries on its own thread; the span
    # of the submit that enqueued a query becomes the parent of the
    # engine span that answers it, so the submit's self time is the wait.
    submitted: Dict[int, Any] = {}
    submitted_lock = threading.Lock()

    def parent_of(query: Any) -> Any:
        with submitted_lock:
            return submitted.get(id(query))

    engine_query = CubetreeEngine.query

    def traced_engine_query(self, query: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("engine.query", parent_of(query)) as span:
            result = engine_query(self, query, *args, **kwargs)
            span.attrs = _io_attrs(result.io)
        return result

    engine_batch = CubetreeEngine.query_batch

    def traced_engine_batch(self, queries: Any, *args: Any, **kwargs: Any) -> Any:
        parents = [parent_of(query) for query in queries]
        with tracer.span("engine.query_batch", parents[0] if parents else None) as span:
            batch = engine_batch(self, queries, *args, **kwargs)
            span.count = len(queries)
            span.attrs = _io_attrs(batch.io)
        # Every coalesced query waited for the whole batch.
        for parent in parents[1:]:
            if parent is not None:
                parent.child += span.busy
        return batch

    engine_update = CubetreeEngine.update

    def traced_engine_update(self, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("engine.update") as span:
            report = engine_update(self, *args, **kwargs)
            span.attrs = _io_attrs(report.io)
        return report

    patches.set(CubetreeEngine, "query", traced_engine_query)
    patches.set(CubetreeEngine, "query_batch", traced_engine_batch)
    patches.set(CubetreeEngine, "update", traced_engine_update)

    # -- serving ------------------------------------------------------
    patches.set(
        CubetreeServer, "query",
        wrap(CubetreeServer.query, "server.service.query"),
    )
    patches.set(
        CubetreeServer, "refresh_now",
        wrap(CubetreeServer.refresh_now, "server.service.refresh"),
    )

    submit = AdmissionQueue.submit

    def traced_submit(self, handle: Any, query: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("server.admission.submit") as span:
            with submitted_lock:
                submitted[id(query)] = span
            try:
                return submit(self, handle, query, *args, **kwargs)
            finally:
                with submitted_lock:
                    submitted.pop(id(query), None)

    patches.set(AdmissionQueue, "submit", traced_submit)
    return patches
