"""Sharded Cubetree storage: the partitioning rule and the scatter-gather
forest every :class:`~repro.core.engine.CubetreeEngine` queries through.

An engine with ``shards=N`` partitions every materialized view by the
residue of its *leading group coordinate* modulo ``N`` — the same
first-coordinate split :class:`~repro.cube.parallel.ParallelCubeComputation`
proved bit-identical under merge — so a group row lives in exactly one
shard and no aggregate state is ever split.  Each :class:`Shard` is an
independent Cubetree forest with its own
:class:`~repro.storage.disk.DiskManager` and buffer pool.  ``N=1`` is the
default and the paper's single forest: one shard, one pool, and every
call below reduces to a direct call on that shard's forest.

Queries run scatter-gather through :class:`ShardedForest`.  The router
plans once against merged access paths; the binding on the routed
view's leading coordinate prunes the shard set (a point restriction hits
exactly one shard).  A slice that resolves to one shard runs there
untouched — including aggregate pushdown.  Several target shards return
partial match streams that are k-way merged back into the exact serial
packing order, so the float fold order of
:func:`~repro.core.answer.finalize_matches` is preserved bit-for-bit;
pushdown is skipped there, since folding per shard would reorder the
float sums.
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.cubetree import Cubetree
from repro.core.forest import CubetreeForest, view_access_paths
from repro.errors import QueryError
from repro.obs import get_registry
from repro.query.router import AccessPath
from repro.relational.view import ViewDefinition
from repro.rtree.packing import sort_key
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.iomodel import IOStats

Row = Tuple[object, ...]
Match = Tuple[Tuple[int, ...], Tuple[float, ...]]
Values = Tuple[float, ...]

_OBS_SHARDS_TOUCHED = get_registry().counter(
    "query.cubetree.shards_touched"
)


# ----------------------------------------------------------------------
# the partitioning rule (one place; fsck re-checks it on disk)
# ----------------------------------------------------------------------
def shard_of(leading_coordinate: object, num_shards: int) -> int:
    """Home shard of a group row: leading coordinate mod N."""
    return int(leading_coordinate) % num_shards  # type: ignore[call-overload]


def partition_state_rows(
    view: ViewDefinition, rows: Sequence[Row], num_shards: int
) -> List[List[Row]]:
    """Split one view's state rows across shards, order preserved.

    Arity-0 views (the apex) have no leading coordinate; their single
    row lives in shard 0 by convention.
    """
    if num_shards == 1:
        return [list(rows)]
    parts: List[List[Row]] = [[] for _ in range(num_shards)]
    if view.arity == 0:
        parts[0] = list(rows)
        return parts
    for row in rows:
        parts[shard_of(row[0], num_shards)].append(row)
    return parts


def shard_targets(num_shards: int, bound: object) -> List[int]:
    """Shard indices whose residues can satisfy a leading-coordinate bound.

    ``bound`` is the direct binding on the routed view's leading group
    attribute: ``None`` (unrestricted), a point value, or a closed
    ``(low, high)`` range.  A point hits exactly one shard; a range
    narrower than N hits only the residues it covers.
    """
    if num_shards == 1:
        return [0]
    if bound is None:
        return list(range(num_shards))
    if isinstance(bound, tuple):
        low, high = int(bound[0]), int(bound[1])
    else:
        low = high = int(bound)  # type: ignore[call-overload]
    width = high - low + 1
    if width <= 0:
        return []
    if width >= num_shards:
        return list(range(num_shards))
    return sorted({(low + offset) % num_shards for offset in range(width)})


def combine_io(deltas: Sequence[IOStats]) -> IOStats:
    """Critical-path combination of per-shard I/O deltas.

    Counters sum (total device work), but the simulated milliseconds are
    the *max* over shards: shards are independent devices working in
    parallel, so elapsed simulated time is the slowest shard's, not the
    sum.  With one shard this is exactly that shard's stats.
    """
    if len(deltas) == 1:
        return deltas[0]
    combined = IOStats()
    for delta in deltas:
        combined.sequential_reads += delta.sequential_reads
        combined.random_reads += delta.random_reads
        combined.sequential_writes += delta.sequential_writes
        combined.random_writes += delta.random_writes
        combined.simulated_ms = max(combined.simulated_ms, delta.simulated_ms)
        combined.overhead_ms = max(combined.overhead_ms, delta.overhead_ms)
    return combined


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------
class Shard:
    """One partition: its own disk, pool, and Cubetree forest."""

    __slots__ = ("index", "disk", "pool", "forest", "routed_queries")

    def __init__(
        self,
        index: int,
        buffer_pages: int,
        pool_cls: Optional[Type[BufferPool]] = None,
        disk: Optional[DiskManager] = None,
    ) -> None:
        self.index = index
        self.disk = disk if disk is not None else DiskManager()
        pool_factory = BufferPool if pool_cls is None else pool_cls
        self.pool = pool_factory(self.disk, capacity=buffer_pages)
        self.forest: Optional[CubetreeForest] = None
        #: Slice executions routed to this shard (scatter-gather skew).
        self.routed_queries = 0

    def require_forest(self) -> CubetreeForest:
        if self.forest is None:  # pragma: no cover - defensive
            raise QueryError(f"shard {self.index} has no forest yet")
        return self.forest


class ShardedForest:
    """The scatter-gather facade over the per-shard Cubetree forests.

    Presents the query surface :func:`repro.query.batch.execute_batch`
    and the engine need — ``access_paths``/``view_definition``/
    ``has_run``/``can_fold``/``query_view``/``query_view_aggregate``/
    ``query_view_group`` — while fanning executions across shards and
    merging partial match streams back into global packing order.  Every
    per-shard execution goes through that shard's
    :class:`~repro.core.forest.CubetreeForest`.
    """

    def __init__(self, shards: Sequence[Shard]) -> None:
        if not shards:
            raise ValueError("a sharded forest needs at least one shard")
        self.shards = list(shards)
        self._paths: Optional[List[AccessPath]] = None

    # -- catalog delegation (identical across shards) -------------------
    def view_names(self) -> List[str]:
        return self.shards[0].require_forest().view_names()

    def view_definition(self, view_name: str) -> ViewDefinition:
        return self.shards[0].require_forest().view_definition(view_name)

    def tree_dims(self, view_name: str) -> int:
        return self.shards[0].require_forest().tree_dims(view_name)

    @property
    def cubetrees(self) -> List[Cubetree]:
        """Every Cubetree of every shard, in (shard, tree) order."""
        return [
            tree
            for shard in self.shards
            for tree in shard.require_forest().cubetrees
        ]

    @property
    def num_trees(self) -> int:
        """Cubetrees per shard (the SelectMapping forest size)."""
        return self.shards[0].require_forest().num_trees

    def invalidate(self) -> None:
        """Drop cached routing paths after a build/update."""
        self._paths = None

    # -- shard pruning --------------------------------------------------
    def target_shards(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> List[Shard]:
        """Shards whose residue can match the leading-coordinate binding."""
        if len(self.shards) == 1:
            return [self.shards[0]]
        view = self.view_definition(view_name)
        if view.arity == 0:
            return [self.shards[0]]
        bound = bindings.get(view.group_by[0])
        return [
            self.shards[index]
            for index in shard_targets(len(self.shards), bound)
        ]

    def can_fold(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> bool:
        """True when aggregate pushdown keeps the serial answer.

        The slice must resolve to exactly one shard (always at N=1; a
        point bound on the leading coordinate at N>1) and that shard must
        hold a leaf run for the view.  Across several shards the partial
        folds would combine in a different float order than the merged
        match stream, so those slices merge instead.
        """
        targets = self.target_shards(view_name, bindings)
        return len(targets) == 1 and targets[0].require_forest().has_run(
            view_name
        )

    # -- scatter-gather execution ---------------------------------------
    def query_view(
        self,
        view_name: str,
        bindings: Mapping[str, object],
        fast: bool = False,
    ) -> Iterator[Match]:
        """Slice one view across its target shards.

        A single target returns that shard's stream untouched.  Multiple
        targets k-way merge on the packing sort key, reproducing the
        exact order a single tree would have yielded, so downstream
        float folds are bit-identical.
        """
        targets = self._route(view_name, bindings)
        if not targets:
            return iter(())
        if len(targets) == 1:
            return targets[0].require_forest().query_view(
                view_name, bindings, fast=fast
            )
        dims = self.tree_dims(view_name)
        streams = [
            shard.require_forest().query_view(view_name, bindings, fast=fast)
            for shard in targets
        ]
        return heapq.merge(
            *streams, key=lambda match: sort_key(match[0], dims)
        )

    def query_view_aggregate(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> Optional[Tuple[Values, ...]]:
        """Fold one slice on its single target shard (see :meth:`can_fold`)."""
        targets = self._route(view_name, bindings)
        if len(targets) != 1:
            raise QueryError(
                f"aggregate pushdown needs one target shard, "
                f"{len(targets)} can hold this slice of {view_name!r}"
            )
        return targets[0].require_forest().query_view_aggregate(
            view_name, bindings
        )

    def query_view_group(
        self,
        view_name: str,
        bindings_list: Sequence[Mapping[str, object]],
        fold: Optional[Sequence[bool]] = None,
    ) -> List[object]:
        """Answer several slices of one view, one shared pass per shard.

        Every shard runs a single grouped run pass over only the bindings
        whose residue can land in it; each binding's per-shard partials
        are then merged in packing order.  ``fold`` marks slices for
        aggregate pushdown; a slice folds (its entry comes back as a
        :class:`~repro.core.cubetree.FoldedSlice`) only when it resolves
        to one shard with a leaf run, and otherwise returns its merged
        match list.
        """
        results: List[object] = [[] for _ in bindings_list]
        if not bindings_list:
            return results
        per_shard: List[List[int]] = [[] for _ in self.shards]
        folds: List[bool] = []
        for position, bindings in enumerate(bindings_list):
            targets = self.target_shards(view_name, bindings)
            for shard in targets:
                per_shard[shard.index].append(position)
            folds.append(
                fold is not None
                and fold[position]
                and len(targets) == 1
                and targets[0].require_forest().has_run(view_name)
            )
        partials: List[List[object]] = [[] for _ in bindings_list]
        for shard in self.shards:
            positions = per_shard[shard.index]
            if not positions:
                continue
            shard.routed_queries += len(positions)
            _OBS_SHARDS_TOUCHED.value += len(positions)
            forest = shard.require_forest()
            subset = [bindings_list[i] for i in positions]
            if forest.has_run(view_name):
                subfold = [folds[i] for i in positions]
                match_lists = forest.query_view_group(
                    view_name, subset, fold=subfold if any(subfold) else None
                )
            else:
                # No extent on this shard (dynamic build): per-binding
                # classic descent, still in packing order.
                match_lists = [
                    list(forest.query_view(view_name, bindings, fast=False))
                    for bindings in subset
                ]
            for position, matches in zip(positions, match_lists):
                partials[position].append(matches)
        dims = self.tree_dims(view_name)
        for position, streams in enumerate(partials):
            if len(streams) == 1:
                results[position] = streams[0]
            elif streams:
                results[position] = list(
                    heapq.merge(
                        *streams,  # type: ignore[arg-type]
                        key=lambda match: sort_key(match[0], dims),
                    )
                )
        return results

    def _route(
        self, view_name: str, bindings: Mapping[str, object]
    ) -> List[Shard]:
        """Target shards of one slice execution, counted per shard."""
        targets = self.target_shards(view_name, bindings)
        for shard in targets:
            shard.routed_queries += 1
        _OBS_SHARDS_TOUCHED.value += len(targets)
        return targets

    def has_run(self, view_name: str) -> bool:
        """True when any shard recorded a leaf-run extent for the view."""
        return any(
            shard.require_forest().has_run(view_name)
            for shard in self.shards
        )

    def protect_index_pages(self) -> int:
        """Shelter every shard's interior pages (idempotent)."""
        return sum(
            shard.require_forest().protect_index_pages()
            for shard in self.shards
        )

    # -- routing inputs -------------------------------------------------
    def access_paths(self) -> List[AccessPath]:
        """Merged router inputs: global sizes, summed run extents.

        The router plans against the *whole* view (total size, total run
        leaves); shard pruning happens afterwards, per query, from the
        decision's leading-coordinate binding.  One shard's paths are
        its forest's own.
        """
        if len(self.shards) == 1:
            return self.shards[0].require_forest().access_paths()
        if self._paths is None:

            def run_leaves(name: str) -> Optional[int]:
                counts = [
                    shard.require_forest().run_leaf_count(name)
                    for shard in self.shards
                ]
                known = [count for count in counts if count is not None]
                return sum(known) if known else None

            self._paths = view_access_paths(
                [self.view_definition(name) for name in self.view_names()],
                self.view_sizes(),
                run_leaves,
            )
        return self._paths

    # -- statistics -----------------------------------------------------
    def view_sizes(self) -> Dict[str, int]:
        """Global tuple count per view (sum of the shard partitions)."""
        if len(self.shards) == 1:
            return self.shards[0].require_forest().view_sizes()
        totals = {name: 0 for name in self.view_names()}
        for shard in self.shards:
            for name, size in shard.require_forest().view_sizes().items():
                totals[name] += size
        return totals

    @property
    def num_pages(self) -> int:
        return sum(
            shard.require_forest().num_pages for shard in self.shards
        )
