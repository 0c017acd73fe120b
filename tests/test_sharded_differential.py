"""Differential sweep: the engine at N shards vs. the same engine at N=1.

Property: for ANY star schema, fact data, materialized lattice subset,
and slice-query set, a :class:`~repro.core.engine.CubetreeEngine` at
N ∈ {2, 3, 5} shards answers bit-for-bit what the one-shard engine
answers, across the full load → query → batch → update → query →
checkpoint → recover lifecycle.  Every shard count's batch answers
equal its own serial answers.  The one-shard oracle is itself checked
against on-the-fly recomputation in ``tests/test_differential.py``.

Every engine runs a **mirrored lifecycle** (fresh engine, same
operation order) — the cost model's accumulator is position-dependent
in the last float ulp, so only identical histories compare exactly.

Example count scales with ``REPRO_DIFF_EXAMPLES`` (default 200 locally;
CI sets a smaller smoke profile).
"""

import os
from itertools import combinations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.engine import CubetreeEngine
from repro.core.persistence import load_any_engine, save_database
from repro.obs import get_registry
from repro.query.slice import SliceQuery
from repro.relational.view import ViewDefinition
from repro.rtree.node import leaf_capacity
from repro.warehouse.star import Dimension, StarSchema

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "200"))

SHARD_COUNTS = (1, 2, 3, 5)

#: Candidate fact-key names (2-3 are drawn per schema).
KEY_NAMES = ("ka", "kb", "kc")


def _make_schema(domain_sizes):
    dimensions = {}
    for name, size in domain_sizes.items():
        dimensions[name] = Dimension(
            name=f"dim_{name}",
            key=name,
            attributes=(name,),
            rows=[(value,) for value in range(1, size + 1)],
        )
    return StarSchema(
        fact_keys=tuple(domain_sizes),
        measure="quantity",
        dimensions=dimensions,
    )


@st.composite
def warehouses(draw):
    """A random star schema plus fact rows (integer-valued measures)."""
    n_keys = draw(st.integers(min_value=2, max_value=3))
    keys = KEY_NAMES[:n_keys]
    domain_sizes = {
        key: draw(st.integers(min_value=2, max_value=6)) for key in keys
    }
    rows = draw(
        st.lists(
            st.tuples(
                *[
                    st.integers(min_value=1, max_value=domain_sizes[key])
                    for key in keys
                ],
                st.integers(min_value=0, max_value=20),
            ),
            min_size=2,
            max_size=50,
        )
    )
    # Integer-valued float quantities: float sums stay exact, so the
    # engines' answers can be compared with ==.
    facts = [tuple(row[:-1]) + (float(row[-1]),) for row in rows]
    return domain_sizes, facts


@st.composite
def view_subsets(draw, keys):
    """The apex + V_none + a random subset of the proper lattice nodes."""
    nodes = [("apex", tuple(keys)), ("none", ())]
    middles = [
        node
        for size in range(1, len(keys))
        for node in combinations(keys, size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(middles), unique=True, max_size=len(middles))
        if middles
        else st.just([])
    )
    nodes.extend((f"v_{'_'.join(node)}", node) for node in chosen)
    return [ViewDefinition(name, group_by) for name, group_by in nodes]


@st.composite
def slice_queries(draw, domain_sizes):
    """A random slice query over the schema's fact keys."""
    keys = list(domain_sizes)
    node = draw(
        st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))
    )
    bound = draw(
        st.lists(st.sampled_from(node), unique=True, max_size=len(node))
        if node
        else st.just([])
    )
    bindings = []
    ranges = []
    for attr in bound:
        size = domain_sizes[attr]
        if draw(st.booleans()):
            bindings.append(
                (attr, draw(st.integers(min_value=1, max_value=size)))
            )
        else:
            low = draw(st.integers(min_value=1, max_value=size))
            high = draw(st.integers(min_value=low, max_value=size))
            ranges.append((attr, low, high))
    group_by = tuple(a for a in node if a not in set(bound))
    return SliceQuery(group_by, tuple(bindings), tuple(ranges))


@st.composite
def differential_cases(draw):
    domain_sizes, facts = draw(warehouses())
    views = draw(view_subsets(tuple(domain_sizes)))
    queries = draw(
        st.lists(slice_queries(domain_sizes), min_size=1, max_size=4)
    )
    return domain_sizes, facts, views, queries


def _io_record(io):
    return (
        io.sequential_reads,
        io.random_reads,
        io.sequential_writes,
        io.random_writes,
        io.simulated_ms,
        io.overhead_ms,
    )


def _lifecycle(engine, views, initial, delta, queries):
    """One mirrored lifecycle; returns (rows trace, io trace, batch).

    The batch leg answers every query four times over, so each routed
    view has enough queries for the cost gate to consider a shared pass;
    each batch answer must equal the serial answer just before it.
    """
    rows_trace = []
    io_trace = []
    load = engine.materialize(views, initial)
    io_trace.append(_io_record(load.phases["views"].io))
    for query in queries:
        result = engine.query(query)
        rows_trace.append(result.rows)
        io_trace.append(_io_record(result.io))
    batch = engine.query_batch(list(queries) * 4)
    assert [result.rows for result in batch.results] == rows_trace * 4
    update = engine.update(delta)
    rows_trace.append(update.rows_applied)
    io_trace.append(_io_record(update.io))
    for query in queries:
        result = engine.query(query)
        rows_trace.append(result.rows)
        io_trace.append(_io_record(result.io))
    return rows_trace, io_trace, batch


def _split(facts):
    split = len(facts) // 2
    return facts[:split] or facts, facts[split:] or facts


@given(differential_cases())
@settings(max_examples=EXAMPLES, deadline=None)
def test_sharded_lifecycle_matches_single_engine(case):
    """Rows identical at every N, batches included; simulated I/O
    identical across mirrored one-shard runs."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    initial, delta = _split(facts)

    base = CubetreeEngine(schema, buffer_pages=64)
    base_rows, base_io, _ = _lifecycle(base, views, initial, delta, queries)

    for num_shards in SHARD_COUNTS:
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        rows, io, _batch = _lifecycle(engine, views, initial, delta, queries)
        assert rows == base_rows, f"N={num_shards}"
        if num_shards == 1:
            assert io == base_io, "N=1 must be deterministic"


def test_batch_leg_takes_shared_passes_at_every_n():
    """A fixed case whose batch the cost gate shares: the scatter-gather
    group pass (with aggregate pushdown requested) answers at every N."""
    domain_sizes = {"ka": 6, "kb": 5}
    facts = [
        (1 + (i * 7) % 6, 1 + (i * 3) % 5, float(i % 11)) for i in range(48)
    ]
    views = [
        ViewDefinition("apex", ("ka", "kb")),
        ViewDefinition("none", ()),
        ViewDefinition("v_kb", ("kb",)),
    ]
    queries = [
        SliceQuery(("ka",), (("kb", 2),)),
        SliceQuery((), (("ka", 3),)),
        SliceQuery((), (), (("ka", 2, 5),)),
        SliceQuery(("kb",), ()),
    ]
    schema = _make_schema(domain_sizes)
    initial, delta = _split(facts)
    base = CubetreeEngine(schema, buffer_pages=64)
    base_rows, _io, _ = _lifecycle(base, views, initial, delta, queries)
    for num_shards in SHARD_COUNTS:
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        rows, _io, batch = _lifecycle(engine, views, initial, delta, queries)
        assert rows == base_rows, f"N={num_shards}"
        assert batch.batched > 0, f"N={num_shards}"


def test_point_bound_total_query_takes_pushdown_at_three_shards():
    """A total query with a point bound on the routed view's leading
    coordinate resolves to one shard, so it folds there (aggregate
    pushdown) and answers what N=1 answers.

    ``v_ka`` holds exactly one full leaf per shard at N=3, so the router
    prices the run scan below the classic scan at both shard counts.
    """
    domain = 3 * leaf_capacity(1, 1)
    facts = [(v, 1 + v % 4, float(v % 13)) for v in range(1, domain + 1)]
    views = [
        ViewDefinition("apex", ("ka", "kb")),
        ViewDefinition("none", ()),
        ViewDefinition("v_ka", ("ka",)),
    ]
    schema = _make_schema({"ka": domain, "kb": 4})
    pushdowns = get_registry().counter("query.cubetree.pushdowns")
    answers = {}
    for num_shards in (1, 3):
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        engine.materialize(views, facts)
        answers[num_shards] = []
        for value in (1, 2, 3, domain // 2, domain):
            before = pushdowns.value
            result = engine.query(SliceQuery((), (("ka", value),)), fast=True)
            assert "[run]" in result.plan, (num_shards, result.plan)
            assert pushdowns.value == before + 1, (num_shards, value)
            answers[num_shards].append(result.rows)
    assert answers[3] == answers[1]


@given(differential_cases())
@settings(max_examples=max(10, EXAMPLES // 10), deadline=None)
def test_sharded_checkpoint_recover_matches(tmp_path_factory, case):
    """Checkpoint → recover preserves every shard count's answers."""
    domain_sizes, facts, views, queries = case
    schema = _make_schema(domain_sizes)
    initial, delta = _split(facts)

    base = CubetreeEngine(schema, buffer_pages=64)
    base.materialize(views, initial)
    base.update(delta)
    expected = [base.query(q).rows for q in queries]

    for num_shards in (1, 3):
        engine = CubetreeEngine(schema, buffer_pages=64, shards=num_shards)
        engine.materialize(views, initial)
        engine.update(delta)
        directory = str(
            tmp_path_factory.mktemp(f"sharded-diff-n{num_shards}")
        )
        save_database(engine, directory)
        recovered = load_any_engine(directory)
        assert recovered.view_sizes() == base.view_sizes()
        got = [recovered.query(q).rows for q in queries]
        assert got == expected, f"N={num_shards}"
