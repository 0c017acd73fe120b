"""The benchmark's own arithmetic: self time, tail percentiles, failures."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from layers import SHOULD_MOVE, layer_metrics
from oracle import FactOracle
from stats import Outcomes, nearest_rank, tail
from tracing import Patches, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_nested_spans_subtract_children(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    with tracer.span("root") as root:
        clock.advance(1.0)
        with tracer.span("child") as child:
            clock.advance(2.0)
            with tracer.span("grandchild") as grandchild:
                clock.advance(4.0)
        clock.advance(8.0)
        with tracer.span("child") as second:
            clock.advance(16.0)
    assert root.busy == 31.0
    assert root.self_time == 31.0 - 6.0 - 16.0
    assert child.self_time == 2.0
    assert grandchild.self_time == 4.0
    assert second.self_time == 16.0
    assert child.parent == root.span_id
    assert grandchild.trace == root.trace == root.span_id
    assert tracer.roots() == {root.span_id: "root"}


def test_lazy_iterator_times_only_its_own_work(clock: FakeClock) -> None:
    tracer = Tracer(clock)

    def produce():
        for _ in range(3):
            clock.advance(1.0)  # the search's own work
            with tracer.span("fetch"):
                clock.advance(0.5)  # a page fetch inside the search
            yield "match"

    with tracer.span("query") as query:
        matches = tracer.iterate(produce(), "search")  # creating costs nothing
        clock.advance(100.0)  # work between creation and first use
        with tracer.span("finalize") as finalize:
            for _ in matches:
                clock.advance(2.0)  # the consumer's own work per match
            clock.advance(0.25)  # the exhausting __next__ is not the search
    search = matches.span
    assert search is not None
    assert search.count == 3
    assert search.busy == 4.5
    assert search.self_time == 3.0
    assert search.parent == finalize.span_id
    assert finalize.busy == 4.5 + 6.0 + 0.25
    assert finalize.self_time == 6.25
    assert query.self_time == 100.0
    fetches = tracer.named("fetch")
    assert [f.parent for f in fetches] == [search.span_id] * 3


def test_explicit_parent_links_another_threads_span(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    with tracer.span("submit") as submit:
        pass
    with tracer.span("engine", up=submit) as engine:
        clock.advance(3.0)
    assert engine.trace == submit.trace
    assert submit.child == 3.0


def test_patches_restore_class_and_static_attributes() -> None:
    class Node:
        @classmethod
        def build(cls, raw):
            return (cls.__name__, raw)

    patches = Patches()
    original = Node.__dict__["build"]
    patches.set(Node, "build", staticmethod(lambda raw: "wrapped"))
    assert Node.build(1) == "wrapped"
    patches.restore()
    assert Node.__dict__["build"] is original
    assert Node.build(1) == ("Node", 1)


# ----------------------------------------------------------------------
# percentiles and sample counts
# ----------------------------------------------------------------------
def test_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50.0) == (50.0, 50)
    assert nearest_rank(values, 99.0) == (99.0, 1)
    assert nearest_rank(values, 100.0) == (100.0, 0)


def test_tail_needs_ten_samples_beyond() -> None:
    thousand = tail([float(v) for v in range(1000)])
    assert (thousand.pct, thousand.beyond, thousand.count) == (99.0, 10, 1000)
    # One sample fewer leaves only nine beyond p99: fall back to p98.
    fewer = tail([float(v) for v in range(999)])
    assert fewer.pct == 98.0 and fewer.beyond >= 10
    # 230 replies (a 10 s window at 44 ms a reply) support p95.
    assert tail([1.0] * 230).pct == 95.0
    # Too few for any tail: the median stands in.
    tiny = tail([3.0, 1.0, 2.0])
    assert (tiny.pct, tiny.value) == (50.0, 2.0)


def test_tail_never_exceeds_requested_percentile() -> None:
    assert tail([float(v) for v in range(100_000)], wanted=99.0).pct == 99.0


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
def test_error_rate_counts_every_failure_kind() -> None:
    outcomes = Outcomes()
    assert outcomes.error_rate == 0.0
    outcomes.attempt(10)
    outcomes.fail("wrong_answer", "q1")
    outcomes.fail("http_status", "503")
    outcomes.fail("refresh", "failed")
    outcomes.fail("wrong_answer")
    assert outcomes.failed == 4
    assert outcomes.failures == {
        "wrong_answer": 2, "http_status": 1, "refresh": 1,
    }
    assert outcomes.error_rate == 0.4
    assert outcomes.examples == ["wrong_answer: q1", "http_status: 503", "refresh: failed"]


# ----------------------------------------------------------------------
# the per-layer split and the oracle
# ----------------------------------------------------------------------
def test_outside_time_is_client_minus_service_median(clock: FakeClock) -> None:
    tracer = Tracer(clock)
    for busy in (0.001, 0.002, 0.003):
        with tracer.span("server.service.query"):
            clock.advance(busy)
    metrics, table = layer_metrics(
        tracer, queries=3, refreshes=0, batched=0, pushdowns=0,
        overhead=0.05, io_equal=True, client_ms=[40.0, 44.0, 50.0],
    )
    assert metrics["server.service.query_ms"][0] == pytest.approx(2.0)
    assert metrics["server.http.outside_ms"][0] == pytest.approx(42.0)
    assert set(metrics) == set(SHOULD_MOVE)
    assert [row["metric"] for row in table] == list(SHOULD_MOVE)


def test_oracle_answers_per_generation() -> None:
    facts = [(1, 10, 100, 5), (1, 11, 100, 7), (2, 10, 101, 1)]
    oracle = FactOracle(("partkey", "suppkey", "custkey"), 3, facts)
    oracle.apply([(1, 10, 102, 2)])
    query = SimpleNamespace(
        group_by=("suppkey",), bounds={"partkey": (1, 1)},
    )
    assert oracle.answer(query, 0) == [(10, 5.0), (11, 7.0)]
    assert oracle.answer(query, 1) == [(10, 7.0), (11, 7.0)]
    total = SimpleNamespace(group_by=(), bounds={"custkey": (100, 101)})
    assert oracle.answer(total, 1) == [(13.0,)]
    empty = SimpleNamespace(group_by=("custkey",), bounds={"partkey": (9, 9)})
    assert oracle.answer(empty, 1) == []


# ----------------------------------------------------------------------
# reference-speed calibration
# ----------------------------------------------------------------------
def test_calibration_scales_by_units_near_the_sample() -> None:
    from calibrate import REFERENCE_UNIT_S, WINDOW_S, Calibrator

    cal = Calibrator()
    # A fast phase (units at reference speed), then a phase twice as slow.
    cal.times = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
    cal.units = [REFERENCE_UNIT_S] * 3 + [2 * REFERENCE_UNIT_S] * 3
    assert cal.factor(0.1) == 1.0
    assert cal.factor(5.1) == 0.5
    # A 10 ms call in the slow phase counts as 5 ms at reference speed.
    assert cal.scale(5.05, 0.010) == pytest.approx(0.005)
    # Far from any unit: the units on either side decide.
    assert cal.factor(2.0 + WINDOW_S) == pytest.approx(1.0 / 1.5)
    assert cal.overall() == pytest.approx(2.0 / 3.0)


def test_calibration_unit_runs() -> None:
    from calibrate import Calibrator

    cal = Calibrator()
    cal.burst(2)
    cal.tick()
    assert len(cal.units) == 3 and all(unit > 0 for unit in cal.units)
