"""The three workloads: what each one drives, and the numbers it yields.

``olap_cold``  in-process ``CubetreeEngine.query``, one closed-loop caller,
               TPC-D scale 0.01 (1505 pages) against the default 256-page
               pool; a short merge-pack phase follows the query window.
``olap_warm``  in-process ``CubetreeEngine.query_batch`` in batches of 16 at
               scale 0.002 (306 pages) in a 1024-page pool, with twenty 1%
               increments merge-packed through ``update()`` at even times
               across the window.
``serve_http`` ``python -m repro serve`` in its own process over a scale
               0.002 bootstrapped database; one keep-alive connection reads
               (closed-loop ``POST /query``), a second one posts a 1%
               ``/delta`` and then ``/refresh`` once a second.

Every workload is driven only through the program's public surface, and
every input (facts, queries, increments) is generated from ``--seed``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import queue
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.persistence import load_any_engine, save_database
from repro.errors import ReproError
from repro.experiments.common import (
    FIG12_NODES,
    ExperimentConfig,
    build_cubetree_engine,
    build_warehouse,
)
from repro.obs import get_registry
from repro.query.generator import RandomQueryGenerator
from repro.server import (
    CubetreeServer,
    ServerConfig,
    bootstrap_database,
    make_http_server,
)
from repro.storage.buffer import SharedBufferPool
from repro.warehouse.tpcd import TPCDGenerator

from instrument import instrument
from layers import layer_metrics
from oracle import FactOracle
from stats import Outcomes, median, tail
from calibrate import Calibrator
from tracing import Tracer

#: Builds (or bootstraps and starts) per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Every n-th query's answer is checked, besides the first of each query
#: type and the first after each refresh (``serve_http`` checks them all).
CHECK_EVERY = 8
#: Size of each increment, as a share of the base facts.
INCREMENT = 0.01
#: ``query_sim_ms`` averages over this fixed prefix of the query stream so
#: that it is the same on every run of a seed, however long the run is.
SIM_PREFIX_QUERIES = 10000
#: ``refresh_sim_ms`` averages over this fixed prefix of the refreshes.
SIM_PREFIX_REFRESHES = 3

COLD_SCALE = 0.01
COLD_POOL = 256
#: Merge-packs after the ``olap_cold`` query window.
COLD_REFRESHES = 12

WARM_SCALE = 0.002
WARM_POOL = 1024
WARM_BATCH = 16
#: Merge-packs spread evenly over the window (about 20% growth).
WARM_REFRESHES = 20

SERVE_SCALE = 0.002
#: Seconds between the writer's refresh cycles.
SERVE_WRITE_EVERY = 1.0
#: Serial operations in the traced run's I/O isolation probe.
SERVE_PROBE_QUERIES = 24

Row = Tuple[object, ...]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class QueryStream:
    """Uniform Fig. 12 slice queries over all seven lattice nodes."""

    def __init__(self, schema: Any, seed: int) -> None:
        self._nodes = random.Random(f"perfbench/{seed}/nodes")
        self._queries = RandomQueryGenerator(schema, seed=seed)

    def next(self) -> Any:
        node = self._nodes.choice(FIG12_NODES)
        return self._queries.generate_for_node(node, 1)[0]


def increment(generator: TPCDGenerator, k: int) -> List[Row]:
    """The k-th increment (k = 1, 2, ...) of a run."""
    return generator.generate_increment(INCREMENT, stream=f"perfbench/{k}")


def query_type(query: Any) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    return tuple(query.group_by), tuple(query.bound_attrs)


def measure_position(schema: Any) -> int:
    return list(schema.fact_columns).index(schema.measure)


class Sampler:
    """Decides which answers to check: a deterministic sample."""

    def __init__(self, every: int) -> None:
        self.every = every
        self.seen: set = set()
        self.after_refresh = False

    def refreshed(self) -> None:
        self.after_refresh = True

    def wants(self, index: int, query: Any) -> bool:
        kind = query_type(query)
        take = (
            index % self.every == 0
            or kind not in self.seen
            or self.after_refresh
        )
        self.seen.add(kind)
        self.after_refresh = False
        return take


# ----------------------------------------------------------------------
# one measured pass
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one pass over a workload's operation stream observed."""

    queries: int = 0
    batches: int = 0
    refreshes: int = 0
    #: (start, seconds) of each query call (each batch on ``olap_warm``).
    query_calls: List[Tuple[float, float]] = field(default_factory=list)
    #: Simulated I/O ms per query, in stream order.
    query_sim: List[float] = field(default_factory=list)
    #: (start, seconds) of each refresh.
    refresh_calls: List[Tuple[float, float]] = field(default_factory=list)
    refresh_sim: List[float] = field(default_factory=list)
    #: Integer page I/O: sequential reads, random reads, writes.
    io: List[int] = field(default_factory=lambda: [0, 0, 0])
    batched: int = 0
    #: Batches done when each ``olap_warm`` refresh ran.
    refresh_batches: List[int] = field(default_factory=list)
    #: Reference units timed between operations (see ``calibrate``).
    cal: Calibrator = field(default_factory=Calibrator)
    #: (query, increments applied, rows returned) awaiting the oracle.
    samples: List[Tuple[Any, int, List[Row]]] = field(default_factory=list)
    deltas: List[List[Row]] = field(default_factory=list)
    #: ``RefreshOutcome.wall_ms`` from each ``/refresh`` reply.
    service_refresh_ms: List[float] = field(default_factory=list)

    @property
    def query_ms(self) -> List[float]:
        return [seconds * 1000.0 for _start, seconds in self.query_calls]

    @property
    def refresh_ms(self) -> List[float]:
        return [seconds * 1000.0 for _start, seconds in self.refresh_calls]

    def scaled_ms(self, calls: Sequence[Tuple[float, float]]) -> List[float]:
        """Call times at reference speed, ms."""
        return [self.cal.scale(start, sec) * 1000.0 for start, sec in calls]

    def busy_s(self, with_refreshes: bool, scaled: bool) -> float:
        """Time spent inside the program's calls."""
        calls = list(self.query_calls)
        if with_refreshes:
            calls += self.refresh_calls
        if scaled:
            return sum(self.cal.scale(start, sec) for start, sec in calls)
        return sum(sec for _start, sec in calls)

    def add_io(self, io: Any) -> None:
        self.io[0] += io.sequential_reads
        self.io[1] += io.random_reads
        self.io[2] += io.writes


def for_seconds(seconds: float) -> Callable[[int], bool]:
    """Stop rule: a wall-clock window starting now."""
    deadline = time.perf_counter() + seconds
    return lambda _done: time.perf_counter() >= deadline


def for_count(count: int) -> Callable[[int], bool]:
    """Stop rule: an exact number of operations."""
    return lambda done: done >= count


def _root(tracer: Optional[Tracer], name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def run_cold_pass(
    engine: Any,
    generator: TPCDGenerator,
    stream: QueryStream,
    outcomes: Outcomes,
    stop: Callable[[int], bool],
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Closed-loop single queries, then ``COLD_REFRESHES`` merge-packs."""
    run = Pass()
    sampler = Sampler(CHECK_EVERY)
    while not stop(run.queries):
        run.cal.tick()
        query = stream.next()
        outcomes.attempt()
        start = time.perf_counter()
        try:
            with _root(tracer, "op.query"):
                result = engine.query(query)
        except ReproError as exc:
            outcomes.fail("exception", repr(exc))
            continue
        run.query_calls.append((start, time.perf_counter() - start))
        run.query_sim.append(result.io.simulated_ms)
        run.add_io(result.io)
        if sampler.wants(run.queries, query):
            run.samples.append((query, 0, result.rows))
        run.queries += 1
    for k in range(1, COLD_REFRESHES + 1):
        _timed_update(engine, generator, k, run, outcomes, tracer)
        # The first answer after each refresh is checked (not timed).
        query = stream.next()
        outcomes.attempt()
        try:
            with _root(tracer, "op.check"):
                result = engine.query(query)
        except ReproError as exc:
            outcomes.fail("exception", repr(exc))
            continue
        run.add_io(result.io)
        run.samples.append((query, len(run.deltas), result.rows))
    return run


def refresh_schedule(seconds: float) -> Callable[[int], bool]:
    """``WARM_REFRESHES`` refreshes at even times across the window.

    A fixed count keeps the data's growth, and so the cost of every later
    query, the same on a fast and a slow run; a refresh every n batches
    would grow the data more on a faster run.
    """
    start = time.perf_counter()
    step = seconds / (WARM_REFRESHES + 1)
    due = [start + step * k for k in range(1, WARM_REFRESHES + 1)]

    def refresh_now(_batches: int) -> bool:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            return True
        return False

    return refresh_now


def replayed_schedule(batches: Sequence[int]) -> Callable[[int], bool]:
    """Refresh after exactly the batches another pass refreshed after."""
    after = set(batches)
    return lambda done: done in after


def run_warm_pass(
    engine: Any,
    generator: TPCDGenerator,
    stream: QueryStream,
    outcomes: Outcomes,
    stop: Callable[[int], bool],
    tracer: Optional[Tracer] = None,
    refresh_due: Callable[[int], bool] = lambda _done: False,
) -> Pass:
    """Batches of 16 through ``query_batch``, merge-packs when due."""
    run = Pass()
    sampler = Sampler(CHECK_EVERY)
    while not stop(run.batches):
        run.cal.tick()
        batch = [stream.next() for _ in range(WARM_BATCH)]
        outcomes.attempt(len(batch))
        start = time.perf_counter()
        try:
            with _root(tracer, "op.batch"):
                result = engine.query_batch(batch)
        except ReproError as exc:
            outcomes.fail("exception", repr(exc))
            result = None
        elapsed = time.perf_counter() - start
        run.batches += 1
        if result is not None:
            run.query_calls.append((start, elapsed))
            run.query_sim.extend(
                [result.io.simulated_ms / len(batch)] * len(batch)
            )
            run.add_io(result.io)
            run.batched += result.batched
            for query, answer in zip(batch, result.results):
                if sampler.wants(run.queries, query):
                    run.samples.append((query, len(run.deltas), answer.rows))
                run.queries += 1
        if refresh_due(run.batches):
            run.refresh_batches.append(run.batches)
            _timed_update(
                engine, generator, len(run.deltas) + 1, run, outcomes, tracer
            )
            sampler.refreshed()
    return run


def _timed_update(
    engine: Any,
    generator: TPCDGenerator,
    k: int,
    run: Pass,
    outcomes: Outcomes,
    tracer: Optional[Tracer],
) -> None:
    rows = increment(generator, k)
    outcomes.attempt()
    # A refresh is long enough for the machine's speed to change inside
    # it, so its speed is read from several units on each side.
    run.cal.burst(3)
    start = time.perf_counter()
    try:
        with _root(tracer, "op.refresh"):
            report = engine.update(rows)
    except ReproError as exc:
        outcomes.fail("exception", repr(exc))
        return
    run.refresh_calls.append((start, time.perf_counter() - start))
    run.cal.burst(3)
    run.refreshes += 1
    run.refresh_sim.append(report.io.simulated_ms)
    run.add_io(report.io)
    run.deltas.append(rows)


def check_answers(
    schema: Any,
    facts: Sequence[Row],
    run: Pass,
    outcomes: Outcomes,
) -> int:
    """Compare every sampled answer with the oracle's; returns the count."""
    oracle = FactOracle(schema.fact_keys, measure_position(schema), facts)
    for rows in run.deltas:
        oracle.apply(rows)
    for query, increments, rows in run.samples:
        expected = oracle.answer(query, increments)
        if [tuple(row) for row in rows] != expected:
            outcomes.fail(
                "wrong_answer",
                f"{query} after {increments} increment(s): "
                f"got {rows[:3]}..., expected {expected[:3]}...",
            )
    return len(run.samples)


# ----------------------------------------------------------------------
# HTTP client side (shared by the untraced and traced serve runs)
# ----------------------------------------------------------------------
def query_body(query: Any) -> bytes:
    return json.dumps(
        {
            "group_by": list(query.group_by),
            "bindings": [list(b) for b in query.bindings],
            "ranges": [list(r) for r in query.ranges],
        }
    ).encode()


def _post(
    conn: http.client.HTTPConnection, path: str, body: Optional[bytes]
) -> Tuple[int, Any]:
    conn.request(
        "POST", path, body=body,
        headers={"Content-Type": "application/json"},
    )
    reply = conn.getresponse()
    payload = reply.read()
    try:
        data = json.loads(payload)
    except ValueError:
        data = None
    return reply.status, data


def _get(port: int, path: str) -> Any:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        return json.loads(reply.read())
    finally:
        conn.close()


def run_http_pass(
    port: int,
    generator: TPCDGenerator,
    stream: QueryStream,
    outcomes: Outcomes,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Two keep-alive connections for ``seconds``: a reader, a writer.

    The reader sends ``POST /query`` in a closed loop; the writer posts an
    increment to ``/delta`` and then calls ``/refresh`` once every
    ``SERVE_WRITE_EVERY`` seconds.  Every reply is kept for checking
    against the generation it names.
    """
    run = Pass()
    lock = threading.Lock()
    #: generation number -> increments it contains
    generations: Dict[int, int] = {}
    replies: List[Tuple[Any, int, List[Row]]] = []
    start_at = time.perf_counter()
    deadline = start_at + seconds

    def reader() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while time.perf_counter() < deadline:
                run.cal.tick()
                query = stream.next()
                body = query_body(query)
                with lock:
                    outcomes.attempt()
                begin = time.perf_counter()
                try:
                    with _root(tracer, "http.query"):
                        status, data = _post(conn, "/query", body)
                except (OSError, http.client.HTTPException) as exc:
                    with lock:
                        outcomes.fail("exception", repr(exc))
                    conn.close()
                    continue
                run.query_calls.append((begin, time.perf_counter() - begin))
                run.queries += 1
                if status != 200 or not isinstance(data, dict):
                    with lock:
                        outcomes.fail("http_status", f"{status}: {data}")
                    continue
                replies.append(
                    (query, int(data["generation"]), data["rows"])
                )
        finally:
            conn.close()

    def writer() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            k = 0
            while True:
                due = start_at + (k + 1) * SERVE_WRITE_EVERY
                if due >= deadline:
                    return
                time.sleep(max(0.0, due - time.perf_counter()))
                k += 1
                rows = increment(generator, k)
                body = json.dumps({"rows": [list(r) for r in rows]}).encode()
                with lock:
                    outcomes.attempt()
                begin = time.perf_counter()
                try:
                    with _root(tracer, "http.refresh"):
                        status, accepted = _post(conn, "/delta", body)
                        if status != 202:
                            raise RuntimeError(f"/delta answered {status}")
                        status, outcome = _post(conn, "/refresh", None)
                except (OSError, http.client.HTTPException, RuntimeError) as exc:
                    with lock:
                        outcomes.fail("refresh", repr(exc))
                    return
                elapsed = time.perf_counter() - begin
                if (
                    status != 200
                    or not isinstance(outcome, dict)
                    or outcome.get("status") != "published"
                ):
                    with lock:
                        outcomes.fail("refresh", f"{status}: {outcome}")
                    return
                run.refreshes += 1
                run.refresh_calls.append((begin, elapsed))
                run.service_refresh_ms.append(float(outcome["wall_ms"]))
                run.deltas.append(rows)
                generations[int(outcome["generation"])] = len(run.deltas)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=reader, name="perfbench-reader"),
        threading.Thread(target=writer, name="perfbench-writer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    first = min(generations, default=None)
    for query, generation, rows in replies:
        if generation in generations:
            increments = generations[generation]
        elif first is None or generation < first:
            increments = 0
        else:
            outcomes.fail("unknown_generation", str(generation))
            continue
        run.samples.append(
            (query, increments, [tuple(row) for row in rows])
        )
    return run


# ----------------------------------------------------------------------
# server process management
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, stopped with SIGINT."""

    #: Seconds to wait for the listening line, and for a clean exit.
    START_TIMEOUT_S = 60.0
    STOP_TIMEOUT_S = 10.0

    def __init__(self, root: str, directory: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", directory,
                "--port", "0", "--refresh-interval", "0",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._drain = threading.Thread(
            target=self._read_output, name="perfbench-server-output"
        )
        self._drain.start()
        self.peak_rss_mb = 0.0
        self.forced = False
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _read_output(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _await_port(self) -> int:
        deadline = time.perf_counter() + self.START_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = self.lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                raise RuntimeError("server did not start listening") from None
            if line is None:
                raise RuntimeError("server exited before listening")
            if "http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])

    def _read_peak_rss(self) -> float:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown); SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.peak_rss_mb = self._read_peak_rss()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.forced = True
                self.proc.kill()
                self.proc.wait(timeout=self.STOP_TIMEOUT_S)
        self._drain.join(timeout=self.STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if not self.peak_rss_mb:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0


class InProcessServer:
    """The same server hosted on threads of this process (traced runs)."""

    def __init__(self, directory: str) -> None:
        self.server = CubetreeServer(
            directory, ServerConfig(refresh_interval=None)
        ).start()
        self.httpd = make_http_server(self.server, port=0)
        self.port = int(self.httpd.server_address[1])
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, name="perfbench-httpd"
        )
        self.thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        self.server.close()


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    outcomes: Outcomes
    detail: Dict[str, Any]
    tracer: Optional[Tracer] = None


def _io_counters() -> List[float]:
    reg = get_registry()
    return [
        reg.counter("io.reads.sequential").snapshot(),
        reg.counter("io.reads.random").snapshot(),
        reg.counter("io.writes.sequential").snapshot()
        + reg.counter("io.writes.random").snapshot(),
        reg.counter("io.simulated_ms").snapshot(),
    ]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _query_metrics(
    run: Pass, queries_per_sample: int, scaled: bool
) -> Dict[str, Any]:
    """Latency, throughput and simulated I/O of the query calls.

    ``scaled`` reports wall times at reference speed (see ``calibrate``).
    Throughput is queries per second spent in query calls.
    """
    if not run.query_calls:
        raise RuntimeError("no query completed in the measured window")
    samples = run.scaled_ms(run.query_calls) if scaled else run.query_ms
    tail_ms = tail(samples)
    busy = run.busy_s(False, scaled)
    prefix = run.query_sim[:SIM_PREFIX_QUERIES]
    raw_tail = tail(run.query_ms)
    return {
        "query_p50_ms": (median(samples), "ms"),
        "query_p99_ms": (tail_ms.value, "ms"),
        "query_qps": (run.queries / busy, "1/s"),
        "query_sim_ms": (sum(prefix) / max(1, len(prefix)), "ms"),
        "_detail": {
            "percentile": tail_ms.pct,
            "samples": tail_ms.count,
            "beyond": tail_ms.beyond,
            "queries_per_sample": queries_per_sample,
            "sim_prefix_queries": len(prefix),
            "reference_speed": scaled,
            "raw_p50_ms": median(run.query_ms),
            "raw_tail_ms": raw_tail.value,
            "raw_qps": run.queries / run.busy_s(False, False),
            "speed_factor": run.cal.overall() if run.cal.units else None,
        },
    }


def _refresh_metrics(run: Pass, scaled: bool) -> Dict[str, Any]:
    if not run.refresh_calls:
        raise RuntimeError("no refresh completed in the measured window")
    samples = run.scaled_ms(run.refresh_calls) if scaled else run.refresh_ms
    prefix = run.refresh_sim[:SIM_PREFIX_REFRESHES]
    return {
        "refresh_p50_ms": (median(samples), "ms"),
        "refresh_sim_ms": (sum(prefix) / max(1, len(prefix)), "ms"),
        "_detail": {
            "samples": len(samples),
            "sim_prefix_refreshes": len(prefix),
            "reference_speed": scaled,
            "raw_p50_ms": median(run.refresh_ms),
        },
    }


def _public(metrics: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in metrics.items() if not k.startswith("_")}


def _storage(engine: Any) -> Tuple[float, str]:
    rows = sum(engine.view_sizes().values())
    return engine.storage_bytes() / rows, "B/row"


class OlapWorkload:
    """``olap_cold`` and ``olap_warm``: the engine in this process."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        cold = name == "olap_cold"
        self.scale = COLD_SCALE if cold else WARM_SCALE
        self.pool = COLD_POOL if cold else WARM_POOL
        self.per_sample = 1 if cold else WARM_BATCH

    def knobs(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "buffer_pages": self.pool,
            "increment": INCREMENT,
            "batch": None if self.per_sample == 1 else WARM_BATCH,
            "refreshes_in_window": (
                None if self.per_sample == 1 else WARM_REFRESHES
            ),
            "cold_refreshes_after_window": (
                COLD_REFRESHES if self.per_sample == 1 else None
            ),
            "loop": "closed, 1 caller, in-process",
        }

    def build(self) -> Tuple[Any, Any, Any, Any, float]:
        config = ExperimentConfig(
            scale_factor=self.scale, seed=self.seed, buffer_pages=self.pool
        )
        start = time.perf_counter()
        generator, data = build_warehouse(config)
        engine, report = build_cubetree_engine(config, data)
        elapsed = time.perf_counter() - start
        # The window starts from an empty pool, as in a process that has
        # just opened the database.
        engine.pool.clear()
        return engine, generator, data, report, elapsed

    def run_pass(
        self,
        engine: Any,
        generator: TPCDGenerator,
        stream: QueryStream,
        outcomes: Outcomes,
        stop: Callable[[int], bool],
        tracer: Optional[Tracer] = None,
        refresh_due: Callable[[int], bool] = lambda _done: False,
    ) -> Pass:
        if self.per_sample == 1:
            return run_cold_pass(
                engine, generator, stream, outcomes, stop, tracer
            )
        return run_warm_pass(
            engine, generator, stream, outcomes, stop, tracer, refresh_due
        )

    def sim_probe(
        self, engine: Any, stream: QueryStream, outcomes: Outcomes
    ) -> Optional[Pass]:
        """``olap_warm`` only: the stream's first queries, one at a time.

        Batches over a cached data set do no page I/O once the pool is
        warm, so ``query_sim_ms`` on ``olap_warm`` is measured as on
        ``olap_cold``: the first ``SIM_PREFIX_QUERIES`` queries answered
        by ``CubetreeEngine.query`` from the freshly opened database.  It
        also warms the pool before the window.  Not timed.
        """
        if self.per_sample == 1:
            return None
        probe = Pass()
        sampler = Sampler(CHECK_EVERY)
        for index in range(SIM_PREFIX_QUERIES):
            query = stream.next()
            outcomes.attempt()
            try:
                result = engine.query(query)
            except ReproError as exc:
                outcomes.fail("exception", repr(exc))
                continue
            probe.query_sim.append(result.io.simulated_ms)
            if sampler.wants(index, query):
                probe.samples.append((query, 0, result.rows))
        return probe

    def run(self) -> Result:
        setup_cal = Calibrator()
        setups = []
        raw_setups = []
        built = None
        for _ in range(SETUP_REPEATS):
            built = None  # let the previous build go before the next
            gc.collect()
            setup_cal.burst()
            start = time.perf_counter()
            built = self.build()
            setup_cal.burst()
            raw_setups.append(built[4])
            setups.append(setup_cal.scale(start, built[4]))
        engine, generator, data, report, _ = built
        outcomes = Outcomes()
        stream = QueryStream(data.schema, self.seed)
        probe = self.sim_probe(engine, stream, outcomes)
        run = self.run_pass(
            engine, generator, stream, outcomes,
            for_seconds(self.seconds),
            refresh_due=refresh_schedule(self.seconds),
        )
        checked = check_answers(data.schema, data.facts, run, outcomes)
        if probe is not None:
            checked += check_answers(data.schema, data.facts, probe, outcomes)
            run.query_sim = probe.query_sim
        query = _query_metrics(run, self.per_sample, True)
        refresh = _refresh_metrics(run, True)
        metrics = {
            "setup_s": (median(setups), "s"),
            **_public(query),
            **_public(refresh),
            "bytes_per_row": _storage(engine),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        detail = {
            "knobs": self.knobs(),
            "setup_samples_s": setups,
            "raw_setup_samples_s": raw_setups,
            "load_sim_ms": report.phases["views"].io.simulated_ms,
            "pages_after_load": report.pages,
            "pages_at_end": engine.storage_pages(),
            "queries": run.queries,
            "batches": run.batches,
            "refreshes": run.refreshes,
            "answers_checked": checked,
            "query": query["_detail"],
            "refresh": refresh["_detail"],
            "batched_share": run.batched / run.queries if run.queries else 0.0,
            "fast_scans": engine.fast_scans,
            "workers": engine.workers,
        }
        return Result(metrics, outcomes, detail)

    def run_traced(self) -> Result:
        """An untraced and a traced pass over the same operations.

        Both passes start from an identical fresh build.  The untraced
        pass runs for half the window and fixes the operation count; the
        traced pass repeats exactly those operations.  Their integer page
        I/O must match, and their wall-time ratio (at reference speed) is
        the tracing overhead.
        """
        outcomes = Outcomes()
        engine, generator, data, _report, _ = self.build()
        stream = QueryStream(data.schema, self.seed)
        self.sim_probe(engine, stream, outcomes)
        plain = self.run_pass(
            engine, generator, stream, outcomes,
            for_seconds(self.seconds / 2),
            refresh_due=refresh_schedule(self.seconds / 2),
        )
        ops = plain.queries if self.per_sample == 1 else plain.batches
        engine = None
        gc.collect()
        engine, generator, data, _report, _ = self.build()
        stream = QueryStream(data.schema, self.seed)
        self.sim_probe(engine, stream, outcomes)
        tracer = Tracer()
        pushdowns = get_registry().counter("query.cubetree.pushdowns")
        pushdowns_before = pushdowns.snapshot()
        patches = instrument(tracer)
        try:
            traced = self.run_pass(
                engine, generator, stream, outcomes, for_count(ops), tracer,
                replayed_schedule(plain.refresh_batches),
            )
        finally:
            patches.restore()
        pushdowns_delta = pushdowns.snapshot() - pushdowns_before
        check_answers(data.schema, data.facts, plain, outcomes)
        check_answers(data.schema, data.facts, traced, outcomes)
        if plain.io != traced.io:
            outcomes.fail(
                "trace_changed_io", f"untraced {plain.io} vs traced {traced.io}"
            )
        plain_busy = plain.busy_s(True, True)
        traced_busy = traced.busy_s(True, True)
        metrics, table = layer_metrics(
            tracer,
            queries=traced.queries,
            refreshes=traced.refreshes,
            batched=traced.batched,
            pushdowns=pushdowns_delta,
            overhead=traced_busy / plain_busy - 1.0,
            io_equal=plain.io == traced.io,
            speed=traced.cal.overall(),
        )
        detail = {
            "knobs": self.knobs(),
            "operations": ops,
            "untraced_busy_s": plain_busy,
            "traced_busy_s": traced_busy,
            "untraced_io": plain.io,
            "traced_io": traced.io,
            "layers": table,
        }
        return Result(metrics, outcomes, detail, tracer)


class ServeWorkload:
    """``serve_http``: the HTTP server, reached through two connections."""

    def __init__(self, seed: int, seconds: float, root: str, work: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work

    def knobs(self) -> Dict[str, Any]:
        return {
            "scale": SERVE_SCALE,
            "buffer_pages": ExperimentConfig().buffer_pages,
            "shards": 1,
            "increment": INCREMENT,
            "write_every_s": SERVE_WRITE_EVERY,
            "refresh_interval": "0 (refresh only via POST /refresh)",
            "connections": 2,
            "loop": "closed, 1 reader + 1 writer, keep-alive HTTP/1.1",
        }

    def _bootstrap(self, directory: str) -> float:
        """Build and checkpoint the database; returns its simulated ms."""
        before = _io_counters()[3]
        bootstrap_database(directory, scale=SERVE_SCALE, seed=self.seed)
        return _io_counters()[3] - before

    def run(self) -> Result:
        generator = TPCDGenerator(scale_factor=SERVE_SCALE, seed=self.seed)
        data = generator.generate()
        setup_cal = Calibrator()
        setups: List[float] = []
        raw_setups: List[float] = []
        server: Optional[ServerProcess] = None
        directory = ""
        load_sim = 0.0
        forced_stops = 0
        try:
            for i in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                    forced_stops += server.forced
                    server = None
                directory = os.path.join(self.work, f"db{i}")
                setup_cal.burst()
                start = time.perf_counter()
                load_sim = self._bootstrap(directory)
                server = ServerProcess(self.root, directory)
                _get(server.port, "/health")
                raw_setups.append(time.perf_counter() - start)
                setup_cal.burst()
                setups.append(setup_cal.scale(start, raw_setups[-1]))
            assert server is not None
            replay_dir = os.path.join(self.work, "replay")
            shutil.copytree(directory, replay_dir)
            outcomes = Outcomes()
            stats_before = _get(server.port, "/stats")
            run = run_http_pass(
                server.port, generator, QueryStream(data.schema, self.seed),
                outcomes, self.seconds,
            )
            stats_after = _get(server.port, "/stats")
        finally:
            if server is not None:
                server.stop()
                forced_stops += server.forced
        check_answers(data.schema, data.facts, run, outcomes)
        # A keep-alive reply is dominated by a fixed ~40 ms wait that does
        # not scale with CPU speed, so query times stay raw wall time;
        # the refresh cycle is CPU work and is reported at reference speed.
        query = _query_metrics(run, 1, False)
        refresh = _refresh_metrics(run, True)
        replay = replay_served(replay_dir, generator, data.schema, self.seed)
        final = load_any_engine(directory)
        metrics = {
            "setup_s": (median(setups), "s"),
            **_public(query),
            "query_sim_ms": (replay["query_sim_ms"], "ms"),
            "refresh_p50_ms": refresh["refresh_p50_ms"],
            "refresh_sim_ms": (replay["refresh_sim_ms"], "ms"),
            "bytes_per_row": _storage(final),
            "peak_rss_mb": (server.peak_rss_mb, "MB"),
        }
        served = _served_wall(stats_before, stats_after)
        detail = {
            "knobs": self.knobs(),
            "setup_samples_s": setups,
            "raw_setup_samples_s": raw_setups,
            "load_sim_ms": load_sim,
            "queries": run.queries,
            "refreshes": run.refreshes,
            "answers_checked": len(run.samples),
            "query": query["_detail"],
            "refresh": refresh["_detail"],
            "service_refresh_ms": run.service_refresh_ms,
            "server_query_wall_ms_mean": served,
            "client_query_mean_ms": sum(run.query_ms) / len(run.query_ms),
            "admission_peak_depth": stats_after["admission"]["peak_depth"],
            "server_stops_forced": forced_stops,
            "query_sim_ms_source": (
                "serial replay of the first "
                f"{replay['queries']} stream queries on the bootstrap "
                "generation (same checkpoint, pool class and size)"
            ),
            "refresh_sim_ms_source": (
                "replay of the server's refresh cycle (load newest "
                "generation, update, save) for the first "
                f"{replay['refreshes']} increments"
            ),
        }
        return Result(metrics, outcomes, detail)

    def run_traced(self) -> Result:
        """Traced window against an in-process server, then an I/O probe.

        The traced window runs the same reader and writer against the
        server hosted on threads of this process, so its calls can be
        wrapped.  Under two concurrent connections the page I/O of a query
        depends on which generation it lands on, so the isolation check
        uses a serial probe instead: the same operations run once
        untraced and once traced against fresh in-process servers, and
        their page I/O must match.
        """
        generator = TPCDGenerator(scale_factor=SERVE_SCALE, seed=self.seed)
        data = generator.generate()
        outcomes = Outcomes()
        directory = os.path.join(self.work, "traced")
        self._bootstrap(directory)
        server = InProcessServer(directory)
        tracer = Tracer()
        patches = instrument(tracer)
        try:
            run = run_http_pass(
                server.port, generator, QueryStream(data.schema, self.seed),
                outcomes, self.seconds, tracer,
            )
            peak_depth = server.server.admission.peak_depth
        finally:
            patches.restore()
            server.stop()
        check_answers(data.schema, data.facts, run, outcomes)

        plain = self._probe(generator, data, outcomes, None)
        probed = self._probe(generator, data, outcomes, Tracer())
        io_equal = plain["io"] == probed["io"]
        if not io_equal:
            outcomes.fail(
                "trace_changed_io",
                f"untraced {plain['io']} vs traced {probed['io']}",
            )
        replay = replay_served(
            os.path.join(self.work, "probe-replay"), generator,
            data.schema, self.seed, queries=len(plain["gen1_reads"]),
            refreshes=0,
        )
        replay_equal = replay["per_query_reads"] == plain["gen1_reads"]
        if not replay_equal:
            outcomes.fail(
                "replay_mismatch",
                "served query I/O differs from the in-process replay",
            )
        metrics, table = layer_metrics(
            tracer,
            queries=run.queries,
            refreshes=run.refreshes,
            batched=0,
            pushdowns=0,
            overhead=probed["wall"] / plain["wall"] - 1.0,
            io_equal=io_equal,
            client_ms=run.query_ms,
            service_refresh_ms=run.service_refresh_ms,
            peak_depth=peak_depth,
        )
        detail = {
            "knobs": self.knobs(),
            "hosting": "in-process (threads of the benchmark process)",
            "queries": run.queries,
            "refreshes": run.refreshes,
            "probe_untraced": {k: plain[k] for k in ("io", "wall")},
            "probe_traced": {k: probed[k] for k in ("io", "wall")},
            "replay_matches_served_io": replay_equal,
            "layers": table,
        }
        return Result(metrics, outcomes, detail, tracer)

    def _probe(
        self,
        generator: TPCDGenerator,
        data: Any,
        outcomes: Outcomes,
        tracer: Optional[Tracer],
    ) -> Dict[str, Any]:
        """Serial queries with one refresh halfway, on a fresh server."""
        name = "probe-traced" if tracer is not None else "probe"
        directory = os.path.join(self.work, name)
        self._bootstrap(directory)
        if tracer is None:
            shutil.copytree(
                directory, os.path.join(self.work, "probe-replay")
            )
        stream = QueryStream(data.schema, self.seed)
        server = InProcessServer(directory)
        patches = instrument(tracer) if tracer is not None else None
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        #: (sequential, random) page reads of each generation-1 query
        gen1_reads: List[Tuple[int, int]] = []
        try:
            start_io = _io_counters()
            start = time.perf_counter()
            for i in range(SERVE_PROBE_QUERIES):
                if i == SERVE_PROBE_QUERIES // 2:
                    rows = increment(generator, 1)
                    body = json.dumps({"rows": [list(r) for r in rows]})
                    outcomes.attempt()
                    status, _ = _post(conn, "/delta", body.encode())
                    if status != 202:
                        outcomes.fail("refresh", f"/delta answered {status}")
                    status, outcome = _post(conn, "/refresh", None)
                    if (
                        status != 200
                        or not isinstance(outcome, dict)
                        or outcome.get("status") != "published"
                    ):
                        outcomes.fail("refresh", f"{status}: {outcome}")
                before = _io_counters()
                outcomes.attempt()
                status, reply = _post(conn, "/query", query_body(stream.next()))
                if status != 200:
                    outcomes.fail("http_status", f"{status}: {reply}")
                if i < SERVE_PROBE_QUERIES // 2:
                    after = _io_counters()
                    gen1_reads.append(
                        (int(after[0] - before[0]), int(after[1] - before[1]))
                    )
            wall = time.perf_counter() - start
            end_io = _io_counters()
        finally:
            conn.close()
            if patches is not None:
                patches.restore()
            server.stop()
        io = [int(end_io[i] - start_io[i]) for i in range(3)]
        return {"io": io, "wall": wall, "gen1_reads": gen1_reads}


def _served_wall(before: Dict[str, Any], after: Dict[str, Any]) -> float:
    """Mean ``query_wall_ms`` the server recorded over the window."""
    old = before["metrics"]["query_wall_ms"]
    new = after["metrics"]["query_wall_ms"]
    count = new["count"] - old["count"]
    return (new["sum"] - old["sum"]) / count if count else 0.0


def replay_served(
    directory: str,
    generator: TPCDGenerator,
    schema: Any,
    seed: int,
    queries: int = SIM_PREFIX_QUERIES,
    refreshes: int = SIM_PREFIX_REFRESHES,
) -> Dict[str, Any]:
    """Simulated I/O of the served streams, replayed in this process.

    The server does not report page I/O over HTTP, so the benchmark
    replays the reader's first queries serially against the bootstrap
    generation, opened exactly as the server opens it, and the writer's
    first increments through the server's refresh cycle: load the newest
    generation, ``update()``, save.
    """
    engine = load_any_engine(directory, pool_cls=SharedBufferPool)
    stream = QueryStream(schema, seed)
    ios = [engine.query(stream.next()).io for _ in range(queries)]
    per_query = [io.simulated_ms for io in ios]
    engine = None
    refresh_sim = []
    for k in range(1, refreshes + 1):
        engine = load_any_engine(directory, pool_cls=SharedBufferPool)
        refresh_sim.append(engine.update(increment(generator, k)).io.simulated_ms)
        save_database(engine, directory)
    return {
        "queries": queries,
        "refreshes": refreshes,
        "per_query_reads": [
            (io.sequential_reads, io.random_reads) for io in ios
        ],
        "query_sim_ms": sum(per_query) / len(per_query) if per_query else 0.0,
        "refresh_sim_ms": (
            sum(refresh_sim) / len(refresh_sim) if refresh_sim else 0.0
        ),
    }
