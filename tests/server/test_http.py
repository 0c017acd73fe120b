"""The HTTP/JSON API end to end over a real socket.

Routes, status codes, and — the part that matters — the generation tag:
an HTTP client must be able to key snapshot checks off ``generation``
in every query response, exactly like the in-process harness does.
The keep-alive and hostile-client classes hold one connection open and
check that every reply arrives in order, in one write, and that broken
or stalled clients get a reply or a closed socket — never a hung thread.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.server import http as http_module
from repro.server import make_http_server
from repro.server.http import CubetreeHTTPServer


@pytest.fixture()
def endpoint(server):
    httpd = make_http_server(server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", server
    httpd.shutdown()
    httpd.server_close()


def _call(base, path, body=None):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutes:
    def test_health(self, endpoint):
        base, server = endpoint
        status, payload = _call(base, "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == server.manager.current_number

    def test_structured_query_matches_in_process(self, endpoint, workload):
        base, server = endpoint
        query = workload[0]
        body = {
            "group_by": list(query.group_by),
            "bindings": [list(b) for b in query.bindings],
            "ranges": [list(r) for r in query.ranges],
        }
        status, payload = _call(base, "/query", body)
        assert status == 200
        served = server.query(query)
        assert payload["generation"] == served.generation
        assert payload["rows"] == [list(row) for row in served.rows]
        assert payload["row_count"] == len(served.rows)

    def test_sql_query(self, endpoint):
        base, server = endpoint
        status, payload = _call(
            base,
            "/query",
            {"sql": "select partkey, sum(quantity) from F group by partkey"},
        )
        assert status == 200
        assert payload["row_count"] > 0

    def test_batch_shares_one_generation(self, endpoint, workload):
        base, _server = endpoint
        body = {
            "queries": [
                {"group_by": list(q.group_by),
                 "bindings": [list(b) for b in q.bindings],
                 "ranges": [list(r) for r in q.ranges]}
                for q in workload[:3]
            ]
        }
        status, payload = _call(base, "/query/batch", body)
        assert status == 200
        generations = {r["generation"] for r in payload["results"]}
        assert generations == {payload["generation"]}

    def test_delta_then_refresh_publishes(self, endpoint, database):
        base, server = endpoint
        _directory, generator, _data = database
        rows = generator.generate_increment(0.1, stream="http")
        before = server.manager.current_number
        status, payload = _call(base, "/delta", {"rows": [list(r) for r in rows]})
        assert status == 202
        assert payload["pending_rows"] >= len(rows)
        status, payload = _call(base, "/refresh", {})
        assert status == 200
        assert payload["status"] == "published"
        assert payload["generation"] > before
        status, payload = _call(base, "/health")
        assert payload["generation"] > before

    def test_generations_and_stats(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/generations")
        assert status == 200
        assert any(entry["current"] for entry in payload["generations"])
        status, payload = _call(base, "/stats")
        assert status == 200
        assert "admission" in payload and "metrics" in payload
        # A single-forest database reports its one shard.
        assert [entry["shard"] for entry in payload["shards"]] == [0]


class TestErrors:
    def test_unknown_route_404(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/nope")
        assert status == 404
        assert "error" in payload

    def test_malformed_query_400(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/query", {"group_by": "notalist"})
        assert status == 400
        status, payload = _call(
            base, "/query", {"bindings": [["partkey"]]}
        )
        assert status == 400
        status, payload = _call(base, "/query", {"sql": 42})
        assert status == 400

    def test_bad_sql_400(self, endpoint):
        base, _server = endpoint
        status, payload = _call(base, "/query", {"sql": "select wat"})
        assert status == 400
        assert "error" in payload

    def test_bad_delta_400(self, endpoint):
        base, _server = endpoint
        status, _ = _call(base, "/delta", {"rows": "nope"})
        assert status == 400
        status, _ = _call(base, "/delta", {"rows": [["x", "y"]]})
        assert status == 400

    def test_admission_full_503(self, endpoint, workload):
        base, server = endpoint
        # Choke the queue so the next HTTP query is rejected.
        server.admission.close()
        try:
            query = workload[0]
            status, payload = _call(
                base, "/query", {"group_by": list(query.group_by)}
            )
            assert status == 503
            assert "error" in payload
        finally:
            server.admission.start()


# ----------------------------------------------------------------------
# keep-alive connections and hostile clients
# ----------------------------------------------------------------------
class _RecordingSocket:
    """An accepted socket that logs every ``sendall`` the handler makes."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []

    def sendall(self, data):
        self.sends.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _RecordingHTTPServer(CubetreeHTTPServer):
    def __init__(self, cubetree):
        super().__init__(("127.0.0.1", 0), cubetree)
        self.accepted = []

    def get_request(self):
        sock, address = super().get_request()
        recording = _RecordingSocket(sock)
        self.accepted.append(recording)
        return recording, address


@pytest.fixture()
def recorded(server):
    httpd = _RecordingHTTPServer(server)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, server
    httpd.shutdown()
    httpd.server_close()


def _exchange(conn, method, path, body=None):
    conn.request(
        method, path, body=body, headers={"Content-Type": "application/json"}
    )
    reply = conn.getresponse()
    return reply.status, reply.getheader("Connection"), reply.read()


def _raw_exchange(port, request, half_close=False):
    """Send raw bytes, then read until the server closes the socket."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestKeepAlive:
    def test_one_connection_stays_in_sync(self, recorded, workload, database):
        httpd, server = recorded
        _directory, generator, _data = database
        query = json.dumps({"group_by": list(workload[0].group_by)})
        rows = generator.generate_increment(0.1, stream="keepalive")
        delta = json.dumps({"rows": [list(r) for r in rows]})
        sequence = [
            ("POST", "/query", query, 200),
            ("POST", "/delta", delta, 202),
            ("POST", "/refresh", '{"reason": "keep-alive"}', 200),
            ("POST", "/refresh", None, 200),
            ("GET", "/health", None, 200),
            ("POST", "/query", "{not json", 400),
            ("POST", "/nope", '{"ignored": true}', 404),
            ("POST", "/query", query, 200),
        ]
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        bodies = []
        try:
            for method, path, body, expected in sequence:
                status, connection, data = _exchange(conn, method, path, body)
                assert status == expected, (path, data)
                assert connection is None, "server asked to close"
                bodies.append(data)
            # One socket carried the whole sequence, with Nagle off on
            # the server side ...
            (accepted,) = httpd.accepted
            assert accepted.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        finally:
            conn.close()
        assert json.loads(bodies[-1])["generation"] > 1
        # ... and every reply left in exactly one write.
        assert len(accepted.sends) == len(sequence)
        for sent, body in zip(accepted.sends, bodies):
            assert sent.startswith(b"HTTP/1.1 ")
            assert sent.endswith(b"\r\n\r\n" + body)

    def test_route_crash_is_a_500_and_keeps_the_connection(
        self, recorded, monkeypatch
    ):
        httpd, server = recorded

        def broken():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(server, "stats", broken)
        host, port = httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            status, _connection, data = _exchange(conn, "GET", "/stats")
            assert status == 500
            assert "stats exploded" in json.loads(data)["error"]
            status, _connection, _data = _exchange(conn, "GET", "/health")
            assert status == 200
        finally:
            conn.close()


class TestHostileClients:
    @pytest.mark.parametrize(
        "framing",
        [
            b"Content-Length: abc\r\n\r\n",
            b"Content-Length: -5\r\n\r\n",
            b"Content-Length: 1_0\r\n\r\n",
            b"Content-Length: +3\r\n\r\n",
            b"Content-Length: 2\r\nContent-Length: 3\r\n\r\n",
            b"Content-Length: 99999999999\r\n\r\n",
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"Content-Length: 100\r\n\r\n{}",
        ],
        ids=[
            "non-numeric", "negative", "underscore", "signed",
            "conflicting", "oversized", "chunked", "truncated",
        ],
    )
    def test_untrusted_framing_is_400_and_closes(self, recorded, framing):
        httpd, _server = recorded
        reply = _raw_exchange(
            httpd.server_address[1],
            b"POST /query HTTP/1.1\r\nHost: t\r\n" + framing,
            half_close=True,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /query HTTP/1.1\r\nHost: t\r\n",
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 100\r\n\r\n{\"group_by\"",
        ],
        ids=["mid-headers", "mid-body"],
    )
    def test_stalled_client_is_dropped(
        self, recorded, monkeypatch, request_bytes
    ):
        monkeypatch.setattr(http_module, "CONNECTION_TIMEOUT_S", 0.2)
        httpd, _server = recorded
        port = httpd.server_address[1]
        # The server gives up on the stalled request and closes the
        # socket without a reply, releasing its handler thread.
        assert _raw_exchange(port, request_bytes) == b""
        status, _payload = _call(f"http://127.0.0.1:{port}", "/health")
        assert status == 200
