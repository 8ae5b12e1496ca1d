"""The load generator counts every failure and keeps its schedule seeded."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
import workloads


class _Stub(BaseHTTPRequestHandler):
    """``/ok`` answers right, ``/500`` fails, ``/slow`` never answers in
    time, ``/wrong`` answers 200 with the wrong body, ``/manifest`` with
    JSON that names no world."""

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/slow":
            time.sleep(1.0)
        status = 500 if self.path == "/500" else 200
        body = {"/wrong": b"wrong", "/manifest": b'{"records": 1}'}.get(self.path, b"right")
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        pass  # the client gave up on /slow before it answered


@pytest.fixture()
def stub(monkeypatch):
    monkeypatch.setattr(loadgen, "REQUEST_TIMEOUT_S", 0.3)
    server = _Server(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _requests(paths):
    return [loadgen.Request("GET", p, None, str(i)) for i, p in enumerate(paths)]


def _check(request, body):
    return body == b"right"


PATHS = ["/ok", "/500", "/ok", "/slow", "/wrong", "/ok", "/500", "/ok"]


def test_closed_loop_counts_every_failure(stub):
    host, port = stub
    results, wall = loadgen.closed_loop(host, port, _requests(PATHS), 2, _check)
    assert len(results) == len(PATHS)
    assert [r.ok for r in results] == [p == "/ok" for p in PATHS]
    assert wall > 0
    for r in results:
        if not r.ok:
            assert r.latency_s >= loadgen.REQUEST_TIMEOUT_S
    out = workloads.Outcome()
    workloads._tally(out, results, "closed loop")
    assert (out.attempted, out.failed, out.correct) == (8, 4, False)


def test_open_loop_counts_every_failure(stub):
    host, port = stub
    offsets = loadgen.poisson_schedule(7, 40.0, 0.5)
    paths = (PATHS * 10)[: len(offsets)]
    results = loadgen.open_loop(host, port, _requests(paths), offsets, 2, _check)
    assert len(results) == len(offsets)
    assert sum(not r.ok for r in results) == sum(p != "/ok" for p in paths)
    assert all(r.sent >= r.due - 1e-3 for r in results)


def test_transport_errors_are_failures():
    # Nothing listens on this port once the socket is closed.
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    results, _ = loadgen.closed_loop("127.0.0.1", port, _requests(["/ok"] * 3), 2, _check)
    assert len(results) == 3 and not any(r.ok for r in results)
    assert all(r.error for r in results)


def test_schedule_depends_only_on_seed_and_rate():
    import random

    a = loadgen.poisson_schedule(3, 80.0, 5.0)
    random.seed(12345)  # global RNG state must not matter
    b = loadgen.poisson_schedule(3, 80.0, 5.0)
    assert a == b
    assert a != loadgen.poisson_schedule(4, 80.0, 5.0)
    assert a != loadgen.poisson_schedule(3, 81.0, 5.0)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 300 < len(a) < 500  # about rate x duration
    assert loadgen.poisson_schedule(3, 80.0, 2.0) == [t for t in a if t < 2.0]


def test_unreadable_bodies_are_failures_not_crashes(stub):
    # The serve_query check parses the manifest as JSON: a body that is not
    # JSON, or JSON without ``world_digest``, is a wrong body.
    host, port = stub
    universe = [
        {"path": "/wrong", "sha": None},
        {"path": "/manifest", "sha": None},
        {"path": "/ok", "sha": workloads.sha256_hex(b"right")[:16]},
    ]
    check = workloads.query_check(universe, "0" * 40)
    requests = [loadgen.Request("GET", e["path"], None, str(i)) for i, e in enumerate(universe)]
    results, _ = loadgen.closed_loop(host, port, requests, 2, check)
    assert [r.ok for r in results] == [False, False, True]
    assert all("wrong body" in r.error for r in results[:2])
    out = workloads.Outcome()
    workloads._tally(out, results, "closed loop")
    assert (out.attempted, out.failed) == (3, 2)
