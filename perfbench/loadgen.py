"""Out-of-process HTTP load generator.

Runs in the benchmark's own process, never in the server's, with at most
``nproc`` threads, one connection each at a time.  Two disciplines:

* closed loop — each thread sends its next request when the previous one
  completes, over a fixed request list; reports the list's completion time;
* open loop — requests are due at seeded Poisson arrival times at a fixed
  rate, whether or not earlier ones completed; each request is timed from
  when it was due, so a stall also charges the requests queued behind it.

Every request yields a :class:`Result`.  A non-200 status, a transport
error, a timeout or a body the caller's check rejects is a failure; a
failure is never dropped, and its latency counts as at least the timeout.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from tracing import UNIT_HEADER

#: Seconds before an unanswered request is a failure.
REQUEST_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Request:
    """One HTTP request; ``key`` names it for the output check."""

    method: str
    path: str
    body: bytes | None
    key: str


@dataclass
class Result:
    key: str
    unit: str
    due: float
    sent: float
    done: float
    status: int | None
    ok: bool
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Time from due (open loop) or sent (closed loop) to completion."""
        elapsed = self.done - self.due
        return elapsed if self.ok else max(elapsed, REQUEST_TIMEOUT_S)


Check = Callable[[Request, bytes], bool]


def poisson_schedule(seed: int, rate: float, duration_s: float) -> list[float]:
    """Arrival offsets (s) of a Poisson process; depends only on the seed,
    the rate and the duration."""
    rng = random.Random(f"open-loop:{seed}:{rate!r}")
    offsets: list[float] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def send(host: str, port: int, request: Request, unit: str) -> tuple[int, bytes]:
    """One request on a fresh connection (the server speaks HTTP/1.0)."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {UNIT_HEADER: unit}
        if request.body is not None:
            headers["Content-Type"] = "text/plain; charset=utf-8"
        conn.request(request.method, request.path, body=request.body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _execute(host, port, request: Request, unit: str, due: float, check: Check) -> Result:
    sent = time.perf_counter()
    try:
        status, body = send(host, port, request, unit)
    except Exception as exc:  # refused, reset, timed out, malformed reply
        return Result(request.key, unit, due, sent, time.perf_counter(), None, False, repr(exc))
    done = time.perf_counter()
    if status != 200:
        return Result(request.key, unit, due, sent, done, status, False, f"status {status}")
    try:
        ok, error = check(request, body), "wrong body"
    except Exception as exc:  # a body the check cannot read is a wrong body
        ok, error = False, f"wrong body: {exc!r}"
    return Result(request.key, unit, due, sent, done, status, ok, None if ok else error)


def _run_threads(clients: int, target) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(
    host: str, port: int, requests: list[Request], clients: int, check: Check, unit_prefix: str = "c"
) -> tuple[list[Result], float]:
    """Send *requests* with *clients* threads back to back.

    Returns the results in list order and the wall time to complete all.
    """
    results: list[Result | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            now = time.perf_counter()
            results[i] = _execute(host, port, requests[i], f"{unit_prefix}{i}", now, check)

    start = time.perf_counter()
    _run_threads(clients, worker)
    return results, time.perf_counter() - start  # type: ignore[return-value]


def open_loop(
    host: str,
    port: int,
    requests: list[Request],
    offsets: list[float],
    clients: int,
    check: Check,
    unit_prefix: str = "o",
) -> list[Result]:
    """Send ``requests[i]`` when ``offsets[i]`` seconds have passed."""
    if len(requests) < len(offsets):
        raise ValueError("fewer requests than scheduled arrivals")
    results: list[Result | None] = [None] * len(offsets)
    lock = threading.Lock()
    cursor = iter(range(len(offsets)))
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + offsets[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            results[i] = _execute(host, port, requests[i], f"{unit_prefix}{i}", due, check)

    _run_threads(clients, worker)
    return results  # type: ignore[return-value]
