"""The four workloads and the metrics each run reports.

Batch workloads (``build_tiny``, ``evaluate_small``) run one job in a
child process; the job's own clock, CPU and RSS accounting cover it and
its pool workers.  Serve workloads (``serve_classify``, ``serve_query``)
start the server as its own process and drive it over HTTP from this one.

Every workload reports the same gated end-to-end metrics (``setup_s``,
``wall_s``, ``cpu_s``, ``peak_rss_mb``), each a median over the samples of
one run so that a stall of a few seconds on a shared host moves a few
samples rather than the run.  A batch sample is one unit of work (one
build; one protocol seed of Tables III and VI); a serve sample is one
closed-loop round of a fixed request list over ``CLIENTS`` connections.
``rps`` and ``cpu_ms_per_req`` are ``wall_s`` and ``cpu_s`` divided by the
sample's fixed unit count, so they are printed, not gated a second time.
Per-unit latency percentiles (serve: the median over open-loop slices of
each slice's percentile) are printed but not gated: they did not hold
steady on a shared 2-vCPU host.
"""

from __future__ import annotations

import json
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
import tracing
from common import (
    BENCH,
    CACHE,
    CLIENTS,
    JOB_TIMEOUT_S,
    ROOT,
    SCALE,
    SETUP_REPEATS,
    WORLD_SEED,
    BenchError,
    child_env,
    load_expected,
    median,
    nearest_rank,
    proc_cpu_s,
    proc_hwm_mb,
    sha256_hex,
)

#: build_tiny builds each of this many recorded world seeds.
BUILD_WORLDS = 4
#: evaluate_small runs this protocol seed first, untimed: the first seed
#: fills most of the world's feature and token caches and costs about
#: twice the others.  Then it times the next EVAL_UNITS protocol seeds.
EVAL_WARMUP_SEED = 0
EVAL_UNITS = 5


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: name -> (value, unit, sample count); the metrics of the result line
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: the same for figures that are printed but not gated
    printed: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, n)

    def show(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.printed[name] = (float(value), unit, n)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.correct = False
            self.notes.append(f"FAILED x{count}: {why}")


def _workdir(tag: str) -> Path:
    path = CACHE / "runs" / f"{tag}-{time.time_ns()}"
    path.mkdir(parents=True)
    return path


def _job(args: list[str], timeout: float = JOB_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one job; a job that outlives *timeout* is killed, reaped and
    reported as failed."""
    argv = [sys.executable, str(BENCH / "jobs.py"), *args]
    try:
        return subprocess.run(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(argv, -9, None, f"timed out after {timeout:.0f}s")


# ---- batch workloads -------------------------------------------------------


def _import_setup_s() -> list[float]:
    """Interpreter start plus ``import repro.cli``, timed from launch to exit."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = _job(["imports"], timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing the program failed:\n{proc.stderr[-2000:]}")
    return samples


def _batch_metrics(out: Outcome, result: dict, setup: list[float]) -> None:
    """Medians over the job's units (one build, or one protocol seed)."""
    walls = [w for w, _ in result["units"]]
    cpus = [c for _, c in result["units"]]
    n = len(walls)
    out.put("setup_s", median(setup), "s", len(setup))
    out.put("wall_s", median(walls), "s", n)
    out.put("cpu_s", median(cpus), "s", n)
    out.put("peak_rss_mb", result["peak_rss_mb"], "MB", 1)
    out.show("rps", 1.0 / median(walls), "1/s", n)
    out.show("cpu_ms_per_req", 1000.0 * median(cpus), "ms", n)
    out.show("p50_ms", 1000.0 * median(walls), "ms", n)
    out.show("p95_ms", 1000.0 * nearest_rank(walls, 95), "ms", n)


def _job_wall(result: dict) -> float:
    return sum(w for w, _ in result["units"])


def _run_build_job(world_seed: int, trace_dir: Path | None, timeout: float = JOB_TIMEOUT_S) -> dict:
    work = _workdir("build")
    try:
        args = ["build", "--world-seed", str(world_seed), "--out", str(work)]
        if trace_dir is not None:
            args += ["--trace", str(trace_dir)]
        proc = _job(args, timeout)
        if proc.returncode != 0:
            return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
        result = json.loads((work / "result.json").read_text())
        if result["rc"] == 0:
            result["variants"] = sum(
                1 for line in (work / "release.jsonl").open() if '"source": "synthetic"' in line
            )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_build(out: Outcome, result: dict, world_seed: int) -> None:
    out.attempted += 1
    if result.get("rc") != 0:
        out.fail(1, f"build exited {result.get('rc')}: {result.get('stderr', '')}")
        return
    expected = load_expected("build")["worlds"][str(world_seed)]
    for key in ("world_digest", "release_sha256"):
        if result[key] != expected[key]:
            out.fail(1, f"{key} {result[key]} != recorded {expected[key]}")
            return


def build_units(seed: int, seconds: int) -> list[int]:
    """World seeds of one ``build_tiny`` run: every recorded world
    ``seconds // 5`` times (at least once), in a seeded order.  Each run
    does the same work; the seed only orders it."""
    units = list(range(WORLD_SEED, WORLD_SEED + BUILD_WORLDS)) * max(1, seconds // 5)
    random.Random(f"build:{seed}").shuffle(units)
    return units


def build_tiny(inputs: Path, seed: int, seconds: int, trace: bool) -> Outcome:
    """World build -> NVD crawl -> Table II augmentation -> synthesis ->
    release JSONL at TINY, ``workers=2``, one build per child process.  A
    run builds each recorded world the same number of times and reports
    the median build, so a stall on a shared host moves a few samples
    rather than the run."""
    out = Outcome()
    units = build_units(seed, seconds)
    out.notes.append(f"world seeds {units}")
    if not trace:
        setup = _import_setup_s()
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        results = []
        for world_seed in units:
            # All builds of a run share one job's time limit.
            result = _run_build_job(world_seed, None, max(1.0, deadline - time.perf_counter()))
            _check_build(out, result, world_seed)
            if not out.correct:
                break
            results.append(result)
        if out.correct:
            merged = {
                "units": [u for r in results for u in r["units"]],
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            }
            _batch_metrics(out, merged, setup)
        return out
    world_seed = units[0]
    plain = _run_build_job(world_seed, None)
    _check_build(out, plain, world_seed)
    trace_dir = _workdir("trace-build")
    try:
        traced = _run_build_job(world_seed, trace_dir)
        _check_build(out, traced, world_seed)
        if out.correct:
            summary = tracing.summarize(tracing.load(trace_dir))
            layer_metrics(out, "build_tiny", summary, traced["counters"], _job_wall(plain), _job_wall(traced))
            _check_job_envelope(out, summary, traced["job_wall_s"])
            out.put("corpus.commits_produced", traced["build_stats"]["commits_produced"], "count")
            out.put("corpus.commits_skipped", traced["build_stats"]["commits_skipped"], "count")
            out.put("synthesis.variants", traced["variants"], "count")
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return out


def _run_eval_job(inputs: Path, seeds: list[int], trace_dir: Path | None) -> dict:
    work = _workdir("evaluate")
    try:
        world = next((inputs / "world").glob("*.pkl"))
        args = ["evaluate", "--world", str(world), "--seeds", ",".join(map(str, seeds)),
                "--out", str(work / "result.json")]
        if trace_dir is not None:
            args += ["--trace", str(trace_dir)]
        proc = _job(args)
        if proc.returncode != 0:
            return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _check_eval(out: Outcome, result: dict, seeds: list[int]) -> None:
    out.attempted += len(seeds)
    if result.get("rc") != 0:
        out.fail(len(seeds), f"evaluate exited {result.get('rc')}: {result.get('stderr', '')}")
        return
    expected = load_expected("evaluate")["rows_sha256"]
    bad = [s for s in seeds if result["digests"][str(s)] != expected[str(s)]]
    out.fail(len(bad), f"table rows differ from the recorded rows for protocol seeds {bad}")


def eval_units() -> list[int]:
    """Protocol seeds of every ``evaluate_small`` run, in a fixed order: the
    warm-up seed, then the timed seeds.  The world's caches fill over the
    first few seeds, so a unit's cost depends on its position; a fixed
    order gives every run the same work at every position."""
    return list(range(EVAL_WARMUP_SEED, EVAL_WARMUP_SEED + 1 + EVAL_UNITS))


def evaluate_small(inputs: Path, seed: int, seconds: int, trace: bool) -> Outcome:
    """Tables III and VI over the prepared SMALL world, ``ml_workers=2``,
    per protocol seed; every seed's rows are checked, the warm-up seed's
    time is left out of the medians.  The run's work does not depend on
    *seed*: each choice it could make (which protocol seeds, in which
    order) changes the cost of the run."""
    out = Outcome()
    # A traced run covers the warm-up and one timed seed: every layer the
    # timed seeds reach, at a third of the untraced run's length.
    seeds = eval_units()[:2] if trace else eval_units()
    out.notes.append(f"protocol seeds {seeds} (the first untimed)")
    if not trace:
        result = _run_eval_job(inputs, seeds, None)
        _check_eval(out, result, seeds)
        if out.correct:
            timed = dict(result, units=result["units"][1:])
            _batch_metrics(out, timed, result["setup_s"])
        return out
    plain = _run_eval_job(inputs, seeds, None)
    _check_eval(out, plain, seeds)
    trace_dir = _workdir("trace-evaluate")
    try:
        traced = _run_eval_job(inputs, seeds, trace_dir)
        _check_eval(out, traced, seeds)
        if out.correct:
            summary = tracing.summarize(tracing.load(trace_dir))
            layer_metrics(out, "evaluate_small", summary, traced["counters"], _job_wall(plain), _job_wall(traced))
            _check_job_envelope(out, summary, traced["job_wall_s"])
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return out


# ---- serve workloads -------------------------------------------------------


class Server:
    """The server as its own process, started through the launcher.

    ``setup_s`` is the time from spawn until the CLI reports the socket
    listening: world-pickle load, release load, index build, cold RF fit.
    """

    def __init__(self, inputs: Path, trace_dir: Path | None = None) -> None:
        argv = [sys.executable, str(BENCH / "launcher.py")]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        argv += [
            "serve", "--scale", SCALE, "--seed", str(WORLD_SEED),
            "--world-cache", str(inputs / "world"), "--patchdb", str(inputs / "release.jsonl"),
            "--host", "127.0.0.1", "--port", "0",
        ]
        self.host = "127.0.0.1"
        self.port = 0
        self.tail: list[str] = []
        lines: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        deadline = start + 150.0
        while True:
            try:
                line = lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                self.stop()
                raise BenchError("server did not start listening in time") from None
            if line is None:
                self.stop()
                raise BenchError("server exited during start-up:\n" + "".join(self.tail))
            if "serving PatchDB on http://" in line:
                self.setup_s = time.perf_counter() - start
                self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                break

    def _drain(self, lines: queue.Queue) -> None:
        for line in self.proc.stderr:
            self.tail = (self.tail + [line])[-40:]
            lines.put(line)
        lines.put(None)

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.proc.pid)

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        """Terminate the server, let it shut down cleanly, and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


@dataclass
class Traffic:
    """One serve workload's requests, checks and rates."""

    closed: list[loadgen.Request]
    open: list[loadgen.Request]
    offsets: list[float]
    check: loadgen.Check


#: Closed-loop list sizes are fixed per second of ``--seconds`` so both
#: commits of a comparison do identical work.  Open-loop rates are a
#: quarter to a third of the capacity measured on 2 shared CPUs, whose
#: speed drifts by up to 2x; at a slow spell they stay below half of it.
CLASSIFY_CLOSED_PER_S = 160
CLASSIFY_OPEN_RATE = 60.0
QUERY_CLOSED_PER_S = 500
QUERY_OPEN_RATE = 200.0
#: The open loop's share of ``--seconds``: its percentiles are printed,
#: not gated, and the server start-ups already take most of a run.
OPEN_SHARE = 0.4
#: Closed-loop rounds and open-loop slices each server instance runs.
PHASES_PER_SERVER = 2


def classify_traffic(inputs: Path, seed: int, seconds: int) -> Traffic:
    """POST ``/v1/classify`` bodies from the payload world, each at most
    once per run: the closed loop draws from one fixed pool and the open
    loop from another, each in a seeded order.  Fixed pools keep the
    heavy-tailed per-payload cost (Levenshtein is quadratic in hunk size)
    the same from run to run, so the spread measures the program."""
    payloads = json.loads((inputs / "payloads.json").read_text())
    expected = load_expected("classify")["bodies"]
    if len(expected) != len(payloads):
        raise BenchError("payload pool differs from the recorded one")
    n_closed = CLASSIFY_CLOSED_PER_S * seconds // 2
    offsets = loadgen.poisson_schedule(seed, CLASSIFY_OPEN_RATE, OPEN_SHARE * seconds)
    n_open = 2 * int(CLASSIFY_OPEN_RATE * OPEN_SHARE * seconds)  # well above any schedule's length
    pools = random.Random("classify-pools").sample(range(len(payloads)), n_closed + n_open)
    rng = random.Random(f"classify:{seed}")
    closed = rng.sample(pools[:n_closed], n_closed)
    opened = rng.sample(pools[n_closed:], n_open)
    if len(offsets) > n_open:
        raise BenchError("open-loop schedule longer than its payload pool")

    def requests(indices: list[int]) -> list[loadgen.Request]:
        return [loadgen.Request("POST", "/v1/classify", payloads[i].encode("utf-8"), str(i)) for i in indices]

    def check(request: loadgen.Request, body: bytes) -> bool:
        return sha256_hex(body)[:16] == expected[int(request.key)]

    return Traffic(requests(closed), requests(opened), offsets, check)


def query_traffic(inputs: Path, seed: int, seconds: int) -> Traffic:
    """A seeded GET mix over the recorded request universe (paged queries,
    repo/pattern filters, sha and cve_id lookups, repo-filtered JSONL
    streams, manifest, summary), sampled with replacement."""
    recorded = load_expected("query")
    universe = recorded["requests"]
    rng = random.Random(f"query:{seed}")
    n_closed = QUERY_CLOSED_PER_S * seconds // 2
    offsets = loadgen.poisson_schedule(seed, QUERY_OPEN_RATE, OPEN_SHARE * seconds)
    picks = rng.choices(range(len(universe)), k=n_closed + len(offsets))
    requests = [loadgen.Request("GET", universe[i]["path"], None, str(i)) for i in picks]
    check = query_check(universe, recorded["world_digest"])
    return Traffic(requests[:n_closed], requests[n_closed:], offsets, check)


def query_check(universe: list[dict], world_digest: str) -> loadgen.Check:
    """Bodies must match the recorded digest; the manifest, which carries
    a timestamp, must name the recorded world."""

    def check(request: loadgen.Request, body: bytes) -> bool:
        entry = universe[int(request.key)]
        if entry["sha"] is None:
            return json.loads(body)["world_digest"] == world_digest
        return sha256_hex(body)[:16] == entry["sha"]

    return check


def _tally(out: Outcome, results: list[loadgen.Result], phase: str) -> None:
    out.attempted += len(results)
    bad = [r for r in results if not r.ok]
    if bad:
        out.fail(len(bad), f"{phase}: e.g. request {bad[0].key}: {bad[0].error}")


def open_slices(offsets: list[float], n: int) -> list[list[float]]:
    """The open-loop schedule cut by due time into *n* slices, each
    re-based to start at zero."""
    span = offsets[-1] + 1e-9 if offsets else 1.0
    slices: list[list[float]] = [[] for _ in range(n)]
    for t in offsets:
        k = min(n - 1, int(n * t / span))
        slices[k].append(t - k * span / n)
    return slices


def serve_workload(name: str, inputs: Path, seed: int, seconds: int, trace: bool) -> Outcome:
    """Start the server ``SETUP_REPEATS`` times; each instance serves an
    equal share of the closed-loop rounds and open-loop slices, so the
    measurement is spread over the whole run and each metric is the median
    over rounds or slices: a stall of a few seconds on a shared host moves
    a few samples, not the run."""
    out = Outcome()
    traffic = (classify_traffic if name == "serve_classify" else query_traffic)(inputs, seed, seconds)
    if trace:
        return _serve_traced(name, out, inputs, traffic)
    n = SETUP_REPEATS * PHASES_PER_SERVER
    size = len(traffic.closed) // n
    slices = open_slices(traffic.offsets, n)
    setup, hwm, rounds, segments = [], [], [], []
    cursor = 0
    for s in range(SETUP_REPEATS):
        server = Server(inputs)
        setup.append(server.setup_s)
        try:
            for j in range(PHASES_PER_SERVER):
                k = s * PHASES_PER_SERVER + j
                chunk = traffic.closed[k * size:(k + 1) * size]
                cpu0 = server.cpu_s()
                closed, wall = loadgen.closed_loop(
                    server.host, server.port, chunk, CLIENTS, traffic.check, f"c{k}."
                )
                rounds.append((wall, server.cpu_s() - cpu0))
                _tally(out, closed, "closed loop")
                batch = traffic.open[cursor:cursor + len(slices[k])]
                cursor += len(batch)
                opened = loadgen.open_loop(
                    server.host, server.port, batch, slices[k], CLIENTS, traffic.check, f"o{k}."
                )
                _tally(out, opened, "open loop")
                if opened:
                    segments.append([r.latency_s * 1000.0 for r in opened])
            hwm.append(server.hwm_mb())
        finally:
            server.stop()
    wall = median([w for w, _ in rounds])
    cpu = median([c for _, c in rounds])
    latencies = [x for seg in segments for x in seg]
    out.put("setup_s", median(setup), "s", len(setup))
    out.put("wall_s", wall, "s", len(rounds))
    out.put("cpu_s", cpu, "s", len(rounds))
    out.put("peak_rss_mb", median(hwm), "MB", len(hwm))
    out.show("rps", size / wall, "1/s", len(rounds))
    out.show("cpu_ms_per_req", 1000.0 * cpu / size, "ms", len(rounds))
    out.show("p50_ms", median([median(seg) for seg in segments]), "ms", len(segments))
    out.show("p95_ms", median([nearest_rank(seg, 95) for seg in segments]), "ms", len(segments))
    out.show("p99_ms", nearest_rank(latencies, 99), "ms", len(latencies))
    out.notes.append(
        f"closed loop {len(rounds)} rounds x {size} requests; open loop {len(latencies)} "
        f"requests in {len(segments)} slices (p50/p95: median of the slices' percentiles; p99 pooled)"
    )
    return out


def _serve_traced(name: str, out: Outcome, inputs: Path, traffic: Traffic) -> Outcome:
    import resource

    plain = Server(inputs)
    try:
        closed, wall_plain = loadgen.closed_loop(plain.host, plain.port, traffic.closed, CLIENTS, traffic.check)
    finally:
        plain.stop()
    _tally(out, closed, "untraced closed loop")
    trace_dir = _workdir(f"trace-{name}")
    try:
        server = Server(inputs, trace_dir)
        try:
            before = server.get_json("/statsz")["counters"]
            server.signal(signal.SIGUSR1)
            time.sleep(0.3)
            own0 = resource.getrusage(resource.RUSAGE_SELF)
            closed, wall = loadgen.closed_loop(server.host, server.port, traffic.closed, CLIENTS, traffic.check)
            opened = loadgen.open_loop(
                server.host, server.port, traffic.open, traffic.offsets, CLIENTS, traffic.check
            )
            own1 = resource.getrusage(resource.RUSAGE_SELF)
            server.signal(signal.SIGUSR2)
            time.sleep(0.3)
            after = server.get_json("/statsz")["counters"]
        finally:
            server.stop()
        _tally(out, closed, "traced closed loop")
        _tally(out, opened, "traced open loop")
        if not out.correct:
            return out
        counters = {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}
        summary = tracing.summarize(tracing.load(trace_dir))
        results = closed + opened
        layer_metrics(out, name, summary, counters, wall_plain, wall)
        floors, waits = [], []
        client_s = sum(r.done - r.sent for r in results)
        for r in results:
            unit = summary["units"].get(r.unit)
            if unit is None or unit["start"] is None:
                out.fail(1, f"request {r.unit} has no server span")
                continue
            if unit["start"] < r.sent:
                out.fail(1, f"request {r.unit}: server span starts before the client sent it")
            floors.append(1000.0 * ((r.done - r.sent) - unit["service_s"]))
            waits.append(1000.0 * (unit["start"] - r.sent))
        # What the server attributes (layer self times + residual, summed
        # over the request envelopes) is measured inside each request's
        # client-side time; the gap is the HTTP floor, never negative.
        out.put("trace.wall_s", client_s, "s", len(results))
        if summary["envelope_s"] > client_s:
            out.fail(1, f"server request spans ({summary['envelope_s']:.3f}s) exceed the "
                        f"client-side request time ({client_s:.3f}s)")
        late = [1000.0 * (r.sent - r.due) for r in opened]
        out.put("serve.floor_ms", sum(floors) / max(1, len(floors)), "ms", len(floors))
        out.put("serve.queue_wait_ms", sum(waits) / max(1, len(waits)), "ms", len(waits))
        out.put("loadgen.late_p99_ms", nearest_rank(late, 99) if late else 0.0, "ms", len(late))
        out.put(
            "loadgen.cpu_s",
            (own1.ru_utime + own1.ru_stime) - (own0.ru_utime + own0.ru_stime),
            "s",
        )
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    return out


# ---- per-layer metrics -----------------------------------------------------

#: Every span name the wrappers record; each reports its self time, so the
#: layer self times plus ``residual_s`` add up to ``trace.root_s``.
SELF_TIMED = (
    "lang.tokenize", "lang.parse", "corpus.build_world", "corpus.world_digest",
    "vcs.patch_for", "diffing.diff_texts", "nvd.crawl", "patch.parse_patch",
    "patch.render_mbox", "features.extract", "features.levenshtein",
    "core.feature_cache", "core.distance", "core.categorize", "core.index",
    "synthesis.synthesize", "ml.forest.fit", "ml.forest.predict", "ml.rnn.fit",
    "ml.fit_many", "ml.batch.wait", "staticcheck.lint_patch", "analysis.world_load",
    "analysis.table3", "analysis.table6", "serve.service.classify",
    "serve.service.query", "serve.service.stream", "serve.service.summary",
    "serve.service.manifest", "obs.record_request",
)
#: Layers whose call counts are reported.
COUNTED = (
    "lang.tokenize", "lang.parse", "corpus.world_digest", "vcs.patch_for",
    "diffing.diff_texts", "patch.parse_patch", "patch.render_mbox",
    "features.extract", "features.levenshtein", "core.categorize",
    "synthesis.synthesize", "ml.forest.predict", "staticcheck.lint_patch",
)
#: Layers whose inclusive time is reported as ``<name>.s``.
INCLUSIVE = (
    "corpus.build_world", "nvd.crawl", "ml.forest.fit", "ml.rnn.fit", "ml.fit_many",
    "analysis.world_load", "analysis.table3", "analysis.table6",
)
#: Per workload: layers that must record calls, and layers that must not.
EXPECT_WORK = {
    "build_tiny": (
        "lang.tokenize", "lang.parse", "corpus.build_world", "corpus.world_digest",
        "vcs.patch_for", "diffing.diff_texts", "nvd.crawl", "patch.render_mbox",
        "features.extract", "features.levenshtein", "core.feature_cache", "core.distance",
        "core.categorize", "synthesis.synthesize",
    ),
    "evaluate_small": (
        "analysis.world_load", "analysis.table3", "analysis.table6", "ml.forest.fit",
        "ml.rnn.fit", "ml.fit_many", "core.feature_cache", "core.distance", "features.extract",
    ),
    "serve_classify": (
        "patch.parse_patch", "features.extract", "features.levenshtein", "ml.forest.predict",
        "ml.batch.wait", "core.categorize", "staticcheck.lint_patch", "serve.service.classify",
        "obs.record_request",
    ),
    "serve_query": (
        "core.index", "corpus.world_digest", "serve.service.query", "serve.service.stream",
        "serve.service.summary", "serve.service.manifest", "obs.record_request",
    ),
}
EXPECT_IDLE = {
    "serve_query": (
        "features.extract", "features.levenshtein", "lang.tokenize", "lang.parse",
        "ml.forest.predict",
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    out: Outcome, workload: str, summary: dict, counters: dict, wall_plain: float, wall_traced: float
) -> None:
    """Per-layer metrics of a traced run, plus the checks on its spans."""
    layers = summary["layers"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "distinct": None})

    unknown = sorted(set(layers) - set(SELF_TIMED))
    if unknown:
        raise BenchError(f"spans without a self_s metric: {unknown}")
    for name in SELF_TIMED:
        out.put(f"{name}.self_s", layer(name)["self_s"], "s", layer(name).get("spans", 0))
    for name in COUNTED:
        out.put(f"{name}.calls", layer(name)["calls"], "count")
    for name in INCLUSIVE:
        out.put(f"{name}.s", layer(name)["total_s"], "s", layer(name).get("spans", 0))
    for name in ("lang.tokenize", "lang.parse"):
        entry = layer(name)
        out.put(f"{name}.distinct_ratio", _ratio(entry["distinct"] or 0, entry["calls"]), "ratio")

    c = counters.get
    out.put("core.feature_cache.hit_ratio",
            _ratio(c("vector_cache_hits", 0), c("vector_cache_hits", 0) + c("vectors_extracted", 0)), "ratio")
    out.put("core.distance.reuse_ratio",
            _ratio(c("distance_cells_reused", 0), c("distance_cells_reused", 0) + c("distance_cells_computed", 0)),
            "ratio")
    out.put("core.index.hit_ratio", _ratio(c("index.hit", 0), c("index.hit", 0) + c("index.fallback", 0)), "ratio")
    out.put("core.render_cache.hit_ratio",
            _ratio(c("render_cache.hit", 0), c("render_cache.hit", 0) + c("render_cache.miss", 0)), "ratio")
    out.put("ml.token_cache.hit_ratio",
            _ratio(c("token_cache_hits", 0), c("token_cache_hits", 0) + c("token_cache_misses", 0)), "ratio")
    out.put("ml.fits", layer("ml.forest.fit")["calls"] + layer("ml.rnn.fit")["calls"], "count")
    out.put("ml.batch.size_mean", _ratio(c("classify_batched_requests", 0), c("classify_batches", 0)), "count")
    wait = layer("ml.batch.wait")
    out.put("ml.batch.wait_ms", 1000.0 * _ratio(wait["total_s"], wait.get("spans", 0)), "ms")
    out.put("staticcheck.findings", c("lint_findings", 0), "count")
    for name in ("corpus.commits_produced", "corpus.commits_skipped", "synthesis.variants",
                 "serve.floor_ms", "serve.queue_wait_ms", "loadgen.late_p99_ms", "loadgen.cpu_s"):
        out.put(name, 0.0, "ms" if name.endswith("_ms") else ("s" if name.endswith("_s") else "count"))

    self_sum = sum(layer(name)["self_s"] for name in SELF_TIMED)
    out.put("residual_s", summary["residual_s"], "s")
    out.put("trace.root_s", summary["root_s"], "s")
    out.put("trace.envelope_s", summary["envelope_s"], "s")
    out.put("trace.overhead_ratio", _ratio(wall_traced, wall_plain) - 1.0, "ratio")
    # A span whose parent was lost would be counted twice here.
    if abs(self_sum + summary["residual_s"] - summary["root_s"]) > 1e-6 * max(1.0, summary["root_s"]):
        out.fail(1, "layer self times plus residual do not add up to the root spans")
    missing = [n for n in EXPECT_WORK.get(workload, ()) if layer(n)["calls"] == 0]
    out.fail(len(missing), f"wrappers expected to see work recorded no calls: {missing}")
    busy = [n for n in EXPECT_IDLE.get(workload, ()) if layer(n)["calls"] != 0]
    out.fail(len(busy), f"bypassed layers recorded calls: {busy}")


def _check_job_envelope(out: Outcome, summary: dict, job_wall: float) -> None:
    """The job's root span, whose layer self times plus ``residual_s``
    make up its duration, must cover the wall time the job measured with
    its own clock around it; pool workers' roots run inside that time."""
    out.put("trace.wall_s", job_wall, "s")
    gap = job_wall - summary["envelope_s"]
    if not 0.0 <= gap <= 0.01 + 0.005 * job_wall:
        out.fail(1, f"root span {summary['envelope_s']:.3f}s does not cover the job's wall {job_wall:.3f}s")


WORKLOADS = {
    "build_tiny": build_tiny,
    "evaluate_small": evaluate_small,
    "serve_classify": lambda *a: serve_workload("serve_classify", *a),
    "serve_query": lambda *a: serve_workload("serve_query", *a),
}
