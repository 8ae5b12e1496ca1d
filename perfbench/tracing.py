"""Span recording for the traced benchmark run.

The benchmark's own wrappers time calls into each layer's public
functions; nothing under ``src/`` changes.  A span is ``(id, parent, name,
start, end, unit)``: ``unit`` is the request or run the span belongs to,
``parent`` the enclosing span on the same thread.  Spans stay in memory
and each process appends them to ``spans-<pid>.jsonl`` in the trace
directory when it finishes: the main process explicitly, forked pool
workers from a ``multiprocessing`` exit finalizer.

A layer's self time is its span's duration minus the union of its
children's intervals.  Spans named in :data:`ENVELOPES` are not layers:
the batch job's root, and the server's ``handle_one_request`` (request
parsing, handler and response).  Their self time is the unattributed
``residual_s``, so the layer self times inside the envelopes plus
``residual_s`` equal the envelopes' duration, which the benchmark compares
with a clock outside the spans: the job's own wall time, or each request's
time at the client.  Roots outside any envelope (pool workers, the
classify batcher's thread) run concurrently with a wait inside one.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

#: Envelope spans: roots whose own time is residual, not a layer's.
ENVELOPES = ("bench.run", "serve.http")

#: (span name, module, attribute path, index of the argument whose
#: content digest feeds ``distinct_ratio`` or None).  Module-level
#: functions are replaced at every ``repro`` module that bound them by
#: name; methods are replaced on their class.
TARGETS: tuple[tuple[str, str, str, int | None], ...] = (
    ("lang.tokenize", "repro.lang.lexer", "tokenize", 0),
    ("lang.parse", "repro.lang.parser", "parse_translation_unit", 0),
    ("lang.parse", "repro.lang.parser", "parse_function_body", 0),
    ("corpus.build_world", "repro.corpus.world", "build_world", None),
    ("corpus.world_digest", "repro.corpus.world", "World.digest", None),
    ("vcs.patch_for", "repro.vcs.repository", "Repository.patch_for", None),
    ("diffing.diff_texts", "repro.diffing.unified_gen", "diff_texts", None),
    ("nvd.crawl", "repro.nvd.crawler", "NvdCrawler.crawl", None),
    ("patch.parse_patch", "repro.patch.gitformat", "parse_patch", None),
    ("patch.render_mbox", "repro.patch.gitformat", "render_mbox_patch", None),
    ("features.extract", "repro.features.extractor", "FeatureExtractor.extract", None),
    ("features.levenshtein", "repro.features.levenshtein", "levenshtein", None),
    ("core.feature_cache", "repro.core.cache", "PatchFeatureCache.vector", None),
    ("core.feature_cache", "repro.core.cache", "PatchFeatureCache.matrix", None),
    ("core.distance", "repro.features.normalize", "weighted_distance_matrix", None),
    ("core.distance", "repro.features.normalize", "DistanceEngine.reset", None),
    ("core.distance", "repro.features.normalize", "DistanceEngine.update", None),
    ("core.categorize", "repro.core.categorize", "categorize_patch", None),
    ("core.index", "repro.core.index", "PatchIndex.lookup", None),
    ("synthesis.synthesize", "repro.synthesis.engine", "PatchSynthesizer.synthesize", None),
    ("ml.forest.fit", "repro.ml.forest", "RandomForestClassifier.fit", None),
    ("ml.forest.predict", "repro.ml.forest", "RandomForestClassifier.predict_proba", None),
    ("ml.rnn.fit", "repro.ml.rnn", "RNNClassifier.fit", None),
    ("ml.fit_many", "repro.ml.engine", "fit_many", None),
    ("staticcheck.lint_patch", "repro.staticcheck.analyzer", "lint_patch", None),
    ("analysis.table3", "repro.analysis.experiments", "run_table3", None),
    ("analysis.table6", "repro.analysis.experiments", "run_table6", None),
    ("serve.service.classify", "repro.serve.service", "PatchDBService.classify", None),
    ("serve.service.query", "repro.serve.service", "PatchDBService.query", None),
    ("serve.service.stream", "repro.serve.service", "PatchDBService.query_stream", None),
    ("serve.service.summary", "repro.serve.service", "PatchDBService.summary", None),
    ("serve.service.manifest", "repro.serve.service", "PatchDBService.manifest", None),
    ("obs.record_request", "repro.serve.service", "PatchDBService.record_request", None),
)

#: Header carrying the load generator's request id to the server.
UNIT_HEADER = "X-Bench-Request"


def _content_key(value: object) -> str:
    data = value.encode("utf-8", "surrogatepass") if isinstance(value, str) else repr(value).encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


class Recorder:
    """In-memory span store of one process (re-armed in forked children).

    Args:
        out_dir: directory that receives ``spans-<pid>.jsonl``.
        enabled: record from the start; the serve launcher starts
            disabled and toggles recording around the measured phase.
    """

    def __init__(self, out_dir: str | Path, enabled: bool = True) -> None:
        self.out_dir = Path(out_dir)
        self.enabled = enabled
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.keys: dict[str, set[str]] = defaultdict(set)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._finalizer = None

    # ---- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_unit(self, unit: str | None) -> None:
        """Tag spans opened on this thread with *unit* (a request id)."""
        self._local.unit = unit

    def _arm_worker_flush(self) -> None:
        # A forked pool worker writes its spans when it exits; the
        # finalizer must be registered after multiprocessing's bootstrap
        # clears the inherited registry, so it is done on first use.
        if self._finalizer is None:
            self._finalizer = mp_util.Finalize(None, self.flush, exitpriority=100)

    def open(self, name: str, key: object = None, count: bool = True) -> tuple | None:
        """Push a span on this thread (counting one call of *name*, with
        *key* as its input for the distinct ratio); returns a token for
        :meth:`close`."""
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return None  # re-entry into the same layer is one call, one span
        if count:
            self.count(name, key)
        span_id = next(self._ids)
        token = (span_id, name, stack[-1][0] if stack else 0, time.perf_counter())
        stack.append(token)
        return token

    def close(self, token: tuple | None) -> None:
        if token is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, parent, start = token
        self.spans.append(
            (span_id, parent, name, start, end, getattr(self._local, "unit", None), threading.get_ident())
        )
        if threading.current_thread() is threading.main_thread() and not stack:
            self._arm_worker_flush()

    def count(self, name: str, key: object = None) -> None:
        self.calls[name] += 1
        if key is not None:
            self.keys[name].add(_content_key(key))

    def flush(self) -> None:
        """Append this process's spans and counts to its file and clear them."""
        if not self.spans and not self.calls:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "calls": dict(self.calls),
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
        }
        with (self.out_dir / f"spans-{self.pid}.jsonl").open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.calls = Counter()
        self.keys = defaultdict(set)

    # ---- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, key_arg: int | None = None):
        """A wrapper recording one span (and one call) per call of *fn*."""
        rec = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if rec.enabled:
                    rec.count(name)
                while True:
                    token = rec.open(name, count=False) if rec.enabled else None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.close(token)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            key = args[key_arg] if key_arg is not None and len(args) > key_arg else None
            token = rec.open(name, key)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(token)

        return wrapper

    def wrap_handler(self, fn):
        """The HTTP envelope around ``handle_one_request``: reading and
        parsing the request, the handler, writing the response."""
        rec = self

        @functools.wraps(fn)
        def handler(handler_self, *args, **kwargs):
            if not rec.enabled:
                return fn(handler_self, *args, **kwargs)
            token = rec.open("serve.http", count=False)
            try:
                return fn(handler_self, *args, **kwargs)
            finally:
                rec.close(token)
                rec.set_unit(None)

        return handler

    def wrap_method(self, fn):
        """``do_GET``/``do_POST``: tag the thread with the request id, which
        is known once the headers are parsed; the envelope's span is closed
        after them and so carries it too."""
        rec = self

        @functools.wraps(fn)
        def method(handler_self, *args, **kwargs):
            rec.set_unit(handler_self.headers.get(UNIT_HEADER))
            return fn(handler_self, *args, **kwargs)

        return method

    def wrap_submit(self, fn):
        """``ClassifyBatcher.submit``: time the caller's wait on the future."""
        rec = self

        class _TimedFuture:
            def __init__(self, future) -> None:
                self._future = future

            def result(self, timeout=None):
                token = rec.open("ml.batch.wait", count=False) if rec.enabled else None
                try:
                    return self._future.result(timeout)
                finally:
                    rec.close(token)

            def __getattr__(self, attr):
                return getattr(self._future, attr)

        @functools.wraps(fn)
        def submit(batcher_self, *args, **kwargs):
            return _TimedFuture(fn(batcher_self, *args, **kwargs))

        return submit


def install(recorder: Recorder) -> list[str]:
    """Import every ``repro`` module and replace each target at every site.

    Must run before any pool forks, so workers inherit the wrappers.
    Returns the ``module.attribute`` sites patched.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # importing it runs the CLI
            importlib.import_module(info.name)
    modules = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
    patched: list[str] = []
    for name, module_name, attr, key_arg in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, cls.__dict__[meth], key_arg))
            patched.append(f"{module_name}.{attr}")
            continue
        original = getattr(module, attr)
        replacement = recorder.wrap(name, original, key_arg)
        for mod in modules:
            for site, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, site, replacement)
                    patched.append(f"{mod.__name__}.{site}")
    handler = importlib.import_module("repro.serve.http")._Handler
    handler.handle_one_request = recorder.wrap_handler(handler.handle_one_request)
    for meth in ("do_GET", "do_POST"):
        setattr(handler, meth, recorder.wrap_method(handler.__dict__[meth]))
    patched += ["repro.serve.http._Handler.handle_one_request", "repro.serve.http._Handler.do_GET",
                "repro.serve.http._Handler.do_POST"]
    service = importlib.import_module("repro.serve.service")
    batcher = service.ClassifyBatcher
    batcher.submit = recorder.wrap_submit(batcher.__dict__["submit"])
    patched.append("repro.serve.service.ClassifyBatcher.submit")
    return patched


# ---- analysis -------------------------------------------------------------


def load(trace_dir: str | Path) -> list[dict]:
    """Every flushed record of every process under *trace_dir*."""
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: duration minus its children's union.

    *spans* are dicts with ``id``, ``parent`` (0 for a root), ``start``
    and ``end``; ids are unique within the list (one process).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _union_length(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    ]


def summarize(records: list[dict]) -> dict:
    """Per-layer calls/self/total, residual and root time over all processes.

    Returns ``{"layers": {name: {"calls", "self_s", "total_s",
    "distinct"}}, "residual_s", "root_s", "envelope_s", "units": {unit:
    {...}}}``.  ``root_s`` sums every root span, ``envelope_s`` the
    envelopes among them; ``units`` maps each request id to its envelope
    interval and the time its ``serve.service.*`` spans took.
    """
    by_pid: dict[int, list[dict]] = defaultdict(list)
    calls: Counter = Counter()
    keys: dict[str, set[str]] = defaultdict(set)
    for rec in records:
        for sid, parent, name, start, end, unit, tid in rec["spans"]:
            by_pid[rec["pid"]].append(
                {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "unit": unit}
            )
        calls.update(rec["calls"])
        for name, ks in rec["keys"].items():
            keys[name].update(ks)
    layers: dict[str, dict] = {}
    residual = root = envelope = 0.0
    units: dict[str, dict] = defaultdict(lambda: {"start": None, "end": None, "service_s": 0.0})
    for spans in by_pid.values():
        for span, own in zip(spans, self_times(spans)):
            name = span["name"]
            duration = span["end"] - span["start"]
            if not span["parent"]:
                root += duration
            if name in ENVELOPES:
                residual += own
                envelope += duration
                if span["unit"] is not None:
                    units[span["unit"]]["start"] = span["start"]
                    units[span["unit"]]["end"] = span["end"]
                continue
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "spans": 0})
            entry["self_s"] += own
            entry["total_s"] += duration
            entry["spans"] += 1
            if name.startswith("serve.service.") and span["unit"] is not None:
                units[span["unit"]]["service_s"] += duration
    for name, entry in layers.items():
        entry["calls"] = calls.get(name, entry["spans"])
        entry["distinct"] = len(keys[name]) if name in keys else None
    for name, n in calls.items():
        if name not in layers and name not in ENVELOPES:
            layers[name] = {"calls": n, "self_s": 0.0, "total_s": 0.0, "spans": 0, "distinct": None}
    return {
        "layers": layers,
        "residual_s": residual,
        "root_s": root,
        "envelope_s": envelope,
        "units": dict(units),
    }
