"""Self-time and residual arithmetic, and wrapper installation."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _span(sid, parent, name, start, end, unit=None):
    return (sid, parent, name, start, end, unit, 1)


# run [0, 10]
#   a [1, 5]        children b [2, 3], c [3, 4]
#   a [6, 7]        no children
# worker process: a [0, 2] as its own root
RECORDS = [
    {
        "pid": 1,
        "spans": [
            _span(1, 0, "bench.run", 0.0, 10.0, "u"),
            _span(2, 1, "lang.parse", 1.0, 5.0, "u"),
            _span(3, 2, "lang.tokenize", 2.0, 3.0, "u"),
            _span(4, 2, "lang.tokenize", 3.0, 4.0, "u"),
            _span(5, 1, "lang.parse", 6.0, 7.0, "u"),
        ],
        "calls": {"lang.parse": 2, "lang.tokenize": 2},
        "keys": {"lang.tokenize": ["k1"]},
    },
    {
        "pid": 2,
        "spans": [_span(1, 0, "lang.parse", 0.0, 2.0)],
        "calls": {"lang.parse": 1},
        "keys": {},
    },
]


def test_self_time_and_residual_on_a_hand_built_tree():
    summary = tracing.summarize(RECORDS)
    layers = summary["layers"]
    assert layers["lang.parse"]["self_s"] == 2.0 + 1.0 + 2.0
    assert layers["lang.parse"]["total_s"] == 4.0 + 1.0 + 2.0
    assert layers["lang.tokenize"]["self_s"] == 1.0 + 1.0
    assert layers["lang.parse"]["calls"] == 3
    assert layers["lang.tokenize"]["distinct"] == 1
    assert summary["residual_s"] == 10.0 - 4.0 - 1.0
    assert summary["root_s"] == 12.0
    assert summary["envelope_s"] == 10.0  # the worker's root is outside it
    total_self = sum(e["self_s"] for e in layers.values())
    assert total_self + summary["residual_s"] == summary["root_s"]
    assert summary["units"]["u"]["start"] == 0.0


def test_the_root_is_checked_against_the_job_clock():
    summary = tracing.summarize(RECORDS)
    out = workloads.Outcome()
    workloads._check_job_envelope(out, summary, 10.001)
    assert out.correct
    # A job whose wall the root does not cover: time went unattributed.
    out = workloads.Outcome()
    workloads._check_job_envelope(out, summary, 12.0)
    assert not out.correct and out.failed == 1


def test_children_are_clipped_to_the_parent_and_overlaps_merged():
    spans = [
        {"id": 1, "parent": 0, "start": 0.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 0, "start": 10.0, "end": 20.0},
        {"id": 4, "parent": 3, "start": 11.0, "end": 13.0},
        {"id": 5, "parent": 3, "start": 12.0, "end": 14.0},
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 7.0, 2.0, 2.0]


def test_install_patches_import_sites_and_collects_pool_spans(tmp_path):
    # In a fresh interpreter: module state is global, so keep it out of
    # this process.
    script = f"""
import concurrent.futures, json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / 'src')!r}]
import tracing
rec = tracing.Recorder({str(tmp_path)!r})
sites = tracing.install(rec)
import repro.lang.lexer as lexer, repro.lang.parser as parser, repro.serve.service as service
assert parser.tokenize is lexer.tokenize and lexer.tokenize.__wrapped__
import repro.serve.http as http
from http.server import BaseHTTPRequestHandler
# the envelope covers request parsing too, and only on the program's handler
assert http._Handler.handle_one_request.__wrapped__ is BaseHTTPRequestHandler.handle_one_request
assert not hasattr(BaseHTTPRequestHandler.handle_one_request, "__wrapped__")
for name in ("parse_patch", "lint_patch", "categorize_patch"):
    assert hasattr(getattr(service, name), "__wrapped__"), name
# extract_features is reached through the wrapped FeatureExtractor.extract
assert hasattr(service.extract_features.__globals__["FeatureExtractor"].extract, "__wrapped__")
with concurrent.futures.ProcessPoolExecutor(2) as pool:
    list(pool.map(lexer.tokenize, ["int a;", "int b;", "int a;"]))
lexer.tokenize("int c;")
rec.flush()
print(json.dumps(sites))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sites = json.loads(proc.stdout)
    assert "repro.serve.service.parse_patch" in sites
    assert "repro.lang.parser.tokenize" in sites
    records = tracing.load(tmp_path)
    assert len({r["pid"] for r in records}) >= 2  # the workers sent theirs back
    layer = tracing.summarize(records)["layers"]["lang.tokenize"]
    assert layer["calls"] == 4 and layer["distinct"] == 3
