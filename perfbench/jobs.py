"""Batch jobs the benchmark times in a child process.

Usage (with the checkout's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/jobs.py imports
    python3 perfbench/jobs.py build --world-seed S --out DIR [--trace DIR]
    python3 perfbench/jobs.py evaluate --world PKL --seeds 1,4,6 --out FILE [--trace DIR]

``build`` runs the dataset builder at TINY through ``repro.cli.main`` (world
build, NVD crawl, Table II augmentation, synthesis, release JSONL);
``evaluate`` loads the prepared SMALL world and runs Tables III and VI
per protocol seed through the public runners.  Each job writes one JSON
result: per unit of work (one build, one protocol seed) its wall and CPU
time (this process plus its reaped pool children), the wall time of the
whole job as this process's clock saw it (``job_wall_s``, the stretch a
traced run's root span covers), the peak RSS, and the outputs the
benchmark checks.  ``--trace DIR`` installs the span
wrappers first, so forked pool workers inherit them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BUILD_SCALE, EVAL_LOADS, WORKERS, sha256_hex  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process plus every reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _recorder(trace_dir: str | None):
    if not trace_dir:
        return None
    import tracing

    recorder = tracing.Recorder(trace_dir)
    tracing.install(recorder)
    return recorder


@contextlib.contextmanager
def _root(recorder, unit: str):
    if recorder is None:
        yield
        return
    recorder.set_unit(unit)
    token = recorder.open("bench.run", count=False)
    try:
        yield
    finally:
        recorder.close(token)


def _build(args: argparse.Namespace) -> dict:
    from repro.cli import main

    recorder = _recorder(args.trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    release, stats = out / "release.jsonl", out / "stats.json"
    argv = [
        "build", str(release), "--scale", BUILD_SCALE, "--seed", str(args.world_seed),
        "--workers", str(WORKERS), "--stats-json", str(stats),
    ]
    cpu0, t0 = _cpu_s(), time.perf_counter()
    with _root(recorder, "build"), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if recorder is not None:
        recorder.flush()
    result = {"rc": rc, "peak_rss_mb": _peak_rss_mb(), "units": [[wall, cpu]], "job_wall_s": wall}
    if rc == 0:
        payload = json.loads(stats.read_text())
        result["world_digest"] = payload["manifest"]["world_digest"]
        result["release_sha256"] = sha256_hex(release.read_bytes())
        result["counters"] = payload.get("counters", {})
        result["build_stats"] = {
            k: payload["manifest"].get(k) for k in ("commits_produced", "commits_skipped")
        }
    return result


def _rows_digest(table3, table6) -> str:
    rows = [[getattr(r, f) for f in r.__dataclass_fields__] for r in table3]
    return sha256_hex(json.dumps([rows, table6.rows]).encode())


def _evaluate(args: argparse.Namespace) -> dict:
    from repro.analysis import experiments
    from repro.obs import ObsRegistry

    recorder = _recorder(args.trace)
    seeds = [int(s) for s in args.seeds.split(",")]
    loads, digests, units = [], {}, []
    start = time.perf_counter()
    with _root(recorder, "evaluate"):
        for _ in range(EVAL_LOADS):
            # Free the previous copy (it holds reference cycles) before
            # timing the next load, so every load starts from the same heap.
            ew = None
            gc.collect()
            token = recorder.open("analysis.world_load") if recorder is not None else None
            t0 = time.perf_counter()
            with open(args.world, "rb") as fh:
                ew = pickle.load(fh)
            loads.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.close(token)
        ew.rebind_obs(ObsRegistry())
        for seed in seeds:
            cpu0, t0 = _cpu_s(), time.perf_counter()
            table3 = experiments.run_table3(ew, seed=seed, ml_workers=WORKERS)
            table6 = experiments.run_table6(ew, seed=seed, ml_workers=WORKERS)
            units.append([time.perf_counter() - t0, _cpu_s() - cpu0])
            digests[str(seed)] = _rows_digest(table3, table6)
    job_wall = time.perf_counter() - start
    if recorder is not None:
        recorder.flush()
    return {
        "rc": 0,
        "setup_s": loads,
        "peak_rss_mb": _peak_rss_mb(),
        "units": units,
        "job_wall_s": job_wall,
        "digests": digests,
        "counters": ew.obs.to_dict().get("counters", {}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="jobs.py")
    sub = parser.add_subparsers(dest="job", required=True)
    sub.add_parser("imports")
    p_build = sub.add_parser("build")
    p_build.add_argument("--world-seed", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--trace", default=None)
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--world", required=True)
    p_eval.add_argument("--seeds", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.job == "imports":
        import repro.cli  # noqa: F401 - the import is what is timed

        return 0
    result = _build(args) if args.job == "build" else _evaluate(args)
    out = Path(args.out) / "result.json" if args.job == "build" else Path(args.out)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
