"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/stability.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds 10] [--ledger FILE --sha SHA]

For every end-to-end metric prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the inter-quartile distance as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.
With ``--ledger`` it appends one ``repro-bench-v1`` row per metric (the
median) with the commit sha, scale, CPU count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SCALE  # noqa: E402


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/stability.py")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--ledger", default=None)
    parser.add_argument("--sha", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            result = run_once(workload, seed, seconds)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} ({time.perf_counter() - t0:.1f}s) "
                  + " ".join(f"{k}={result['metrics'][k]['value']:.4g}" for k in bounds),
                  flush=True)
            runs.append(result)
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread > bounds[name] else "near")
            if name == "setup_s":  # only its median is compared, not its spread
                flag += " (spread not gated)"
            print(f"{workload:>15s} {name:<16s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {flag}", flush=True)
            if args.ledger:
                row = {
                    "format": "repro-bench-v1",
                    "sha": args.sha,
                    "scale": SCALE,
                    "cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "workload": workload,
                    "metric": name,
                    "unit": runs[0]["metrics"][name]["unit"],
                    "value": med,
                    "q1": q1,
                    "q3": q3,
                    "runs": len(runs),
                    "parity": {"correct": all(r["correct"] for r in runs),
                               "failed": sum(r["failed"] for r in runs)},
                }
                with open(args.ledger, "a") as fh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
