"""The repository benchmark: one workload per run, outputs checked.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``build_tiny``, ``evaluate_small``, ``serve_classify``,
``serve_query`` (see ``workloads.py`` and ``perfbench/README.md``).  The
first run in a checkout prepares the inputs with the code under test
(keyed by a digest of ``src/``); preparation falls in no measurement.

Prints one line per metric (name, value, unit, sample count) and, last,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of untraced runs, with ``--trace 1``
the per-layer metrics of a traced run.  Exits 2 without a result when
the checkout has no program to measure or the inputs cannot be prepared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, inputs_dir, require_sources  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 2:
        parser.error("--seconds must be at least 2")
    try:
        require_sources()
        inputs = inputs_dir()
        outcome = WORKLOADS[args.workload](inputs, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    for name, (value, unit, n) in outcome.metrics.items():
        print(f"{args.workload:>15s} {name:<34s} {value:>14.6f} {unit:<6s} n={n}")
    for name, (value, unit, n) in outcome.printed.items():
        print(f"{args.workload:>15s} {name:<34s} {value:>14.6f} {unit:<6s} n={n} (not gated)")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload:>15s} {'fail_ratio':<34s} {ratio:>14.6f} {'':<6s} n={outcome.attempted}")
    result = {
        "correct": outcome.correct and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
