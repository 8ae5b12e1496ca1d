"""Shared constants and helpers of the benchmark.

Every path is resolved from this file, so the benchmark runs from any
checkout of the repository: ``src/`` holds the code under test and
``perfbench/.cache`` the inputs that code prepared for itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
EXPECTED = BENCH / "expected"

SCALE = "small"
#: Scale of each ``build_tiny`` unit: a TINY build takes a few seconds, so
#: one run times several and reports their median.
BUILD_SCALE = "tiny"
#: Seed of the served and evaluated world; the classify payloads come
#: from a second world built from the next seed, so none is in the release.
WORLD_SEED = 2021
PAYLOAD_SEED = WORLD_SEED + 1
#: Process count for pools, equal to the CPU count of the reference box.
WORKERS = 2
#: Load-generator threads and connections (at most ``nproc``).
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: How many times one run repeats its set-up (a serve run starts the
#: server this many times); ``setup_s`` is their median.
SETUP_REPEATS = 4
#: World loads per evaluate run (a load takes about 0.13 s).
EVAL_LOADS = 11
#: A child that exceeds this is a failed operation, never a hang.
JOB_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed preparation)."""


def require_sources() -> None:
    """Fail fast when the checkout has no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def src_digest() -> str:
    """sha256 over every file under ``src/`` (relative path + bytes).

    Prepared inputs are keyed by it, so a commit never measures a world,
    release or payload pool that another commit's code produced.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def inputs_dir() -> Path:
    """Prepare (once per source digest) and return the input directory.

    Holds the SMALL ``ExperimentWorld`` pickle (written by the program's
    own ``ExperimentWorld.cached``), the release JSONL built from it, and
    the classify payload pool.  Built in a temporary directory and renamed
    into place, so an interrupted preparation is never read as complete.
    """
    final = CACHE / f"inputs-{src_digest()[:16]}-{WORLD_SEED}"
    if (final / "inputs.json").is_file():
        return final
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = CACHE / f"tmp-{os.getpid()}"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), str(tmp)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=800,
    )
    if proc.returncode != 0:
        raise BenchError(f"input preparation failed:\n{proc.stderr[-2000:]}")
    os.replace(tmp, final)
    return final


def load_expected(name: str) -> dict:
    """The outputs recorded for this workload at the reference commit."""
    return json.loads((EXPECTED / f"{name}.json").read_text())


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, all threads (ended ones too) included.

    Reads the kernel's per-process CPU clock (nanosecond resolution,
    Linux ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``); falls back to
    the 10 ms ticks of ``/proc/<pid>/stat`` where that clock is refused.
    """
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        pass
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")
