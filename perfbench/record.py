"""Record the outputs the benchmark checks, from the current sources.

Usage: ``python3 perfbench/record.py [build] [evaluate] [classify] [query]``

Writes ``perfbench/expected/<workload>.json``:

* ``build`` — ``World.digest()`` and the release sha256 per world seed;
* ``evaluate`` — a sha256 of the Table III and VI rows per protocol seed;
* ``classify`` — a digest of the ``/v1/classify`` response body for
  every payload of the prepared pool, by payload index;
* ``query`` — the GET request universe sampled from the release, with a
  digest of each deterministic body (``/v1/manifest`` is checked by its
  ``world_digest`` instead, since it carries a timestamp).

Run it only on a commit whose outputs are known good: every later run is
checked against these files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from urllib.parse import urlencode

sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402
import workloads  # noqa: E402
from common import CLIENTS, EXPECTED, WORLD_SEED, inputs_dir, sha256_hex  # noqa: E402


def _write(name: str, payload: dict) -> None:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    (EXPECTED / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED / f'{name}.json'}")


def record_build(inputs: Path) -> None:
    worlds = {}
    for seed in range(WORLD_SEED, WORLD_SEED + workloads.BUILD_WORLDS):
        result = workloads._run_build_job(seed, None)
        if result.get("rc") != 0:
            raise SystemExit(f"build of world seed {seed} failed: {result.get('stderr')}")
        worlds[str(seed)] = {k: result[k] for k in ("world_digest", "release_sha256")}
    _write("build", {"worlds": worlds})


def record_evaluate(inputs: Path) -> None:
    seeds = workloads.eval_units()
    result = workloads._run_eval_job(inputs, seeds, None)
    if result.get("rc") != 0:
        raise SystemExit(f"evaluation failed: {result.get('stderr')}")
    _write("evaluate", {"rows_sha256": result["digests"]})


def _fetch_all(inputs: Path, requests: list[loadgen.Request]) -> list[bytes]:
    bodies: dict[str, bytes] = {}

    def keep(request: loadgen.Request, body: bytes) -> bool:
        bodies[request.key] = body
        return True

    server = workloads.Server(inputs)
    try:
        results, _ = loadgen.closed_loop(server.host, server.port, requests, CLIENTS, keep)
    finally:
        server.stop()
    bad = [r for r in results if not r.ok]
    if bad:
        raise SystemExit(f"{len(bad)} requests failed while recording, e.g. {bad[0]}")
    return [bodies[r.key] for r in requests]


def record_classify(inputs: Path) -> None:
    payloads = json.loads((inputs / "payloads.json").read_text())
    requests = [
        loadgen.Request("POST", "/v1/classify", p.encode("utf-8"), str(i)) for i, p in enumerate(payloads)
    ]
    bodies = _fetch_all(inputs, requests)
    _write("classify", {"bodies": [sha256_hex(b)[:16] for b in bodies]})


def query_universe(release: Path, seed: int = WORLD_SEED) -> list[str]:
    """GET paths sampled from the release, in a fixed mix of kinds."""
    records = [json.loads(line) for line in release.open()]
    rng = random.Random(seed)
    repos = sorted({r["repo"] for r in records})
    cves = sorted({r["cve_id"] for r in records if r["cve_id"]})
    patterns = sorted({r["pattern_type"] for r in records if r["pattern_type"] is not None})

    def q(route: str, **params) -> str:
        return f"{route}?{urlencode(params)}" if params else route

    paths: list[str] = []
    for _ in range(120):
        paths.append(q("/v1/patches", offset=rng.randrange(len(records)), limit=20))
    for _ in range(60):
        source = rng.choice(["nvd", "wild", "synthetic"])
        paths.append(q("/v1/patches", source=source, is_security=rng.choice(["true", "false"]),
                       offset=rng.randrange(200), limit=20))
    for _ in range(60):
        paths.append(q("/v1/patches", repo=rng.choice(repos), limit=50))
    for _ in range(80):
        paths.append(q("/v1/patches", sha=rng.choice(records)["sha"]))
    for _ in range(40):
        paths.append(q("/v1/patches", cve_id=rng.choice(cves)))
    for _ in range(40):
        paths.append(q("/v1/patches", pattern_type=rng.choice(patterns), limit=20))
    for _ in range(20):
        paths.append(q("/v1/patches", repo=rng.choice(repos), limit=5, include_patch=1))
    for _ in range(40):
        paths.append(q("/v1/patches.jsonl", repo=rng.choice(repos), offset=rng.randrange(40), limit=10))
    paths += ["/v1/summary"] * 15 + ["/v1/manifest"] * 15
    rng.shuffle(paths)
    return paths


def record_query(inputs: Path) -> None:
    paths = query_universe(inputs / "release.jsonl")
    requests = [loadgen.Request("GET", p, None, str(i)) for i, p in enumerate(paths)]
    bodies = _fetch_all(inputs, requests)
    meta = json.loads((inputs / "inputs.json").read_text())
    universe = [
        {"path": p, "sha": None if p.startswith("/v1/manifest") else sha256_hex(b)[:16]}
        for p, b in zip(paths, bodies)
    ]
    manifest = json.loads(bodies[paths.index("/v1/manifest")])
    if manifest["world_digest"] != meta["world_digest"]:
        raise SystemExit("served world digest differs from the prepared world")
    _write("query", {"world_digest": meta["world_digest"], "requests": universe})


def main(argv: list[str]) -> int:
    inputs = inputs_dir()
    steps = {"build": record_build, "evaluate": record_evaluate,
             "classify": record_classify, "query": record_query}
    for name in argv or list(steps):
        steps[name](inputs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
