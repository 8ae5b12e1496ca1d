"""Build the benchmark's inputs with the code under test.

Usage: ``PYTHONPATH=src python3 perfbench/prepare.py OUT_DIR``

Writes into ``OUT_DIR``:

* ``world/`` — the SMALL experiment world, pickled by the program's own
  ``ExperimentWorld.cached`` (the serve launcher reloads it through
  ``--world-cache``; the evaluate job unpickles it);
* ``release.jsonl`` — the PatchDB release built from that world;
* ``payloads.json`` — the mbox text of every commit of a second world
  built from the next seed (the classify traffic);
* ``inputs.json`` — digests identifying all of the above.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import PAYLOAD_SEED, WORKERS, WORLD_SEED, sha256_hex  # noqa: E402

from repro.analysis.experiments import SMALL, ExperimentWorld, build_patchdb  # noqa: E402
from repro.corpus.world import build_world  # noqa: E402
from repro.patch.gitformat import render_mbox_patch  # noqa: E402


def main(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    ew = ExperimentWorld.cached(SMALL, seed=WORLD_SEED, cache_dir=out / "world", workers=WORKERS)
    db = build_patchdb(ew)
    release = out / "release.jsonl"
    db.save_jsonl(release)
    payload_world = build_world(SMALL.world_config(PAYLOAD_SEED), workers=WORKERS)
    payloads = [render_mbox_patch(payload_world.patch_for(sha)) for sha in payload_world.all_shas()]
    (out / "payloads.json").write_text(json.dumps(payloads))
    (out / "inputs.json").write_text(
        json.dumps(
            {
                "world_digest": ew.world.digest(),
                "release_sha256": sha256_hex(release.read_bytes()),
                "records": len(db),
                "payload_world_digest": payload_world.digest(),
                "payloads": len(payloads),
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(Path(sys.argv[1])))
