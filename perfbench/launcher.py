"""Start the PatchDB server through ``repro.cli.main``, optionally traced.

Usage: ``python3 perfbench/launcher.py [--trace DIR] serve ARGS...``

``SIGTERM`` (or ``SIGINT``) shuts the server down cleanly, even when the
parent was started with ``SIGINT`` ignored.  With ``--trace`` the span
wrappers are installed before the CLI builds the service, with recording
off so start-up work is not counted.  ``SIGUSR1`` turns recording on and
``SIGUSR2`` off; the spans are written to ``DIR`` at shutdown.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    recorder = None
    if argv[:1] == ["--trace"]:
        import tracing

        recorder = tracing.Recorder(argv[1], enabled=False)
        tracing.install(recorder)
        argv = argv[2:]
        signal.signal(signal.SIGUSR1, lambda *_: setattr(recorder, "enabled", True))
        signal.signal(signal.SIGUSR2, lambda *_: setattr(recorder, "enabled", False))
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
