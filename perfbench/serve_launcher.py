"""Traced annotation daemon for ``serve_closed --trace 1``.

    python3 perfbench/serve_launcher.py CHECKPOINT SPANS_OUT

Installs the benchmark's wrappers (``tracer.instrument``) and then starts the
same server ``python -m repro serve CHECKPOINT --port 0`` starts, with the
CLI's defaults.  On SIGTERM the daemon drains as usual and the in-memory
spans are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


def main(checkpoint: str, out: str) -> int:
    common.require_program()
    from repro.core.cli import main as cli_main

    tracer = Tracer()
    instrument(tracer)
    try:
        return cli_main(["serve", checkpoint, "--port", "0"])
    finally:
        tracer.restore()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
