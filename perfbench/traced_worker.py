"""A socket sweep worker with the benchmark's wrappers installed.

Launched by the traced ``sweep_store_socket`` run: it wraps the same
layer functions as the parent, serves trials through
``repro.experiments.sweep_backends.run_worker`` until the server shuts
it down, then writes its stats to ``--export`` as JSON.

    python3 perfbench/traced_worker.py --connect 127.0.0.1:PORT --export FILE
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import NET_TARGETS, SWEEP_TARGETS, Tracer, import_layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True)
    parser.add_argument("--export", required=True, type=Path)
    args = parser.parse_args()
    import_layers()
    from repro.experiments.sweep_backends import run_worker

    tracer = Tracer()
    tracer.install(SWEEP_TARGETS + NET_TARGETS)
    try:
        run_worker(args.connect, connect_timeout=30.0)
    finally:
        tracer.uninstall()
    args.export.write_text(json.dumps(tracer.export()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
