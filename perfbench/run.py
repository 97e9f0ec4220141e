"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout (``src/repro`` must be there). The
workload's inputs (a sweep spec or a fleet scenario file) are generated
from ``--seed``; the program only ever receives those files. Each run
checks the program's outputs and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``. ``--smoke`` runs a tiny version
of the workload (used by ``perfbench/smoke_check.py``).

Workloads (see perfbench/README.md for why each exists):

* ``sweep_cold`` — a spec run inline against an empty overlay store.
* ``sweep_store_socket`` — set-up warms the store; the timed run
  repeats the spec on the socket backend with two local workers.
* ``fleet_live`` — 16 live nodes in one process over loopback UDP,
  publishes sent open loop, then the log analyzer.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep_cold", "sweep_store_socket", "fleet_live")


def hardware() -> dict:
    import os

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    from common import Context
    from metrics import END_TO_END, PER_LAYER, emit
    from tracer import import_layers

    import_layers()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(
        root=ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size="smoke" if args.smoke else "full",
        work=work,
    )
    print(json.dumps({"hardware": hardware()}), flush=True)
    try:
        if args.workload == "fleet_live":
            from fleet_live import fleet_live as runner
        else:
            import sweeps

            runner = getattr(sweeps, args.workload)
        outcome = runner(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = (
        emit(outcome.per_layer, PER_LAYER)
        if args.trace
        else emit(outcome.end_to_end, END_TO_END)
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
