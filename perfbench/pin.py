"""Pin the sha256 of each sweep workload's JSON for a range of seeds.

    python3 perfbench/pin.py --size full --seeds 1-20 --reps 6
    python3 perfbench/pin.py --size smoke --seeds 0-3

Runs each sweep spec inline from a cold store (the reference path; the
repo's byte-identity contract makes every backend, worker count and
store state produce the same bytes) and merges the digests into
``perfbench/pins.json``. Re-pin only on a commit whose sweep output is
meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from common import PINS_PATH, load_pins, sha256_file  # noqa: E402
from inputs import sweep_cold_spec, sweep_store_spec, write_json  # noqa: E402
from sweeps import run_spec  # noqa: E402

SPECS = {
    "sweep_cold": (sweep_cold_spec, "trial"),
    "sweep_store_socket": (sweep_store_spec, "grid"),
}


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-31")
    parser.add_argument(
        "--reps", type=int, default=1,
        help="sweep_cold repetitions per seed (each has its own root seed)",
    )
    parser.add_argument("--workloads", default=",".join(SPECS))
    args = parser.parse_args()
    pins = load_pins()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        spec_fn, overlay_reuse = SPECS[workload]
        table = pins.setdefault(workload, {}).setdefault(args.size, {})
        reps = args.reps if workload == "sweep_cold" else 1
        for seed in _seeds(args.seeds):
            for rep in range(reps):
                spec = spec_fn(seed, args.size, rep) if reps > 1 else spec_fn(seed, args.size)
                work = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
                try:
                    spec_path = write_json(work / "spec.json", spec)
                    out = work / "sweep.json"
                    run_spec(spec_path, out, work / "store", "inline", overlay_reuse)
                    table[f"{seed}/{rep}"] = sha256_file(out)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                print(f"{workload} {args.size} {seed}/{rep}: {table[f'{seed}/{rep}']}", flush=True)
                PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
