"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload sweep_cold --seeds 1-10

Runs the benchmark once per seed (``--trace 0``, ``run_seconds`` from
BENCHMARK.json), then prints per metric the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound. A benchmark is steady when every spread except
``setup_s``'s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import iqr_share

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--out", type=Path, help="append raw results (JSON lines)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lo, _, hi = args.seeds.partition("-")
    values = {metric["name"]: [] for metric in bench["end_to_end"]}
    for seed in range(int(lo), int(hi or lo) + 1):
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.out is not None:
            with args.out.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(seed, result["correct"], {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for metric in bench["end_to_end"]:
        series = values[metric["name"]]
        spread = iqr_share(series) if len(series) >= 2 else 0.0
        print(
            f"{metric['name']:22s} median {statistics.median(series):10.4f}  "
            f"spread {spread:6.3f}  bound {metric['bound']:.3f}  "
            f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
