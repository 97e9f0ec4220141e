"""The benchmark's own check: tiny versions of every workload.

    python3 perfbench/smoke_check.py          # or: python3 -m pytest perfbench/smoke_check.py

For each workload, traced and untraced, it runs ``run.py --smoke`` and
asserts that the output checks passed and that every metric named in
BENCHMARK.json is emitted with its unit. It also asserts which layers
each workload exercises, and that the command refuses to run (non-zero
exit, no result line) in a directory holding only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("sweep_cold", "sweep_store_socket", "fleet_live")
SMOKE_SECONDS = {"sweep_cold": 2, "sweep_store_socket": 2, "fleet_live": 6}


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", str(SMOKE_SECONDS[workload]),
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_tables_match_benchmark_json():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        n["bound"] for n in bench["end_to_end"]) for m in bench["end_to_end"])


def test_every_workload_emits_every_metric():
    bench = _bench()
    for workload in WORKLOADS:
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            metrics = _result(workload, trace)
            assert set(metrics) == {m["name"] for m in table}, workload
            for metric in table:
                assert metrics[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(metrics[metric["name"]]["value"], float)
            if trace == 0:
                for metric in table:
                    assert metrics[metric["name"]]["value"] > 0, (workload, metric)
            else:
                _assert_layers(workload, {k: v["value"] for k, v in metrics.items()})


def _assert_layers(workload: str, values: dict) -> None:
    net = [name for name in values if name.startswith("net.")]
    if workload == "fleet_live":
        assert values["net.node.datagram_received.calls"] > 0
        assert values["net.faults.drop_share"] > 0
        assert values["core.dissemination.make_poll.max_bytes"] > 0
        assert values["builder.warm_up.s"] == 0
    else:
        assert all(values[name] == 0 for name in net), workload
    if workload == "sweep_cold":
        assert values["builder.warm_up.node_cycles"] > 0
        assert values["snapshot_store.store.entries"] > 0
        assert values["snapshot_store.load.entries"] == 0
    if workload == "sweep_store_socket":
        assert values["builder.warm_up.s"] == 0
        assert values["snapshot_store.store.entries"] == 0
        assert values["snapshot_store.load.entries"] > 0
        assert values["pull_recovery.calls"] > 0
        assert values["sweep_backends.trial_frames"] > 0


def test_refuses_without_the_program():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = _run("sweep_cold", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (
        test_tables_match_benchmark_json,
        test_refuses_without_the_program,
        test_every_workload_emits_every_metric,
    ):
        test()
        print(f"ok {test.__name__}", flush=True)
