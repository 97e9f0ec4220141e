"""The live workload: scenario file in, checked analyzer report out.

``run_fleet(mode="inline")`` runs every ``GossipNode`` in one asyncio
loop over loopback UDP with injected loss and latency, one node killed
and restarted, and publishes sent open loop at a fixed rate. Then
``analyze_run`` reads the JSONL logs. Latency is computed here from the
same logs: per (message, node) first delivery, timed from when the
publish was *due*, for nodes that were up at publish time.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import Context, Outcome, fresh_interpreter_setup, peak_rss_mb
from inputs import FLEET, fleet_scenario, write_json
from metrics import layer_metrics, median, percentile
from tracer import NET_TARGETS, SWEEP_TARGETS, Tracer

# CPU per delivery is taken per window of the publish period and the
# median reported, so a few slow seconds on a shared host do not move it.
CPU_WINDOW_S = 2.0
CPU_SAMPLE_S = 0.1


class _CpuSampler:
    """Samples (wall clock, process CPU) from a thread while the fleet's
    event loop runs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append((time.time(), time.process_time()))
            self._stop.wait(CPU_SAMPLE_S)

    def __enter__(self) -> "_CpuSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def cpu_at(self, ts: float) -> float:
        """Process CPU seconds at wall time ``ts`` (linear interpolation)."""
        for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:]):
            if t0 <= ts <= t1:
                return c0 + (c1 - c0) * (ts - t0) / (t1 - t0) if t1 > t0 else c0
        return self.samples[-1][1] if ts > self.samples[-1][0] else self.samples[0][1]


class _Logs:
    """What the node logs say about one fleet run."""

    def __init__(self, log_dir: Path) -> None:
        self.events: Dict[int, List[dict]] = defaultdict(list)
        for path in sorted(log_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    record = json.loads(line)
                    self.events[int(record["node"])].append(record)
                except (ValueError, KeyError, TypeError):
                    continue  # the analyzer counts these as skipped lines
        for records in self.events.values():
            records.sort(key=lambda record: record["ts"])

    def start_ts(self) -> float:
        """When the supervisor's clock started: right after the last
        initial node came up (its first ``start`` event)."""
        return max(
            next(r["ts"] for r in records if r["event"] == "start")
            for records in self.events.values()
        )

    def up_intervals(self) -> Dict[int, List[Tuple[float, float]]]:
        intervals: Dict[int, List[Tuple[float, float]]] = {}
        for node, records in self.events.items():
            spans: List[Tuple[float, float]] = []
            opened: Optional[float] = None
            for record in records:
                if record["event"] == "start":
                    opened = record["ts"]
                elif record["event"] == "stop" and opened is not None:
                    spans.append((opened, record["ts"]))
                    opened = None
            if opened is not None:
                spans.append((opened, float("inf")))
            intervals[node] = spans
        return intervals

    def publishes(self) -> Dict[str, Tuple[int, float, str]]:
        """msg_id -> (origin, publish ts, payload)."""
        return {
            r["msg_id"]: (node, r["ts"], r.get("payload"))
            for node, records in self.events.items()
            for r in records
            if r["event"] == "publish"
        }

    def deliveries(self) -> Dict[Tuple[str, int], float]:
        """(msg_id, node) -> first delivery ts."""
        first: Dict[Tuple[str, int], float] = {}
        for node, records in self.events.items():
            for r in records:
                if r["event"] == "deliver":
                    first.setdefault((r["msg_id"], node), r["ts"])
        return first

    def max_poll_bytes(self) -> int:
        """Size of the largest poll a node would send at the end: every
        id it has seen, as ``make_poll`` advertises them."""
        from repro.common.errors import ProtocolError
        from repro.net.wire import encode_datagram

        largest = 0
        for node, records in self.events.items():
            seen = list(
                dict.fromkeys(r["msg_id"] for r in records if r["event"] == "deliver")
            )
            payload = {"t": "pull_request", "from": node, "known": seen}
            try:
                size = len(encode_datagram(payload))
            except ProtocolError:  # over MAX_DATAGRAM_BYTES: report the raw size
                size = len(json.dumps(payload, separators=(",", ":")))
            largest = max(largest, size)
        return largest


def _one_fleet(ctx: Context, scenario_path: Path, label: str):
    """Scenario file -> fleet run -> analyzer report; returns timings."""
    from repro.net.analyzer import analyze_run
    from repro.net.fleet import load_fleet_scenario, run_fleet

    log_dir = ctx.work / f"logs-{label}"
    shutil.rmtree(log_dir, ignore_errors=True)
    started = time.perf_counter()
    scenario = load_fleet_scenario(scenario_path)
    with _CpuSampler() as cpu:
        run_fleet(
            scenario,
            log_dir,
            mode="inline",
            analyze=False,
            settle=FLEET[ctx.size]["settle"],
        )
    report = analyze_run(log_dir)
    run_s = time.perf_counter() - started
    return scenario, log_dir, report, run_s, cpu


def _check(ctx: Context, scenario, log_dir: Path, report, cpu: _CpuSampler) -> Dict[str, float]:
    """Output checks, latency and CPU; failures are counted per publish."""
    from repro.net.wire import MAX_DATAGRAM_BYTES

    logs = _Logs(log_dir)
    due = {event.payload: event.at for event in scenario.publishes}
    start = logs.start_ts()
    published = logs.publishes()
    delivered = logs.deliveries()
    intervals = logs.up_intervals()
    failed = set()
    push_dead = 0
    broken: List[str] = []

    if report.skipped_lines:
        broken.append(f"{report.skipped_lines} unparseable log lines")
    if report.population != scenario.nodes:
        broken.append(f"population {report.population} != {scenario.nodes} nodes")
    if len(report.messages) != len(scenario.publishes):
        broken.append(
            f"analyzed {len(report.messages)} of {len(scenario.publishes)} publishes"
        )
    poll_bytes = logs.max_poll_bytes()
    if poll_bytes > MAX_DATAGRAM_BYTES:
        broken.append(
            f"a poll needs {poll_bytes} bytes > {MAX_DATAGRAM_BYTES}: pull stops"
        )
    for message in report.messages:
        if message.delivered != report.population:
            ctx.note(
                f"{message.msg_id}: delivered to {message.delivered} of "
                f"{report.population} nodes"
            )
            failed.add(message.msg_id)
        if message.push_deliveries <= 1:
            # Every first-hop send was lost (to injected loss or a dead
            # peer): there are no push hops to compare with the
            # prediction, which the analyzer then reports as diverged.
            # Pull must still deliver it everywhere (checked above).
            push_dead += 1
            ctx.note(f"{message.msg_id}: push never left the origin; pull delivered it")
        elif message.hops_within_tolerance is not True:
            ctx.note(
                f"{message.msg_id}: mean hops {message.mean_hops:.2f} outside the "
                f"analyzer's tolerance of the prediction {message.predicted}"
            )
            failed.add(message.msg_id)

    latencies: List[float] = []
    lateness: List[float] = []
    for msg_id, (origin, published_ts, payload) in published.items():
        due_ts = start + due.get(payload, 0.0)
        lateness.append(published_ts - due_ts)
        for node, spans in intervals.items():
            if node == origin:
                continue
            if not any(lo <= published_ts <= hi for lo, hi in spans):
                continue  # down at publish time: recovered later by pull
            ts = delivered.get((msg_id, node))
            if ts is not None:
                latencies.append(ts - due_ts)
    attempted = len(scenario.publishes)
    failed_count = attempted if broken else len(failed)
    for reason in broken:
        ctx.note(reason)
    if failed:
        ctx.note(f"{len(failed)} of {attempted} publishes failed a check")
    ctx.note(
        f"{attempted} publishes, post-pull delivery {report.delivery_ratio:.3f}, "
        f"max poll {poll_bytes} bytes (limit {MAX_DATAGRAM_BYTES}), "
        f"{len(latencies)} latency samples"
    )
    # CPU per delivery asked for (every publish to every other node; all
    # must happen, as checked above), per window of the publish period.
    per_window: List[float] = []
    ats = sorted(due.values())
    edge = ats[0]
    window = min(CPU_WINDOW_S, max(ats[-1] - ats[0], 0.1))
    while edge + window <= ats[-1] + 1e-9:
        asked = sum(1 for at in ats if edge <= at < edge + window)
        spent = cpu.cpu_at(start + edge + window) - cpu.cpu_at(start + edge)
        per_window.append(spent * 1e3 / (asked * (scenario.nodes - 1)))
        edge += window
    return {
        "attempted": attempted,
        "failed": failed_count,
        "cpu_ms_per_delivery": median(per_window),
        "push_delivery_ratio": sum(m.push_ratio for m in report.messages)
        / max(len(report.messages), 1),
        "delivery_p50_ms": percentile(latencies, 50) * 1e3 if latencies else 0.0,
        "delivery_p99_ms": percentile(latencies, 99) * 1e3 if latencies else 0.0,
        "delivery_samples": float(len(latencies)),
        "publish_late_p99_ms": percentile(lateness, 99) * 1e3 if lateness else 0.0,
        "net.gossip.push_dead_messages": float(push_dead),
    }


def fleet_live(ctx: Context) -> Outcome:
    scenario_path = write_json(
        ctx.work / "fleet.json", fleet_scenario(ctx.seed, ctx.size, ctx.seconds)
    )
    setup_s = fresh_interpreter_setup(
        ctx,
        "from pathlib import Path; "
        "from repro.net.fleet import load_fleet_scenario; "
        "from repro.net.analyzer import analyze_run; "
        f"load_fleet_scenario(Path({str(scenario_path)!r}))",
    )
    scenario, log_dir, report, run_s, cpu = _one_fleet(ctx, scenario_path, "run")
    checked = _check(ctx, scenario, log_dir, report, cpu)
    end_to_end = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_ms_per_delivery": checked["cpu_ms_per_delivery"],
        "push_delivery_ratio": checked["push_delivery_ratio"],
    }
    attempted = int(checked["attempted"])
    failed = int(checked["failed"])
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        tracer = Tracer()
        tracer.install(SWEEP_TARGETS + NET_TARGETS)
        try:
            scenario, log_dir, report, traced_s, cpu = _one_fleet(
                ctx, scenario_path, "traced"
            )
        finally:
            tracer.uninstall()
        traced = _check(ctx, scenario, log_dir, report, cpu)
        attempted += int(traced["attempted"])
        failed += int(traced["failed"])
        extra = {
            name: checked[name]
            for name in (
                "delivery_p50_ms",
                "delivery_p99_ms",
                "delivery_samples",
                "publish_late_p99_ms",
                "net.gossip.push_dead_messages",
            )
        }
        extra["failed_share"] = failed / max(attempted, 1)
        extra["trace.run_s"] = traced_s
        extra["trace.overhead_share"] = traced_s / run_s - 1.0
        extra["trace.spans"] = float(len(tracer.spans))
        per_layer = layer_metrics(tracer.layer_stats(), tracer.counts, tracer.maxima, extra)
        tracer.write_chrome_trace(
            ctx.root / ".perfbench" / "traces" / f"{ctx.workload}-{ctx.seed}.json",
            ctx.workload,
        )
    return Outcome(attempted, failed, end_to_end, per_layer)
