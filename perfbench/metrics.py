"""Metric names, units, and the reduction from traced stats to metrics.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; the smoke
check fails if the two drift apart.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

# (name, unit) — every workload reports every one of these.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_delivery", "ms"),
    ("push_delivery_ratio", "ratio"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # warm-up: population build, CYCLON and VICINITY cycles, freeze
    ("builder.warm_up.s", "s"),
    ("builder.warm_up.self_s", "s"),
    ("builder.warm_up.share", "ratio"),
    ("builder.warm_up.node_cycles", "count"),
    ("builder.warm_up.us_per_node_cycle", "us"),
    ("membership.cyclon.execute_cycle.calls", "count"),
    ("membership.cyclon.execute_cycle.s", "s"),
    ("membership.vicinity.execute_cycle.calls", "count"),
    ("membership.vicinity.execute_cycle.s", "s"),
    ("builder.build_population.s", "s"),
    ("builder.freeze_overlay.s", "s"),
    # overlay snapshot store
    ("snapshot_store.store.entries", "count"),
    ("snapshot_store.store.bytes", "bytes"),
    ("snapshot_store.store.s", "s"),
    ("snapshot_store.load.entries", "count"),
    ("snapshot_store.load.bytes", "bytes"),
    ("snapshot_store.load.s", "s"),
    # dissemination and pull
    ("scenarios.sweep_snapshot.messages", "count"),
    ("scenarios.sweep_snapshot.s", "s"),
    ("dissemination.executor.disseminate.calls", "count"),
    ("dissemination.executor.disseminate.s", "s"),
    ("dissemination.virgin_share", "ratio"),
    ("pull_recovery.calls", "count"),
    ("pull_recovery.s", "s"),
    ("pull_recovery.pull_requests", "count"),
    ("pull_recovery.recovered", "count"),
    ("pull_recovery.useful_share", "ratio"),
    # socket shipping
    ("sweep_backends.trial_frames", "count"),
    ("sweep_backends.frames_per_trial", "ratio"),
    ("sweep_backends.frame_bytes_sent", "bytes"),
    ("sweep_backends.snapshot_entries_shipped", "count"),
    ("sweep_backends.shipped_per_overlay", "ratio"),
    ("sweep_backends.snapshot_bytes_shipped", "bytes"),
    ("sweep_backends.trial_compute_s", "s"),
    ("sweep_backends.dispatch_wait_s", "s"),
    ("sweep_backends.dissemination_pull_share", "ratio"),
    ("sweep_results.save.s", "s"),
    ("trials_per_s", "1/s"),
    # live runtime: UDP codec, handler, faults, live pull, analyzer
    ("net.node.datagram_received.calls", "count"),
    ("net.node.datagram_received.us_per_call", "us"),
    ("net.wire.encode_datagram.calls", "count"),
    ("net.wire.encode_datagram.bytes", "bytes"),
    ("net.wire.encode_datagram.max_bytes", "bytes"),
    ("net.wire.encode_datagram.errors", "count"),
    ("net.wire.decode_datagram.us_per_call", "us"),
    ("net.node.log.calls", "count"),
    ("net.node.log.us_per_call", "us"),
    ("net.node.gossip_once.us_per_call", "us"),
    ("net.faults.plan.calls", "count"),
    ("net.faults.drop_share", "ratio"),
    ("core.dissemination.make_poll.calls", "count"),
    ("core.dissemination.make_poll.max_bytes", "bytes"),
    ("net.pull.useful_share", "ratio"),
    ("net.gossip.first_receipt_share", "ratio"),
    ("net.gossip.push_dead_messages", "count"),
    ("net.analyzer.analyze_run.s", "s"),
    ("net.analyzer.ring_convergence.s", "s"),
    ("delivery_p50_ms", "ms"),
    ("delivery_p99_ms", "ms"),
    ("delivery_samples", "count"),
    ("publish_late_p99_ms", "ms"),
    # the run itself
    ("failed_share", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    stats: Mapping[str, Mapping[str, float]],
    counts: Mapping[str, float],
    maxima: Mapping[str, float],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never ran read 0."""

    def stat(name: str, key: str) -> float:
        return float(stats.get(name, {}).get(key, 0.0))

    def per_call_us(name: str) -> float:
        return _ratio(stat(name, "s") * 1e6, stat(name, "calls"))

    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    node_cycles = counts.get("builder.warm_up.node_cycles", 0.0)
    values.update(
        {
            "builder.warm_up.s": stat("builder.warm_up", "s"),
            "builder.warm_up.self_s": stat("builder.warm_up", "self_s"),
            "builder.warm_up.share": _ratio(
                stat("builder.warm_up", "s"), extra.get("trace.run_s", 0.0)
            ),
            "builder.warm_up.node_cycles": node_cycles,
            "builder.warm_up.us_per_node_cycle": _ratio(
                stat("builder.warm_up", "s") * 1e6, node_cycles
            ),
            "membership.cyclon.execute_cycle.calls": stat(
                "membership.cyclon.execute_cycle", "calls"
            ),
            "membership.cyclon.execute_cycle.s": stat(
                "membership.cyclon.execute_cycle", "s"
            ),
            "membership.vicinity.execute_cycle.calls": stat(
                "membership.vicinity.execute_cycle", "calls"
            ),
            "membership.vicinity.execute_cycle.s": stat(
                "membership.vicinity.execute_cycle", "s"
            ),
            "builder.build_population.s": stat("builder.build_population", "s"),
            "builder.freeze_overlay.s": stat("builder.freeze_overlay", "s"),
            "snapshot_store.store.entries": stat("snapshot_store.store", "calls"),
            "snapshot_store.store.bytes": counts.get("snapshot_store.store.bytes", 0.0),
            "snapshot_store.store.s": stat("snapshot_store.store", "s"),
            "snapshot_store.load.entries": counts.get("snapshot_store.load.entries", 0.0),
            "snapshot_store.load.bytes": counts.get("snapshot_store.load.bytes", 0.0),
            "snapshot_store.load.s": stat("snapshot_store.load", "s"),
            "scenarios.sweep_snapshot.messages": counts.get(
                "scenarios.sweep_snapshot.messages", 0.0
            ),
            "scenarios.sweep_snapshot.s": stat("scenarios.sweep_snapshot", "s"),
            "dissemination.executor.disseminate.calls": stat(
                "dissemination.executor.disseminate", "calls"
            ),
            "dissemination.executor.disseminate.s": stat(
                "dissemination.executor.disseminate", "s"
            ),
            "dissemination.virgin_share": _ratio(
                counts.get("dissemination.msgs_virgin", 0.0),
                counts.get("dissemination.msgs_total", 0.0),
            ),
            "pull_recovery.calls": stat("pull_recovery", "calls"),
            "pull_recovery.s": stat("pull_recovery", "s"),
            "pull_recovery.pull_requests": counts.get("pull_recovery.pull_requests", 0.0),
            "pull_recovery.recovered": counts.get("pull_recovery.recovered", 0.0),
            "pull_recovery.useful_share": _ratio(
                counts.get("pull_recovery.recovered", 0.0),
                counts.get("pull_recovery.pull_requests", 0.0),
            ),
            "sweep_backends.dissemination_pull_share": _ratio(
                stat("dissemination.executor.disseminate", "s")
                + stat("pull_recovery", "s"),
                extra.get("sweep_backends.trial_compute_s", 0.0),
            ),
            "sweep_results.save.s": stat("sweep_results.save", "s"),
            "net.node.datagram_received.calls": stat(
                "net.node.datagram_received", "calls"
            ),
            "net.node.datagram_received.us_per_call": per_call_us(
                "net.node.datagram_received"
            ),
            "net.wire.encode_datagram.calls": stat("net.wire.encode_datagram", "calls"),
            "net.wire.encode_datagram.bytes": counts.get(
                "net.wire.encode_datagram.bytes", 0.0
            ),
            "net.wire.encode_datagram.max_bytes": maxima.get(
                "net.wire.encode_datagram.max_bytes", 0.0
            ),
            "net.wire.encode_datagram.errors": counts.get(
                "net.wire.encode_datagram.errors", 0.0
            ),
            "net.wire.decode_datagram.us_per_call": per_call_us(
                "net.wire.decode_datagram"
            ),
            "net.node.log.calls": stat("net.node.log", "calls"),
            "net.node.log.us_per_call": per_call_us("net.node.log"),
            "net.node.gossip_once.us_per_call": per_call_us("net.node.gossip_once"),
            "net.faults.plan.calls": stat("net.faults.plan", "calls"),
            "net.faults.drop_share": _ratio(
                counts.get("net.faults.dropped", 0.0), stat("net.faults.plan", "calls")
            ),
            "core.dissemination.make_poll.calls": stat(
                "core.dissemination.make_poll", "calls"
            ),
            "core.dissemination.make_poll.max_bytes": maxima.get(
                "core.dissemination.make_poll.max_bytes", 0.0
            ),
            "net.pull.useful_share": _ratio(
                counts.get("net.pull.deliveries", 0.0),
                counts.get("net.pull.polls_sent", 0.0),
            ),
            "net.gossip.first_receipt_share": _ratio(
                counts.get("net.gossip.first_receipts", 0.0),
                counts.get("net.gossip.received", 0.0),
            ),
            "net.analyzer.analyze_run.s": stat("net.analyzer.analyze_run", "s"),
            "net.analyzer.ring_convergence.s": stat(
                "net.analyzer.ring_convergence", "s"
            ),
        }
    )
    for name, value in extra.items():
        if name in values:
            values[name] = float(value)
    return values


def emit(values: Mapping[str, float], table: Sequence[Tuple[str, str]]) -> Dict[str, Dict]:
    return {
        name: {"value": float(values[name]), "unit": unit} for name, unit in table
    }


def iqr_share(values: List[float]) -> float:
    """Distance between first and third quartile over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
