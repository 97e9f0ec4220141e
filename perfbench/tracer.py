"""In-memory spans and counts around the program's layer boundaries.

The benchmark never edits the program: it replaces the functions named
in :data:`SWEEP_TARGETS` and :data:`NET_TARGETS` with wrappers that
record a span per call (name, start, end, parent) plus whatever counts
the call's arguments or result reveal. Spans stay in memory until the
run ends; self time is computed from them afterwards (a span's
duration minus the part its child spans cover).

A function imported by name into other modules (``from x import f``)
is replaced in every loaded ``repro`` module that holds it, so the
wrapper sees calls whichever module makes them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int, int]  # name, t0, t1, id, parent, tid


class Tracer:
    """Collects spans and counters; thread-safe for the socket server."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        # Stats exported by other processes (the traced socket workers).
        self.merged_stats: Dict[str, Dict[str, float]] = {}
        self.merged_spans = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
        failed: Optional[Callable[["Tracer", tuple, dict], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if failed is not None:
                    failed(tracer, args, kwargs)
                raise
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (name, started, ended, span_id, parent, threading.get_ident())
                )
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def patch(self, target: str, name: str, after=None, failed=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` everywhere.

        Module-level functions are replaced in every loaded ``repro``
        module that imported them by name; methods are replaced on the
        class, which every instance resolves through.
        """
        module_name, _, attr_path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr_path:
            class_name, method = attr_path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            setattr(owner, method, self.wrap(original, name, after, failed))
            self._restore.append(
                lambda owner=owner, method=method, original=original: setattr(
                    owner, method, original
                )
            )
            return
        original = getattr(module, attr_path)
        wrapped = self.wrap(original, name, after, failed)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._restore.append(
                        lambda loaded=loaded, key=key: setattr(
                            loaded, key, original
                        )
                    )

    def install(self, targets) -> None:
        for target, name, after, failed in targets:
            self.patch(target, name, after, failed)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reduction ------------------------------------------------------

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _name, t0, t1, _sid, parent, _tid in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0}
        )
        for name, t0, t1, sid, _parent, _tid in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        return dict(stats)

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold in another process's exported stats (see :meth:`export`)."""
        for name, entry in payload.get("stats", {}).items():
            self.merged_stats[name] = {
                key: self.merged_stats.get(name, {}).get(key, 0.0) + value
                for key, value in entry.items()
            }
        for name, value in payload.get("counts", {}).items():
            self.counts[name] += value
        for name, value in payload.get("maxima", {}).items():
            self.peak(name, value)
        self.merged_spans += int(payload.get("spans", 0))

    def combined_stats(self) -> Dict[str, Dict[str, float]]:
        stats = self.layer_stats()
        for name, entry in self.merged_stats.items():
            mine = stats.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                mine[key] = mine.get(key, 0.0) + value
        return stats

    def export(self) -> Dict[str, Any]:
        return {
            "stats": self.layer_stats(),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans": len(self.spans),
        }

    def write_chrome_trace(self, path, label: str) -> None:
        """Spans as Chrome/Perfetto trace-event JSON (complete events)."""
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": label,
                "tid": tid,
                "args": {"id": sid, "parent": parent},
            }
            for name, t0, t1, sid, parent, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


# ----------------------------------------------------------------------
# counting hooks: what a call's arguments or result reveal
# ----------------------------------------------------------------------


def _warm_up_cycles(tracer: Tracer, args, kwargs, _result) -> None:
    population = args[0]
    cycles = args[1] if len(args) > 1 else kwargs.get("cycles")
    if cycles is None:
        cycles = population.config.warmup_cycles
    tracer.count(
        "builder.warm_up.node_cycles", len(population.network.alive_ids()) * cycles
    )


def _dissemination_counts(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("dissemination.msgs_virgin", result.msgs_virgin)
    tracer.count("dissemination.msgs_total", result.total_messages)


def _sweep_snapshot_counts(tracer: Tracer, _args, _kwargs, sweep) -> None:
    tracer.count(
        "scenarios.sweep_snapshot.messages",
        sum(len(runs) for runs in sweep.runs.values()),
    )


def _pull_counts(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("pull_recovery.pull_requests", result.pull_requests)
    tracer.count("pull_recovery.recovered", result.recovered)


def _store_write_counts(tracer: Tracer, _args, _kwargs, blob) -> None:
    tracer.count("snapshot_store.store.bytes", len(blob))


def _store_read_counts(tracer: Tracer, args, _kwargs, _result) -> None:
    tracer.count("snapshot_store.load.entries")
    tracer.count("snapshot_store.load.bytes", len(args[0]))


def _datagram_counts(tracer: Tracer, args, _kwargs, data) -> None:
    size = len(data)
    kind = args[0].get("t")
    tracer.count("net.wire.encode_datagram.bytes", size)
    tracer.peak("net.wire.encode_datagram.max_bytes", size)
    if kind == "pull_request":
        tracer.count("net.pull.polls_sent")
        tracer.peak("core.dissemination.make_poll.max_bytes", size)


def _datagram_too_large(tracer: Tracer, args, _kwargs) -> None:
    tracer.count("net.wire.encode_datagram.errors")
    if args and isinstance(args[0], dict) and args[0].get("t") == "pull_request":
        tracer.count("net.pull.polls_failed")


def _decoded_counts(tracer: Tracer, _args, _kwargs, obj) -> None:
    if obj.get("t") == "gossip":
        tracer.count("net.gossip.received")


def _fault_counts(tracer: Tracer, _args, _kwargs, schedule) -> None:
    if not schedule:
        tracer.count("net.faults.dropped")


def _node_log_counts(tracer: Tracer, args, kwargs, _result) -> None:
    if args[1] == "deliver":
        via = kwargs.get("via")
        if via == "push":
            tracer.count("net.gossip.first_receipts")
        elif via == "pull":
            tracer.count("net.pull.deliveries")


# (target, span name, after-hook, failure-hook)
SWEEP_TARGETS = (
    ("repro.experiments.builder:build_population", "builder.build_population", None, None),
    ("repro.experiments.builder:warm_up", "builder.warm_up", _warm_up_cycles, None),
    ("repro.experiments.builder:freeze_overlay", "builder.freeze_overlay", None, None),
    ("repro.membership.cyclon:Cyclon.execute_cycle", "membership.cyclon.execute_cycle", None, None),
    ("repro.membership.vicinity:Vicinity.execute_cycle", "membership.vicinity.execute_cycle", None, None),
    ("repro.experiments.snapshot_store:_write_entry", "snapshot_store.store", None, None),
    ("repro.experiments.snapshot_store:_encode_entry_bytes", "snapshot_store.encode", _store_write_counts, None),
    ("repro.experiments.snapshot_store:_parse_entry_bytes", "snapshot_store.parse", _store_read_counts, None),
    ("repro.experiments.snapshot_store:load_snapshot_entry", "snapshot_store.load", None, None),
    ("repro.experiments.snapshot_store:SnapshotProvider.entry_for", "snapshot_store.load", None, None),
    ("repro.experiments.snapshot_store:SnapshotProvider.preload_entry", "snapshot_store.load", None, None),
    ("repro.experiments.scenarios:sweep_snapshot", "scenarios.sweep_snapshot", _sweep_snapshot_counts, None),
    ("repro.dissemination.executor:disseminate", "dissemination.executor.disseminate", _dissemination_counts, None),
    ("repro.extensions.pull_recovery:pull_recovery", "pull_recovery", _pull_counts, None),
    ("repro.experiments.sweep_results:SweepResult.save", "sweep_results.save", None, None),
)

NET_TARGETS = (
    ("repro.net.node:GossipNode.datagram_received", "net.node.datagram_received", None, None),
    ("repro.net.node:GossipNode.log", "net.node.log", _node_log_counts, None),
    ("repro.net.node:GossipNode.gossip_once", "net.node.gossip_once", None, None),
    ("repro.net.wire:encode_datagram", "net.wire.encode_datagram", _datagram_counts, _datagram_too_large),
    ("repro.net.wire:decode_datagram", "net.wire.decode_datagram", _decoded_counts, None),
    ("repro.net.faults:FaultInjector.plan", "net.faults.plan", _fault_counts, None),
    ("repro.core.dissemination:DisseminationCore.make_poll", "core.dissemination.make_poll", None, None),
    ("repro.net.analyzer:analyze_run", "net.analyzer.analyze_run", None, None),
    ("repro.net.analyzer:ring_convergence", "net.analyzer.ring_convergence", None, None),
)


def import_layers() -> None:
    """Import every module a target lives in before patching, so that
    by-name imports between them are already bound when replaced."""
    for target, *_rest in SWEEP_TARGETS + NET_TARGETS:
        importlib.import_module(target.partition(":")[0])
    importlib.import_module("repro.experiments.scenario_matrix")
    importlib.import_module("repro.experiments.sweep_backends")
    importlib.import_module("repro.net.fleet")
    importlib.import_module("repro.api")
