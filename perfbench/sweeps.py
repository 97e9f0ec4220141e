"""The two sweep workloads: spec file in, checked sweep JSON out.

``sweep_cold`` runs a spec inline against an empty snapshot store, so
nearly all of its time is CYCLON/VICINITY warm-up and every overlay is
written to the store. ``sweep_store_socket`` warms a store in set-up,
then repeats the spec on the socket backend: overlays come from the
store and ship inside trial frames, leaving dissemination, pull
recovery, store reads and frame shipping as the work.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    CANARY_SEED,
    Context,
    Outcome,
    check_pin,
    child_env,
    cpu_seconds,
    fresh_interpreter_setup,
    peak_rss_mb,
    repeat_for,
    sha256_file,
)
from inputs import sweep_cold_spec, sweep_store_spec, write_json
from metrics import layer_metrics, median
from tracer import NET_TARGETS, SWEEP_TARGETS, Tracer

SOCKET_WORKERS = 2
SETUP_RUNS = {"full": 2, "smoke": 1}
TRACE_TARGETS = SWEEP_TARGETS + NET_TARGETS


def run_spec(
    spec_path: Path,
    out_path: Path,
    store: Path,
    backend: str,
    overlay_reuse: str,
    workers: int = 1,
    listen: Optional[Tuple[str, int]] = None,
    progress=None,
):
    """Spec file in, sweep JSON out — what ``repro sweep --spec`` does."""
    from repro.api import run_sweep
    from repro.experiments.sweep_spec import SweepSpec

    result = run_sweep(
        spec=SweepSpec.load(spec_path),
        backend=backend,
        workers=workers,
        listen=listen,
        snapshot_cache=store,
        overlay_reuse=overlay_reuse,
        progress=progress,
    )
    result.save(out_path)
    return result


def _deliveries(result) -> float:
    """Deliveries the sweep asks for: every message to every non-origin
    node. Fixed by the spec, so CPU per delivery measures the code, not
    how many nodes a random overlay happened to reach."""
    return sum(trial.runs * (trial.spec.num_nodes - 1) for trial in result.trials)


class _SweepRun:
    """Checks and end-to-end tallies shared by both sweep workloads."""

    def __init__(self, ctx: Context, spec_fn: Callable, overlay_reuse: str) -> None:
        self.ctx = ctx
        self.spec_fn = spec_fn
        self.overlay_reuse = overlay_reuse
        self.attempted = 0
        self.failed = 0
        self.references: Dict[int, str] = {}
        self.trials: Dict[int, int] = {}
        self.canary_digest: Optional[str] = None
        self.run_times: List[float] = []
        self.cpu_per_delivery: List[float] = []
        self.push_ratios: List[float] = []

    def spec_path(self, rep: int) -> Path:
        """The spec file of repetition ``rep``, written on first use."""
        path = self.ctx.work / f"spec-{rep}.json"
        if rep not in self.trials:
            from repro.experiments.sweep_spec import SweepSpec

            write_json(path, self.spec_fn(rep))
            self.trials[rep] = len(SweepSpec.load(path).expand())
        return path

    def expected_trials(self, rep: int) -> int:
        self.spec_path(rep)
        return self.trials[rep]

    def canary(self) -> str:
        """Smoke-size sweep at the canary seed, run inline from cold."""
        if self.canary_digest is None:
            spec_fn = sweep_cold_spec if self.overlay_reuse == "trial" else sweep_store_spec
            work = self.ctx.work / "canary"
            spec = write_json(work / "spec.json", spec_fn(CANARY_SEED, "smoke"))
            run_spec(spec, work / "sweep.json", work / "store", "inline", self.overlay_reuse)
            self.canary_digest = sha256_file(work / "sweep.json")
        return self.canary_digest

    def check(self, result, digest: str, rep: int, label: str) -> None:
        """Count missing trials and byte-identity breaks as failures.

        The first output of each spec is compared with its pin (or the
        canary's); every later output of that spec must be identical.
        """
        expected = self.expected_trials(rep)
        present = len(result.trials) if result is not None else 0
        self.attempted += expected
        if present < expected:
            self.ctx.note(f"{label}: {expected - present} of {expected} trials missing")
            self.failed += expected - present
        if rep not in self.references:
            ok, why = check_pin(self.ctx, digest, rep, self.canary)
            self.ctx.note(f"{label}: {why}")
            self.references[rep] = digest if ok else ""
        if digest != self.references[rep]:
            self.ctx.note(f"{label}: sweep JSON differs from the reference")
            self.failed += present

    def timed(self, rep: int, label: str, body, record: bool = True) -> float:
        """Run ``body()`` -> (result, json path) and check it; ``record``
        adds its CPU time and outputs to the end-to-end metrics."""
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        try:
            result, out = body()
            digest = sha256_file(out)
        except Exception as exc:  # a crashed run is a failed run
            self.ctx.note(f"{label}: {type(exc).__name__}: {exc}")
            result, digest = None, "error"
        self.check(result, digest, rep, label)
        elapsed = time.perf_counter() - started
        if result is not None and record:
            spent = cpu_seconds() - cpu0
            self.cpu_per_delivery.append(spent * 1e3 / _deliveries(result))
            self.push_ratios.extend(1.0 - trial.mean_miss_ratio for trial in result.trials)
        return elapsed

    def outcome(
        self, setup_s: float, trials: int, extra: Dict[str, float], tracer: Optional[Tracer]
    ) -> Outcome:
        run_s = median(self.run_times)
        end_to_end = {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb(),
            "cpu_ms_per_delivery": median(self.cpu_per_delivery) if self.cpu_per_delivery else 0.0,
            "push_delivery_ratio": sum(self.push_ratios) / max(len(self.push_ratios), 1),
        }
        per_layer: Dict[str, float] = {}
        if tracer is not None:
            extra = dict(extra)
            extra["trials_per_s"] = trials / run_s
            extra["failed_share"] = self.failed / max(self.attempted, 1)
            extra["trace.overhead_share"] = extra["trace.run_s"] / run_s - 1.0
            extra["trace.spans"] = float(len(tracer.spans) + tracer.merged_spans)
            per_layer = layer_metrics(
                tracer.combined_stats(), tracer.counts, tracer.maxima, extra
            )
            tracer.write_chrome_trace(
                self.ctx.root / ".perfbench" / "traces" / f"{self.ctx.workload}-{self.ctx.seed}.json",
                self.ctx.workload,
            )
        return Outcome(self.attempted, self.failed, end_to_end, per_layer)


# ----------------------------------------------------------------------
# sweep_cold
# ----------------------------------------------------------------------


def sweep_cold(ctx: Context) -> Outcome:
    """Each repetition: a fresh spec universe, an empty store, inline."""
    run = _SweepRun(ctx, lambda rep: sweep_cold_spec(ctx.seed, ctx.size, rep), "trial")
    setup_s = fresh_interpreter_setup(
        ctx,
        "from pathlib import Path; import repro.api; "
        "from repro.experiments.sweep_spec import SweepSpec; "
        f"SweepSpec.load(Path({str(run.spec_path(0))!r})).expand()",
    )

    def unit(rep: int, progress=None) -> float:
        store = ctx.work / f"store-{rep}"
        out = ctx.work / f"sweep-{rep}.json"
        shutil.rmtree(store, ignore_errors=True)

        def body():
            result = run_spec(run.spec_path(rep), out, store, "inline", "trial", progress=progress)
            return result, out

        label = f"rep {rep}" if progress is None else "traced"
        elapsed = run.timed(rep, label, body, record=progress is None)
        shutil.rmtree(store, ignore_errors=True)
        return elapsed

    run.run_times = repeat_for(ctx, unit)
    tracer: Optional[Tracer] = None
    extra: Dict[str, float] = {"sweep_backends.trial_compute_s": 0.0}
    if ctx.trace:
        # Repetition 0 again, traced: its JSON must match the untraced one.
        def progress(_key: str, seconds: float, cached: bool) -> None:
            if not cached:
                extra["sweep_backends.trial_compute_s"] += seconds

        tracer = Tracer()
        tracer.install(TRACE_TARGETS)
        try:
            extra["trace.run_s"] = unit(0, progress)
        finally:
            tracer.uninstall()
    return run.outcome(setup_s, run.expected_trials(0), extra, tracer)


# ----------------------------------------------------------------------
# sweep_store_socket
# ----------------------------------------------------------------------


def sweep_store_socket(ctx: Context) -> Outcome:
    """Set-up warms the store; repetitions re-run the spec over it on the
    socket backend with local workers."""
    run = _SweepRun(ctx, lambda _rep: sweep_store_spec(ctx.seed, ctx.size), "grid")
    spec = run.spec_path(0)

    # Set-up: the spec from cold, inline, writing every overlay to a
    # fresh store; repeated, median reported. The last store is kept.
    setups: List[float] = []
    store = ctx.work / "store"
    for attempt in range(SETUP_RUNS[ctx.size]):
        shutil.rmtree(store, ignore_errors=True)
        out = ctx.work / f"setup-{attempt}.json"
        started = time.perf_counter()
        result = run_spec(spec, out, store, "inline", "grid")
        setups.append(time.perf_counter() - started)
        run.check(result, sha256_file(out), 0, f"set-up {attempt}")

    def unit(rep: int) -> float:
        out = ctx.work / f"sweep-{rep}.json"

        def body():
            result = run_spec(spec, out, store, "socket", "grid", workers=SOCKET_WORKERS)
            return result, out

        return run.timed(0, f"rep {rep}", body)

    run.run_times = repeat_for(ctx, unit)
    tracer: Optional[Tracer] = None
    extra: Dict[str, float] = {}
    if ctx.trace:
        tracer = Tracer()
        extra = _traced_socket_run(ctx, run, spec, store, tracer)
    return run.outcome(median(setups), run.expected_trials(0), extra, tracer)


def _free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _traced_socket_run(
    ctx: Context, run: _SweepRun, spec: Path, store: Path, tracer: Tracer
) -> Dict[str, float]:
    """The socket sweep with workers the benchmark launches itself.

    ``run_sweep(workers=0, listen=...)`` spawns no workers; two
    processes running ``traced_worker.py`` install the same wrappers and
    serve the sweep through ``sweep_backends.run_worker``, then export
    their stats for the parent to merge. Parent-side wrappers count the
    trial frames and snapshot entries the server ships, and the time a
    trial spent outside worker compute (dispatch wait).
    """
    from repro.experiments.sweep_results import TrialSpec, canonical_json

    sent_at: Dict[str, float] = {}
    overlays = set()
    extra = {"sweep_backends.trial_compute_s": 0.0, "sweep_backends.dispatch_wait_s": 0.0}

    def shipped(_tracer, args, _kwargs, frame) -> None:
        message = args[0]
        tracer.count("sweep_backends.frame_bytes_sent", len(frame))
        if message.get("type") != "trial":
            return
        tracer.count("sweep_backends.trial_frames")
        sent_at[TrialSpec.from_dict(message["spec"]).key] = time.perf_counter()
        entry = message.get("snapshot_entry")
        if entry is not None:
            tracer.count("sweep_backends.snapshot_entries_shipped")
            tracer.count("sweep_backends.snapshot_bytes_shipped", len(canonical_json(entry)))
            overlays.add((entry.get("overlay_key"), entry.get("overlay_seed")))

    def progress(key: str, seconds: float, cached: bool) -> None:
        if cached:
            return
        extra["sweep_backends.trial_compute_s"] += seconds
        round_trip = time.perf_counter() - sent_at.pop(key)
        extra["sweep_backends.dispatch_wait_s"] += max(round_trip - seconds, 0.0)

    port = _free_tcp_port()
    out = ctx.work / "sweep-traced.json"
    exports = [ctx.work / f"worker-{index}.json" for index in range(SOCKET_WORKERS)]
    tracer.install(TRACE_TARGETS)
    tracer.patch(
        "repro.experiments.sweep_backends:encode_frame", "sweep_backends.encode_frame", after=shipped
    )
    workers: List[subprocess.Popen] = []
    started = time.perf_counter()
    try:
        for path in exports:
            command = [
                sys.executable,
                str(Path(__file__).with_name("traced_worker.py")),
                "--connect", f"127.0.0.1:{port}",
                "--export", str(path),
            ]
            workers.append(subprocess.Popen(command, env=child_env(ctx), cwd=ctx.root))

        def body():
            result = run_spec(
                spec, out, store, "socket", "grid",
                workers=0, listen=("127.0.0.1", port), progress=progress,
            )
            return result, out

        run.timed(0, "traced", body, record=False)
        for proc in workers:
            proc.wait(timeout=60)
        extra["trace.run_s"] = time.perf_counter() - started
    finally:
        tracer.uninstall()
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for path in exports:
        try:
            tracer.merge(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            ctx.note(f"traced worker export missing: {exc}")
            run.failed += 1
    trials = float(run.expected_trials(0))
    frames = tracer.counts.get("sweep_backends.trial_frames", 0.0)
    entries = tracer.counts.get("sweep_backends.snapshot_entries_shipped", 0.0)
    extra.update(
        {
            "sweep_backends.trial_frames": frames,
            "sweep_backends.frames_per_trial": frames / trials,
            "sweep_backends.frame_bytes_sent": tracer.counts.get("sweep_backends.frame_bytes_sent", 0.0),
            "sweep_backends.snapshot_entries_shipped": entries,
            "sweep_backends.shipped_per_overlay": entries / max(len(overlays), 1),
            "sweep_backends.snapshot_bytes_shipped": tracer.counts.get(
                "sweep_backends.snapshot_bytes_shipped", 0.0
            ),
        }
    )
    return extra
