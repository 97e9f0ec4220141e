"""Shared plumbing: run context, clocks, memory, set-up timing, pins."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
# Seed whose smoke-size sweep output is always pinned: runs on a seed
# without a pinned full-size hash still prove byte-identity through it.
CANARY_SEED = 0
# Fresh-interpreter set-ups timed per run; the median is reported.
SETUP_REPEATS = 9


@dataclass
class Context:
    """One benchmark invocation."""

    root: Path  # checkout root (holds src/ and perfbench/)
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str  # "full" or "smoke"
    work: Path  # scratch directory inside the checkout

    @property
    def src(self) -> Path:
        return self.root / "src"

    def note(self, text: str) -> None:
        print(f"[{self.workload}] {text}", flush=True)


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is KiB on Linux


def child_env(ctx: Context) -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(ctx.src) if not existing else os.pathsep.join((str(ctx.src), existing))
    )
    return env


def fresh_interpreter_setup(ctx: Context, code: str) -> float:
    """Median wall time of a fresh interpreter importing the program and
    loading the generated input (``code`` runs after the imports)."""
    times = []
    for _ in range(SETUP_REPEATS if ctx.size == "full" else 2):
        started = time.perf_counter()
        # No timeout: with one, ``wait`` polls with sleeps of up to 50 ms
        # and the measured time snaps to that grid.
        subprocess.run([sys.executable, "-c", code], env=child_env(ctx), cwd=ctx.root, check=True)
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def repeat_for(
    ctx: Context, unit: Callable[[int], float], minimum: int = 1
) -> List[float]:
    """Run ``unit(rep)`` (returns its wall seconds) while the next one
    still fits in ``ctx.seconds``; at least ``minimum`` times."""
    spent: List[float] = []
    while True:
        spent.append(unit(len(spent)))
        if len(spent) < minimum:
            continue
        typical = sorted(spent)[len(spent) // 2]
        if sum(spent) + typical > ctx.seconds or ctx.size == "smoke":
            return spent


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    try:
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def pinned(workload: str, size: str, seed: int, rep: int = 0) -> Optional[str]:
    """The pinned sha256 of a sweep's JSON, keyed ``"<seed>/<rep>"``."""
    return load_pins().get(workload, {}).get(size, {}).get(f"{seed}/{rep}")


def check_pin(
    ctx: Context, digest: str, rep: int, canary: Callable[[], str]
) -> Tuple[bool, str]:
    """Compare a sweep JSON digest with the hash pinned for this input.

    Inputs without a pinned full-size hash fall back to the canary: the
    smoke-size sweep at :data:`CANARY_SEED`, whose hash is always
    pinned, must still come out byte-identical.
    """
    expected = pinned(ctx.workload, ctx.size, ctx.seed, rep)
    if expected is not None:
        if digest == expected:
            return True, f"sha256 matches the pin for seed {ctx.seed}/{rep}"
        return False, f"sha256 {digest[:12]} != pinned {expected[:12]}"
    canary_expected = pinned(ctx.workload, "smoke", CANARY_SEED)
    if canary_expected is None:
        return False, "no pinned hash for this input and no canary pin"
    got = canary()
    if got == canary_expected:
        return True, f"seed {ctx.seed}/{rep} unpinned; canary sha256 matches its pin"
    return False, f"canary sha256 {got[:12]} != pinned {canary_expected[:12]}"
