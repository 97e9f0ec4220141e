"""Workload inputs, generated from the workload seed.

Every workload's shape (grid axes, population, fleet size, rates) is
fixed, so cost per run is comparable across seeds; the seed picks the
random parts. The program receives only the files written here.

* ``sweep_cold``: each repetition of a run gets its own root seed,
  derived from the workload seed, so one run averages several
  independent warm-ups.
* ``sweep_store_socket``: the overlays are the workload's data set,
  built once in set-up from a fixed root seed; the seed draws the two
  kill fractions, which gives the catastrophic trials new RNG
  universes. Pull recovery over churned overlays is heavy-tailed per
  overlay (a node whose live links all lead to other missing nodes
  polls for the full 100 rounds), so seed-drawn overlays would make
  run time a lottery of the overlay rather than a measure of the code.
* ``fleet_live``: the seed picks node seeds, the fault seed, the
  churned node and the origin rotation.
"""

from __future__ import annotations

import json
import random
import socket
from pathlib import Path
from typing import Any, Dict, List

# Sizes: "full" is what the benchmark measures, "smoke" is a tiny
# version of the same workload for the benchmark's own check.
SWEEP_COLD = {
    "full": {"nodes": 50, "replicates": 1, "messages": 10, "warmup": 100},
    "smoke": {"nodes": 40, "replicates": 1, "messages": 3, "warmup": 12},
}
SWEEP_STORE = {
    "full": {"nodes": 200, "messages": 10, "warmup": 50, "fanouts": [1, 2, 4, 8]},
    "smoke": {"nodes": 40, "messages": 3, "warmup": 10, "fanouts": [1, 3]},
}
FLEET = {
    "full": {"nodes": 16, "rate": 16.0, "warm": 3.0, "tail": 1.0, "settle": 1.5},
    "smoke": {"nodes": 6, "rate": 8.0, "warm": 2.0, "tail": 0.5, "settle": 1.0},
}
# Root seed of the store workload's overlays (its data set).
STORE_DATASET_SEED = 2007
# Fleets shorter than this cannot fit warm-up, a kill/restart window
# and recovery.
MIN_FLEET_SECONDS = 5.0


def sweep_cold_seed(seed: int, rep: int) -> int:
    """Root seed of repetition ``rep`` of a ``sweep_cold`` run."""
    return seed * 100 + rep


def sweep_cold_spec(seed: int, size: str, rep: int = 0) -> Dict[str, Any]:
    """RandCast/RingCast x {static, churn 0.1}, fanout 3, full warm-up."""
    shape = SWEEP_COLD[size]
    return {
        "format": 1,
        "scenarios": [
            "static",
            {"name": "churn", "params": {"churn_rate": [0.1]}},
        ],
        "protocols": ["randcast", "ringcast"],
        "num_nodes": [shape["nodes"]],
        "fanouts": [3],
        "replicates": shape["replicates"],
        "num_messages": shape["messages"],
        "seed": sweep_cold_seed(seed, rep),
        "config": {"warmup_cycles": shape["warmup"]},
    }


def sweep_store_spec(seed: int, size: str) -> Dict[str, Any]:
    """Dissemination- and pull-heavy grid over store-warm overlays."""
    shape = SWEEP_STORE[size]
    rng = random.Random(seed)
    kills = [round(rng.uniform(0.05, 0.2), 3), round(rng.uniform(0.25, 0.4), 3)]
    return {
        "format": 1,
        "scenarios": [
            "static",
            {"name": "catastrophic", "params": {"kill_fraction": kills}},
            {"name": "multi_message", "params": {"concurrent_messages": [8]}},
            {
                "name": "pull_churn",
                "params": {"churn_rate": [0.1], "pulls_per_round": [1, 2]},
            },
        ],
        "protocols": ["randcast", "ringcast"],
        "num_nodes": [shape["nodes"]],
        "fanouts": list(shape["fanouts"]),
        "replicates": 1,
        "num_messages": shape["messages"],
        "seed": STORE_DATASET_SEED,
        "config": {"warmup_cycles": shape["warmup"]},
    }


def _free_udp_range(start: int, count: int) -> bool:
    sockets: List[socket.socket] = []
    try:
        for port in range(start, start + count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sockets.append(sock)
            sock.bind(("127.0.0.1", port))
        return True
    except OSError:
        return False
    finally:
        for sock in sockets:
            sock.close()


def fleet_base_port(seed: int, nodes: int) -> int:
    """A seed-derived loopback port range, moved on only if taken."""
    slot = seed % 900
    for attempt in range(64):
        base = 20000 + ((slot + attempt * 37) % 900) * 32
        if _free_udp_range(base, nodes):
            return base
    raise RuntimeError("no free loopback UDP port range for the fleet")


def fleet_scenario(seed: int, size: str, seconds: float) -> Dict[str, Any]:
    """Open-loop publishes at a fixed rate, one node killed and restarted.

    The restarted node never originates a publish: a restarted node
    reuses its message ids (same node id, sequence restarted at 1), so
    the fleet aborts with "already published" or its publishes are
    dropped as duplicates. See perfbench/README.md.
    """
    shape = FLEET[size]
    duration = max(float(seconds), MIN_FLEET_SECONDS)
    rng = random.Random(seed)
    nodes = shape["nodes"]
    churned = rng.randrange(1, nodes)  # node 0 is everyone's bootstrap
    kill_at = round(duration * 0.4, 3)
    restart_at = round(duration * 0.55, 3)
    first = shape["warm"]
    last = duration - shape["tail"]
    publishes = []
    index = 0
    origin = rng.randrange(nodes)
    at = first
    while at <= last:
        while origin == churned and at >= kill_at - 0.05:
            origin = (origin + 1) % nodes
        publishes.append(
            {"at": round(at, 4), "node": origin, "payload": f"p{index}"}
        )
        index += 1
        origin = (origin + 1) % nodes
        at = first + index / shape["rate"]
    return {
        "nodes": nodes,
        "seed": seed,
        "duration": duration,
        "base_port": fleet_base_port(seed, nodes),
        "node": {
            "gossip_period": 0.25,
            "ping_period": 1.0,
            "ping_timeout": 0.5,
            "ping_retries": 2,
            "pull_period": 0.25,
        },
        "faults": {"loss": 0.05, "latency_ms": [0, 2]},
        "fault_seed": rng.randrange(1, 2**31),
        "churn": [
            {"at": kill_at, "action": "kill", "node": churned},
            {"at": restart_at, "action": "restart", "node": churned},
        ],
        "publishes": publishes,
    }


def write_json(path: Path, payload: Dict[str, Any]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
