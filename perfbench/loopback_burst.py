"""Workload ``loopback-burst``: the one-shard loopback twin, one process.

Four :class:`~repro.net.node.NetNode` replicas share one
:class:`~repro.net.clock.ManualScheduler` behind a ``LatencyHub`` that
charges a fixed virtual delay per hop. Every hop runs the real wire
codec and the whole five-module stack, on a deterministic schedule, so
wall time is pure CPU cost and the work counts repeat exactly. The load
is a burst of seeded ``set`` commands, 16-byte values over 64 keys, from
four client identities at virtual time 0. Protocol knobs are the genesis
defaults the TCP workload runs (batch 8, window 4, checkpoint every 4).
"""

from __future__ import annotations

import random
import time
from typing import Any

import repro.shard.loopback as shard_loopback
from repro.service.checkpoint import service_digest
from repro.shard.loopback import (
    HOP_DELAY,
    ShardedLoopbackCluster,
    loopback_shard_genesis,
)

from common import percentile, sum_totals
from layers import registry_layers
from rounds import Round, Window

NAME = "loopback-burst"
BURST = 128
CLIENTS = 4
KEYS = 64
VALUE_BYTES = 16
#: Key material of the deployment; the workload seed drives only the load.
GENESIS_SEED = 0
#: Virtual-time budget and scheduler step of one round.
BUDGET_VS = 300.0
STEP_VS = 0.01
#: Each round is scaled by the host factor of the samples taken around
#: it: a round lasts about a second, and its speed followed those
#: samples (perfbench/NOTES.md, "Steadiness").
SCALE_EACH_ROUND = True


def burst(seed: int, size: int = BURST) -> list[tuple[str, str]]:
    """The seeded burst: ``size`` (key, value) sets."""
    rng = random.Random(seed)
    return [
        (f"k{rng.randrange(KEYS)}", rng.randbytes(VALUE_BYTES // 2).hex())
        for _ in range(size)
    ]


def inputs(seed: int, size: int = BURST):
    """(build, drive) of the burst drawn from ``seed``."""
    return build, drive_burst(burst(seed, size))


def build() -> ShardedLoopbackCluster:
    genesis = loopback_shard_genesis(
        1, 4, seed=GENESIS_SEED, clients=CLIENTS, key_space=KEYS
    )
    return ShardedLoopbackCluster(genesis, clients=CLIENTS, hop_delay=HOP_DELAY)


class _Stamped(set):
    """A client's completed-request set that notes when each id arrives."""

    def __init__(self, wall: list[float], virtual: list[float], clock: Any) -> None:
        super().__init__()
        self._wall = wall
        self._virtual = virtual
        self._clock = clock

    def add(self, item: Any) -> None:
        if item not in self:
            self._wall.append(time.perf_counter())
            self._virtual.append(self._clock.now)
        super().add(item)


class _FrameBytes:
    """Counts the bytes of every frame the latency hub encodes."""

    def __init__(self, encode: Any) -> None:
        self.encode = encode
        self.bytes = 0

    def __call__(self, *args: Any, **kwargs: Any) -> bytes:
        frame = self.encode(*args, **kwargs)
        self.bytes += len(frame)
        return frame


def drive_burst(ops: list[tuple[str, str]]):
    """The round function that submits ``ops`` to a built cluster."""

    def drive(cluster: ShardedLoopbackCluster, window: Window) -> Round:
        wall: list[float] = []
        virtual: list[float] = []
        clients = cluster.clients[0]
        for client in clients.values():
            client.completed = _Stamped(wall, virtual, cluster.scheduler)
        frames = _FrameBytes(shard_loopback.encode_frame)
        shard_loopback.encode_frame = frames
        try:
            with window:
                for index, (key, value) in enumerate(ops):
                    cluster.submit(key, value, client=index % CLIENTS)
                done = cluster.run_until_complete(budget=BUDGET_VS, step=STEP_VS)
            converged = cluster.settle(budget=BUDGET_VS, step=STEP_VS)
        finally:
            shard_loopback.encode_frame = frames.encode
        return _round(cluster, ops, done, converged, window, wall, virtual, frames.bytes)

    return drive


def _round(
    cluster: ShardedLoopbackCluster,
    ops: list[tuple[str, str]],
    done: bool,
    converged: bool,
    window: Window,
    wall: list[float],
    virtual: list[float],
    wire_bytes: int,
) -> Round:
    nodes = cluster.nodes[0]
    hub = cluster.hubs[0]
    completed = cluster.completed()
    written: dict[str, set[str]] = {}
    for key, value in ops:
        written.setdefault(key, set()).add(value)
    stores_ok = all(
        set(node.process.store.snapshot()) == set(written)
        and all(
            node.process.store.get(key) in values
            for key, values in written.items()
        )
        for node in nodes.values()
    )
    totals = sum_totals(node.metrics.totals_by_module() for node in nodes.values())
    resubmissions = sum(
        attempts - 1
        for client in cluster.clients[0].values()
        for attempts in client.attempts.values()
    )
    checks = {
        "all_sets_acknowledged": done and completed == len(ops),
        "digests_agree": len(set(cluster.shard_digests(0).values())) == 1,
        "committed_exactly_once": converged,
        "store_holds_written_values": stores_ok,
    }
    counts = {
        "frames": hub.frames_delivered + hub.frames_dropped + hub.frames_rejected,
        "wire_bytes": wire_bytes,
        "frames_rejected": hub.frames_rejected,
        "frames_dropped": hub.frames_dropped,
        "client_resubmissions": resubmissions,
        "completion_vs": sorted(virtual),
        "registry": {module: dict(c) for module, c in sorted(totals.items())},
    }
    digest = service_digest(
        nodes[0].process.store, nodes[0].process.executed
    )
    return Round(
        commits=completed,
        attempted=len(ops),
        failed=len(ops) - completed,
        busy_s=window.wall_s,
        cpu_s=window.cpu_s,
        set_latencies_ms=[1000 * (t - window.started) for t in wall],
        checks=checks,
        counts=counts,
        digest=digest,
    )


def commits_of(counts: dict[str, Any]) -> int:
    return len(counts["completion_vs"])


def layer_counts(counts: dict[str, Any]) -> dict[str, float]:
    """Per-layer counts of one round that do not come from spans."""
    totals = counts["registry"]
    commits = commits_of(counts)
    return {
        "net.wire.rejected": counts["frames_rejected"],
        "net.transport.frames_sent": counts["frames"] / commits,
        "net.transport.frames_dropped": counts["frames_dropped"],
        "net.client.resubmissions": counts["client_resubmissions"],
        "client_p99_vs": percentile(counts["completion_vs"], 0.99),
        "wire_bytes_per_commit": counts["wire_bytes"] / commits,
        **registry_layers(totals, commits),
    }
