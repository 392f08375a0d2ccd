"""Workload ``sim-faults``: the replicated service on the simulator, with faults.

Four replicas and sixteen open-loop Poisson clients run in one simulated
world (batch 1, window 1, a checkpoint every 4 slots). Links lose and
reorder 2 % of messages each under the reliable transport, and replica 2
is down for a virtual window in mid-run, then restarts into certified
state transfer. There is no wire codec, and each slot carries one
command, so per-slot consensus, certification, checkpointing and the
simulator's scheduler, network and retransmission do the work. The
simulator's seed is the workload seed: it draws the arrivals, the keys
and which messages the links lose or reorder.
"""

from __future__ import annotations

import time
from typing import Any

from repro.service import ServiceConfig, ServiceSystem, build_service_system
from repro.service.checkpoint import service_digest
from repro.sim.network import LinkModel

from common import percentile, ratio
from layers import registry_layers
from rounds import Round, Window

NAME = "sim-faults"
REPLICAS = 4
CLIENTS = 16
REQUESTS_PER_CLIENT = 16
#: Arrivals per client per virtual second: about half of what batch 1,
#: window 1 sustains, so latency reflects the protocol, not a queue.
RATE = 0.02
KEYS = 64
LOSS = 0.02
REORDER = 0.02
DOWN_PID = 2
#: The down window, as shares of the expected arrival span.
DOWN_AT = 0.4
UP_AT = 0.5
#: Virtual-time limit of a round, as a multiple of the arrival span.
RUN_LIMIT = 4
#: Rounds are scaled by the run's host factor, not each by its own: a
#: round here lasts over 2 s, and its speed did not follow the reference
#: samples taken around it, while the run's median sample did follow the
#: host's drift from run to run (perfbench/NOTES.md, "Steadiness").
SCALE_EACH_ROUND = False


def inputs(seed: int, requests_per_client: int = REQUESTS_PER_CLIENT):
    """(build, drive) of the deployment the simulator seed ``seed`` draws."""
    config = ServiceConfig(
        n_replicas=REPLICAS,
        n_clients=CLIENTS,
        mode="open",
        rate=RATE,
        requests_per_client=requests_per_client,
        batch_size=1,
        window=1,
        checkpoint_interval=4,
        key_space=KEYS,
        seed=seed,
    )
    span = requests_per_client / RATE
    recoveries = ((DOWN_PID, DOWN_AT * span, UP_AT * span),)

    def build() -> ServiceSystem:
        return build_service_system(
            config,
            recoveries=recoveries,
            link_model=LinkModel(loss=LOSS, reorder=REORDER),
            transport="reliable",
        )

    return build, drive


class _Stamped(dict):
    """A client's per-request time dict that also notes the wall clock."""

    def __init__(self) -> None:
        super().__init__()
        self.wall: dict[int, float] = {}

    def __setitem__(self, key: int, value: float) -> None:
        self.wall.setdefault(key, time.perf_counter())
        super().__setitem__(key, value)


def drive(system: ServiceSystem, window: Window) -> Round:
    for client in system.clients:
        client.sent_at = _Stamped()
        client.completed = _Stamped()
    span = system.config.requests_per_client / system.config.rate
    with window:
        result = system.run(max_time=RUN_LIMIT * span)
    world = system.world
    issued = sum(client.issued for client in system.clients)
    completed = system.completed_requests()
    digests = {
        pid: service_digest(replica.store, replica.executed)
        for pid, replica in enumerate(system.replicas)
    }
    # Quiescence is recorded, not gated: a replica whose lag-triggered
    # state transfer is overtaken by consensus re-requests state forever
    # (NOTES.md, "Known program defect"). The round then runs on to
    # RUN_LIMIT, and that traffic stays in the measured time.
    checks = {
        "all_clients_done": system.all_clients_done(),
        "checkpoints_agree": system.checkpoints_agree(),
        "digests_agree": len(set(digests.values())) == 1,
        "committed_exactly_once": all(
            replica.committed_commands == completed for replica in system.replicas
        ),
        "restarted_replica_transferred": bool(
            system.replicas[DOWN_PID].state_transfers_completed
        ),
    }
    catchup = catchup_vs(system)
    checks["restarted_replica_caught_up"] = catchup is not None
    transport = world.transport
    counts = {
        "quiescent": result.reason == "quiescent",
        "events": result.events_dispatched,
        "retransmissions": transport.retransmissions,
        "duplicates_suppressed": transport.duplicates_suppressed,
        "client_resubmissions": sum(c.resubmissions for c in system.clients),
        "latencies_vs": sorted(system.client_latencies()),
        "catchup_vs": catchup or 0.0,
        "registry": {
            module: dict(counters)
            for module, counters in sorted(world.metrics.totals_by_module().items())
        },
    }
    latencies = [
        1000 * (client.completed.wall[req] - client.sent_at.wall[req])
        for client in system.clients
        for req in client.completed
    ]
    return Round(
        commits=completed,
        attempted=issued,
        failed=issued - completed,
        busy_s=window.wall_s,
        cpu_s=window.cpu_s,
        set_latencies_ms=latencies,
        checks=checks,
        counts=counts,
        digest=digests[0],
    )


def catchup_vs(system: ServiceSystem) -> float | None:
    """Virtual time from the restart until the replica's applied state
    matches the most advanced other replica's, read from the trace."""
    frontier = {pid: 0 for pid in range(REPLICAS)}
    restarted_at = None
    for event in system.world.trace:
        pid = event.process
        if pid is None or pid >= REPLICAS:
            continue
        if event.kind == "service_restart" and pid == DOWN_PID:
            restarted_at = event.time
            frontier[pid] = 0
        elif event.kind == "commit":
            frontier[pid] = max(frontier[pid], event.detail["slot"] + 1)
        elif event.kind == "state_transfer_complete":
            frontier[pid] = max(frontier[pid], event.detail["applied"])
        else:
            continue
        if restarted_at is not None and frontier[DOWN_PID] >= max(
            count for other, count in frontier.items() if other != DOWN_PID
        ):
            return event.time - restarted_at
    return None


def commits_of(counts: dict[str, Any]) -> int:
    return len(counts["latencies_vs"])


def layer_counts(counts: dict[str, Any]) -> dict[str, float]:
    """Per-layer counts of one round that do not come from spans."""
    totals = counts["registry"]
    commits = commits_of(counts)
    data_sent = totals.get("transport", {}).get("data_sent", 0)
    return {
        "service.client_resubmissions": counts["client_resubmissions"],
        "client_p99_vs": percentile(counts["latencies_vs"], 0.99),
        "catchup_vs": counts["catchup_vs"],
        "sim.events": counts["events"] / commits,
        "sim.messages": totals.get("network", {}).get("messages_sent", 0) / commits,
        "sim.retransmit_ratio": ratio(counts["retransmissions"], data_sent),
        "sim.duplicates_suppressed": counts["duplicates_suppressed"],
        **registry_layers(totals, commits),
    }
