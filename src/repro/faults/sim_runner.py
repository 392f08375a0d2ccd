"""Fidelity 1: execute a fault plan in the pure simulation.

The plan's fidelity-neutral timeline (plan seconds) is scaled by
:data:`SIM_TIME_SCALE` onto the service world's virtual clock, whose
native timeouts (``request_timeout=40``, ``muteness_timeout=10``) were
tuned for the campaign presets. Link faults run through the shared
:class:`~repro.faults.injector.LinkFaultInjector`, installed on the
simulator's clock as the network's link model; kills/rejoins reuse the
service runtime's recovery scheduling (down = volatile state lost, up =
certified state transfer); collusion installs transformed-attack
engines. The run then settles past the plan window until the workload
drains and the live replicas agree, or a generous virtual-time budget
expires — the oracles, not the budget, decide the verdict.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.byzantine import transformed_attack
from repro.faults.injector import LinkFaultInjector
from repro.faults.oracle import FidelityObservation, live_correct
from repro.faults.plan import FIDELITY_SIM, FaultPlan
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_MUTENESS,
    MODULE_SERVICE,
    MODULE_SIGNATURE,
)
from repro.replication.log import EngineFactory
from repro.service.checkpoint import service_digest
from repro.service.config import ServiceConfig
from repro.service.runtime import ServiceSystem, build_service_system
from repro.sim.network import Delivery

if TYPE_CHECKING:
    from repro.zoo.runtime import ZooInjections

#: Plan seconds -> simulated virtual time. The service stack's sim
#: timeouts are an order of magnitude above the loopback/net genesis
#: knobs, so one plan second stretches accordingly.
SIM_TIME_SCALE = 25.0

#: Extra virtual time (in plan seconds, pre-scale) the run may settle
#: past the plan window before the oracles judge whatever state exists.
SETTLE_BUDGET = 40.0


def _sim_config(plan: FaultPlan) -> ServiceConfig:
    # Lazy zoo import: repro.zoo depends on repro.faults.plan, so the
    # faults package never imports repro.zoo at module scope.
    from repro.zoo.runtime import zoo_service_overrides

    duration = plan.duration * SIM_TIME_SCALE
    # Open-loop workload spread over the first ~70% of the window, so
    # post-rejoin replicas still see fresh traffic to catch up against.
    rate = plan.requests / (0.7 * duration)
    config = ServiceConfig(
        n_replicas=plan.n_replicas,
        n_clients=1,
        mode="open",
        rate=rate,
        requests_per_client=plan.requests,
        batch_size=2,
        batch_delay=1.0,
        window=2,
        checkpoint_interval=1,
        request_timeout=40.0,
        stall_probe=2.0 * SIM_TIME_SCALE,
        seed=plan.seed,
        key_space=16,
    )
    # Zoo plans arm extra service machinery (self-heal, adaptive ◇M,
    # wider pipelining); empty for v1 plans, so their configs and hence
    # their runs are untouched.
    overrides = zoo_service_overrides(plan)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _byzantine(plan: FaultPlan) -> dict[int, EngineFactory]:
    engines: dict[int, EngineFactory] = {}
    for pid, name in plan.collusion:
        engines.update(transformed_attack(pid, name))
    return engines


class _SimClockInjector:
    """The plan's injector as a network link model on the simulator's clock."""

    def __init__(self, injector: LinkFaultInjector) -> None:
        self._injector = injector

    def deliveries(
        self, now: float, src: int, dst: int, payload: Any
    ) -> list[Delivery] | None:
        copies = self._injector.plan_deliveries(
            now / SIM_TIME_SCALE, src, dst, payload
        )
        if copies is None:
            return None
        return [(copy, delay * SIM_TIME_SCALE) for copy, delay in copies]

    def held_until(self, now: float, src: int, dst: int) -> float | None:
        heal = self._injector.held_until(now / SIM_TIME_SCALE, src, dst)
        return None if heal is None else heal * SIM_TIME_SCALE


def build_sim_system(
    plan: FaultPlan,
) -> tuple[ServiceSystem, LinkFaultInjector, "ZooInjections"]:
    """The (not yet run) fidelity-1 world for ``plan``."""
    from repro.zoo.runtime import ZooInjections, install_zoo_injections

    plan.validate()
    injector = LinkFaultInjector(plan)
    recoveries = tuple(
        (pid, at * SIM_TIME_SCALE, rejoin_at * SIM_TIME_SCALE)
        for pid, at, rejoin_at in plan.kills
        if rejoin_at is not None
    )
    system = build_service_system(
        _sim_config(plan),
        byzantine=_byzantine(plan),
        recoveries=recoveries,
        link_model=_SimClockInjector(injector),
    )
    # Permanent kills have no recovery leg: take the replica down and
    # leave it down (silent, volatile state lost — the crash model).
    for pid, at, rejoin_at in plan.kills:
        if rejoin_at is None:
            replica = system.replicas[pid]
            system.world.scheduler.schedule_at(
                at * SIM_TIME_SCALE, "service-down", replica.go_down
            )
    injections = ZooInjections()
    world = system.world
    # Families (b) and (d): seeded live-state scribbles and sticky
    # storage faults, booked on the world's scheduler at the scaled
    # clause instants (shared wiring across all three runners).
    install_zoo_injections(
        plan,
        lambda at, label, thunk: world.scheduler.schedule_at(
            at * SIM_TIME_SCALE, label, thunk
        ),
        lambda pid: system.replicas[pid],
        injections,
        world.metrics,
    )
    return system, injector, injections


def run_sim_plan(plan: FaultPlan) -> FidelityObservation:
    """Execute ``plan`` at fidelity 1 and reduce it for the judge."""
    system, injector, injections = build_sim_system(plan)
    world = system.world
    live = live_correct(plan)
    floor = plan.progress_floor

    def settled() -> bool:
        if not system.all_clients_done():
            return False
        committed = {
            pid: system.replicas[pid].committed_commands for pid in live
        }
        if any(count < floor for count in committed.values()):
            return False
        digests = {
            service_digest(
                system.replicas[pid].store, system.replicas[pid].executed
            )
            for pid in live
        }
        return len(digests) == 1

    horizon = (plan.duration + SETTLE_BUDGET) * SIM_TIME_SCALE
    deadline = plan.duration * SIM_TIME_SCALE
    while True:
        result = world.run(max_events=5_000_000, max_time=deadline)
        if deadline >= horizon or result.reason == "quiescent":
            break
        if deadline >= plan.duration * SIM_TIME_SCALE and settled():
            break
        deadline = min(horizon, deadline + 5.0 * SIM_TIME_SCALE)

    correct = frozenset(range(plan.n_replicas)) - plan.faulty_pids
    declared = tuple(
        (event.process, event.detail["target"], event.detail["reason"])
        for event in world.trace.of_kind("declare_faulty")
        if event.process in correct
    )
    detected = sum(
        1
        for _observer, target, _reason in declared
        if target in plan.flip_pids
    )
    if detected:
        world.metrics.inc(MODULE_FAULTS, "arb_faults_detected", detected)
    zoo: dict[str, Any] = {}
    if plan.has_zoo:
        metrics = world.metrics
        if plan.suppressions:
            zoo["suppressed"] = injector.suppressed
        if plan.corruptions:
            zoo["corruptions_injected"] = injections.corruptions
            zoo["checkpoint_mismatches"] = int(
                metrics.counter_total(MODULE_SERVICE, "checkpoint_mismatches")
            )
            zoo["state_heals"] = int(
                metrics.counter_total(MODULE_SERVICE, "state_heals")
            )
        if plan.timing:
            zoo["timing_delays"] = injector.timing_delays
            zoo["wrongful_suspicions"] = int(
                sum(
                    metrics.counter(
                        MODULE_MUTENESS, "wrongful_suspicions", pid=pid
                    )
                    for pid in sorted(correct)
                )
            )
        if plan.storage_flips:
            zoo["storage_flips_injected"] = injections.storage_flips_injected
            zoo["storage_rejections"] = int(
                sum(system.replicas[pid].suffix_rejections for pid in live)
                + metrics.counter_total(
                    MODULE_SERVICE, "state_responses_rejected"
                )
            )
    return FidelityObservation(
        fidelity=FIDELITY_SIM,
        completed=system.completed_requests(),
        committed={
            pid: system.replicas[pid].committed_commands for pid in live
        },
        digests={
            pid: service_digest(
                system.replicas[pid].store, system.replicas[pid].executed
            )
            for pid in live
        },
        transfers={
            pid: len(system.replicas[pid].state_transfers_completed)
            for pid in sorted(plan.rejoining_pids)
        },
        declared=declared,
        flips_injected=injector.flips_injected,
        signature_rejections=int(
            world.metrics.counter_total(MODULE_SIGNATURE, "messages_rejected")
        ),
        zoo=zoo,
        extras={
            "end_time": world.now,
            "drops": dict(injector.drops),
            "partition_delays": injector.partition_delays,
            "duplicates": injector.duplicates,
            "reorders": injector.reorders,
        },
    )
