"""Unit tests: replicated-log internals (routing, timers, domains)."""

from __future__ import annotations

import pytest

from repro.core.specs import SystemParameters
from repro.replication import (
    Command,
    NOOP,
    ReplicatedLogProcess,
    SlotEnvelope,
    build_replicated_system,
)
from repro.sim.network import FixedDelay
from repro.sim.world import World


def make_system(slots=2, n=4, seed=0, commands_per=None):
    commands = [
        [
            Command("set", f"k{pid}-{i}", i)
            for i in range(commands_per if commands_per is not None else slots)
        ]
        for pid in range(n)
    ]
    return build_replicated_system(
        commands, target_slots=slots, seed=seed, delay_model=FixedDelay(0.4)
    )


class TestRouting:
    def test_non_envelope_traffic_ignored(self):
        system = make_system()
        system.world.start()
        replica = system.replicas[0]
        replica.on_message(1, "stray-payload")
        assert replica.log == []

    def test_out_of_range_slots_ignored(self):
        system = make_system(slots=2)
        system.world.start()
        replica = system.replicas[0]
        replica.on_message(1, SlotEnvelope(slot=99, inner="whatever"))
        replica.on_message(1, SlotEnvelope(slot=-1, inner="whatever"))
        assert 99 not in replica.engines
        assert -1 not in replica.engines

    def test_engines_created_lazily_per_slot(self):
        system = make_system(slots=3)
        system.world.start()
        system.world.scheduler.run(max_events=len(system.replicas))  # on_start
        replica = system.replicas[0]
        assert set(replica.engines) == {0}
        system.run()
        assert set(replica.engines) == {0, 1, 2}

    def test_no_engine_beyond_target(self):
        system = make_system(slots=2)
        system.run()
        for replica in system.replicas:
            assert max(replica.engines) == 1


class TestTimers:
    def test_slot_timers_reach_their_engine(self):
        # The suspicion-poll timer of a slot engine must fire with its
        # unprefixed name inside that engine (via the timer proxy).
        system = make_system(slots=1)
        system.run()
        # If timers had been misrouted the engines would never evaluate
        # their suspicion guards; a completed run is the observable proof,
        # plus: engines were bound to slot envs, not the real one.
        replica = system.replicas[0]
        engine = replica.engines[0]
        assert engine.decided
        assert engine.env is not replica.env


class TestCommandQueue:
    def test_noop_proposed_when_queue_empty(self):
        system = make_system(slots=3, commands_per=1)
        system.run()
        replica = system.replicas[0]
        assert replica._proposed[1] == NOOP or replica._proposed[2] == NOOP

    def test_noops_filtered_from_command_log(self):
        system = make_system(slots=3, commands_per=1)
        system.run()
        for replica in system.replicas:
            assert NOOP not in replica.command_log()

    def test_finished_flag(self):
        system = make_system(slots=2)
        assert not system.replicas[0].finished
        system.run()
        assert all(r.finished for r in system.replicas)

    def test_log_entries_tagged_with_slot_and_proposer(self):
        system = make_system(slots=1)
        system.run()
        for slot, proposer, command in system.replicas[0].log:
            assert slot == 0
            assert 0 <= proposer < 4
            assert isinstance(command, Command)
            assert command.key.startswith(f"k{proposer}-")


class TestDeliveryRegressions:
    def test_duplicate_envelope_delivery_is_idempotent(self):
        # Re-delivering traffic to a decided slot must not re-append.
        system = make_system(slots=2)
        system.run()
        replica = system.replicas[0]
        log_before = list(replica.log)
        applied_before = replica.applied_slots
        # A decided engine ignores duplicates; the harvest path must too.
        engine = replica.engines[0]
        assert engine.decided
        replica.on_message(
            1, SlotEnvelope(slot=0, inner="late-duplicate-garbage")
        )
        replica._harvest(0)
        assert replica.log == log_before
        assert replica.applied_slots == applied_before

    def test_duplicating_links_do_not_break_convergence(self):
        # The paper's channels never duplicate: on the raw wire a copy
        # reads as its sender sending twice and the non-muteness monitors
        # convict it, after which most seeds stall. A raw duplicating wire
        # is therefore refused instead of run.
        from repro.errors import ConfigurationError
        from repro.sim.network import LinkModel

        with pytest.raises(ConfigurationError, match="duplicating wire"):
            build_replicated_system(
                self._duplicate_commands(),
                target_slots=2,
                seed=13,
                delay_model=FixedDelay(0.4),
                link_model=LinkModel(duplication=0.3),
            )

    def test_duplicating_links_converge_behind_reliable_transport(self):
        # The reliable transport suppresses wire duplicates, and behind it
        # the log converges.
        from repro.sim.network import LinkModel

        system = build_replicated_system(
            self._duplicate_commands(),
            target_slots=2,
            seed=13,
            delay_model=FixedDelay(0.4),
            link_model=LinkModel(duplication=0.3),
            transport="reliable",
        )
        system.run(max_time=2_000)
        assert system.converged()
        assert system.world.network.messages_duplicated > 0
        assert system.world.transport.duplicates_suppressed > 0

    @staticmethod
    def _duplicate_commands() -> list[list[Command]]:
        return [
            [Command("set", f"k{pid}-{i}", i) for i in range(2)]
            for pid in range(4)
        ]

    def test_out_of_order_decision_applies_in_slot_order(self):
        # Slot 2 deciding before slots 0/1 must wait in the buffer; the
        # log is appended strictly in slot order regardless.
        system = make_system(slots=3)
        system.world.start()
        replica = system.replicas[0]
        vector2 = (Command("set", "late", 2),) + ("<null>",) * 3
        replica._decided.add(2)
        replica._pending_apply[2] = vector2
        replica._apply_ready()
        assert replica.log == []  # buffered: slots 0 and 1 still open
        assert replica.applied_slots == 0
        for slot in (1, 0):  # decide the rest, still out of order
            replica._decided.add(slot)
            replica._pending_apply[slot] = (
                Command("set", f"s{slot}", slot),
            ) + ("<null>",) * 3
        replica._apply_ready()
        assert replica.applied_slots == 3
        assert [entry[0] for entry in replica.log] == [0, 1, 2]
        assert [entry[2].key for entry in replica.log] == ["s0", "s1", "late"]


class TestSystemSurface:
    def test_correct_pids_excludes_byzantine(self):
        from repro.byzantine.transformed_attacks import TCorruptVectorAttacker

        def corrupt(pid, proposal, params, authority, detector, config):
            return TCorruptVectorAttacker(
                proposal=proposal, params=params, authority=authority,
                detector=detector, config=config,
            )

        system = build_replicated_system(
            [[Command("set", str(pid), pid)] for pid in range(4)],
            target_slots=1,
            byzantine={2: corrupt},
        )
        assert system.correct_pids == frozenset({0, 1, 3})

    def test_converged_false_before_run(self):
        system = make_system()
        assert not system.converged()

    def test_deterministic_replay(self):
        def run(seed):
            system = make_system(seed=seed)
            system.run()
            return [tuple(map(repr, log)) for log in system.correct_logs()]

        assert run(11) == run(11)
