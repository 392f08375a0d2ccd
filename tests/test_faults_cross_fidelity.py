"""Tests: the cross-fidelity judge and the deterministic report contract.

The headline artifact of ``repro.faults`` (docs/FAULTS.md) is the
:class:`CrossFidelityReport`: one verdict per (plan, fidelity), an
``agree`` flag per plan, and byte-identical canonical JSON across runs
at the deterministic fidelities. These tests pin the judge's oracle
catalogue on hand-built observations, then run the real smoke matrix at
fidelities 1–2 twice and ``assert`` the bytes match. The subprocess
fidelity is exercised separately (``tests/test_faults_net.py`` and
``make faults-smoke``).
"""

from __future__ import annotations

import json

from repro.faults import (
    FAULT_PRESETS,
    FaultPlan,
    FidelityObservation,
    judge,
    live_correct,
    run_cross_fidelity,
)


def _healthy(plan: FaultPlan, fidelity: str = "sim") -> FidelityObservation:
    """An observation every oracle is happy with."""
    live = live_correct(plan)
    return FidelityObservation(
        fidelity=fidelity,
        completed=plan.requests,
        committed={pid: plan.requests for pid in live},
        digests={pid: "d" * 16 for pid in live},
        transfers={pid: 1 for pid in plan.rejoining_pids},
        flips_injected=len(plan.flips),
        signature_rejections=len(plan.flips),
    )


class TestLiveCorrect:
    def test_muted_and_dead_replicas_are_excused(self):
        plan = FaultPlan(
            name="x",
            mutes=((1, 2.0),),
            duration=12.0,
        )
        assert live_correct(plan) == frozenset({0, 2, 3})

    def test_rejoining_replicas_are_still_accountable(self):
        plan = FaultPlan(name="x", duration=12.0, kills=((2, 3.0, 6.0),))
        assert live_correct(plan) == frozenset({0, 1, 2, 3})
        gone = FaultPlan(name="x", duration=12.0, kills=((2, 3.0, None),))
        assert live_correct(gone) == frozenset({0, 1, 3})


class TestJudge:
    def test_healthy_run_passes(self):
        plan = FaultPlan(name="ok", requests=8)
        verdict, violations = judge(plan, _healthy(plan))
        assert (verdict, violations) == ("pass", [])

    def test_incomplete_workload_fails(self):
        plan = FaultPlan(name="slow", requests=8)
        observation = _healthy(plan)
        observation.completed = 5
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("progress" in v for v in violations)

    def test_divergent_digests_fail(self):
        plan = FaultPlan(name="split", requests=8)
        observation = _healthy(plan)
        observation.digests[3] = "e" * 16
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("diverge" in v for v in violations)

    def test_missing_transfer_fails_recovery(self):
        plan = FaultPlan(
            name="rejoin", requests=8, duration=12.0, kills=((2, 3.0, 6.0),)
        )
        observation = _healthy(plan)
        observation.transfers = {}
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("recovery" in v for v in violations)

    def test_undetected_flip_fails(self):
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.signature_rejections = 0
        observation.declared = ()
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("detection" in v for v in violations)

    def test_flip_detected_by_declaration_passes(self):
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.signature_rejections = 0
        observation.declared = (
            (0, 1, "signature module: invalid signature"),
        )
        assert judge(plan, observation) == ("pass", [])

    def test_flip_misattributed_to_the_automaton_fails(self):
        # The innocent flipped sender must never be convicted by the
        # behaviour automaton (Figure 4) on a noise-free plan.
        plan = FaultPlan(name="flip", requests=8, flips=((1, 1.0, 2),))
        observation = _healthy(plan)
        observation.declared = (
            (0, 1, "unexpected CURRENT in round 2"),
        )
        verdict, violations = judge(plan, observation)
        assert verdict == "fail"
        assert any("attribution" in v for v in violations)

    def test_misattribution_oracle_waived_under_link_noise(self):
        plan = FaultPlan(
            name="flip-noise", requests=8, flips=((1, 1.0, 2),), loss=0.05
        )
        observation = _healthy(plan)
        observation.declared = (
            (0, 1, "unexpected CURRENT in round 2"),
        )
        assert judge(plan, observation) == ("pass", [])

    def test_vulnerable_expectation_downgrades_fail(self):
        plan = FaultPlan(name="known", requests=8, expect="vulnerable")
        observation = _healthy(plan)
        observation.completed = 0
        verdict, _violations = judge(plan, observation)
        assert verdict == "expected-vulnerability"


class TestCrossFidelityReport:
    def test_smoke_matrix_agrees_and_is_byte_identical(self):
        plans = FAULT_PRESETS["smoke"]
        first = run_cross_fidelity(plans, ("sim", "loopback"))
        assert first.ok
        assert first.all_agree
        for result in first.results:
            assert result.verdicts == {"sim": "pass", "loopback": "pass"}
        second = run_cross_fidelity(plans, ("sim", "loopback"))
        assert first.dumps() == second.dumps()

    def test_report_record_shape(self):
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        report = run_cross_fidelity((plan,), ("sim",))
        record = json.loads(report.dumps())
        assert record["schema"] == "repro.faults/v1"
        assert record["kind"] == "cross-fidelity-report"
        (entry,) = record["plans"]
        assert entry["plan_id"] == plan.plan_id
        assert entry["agree"] is True
        assert "observation" in entry["fidelities"]["sim"]

    def test_net_observation_detail_is_excluded_from_the_record(self):
        # Fidelity 3 is verdict-stable only: its raw numbers vary run to
        # run, so the canonical record must not contain them.
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        result_plan = run_cross_fidelity((plan,), ("sim",)).results[0]
        verdict, violations, observation = result_plan.outcomes["sim"]
        result_plan.outcomes["net"] = (verdict, violations, observation)
        record = result_plan.to_record()
        assert "observation" not in record["fidelities"]["net"]
        assert record["fidelities"]["net"]["verdict"] == verdict


class TestRehunt:
    """The flake-hunting mode: disagreeing plans re-run k times."""

    @staticmethod
    def _fake_run_plan(flaky_after: int):
        """A run_plan double: sim is always healthy; loopback reports a
        wrong digest for the first ``flaky_after`` calls, then heals —
        the archetypal flaky fidelity."""
        calls = {"loopback": 0}

        def fake(plan, fidelity, *, workdir=None, timeout=180.0):
            observation = _healthy(plan, fidelity)
            if fidelity == "loopback":
                calls["loopback"] += 1
                if calls["loopback"] <= flaky_after:
                    observation.digests = dict(observation.digests)
                    observation.digests[0] = "deadbeef" * 2
            return observation

        return fake

    def test_disagreeing_plan_gets_a_verdict_distribution(self, monkeypatch):
        import repro.faults.report as report_module

        monkeypatch.setattr(
            report_module, "run_plan", self._fake_run_plan(flaky_after=1)
        )
        plan = FaultPlan(name="flaky", seed=3, requests=6, duration=6.0)
        report = report_module.run_cross_fidelity(
            (plan,), ("sim", "loopback"), rehunt=3
        )
        (result,) = report.results
        assert not result.agree
        assert result.rehunt is not None
        # Original run + 3 re-runs per fidelity.
        assert result.rehunt["sim"] == {"pass": 4}
        assert result.rehunt["loopback"] == {"fail": 1, "pass": 3}
        record = result.to_record()
        assert record["rehunt"]["loopback"] == {"fail": 1, "pass": 3}

    def test_agreeing_plans_are_never_rerun_and_stay_byte_identical(self):
        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        plain = run_cross_fidelity((plan,), ("sim", "loopback"))
        hunted = run_cross_fidelity((plan,), ("sim", "loopback"), rehunt=5)
        assert hunted.results[0].rehunt is None
        assert "rehunt" not in hunted.results[0].to_record()
        assert plain.dumps() == hunted.dumps()

    def test_negative_rehunt_is_a_configuration_error(self):
        import pytest

        from repro.errors import ConfigurationError

        plan = FaultPlan(name="tiny", seed=2, requests=6, duration=6.0)
        with pytest.raises(ConfigurationError):
            run_cross_fidelity((plan,), ("sim",), rehunt=-1)


class TestSimDeliveryMetrics:
    def test_link_noise_plan_records_every_delivery_latency(self):
        # A fault plan's link faults go through the network's one fault
        # path, so every message that survives the wire records its
        # scheduled delivery latency, replica links included.
        from repro.faults.sim_runner import SIM_TIME_SCALE, build_sim_system
        from repro.observability.registry import MODULE_NETWORK

        plan = FaultPlan(
            name="noise", seed=3, requests=6, loss=0.1, duplication=0.1
        )
        system, _, _ = build_sim_system(plan)
        world = system.world
        world.run(max_time=plan.duration * SIM_TIME_SCALE)
        network = world.network
        observed = sum(
            summary[0]  # a histogram is [count, sum, min, max]
            for (module, name, _, _), summary in world.metrics.iter_histograms()
            if (module, name) == (MODULE_NETWORK, "delivery_latency")
        )
        assert network.messages_dropped > 0
        assert observed == network.messages_sent - network.messages_dropped
        in_flight = dict(world.metrics.iter_gauges())
        assert in_flight[(MODULE_NETWORK, "in_flight_max", None, None)] > 0
