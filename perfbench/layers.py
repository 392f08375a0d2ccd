"""The per-layer metrics: their names, units, and how each is computed.

A traced run reports every metric below on every workload; a layer the
workload does not exercise reports 0. "Per commit" divides by the
commands committed in the traced window. A metric marked *total* is a
count over one pass of the workload: one round on the in-process
workloads, the traced phases on ``tcp-mixed``.
"""

from __future__ import annotations

from typing import Any

from common import ratio
from tracing import (
    CANONICAL,
    CERTIFICATE,
    ENCODE_FRAME,
    MAC,
    REGISTRY_INC,
    calls_of,
    self_times_ms,
)

#: (name, unit, better), in report order. Self times are wall-clock ms
#: per commit.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("net.wire.encode_self_ms", "ms", "lower"),
    ("net.wire.decode_self_ms", "ms", "lower"),
    ("net.wire.frames", "count", "lower"),
    ("net.wire.rejected", "count", "lower"),
    ("wire_bytes_per_commit", "B", "lower"),
    ("net.transport.drain_self_ms", "ms", "lower"),
    ("net.transport.send_self_ms", "ms", "lower"),
    ("net.transport.frames_sent", "count", "lower"),
    ("net.transport.frames_dropped", "count", "lower"),
    ("net.transport.reconnects", "count", "lower"),
    ("net.client.resubmissions", "count", "lower"),
    ("net.client.quorum_wait_ms_p50", "ms", "lower"),
    ("gen.lag_ms_p99", "ms", "lower"),
    ("set_p99_ms", "ms", "lower"),
    ("get_p50_ms", "ms", "lower"),
    ("get_p99_ms", "ms", "lower"),
    ("within_limit_ratio", "ratio", "higher"),
    ("crypto.canonical_calls", "count", "lower"),
    ("crypto.canonical_self_ms", "ms", "lower"),
    ("crypto.canonical_unique_ratio", "ratio", "higher"),
    ("crypto.signature_self_ms", "ms", "lower"),
    ("crypto.mac_count", "count", "lower"),
    ("crypto.mac_self_ms", "ms", "lower"),
    ("crypto.sig_cache_hit_ratio", "ratio", "higher"),
    ("core.certificates_built", "count", "lower"),
    ("core.certificate_self_ms", "ms", "lower"),
    ("core.cert_entries_mean", "count", "lower"),
    ("consensus.engine_self_ms", "ms", "lower"),
    ("consensus.monitor_admit_self_ms", "ms", "lower"),
    ("consensus.predicate_self_ms", "ms", "lower"),
    ("consensus.pf_cache_hit_ratio", "ratio", "higher"),
    ("consensus.messages_rejected", "count", "lower"),
    ("consensus.rounds_per_slot", "count", "lower"),
    ("detectors.self_ms", "ms", "lower"),
    ("detectors.suspicions", "count", "lower"),
    ("detectors.wrongful_ratio", "ratio", "lower"),
    ("detectors.timers_set", "count", "lower"),
    ("service.deliver_self_ms", "ms", "lower"),
    ("service.batch_occupancy", "count", "higher"),
    ("service.checkpoints", "count", "lower"),
    ("service.transfer_success_ratio", "ratio", "higher"),
    ("service.transfer_bytes", "B", "lower"),
    ("service.suffix_entries_verified", "count", "lower"),
    ("service.client_resubmissions", "count", "lower"),
    ("client_p99_vs", "vs", "lower"),
    ("catchup_vs", "vs", "lower"),
    ("replication.apply_self_ms", "ms", "lower"),
    ("replication.digest_self_ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.dispatch_self_ms", "ms", "lower"),
    ("sim.send_self_ms", "ms", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.retransmit_ratio", "ratio", "lower"),
    ("sim.duplicates_suppressed", "count", "lower"),
    ("observability.inc_calls", "count", "lower"),
    ("observability.self_ms", "ms", "lower"),
    ("other.self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("failed_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _better in PER_LAYER}


def span_times(
    window: dict[str, Any], commits: int, host: float = 1.0
) -> dict[str, float]:
    """Self times and wall time per commit of a traced window, in ms.

    Times are divided by the run's host factor (``common.host_factor``).
    """
    out = {name: ms / host for name, ms in self_times_ms(window, commits).items()}
    out["trace.wall_ms"] = window["wall_ns"] / max(commits, 1) / 1e6 / host
    return out


def span_counts(window: dict[str, Any], commits: int) -> dict[str, float]:
    """Work counts per commit the wrappers saw in a traced window."""
    per = max(commits, 1)
    canonical = calls_of(window, CANONICAL)
    certificates = calls_of(window, CERTIFICATE)
    return {
        "net.wire.frames": calls_of(window, ENCODE_FRAME) / per,
        "crypto.canonical_calls": canonical / per,
        "crypto.canonical_unique_ratio": ratio(window["canonical_unique"], canonical),
        "crypto.mac_count": calls_of(window, MAC) / per,
        "core.certificates_built": certificates / per,
        "core.cert_entries_mean": ratio(window["cert_entries"], certificates),
        "observability.inc_calls": calls_of(window, REGISTRY_INC) / per,
    }


def registry_layers(
    totals: dict[str, dict[str, float]], commits: int
) -> dict[str, float]:
    """Per-layer figures the replicas' ``MetricsRegistry`` counters give."""

    def c(module: str, name: str) -> float:
        return totals.get(module, {}).get(name, 0)

    return {
        "crypto.sig_cache_hit_ratio": ratio(
            c("signature", "sig_cache_hits"),
            c("signature", "sig_cache_hits") + c("signature", "sig_cache_misses"),
        ),
        "consensus.pf_cache_hit_ratio": ratio(
            c("certification", "pf_cache_hits"),
            c("certification", "pf_cache_hits") + c("certification", "pf_cache_misses"),
        ),
        "consensus.messages_rejected": c("non_muteness_fd", "messages_rejected")
        + c("signature", "messages_rejected"),
        "consensus.rounds_per_slot": ratio(
            c("protocol", "rounds_started"), c("protocol", "decisions")
        ),
        "detectors.suspicions": c("muteness_fd", "suspicions_raised"),
        "detectors.wrongful_ratio": ratio(
            c("muteness_fd", "wrongful_suspicions"),
            c("muteness_fd", "suspicions_raised"),
        ),
        "detectors.timers_set": c("muteness_fd", "timeouts_armed") / max(commits, 1),
        "service.batch_occupancy": ratio(
            c("service", "commands_committed"), c("service", "slots_applied")
        ),
        "service.checkpoints": c("service", "checkpoints_taken"),
        "service.transfer_success_ratio": ratio(
            c("service", "state_transfers_completed"),
            c("service", "state_transfers_started"),
        ),
        "service.transfer_bytes": c("service", "state_transfer_bytes"),
        "service.suffix_entries_verified": c("service", "suffix_entries_verified"),
    }
