"""Command-line interface: run and inspect reproductions from a shell.

Usage (``python -m repro <command> ...``):

* ``run`` — one consensus instance (any protocol, faults, attacks), with
  optional trace chart / JSON export;
* ``gallery`` — the full attack gallery against the transformed protocol
  as a table;
* ``attacks`` — list the attack catalogues and their fault profiles;
* ``params`` — the resilience arithmetic for a system size;
* ``report`` — aggregate a ``--metrics-out`` JSONL artifact into
  per-module / per-round tables (or JSON);
* ``campaign`` — scenario-matrix fault-injection campaigns with
  replayable counterexamples (``run`` / ``list`` / ``replay`` /
  ``shrink``; see ``docs/TESTING.md``);
* ``service`` — the long-lived BFT replicated key-value service:
  clients, batching, pipelining, checkpoints and state transfer
  (``run`` / ``campaign``; see ``docs/SERVICE.md``);
* ``net`` — the deployed runtime: the same replica stack as real OS
  processes over TCP (``keygen`` / ``replica`` / ``client`` /
  ``cluster``; see ``docs/NET.md``);
* ``shard`` — the sharded multi-group service: partition the key space
  across independent replicated groups for aggregate throughput
  (``keygen`` / ``route`` / ``client`` / ``cluster`` / ``loopback``;
  see ``docs/SHARDING.md``);
* ``mc`` — small-scope model checking: drive the real module stack
  through *all* interleavings of a bounded world, check the paper's
  safety properties in every reachable state, and emit counterexamples
  as shrinkable campaign scenarios (``run`` / ``resume`` / ``replay``;
  see docs/MODELCHECK.md);
* ``perf`` — the deterministic performance smoke: a short saturation
  run plus a cached/uncached equivalence check, exported as canonical
  JSON for byte-identity pinning (``smoke``; see docs/PERFORMANCE.md).

Invalid configurations (unknown attacks, malformed ``PID:VALUE`` pairs,
fault plans beyond the resilience bounds, ...) exit with status 2 via
:class:`~repro.errors.ConfigurationError` — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.properties import (
    check_crash_consensus,
    check_detection,
    check_vector_consensus,
)
from repro.analysis.reporting import print_table
from repro.analysis.run_report import RunReport
from repro.analysis.tracefmt import render_sequence, trace_to_json
from repro.observability.export import read_run_jsonl, write_run_jsonl
from repro.byzantine import (
    CRASH_ATTACKS,
    TRANSFORMED_ATTACKS,
    crash_attack,
    transformed_attack,
)
from repro.byzantine.ct_attacks import CT_ATTACKS, ct_attack
from repro.core.specs import SystemParameters, certification_resilience, crash_resilience
from repro.errors import ConfigurationError, ReproError
from repro.sim.network import LinkModel, Partition
from repro.sim.world import TRANSPORTS
from repro.systems import build_crash_system, build_transformed_system

CRASH_PROTOCOLS = ("hurfin-raynal", "chandra-toueg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Baldoni/Hélary/Raynal (DSN 2000): "
        "crash-to-arbitrary fault-tolerance transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one consensus instance")
    run.add_argument("--n", type=int, default=4, help="number of processes")
    run.add_argument(
        "--protocol",
        choices=("transformed",) + CRASH_PROTOCOLS,
        default="transformed",
    )
    run.add_argument(
        "--variant",
        choices=("standard", "echo-init"),
        default="standard",
        help="transformed-protocol variant",
    )
    run.add_argument(
        "--base",
        choices=("hurfin-raynal", "chandra-toueg"),
        default="hurfin-raynal",
        help="which crash protocol the transformation was applied to",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="PID:TIME",
        help="crash PID at virtual TIME (repeatable)",
    )
    run.add_argument(
        "--attack",
        action="append",
        default=[],
        metavar="PID:NAME",
        help="install a Byzantine behaviour (repeatable)",
    )
    run.add_argument("--max-time", type=float, default=3_000.0)
    run.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-link drop probability in [0, 1) (docs/NETWORK.md)",
    )
    run.add_argument(
        "--dup",
        type=float,
        default=0.0,
        help="per-link duplication probability in [0, 1)",
    )
    run.add_argument(
        "--reorder",
        type=float,
        default=0.0,
        help="per-link burst-reorder probability in [0, 1)",
    )
    run.add_argument(
        "--partition",
        action="append",
        default=[],
        metavar="START:HEAL:GROUPS",
        help="sever cross-group links during [START, HEAL), e.g. "
        "40:120:0,1|2,3 (repeatable)",
    )
    run.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default="none",
        help="reliable-channel layer over the faulty wire "
        "(no-retransmit is the ablation)",
    )
    run.add_argument(
        "--muteness",
        choices=("oracle", "timeout", "round-aware", "adaptive"),
        default="oracle",
        help="◇M implementation (transformed protocol only)",
    )
    run.add_argument(
        "--chart", action="store_true", help="print the message-sequence chart"
    )
    run.add_argument(
        "--chart-rows", type=int, default=60, help="chart row budget"
    )
    run.add_argument(
        "--json", metavar="FILE", help="export the trace as JSON to FILE"
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="export metrics + trace as a schema-versioned JSONL artifact "
        "(read it back with `python -m repro report FILE`)",
    )

    report = sub.add_parser(
        "report", help="aggregate JSONL run artifacts into tables"
    )
    report.add_argument(
        "artifact",
        nargs="+",
        help="one or more .jsonl files written by --metrics-out / "
        "--metrics-dir; several files render per-pid rows grouped by "
        "artifact",
    )
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    gallery = sub.add_parser(
        "gallery", help="run every attack against the transformed protocol"
    )
    gallery.add_argument("--n", type=int, default=4)
    gallery.add_argument("--seed", type=int, default=0)

    attacks = sub.add_parser("attacks", help="list the attack catalogues")
    attacks.add_argument(
        "--model",
        choices=("crash", "transformed", "both"),
        default="both",
    )

    params = sub.add_parser("params", help="resilience arithmetic for n")
    params.add_argument("--n", type=int, required=True)

    campaign = sub.add_parser(
        "campaign",
        help="scenario-matrix fault-injection campaigns (docs/TESTING.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    c_run = campaign_sub.add_parser(
        "run", help="enumerate and run a campaign, export a JSONL artifact"
    )
    c_run.add_argument(
        "--preset",
        default="smoke",
        help="campaign preset: smoke (~55 scenarios), full (220), or the "
        "link-fault matrices lossy / partition (docs/NETWORK.md)",
    )
    c_run.add_argument("--master-seed", type=int, default=0)
    c_run.add_argument(
        "--out",
        metavar="FILE",
        help="write the campaign artifact (JSONL, repro.campaign/v1) here",
    )
    c_run.add_argument(
        "--max-scenarios",
        type=int,
        help="truncate the enumeration (debugging aid)",
    )
    c_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip the automatic shrink of failing scenarios",
    )
    c_run.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    c_list = campaign_sub.add_parser(
        "list", help="list the scenario ids a preset enumerates"
    )
    c_list.add_argument("--preset", default="smoke")
    c_list.add_argument("--master-seed", type=int, default=0)

    c_replay = campaign_sub.add_parser(
        "replay",
        help="re-run one recorded scenario and check the verdict reproduces",
    )
    c_replay.add_argument("id", help="scenario id (sXXXXXXXXXXXX)")
    c_replay.add_argument(
        "--artifact", required=True, help="campaign artifact holding the id"
    )
    c_replay.add_argument(
        "--json", action="store_true", help="emit the fresh record as JSON"
    )

    c_shrink = campaign_sub.add_parser(
        "shrink", help="minimise a recorded failing scenario"
    )
    c_shrink.add_argument("id", help="scenario id (sXXXXXXXXXXXX)")
    c_shrink.add_argument(
        "--artifact", required=True, help="campaign artifact holding the id"
    )

    def _add_fault_campaign_args(parser, preset_help: str) -> None:
        parser.add_argument("--preset", default="smoke", help=preset_help)
        parser.add_argument(
            "--plan",
            action="append",
            default=[],
            metavar="FILE",
            help="run this saved plan JSON instead of the preset (repeatable)",
        )
        parser.add_argument(
            "--fidelity",
            default="sim,loopback",
            metavar="F1,F2,...",
            help="comma-separated fidelities: sim, loopback, net",
        )
        parser.add_argument(
            "--out",
            metavar="FILE",
            help="write the cross-fidelity report (canonical JSON) here",
        )
        parser.add_argument(
            "--workdir",
            help="keep net-fidelity cluster state here (default: temp dirs)",
        )
        parser.add_argument(
            "--timeout", type=float, default=180.0,
            help="hard wall-clock cap per plan at the net fidelity (seconds)",
        )
        parser.add_argument(
            "--rehunt", type=int, default=0, metavar="K",
            help="flake hunting: re-run each verdict-disagreeing plan K more "
            "times per fidelity and report the verdict distribution",
        )
        parser.add_argument(
            "--shrink-out", metavar="DIR",
            help="delta-debug every plan that truly failed at the sim "
            "fidelity down to a minimal same-failure plan; write the "
            "shrunk plan JSONs here (docs/FAULTS.md)",
        )
        parser.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )

    c_faults = campaign_sub.add_parser(
        "faults",
        help="run fault plans at several fidelities and cross-check the "
        "verdicts (docs/FAULTS.md)",
    )
    _add_fault_campaign_args(
        c_faults, "fault-plan preset: smoke or extended (docs/FAULTS.md)"
    )

    c_zoo = campaign_sub.add_parser(
        "zoo",
        help="run the adversary-zoo plan matrices across fidelities "
        "(docs/ADVERSARIES.md)",
    )
    _add_fault_campaign_args(
        c_zoo,
        "zoo preset: smoke, extended, sweep, or net-smoke "
        "(docs/ADVERSARIES.md)",
    )

    c_service = campaign_sub.add_parser(
        "service",
        help="run a service scenario preset with oracles (same engine as "
        "`service campaign`)",
    )
    c_service.add_argument("--preset", default="smoke")
    c_service.add_argument(
        "--out", metavar="FILE", help="write the records as JSON to FILE"
    )
    c_service.add_argument(
        "--json", action="store_true", help="emit the records as JSON"
    )

    service = sub.add_parser(
        "service",
        help="run the BFT replicated key-value service (docs/SERVICE.md)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    s_run = service_sub.add_parser(
        "run", help="run one service deployment and report on it"
    )
    s_run.add_argument("--n", type=int, default=4, help="number of replicas")
    s_run.add_argument("--clients", type=int, default=2)
    s_run.add_argument("--mode", choices=("open", "closed"), default="open")
    s_run.add_argument(
        "--rate", type=float, default=2.0, help="open-loop arrival rate"
    )
    s_run.add_argument(
        "--think", type=float, default=1.0, help="closed-loop think time"
    )
    s_run.add_argument("--requests", type=int, default=20,
                       help="requests per client")
    s_run.add_argument("--batch-size", type=int, default=4)
    s_run.add_argument("--batch-delay", type=float, default=1.0)
    s_run.add_argument(
        "--window", type=int, default=2, help="pipelining window W"
    )
    s_run.add_argument(
        "--checkpoint-interval", type=int, default=2,
        help="checkpoint every K applied slots",
    )
    s_run.add_argument("--request-timeout", type=float, default=40.0)
    s_run.add_argument("--seed", type=int, default=0)
    s_run.add_argument(
        "--attack",
        action="append",
        default=[],
        metavar="PID:NAME",
        help="install a Byzantine consensus engine on a replica (repeatable)",
    )
    s_run.add_argument(
        "--recover",
        action="append",
        default=[],
        metavar="PID:DOWN:UP",
        help="take PID down at DOWN, restart (state transfer) at UP "
        "(repeatable)",
    )
    s_run.add_argument("--loss", type=float, default=0.0,
                       help="per-link drop probability in [0, 1)")
    s_run.add_argument("--transport", choices=TRANSPORTS, default="none")
    s_run.add_argument(
        "--delay-model",
        choices=("uniform", "fixed", "exponential"),
        default="uniform",
    )
    s_run.add_argument("--max-time", type=float, default=2_500.0)
    s_run.add_argument(
        "--json", metavar="FILE", help="export the run record as JSON to FILE"
    )

    s_campaign = service_sub.add_parser(
        "campaign", help="run a service scenario preset with oracles"
    )
    s_campaign.add_argument("--preset", default="smoke")
    s_campaign.add_argument(
        "--out", metavar="FILE", help="write the records as JSON to FILE"
    )
    s_campaign.add_argument(
        "--json", action="store_true", help="emit the records as JSON"
    )

    net = sub.add_parser(
        "net",
        help="deploy the replica stack as real processes over TCP "
        "(docs/NET.md)",
    )
    net_sub = net.add_subparsers(dest="net_command", required=True)

    n_keygen = net_sub.add_parser(
        "keygen", help="write a genesis file (addresses, seed, knobs)"
    )
    n_keygen.add_argument("--out", required=True, metavar="FILE")
    n_keygen.add_argument("--replicas", type=int, default=4)
    n_keygen.add_argument("--clients", type=int, default=4)
    n_keygen.add_argument("--seed", type=int, default=0)
    n_keygen.add_argument("--name", default="local")
    n_keygen.add_argument("--host", default="127.0.0.1")
    n_keygen.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="replica i listens on base+i; 0 allocates free ports now",
    )

    n_replica = net_sub.add_parser(
        "replica", help="run one replica until SIGTERM/SIGINT"
    )
    n_replica.add_argument("--genesis", required=True, metavar="FILE")
    n_replica.add_argument("--pid", type=int, required=True)
    n_replica.add_argument(
        "--join",
        action="store_true",
        help="start by requesting certified state transfer (cold rejoin)",
    )
    n_replica.add_argument(
        "--metrics-dir",
        metavar="DIR",
        help="periodically export this node's JSONL metrics artifact here",
    )
    n_replica.add_argument(
        "--faults",
        metavar="FILE",
        help="execute this fault plan's link faults on outbound peer sends "
        "(docs/FAULTS.md)",
    )
    n_replica.add_argument(
        "--faults-origin",
        type=float,
        metavar="EPOCH",
        help="wall-clock epoch that maps to plan time zero (default: now)",
    )
    n_replica.add_argument(
        "--attack",
        metavar="NAME",
        help="run a Byzantine transformed-attack engine on this replica",
    )

    n_client = net_sub.add_parser(
        "client", help="talk to a running cluster as a client"
    )
    n_client.add_argument("--genesis", required=True, metavar="FILE")
    n_client.add_argument("--index", type=int, default=0,
                          help="client identity index")
    n_client.add_argument(
        "op", choices=("set", "get", "status", "workload")
    )
    n_client.add_argument("operands", nargs="*",
                          help="set KEY VALUE | get KEY")
    n_client.add_argument("--requests", type=int, default=20,
                          help="workload size")
    n_client.add_argument("--concurrency", type=int, default=8)

    n_cluster = net_sub.add_parser(
        "cluster",
        help="spawn a local cluster, commit a workload through a "
        "kill+restart, assert convergence (the net smoke)",
    )
    n_cluster.add_argument("--replicas", type=int, default=4)
    n_cluster.add_argument("--requests", type=int, default=100)
    n_cluster.add_argument(
        "--kill", type=int, default=2,
        help="replica to SIGKILL mid-run and restart with --join",
    )
    n_cluster.add_argument("--seed", type=int, default=7)
    n_cluster.add_argument(
        "--workdir", help="keep genesis/logs/metrics here (default: temp)"
    )
    n_cluster.add_argument("--concurrency", type=int, default=8)

    shard = sub.add_parser(
        "shard",
        help="sharded multi-group service: partition the key space across "
        "independent replicated groups (docs/SHARDING.md)",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    sh_keygen = shard_sub.add_parser(
        "keygen",
        help="write a shard genesis (per-shard addresses, derived seeds)",
    )
    sh_keygen.add_argument("--out", required=True, metavar="FILE")
    sh_keygen.add_argument("--shards", type=int, default=2)
    sh_keygen.add_argument("--replicas-per-shard", type=int, default=4)
    sh_keygen.add_argument("--clients", type=int, default=4)
    sh_keygen.add_argument("--seed", type=int, default=0)
    sh_keygen.add_argument("--name", default="sharded")
    sh_keygen.add_argument("--host", default="127.0.0.1")
    sh_keygen.add_argument(
        "--base-port",
        type=int,
        default=0,
        help="shard s replica i listens on base + s*replicas + i; "
        "0 allocates free ports now",
    )

    sh_route = shard_sub.add_parser(
        "route", help="show which shard each key routes to"
    )
    sh_route.add_argument("keys", nargs="+", help="keys to route")
    sh_route.add_argument(
        "--genesis", metavar="FILE", help="read the shard count from this file"
    )
    sh_route.add_argument(
        "--shards", type=int, help="shard count (instead of --genesis)"
    )

    sh_client = shard_sub.add_parser(
        "client", help="talk to a running sharded deployment as a client"
    )
    sh_client.add_argument("--genesis", required=True, metavar="FILE")
    sh_client.add_argument(
        "--index", type=int, default=0, help="client identity index"
    )
    sh_client.add_argument("op", choices=("set", "get", "status", "workload"))
    sh_client.add_argument(
        "operands", nargs="*", help="set KEY VALUE | get KEY"
    )
    sh_client.add_argument(
        "--requests", type=int, default=20, help="workload size"
    )
    sh_client.add_argument("--concurrency", type=int, default=8)

    sh_cluster = shard_sub.add_parser(
        "cluster",
        help="spawn every shard as a local TCP cluster, commit a workload "
        "through a kill+restart in one shard, assert per-shard "
        "convergence (the shard smoke)",
    )
    sh_cluster.add_argument("--shards", type=int, default=2)
    sh_cluster.add_argument("--replicas-per-shard", type=int, default=4)
    sh_cluster.add_argument("--requests", type=int, default=40)
    sh_cluster.add_argument(
        "--kill-shard", type=int, default=1,
        help="shard whose replica is SIGKILLed mid-run",
    )
    sh_cluster.add_argument(
        "--kill-pid", type=int, default=2,
        help="replica to SIGKILL and restart with --join",
    )
    sh_cluster.add_argument("--seed", type=int, default=7)
    sh_cluster.add_argument(
        "--workdir", help="keep genesis/logs/metrics here (default: temp)"
    )
    sh_cluster.add_argument("--concurrency", type=int, default=8)

    sh_loopback = shard_sub.add_parser(
        "loopback",
        help="run the deterministic in-process shard twin and emit its "
        "canonical record (byte-identical across runs)",
    )
    sh_loopback.add_argument("--shards", type=int, default=2)
    sh_loopback.add_argument("--replicas-per-shard", type=int, default=4)
    sh_loopback.add_argument("--requests", type=int, default=24)
    sh_loopback.add_argument("--seed", type=int, default=0)
    sh_loopback.add_argument(
        "--kill-shard", type=int, default=1,
        help="shard whose replica is killed and rejoined mid-run",
    )
    sh_loopback.add_argument("--kill-pid", type=int, default=2)
    sh_loopback.add_argument(
        "--no-kill", action="store_true", help="skip the kill/rejoin phase"
    )
    sh_loopback.add_argument(
        "--out",
        help="write the canonical JSON record to this file (default: stdout)",
    )

    mc = sub.add_parser(
        "mc",
        help="small-scope model checking of the real stack (docs/MODELCHECK.md)",
    )
    mc_sub = mc.add_subparsers(dest="mc_command", required=True)

    m_run = mc_sub.add_parser(
        "run",
        help="explore all interleavings of a bounded world, export an artifact",
    )
    m_run.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="write the exploration artifact (JSONL, repro.mc/v1) here",
    )
    m_run.add_argument(
        "--strategy", choices=("bfs", "dfs"), default="bfs",
        help="bfs sweeps layer by layer; dfs dives (counterexample hunts)",
    )
    m_run.add_argument("--max-depth", type=int, default=6)
    m_run.add_argument("--max-states", type=int, default=20_000)
    m_run.add_argument(
        "--max-rounds", type=int, default=2,
        help="states past this protocol round are not expanded",
    )
    m_run.add_argument("--seed", type=int, default=0)
    m_run.add_argument(
        "--adversary", type=int, metavar="SEAT",
        help="seat of the scripted adversary (requires --alphabet)",
    )
    m_run.add_argument(
        "--alphabet", metavar="A,B,...",
        help="comma-separated adversary actions: mute, equivocate-current, "
        "forge-attempt, drop-delivery, suppress-d",
    )
    m_run.add_argument(
        "--suppress-d", type=int, default=1, metavar="D",
        help="per-round budget of the suppress-d action (default 1)",
    )
    m_run.add_argument(
        "--mutation", metavar="NAME",
        help="inject a known-bad protocol mutation (checker self-test)",
    )
    m_run.add_argument(
        "--stop-on-violation", action="store_true",
        help="stop at the first counterexample instead of sweeping on",
    )
    m_run.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    m_resume = mc_sub.add_parser(
        "resume", help="continue an interrupted exploration from its artifact"
    )
    m_resume.add_argument("artifact", help="repro.mc/v1 artifact to resume")
    m_resume.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    m_replay = mc_sub.add_parser(
        "replay",
        help="re-check a recorded counterexample and map it onto a "
        "campaign scenario",
    )
    m_replay.add_argument("artifact", help="repro.mc/v1 artifact with violations")
    m_replay.add_argument(
        "--index", type=int, default=0,
        help="which recorded violation to replay (default: first)",
    )
    m_replay.add_argument(
        "--shrink", action="store_true",
        help="hand the mapped scenario to the campaign shrinker",
    )
    m_replay.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )

    perf = sub.add_parser(
        "perf",
        help="deterministic performance smoke (docs/PERFORMANCE.md)",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    p_smoke = perf_sub.add_parser(
        "smoke",
        help="short saturation run + cached/uncached equivalence check",
    )
    p_smoke.add_argument(
        "--out",
        help="write the canonical JSON record to this file (default: stdout)",
    )

    experiments = sub.add_parser(
        "experiments",
        help="regenerate experiment tables (E1..E18) outside pytest",
    )
    experiments.add_argument(
        "--only",
        help="comma-separated experiment ids, e.g. e3,e13 (default: list them)",
    )
    experiments.add_argument(
        "--list", action="store_true", help="list available experiments"
    )

    return parser


def _parse_pairs(pairs: list[str], what: str) -> dict[int, str]:
    parsed: dict[int, str] = {}
    for pair in pairs:
        pid_text, _, value = pair.partition(":")
        if not value:
            raise ConfigurationError(
                f"--{what} expects PID:VALUE, got {pair!r}"
            )
        try:
            pid = int(pid_text)
        except ValueError:
            raise ConfigurationError(
                f"--{what} expects an integer PID, got {pid_text!r} "
                f"in {pair!r}"
            ) from None
        parsed[pid] = value
    return parsed


def _parse_partitions(specs: list[str]) -> tuple[Partition, ...]:
    partitions = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"--partition expects START:HEAL:GROUPS, got {spec!r}"
            )
        start_text, heal_text, groups_text = parts
        try:
            start, heal = float(start_text), float(heal_text)
            groups = tuple(
                tuple(int(pid) for pid in side.split(","))
                for side in groups_text.split("|")
            )
        except ValueError:
            raise ConfigurationError(
                f"--partition expects numeric START:HEAL and GROUPS like "
                f"0,1|2,3, got {spec!r}"
            ) from None
        partitions.append(Partition(start=start, heal=heal, groups=groups))
    return tuple(partitions)


def _build_link_model(args: argparse.Namespace) -> LinkModel | None:
    partitions = _parse_partitions(args.partition)
    if not (args.loss or args.dup or args.reorder or partitions):
        return None
    return LinkModel(
        loss=args.loss,
        duplication=args.dup,
        reorder=args.reorder,
        partitions=partitions,
    )


def _parse_crashes(pairs: list[str]) -> dict[int, float]:
    crashes: dict[int, float] = {}
    for pid, time_text in _parse_pairs(pairs, "crash").items():
        try:
            crashes[pid] = float(time_text)
        except ValueError:
            raise ConfigurationError(
                f"--crash expects PID:TIME with a numeric TIME, got "
                f"{time_text!r} for pid {pid}"
            ) from None
    return crashes


def cmd_run(args: argparse.Namespace) -> int:
    crash_at = _parse_crashes(args.crash)
    attack_names = _parse_pairs(args.attack, "attack")
    link_model = _build_link_model(args)
    proposals = [f"v{i}" for i in range(args.n)]
    if args.protocol == "transformed":
        byzantine = {}
        attack_maker = (
            transformed_attack if args.base == "hurfin-raynal" else ct_attack
        )
        for pid, name in attack_names.items():
            byzantine.update(attack_maker(pid, name))
        system = build_transformed_system(
            proposals,
            byzantine=byzantine,
            crash_at=crash_at,
            seed=args.seed,
            variant=args.variant,
            base=args.base,
            muteness=args.muteness,
            link_model=link_model,
            transport=args.transport,
        )
        system.run(max_time=args.max_time)
        report = check_vector_consensus(system)
    else:
        if args.muteness != "oracle":
            raise ConfigurationError(
                "--muteness selects a ◇M detector; crash protocols use ◇S"
            )
        byzantine = {}
        for pid, name in attack_names.items():
            byzantine.update(crash_attack(pid, name))
        system = build_crash_system(
            proposals,
            byzantine=byzantine,
            crash_at=crash_at,
            protocol=args.protocol,
            seed=args.seed,
            link_model=link_model,
            transport=args.transport,
        )
        system.run(max_time=args.max_time)
        report = check_crash_consensus(system)

    print(f"run finished: {system.result.reason} at t={system.result.end_time:.2f}, "
          f"{system.world.network.messages_sent} messages")
    if link_model is not None:
        transport = system.world.transport
        print(
            f"link faults: {system.world.network.messages_dropped} dropped, "
            f"{system.world.network.messages_duplicated} duplicated, "
            f"{transport.retransmissions if transport else 0} retransmitted "
            f"(transport={args.transport})"
        )
    for pid in sorted(system.correct_pids):
        process = system.processes[pid]
        state = f"decided {process.decision!r} (round {process.decision_round})" \
            if process.decided else "undecided"
        print(f"  p{pid}: {state}")
    detection = check_detection(system)
    if detection.detectors_per_culprit:
        print(f"detections: {detection.detectors_per_culprit}")
    print(f"properties: termination={report.termination} "
          f"agreement={report.agreement} validity={report.validity}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    if args.chart:
        print()
        print(render_sequence(system.world.trace, args.n, max_events=args.chart_rows))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(trace_to_json(system.world.trace))
        print(f"trace exported to {args.json}")
    if args.metrics_out:
        write_run_jsonl(
            args.metrics_out,
            system.world.trace,
            system.world.metrics,
            meta={
                "n": args.n,
                "seed": args.seed,
                "protocol": args.protocol,
                "variant": args.variant,
                "base": args.base,
                "attacks": dict(sorted(attack_names.items())),
                "crashes": {pid: crash_at[pid] for pid in sorted(crash_at)},
            },
        )
        print(f"metrics artifact exported to {args.metrics_out}")
    return 0 if report.all_hold else 1


def cmd_report(args: argparse.Namespace) -> int:
    if len(args.artifact) == 1:
        run_report = RunReport.from_artifact(read_run_jsonl(args.artifact[0]))
        if args.json:
            import json

            print(json.dumps(run_report.to_json(), indent=2, sort_keys=True))
        else:
            print(run_report.render())
        return 0

    from repro.analysis.run_report import artifacts_to_json, render_artifacts

    items = [(path, read_run_jsonl(path)) for path in args.artifact]
    if args.json:
        import json

        print(json.dumps(artifacts_to_json(items), indent=2, sort_keys=True))
    else:
        print(render_artifacts(items))
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    proposals = [f"v{i}" for i in range(args.n)]
    rows = []
    worst = 0
    for name in sorted(TRANSFORMED_ATTACKS):
        seat = 0 if name in ("equivocate-current", "wrong-cert-current") else args.n - 1
        system = build_transformed_system(
            proposals,
            byzantine=transformed_attack(seat, name),
            seed=args.seed,
        )
        system.run(max_time=3_000.0)
        report = check_vector_consensus(system)
        detection = check_detection(system)
        rows.append(
            [
                name,
                "yes" if report.all_hold else "NO",
                detection.detectors_per_culprit.get(seat, 0),
                "yes" if seat in detection.suspected_by_any else "no",
            ]
        )
        if not report.all_hold:
            worst = 1
    print_table(
        f"attack gallery (n={args.n}, seed={args.seed})",
        ["attack", "safe", "convictions", "suspected"],
        rows,
    )
    return worst


def cmd_attacks(args: argparse.Namespace) -> int:
    def rows_for(catalog):
        return [
            [
                cls.profile.name,
                cls.profile.failure_class.value,
                cls.profile.detecting_module.value,
                cls.profile.description,
            ]
            for cls in sorted(catalog.values(), key=lambda c: c.profile.name)
        ]

    headers = ["name", "failure class", "owning module", "description"]
    if args.model in ("crash", "both"):
        print_table("crash-model attacks (Figure 2 victims)", headers,
                    rows_for(CRASH_ATTACKS))
    if args.model in ("transformed", "both"):
        print_table("transformed-model attacks (Figure 3 targets)", headers,
                    rows_for(TRANSFORMED_ATTACKS))
        print_table("transformed-CT attacks (second case study)", headers,
                    rows_for(CT_ATTACKS))
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    params = SystemParameters.for_n(args.n)
    print(f"n                          = {params.n}")
    print(f"crash resilience           = {crash_resilience(args.n)}  (floor((n-1)/2))")
    print(f"certification resilience C = {certification_resilience(args.n)}  (floor((n-1)/3))")
    print(f"arbitrary-fault bound F    = {params.f}  (min of the two)")
    print(f"quorum n-F                 = {params.quorum}")
    print(f"vector validity floor n-2F = {params.alpha}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        enumerate_scenarios,
        read_campaign_jsonl,
        run_campaign,
        run_scenario,
        shrink_scenario,
        write_campaign_jsonl,
    )
    from repro.campaign.matrix import campaign_spec

    if args.campaign_command in ("faults", "zoo"):
        return _faults_campaign(args)

    if args.campaign_command == "service":
        return _service_campaign(args.preset, args.out, args.json)

    if args.campaign_command == "list":
        spec = campaign_spec(args.preset)
        scenarios = enumerate_scenarios(spec, master_seed=args.master_seed)
        rows = [
            [
                scenario.scenario_id,
                scenario.protocol,
                scenario.n,
                scenario.seed,
                scenario.delay_model,
                _fault_plan(scenario),
            ]
            for scenario in scenarios
        ]
        print_table(
            f"campaign {args.preset!r} (master seed {args.master_seed}, "
            f"{len(scenarios)} scenarios)",
            ["id", "protocol", "n", "seed", "delay", "fault plan"],
            rows,
        )
        return 0

    if args.campaign_command == "run":
        spec = campaign_spec(args.preset)
        scenarios = enumerate_scenarios(spec, master_seed=args.master_seed)
        if args.max_scenarios is not None:
            if args.max_scenarios < 1:
                raise ConfigurationError(
                    f"--max-scenarios must be positive, got {args.max_scenarios}"
                )
            scenarios = scenarios[: args.max_scenarios]
        result = run_campaign(scenarios)
        meta = {
            "preset": args.preset,
            "master_seed": args.master_seed,
            "scenarios": len(scenarios),
        }
        if args.out:
            write_campaign_jsonl(args.out, result, meta=meta)
        summary = result.summary()
        if args.json:
            import json

            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print_table(
                f"campaign {args.preset!r} (master seed {args.master_seed})",
                ["verdict", "scenarios"],
                [[verdict, count] for verdict, count in summary["verdicts"].items()],
            )
            print_table(
                "failure-class coverage (Section-2 taxonomy)",
                ["failure class", "scenarios"],
                [
                    [failure_class, count]
                    for failure_class, count in summary[
                        "failure_class_coverage"
                    ].items()
                ],
            )
            if args.out:
                print(f"campaign artifact exported to {args.out}")
        for record in result.failures:
            print(f"FAIL {record.scenario_id}: {'; '.join(record.outcome.violations)}")
            if not args.no_shrink:
                shrink = shrink_scenario(record.scenario)
                print(
                    f"  minimal counterexample {shrink.minimal.scenario_id}: "
                    f"{shrink.minimal.to_config()}"
                )
                for step in shrink.steps:
                    print(f"    {step}")
        return 1 if result.failures else 0

    artifact = read_campaign_jsonl(args.artifact)
    scenario = artifact.scenario_for(args.id)
    if args.campaign_command == "replay":
        recorded = artifact.find(args.id)
        fresh = run_scenario(scenario)
        fresh_record = fresh.to_record()
        if args.json:
            import json

            print(json.dumps(fresh_record, indent=2, sort_keys=True))
        reproduced = recorded == fresh_record
        print(
            f"replay {args.id}: verdict={fresh.verdict} "
            f"({'matches the artifact' if reproduced else 'DIVERGED from the artifact'})"
        )
        if not reproduced:
            for key in sorted(set(recorded) | set(fresh_record)):
                if recorded.get(key) != fresh_record.get(key):
                    print(f"  {key}: recorded {recorded.get(key)!r}")
                    print(f"  {key}: fresh    {fresh_record.get(key)!r}")
        return 0 if reproduced else 1

    # shrink
    shrink = shrink_scenario(scenario)
    print(f"shrink {args.id} ({shrink.candidates_tried} candidates tried):")
    for step in shrink.steps:
        print(f"  {step}")
    if not shrink.shrunk:
        print("  already minimal")
    print(
        f"minimal scenario {shrink.minimal.scenario_id} "
        f"(verdict {shrink.record.verdict}):"
    )
    import json

    print(json.dumps(shrink.minimal.to_config(), indent=2, sort_keys=True))
    return 0


def _fault_plan(scenario) -> str:
    parts = [f"p{pid}:{name}" for pid, name in scenario.attacks]
    parts += [f"p{pid}@{time:g}" for pid, time in scenario.crashes]
    if scenario.collusion is not None:
        parts.append(scenario.collusion)
    if scenario.variant != "standard":
        parts.append(scenario.variant)
    if scenario.loss:
        parts.append(f"loss={scenario.loss:g}")
    if scenario.dup:
        parts.append(f"dup={scenario.dup:g}")
    if scenario.reorder:
        parts.append(f"reorder={scenario.reorder:g}")
    for start, heal, groups in scenario.partitions:
        parts.append(f"partition[{start:g},{heal:g}){groups}")
    if scenario.transport != "none":
        parts.append(scenario.transport)
    return " ".join(parts) or "fault-free"


def _parse_recoveries(specs: list[str]) -> tuple[tuple[int, float, float], ...]:
    recoveries = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"--recover expects PID:DOWN:UP, got {spec!r}"
            )
        try:
            recoveries.append((int(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ConfigurationError(
                f"--recover expects numeric PID:DOWN:UP, got {spec!r}"
            ) from None
    return tuple(sorted(recoveries))


def _print_service_record(record: dict) -> None:
    service = record["service"]
    latency = record["latency"]
    print_table(
        f"service run {record['id']} ({record['config']['name']})",
        ["measure", "value"],
        [
            ["verdict", record["verdict"]],
            ["end reason", record["run"]["end_reason"]],
            ["virtual end time", f"{record['run']['end_time']:.2f}"],
            ["messages sent", record["run"]["messages_sent"]],
            ["commands committed", service["committed_commands"]],
            ["requests completed", service["completed_requests"]],
            ["certified checkpoints", service["certified_checkpoints"]],
            ["state transfers", service["state_transfers"]],
            ["client resubmissions", service["resubmissions"]],
            ["latency p50", latency["p50"]],
            ["latency p99", latency["p99"]],
        ],
    )
    for violation in record["violations"]:
        print(f"  violation: {violation}")


def cmd_service(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceScenario, run_service_scenario

    if args.service_command == "run":
        attack_names = _parse_pairs(args.attack, "attack")
        scenario = ServiceScenario(
            name="cli",
            n_replicas=args.n,
            n_clients=args.clients,
            mode=args.mode,
            rate=args.rate,
            think=args.think,
            requests_per_client=args.requests,
            batch_size=args.batch_size,
            batch_delay=args.batch_delay,
            window=args.window,
            checkpoint_interval=args.checkpoint_interval,
            request_timeout=args.request_timeout,
            seed=args.seed,
            attacks=tuple(sorted(attack_names.items())),
            recoveries=_parse_recoveries(args.recover),
            loss=args.loss,
            transport=args.transport,
            delay_model=args.delay_model,
            max_time=args.max_time,
        )
        record = run_service_scenario(scenario)
        _print_service_record(record)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"run record exported to {args.json}")
        return 0 if record["verdict"] == "pass" else 1

    # campaign (also reachable as `repro campaign service`)
    return _service_campaign(args.preset, args.out, args.json)


def _service_campaign(preset: str, out: str | None, as_json: bool) -> int:
    """The service campaign engine behind both CLI spellings."""
    import json

    from repro.service import run_service_scenario, service_preset

    records = [
        run_service_scenario(scenario) for scenario in service_preset(preset)
    ]
    payload = json.dumps(records, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    if as_json:
        print(payload, end="")
    else:
        print_table(
            f"service campaign {preset!r} ({len(records)} scenarios)",
            ["scenario", "verdict", "commands", "checkpoints", "transfers",
             "p50", "p99"],
            [
                [
                    record["config"]["name"],
                    record["verdict"],
                    record["service"]["committed_commands"],
                    record["service"]["certified_checkpoints"],
                    record["service"]["state_transfers"],
                    record["latency"]["p50"],
                    record["latency"]["p99"],
                ]
                for record in records
            ],
        )
        if out:
            print(f"campaign records exported to {out}")
    failures = [r for r in records if r["verdict"] != "pass"]
    for record in failures:
        print(
            f"FAIL {record['config']['name']}: "
            f"{'; '.join(record['violations'])}"
        )
    return 1 if failures else 0


def _faults_campaign(args: argparse.Namespace) -> int:
    """`repro campaign faults` / `repro campaign zoo`: the cross-fidelity
    fault-plan engine over the v1 presets or the adversary-zoo matrices."""
    from repro.faults import FAULT_PRESETS, FaultPlan, run_cross_fidelity

    if args.campaign_command == "zoo":
        from repro.zoo.presets import ZOO_PRESETS as presets
    else:
        presets = FAULT_PRESETS
    if args.plan:
        plans = tuple(FaultPlan.load(path) for path in args.plan)
    else:
        preset = presets.get(args.preset)
        if preset is None:
            raise ConfigurationError(
                f"unknown {args.campaign_command} preset {args.preset!r}; "
                f"known: {sorted(presets)}"
            )
        plans = preset
    fidelities = tuple(
        part.strip() for part in args.fidelity.split(",") if part.strip()
    )
    if not fidelities:
        raise ConfigurationError("--fidelity needs at least one fidelity")
    report = run_cross_fidelity(
        plans,
        fidelities,
        workdir=args.workdir,
        timeout=args.timeout,
        progress=lambda line: print(f"  running {line}", file=sys.stderr),
        rehunt=args.rehunt,
    )
    if args.out:
        report.save(args.out)
    if args.json:
        print(report.dumps(), end="")
    else:
        print_table(
            f"cross-fidelity fault campaign ({len(report.results)} plans "
            f"@ {', '.join(fidelities)})",
            ["plan", "id", "expect"]
            + list(fidelities)
            + ["agree", "expected"],
            [
                [
                    result.plan.name,
                    result.plan.plan_id,
                    result.plan.expect,
                ]
                + [
                    result.verdicts.get(fidelity, "-")
                    for fidelity in fidelities
                ]
                + [
                    "yes" if result.agree else "NO",
                    "yes" if result.expected else "NO",
                ]
                for result in report.results
            ],
        )
        if args.out:
            print(f"cross-fidelity report exported to {args.out}")
    for result in report.results:
        for fidelity, (verdict, violations, _obs) in sorted(
            result.outcomes.items()
        ):
            if verdict == "fail":
                print(
                    f"FAIL {result.plan.name} @ {fidelity}: "
                    f"{'; '.join(violations)}"
                )
        if result.rehunt:
            for fidelity, counts in sorted(result.rehunt.items()):
                distribution = ", ".join(
                    f"{verdict} x{count}"
                    for verdict, count in sorted(counts.items())
                )
                print(
                    f"rehunt {result.plan.name} @ {fidelity}: {distribution}"
                )
    if args.shrink_out:
        from pathlib import Path

        from repro.faults.shrink import shrink_fault_plan

        out_dir = Path(args.shrink_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in report.results:
            if result.verdicts.get("sim") != "fail":
                continue
            shrunk = shrink_fault_plan(result.plan)
            path = shrunk.plan.save(out_dir / f"{result.plan.name}-shrunk.json")
            kept = sum(
                len(getattr(shrunk.plan, axis))
                for axis in (
                    "mutes", "kills", "partitions", "flips", "collusion",
                    "suppressions", "corruptions", "timing", "storage_flips",
                )
            )
            print(
                f"shrunk {result.plan.name}: {len(shrunk.removed)} clause(s) "
                f"removed, {kept} kept, {shrunk.runs} runs, "
                f"kinds={sorted(shrunk.kinds)} -> {path}"
            )
    return 0 if report.ok else 1


def cmd_net(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.net import (
        Genesis,
        NetClient,
        free_port,
        run_cluster_smoke,
        serve_replica,
    )

    if args.net_command == "keygen":
        if args.base_port:
            addresses = tuple(
                (args.host, args.base_port + pid)
                for pid in range(args.replicas)
            )
        else:
            addresses = tuple(
                (args.host, free_port()) for _ in range(args.replicas)
            )
        genesis = Genesis(
            name=args.name,
            seed=args.seed,
            n_replicas=args.replicas,
            max_clients=args.clients,
            addresses=addresses,
        )
        path = genesis.save(args.out)
        print(f"genesis {genesis.genesis_id()} written to {path}")
        for pid, (host, port) in enumerate(addresses):
            print(f"  replica {pid}: {host}:{port}")
        return 0

    if args.net_command == "replica":
        genesis = Genesis.load(args.genesis)
        return asyncio.run(
            serve_replica(
                genesis,
                args.pid,
                join=args.join,
                metrics_dir=args.metrics_dir,
                fault_plan=args.faults,
                fault_origin=args.faults_origin,
                attack=args.attack,
            )
        )

    if args.net_command == "client":
        genesis = Genesis.load(args.genesis)

        async def drive() -> int:
            client = NetClient(genesis, args.index)
            try:
                if args.op == "set":
                    if len(args.operands) != 2:
                        raise ConfigurationError("set expects KEY VALUE")
                    key, value = args.operands
                    slot = await client.set(key, value)
                    print(f"committed {key}={value} (slot {slot})")
                elif args.op == "get":
                    if len(args.operands) != 1:
                        raise ConfigurationError("get expects KEY")
                    found, value = await client.get(args.operands[0])
                    print(f"{args.operands[0]} = {value!r}"
                          if found else f"{args.operands[0]} is unset")
                elif args.op == "status":
                    replies = await client.status()
                    for pid, status in sorted(replies.items()):
                        print(
                            f"replica {pid}: applied={status.applied} "
                            f"committed={status.committed} "
                            f"digest={status.digest[:12]} "
                            f"transfers={status.transfers} "
                            f"rejected={status.suffix_rejections}"
                        )
                else:
                    stats = await client.workload(
                        args.requests, concurrency=args.concurrency
                    )
                    print(json.dumps(stats, indent=2, sort_keys=True))
            finally:
                await client.close()
            return 0

        return asyncio.run(drive())

    # cluster
    verdict = asyncio.run(
        run_cluster_smoke(
            replicas=args.replicas,
            requests=args.requests,
            kill_pid=args.kill,
            seed=args.seed,
            workdir=args.workdir,
            concurrency=args.concurrency,
        )
    )
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict["ok"] else 1


def cmd_shard(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.net.cluster import free_port
    from repro.shard import (
        ShardGenesis,
        ShardedNetClient,
        run_loopback_smoke,
        run_shard_smoke,
        shard_of,
        smoke_json,
    )

    if args.shard_command == "keygen":
        if args.base_port:
            addresses = tuple(
                tuple(
                    (
                        args.host,
                        args.base_port
                        + shard * args.replicas_per_shard
                        + pid,
                    )
                    for pid in range(args.replicas_per_shard)
                )
                for shard in range(args.shards)
            )
        else:
            addresses = tuple(
                tuple(
                    (args.host, free_port())
                    for _ in range(args.replicas_per_shard)
                )
                for _ in range(args.shards)
            )
        genesis = ShardGenesis(
            name=args.name,
            seed=args.seed,
            n_shards=args.shards,
            replicas_per_shard=args.replicas_per_shard,
            max_clients=args.clients,
            addresses=addresses,
        )
        genesis.validate()
        path = genesis.save(args.out)
        print(f"shard genesis {genesis.shard_genesis_id()} written to {path}")
        for shard in range(args.shards):
            sub_genesis = genesis.genesis_for(shard)
            print(f"  shard {shard} (genesis {sub_genesis.genesis_id()}):")
            for pid, (host, port) in enumerate(addresses[shard]):
                print(f"    replica {pid}: {host}:{port}")
        return 0

    if args.shard_command == "route":
        if args.genesis:
            n_shards = ShardGenesis.load(args.genesis).n_shards
        elif args.shards is not None:
            n_shards = args.shards
        else:
            raise ConfigurationError("route needs --genesis or --shards")
        for key in args.keys:
            print(f"{key} -> shard {shard_of(key, n_shards)}")
        return 0

    if args.shard_command == "client":
        genesis = ShardGenesis.load(args.genesis)

        async def drive() -> int:
            client = ShardedNetClient(genesis, args.index)
            try:
                if args.op == "set":
                    if len(args.operands) != 2:
                        raise ConfigurationError("set expects KEY VALUE")
                    key, value = args.operands
                    shard = client.shard_for(key)
                    slot = await client.set(key, value)
                    print(
                        f"committed {key}={value} "
                        f"(shard {shard}, slot {slot})"
                    )
                elif args.op == "get":
                    if len(args.operands) != 1:
                        raise ConfigurationError("get expects KEY")
                    key = args.operands[0]
                    found, value = await client.get(key)
                    shard = client.shard_for(key)
                    print(
                        f"{key} = {value!r} (shard {shard})"
                        if found
                        else f"{key} is unset (shard {shard})"
                    )
                elif args.op == "status":
                    for shard, replies in sorted(
                        (await client.status()).items()
                    ):
                        print(f"shard {shard}:")
                        for pid, status in sorted(replies.items()):
                            print(
                                f"  replica {pid}: applied={status.applied} "
                                f"committed={status.committed} "
                                f"digest={status.digest[:12]} "
                                f"transfers={status.transfers}"
                            )
                else:
                    stats = await client.workload(
                        args.requests, concurrency=args.concurrency
                    )
                    print(json.dumps(stats, indent=2, sort_keys=True))
            finally:
                await client.close()
            return 0

        return asyncio.run(drive())

    if args.shard_command == "cluster":
        verdict = asyncio.run(
            run_shard_smoke(
                shards=args.shards,
                replicas_per_shard=args.replicas_per_shard,
                requests=args.requests,
                kill_shard=args.kill_shard,
                kill_pid=args.kill_pid,
                seed=args.seed,
                workdir=args.workdir,
                concurrency=args.concurrency,
            )
        )
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0 if verdict["ok"] else 1

    # loopback
    record = run_loopback_smoke(
        shards=args.shards,
        replicas_per_shard=args.replicas_per_shard,
        requests=args.requests,
        seed=args.seed,
        kill_shard=None if args.no_kill else args.kill_shard,
        kill_pid=args.kill_pid,
    )
    text = smoke_json(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    print(
        f"shard loopback smoke: {'ok' if record['ok'] else 'FAILED'} "
        f"({record['shards']} shards x {record['replicas_per_shard']} "
        f"replicas, {record['completed']}/{record['requests']} completed)",
        file=sys.stderr,
    )
    return 0 if record["ok"] else 1


def cmd_mc(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.mc import (
        Explorer,
        McConfig,
        Stepper,
        check_state,
        counterexample_scenario,
        load_artifact,
    )
    from repro.mc.mutations import apply_mutation

    def summarize(result) -> int:
        record = {
            "config_id": result.config.config_id,
            "states_explored": result.states_explored,
            "states_pruned": result.states_pruned,
            "frontier_depth": result.frontier_depth,
            "transitions": result.transitions,
            "stop_reason": result.stop_reason,
            "violations": [
                {"path": [list(l) for l in v.path], "violations": list(v.violations)}
                for v in result.violations
            ],
        }
        if args.json:
            print(json_module.dumps(record, indent=2, sort_keys=True))
        else:
            print_table(
                f"mc exploration {result.config.config_id} "
                f"({result.config.strategy}, depth <= {result.config.max_depth})",
                ["metric", "value"],
                [
                    ["states explored", result.states_explored],
                    ["states pruned", result.states_pruned],
                    ["frontier depth", result.frontier_depth],
                    ["transitions", result.transitions],
                    ["stop reason", result.stop_reason],
                    ["violations", len(result.violations)],
                ],
            )
            for violation in result.violations:
                print(f"counterexample ({len(violation.path)} steps):")
                for problem in violation.violations:
                    print(f"  {problem}")
        return 1 if result.violations else 0

    if args.mc_command == "run":
        alphabet = tuple(
            part.strip() for part in (args.alphabet or "").split(",") if part.strip()
        )
        config = McConfig(
            adversary=args.adversary,
            alphabet=alphabet,
            max_depth=args.max_depth,
            max_states=args.max_states,
            max_rounds=args.max_rounds,
            strategy=args.strategy,
            mutation=args.mutation,
            seed=args.seed,
            stop_on_violation=args.stop_on_violation,
            suppress_d=args.suppress_d,
        )
        config.validate()
        return summarize(Explorer(config, args.out).run())

    if args.mc_command == "resume":
        return summarize(Explorer.resume(args.artifact))

    # replay: re-check the recorded counterexample against the live stack,
    # then map it onto a campaign scenario (optionally shrinking it).
    config, records = load_artifact(args.artifact)
    violations = [r for r in records if r["type"] == "violation"]
    if not violations:
        raise ConfigurationError(f"{args.artifact} records no violations")
    if not 0 <= args.index < len(violations):
        raise ConfigurationError(
            f"--index {args.index} out of range; artifact has "
            f"{len(violations)} violation(s)"
        )
    chosen = violations[args.index]
    path = tuple(tuple(label) for label in chosen["path"])
    with apply_mutation(config.mutation):
        stepper = Stepper.replay(config, path)
        reproduced = check_state(stepper.system)
        scenario = counterexample_scenario(config, path)
        shrink_record = None
        if args.shrink:
            from repro.campaign import shrink_scenario

            shrink_record = shrink_scenario(scenario).to_record()
    record = {
        "path": [list(label) for label in path],
        "recorded": list(chosen["violations"]),
        "reproduced": reproduced,
        "reproduces": sorted(reproduced) == sorted(chosen["violations"]),
        "scenario": scenario.to_config(),
        "scenario_id": scenario.scenario_id,
        "shrink": shrink_record,
    }
    if args.json:
        print(json_module.dumps(record, indent=2, sort_keys=True))
    else:
        status = "reproduces" if record["reproduces"] else "DIVERGED"
        print(f"counterexample replay ({len(path)} steps): {status}")
        for problem in reproduced:
            print(f"  {problem}")
        print(f"campaign scenario: {scenario.scenario_id}")
        if shrink_record is not None:
            print(
                f"shrunk in {len(shrink_record['steps'])} step(s) to "
                f"scenario {shrink_record['minimal_id']}"
            )
    return 0 if record["reproduces"] else 1


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.analysis.perf import smoke_json, smoke_ok, smoke_record

    record = smoke_record()
    text = smoke_json(record) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    ok = smoke_ok(record)
    print(
        f"perf smoke: {'ok' if ok else 'FAILED'} "
        f"({len(record['cells'])} cells, equivalence "
        f"{'held' if record['equivalence']['equivalent'] else 'BROKEN'})",
        file=sys.stderr,
    )
    return 0 if ok else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import print_table as table
    from repro.analysis.suite import discover, run_experiments

    available = discover()
    if args.list or not args.only:
        table(
            "available experiments (see DESIGN.md §3 / EXPERIMENTS.md)",
            ["id", "benchmark file"],
            [[key, available[key].name] for key in sorted(
                available, key=lambda k: int(k[1:])
            )],
        )
        if not args.only:
            print("run some with: python -m repro experiments --only e3,e13")
        return 0
    selected = [key.strip() for key in args.only.split(",") if key.strip()]
    results = run_experiments(only=selected)
    for key, result in results.items():
        rows = result[0] if isinstance(result, tuple) else result
        width = max(len(row) for row in rows)
        table(
            f"{key.upper()} — {available[key].stem.removeprefix('test_')}",
            [f"col {i}" for i in range(width)],
            rows,
        )
    print(
        "(column legends and shape assertions live in the benchmark files; "
        "run `pytest benchmarks/ --benchmark-only -s` for the full report)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "report": cmd_report,
        "gallery": cmd_gallery,
        "attacks": cmd_attacks,
        "params": cmd_params,
        "campaign": cmd_campaign,
        "service": cmd_service,
        "net": cmd_net,
        "shard": cmd_shard,
        "mc": cmd_mc,
        "perf": cmd_perf,
        "experiments": cmd_experiments,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
