"""Workload ``tcp-mixed``: four replica processes over real TCP on 127.0.0.1.

The benchmark process drives a :class:`~repro.net.cluster.LocalCluster`
(genesis defaults: batch 8, window 4, checkpoint every 4) through one
:class:`~repro.net.client.NetClient` identity on one asyncio loop, with
one connection per replica -- the minimum for f+1 replies.

* Phase (a), open loop: Poisson arrivals at :data:`OPEN_RATE` ops/s,
  about half the closed-loop peak on a 2-core host; 4 sets of 256-byte
  values to 1 get, keys from one seeded skewed distribution over 1,024
  keys, so most reads find a written key and some race a write. Each
  operation is timed from its due time.
* Phase (b), closed loop: :data:`IN_FLIGHT` outstanding sets, beyond the
  knee where throughput stops rising.

This is the only workload with sockets, the asyncio transport queues,
the frame assembler and five processes sharing the host's cores. Gets
use the transport and wire layers but skip consensus and crypto, so a
change that trades read speed for write speed shows here.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.net.client import NetClient, NetClientError
from repro.net.cluster import LocalCluster, free_port
from repro.net.genesis import Genesis

import tracing
from common import (
    OUT,
    Outcome,
    median,
    proc_cpu_seconds,
    provenance,
    proc_hwm_mb,
    ratio,
    sum_totals,
    timing,
)
from layers import PER_LAYER, registry_layers, span_counts, span_times

NAME = "tcp-mixed"
REPLICAS = 4
#: Key material of the deployment; the workload seed drives only the load.
GENESIS_SEED = 0
KEYS = 1024
#: Zipf exponent of the key distribution.
SKEW = 1.1
VALUE_BYTES = 256
SET_SHARE = 0.8
OPEN_RATE = 55.0
IN_FLIGHT = 32
#: Share of ``--seconds`` spent in phase (a); phase (b) gets the rest.
OPEN_SHARE = 0.5
#: Phase-(a) latency limit of ``within_limit_ratio``.
LIMIT_MS = 250.0
#: Clusters started per untraced run; ``setup_s`` is their median.
SETUPS = 5
READY_TIMEOUT_S = 30.0
#: Phase (b) times each block of this many consecutive commits; its
#: commit rate is the median block's, so a burst of load from other
#: processes on the host moves it less.
BLOCK = IN_FLIGHT
#: How long phase-(a) stragglers and the final convergence may take.
GRACE_S = 20.0
HOOK = Path(__file__).resolve().parent / "hook"


@dataclass
class Op:
    at: float
    kind: str
    key: str
    value: str | None = None


@dataclass
class Phases:
    """What the client saw over phases (a) and (b) of one cluster."""

    set_ms: list[float] = field(default_factory=list)
    get_ms: list[float] = field(default_factory=list)
    quorum_wait_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    open_ops: int = 0
    open_within_limit: int = 0
    attempted: int = 0
    failed: int = 0
    foreign_reads: int = 0
    commits: int = 0
    #: Phase-(b) commits per second of each block of :data:`BLOCK` commits.
    closed_rates: list[float] = field(default_factory=list)
    #: CPU seconds of the replicas and the client in the two phases.
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


class Load:
    """The seeded inputs: the open-loop schedule and the closed-loop sets."""

    def __init__(self, seed: int, open_seconds: float) -> None:
        rng = random.Random(seed)
        weights = list(itertools.accumulate(1 / (rank + 1) ** SKEW for rank in range(KEYS)))
        self._rng = rng
        self._weights = weights
        self.schedule: list[Op] = []
        at = rng.expovariate(OPEN_RATE)
        while at < open_seconds:
            if rng.random() < SET_SHARE:
                self.schedule.append(Op(at, "set", self.key(), self.value()))
            else:
                self.schedule.append(Op(at, "get", self.key()))
            at += rng.expovariate(OPEN_RATE)

    def key(self) -> str:
        rank = self._rng.choices(range(KEYS), cum_weights=self._weights)[0]
        return f"k{rank}"

    def value(self) -> str:
        return self._rng.randbytes(VALUE_BYTES // 2).hex()

    def sets(self) -> Iterator[tuple[str, str]]:
        while True:
            yield self.key(), self.value()


def genesis() -> Genesis:
    value = Genesis(
        name="perfbench",
        seed=GENESIS_SEED,
        n_replicas=REPLICAS,
        addresses=tuple(("127.0.0.1", free_port()) for _ in range(REPLICAS)),
    )
    value.validate()
    return value


class Deployment:
    """One cluster plus its client; :meth:`close` stops every process."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.trace_dir = workdir / "trace" if traced else None
        self.genesis = genesis()
        self.cluster = LocalCluster(self.genesis, workdir)
        self.client = NetClient(self.genesis, 0)
        self.pids: list[int] = []
        self.exit_codes: dict[int, int] | None = None
        #: The client's own span window of a traced run.
        self.client_window: dict[str, Any] | None = None

    async def start(self) -> float:
        """Spawn the replicas; seconds until every one answers a status probe."""
        started = time.perf_counter()
        # LocalCluster hands its replicas this process's environment, so
        # the hook reaches them through it for the length of the spawn.
        saved = {key: os.environ.get(key) for key in ("PYTHONPATH", "PERFBENCH_TRACE_DIR")}
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            os.environ["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(HOOK), saved["PYTHONPATH"]) if p
            )
        try:
            self.pids = [self.cluster.spawn(pid).pid for pid in range(REPLICAS)]
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if len(await self.client.status(timeout=0.05)) == REPLICAS:
                return time.perf_counter() - started
            await asyncio.sleep(0.02)
        raise RuntimeError("cluster not ready")

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    async def close(self) -> None:
        await self.client.close()
        self.exit_codes = self.cluster.terminate_all()

    def artifacts(self) -> dict[str, Any]:
        """Counters of the replicas' JSONL metrics artifacts, after shutdown."""
        totals = []
        for path in sorted((self.workdir / "metrics").glob("node-*.jsonl")):
            per_module: dict[str, dict[str, float]] = {}
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("kind") == "metric" and record.get("metric") == "counter":
                        module = per_module.setdefault(record["module"], {})
                        module[record["name"]] = module.get(record["name"], 0) + record["value"]
            totals.append(per_module)
        return sum_totals(totals)


async def _one(client: NetClient, op: Op, due: float, written: dict, out: Phases) -> None:
    loop = asyncio.get_running_loop()
    sent = loop.time()
    try:
        if op.kind == "set":
            written.setdefault(op.key, set()).add(op.value)
            await client.set(op.key, op.value)
        else:
            found, value = await client.get(op.key)
            if found and value not in written.get(op.key, ()):
                out.foreign_reads += 1
                out.failed += 1
                return
    except NetClientError:
        out.failed += 1
        return
    done = loop.time()
    latency = 1000 * (done - due)
    (out.set_ms if op.kind == "set" else out.get_ms).append(latency)
    out.quorum_wait_ms.append(1000 * (done - sent))
    out.open_within_limit += latency <= LIMIT_MS


async def open_loop(client: NetClient, schedule: list[Op], written: dict, out: Phases) -> None:
    loop = asyncio.get_running_loop()
    start = loop.time()
    tasks = []
    for op in schedule:
        due = start + op.at
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        out.lag_ms.append(1000 * max(0.0, loop.time() - due))
        tasks.append(loop.create_task(_one(client, op, due, written, out)))
    done, pending = await asyncio.wait(tasks, timeout=GRACE_S) if tasks else (set(), set())
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    out.failed += len(pending)
    out.open_ops += len(schedule)
    out.attempted += len(schedule)


async def closed_loop(
    client: NetClient, sets: Iterator[tuple[str, str]], seconds: float, written: dict, out: Phases
) -> None:
    loop = asyncio.get_running_loop()
    start = loop.time()
    deadline = start + seconds
    done_at: list[float] = []

    async def worker() -> None:
        while loop.time() < deadline:
            key, value = next(sets)
            written.setdefault(key, set()).add(value)
            out.attempted += 1
            try:
                await client.set(key, value)
            except NetClientError:
                out.failed += 1
                continue
            done_at.append(loop.time())

    await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))
    edges = [start] + done_at[BLOCK - 1 :: BLOCK]
    out.closed_rates = [BLOCK / (b - a) for a, b in zip(edges, edges[1:])] or [
        len(done_at) / (loop.time() - start)
    ]


async def run_phases(dep: Deployment, load: Load, seconds: float) -> Phases:
    """Phases (a) and (b), with replica CPU and memory read around them."""
    out = Phases()
    written: dict[str, set[str]] = {}
    pids = dep.pids

    def cpu_now() -> float:
        return sum(proc_cpu_seconds(pid) for pid in pids) + time.process_time()

    sets_before = dep.client.sets_completed
    started = cpu_now()
    await open_loop(dep.client, load.schedule, written, out)
    await closed_loop(dep.client, load.sets(), seconds * (1 - OPEN_SHARE), written, out)
    out.cpu_s = cpu_now() - started
    out.peak_rss_mb = max(proc_hwm_mb(pid) for pid in pids)
    out.commits = dep.client.sets_completed - sets_before
    return out


async def converge(dep: Deployment, sentinel: str) -> dict[str, bool]:
    """The end-of-run gates: agreement, exactly-once, and a quorum read."""
    client = dep.client
    loop = asyncio.get_running_loop()

    async def agree() -> bool:
        deadline = loop.time() + GRACE_S
        nudge = 0
        while loop.time() < deadline:
            replies = await client.status(timeout=1.0)
            if (
                len(replies) == REPLICAS
                and len({status.digest for status in replies.values()}) == 1
                and {status.committed for status in replies.values()} == {client.sets_completed}
            ):
                return True
            # New commits make new checkpoints, whose certificates let a
            # replica that lost frames notice its gap and transfer state.
            await client.set("nudge", f"n{nudge}")
            nudge += 1
            await asyncio.sleep(0.3)
        return False

    checks = {"digests_agree_committed_exactly_once": await agree()}
    await client.set("sentinel", sentinel)
    checks["sentinel_committed_everywhere"] = await agree()
    found, value = await client.get("sentinel")
    checks["quorum_get_returns_last_sentinel"] = found and value == sentinel
    return checks


async def _measure(seed: int, seconds: float, traced: bool) -> Outcome:
    # A traced run spends half its time on an untraced cluster and half
    # on a traced one, each running both phases.
    per_cluster = seconds / 2 if traced else seconds
    load = Load(seed, per_cluster * OPEN_SHARE)
    base = OUT / f"tcp-{os.getpid()}"
    outcome = Outcome()
    setups: list[float] = []
    clean = False  # a failed run keeps its replica logs under ``base``
    try:
        if not traced:
            for index in range(SETUPS - 1):
                dep = Deployment(base / f"setup-{index}", traced=False)
                try:
                    setups.append(await dep.start())
                finally:
                    await dep.close()
        plain = Deployment(base / "plain", traced=False)
        phases, checks = await _run(plain, load, per_cluster, seed, setups)
        outcome.checks.update(checks)
        _end_to_end(outcome, phases, setups, plain)
        if traced:
            dep = Deployment(base / "traced", traced=True)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_phases, traced_checks = await _run(
                    dep, load, per_cluster, seed, [], tracer
                )
            finally:
                tracer.uninstall()
            tracer.dump(
                OUT / f"spans-{NAME}-client.jsonl",
                {"workload": NAME, "seed": seed, **provenance()},
            )
            outcome.checks.update({f"traced_{k}": ok for k, ok in traced_checks.items()})
            outcome.per_layer = _per_layer(dep, traced_phases, outcome, phases)
        clean = outcome.correct
    finally:
        if clean:
            shutil.rmtree(base, ignore_errors=True)
    return outcome


async def _run(
    dep: Deployment,
    load: Load,
    seconds: float,
    seed: int,
    setups: list[float],
    tracer: tracing.Tracer | None = None,
) -> tuple[Phases, dict[str, bool]]:
    """Start ``dep``, run both phases and the end-of-run gates, stop it.

    With a ``tracer`` (already installed here, and through the hook in
    the replicas) the timed phases are the traced window.
    """
    try:
        setups.append(await dep.start())
        if tracer is not None:
            dep.signal_all(signal.SIGUSR1)
            tracer.reset_unique()
            before = tracer.snapshot()
        phases = await run_phases(dep, load, seconds)
        if tracer is not None:
            dep.client_window = tracing.delta(tracer.snapshot(), before)
            dep.signal_all(signal.SIGUSR2)
        checks = await converge(dep, f"sentinel-{seed}")
    finally:
        await dep.close()
    checks["replicas_exit_cleanly"] = all(code == 0 for code in dep.exit_codes.values())
    checks["every_operation_completed"] = phases.failed == 0
    return phases, checks


def closed_rate(phases: Phases) -> float:
    return median(phases.closed_rates)


def _end_to_end(outcome: Outcome, phases: Phases, setups: list[float], dep: Deployment) -> None:
    sets = timing(phases.set_ms)
    gets = timing(phases.get_ms)
    artifacts = dep.artifacts()
    outcome.attempted = phases.attempted
    outcome.failed = phases.failed
    outcome.end_to_end = {
        "setup_s": median(setups),
        "commit_rate": closed_rate(phases),
        "cpu_ms_per_commit": 1000 * phases.cpu_s / max(phases.commits, 1),
        "peak_rss_mb": phases.peak_rss_mb,
        "set_p50_ms": sets.get("p50", 0.0),
    }
    extra = {
        "set_p99_ms": sets.get("p99", 0.0),
        "wire_bytes_per_commit": ratio(
            artifacts.get("net", {}).get("bytes_sent", 0), dep.client.sets_completed
        ),
        "get_p50_ms": gets.get("p50", 0.0),
        "get_p99_ms": gets.get("p99", 0.0),
        "within_limit_ratio": ratio(phases.open_within_limit, phases.open_ops),
    }
    outcome.detail = {
        "failed_ratio": ratio(phases.failed, phases.attempted),
        "extra": extra,
        "set_latency_ms": sets,
        "get_latency_ms": gets,
        "setup_samples": len(setups),
        "commits": phases.commits,
        "closed_loop_block_rates": phases.closed_rates,
        "foreign_reads": phases.foreign_reads,
        "gen_lag_ms": timing(phases.lag_ms),
        "replica_artifacts": {
            name: artifacts.get("net", {}).get(name, 0)
            for name in ("bytes_sent", "frames_sent", "frames_dropped", "peer_reconnects")
        },
        "limit_ms": LIMIT_MS,
    }


def _per_layer(dep: Deployment, phases: Phases, outcome: Outcome, plain: Phases) -> dict[str, float]:
    windows = [dep.client_window]
    registry: list[dict[str, dict[str, float]]] = []
    for path in sorted(dep.trace_dir.glob("replica-*.json")):
        replica = path.name.split("-")[1]
        # The work directory goes when the run ends; the spans stay.
        shutil.copyfile(
            path.with_name(path.stem + "-spans.jsonl"),
            OUT / f"spans-{NAME}-replica-{replica}.jsonl",
        )
        marks = json.loads(path.read_text(encoding="utf-8"))
        windows.append(tracing.delta(marks["end"]["tracer"], marks["begin"]["tracer"]))
        before = sum_totals(marks["begin"]["registry"])
        after = sum_totals(marks["end"]["registry"])
        registry.append(
            {
                module: {name: value - before.get(module, {}).get(name, 0) for name, value in counters.items()}
                for module, counters in after.items()
            }
        )
    outcome.checks["traced_replicas_reported"] = len(windows) == REPLICAS + 1
    window = tracing.merge(windows)
    totals = sum_totals(registry)
    net = totals.get("net", {})
    commits = max(phases.commits, 1)
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    values.update(span_times(window, commits))
    values.update(span_counts(window, commits))
    values.update(registry_layers(totals, commits))
    values.update(outcome.detail["extra"])
    values.update(
        {
            "net.wire.rejected": net.get("frames_rejected", 0) + net.get("hello_rejected", 0),
            "net.transport.frames_sent": net.get("frames_sent", 0) / commits,
            "net.transport.frames_dropped": net.get("frames_dropped", 0)
            + net.get("client_frames_dropped", 0),
            "net.transport.reconnects": net.get("peer_reconnects", 0),
            "net.client.resubmissions": dep.client.resubmissions,
            "net.client.quorum_wait_ms_p50": timing(phases.quorum_wait_ms).get("p50", 0.0),
            "gen.lag_ms_p99": timing(phases.lag_ms).get("p99", 0.0),
            "trace.overhead_ratio": 1 - closed_rate(phases) / closed_rate(plain),
            "failed_ratio": ratio(plain.failed + phases.failed, plain.attempted + phases.attempted),
        }
    )
    return values


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    return asyncio.run(_measure(seed, seconds, traced))
