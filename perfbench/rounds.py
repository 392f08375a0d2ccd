"""The measuring loop of the two in-process workloads.

Both run a deterministic deployment on virtual time, so their wall time
is pure CPU cost. A *round* builds a fresh deployment and drives one
seeded input through it; the loop repeats rounds until the time budget
is spent. Rounds cycle through :data:`CYCLE` inputs derived from the
run's seed, so a run's medians average over several schedules. Each
input is replayed every :data:`CYCLE` rounds, and a replay must repeat
its work counts and final state exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from common import (
    Outcome,
    host_factor,
    median,
    peak_rss_mb,
    ratio,
    reference_sample,
    timing,
)
from tracing import Tracer, delta

#: Deployments built (and timed) per round; the last one runs. Building
#: is cheap next to a round, so a run collects many set-up samples.
BUILDS_PER_ROUND = 5
#: Distinct inputs a run cycles through.
CYCLE = 8

#: ``make(input_index) -> (build, drive)``: the deployment factory and
#: the function that drives a round of one of the run's inputs.
Inputs = Callable[[int], tuple[Callable[[], Any], Callable[[Any, "Window"], "Round"]]]


def input_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th input (distinct across run seeds)."""
    return seed * CYCLE + index


@dataclass
class Round:
    """One seeded input driven through a fresh deployment."""

    commits: int
    attempted: int
    failed: int
    #: Wall and process-CPU seconds of the measured part of the round.
    busy_s: float
    cpu_s: float
    #: Wall-clock ms from each set's due time to its f+1th reply.
    set_latencies_ms: list[float]
    checks: dict[str, bool]
    #: Work counts and protocol outcomes; identical in every replay.
    counts: dict[str, Any]
    #: Final replicated state; identical in every replay.
    digest: str
    #: Which of the run's inputs the round drove.
    input: int = 0
    setup_s: list[float] = field(default_factory=list)
    #: Host calibration: the mean of the reference samples taken just
    #: before and just after the round (common.reference_sample).
    reference_s: float = 0.0
    #: The host factor the round's timings are scaled by (run_rounds).
    host: float = 1.0
    trace: dict[str, Any] | None = None


class Window:
    """The measured part of a round: wall and CPU time, and its spans."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.trace: dict[str, Any] | None = None
        self.started = self.wall_s = self.cpu_s = 0.0

    def __enter__(self) -> "Window":
        if self.tracer is not None:
            self.tracer.reset_unique()
            self._before = self.tracer.snapshot()
        self._cpu = time.process_time()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s = time.perf_counter() - self.started
        self.cpu_s = time.process_time() - self._cpu
        if self.tracer is not None:
            self.trace = delta(self.tracer.snapshot(), self._before)


def run_rounds(
    make: Inputs, seconds: float, each_round: bool, tracer: Tracer | None = None
) -> list[Round]:
    """Rounds until ``seconds`` of wall time are used (at least one).

    A round starts only if the mean round so far still fits the budget,
    so a run measures close to ``seconds`` whatever the round length.
    With ``each_round`` a round's timings are scaled by the host factor
    of the samples taken around it; otherwise every round is scaled by
    the run's factor, the median of all its samples.
    """
    rounds: list[Round] = []
    started = time.perf_counter()
    before = reference_sample()
    while True:
        index = len(rounds) % CYCLE
        build, drive = make(index)
        setups = []
        for _ in range(BUILDS_PER_ROUND):
            t0 = time.perf_counter()
            system = build()
            setups.append(time.perf_counter() - t0)
        window = Window(tracer)
        result = drive(system, window)
        result.trace = window.trace
        result.input = index
        result.setup_s = setups
        after = reference_sample()
        result.reference_s = (before + after) / 2
        before = after
        rounds.append(result)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
    run = factor(rounds)
    for r in rounds:
        r.host = host_factor([r.reference_s]) if each_round else run
    return rounds


def factor(rounds: list[Round]) -> float:
    """The host factor of a set of rounds (for figures pooled over them)."""
    return host_factor([r.reference_s for r in rounds])


def per_input_median(rounds: list[Round], value: Callable[[Round], float]) -> float:
    """The median over inputs of each input's median round ``value``.

    Inputs differ in work by a few percent, and a run fits a varying
    number of rounds of each; taking each input's median first keeps
    that mix out of the figure. The median over rounds keeps a burst of
    load that slows a round or two out of it.
    """
    by_input: dict[int, list[float]] = {}
    for r in rounds:
        by_input.setdefault(r.input, []).append(value(r))
    return median(median(values) for values in by_input.values())


def commit_rate(rounds: list[Round]) -> float:
    """Commits per wall-clock second, each round scaled to nominal speed
    by its host factor."""
    return per_input_median(rounds, lambda r: r.commits / r.busy_s * r.host)


def summarize(rounds: list[Round]) -> Outcome:
    """The end-to-end metrics and gates of an untraced set of rounds."""
    commits = sum(r.commits for r in rounds)
    sets = timing([ms for r in rounds for ms in r.set_latencies_ms])
    checks: dict[str, bool] = {}
    for r in rounds:
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and ok
    first: dict[int, Round] = {}
    for r in rounds:
        first.setdefault(r.input, r)
    checks["replays_identical"] = all(
        r.counts == first[r.input].counts and r.digest == first[r.input].digest
        for r in rounds
    )
    outcome = Outcome(
        checks=checks,
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
    )
    raw = {
        "setup_s": median(s for r in rounds for s in r.setup_s),
        "commit_rate": median(r.commits / r.busy_s for r in rounds),
        "cpu_ms_per_commit": median(1000 * r.cpu_s / max(r.commits, 1) for r in rounds),
        "set_p50_ms": median(timing(r.set_latencies_ms).get("p50", 0.0) for r in rounds),
    }
    host = factor(rounds)

    def scaled(r: Round, value: float) -> float:
        return value / r.host

    outcome.end_to_end = {
        "setup_s": median(scaled(r, s) for r in rounds for s in r.setup_s),
        "commit_rate": commit_rate(rounds),
        "cpu_ms_per_commit": per_input_median(
            rounds, lambda r: scaled(r, 1000 * r.cpu_s / max(r.commits, 1))
        ),
        "peak_rss_mb": peak_rss_mb(),
        "set_p50_ms": per_input_median(
            rounds, lambda r: scaled(r, timing(r.set_latencies_ms).get("p50", 0.0))
        ),
    }
    outcome.detail = {
        "host_factor": host,
        "unscaled": raw,
        "rounds": len(rounds),
        "commits": commits,
        "failed_ratio": ratio(outcome.failed, outcome.attempted),
        "set_latency_ms": sets,
        "extra": {"set_p99_ms": sets.get("p99", 0.0) / host},
        "setup_samples": sum(len(r.setup_s) for r in rounds),
        "counts": rounds[0].counts,
    }
    return outcome
