"""Point-to-point network: reliable FIFO by default, faulty on request.

The default configuration implements exactly the channel assumptions of
the paper's model (Section 2): every pair of processes is connected by a
*reliable* channel (no loss, no duplication, no corruption in transit)
that is *FIFO*, with no bound on transfer delays. Delay distributions are
pluggable so the adversary can delay messages arbitrarily (but finitely)
— the standard way to model asynchrony in a discrete-event simulator.

A :class:`LinkModel` turns the substrate into the network a production
deployment actually faces: per-link message loss, duplication, burst
reordering and scripted (healing) :class:`Partition` windows, all drawn
from seeded per-link streams so faulty runs replay exactly. It is the
one link-fault engine of the repo: the fault-plan injector
(:mod:`repro.faults.injector`) composes one for its link noise. The
paper's channel assumptions are then *restored* one layer up by
:mod:`repro.sim.transport`, whose seq/ack/retransmit machinery is what
lets the five Figure-1 modules run unmodified above a lossy fabric (see
``docs/NETWORK.md``).

Corruption and *process* omission remain process faults in this paper and
live in :mod:`repro.byzantine`; what lives here is strictly what a wire
can do to a frame in transit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

from repro.errors import ConfigurationError, NetworkError
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_NETWORK,
    NULL_METRICS,
    MetricsRegistry,
)
from repro.sim.rng import SeededRng
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

DeliverCallback = Callable[[int, Any], None]

#: One copy the wire delivers: ``(payload, extra_delay)``. A positive
#: ``extra_delay`` escapes the FIFO clamp, so later traffic on the
#: channel may overtake the copy — unless the link is held (see
#: :meth:`LinkFaults.held_until`).
Delivery = tuple[Any, float]


class LinkFaults(Protocol):
    """What the wire does to one ``src -> dst`` message (``src != dst``).

    ``None`` passes the message untouched; otherwise every
    :data:`Delivery` in the list is scheduled: the empty list destroys
    the message, more than one entry duplicates it.
    """

    def deliveries(
        self, now: float, src: int, dst: int, payload: Any
    ) -> list[Delivery] | None: ...

    def held_until(self, now: float, src: int, dst: int) -> float | None:
        """The instant a partition cutting ``src -> dst`` at ``now`` heals.

        ``None`` when the link is not cut. A held message is released at
        the heal in FIFO order with the rest of its channel, like the
        buffered frames of a cut TCP connection; it is never lost.
        """
        ...


# Minimal spacing inserted between two deliveries on the same channel so
# FIFO order is preserved even when a sampled delay would reorder them.
_FIFO_EPSILON = 1e-9


class DelayModel(Protocol):
    """Strategy drawing the transfer delay of one message."""

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        """Return a finite, non-negative delay for a ``src -> dst`` message."""
        ...


class FixedDelay:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise NetworkError(f"negative delay {delay!r}")
        self.delay = delay

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return self.delay


class UniformDelay:
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise NetworkError(f"invalid delay range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialDelay:
    """Heavy-ish tailed delays: ``base + Exp(mean)`` capped at ``cap``.

    The cap keeps every delay finite, as the asynchronous model requires
    (messages are eventually delivered).
    """

    def __init__(self, mean: float = 1.0, base: float = 0.1, cap: float = 50.0) -> None:
        if mean <= 0 or base < 0 or cap <= base:
            raise NetworkError("invalid exponential delay parameters")
        self.mean = mean
        self.base = base
        self.cap = cap

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return min(self.base + rng.expovariate(1.0 / self.mean), self.cap)


class ScriptedDelay:
    """Payload-aware delays: the adversarial scheduler of experiment E14.

    Rules are ``(matcher, delay)`` pairs evaluated in order; the first
    matcher returning True fixes the message's delay, otherwise the
    default applies. Matchers receive ``(src, dst, payload)``, so the
    adversary can, e.g., rush a NEXT past the CURRENT that preceded it on
    the same channel — which is only deliverable on a non-FIFO network.
    """

    def __init__(
        self,
        rules: list[tuple["ScriptMatcher", float]],
        default: float = 1.0,
    ) -> None:
        self.rules = list(rules)
        self.default = default

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        return self.default

    def sample_for(
        self, rng: SeededRng, src: int, dst: int, payload: Any
    ) -> float:
        for matcher, delay in self.rules:
            if matcher(src, dst, payload):
                return delay
        return self.default


ScriptMatcher = Callable[[int, int, Any], bool]


class TargetedSlowdown:
    """Adversarial asynchrony: traffic touching ``slow`` processes is dilated.

    Used by experiments to provoke wrongful suspicions of correct
    processes (the failure-detector mistakes the paper allows).
    """

    def __init__(
        self,
        inner: DelayModel,
        slow: frozenset[int] | set[int],
        factor: float = 10.0,
    ) -> None:
        if factor < 1.0:
            raise NetworkError(f"slowdown factor must be >= 1, got {factor!r}")
        self.inner = inner
        self.slow = frozenset(slow)
        self.factor = factor

    def sample(self, rng: SeededRng, src: int, dst: int) -> float:
        delay = self.inner.sample(rng, src, dst)
        if src in self.slow or dst in self.slow:
            return delay * self.factor
        return delay


@dataclass(frozen=True, slots=True)
class Partition:
    """A scripted network partition that later heals.

    During ``[start, heal)`` every message whose endpoints sit in
    *different* groups is withheld: the wire holds it and delivers it
    after ``heal``, in send order, the way a cut TCP link flushes its
    buffers once connectivity returns. To the processes a partition is
    only a long (finite) transfer delay, which the paper's reliable FIFO
    channels allow. Pids absent from every group are unaffected —
    list a pid in some group to make it partitionable. Groups must be
    disjoint.
    """

    start: float
    heal: float
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.start < 0 or self.heal <= self.start:
            raise ConfigurationError(
                f"partition window [{self.start}, {self.heal}) is not a "
                "non-empty forward window"
            )
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ConfigurationError("empty partition group")
            overlap = seen & set(group)
            if overlap:
                raise ConfigurationError(
                    f"pids {sorted(overlap)} appear in two partition groups"
                )
            seen |= set(group)

    @classmethod
    def parse(cls, spec: str | Sequence[Any], n: int) -> "Partition":
        """Parse and validate one partition among pids ``0..n-1``.

        ``spec`` is the CLI form ``"START:HEAL:GROUPS"`` or the scenario
        form ``(start, heal, groups)``; ``groups`` reads like ``"0,1|2,3"``.
        """
        parts = spec.split(":") if isinstance(spec, str) else list(spec)
        if len(parts) != 3:
            raise ConfigurationError(
                f"partition expects START:HEAL:GROUPS, got {spec!r}"
            )
        start, heal, groups = parts
        try:
            window = float(start), float(heal)
            sides = tuple(
                tuple(sorted(int(pid) for pid in side.split(",")))
                for side in groups.split("|")
            )
        except (AttributeError, TypeError, ValueError):
            raise ConfigurationError(
                f"malformed partition {spec!r} (expected numeric START:HEAL "
                "and GROUPS like 0,1|2,3)"
            ) from None
        for side in sides:
            for pid in side:
                if not 0 <= pid < n:
                    raise ConfigurationError(
                        f"partition pid {pid} out of range for n={n}"
                    )
        return cls(*window, sides)

    def severs(self, now: float, src: int, dst: int) -> bool:
        """Is the ``src -> dst`` link cut at virtual time ``now``?"""
        if not self.start <= now < self.heal:
            return False
        side_src = side_dst = None
        for index, group in enumerate(self.groups):
            if src in group:
                side_src = index
            if dst in group:
                side_dst = index
        return side_src is not None and side_dst is not None and side_src != side_dst


class LinkModel:
    """The per-link fault engine: partitions, loss, duplication, reordering.

    :meth:`deliveries` decides each message in a fixed order: a
    partition check that withholds the message until the heal and draws
    nothing, then loss, then duplication, then reordering of the first
    copy. Probabilities are per message and every draw comes from the
    directed link's own stream (``link-{src}-{dst}``, forked lazily off
    the stream root), so a link's fate does not depend on traffic
    elsewhere and two runs with the same seed fault exactly the same
    messages. The constructor describes the faults; :meth:`seeded` binds
    a copy to a stream root, which is what a :class:`Network` does with
    the model it is given. A process's channel to itself is internal and
    never faulted.

    Args:
        loss: probability a message silently vanishes in transit.
        duplication: probability the wire delivers a second copy.
        reorder: probability the first copy escapes the FIFO clamp and is
            additionally delayed by up to ``reorder_spread`` (a burst
            reordering: later traffic on the channel may overtake it).
        reorder_spread: maximum extra delay of a reordered message.
        partitions: scripted :class:`Partition` windows (may overlap; the
            first one cutting a link sets its heal).
    """

    def __init__(
        self,
        loss: float = 0.0,
        duplication: float = 0.0,
        reorder: float = 0.0,
        reorder_spread: float = 5.0,
        partitions: tuple[Partition, ...] | list[Partition] = (),
    ) -> None:
        for name, probability in (
            ("loss", loss), ("duplication", duplication), ("reorder", reorder)
        ):
            if not 0.0 <= probability < 1.0:
                raise ConfigurationError(
                    f"link {name} probability must be in [0, 1), got {probability!r}"
                )
        if reorder_spread <= 0:
            raise ConfigurationError(
                f"reorder_spread must be positive, got {reorder_spread!r}"
            )
        self.loss = loss
        self.duplication = duplication
        self.reorder = reorder
        self.reorder_spread = reorder_spread
        self.partitions = tuple(partitions)
        self._rng: SeededRng | None = None
        self._metrics: Any = NULL_METRICS
        self._noisy = bool(loss or duplication or reorder)
        self._streams: dict[tuple[int, int], SeededRng] = {}
        self.withheld = 0
        self.lost = 0
        self.duplicated = 0
        self.reordered = 0

    @property
    def faultless(self) -> bool:
        return not self._noisy and not self.partitions

    def seeded(self, rng: SeededRng, metrics: Any = NULL_METRICS) -> "LinkModel":
        """A fresh copy of this model drawing its per-link streams off ``rng``.

        Each decision is counted into ``metrics`` under the ``faults``
        module (``partition_delays``, ``loss_drops``, ``dup_copies``,
        ``reorder_delays``, labelled by sender).
        """
        model = LinkModel(
            self.loss,
            self.duplication,
            self.reorder,
            self.reorder_spread,
            self.partitions,
        )
        model._rng = rng
        model._metrics = metrics
        return model

    def held_until(self, now: float, src: int, dst: int) -> float | None:
        """See :meth:`LinkFaults.held_until`; draws nothing."""
        for partition in self.partitions:
            if partition.severs(now, src, dst):
                return partition.heal
        return None

    def deliveries(
        self, now: float, src: int, dst: int, payload: Any
    ) -> list[Delivery] | None:
        """Decide one ``src -> dst`` message (see :class:`LinkFaults`)."""
        heal = self.held_until(now, src, dst)
        if heal is not None:
            self.withheld += 1
            self._metrics.inc(MODULE_FAULTS, "partition_delays", pid=src)
            return [(payload, heal - now)]
        if not self._noisy:
            return None
        rng = self._streams.get((src, dst))
        if rng is None:
            if self._rng is None:
                raise NetworkError("an unseeded LinkModel cannot draw")
            rng = self._streams[src, dst] = self._rng.fork(f"link-{src}-{dst}")
        if self.loss and rng.chance(self.loss):
            self.lost += 1
            self._metrics.inc(MODULE_FAULTS, "loss_drops", pid=src)
            return []
        copies = [(payload, 0.0)]
        if self.duplication and rng.chance(self.duplication):
            self.duplicated += 1
            self._metrics.inc(MODULE_FAULTS, "dup_copies", pid=src)
            copies.append((payload, 0.0))
        if self.reorder and rng.chance(self.reorder):
            self.reordered += 1
            self._metrics.inc(MODULE_FAULTS, "reorder_delays", pid=src)
            copies[0] = (payload, rng.uniform(0.0, self.reorder_spread))
        return copies


class Network:
    """Point-to-point network over a :class:`~repro.sim.scheduler.Scheduler`.

    Processes are registered with a delivery callback; :meth:`send`
    schedules a delivery event whose timestamp respects per-channel FIFO
    order regardless of the sampled delays. An optional link model (a
    :class:`LinkModel`, or anything else honouring :class:`LinkFaults`)
    decides what the wire does to each message between distinct
    processes; every drop, duplicate and partition transition is traced
    and counted so nothing the wire does is invisible to the oracles.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        trace: Trace,
        delay_model: DelayModel | None = None,
        fifo: bool = True,
        metrics: MetricsRegistry | None = None,
        link_model: LinkFaults | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._trace = trace
        self._metrics = metrics
        self._delay_model: DelayModel = delay_model or UniformDelay()
        self._rng = scheduler.rng.fork("network")
        if isinstance(link_model, LinkModel):
            link_model = link_model.seeded(scheduler.rng.fork("links"))
            self._schedule_partition_transitions(link_model)
        self._link_model = link_model
        self._inboxes: dict[int, DeliverCallback] = {}
        self._last_delivery: dict[tuple[int, int], float] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._messages_duplicated = 0
        # FIFO is the paper's channel assumption; ``fifo=False`` exists
        # only so experiment E14 can demonstrate the assumption is
        # load-bearing (agreement breaks without it).
        self._fifo = fifo

    def _schedule_partition_transitions(self, link_model: LinkModel) -> None:
        """Trace every partition cut and heal as a first-class event."""
        for index, partition in enumerate(link_model.partitions):
            for kind, time in (
                ("partition-start", partition.start),
                ("partition-heal", partition.heal),
            ):
                self._scheduler.schedule_at(
                    time,
                    "partition",
                    lambda k=kind, i=index, p=partition: self._partition_transition(
                        k, i, p
                    ),
                )

    def _partition_transition(self, kind: str, index: int, partition: Partition) -> None:
        self._trace.record(
            self._scheduler.now,
            kind,
            partition=index,
            groups=[list(group) for group in partition.groups],
        )
        if self._metrics is not None:
            self._metrics.inc(MODULE_NETWORK, "partition_transitions")

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """First-copy deliveries only — duplicate copies are counted apart."""
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        """Messages the link model destroyed in transit."""
        return self._messages_dropped

    @property
    def messages_duplicated(self) -> int:
        """Extra copies the link model delivered beyond the first."""
        return self._messages_duplicated

    @property
    def process_ids(self) -> list[int]:
        return sorted(self._inboxes)

    def register(self, process_id: int, deliver: DeliverCallback) -> None:
        """Attach a process's delivery callback to the network."""
        if process_id in self._inboxes:
            raise NetworkError(f"process {process_id} registered twice")
        self._inboxes[process_id] = deliver

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Transmit ``payload`` from ``src`` to ``dst`` (may be ``src`` itself).

        The message is delivered after a finite delay drawn from the delay
        model, never before any earlier message on the same channel —
        unless the link model drops, duplicates or delays it.
        """
        if dst not in self._inboxes:
            raise NetworkError(f"send to unknown process {dst}")
        if src not in self._inboxes:
            raise NetworkError(f"send from unknown process {src}")
        now = self._scheduler.now
        self._messages_sent += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.inc(MODULE_NETWORK, "messages_sent", pid=src)
        copies = None
        if self._link_model is not None and src != dst:
            copies = self._link_model.deliveries(now, src, dst, payload)
        if copies is None:
            deliver_at = self._schedule_copy(now, src, dst, payload, False)
        elif not copies:
            self._drop(now, src, dst, payload)
            return
        else:
            held = self._link_model.held_until(now, src, dst) is not None
            extra = len(copies) - 1
            if extra:
                self._messages_duplicated += extra
                if metrics is not None:
                    metrics.inc(
                        MODULE_NETWORK, "messages_duplicated", extra, pid=src
                    )
                    metrics.inc(MODULE_NETWORK, f"dup[{src}->{dst}]", extra)
            first, first_delay = copies[0]
            deliver_at = self._schedule_copy(
                now, src, dst, first, False, first_delay, held
            )
            for copy, extra_delay in copies[1:]:
                self._schedule_copy(
                    now, src, dst, copy, True, extra_delay, held
                )
        if metrics is not None:
            # Scheduled transfer delay: FIFO back-pressure and any hold the
            # link imposed included, so the histogram reflects what the
            # receiver actually experiences.
            metrics.observe(
                MODULE_NETWORK, "delivery_latency", deliver_at - now, pid=dst
            )
            metrics.gauge_max(
                MODULE_NETWORK,
                "in_flight_max",
                self._messages_sent - self._messages_delivered
                - self._messages_dropped,
            )

    def _drop(self, now: float, src: int, dst: int, payload: Any) -> None:
        """The wire destroyed the message: count and trace, never deliver."""
        self._messages_dropped += 1
        if self._metrics is not None:
            self._metrics.inc(MODULE_NETWORK, "messages_dropped", pid=src)
            self._metrics.inc(MODULE_NETWORK, f"drop[{src}->{dst}]")
        self._trace.record(now, "link-drop", process=src, dst=dst, payload=payload)

    def _schedule_copy(
        self,
        now: float,
        src: int,
        dst: int,
        payload: Any,
        duplicate: bool,
        extra_delay: float = 0.0,
        held: bool = False,
    ) -> float:
        """Sample a delay and schedule one delivery; returns the timestamp.

        A ``held`` copy waits ``extra_delay`` (until its partition heals)
        and then keeps the channel's FIFO order.
        """
        sample_for = getattr(self._delay_model, "sample_for", None)
        if sample_for is not None:
            delay = sample_for(self._rng, src, dst, payload)
        else:
            delay = self._delay_model.sample(self._rng, src, dst)
        if delay < 0:
            raise NetworkError(f"delay model produced negative delay {delay!r}")
        channel = (src, dst)
        if extra_delay > 0 and not held:
            # A delayed copy (burst reordering, timing attack) escapes the
            # FIFO clamp and does not tighten it, so later traffic on the
            # channel may overtake it.
            deliver_at = now + delay + extra_delay
            if self._metrics is not None:
                self._metrics.inc(MODULE_NETWORK, "messages_reordered", pid=src)
        elif self._fifo:
            earliest = self._last_delivery.get(channel, 0.0) + _FIFO_EPSILON
            deliver_at = max(now + delay + extra_delay, earliest)
            self._last_delivery[channel] = deliver_at
        else:
            deliver_at = now + delay + extra_delay
        self._trace.record(
            now,
            "send",
            process=src,
            dst=dst,
            payload=payload,
            deliver_at=deliver_at,
            **({"duplicate": True} if duplicate else {}),
        )
        self._scheduler.schedule_at(
            deliver_at,
            "deliver",
            lambda: self._deliver(src, dst, payload, duplicate),
            meta=("deliver", src, dst, payload),
        )
        return deliver_at

    def _deliver(
        self, src: int, dst: int, payload: Any, duplicate: bool = False
    ) -> None:
        if duplicate:
            if self._metrics is not None:
                self._metrics.inc(
                    MODULE_NETWORK, "duplicates_delivered", pid=dst
                )
        else:
            self._messages_delivered += 1
            if self._metrics is not None:
                self._metrics.inc(MODULE_NETWORK, "messages_delivered", pid=dst)
        self._trace.record(
            self._scheduler.now,
            "deliver",
            process=dst,
            src=src,
            payload=payload,
            **({"duplicate": True} if duplicate else {}),
        )
        self._inboxes[dst](src, payload)
