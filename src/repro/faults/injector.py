"""Link-level fault injection shared by every fidelity (docs/FAULTS.md).

:class:`LinkFaultInjector` is the single decision procedure behind the
three runners: given ``(now, src, dst, payload)`` in *plan* units it
answers "what happens to this message" as a list of ``(payload, delay)``
deliveries — the empty list drops it, more than one entry duplicates it,
a positive delay reorders it past later traffic. The simulation installs
it (on the simulator's clock) as the :class:`~repro.sim.network.Network`'s
link model, the loopback twin hands it to a scheduler-aware
:class:`~repro.net.transport.LoopbackHub` subclass, and the real cluster
to :class:`~repro.net.faulty.FaultyPeerTransport` — so one seeded plan
produces the same fault schedule everywhere the message order matches.

The plan's link noise (partitions, loss, duplication, reorder) is not
decided here: the injector composes the one link-fault engine,
:class:`~repro.sim.network.LinkModel`, and keeps only the plan-specific
stages around it — muteness, message-adversary suppression, bit-flips
and timing-attack burst shaping.

Determinism: the link model is rooted at
``SeededRng(plan.seed, "faults-<plan_id>")`` and forks one stream per
directed link. At fidelity 3 each replica process instantiates its own
injector but only *consumes* the streams of its outbound links, so the
per-link draws match the single-process fidelities draw-for-draw.

The bit-flip family (:func:`flip_signed_payload`) is the first
*non-malicious arbitrary fault*: a correct sender whose CURRENT message
gets one pre-signature bit (the round number) flipped in transit. The
signature no longer matches the body, so the signature/certification
modules must reject it — and the detection-attribution oracle asserts
the blame lands there, never on the consensus automaton convicting the
innocent sender of a behaviour fault. Only ``VCurrent`` bodies are
eligible: Figure 4's monitor automaton is gap-safe for a dropped CURRENT
(Q0 accepts the following NEXT of the same round), while a swallowed
INIT or NEXT would itself convict the sender.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.certificates import SignedMessage
from repro.faults.plan import FaultPlan
from repro.messages.consensus import VCurrent
from repro.observability.registry import (
    MODULE_FAULTS,
    MODULE_ZOO,
    NULL_METRICS,
)
from repro.replication.log import SlotEnvelope
from repro.sim.network import Delivery
from repro.sim.rng import SeededRng


def flip_signed_payload(payload: Any) -> Any | None:
    """Flip one pre-signature bit of an eligible payload, or ``None``.

    Eligible payloads are ``SlotEnvelope(slot, SignedMessage(VCurrent))``
    (the service stack) and bare ``SignedMessage(VCurrent)`` (the raw
    consensus engines). The low bit of the round number is inverted in
    the *body only*; certificate and signature ride along unchanged, so
    the signature check downstream fails over a well-formed message.
    """
    if isinstance(payload, SlotEnvelope):
        flipped = flip_signed_payload(payload.inner)
        if flipped is None:
            return None
        return SlotEnvelope(slot=payload.slot, inner=flipped)
    if isinstance(payload, SignedMessage) and isinstance(payload.body, VCurrent):
        corrupt = dataclasses.replace(payload.body, round=payload.body.round ^ 1)
        return SignedMessage(
            body=corrupt, cert=payload.cert, signature=payload.signature
        )
    return None


class LinkFaultInjector:
    """Deterministic per-link fault pipeline for one :class:`FaultPlan`.

    The pipeline order is fixed (mute, suppress, then the link model's
    partition, loss, duplicate and reorder, then flip and burst-shape)
    and every probabilistic stage draws from the directed link's own
    stream, in send order — the property the cross-fidelity
    byte-identity check rests on. The two zoo stages
    are draw-free: per-round suppression sets are pure seed forks
    (:class:`~repro.zoo.suppressor.RoundSuppressor`) and the timing
    attack's burst shaping is a deterministic function of the per-link
    send history, so v1 plans consume exactly the streams they did
    before the v2 schema.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        registry: Any = None,
    ) -> None:
        plan.validate()
        self._plan = plan
        self._registry = registry if registry is not None else NULL_METRICS
        self._links = plan.link_model().seeded(
            SeededRng(plan.seed, f"faults-{plan.plan_id}"), self._registry
        )
        self._mute_at = {pid: at for pid, at in plan.mutes}
        self._flip_at = {pid: (at, count) for pid, at, count in plan.flips}
        self._flips_done: dict[int, int] = {pid: 0 for pid in self._flip_at}
        self.flips_injected = 0
        self._mute_drops = 0
        # -- adversary zoo (v2 plans; inert on v1 plans). The zoo imports
        # are lazy: repro.zoo depends on repro.faults.plan, so repro.faults
        # modules must never import repro.zoo at module scope.
        if plan.suppressions:
            from repro.zoo.suppressor import RoundSuppressor

            self._suppressor: Any = RoundSuppressor(plan)
        else:
            self._suppressor = None
        if plan.timing:
            from repro.zoo.timing import BurstShaper

            self._burst: Any = BurstShaper(plan.timing)
        else:
            self._burst = None
        self.suppressed = 0
        self.timing_delays = 0

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def drops(self) -> dict[str, int]:
        return {"mute": self._mute_drops, "loss": self._links.lost}

    @property
    def partition_delays(self) -> int:
        return self._links.withheld

    @property
    def duplicates(self) -> int:
        return self._links.duplicated

    @property
    def reorders(self) -> int:
        return self._links.reordered

    def held_until(self, now: float, src: int, dst: int) -> float | None:
        """When a partition cutting ``src -> dst`` heals (plan units)."""
        return self._links.held_until(now, src, dst)

    def _muted(self, now: float, pid: int) -> bool:
        at = self._mute_at.get(pid)
        return at is not None and now >= at

    # -- the decision procedure ---------------------------------------------

    def plan_deliveries(
        self, now: float, src: int, dst: int, payload: Any
    ) -> list[Delivery] | None:
        """Decide the fate of one message, in plan units.

        Returns ``None`` for "no opinion" (links the plan does not touch
        keep their native handling), else the full delivery list: empty
        to drop, one entry to pass (possibly corrupted or delayed), more
        to duplicate.
        """
        plan = self._plan
        n = plan.n_replicas
        # Muteness swallows everything touching the muted replica,
        # clients included (a SIGSTOPped process neither sends nor acks).
        if self._muted(now, src) or self._muted(now, dst):
            self._mute_drops += 1
            self._registry.inc(MODULE_FAULTS, "mute_drops", pid=src)
            return []
        replica_link = src < n and dst < n
        if not replica_link:
            return None
        # Family (a): the message adversary silently removes the delivery
        # — a true drop, unlike a partition's withholding, because the
        # model says "up to d deliveries of each broadcast never happen".
        if self._suppressor is not None and self._suppressor.suppressed(
            now, src, dst
        ):
            self.suppressed += 1
            self._registry.inc(MODULE_ZOO, "suppressed_deliveries", pid=src)
            return []
        held = self._links.held_until(now, src, dst) is not None
        deliveries = self._links.deliveries(now, src, dst, payload)
        if held or deliveries == []:
            # *Withheld* by a partition until the heal instant (over real
            # TCP the severed link's frames sit in socket buffers and
            # flush once connectivity returns), or lost: either way the
            # message is neither flipped nor shaped.
            return deliveries
        flip = self._flip_at.get(src)
        if flip is not None:
            at, budget = flip
            if now >= at and self._flips_done[src] < budget:
                corrupt = flip_signed_payload(payload)
                if corrupt is not None:
                    self._flips_done[src] += 1
                    self.flips_injected += 1
                    self._registry.inc(
                        MODULE_FAULTS, "arb_faults_injected", pid=src
                    )
                    # Every surviving copy carries the flipped body.
                    deliveries = [
                        (corrupt, delay)
                        for _, delay in deliveries or [(payload, 0.0)]
                    ]
        # Family (c): a timing attacker releases its (otherwise genuine)
        # traffic only at burst boundaries — every copy, duplicates
        # included, picks up the same hold. The shaper spaces releases so
        # the attacker's stream stays FIFO (it is slow, not misbehaving).
        if self._burst is not None:
            hold = self._burst.hold(src, dst, now)
            if hold > 0.0:
                self.timing_delays += 1
                self._registry.inc(MODULE_ZOO, "timing_delays", pid=src)
                deliveries = [
                    (item, delay + hold)
                    for item, delay in deliveries or [(payload, 0.0)]
                ]
        return deliveries
