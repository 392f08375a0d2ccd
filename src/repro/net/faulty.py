"""Fault-injecting peer transport: the real-socket end of a fault plan.

:class:`FaultyPeerTransport` is a :class:`~repro.net.transport.PeerTransport`
that consults a :class:`~repro.faults.injector.LinkFaultInjector` on
every *outbound* replica-to-replica send — each replica process owns the
plan's decisions for its own outbound links, so loss/duplication/reorder
and pre-signature bit-flips happen on real TCP without any privileged
network machinery. Partition windows withhold traffic until the heal the
same way; a delayed copy re-enters :meth:`send` via ``loop.call_later``, overtaking
in-flight traffic exactly like a reordered segment. Muteness and crash
at this fidelity are *process* faults (SIGSTOP / SIGKILL, driven by
:class:`~repro.net.cluster.LocalCluster`), not link faults.

:meth:`inject_reset` is the chaos hook of the reconnect tests: it
tears down an established outbound connection mid-frame (optionally
flushing garbage bytes first), which the peer observes as a connection
reset with a partial frame in its assembler.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable

from repro.net.genesis import Genesis
from repro.net.transport import MessageHandler, PeerTransport
from repro.observability.registry import NULL_METRICS

if TYPE_CHECKING:  # the injector lives upstack; avoid an import cycle
    from repro.faults.injector import LinkFaultInjector


class FaultyPeerTransport(PeerTransport):
    """A peer transport executing one fault plan on its outbound links."""

    def __init__(
        self,
        genesis: Genesis,
        pid: int,
        handler: MessageHandler,
        *,
        metrics: Any = NULL_METRICS,
        injector: "LinkFaultInjector | None" = None,
        plan_clock: Callable[[], float] | None = None,
        queue_limit: int | None = None,
    ) -> None:
        kwargs = {} if queue_limit is None else {"queue_limit": queue_limit}
        super().__init__(genesis, pid, handler, metrics=metrics, **kwargs)
        self._injector = injector
        self._plan_clock = plan_clock or (lambda: 0.0)

    def send(self, dst: int, payload: Any) -> None:
        if (
            self._injector is None
            or dst == self._pid
            or dst >= self._genesis.n_replicas
        ):
            super().send(dst, payload)
            return
        deliveries = self._injector.plan_deliveries(
            self._plan_clock(), self._pid, dst, payload
        )
        if deliveries is None:
            super().send(dst, payload)
            return
        loop = asyncio.get_running_loop()
        for copy, delay in deliveries:
            if delay > 0:
                loop.call_later(
                    delay, PeerTransport.send, self, dst, copy
                )
            else:
                super().send(dst, copy)

    # -- chaos hooks (tests) ----------------------------------------------

    def inject_reset(self, dst: int, *, partial: bytes = b"") -> bool:
        """Tear down the established outbound connection to ``dst``.

        ``partial`` bytes are written first (un-drained), so the peer's
        assembler is left holding a truncated or garbage frame when the
        transport layer aborts the connection — the closest userspace
        analogue of an RST mid-frame. Returns ``False`` when no
        connection to ``dst`` is currently established.
        """
        writer = self._peer_writers.get(dst)
        if writer is None or writer.is_closing():
            return False
        if partial:
            try:
                writer.write(partial)
            except (OSError, RuntimeError):
                pass
        writer.transport.abort()
        return True
