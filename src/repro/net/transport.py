"""Transports of the net runtime: real TCP full mesh and in-memory loopback.

Both expose the same tiny surface a :class:`~repro.net.node.NetNode`
needs — ``send(dst, payload)`` plus a ``(src, message)`` delivery
callback — so every protocol-facing test runs on the deterministic
:class:`LoopbackHub` while deployments run :class:`PeerTransport` over
asyncio TCP. The loopback still pushes **every** payload through the
wire codec: what the tests exercise is byte-for-byte what the sockets
carry.

:class:`PeerTransport` design (docs/NET.md):

* one *outbound* TCP connection per peer replica, used only for sending;
  inbound frames arrive on connections the peer dialed. Every connection
  opens with an authenticated :class:`~repro.net.messages.Hello` bound
  to (genesis, dialer, acceptor, role);
* per-peer outbound queues: ``await writer.drain()`` applies TCP
  backpressure to the queue consumer, and a full queue drops the
  *oldest* frame (counted) — the protocol tolerates loss via resubmits,
  retries and state transfer, so bounded memory wins over completeness;
* reconnect with exponential backoff (capped), forever: a restarted
  peer is redialed automatically, which is what lets a killed replica
  rejoin without any orchestration;
* client connections are remembered by pid at hello time so replica →
  client traffic (replies, read answers) routes back over the stream
  the client opened.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from repro.errors import ReproError
from repro.net.genesis import Genesis
from repro.net.messages import ROLE_REPLICA, Hello
from repro.net.wire import FrameAssembler, WireError, decode_frame, encode_frame
from repro.observability.registry import NULL_METRICS

MessageHandler = Callable[[int, Any], None]

#: Outbound queue bound per peer (frames, not bytes).
QUEUE_LIMIT = 512
#: Reconnect backoff: base * 2^attempt, capped.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
READ_CHUNK = 1 << 16


class TransportError(ReproError):
    """The transport was driven outside its contract."""


# ---------------------------------------------------------------------------
# Loopback: deterministic in-memory fabric with codec round-trips.
# ---------------------------------------------------------------------------


class LoopbackHub:
    """In-memory message fabric with the PeerTransport surface.

    Sends enqueue; delivery happens when the hub's zero-delay drain
    timer fires on the shared scheduler (or on an explicit
    :meth:`flush`). Deferring the drain keeps a multi-destination
    broadcast *atomic*: every copy is enqueued before any destination
    runs its handler, preserving the per-``(src, dst)`` FIFO order a
    real TCP connection gives — a synchronous drain would let the first
    recipient's whole downstream cascade run (and send) in between the
    copies, reordering one sender's messages at a third node. The drain
    itself is an iterative FIFO loop (never recursive), so message
    storms cannot blow the stack. Unregistered destinations drop
    (counted), modelling a killed process.
    """

    def __init__(self, scheduler: Any) -> None:
        self._scheduler = scheduler
        self._handlers: dict[int, MessageHandler] = {}
        self._queue: deque[tuple[int, int, bytes]] = deque()
        self._dispatching = False
        self._drain_scheduled = False
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_rejected = 0

    def register(self, pid: int, handler: MessageHandler) -> "LoopbackTransport":
        if pid in self._handlers:
            raise TransportError(f"pid {pid} already registered on the hub")
        self._handlers[pid] = handler
        return LoopbackTransport(self, pid)

    def unregister(self, pid: int) -> None:
        self._handlers.pop(pid, None)

    def submit(self, src: int, dst: int, payload: Any) -> None:
        try:
            frame = encode_frame(payload)
        except WireError:
            self.frames_rejected += 1
            return
        self._queue.append((src, dst, frame))
        if not self._dispatching and not self._drain_scheduled:
            self._drain_scheduled = True
            self._scheduler.schedule_after(0.0, "loopback-drain", self.flush)

    def flush(self) -> None:
        """Deliver everything queued (drains nested sends too)."""
        self._drain_scheduled = False
        self._drain()

    def _drain(self) -> None:
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._queue:
                src, dst, frame = self._queue.popleft()
                handler = self._handlers.get(dst)
                if handler is None:
                    self.frames_dropped += 1
                    continue
                try:
                    message = decode_frame(frame)
                except WireError:
                    self.frames_rejected += 1
                    continue
                self.frames_delivered += 1
                handler(src, message)
        finally:
            self._dispatching = False


class LoopbackTransport:
    """One endpoint's sending handle onto a :class:`LoopbackHub`."""

    __slots__ = ("_hub", "pid")

    def __init__(self, hub: LoopbackHub, pid: int) -> None:
        self._hub = hub
        self.pid = pid

    def send(self, dst: int, payload: Any) -> None:
        self._hub.submit(self.pid, dst, payload)

    def close(self) -> None:
        self._hub.unregister(self.pid)


# ---------------------------------------------------------------------------
# Real sockets.
# ---------------------------------------------------------------------------


class PeerTransport:
    """Authenticated full-mesh TCP transport for one replica."""

    def __init__(
        self,
        genesis: Genesis,
        pid: int,
        handler: MessageHandler,
        *,
        metrics: Any = NULL_METRICS,
        queue_limit: int = QUEUE_LIMIT,
    ) -> None:
        genesis.address_of(pid)  # raises ConfigurationError on a bad pid
        self._genesis = genesis
        self._pid = pid
        self._handler = handler
        self._metrics = metrics
        self._queue_limit = queue_limit
        self._queues: dict[int, asyncio.Queue[bytes]] = {}
        #: Live outbound writer per peer (fault injection hooks abort
        #: these to simulate mid-stream connection resets).
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        self._accepted: set[asyncio.StreamWriter] = set()
        self._clients: dict[int, asyncio.StreamWriter] = {}
        self._tasks: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self.bound_port: int | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        host, port = self._genesis.address_of(self._pid)
        self._server = await asyncio.start_server(self._accept, host, port)
        self.bound_port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for peer in range(self._genesis.n_replicas):
            if peer == self._pid:
                continue
            self._queues[peer] = asyncio.Queue(maxsize=self._queue_limit)
            self._tasks.append(loop.create_task(self._outbound(peer)))

    async def stop(self) -> None:
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        # Server.close() only stops *listening*; established inbound
        # connections keep reading unless we hang up on each — a peer
        # that dialed us must see the drop to start its reconnect loop.
        for writer in list(self._accepted):
            _close_quietly(writer)
        self._accepted.clear()
        self._clients.clear()

    # -- sending -----------------------------------------------------------

    def send(self, dst: int, payload: Any) -> None:
        try:
            frame = encode_frame(payload)
        except WireError:
            self._metrics.inc("frames_unencodable")
            return
        self._metrics.inc("frames_sent")
        self._metrics.inc("bytes_sent", len(frame))
        if dst == self._pid:
            # Self-delivery still round-trips the codec (a node talks to
            # itself exactly like to a peer) but stays in-process.
            try:
                message = decode_frame(frame)
            except WireError:
                self._metrics.inc("frames_rejected")
                return
            asyncio.get_running_loop().call_soon(
                self._dispatch, self._pid, message
            )
            return
        if dst < self._genesis.n_replicas:
            queue = self._queues.get(dst)
            if queue is None:
                self._metrics.inc("frames_dropped")
                return
            try:
                queue.put_nowait(frame)
            except asyncio.QueueFull:
                # Bounded memory beats completeness: drop the *oldest*
                # frame — the freshest protocol state supersedes it.
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                queue.put_nowait(frame)
                self._metrics.inc("frames_dropped")
            return
        writer = self._clients.get(dst)
        if writer is None or writer.is_closing():
            self._metrics.inc("client_frames_dropped")
            return
        try:
            writer.write(frame)
        except (OSError, RuntimeError):
            self._metrics.inc("client_frames_dropped")

    # -- outbound connections ---------------------------------------------

    async def _outbound(self, peer: int) -> None:
        """Dial ``peer`` forever: connect, hello, pump the queue, back off."""
        host, port = self._genesis.address_of(peer)
        queue = self._queues[peer]
        attempt = 0
        while not self._closing:
            writer: asyncio.StreamWriter | None = None
            try:
                _reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    encode_frame(
                        self._genesis.hello_for(self._pid, peer, ROLE_REPLICA)
                    )
                )
                await writer.drain()
                self._metrics.inc("peer_connects")
                self._peer_writers[peer] = writer
                attempt = 0
                while not self._closing:
                    frame = await queue.get()
                    writer.write(frame)
                    await writer.drain()  # TCP backpressure lands here
            except asyncio.CancelledError:
                raise
            except (OSError, ConnectionError):
                pass
            finally:
                if writer is not None:
                    if self._peer_writers.get(peer) is writer:
                        del self._peer_writers[peer]
                    _close_quietly(writer)
            if self._closing:
                return
            self._metrics.inc("peer_reconnects")
            attempt += 1
            await asyncio.sleep(
                min(BACKOFF_CAP, BACKOFF_BASE * (2 ** min(attempt, 10)))
            )

    # -- inbound connections ----------------------------------------------

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assembler = FrameAssembler()
        peer: int | None = None
        self._accepted.add(writer)
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    return
                try:
                    messages = assembler.feed(data)
                except WireError:
                    self._metrics.inc("frames_rejected")
                    return
                for message in messages:
                    if peer is None:
                        # First frame must be a valid Hello; anything
                        # else (or a bad MAC) closes the connection.
                        if not isinstance(message, Hello) or not (
                            self._genesis.hello_valid(message, self._pid)
                        ):
                            self._metrics.inc("hello_rejected")
                            return
                        peer = message.peer
                        self._metrics.inc("hello_accepted")
                        if peer >= self._genesis.n_replicas:
                            self._clients[peer] = writer
                        continue
                    self._metrics.inc("frames_received")
                    self._dispatch(peer, message)
        except asyncio.CancelledError:
            raise
        except (OSError, ConnectionError):
            return
        finally:
            self._accepted.discard(writer)
            if (
                peer is not None
                and peer >= self._genesis.n_replicas
                and self._clients.get(peer) is writer
            ):
                del self._clients[peer]
            _close_quietly(writer)

    def _dispatch(self, src: int, message: Any) -> None:
        try:
            self._handler(src, message)
        except Exception:
            # A handler bug on one message must not kill the reader task
            # for the whole connection; count it and keep serving.
            self._metrics.inc("handler_errors")


def _close_quietly(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except Exception:
        pass
