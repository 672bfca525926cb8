"""A link: what carries frames between two fabric nodes.

:mod:`repro.edge.transport` says what the bytes *are*; a
:class:`Transport` is one point-to-point way of moving them — with the
per-direction byte/latency accounting every bench reads
(:class:`~repro.edge.network.Channel`, one per direction) in exactly
one place, whichever medium carries the frames.

The in-process implementation (:class:`InProcessTransport`) adds
**fault injection** so the fan-out engine's flow control and healing
paths can be exercised deterministically:

* ``partitioned`` — the link is down; sends fail outright.
* ``drop_next`` — the next N frames are lost in flight (bytes leave the
  sender but never reach the edge, and no ack comes back).
* ``hold`` — a slow edge: frames queue in the link instead of being
  delivered; they drain on :meth:`InProcessTransport.flush` once the
  fault clears.  Combined with the fan-out engine's bounded in-flight
  window this models per-edge backpressure.

A real-socket transport only needs to reimplement
``send``/``flush``/``request`` over its medium; the frame codec is
already byte-exact.  One exists: the event-loop
:class:`~repro.edge.event_loop.ReactorTransport`, which honours the
same three fault states by gating its connection's outbound queue (see
:attr:`FaultInjector.blocks_delivery`).  Every link carries its
:class:`FaultInjector` as ``faults`` — the fan-out engine reads a
parked link off it, whichever medium it is.

The two media differ in *when* frames move — here, inside the ``send``
or ``flush`` that carries them, on the caller's thread, which is what
makes a chaos run a pure function of its seeds (DESIGN.md section
14.2) — and in nothing else: a node gets onto an in-process link the
way it gets onto a socket (:func:`join`, the registration handshake
between a listener seat and a dialer seat, run as objects), and can
speak first on it the way a socket peer can (``connect(handler,
pushes)``).

A ``Transport`` instance belongs to the single sender thread that calls
``send``/``flush``; concurrency, where it exists, is the medium's
concern (the reactor's queue lock), never the codec's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.edge.network import Channel
from repro.edge.transport import (
    Frame,
    frame_from_bytes,
    frame_kind,
    frame_to_bytes,
)
from repro.exceptions import TransportError

__all__ = [
    "FaultInjector",
    "SendOutcome",
    "Transport",
    "InProcessTransport",
    "wire",
    "join",
]


@dataclass
class FaultInjector:
    """Mutable fault state of one link (see module docstring).

    Attributes:
        partitioned: Link down; sends fail, nothing leaves the sender.
        drop_next: Lose the next N frames in flight.
        hold: Queue frames instead of delivering (slow edge); they
            drain on :meth:`InProcessTransport.flush` once cleared.
        delay: Per-frame latency shaping, in seconds.  The in-process
            link models it as a one-flush delivery delay (the frame is
            queued like a held frame but drains on the *next* flush
            even while the fault persists — a slow link, not a wedged
            one); the reactor parks the connection's queue until the
            deadline passes without ever blocking the loop.
    """

    partitioned: bool = False
    drop_next: int = 0
    hold: bool = False
    delay: float = 0.0

    @property
    def blocks_delivery(self) -> bool:
        """True while queued frames must stay in the link.

        Both the held (slow-edge) and partitioned states park a
        reactor connection's outbound queue — the event loop skips it
        entirely, so a faulted edge costs zero syscalls per spin and
        can never delay a healthy edge's flush (DESIGN.md section 11).
        """
        return self.partitioned or self.hold

    def clear(self) -> None:
        """Return the link to healthy operation."""
        self.partitioned = False
        self.drop_next = 0
        self.hold = False
        self.delay = 0.0


@dataclass
class SendOutcome:
    """What happened to one sent frame.

    Attributes:
        status: ``delivered`` (processed by the peer, ``replies``
            populated), ``queued`` (in the link, ack pending),
            ``dropped`` (lost in flight), or ``failed`` (partitioned —
            nothing left the sender).
        replies: Frames the peer sent back (delivered sends only).
    """

    status: str
    replies: list = field(default_factory=list)


class Transport:
    """Abstract point-to-point frame transport (central/client side).

    Concrete transports implement :meth:`send` and :meth:`flush`; the
    edge side registers a frame handler via :meth:`connect` (in-process)
    or speaks the same frames over a socket
    (:mod:`repro.edge.socket_transport`).

    Byte metering lives *here*, not in the concrete transports: every
    implementation records outbound frames through :meth:`_record_send`
    and inbound replies through :meth:`_record_reply`, so the
    per-direction :class:`~repro.edge.network.Channel` accounting
    (and therefore every byte-based bench) is identical whichever
    medium carries the frames.

    Args:
        name: Link label (usually the edge server's name).
        down_channel: Sender→peer byte accounting (snapshots, deltas,
            queries); created if not given.
        up_channel: Peer→sender byte accounting (acks, query
            responses); created if not given.
        faults: Initial fault state (healthy by default).
    """

    def __init__(
        self,
        name: str,
        down_channel: Channel | None = None,
        up_channel: Channel | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        self.name = name
        self.down_channel = down_channel or Channel()
        self.up_channel = up_channel or Channel()
        self.faults = faults or FaultInjector()

    # -- metering (one implementation for every medium) -----------------

    def _record_send(self, data: bytes, frame: Frame) -> None:
        """Meter one outbound serialized frame."""
        self.down_channel.send(len(data), kind=frame_kind(frame))

    def _record_reply(self, data: bytes, frame: Frame) -> None:
        """Meter one inbound serialized reply frame."""
        self.up_channel.send(len(data), kind=frame_kind(frame))

    # -- the transport surface ------------------------------------------

    @property
    def queued_frames(self) -> int:
        """Frames in the link (sent, not yet acknowledged/processed)."""
        return 0

    @property
    def connected(self) -> bool:
        """False once the link is known dead (socket fault, closed).

        A *faulted but recoverable* link (partitioned/held in-process
        injection) still reports True — connectedness is about whether
        replies can ever arrive on this object, not about the current
        weather.
        """
        return True

    def connect(
        self,
        handler: Callable[[bytes], Sequence[bytes]],
        pushes: Callable[[], Sequence[bytes]] | None = None,
    ) -> None:
        """Register the peer's handler (receives and returns *bytes*)
        and, optionally, the source of the frames it sends unasked."""
        raise NotImplementedError

    def send(self, frame: Frame) -> SendOutcome:
        """Ship one frame; never raises on link faults (see outcome)."""
        raise NotImplementedError

    def flush(self) -> list:
        """Deliver/collect queued frames; returns the peer's replies.

        Never blocks: a transport whose replies arrive asynchronously
        (the reactor link) returns only what has already landed, so
        this is safe on a write path.  A link has no blocking receive
        at all: under coalesced acks the number of replies is not
        knowable from the number of sends, so "block until every
        reply arrived" is not a question a link can answer — the one
        place that *waits* is the fan-out engine's wait-drain
        (:meth:`FanoutEngine.drain
        <repro.edge.fanout.FanoutEngine.drain>`), which solicits a
        cumulative ack, spins the medium and flushes again.
        """
        raise NotImplementedError

    def request(self, frame: Frame) -> Frame:
        """One synchronous request/reply round-trip (the query path).

        Every transport must offer this so client-side query code (the
        router, the deployment layer) is medium-agnostic and query
        traffic is metered identically over every medium — the same
        consolidation the ABC already provides for send-path metering.

        Raises:
            TransportError: If the link is down, drops the exchange, or
                (in-process fault injection) holds the reply past the
                caller's patience — the in-flight equivalent of a
                receive timeout.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class InProcessTransport(Transport):
    """Same-process transport with byte accounting and fault injection.

    Args:
        name: Link label (usually the edge server's name).
        down_channel: Sender→peer byte accounting (snapshots, deltas,
            queries); created if not given.
        up_channel: Peer→sender byte accounting (acks, query
            responses); created if not given.
        faults: Initial fault state (healthy by default).

    The peer handler is wired with :meth:`connect` and exchanges only
    serialized bytes — the two endpoints share no mutable objects, which
    is what makes the trust boundary real even in-process.  A socket
    peer can also speak first (a relay's spontaneous aggregate acks and
    escalation nacks, :meth:`RelayServer.pending_upstream
    <repro.edge.relay.RelayServer.pending_upstream>`); ``pushes`` is
    that direction here: :meth:`flush` drains it into the replies, so
    the frames reach the sender through the same
    ``FanoutEngine.drain()`` a reactor link's inbox does.
    """

    def __init__(
        self,
        name: str,
        down_channel: Channel | None = None,
        up_channel: Channel | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(name, down_channel, up_channel, faults)
        self._handler: Callable[[bytes], Sequence[bytes]] | None = None
        self._pushes: Callable[[], Sequence[bytes]] | None = None
        self._queue: list[bytes] = []

    def connect(
        self,
        handler: Callable[[bytes], Sequence[bytes]],
        pushes: Callable[[], Sequence[bytes]] | None = None,
    ) -> None:
        self._handler = handler
        self._pushes = pushes

    @property
    def queued_frames(self) -> int:
        """Frames sitting in the link awaiting :meth:`flush`."""
        return len(self._queue)

    @property
    def connected(self) -> bool:
        """An in-process link is alive once a handler is wired; fault
        injection (partition/hold) is weather, not death."""
        return self._handler is not None

    def send(self, frame: Frame) -> SendOutcome:
        if self._handler is None:
            raise TransportError(f"transport {self.name!r} is not connected")
        if self.faults.partitioned:
            return SendOutcome(status="failed")
        data = frame_to_bytes(frame)
        self._record_send(data, frame)
        if self.faults.drop_next > 0:
            self.faults.drop_next -= 1
            return SendOutcome(status="dropped")
        if self.faults.hold or self.faults.delay > 0:
            # A held frame waits for the fault to clear; a delayed
            # frame merely waits for the next flush — the in-process
            # model of a slow link is "delivered one tick late".
            self._queue.append(data)
            return SendOutcome(status="queued")
        return SendOutcome(status="delivered", replies=self._deliver(data))

    def flush(self) -> list:
        """Drain held frames once faults have cleared, then whatever
        the peer has to say unasked.

        Returns the peer's accumulated reply frames; a no-op (empty
        list) while the link is still partitioned or holding — a
        pulled cable carries nothing in either direction, so the
        peer's own frames stay with the peer too.
        """
        if self.faults.blocks_delivery:
            return []
        replies: list = []
        while self._queue:
            replies.extend(self._deliver(self._queue.pop(0)))
        if self._pushes is not None:
            replies.extend(self._receive(self._pushes()))
        return replies

    def request(self, frame: Frame) -> Frame:
        """One synchronous round-trip, with fault injection applied.

        The query-path mirror of :meth:`ReactorTransport.request
        <repro.edge.event_loop.ReactorTransport.request>`: a
        partitioned link raises, a dropped request raises (the reply
        will never come), and a held request raises too — the frame
        stays queued in the slow link (it was metered as sent and the
        edge will eventually process it on :meth:`flush`), but a
        synchronous caller cannot wait for it, exactly like a receive
        timeout against a wedged TCP peer.
        """
        outcome = self.send(frame)
        if outcome.status == "failed":
            raise TransportError(f"link to {self.name!r} is down")
        if outcome.status == "dropped":
            raise TransportError(
                f"request to {self.name!r} lost in flight"
            )
        if outcome.status == "queued":
            raise TransportError(
                f"link to {self.name!r} timed out (peer holding frames)"
            )
        (reply,) = outcome.replies
        return reply

    def _deliver(self, data: bytes) -> list:
        assert self._handler is not None
        return self._receive(self._handler(data))

    def _receive(self, frames: Sequence[bytes]) -> list:
        """Decode and meter the peer's serialized frames."""
        replies = []
        for reply_bytes in frames:
            reply = frame_from_bytes(reply_bytes)
            self._record_reply(reply_bytes, reply)
            replies.append(reply)
        return replies


def wire(dialer, faults: FaultInjector | None = None) -> InProcessTransport:
    """An in-process link whose far end is ``dialer`` (a dialer seat:
    :class:`~repro.edge.edge_server.EdgeServer` or
    :class:`~repro.edge.relay.RelayServer`): frames sent go to its
    ``handle_frame``, its ``pending_upstream`` frames come back on
    :meth:`InProcessTransport.flush`.  Both are looked up per call, so
    a test that wants the bytes assigns a wrapper to
    ``dialer.handle_frame`` — before or after the node joins."""
    link = InProcessTransport(dialer.name, faults=faults)
    link.connect(lambda d: dialer.handle_frame(d), lambda: dialer.pending_upstream())
    return link


def join(listener, dialer, faults: FaultInjector | None = None) -> InProcessTransport:
    """The registration handshake (DESIGN.md section 8.2) without a
    socket: the hello → config → admit exchange of
    :func:`~repro.edge.socket_transport.dial_handshake` and
    :func:`~repro.edge.socket_transport.serve_handshakes`, run as
    objects between a listener seat (``config_frame`` / ``admit``) and
    a dialer seat (``hello`` / ``adopt_config`` / ``handle_frame`` /
    ``pending_upstream``).  The listener sanitises the hello and
    records the delivered config exactly as it does for a socket
    dialer; only the medium differs.  Returns the listener → dialer
    link, which carries ``faults``.

    Raises:
        ReplicationError: If the listener has no config to hand out
            yet (a relay that has not itself joined upstream).
    """
    hello = dialer.hello()
    sent = listener.config_frame()
    dialer.adopt_config(sent)
    link = wire(dialer, faults)
    listener.admit(hello, link, sent)
    return link
