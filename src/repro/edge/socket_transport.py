"""Real-socket framing: the frame codec over TCP, and the handshake.

The in-process transport proves the central↔edge boundary is
message-shaped; this module makes it *physical*.  Frames travel
length-prefixed over a TCP stream — a 4-byte big-endian length header
followed by the exact bytes :func:`~repro.edge.transport.frame_to_bytes`
produces — so the two ends can live in different OS processes (or
hosts), which is the paper's actual deployment model (Section 3.1: edge
servers on untrusted machines reachable only over a network).

Wire protocol per connection (see DESIGN.md section 8):

1. The *dialer* (an edge, or a relay posing as one) connects to a
   listener and sends a :class:`~repro.edge.transport.HelloFrame` — its
   name plus the replica cursors it already holds (empty for a fresh
   process).  :func:`dial_handshake` is the one implementation.
2. The *listener* (the central, or a relay's downstream face) replies
   with a :class:`~repro.edge.transport.ConfigFrame` (the public
   verification bundle) and hands the accepted socket to its reactor
   as a :class:`~repro.edge.event_loop.ReactorTransport`, seeding the
   fan-out engine's cursors from the hello.  :func:`serve_handshakes`
   is the one implementation.
3. From then on the listener side pushes snapshot / delta / query
   frames; the dialer answers in order (acks may be coalesced into
   cumulative cursor acks, DESIGN.md section 10).

What lives here is only what must *block*, and that is the handshake:
both sides of it use :func:`send_frame` / :func:`recv_frame` on a
blocking socket.  Every established link — the listener's accepted
sockets and the dialer's served one alike — is non-blocking and owned
by an event loop (:mod:`repro.edge.event_loop`), which shares
:class:`FrameDecoder`.

Failure mapping — every socket-level fault lands in the machinery that
already exists for in-process faults, so a killed or wedged edge
process needs **no new recovery code**:

=====================================  ================================
socket condition                       mapped onto
=====================================  ================================
``ECONNRESET`` / ``EPIPE`` on write    ``SendOutcome(status="failed")``
                                       (like a partitioned link)
EOF or reset while awaiting replies    link closed; in-flight frames
                                       forgotten, cursors stay behind
settle budget spent (silent peer)      in-flight frames forgotten and
                                       resent; the link stays up
query reply deadline passed            link closed (wedged edge)
mid-frame disconnect                   :class:`TransportError` →
                                       link closed
reconnect with cursors                 delta resume from the hello's
                                       cursors
reconnect without cursors (restart)    epoch mismatch → snapshot heal
=====================================  ================================
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Callable, Optional

from repro.edge import telemetry
from repro.edge.transport import (
    MAX_FRAME_BYTES,
    ConfigFrame,
    HelloFrame,
    frame_from_bytes,
    frame_limit,
    frame_to_bytes,
)
from repro.exceptions import TransportError

__all__ = [
    "FRAME_HEADER",
    "FrameDecoder",
    "send_frame",
    "recv_frame",
    "connect_with_retry",
    "listen_on",
    "dial_handshake",
    "serve_handshakes",
]

#: 4-byte big-endian frame length prefix.
FRAME_HEADER = struct.Struct(">I")

#: Read granularity for :func:`recv_frame`.
_RECV_CHUNK = 1 << 16

#: Most buffers one ``sendmsg`` may carry (POSIX IOV_MAX is 1024 on
#: every platform we run on; staying at half leaves headroom).
_IOV_MAX = 512

class FrameDecoder:
    """Incremental zero-copy decoder for length-prefixed frame streams.

    The event-loop reactor's (:mod:`repro.edge.event_loop`) read
    buffer.  Bytes land directly in a growable
    ``bytearray`` via :meth:`writable` + ``recv_into`` (no per-``recv``
    ``bytes`` concatenation), and :meth:`next_frame` pops complete
    frames with exactly one copy per frame — the ``bytes`` handed to
    :func:`~repro.edge.transport.frame_from_bytes`.  Consumed space is
    reclaimed by compaction only when the tail runs out of room, so a
    steady stream of small frames never reallocates.

    Usage (socket read path)::

        view = decoder.writable()
        n = sock.recv_into(view)
        decoder.wrote(n)
        while (frame := decoder.next_frame()) is not None:
            ...

    Raises:
        TransportError: From :meth:`next_frame` on an implausible
            length header (stream corruption — the connection is
            unrecoverable, exactly as for :func:`recv_frame`).
    """

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self, initial: int = _RECV_CHUNK) -> None:
        self._buf = bytearray(max(initial, FRAME_HEADER.size))
        self._head = 0  # first unconsumed byte
        self._tail = 0  # one past the last byte written

    def __len__(self) -> int:
        """Bytes buffered but not yet popped as frames."""
        return self._tail - self._head

    def writable(self, want: int = _RECV_CHUNK) -> memoryview:
        """A writable view of at least ``want`` bytes at the tail.

        Compacts (slides the unconsumed region to the front) or grows
        the buffer as needed; the caller reports how much it actually
        wrote via :meth:`wrote`.
        """
        want = max(1, want)
        if len(self._buf) - self._tail < want:
            used = self._tail - self._head
            if len(self._buf) - used >= want:
                # Room after compaction: slide in place.  Same-size
                # slice assignment never resizes, so this is safe even
                # while a previously handed-out view is still alive.
                if self._head and used:
                    self._buf[:used] = self._buf[self._head:self._tail]
            else:
                # Grow by swapping in a fresh buffer: resizing in place
                # raises ``BufferError`` while any earlier view is
                # still referenced (the read loops keep their last view
                # bound across iterations).
                grown = bytearray(max(used + want, 2 * len(self._buf)))
                grown[:used] = self._buf[self._head:self._tail]
                self._buf = grown
            self._head, self._tail = 0, used
        return memoryview(self._buf)[self._tail:self._tail + want]

    def wrote(self, n: int) -> None:
        """Commit ``n`` bytes just written into :meth:`writable`."""
        self._tail += n

    def feed(self, data) -> None:
        """Append ``data`` (bytes-like) — the non-``recv_into`` path."""
        view = self.writable(len(data))
        view[:len(data)] = data
        self.wrote(len(data))

    def next_frame(self) -> Optional[bytes]:
        """Pop one complete frame payload, or ``None`` if not yet here.

        Raises:
            TransportError: On a length header exceeding
                :data:`MAX_FRAME_BYTES`.
        """
        avail = self._tail - self._head
        if avail < FRAME_HEADER.size:
            if avail == 0:
                self._head = self._tail = 0  # free rewind, no compaction
            return None
        (length,) = FRAME_HEADER.unpack_from(self._buf, self._head)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"declared frame length {length} exceeds limit"
            )
        end = self._head + FRAME_HEADER.size + length
        if end > self._tail:
            return None
        data = bytes(memoryview(self._buf)[self._head + FRAME_HEADER.size:end])
        self._head = end
        if self._head == self._tail:
            self._head = self._tail = 0
        return data


def send_frame(sock: socket.socket, data: bytes) -> int:
    """Write one length-prefixed frame; returns bytes put on the wire.

    ``sendall`` either ships every byte or raises ``OSError`` — a short
    write surfaces as a connection error, never as a truncated frame on
    the peer.
    """
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(data)} bytes exceeds limit")
    payload = FRAME_HEADER.pack(len(data)) + data
    sock.sendall(payload)
    return len(payload)


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (``time.monotonic`` seconds).

    Raises:
        TransportError: Once it has passed.
    """
    left = deadline - time.monotonic()
    if left <= 0:
        raise TransportError("handshake deadline passed")
    return left


def _recv_up_to(sock: socket.socket, n: int, deadline: Optional[float]) -> bytes:
    """Read ``n`` bytes, across as many partial reads as needed; fewer
    come back only when the peer closed first.

    ``deadline`` (``time.monotonic`` seconds) covers the *whole* read:
    each ``recv`` waits only for what is left of it, so a peer that
    trickles a byte per timeout cannot hold the caller past it.  With
    ``None`` the socket's own timeout applies per ``recv``.
    """
    chunks: list[bytes] = []
    received = 0
    while received < n:
        if deadline is not None:
            sock.settimeout(_time_left(deadline))
        try:
            chunk = sock.recv(min(_RECV_CHUNK, n - received))
        except TimeoutError:
            raise TransportError(
                f"timed out mid-read ({received}/{n} bytes)"
            ) from None
        if not chunk:
            break
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    limit: int = MAX_FRAME_BYTES,
    deadline: Optional[float] = None,
) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on clean EOF.

    Handles arbitrarily fragmented delivery (the header and body may
    arrive in any number of TCP segments).  ``limit`` is the most the
    caller is prepared to buffer — a reader that knows which frame
    comes next passes :func:`~repro.edge.transport.frame_limit` of it —
    and an announce above it is refused at the 4-byte header, before a
    byte of body is read.  ``deadline`` bounds the whole read (see
    :func:`_recv_up_to`).

    Raises:
        TransportError: On a mid-frame disconnect, a timeout, or a
            length header above ``limit``.
    """
    header = _recv_up_to(sock, FRAME_HEADER.size, deadline)
    if not header:
        return None
    if len(header) < FRAME_HEADER.size:
        raise TransportError("connection closed mid-frame (inside the header)")
    (length,) = FRAME_HEADER.unpack(header)
    if length > limit:
        raise TransportError(
            f"declared frame length {length} exceeds limit {limit}"
        )
    body = _recv_up_to(sock, length, deadline)
    if len(body) < length:
        raise TransportError(
            f"connection closed mid-frame ({len(body)}/{length} bytes)"
        )
    return body


def connect_with_retry(
    host: str,
    port: int,
    attempts: int = 40,
    delay: float = 0.25,
    timeout: float = 10.0,
) -> socket.socket:
    """Dial ``host:port``, retrying while the listener comes up.

    Raises:
        TransportError: When every attempt fails.
    """
    last: Exception | None = None
    for attempt in range(max(1, attempts)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                time.sleep(delay)
    raise TransportError(
        f"could not connect to {host}:{port} after {attempts} attempts: {last}"
    )


def listen_on(host: str, port: int) -> socket.socket:
    """A bound, listening TCP socket (closed again if the bind fails)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
    except OSError:
        listener.close()
        raise
    return listener


def dial_handshake(sock: socket.socket, hello: HelloFrame) -> ConfigFrame:
    """Dialer side of the registration handshake (blocking).

    Sends ``hello`` and returns the listener's
    :class:`~repro.edge.transport.ConfigFrame`.  Every dialer — an edge,
    process or hosted, and a relay's upstream face — registers through
    here, by :func:`repro.edge.event_loop.join`.  ``sock``'s timeout is the budget of the
    whole exchange, not of each ``recv``, and the reply is refused at
    its header above the largest config the schema admits.

    Raises:
        TransportError: If the listener hangs up mid-handshake, runs
            out the budget, or answers with anything but a config.
    """
    timeout = sock.gettimeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    send_frame(sock, frame_to_bytes(hello))
    data = recv_frame(sock, frame_limit(ConfigFrame), deadline)
    if data is None:
        raise TransportError("listener closed during handshake")
    reply = frame_from_bytes(data)
    if not isinstance(reply, ConfigFrame):
        raise TransportError(
            f"expected ConfigFrame, got {type(reply).__name__}"
        )
    return reply


def serve_handshakes(
    listener: socket.socket,
    site: str,
    io_timeout: float,
    config: Callable[[], ConfigFrame],
    attach: Callable[[socket.socket, HelloFrame, ConfigFrame], None],
) -> None:
    """Listener side of the registration handshake: the accept loop.

    Runs (on the caller's accept thread) until ``listener`` is closed.
    Each dialer's :class:`~repro.edge.transport.HelloFrame` is received
    and type-checked, answered with ``config()``, and the connection is
    handed to ``attach(conn, hello, sent_config)`` — which adopts the
    socket into the listener's reactor and registers the peer.  The
    loop is serial, so what one dialer can cost the next is bounded by
    the schema: an announce above the largest hello it admits is
    refused at the header, and one ``io_timeout`` deadline covers the
    whole hello → config exchange, however slowly the bytes trickle.  A
    broken dialer never takes the listener down: handshake faults are
    counted at ``<site>.accept_loop.handshake``, anything else at
    ``<site>.accept_loop.unexpected`` (the chaos gate), and the
    connection is dropped either way.

    Args:
        listener: Bound, listening socket.
        site: Telemetry site prefix (``"deploy"`` / ``"relay"``).
        io_timeout: Budget of one whole blocking exchange.
        config: Produces the verification bundle to reply with (may
            block briefly, e.g. a relay still waiting for its own
            upstream config; raise ``TransportError`` to refuse).
        attach: Adopts the registered connection.
    """
    while True:
        try:
            conn, _addr = listener.accept()
        except OSError:
            return  # listener closed: shutdown
        try:
            deadline = time.monotonic() + io_timeout
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            data = recv_frame(conn, frame_limit(HelloFrame), deadline)
            if data is None:
                raise TransportError("dialer closed during handshake")
            hello = frame_from_bytes(data)
            if not isinstance(hello, HelloFrame):
                raise TransportError(
                    f"expected HelloFrame, got {type(hello).__name__}"
                )
            sent = config()
            conn.settimeout(_time_left(deadline))
            send_frame(conn, frame_to_bytes(sent))
            attach(conn, hello, sent)
        except Exception as exc:  # broad by design: a broken dialer
            # must not take the listener down.  A torn or off-protocol
            # handshake is weather; anything else is a bug worth
            # counting at the site the chaos gate watches.
            weather = isinstance(exc, (TransportError, OSError))
            kind = "handshake" if weather else "unexpected"
            telemetry.note(f"{site}.accept_loop.{kind}", exc)
            try:
                conn.close()
            except OSError:
                pass
