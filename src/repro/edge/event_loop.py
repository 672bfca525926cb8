"""Single-threaded non-blocking fan-out: the reactor hot path.

A blocking link spends one ``sendall`` (and, at settle points, one
blocking reply read) per edge per frame — fine for tens of edges,
hopeless for the fleet sizes the paper's edge model targets.  The
central-side delivery hot path is therefore a classic reactor
(DESIGN.md section 11), and it is the *only* central-side TCP path:

* :class:`EdgeEventLoop` — a ``selectors``-based event loop owning all
  edge sockets in non-blocking mode.  Each connection keeps an
  outbound queue of header/payload buffers; flushing gathers a whole
  queued delta batch into **one** ``sendmsg`` syscall (vectored
  writes), and inbound bytes land in the shared
  :class:`~repro.edge.socket_transport.FrameDecoder` via ``recv_into``
  (no per-frame ``bytes`` concatenation).  Write interest is
  registered only while a send would block (``EWOULDBLOCK`` / partial
  write) — the selector never spins on always-writable sockets.
* :class:`ReactorTransport` — the :class:`~repro.edge.link.Transport`
  over one reactor connection.  ``send`` only *enqueues* (bytes reach
  the socket on the next loop spin), so the fan-out engine's AIMD
  window is the backpressure signal: a full window parks the edge's
  queue instead of blocking a thread.  Fault injection mirrors
  :class:`~repro.edge.link.InProcessTransport` exactly, byte
  metering included, so every byte-parity bench holds across media.
* :class:`SocketListener` — the listener seat over a socket: bind,
  accept thread, every registered dialer a :class:`ReactorTransport`
  admitted to the node (the central's deployment and a relay's
  downstream face are both one of these).
* The dialer seat's plumbing — :func:`join`, :func:`guarded_handler`
  and :func:`serve_dialed`: after the (blocking) handshake a dialer is
  served from a loop too, by one join, one guarded frame handler and
  one redial loop shared by the edge process, hosted edges and the
  relay.
* :class:`EdgeHost` — many in-process :class:`~repro.edge.edge_server.EdgeServer`\\ s
  behind *real* loopback TCP sockets, all served from one background
  thread running its own reactor.  This is what lets one test process
  drive hundreds of TCP edges without hundreds of threads or OS
  processes.

The wire protocol is the one every medium speaks: the same frames,
the same cumulative-ack and monotonic-cursor semantics (DESIGN.md
section 10) as the in-process link — only *when* syscalls happen is
this module's business.

Role and ownership: this module is plumbing, not policy — it moves
bytes for whichever seat owns the loop.  Every socket registered with
an :class:`EdgeEventLoop` is owned by the single thread that calls
:meth:`EdgeEventLoop.run_once`; transports touched from other threads
only ever *enqueue* (appends are made safe by the queue lock), and the
loop thread alone performs syscalls.  One loop can serve several
seats at once: the central's accepted edge links, an
:class:`EdgeHost`'s listener plus its in-process edges, and a relay's
upstream *client* socket alongside its downstream *server* sockets
(``repro.edge.relay`` runs both faces on one loop, one thread).
Trust: the reactor holds no signing key and sees only
already-serialized frames; compromising it can drop or delay bytes —
which the cursor/nack machinery treats as a lossy link — never forge
them.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

from repro.edge import telemetry
from repro.edge.edge_server import EdgeServer
from repro.edge.link import FaultInjector, SendOutcome, Transport
from repro.edge.socket_transport import (
    _IOV_MAX,
    _RECV_CHUNK,
    FRAME_HEADER,
    FrameDecoder,
    connect_with_retry,
    dial_handshake,
    listen_on,
    serve_handshakes,
)
from repro.edge.transport import (
    MAX_FRAME_BYTES,
    CursorAckFrame,
    Frame,
    QueryResponseFrame,
    error_response,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.exceptions import TransportError

__all__ = [
    "EdgeEventLoop",
    "ReactorTransport",
    "SocketListener",
    "guarded_handler",
    "join",
    "serve_dialed",
    "EdgeHost",
]


class _Connection:
    """One registered socket: queues, decoder, and interest state."""

    __slots__ = (
        "name", "sock", "decoder", "out", "inbox", "handler",
        "closed", "want_write", "registered", "gate",
    )

    def __init__(
        self,
        name: str,
        sock: socket.socket,
        handler: Optional[Callable[[bytes], Sequence[bytes]]] = None,
    ) -> None:
        self.name = name
        self.sock = sock
        self.decoder = FrameDecoder()
        #: Outbound byte buffers (header, payload, header, payload, …).
        self.out: deque = deque()
        #: Complete inbound frame payloads awaiting collection
        #: (transport-owned connections only).
        self.inbox: list[bytes] = []
        self.handler = handler
        self.closed = False
        self.want_write = False
        self.registered = False
        #: Optional writability gate — ``False`` parks the queue
        #: (fault injection: a held/partitioned link keeps its frames
        #: queued without ever blocking the loop).
        self.gate: Optional[Callable[[], bool]] = None

    @property
    def queued_bytes(self) -> int:
        return sum(len(b) for b in self.out)


class EdgeEventLoop:
    """A ``selectors`` reactor multiplexing every edge socket.

    One instance owns all its sockets from whichever thread is
    currently driving :meth:`run_once` (calls are serialized by an
    internal lock; other threads may :meth:`register` or
    :meth:`enqueue` concurrently — registration is deferred to the
    next spin via the wake pipe, enqueueing is lock-free per
    connection under the loop lock).

    Attributes:
        syscalls: ``{"sendmsg", "recv", "select"}`` tallies — the
            bench's evidence that a whole delta batch rides one
            syscall per edge.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._lock = threading.RLock()
        self._reg_lock = threading.Lock()
        self._pending: list[_Connection] = []
        self._conns: list[_Connection] = []
        self._closed = False
        self.syscalls: dict[str, int] = {"sendmsg": 0, "recv": 0, "select": 0}
        # Wake pipe: lets another thread (accept loop, shutdown) make a
        # blocked select() return immediately.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)

    # ------------------------------------------------------------------
    # Registration (any thread)
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        sock: socket.socket,
        handler: Optional[Callable[[bytes], Sequence[bytes]]] = None,
    ) -> _Connection:
        """Adopt ``sock`` (ownership transfers; set non-blocking).

        The connection is usable immediately (``enqueue`` buffers in
        user space); the selector registration itself happens on the
        next :meth:`run_once` so only the loop-driving thread ever
        touches the selector.
        """
        sock.setblocking(False)
        conn = _Connection(name, sock, handler)
        with self._reg_lock:
            if self._closed:
                raise TransportError("event loop is closed")
            self._pending.append(conn)
        self.wakeup()
        return conn

    def wakeup(self) -> None:
        """Make a concurrent blocked ``select`` return promptly."""
        try:
            self._wake_w.send(b"\x00")
        except (OSError, ValueError):
            pass  # buffer full (already pending) or shutting down

    def _admit_pending(self) -> None:
        with self._reg_lock:
            fresh, self._pending = self._pending, []
        for conn in fresh:
            if conn.closed:
                continue
            try:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            except (OSError, ValueError):
                conn.closed = True
                continue
            conn.registered = True
            self._conns.append(conn)

    def close_conn(self, conn: _Connection) -> None:
        """Tear one connection down (idempotent, any thread)."""
        self.wakeup()
        with self._lock:
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.out.clear()
        if conn.registered:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, OSError, ValueError):
                pass
            conn.registered = False
            try:
                self._conns.remove(conn)
            except ValueError:
                pass
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------

    def enqueue(self, conn: _Connection, data: bytes) -> None:
        """Queue one length-prefixed frame for the next flush."""
        if len(data) > MAX_FRAME_BYTES:
            raise TransportError(f"frame of {len(data)} bytes exceeds limit")
        conn.out.append(FRAME_HEADER.pack(len(data)))
        conn.out.append(data)

    def _flush_conn(self, conn: _Connection) -> None:
        """Drain one connection's queue with vectored writes.

        The whole queue — however many frames a pump cycle parked
        there — goes out in ``ceil(len/IOV_MAX)`` ``sendmsg`` calls.
        ``EWOULDBLOCK`` or a partial write registers write interest;
        the selector finishes the job when the kernel buffer drains.
        """
        while conn.out and not conn.closed:
            if conn.gate is not None and not conn.gate():
                return  # parked by fault injection — keep the queue
            bufs = [
                conn.out[i] for i in range(min(len(conn.out), _IOV_MAX))
            ]
            self.syscalls["sendmsg"] += 1
            try:
                sent = conn.sock.sendmsg(bufs)
            except (BlockingIOError, InterruptedError):
                self._want_write(conn, True)
                return
            except OSError as exc:
                telemetry.note("event_loop.flush_conn", exc, detail=conn.name)
                self._close_conn(conn)
                return
            while conn.out and sent >= len(conn.out[0]):
                sent -= len(conn.out[0])
                conn.out.popleft()
            if sent:
                head = conn.out.popleft()
                conn.out.appendleft(memoryview(head)[sent:])
                self._want_write(conn, True)
                return
        self._want_write(conn, False)

    def _want_write(self, conn: _Connection, want: bool) -> None:
        if conn.want_write == want or not conn.registered:
            conn.want_write = want and conn.registered
            return
        conn.want_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, OSError, ValueError):
            self._close_conn(conn)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    def _read_conn(self, conn: _Connection) -> None:
        while not conn.closed:
            view = conn.decoder.writable(_RECV_CHUNK)
            self.syscalls["recv"] += 1
            try:
                n = conn.sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                telemetry.note("event_loop.read_conn", exc, detail=conn.name)
                self._close_conn(conn)
                return
            if n == 0:  # clean EOF
                self._close_conn(conn)
                return
            conn.decoder.wrote(n)
            if n < len(view):
                break  # socket drained
        while True:
            try:
                data = conn.decoder.next_frame()
            except TransportError as exc:
                # A framing error is never routine: the stream is
                # misaligned and the only safe move is to drop the
                # link — but it must leave a trace.
                telemetry.note("event_loop.framing", exc, detail=conn.name)
                self._close_conn(conn)
                return
            if data is None:
                return
            if conn.handler is None:
                conn.inbox.append(data)
            else:
                for reply in conn.handler(data):
                    self.enqueue(conn, reply)

    # ------------------------------------------------------------------
    # The spin
    # ------------------------------------------------------------------

    def run_once(self, timeout: float = 0.0, flush_writes: bool = True) -> int:
        """One reactor spin; returns the number of ready connections.

        ``flush_writes=False`` is the pump's read-collect mode: apply
        whatever readiness the kernel already has, but leave outbound
        queues parked so consecutive pumps keep coalescing — the
        drain/settle path flushes them in one vectored write per edge.
        """
        with self._lock:
            if self._closed:
                return 0
            self._admit_pending()
            if flush_writes:
                for conn in list(self._conns):
                    if conn.out:
                        self._flush_conn(conn)
            self.syscalls["select"] += 1
            try:
                events = self._selector.select(timeout)
            except (OSError, ValueError):
                return 0
            processed = 0
            for key, mask in events:
                conn = key.data
                if conn is None:  # wake pipe
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                    continue
                if conn.closed:
                    continue
                if mask & selectors.EVENT_WRITE:
                    self._flush_conn(conn)
                if mask & selectors.EVENT_READ:
                    self._read_conn(conn)
                processed += 1
            if flush_writes:
                # Replies a handler just enqueued go out on this spin,
                # not the next — one extra pass, zero extra latency.
                for conn in list(self._conns):
                    if conn.out and not conn.want_write:
                        self._flush_conn(conn)
            return processed

    def close(self) -> None:
        """Tear the loop down: every connection, then the selector."""
        with self._reg_lock:
            self._closed = True
            pending, self._pending = self._pending, []
        self.wakeup()
        with self._lock:
            for conn in pending + list(self._conns):
                self._close_conn(conn)
            try:
                self._selector.close()
            except (OSError, ValueError):
                pass
            for sock in (self._wake_r, self._wake_w):
                try:
                    sock.close()
                except OSError:
                    pass


class ReactorTransport(Transport):
    """Central-side transport over one :class:`EdgeEventLoop` connection.

    Every accepted TCP link is one of these.  The surface is
    pipelined: ``send`` never performs a syscall — frames queue on the
    connection and ship in vectored batches when the loop spins
    (drain, settle, or query time) — and replies are matched to sends
    by cumulative cursors, never one-for-one.  Fault
    semantics and byte metering mirror
    :class:`~repro.edge.link.InProcessTransport` outcome-for-outcome
    so parity benches compare equals:

    * ``partitioned`` — ``failed``, nothing metered, nothing queued.
    * ``drop_next`` — metered then dropped (bytes left, frame lost).
    * ``hold`` — metered and queued, the queue parked via the
      connection gate until the fault clears.
    * ``delay`` — metered and queued, the queue parked until
      ``delay`` seconds after the last delayed send — latency shaping
      that never blocks the loop (healthy peers flush on schedule
      while the slow link's deadline runs down).

    Args:
        name: The edge's name (link label).
        loop: The owning reactor.
        sock: Connected socket (ownership transfers to the loop).
        faults: Initial fault state (healthy by default).
        timeout: Reply deadline for :meth:`request` — a peer silent
            for longer counts as wedged (the reply just isn't coming)
            and the link is closed.
    """

    def __init__(
        self,
        name: str,
        loop: EdgeEventLoop,
        sock: socket.socket,
        faults: FaultInjector | None = None,
        timeout: float = 10.0,
    ) -> None:
        super().__init__(name, faults=faults)
        self.timeout = timeout
        self._loop = loop
        self._lock = threading.RLock()
        self._pending = 0
        self._stray: list[Frame] = []
        self._conn = loop.register(name, sock)
        self._conn.gate = self._may_write
        #: Monotonic deadline before which the outbound queue stays
        #: parked (``faults.delay`` shaping; 0.0 = no shaping).
        self._slow_until = 0.0

    def _may_write(self) -> bool:
        if self.faults.blocks_delivery:
            return False
        return time.monotonic() >= self._slow_until

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        """False once the socket is known dead (faults are weather)."""
        return not self._conn.closed

    @property
    def queued_frames(self) -> int:
        """Frames sent but not yet matched with a reply."""
        if self._conn.closed:
            return 0
        return self._pending

    def close(self) -> None:
        self._loop.close_conn(self._conn)

    # ------------------------------------------------------------------
    # Transport surface
    # ------------------------------------------------------------------

    def send(self, frame: Frame) -> SendOutcome:
        """Enqueue one frame — no syscall, ever, on this path.

        Returns ``status="queued"`` (the fan-out window counts it) or
        ``status="failed"`` on a dead/partitioned link; ``dropped``
        under drop injection.  Actual bytes leave in the next loop
        spin's vectored flush.
        """
        with self._lock:
            if self._conn.closed:
                return SendOutcome(status="failed")
            if self.faults.partitioned:
                return SendOutcome(status="failed")
            data = frame_to_bytes(frame)
            self._record_send(data, frame)
            if self.faults.drop_next > 0:
                self.faults.drop_next -= 1
                return SendOutcome(status="dropped")
            if self.faults.delay > 0:
                self._slow_until = max(
                    self._slow_until, time.monotonic() + self.faults.delay
                )
            self._loop.enqueue(self._conn, data)
            self._pending += 1
            return SendOutcome(status="queued")

    def _collect(self) -> list:
        """Decode and meter everything the loop has landed in the inbox."""
        replies = list(self._stray)
        self._stray.clear()
        inbox, self._conn.inbox = self._conn.inbox, []
        for data in inbox:
            try:
                reply = frame_from_bytes(data)
            except TransportError as exc:
                telemetry.note("reactor_transport.framing", exc, detail=self.name)
                self._loop.close_conn(self._conn)
                break
            if isinstance(reply, CursorAckFrame):
                # Cumulative: answers *everything* the peer received
                # before emitting it (FIFO link, cursors cover the
                # lot) — one-for-one accounting would drift upward
                # forever on a coalescing link.
                self._pending = 0
            else:
                self._pending = max(0, self._pending - 1)
            self._record_reply(data, reply)
            replies.append(reply)
        return replies

    def flush(self) -> list:
        """Collect reply frames previous loop spins already delivered.

        Performs **no I/O at all** — draining five hundred peers costs
        five hundred list-swaps, not five hundred selects — so a slow
        edge can never stall the write path: its unacknowledged frames
        simply keep occupying the in-flight window.  The one place
        that waits for acks is the fan-out engine's wait-drain, which
        spins the loop between flushes.
        """
        with self._lock:
            return self._collect()

    def request(self, frame: Frame) -> Frame:
        """One synchronous request/reply round-trip (query path).

        Replies arrive strictly in order, so the answer is the first
        :class:`~repro.edge.transport.QueryResponseFrame` after the
        send; replication replies read on the way (acks a coalescing
        edge was holding) are stashed for the next :meth:`flush`.
        Matching by *type* instead of by count matters under batched
        acks: a peer with deferred acks outstanding answers fewer
        frames than it received.  Driving :meth:`run_once`
        here also flushes any queued replication frames first — the
        link is FIFO, so the query cannot overtake a delta.

        Raises:
            TransportError: If the link is down, held, or drops
                mid-exchange.
        """
        with self._lock:
            outcome = self.send(frame)
            if outcome.status == "dropped":
                raise TransportError(f"request to {self.name!r} lost in flight")
            if outcome.status != "queued":
                raise TransportError(f"link to {self.name!r} is down")
            if self.faults.hold:
                # Mirror InProcessTransport: the frame stays queued in
                # the slow link, but a synchronous caller cannot wait.
                raise TransportError(
                    f"link to {self.name!r} timed out (peer holding frames)"
                )
            deadline = time.monotonic() + self.timeout
            while True:
                for reply in self._collect():
                    if isinstance(reply, QueryResponseFrame):
                        return reply
                    self._stray.append(reply)
                if self._conn.closed:
                    raise TransportError(
                        f"link to {self.name!r} lost awaiting reply"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._loop.close_conn(self._conn)
                    raise TransportError(
                        f"link to {self.name!r} timed out awaiting reply"
                    )
                self._loop.run_once(min(remaining, 0.2))


class SocketListener:
    """The listener seat over a socket (docs/ARCHITECTURE.md section
    3): bind, then an accept thread running
    :func:`~repro.edge.socket_transport.serve_handshakes`, each
    registered dialer wrapped in a :class:`ReactorTransport` on
    :attr:`loop` and handed to ``node.admit(hello, transport, sent)``
    — what :func:`repro.edge.link.join` does as objects.  The node's
    fan-out engine waits on :attr:`loop` from here on.

    Args:
        node: The listener seat (``admit`` / ``fanout``): a central
            server or a relay.
        host / port: Where to listen (``0`` = ephemeral; read
            :attr:`address`).
        site: Telemetry site prefix and accept-thread label.
        io_timeout: Handshake budget, and every accepted link's
            request deadline.
        config: Produces the handshake reply — the node's
            ``config_frame()``, dressed or awaited as its owner needs
            (a shard's map; a relay still dialing upstream).
        admitted: Called with ``(hello, transport)`` after each admit,
            on the accept thread — the owner's bookkeeping.
        loop: Share an existing reactor instead of owning one; a
            shared loop is not closed by :meth:`close`.

    Raises:
        OSError: If the bind fails — before a loop or thread exists,
            ``node.fanout.reactor`` untouched.
    """

    def __init__(
        self,
        node,
        host: str,
        port: int,
        *,
        site: str,
        io_timeout: float,
        config: Callable,
        admitted: Callable,
        loop: Optional[EdgeEventLoop] = None,
    ) -> None:
        self._node = node
        self._sock = listen_on(host, port)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._owns_loop = loop is None
        self.loop = loop if loop is not None else EdgeEventLoop()
        node.fanout.reactor = self.loop

        def attach(conn: socket.socket, hello, sent) -> None:
            transport = ReactorTransport(
                hello.edge, self.loop, conn, timeout=io_timeout
            )
            node.admit(hello, transport, sent)
            admitted(hello, transport)

        self._thread = threading.Thread(
            target=serve_handshakes,
            args=(self._sock, site, io_timeout, config, attach),
            name=f"{site}-accept",
            daemon=True,
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, close the loop if it is ours (and with it
        every accepted link), and reap the accept thread."""
        try:
            # shutdown() (not just close()) is what actually wakes a
            # thread blocked in accept() on Linux.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if self._owns_loop:
            self.loop.close()
        if self._node.fanout.reactor is self.loop:
            self._node.fanout.reactor = None
        self._thread.join(timeout=timeout)


#: Selector timeout of an edge seat's serving spins (readiness wakes
#: the loop; the timeout only bounds how long a stop request waits).
_EDGE_SPIN = 0.2


def guarded_handler(node) -> Callable[[bytes], Sequence[bytes]]:
    """The frame handler of every dialed seat — a subprocess edge, a
    hosted edge, a relay's upstream face: ``node.handle_frame``, with
    one bad frame answered by an error reply instead of a dead node
    (the listener expects a reply per request, and garbage or off-role
    bytes from upstream must not take a whole subtree down)."""

    def handler(data: bytes) -> Sequence[bytes]:
        try:
            return node.handle_frame(data)
        except Exception as exc:  # broad by design; counted per FL002
            telemetry.note("dialed.handle_frame", exc, detail=node.name)
            return [
                frame_to_bytes(
                    error_response(node.name, f"{type(exc).__name__}: {exc}")
                )
            ]

    return handler


def join(loop: EdgeEventLoop, sock: socket.socket, node) -> _Connection:
    """Join a listener as ``node`` — a dialer seat: an edge, or a
    relay's upstream face — over the connected ``sock``: the
    registration handshake (blocking — the one thing a dialer blocks
    on; ``node.hello()`` carries whatever resume cursors it holds),
    then the node adopts the reply — bundle and ack policy, so a
    rotation missed while disconnected is known before any frame —
    and serves from ``loop`` under its own name behind
    :func:`guarded_handler`.  Returns the connection; on a
    ``TransportError`` ``sock`` stays the caller's to close."""
    node.adopt_config(dial_handshake(sock, node.hello()))
    return loop.register(node.name, sock, handler=guarded_handler(node))


def serve_dialed(
    loop: EdgeEventLoop,
    host: str,
    port: int,
    join: Callable[[socket.socket], _Connection],
    *,
    label: str,
    spin: float = _EDGE_SPIN,
    each_spin: Optional[Callable[[_Connection], None]] = None,
    stop: Optional[threading.Event] = None,
    max_reconnects: int | None = None,
    retry_attempts: int = 40,
    retry_delay: float = 0.25,
    io_timeout: float = 30.0,
    verbose: bool = False,
) -> None:
    """The dial → handshake → serve → redial loop of a dialing process.

    ``join(sock) -> connection`` is the seat: which hello to send, what
    to do with the reply config, whose handler to register on ``loop``.
    A ``TransportError``/``OSError`` out of it is a failed handshake —
    counted at ``dialed.handshake`` and re-dialed, never fatal.  The
    connection is then served (``spin`` = selector timeout; ``each_spin``
    runs after every spin, e.g. a relay's downstream pump) until it
    closes or ``stop`` is set, and re-dialed up to ``max_reconnects``
    times (``None`` = until dialing itself fails, ``retry_attempts`` ×
    ``retry_delay`` per dial).  ``io_timeout`` bounds connect and
    handshake only: a served link has no timeout, an idle one is just
    a quiet selector.  ``label`` tags the ``verbose`` narration.

    Raises:
        TransportError: If the listener cannot be reached before the
            seat was ever served (after that, the upstream going away
            for good is a normal shutdown).
    """
    stop = stop if stop is not None else threading.Event()
    served = False
    reconnects = 0
    while not stop.is_set():
        try:
            sock = connect_with_retry(
                host, port, attempts=retry_attempts, delay=retry_delay,
                timeout=io_timeout,
            )
        except TransportError:
            if served:
                return
            raise
        sock.settimeout(io_timeout)
        try:
            conn = join(sock)
        except (TransportError, OSError) as exc:
            # Timed out / tore mid-frame / wrong reply (e.g. the
            # listener's accept loop was busy): a disconnect, re-dial.
            telemetry.note("dialed.handshake", exc, detail=label)
            sock.close()
        else:
            served = True
            if verbose:
                print(f"[{label}] connected to {host}:{port}", flush=True)
            while not stop.is_set() and not conn.closed:
                loop.run_once(spin)
                if each_spin is not None:
                    each_spin(conn)
            loop.close_conn(conn)
            if verbose:
                print(f"[{label}] disconnected", flush=True)
        reconnects += 1
        if max_reconnects is not None and reconnects > max_reconnects:
            return


class EdgeHost:
    """A fleet of edge servers over real TCP, one thread, one reactor.

    Each hosted edge dials the central listener and joins the host's
    private :class:`EdgeEventLoop` through :func:`join` —
    exactly the seat a ``python -m repro.edge.serve`` process takes —
    so hundreds of connected TCP edges cost one serving thread and a
    selector.

    Args:
        host / port: The central listener's address (a
            :class:`~repro.edge.deploy.Deployment`'s ``address``).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.loop = EdgeEventLoop()
        self.edges: dict = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def launch(self, name: str, io_timeout: float = 10.0) -> None:
        """Dial, handshake, and adopt one edge into the reactor."""
        sock = connect_with_retry(self.host, self.port, timeout=io_timeout)
        sock.settimeout(io_timeout)
        edge = EdgeServer(name)
        try:
            join(self.loop, sock, edge)
        except (TransportError, OSError):
            sock.close()
            raise
        self.edges[name] = edge

    def launch_fleet(self, names: Sequence[str], io_timeout: float = 10.0) -> None:
        """Dial and register many edges, then start serving."""
        for name in names:
            self.launch(name, io_timeout=io_timeout)
        self.start()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._serve, name="edge-host", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                self.loop.run_once(_EDGE_SPIN)
            except OSError as exc:
                # A torn socket mid-spin must not kill the host
                # thread; its conn was closed.
                telemetry.note("edge_host.serve", exc)
                continue
            except Exception as exc:  # broad by design: anything else
                # escaping run_once is a bug: count it loudly instead
                # of spinning silently over it forever.
                telemetry.note("edge_host.serve.unexpected", exc)
                continue

    def close(self) -> None:
        self._stop.set()
        self.loop.wakeup()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.loop.close()

    def __enter__(self) -> "EdgeHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
