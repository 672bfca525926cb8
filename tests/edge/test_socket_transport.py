"""The frame codec over real bytes (DESIGN.md section 8).

Everything here runs in one process (socketpairs and threads — no
subprocesses), so it belongs to the tier-1 suite: the framing layer's
partial-read / short-write / torn-frame behaviour, the accepted link's
(``ReactorTransport``) pipelined send/flush/request surface against
a blocking stub peer (a link has no blocking receive: the tests spin
its loop and flush, the way the fan-out engine's wait-drain does),
the Hello→Config handshake's error contract for every dialer, the dialed seats' one-bad-frame guard, and a full
handshake cycle with the edge served from a thread.  The multi-*process* deployment tests
live in ``test_deploy.py`` behind the ``socket`` marker.
"""

import socket
import threading
import time

import pytest

from repro.edge import telemetry
from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.edge_server import EdgeServer
from repro.edge.event_loop import (
    EdgeEventLoop,
    EdgeHost,
    ReactorTransport,
    guarded_handler,
    join,
)
from repro.edge.relay import RelayServer, run_relay
from repro.edge.serve import run_edge
from repro.edge.socket_transport import (
    FRAME_HEADER,
    connect_with_retry,
    recv_frame,
    send_frame,
)
from repro.edge.transport import (
    MAX_FRAME_BYTES,
    AckFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
    HelloFrame,
    QueryRequestFrame,
    QueryResponseFrame,
    frame_from_bytes,
    frame_limit,
    frame_to_bytes,
)
from repro.exceptions import TransportError
from repro.workloads.generator import TableSpec, generate_table

from tests.edge.golden_frames import MISTYPED_FRAMES

DB = "socketdb"


def make_central(rows=80, **kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=41, **kwargs)
    schema, data = generate_table(
        TableSpec(name="t", rows=rows, columns=4, seed=9)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    yield left, right
    for sock in (left, right):
        try:
            sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Framing over real bytes
# ---------------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        payload = bytes(range(256)) * 41
        send_frame(left, payload)
        assert recv_frame(right) == payload

    def test_empty_frame(self, pair):
        left, right = pair
        send_frame(left, b"")
        assert recv_frame(right) == b""

    def test_many_frames_back_to_back(self, pair):
        left, right = pair
        frames = [bytes([i]) * (i * 37 + 1) for i in range(20)]
        for data in frames:
            send_frame(left, data)
        for data in frames:
            assert recv_frame(right) == data

    def test_partial_reads_reassemble(self, pair):
        """The receiver sees the frame in many TCP segments (here:
        byte-by-byte) and must reassemble it exactly."""
        left, right = pair
        payload = b"fragmented-delivery" * 11
        wire = FRAME_HEADER.pack(len(payload)) + payload

        def dribble():
            for i in range(len(wire)):
                left.sendall(wire[i : i + 1])
                if i % 64 == 0:
                    time.sleep(0.001)

        thread = threading.Thread(target=dribble)
        thread.start()
        try:
            assert recv_frame(right) == payload
        finally:
            thread.join()

    def test_clean_eof_between_frames_is_none(self, pair):
        left, right = pair
        send_frame(left, b"last-frame")
        left.close()
        assert recv_frame(right) == b"last-frame"
        assert recv_frame(right) is None

    def test_mid_frame_disconnect_raises(self, pair):
        """EOF after the header but before the full body is a torn
        frame, never silently-truncated data."""
        left, right = pair
        payload = b"x" * 1000
        left.sendall(FRAME_HEADER.pack(len(payload)) + payload[:137])
        left.close()
        with pytest.raises(TransportError, match="mid-frame"):
            recv_frame(right)

    def test_eof_inside_header_raises(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(99)[:2])
        left.close()
        with pytest.raises(TransportError, match="mid-frame"):
            recv_frame(right)

    def test_implausible_length_header_rejected(self, pair):
        left, right = pair
        left.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="exceeds limit"):
            recv_frame(right)

    def test_a_reader_that_knows_the_next_frame_passes_its_limit(self, pair):
        """Refused at the header — no byte of the body is waited for."""
        left, right = pair
        right.settimeout(5)
        left.sendall(FRAME_HEADER.pack(101))
        with pytest.raises(TransportError, match="exceeds limit 100"):
            recv_frame(right, limit=100)

    def test_oversized_send_rejected_locally(self, pair):
        left, _right = pair

        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_BYTES + 1

        with pytest.raises(TransportError, match="exceeds limit"):
            send_frame(left, Huge())

    def test_connect_with_retry_gives_up(self):
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))  # bound but NOT listening
        port = sink.getsockname()[1]
        try:
            with pytest.raises(TransportError, match="attempts"):
                connect_with_retry("127.0.0.1", port, attempts=2, delay=0.01)
        finally:
            sink.close()


# ---------------------------------------------------------------------------
# The accepted link (ReactorTransport): pipelined sends, spin + flush,
# request, failure mapping — against a blocking stub peer
# ---------------------------------------------------------------------------


def _echo_acks(sock, count, *, lsn_of=lambda i: i + 1):
    """Peer stub: reply to ``count`` frames with positive acks."""
    for i in range(count):
        data = recv_frame(sock)
        if data is None:
            return
        frame = frame_from_bytes(data)
        ack = AckFrame(edge="stub", table=frame.table, ok=True,
                       lsn=lsn_of(i), epoch=0)
        send_frame(sock, frame_to_bytes(ack))


def _spin_until(transport, loop, count, deadline=5.0):
    """Spin the loop and flush — what a wait-drain does between
    solicitations — until ``count`` replies have been collected or
    the link is dead."""
    replies = []
    end = time.monotonic() + deadline
    while len(replies) < count and time.monotonic() < end:
        loop.run_once(0.05)
        replies.extend(transport.flush())
        if not transport.connected:
            break  # nothing more is coming
    return replies


@pytest.fixture
def link(pair):
    """A ``ReactorTransport`` over one end of a socketpair; the other
    end is a plain blocking socket the test plays the edge on."""
    left, right = pair
    loop = EdgeEventLoop()
    yield ReactorTransport("stub", loop, left, timeout=5), right, loop
    loop.close()


class TestReactorLink:
    def test_pipelined_sends_then_flush(self, link):
        transport, right, loop = link
        peer = threading.Thread(target=_echo_acks, args=(right, 3))
        peer.start()
        try:
            for i in range(3):
                outcome = transport.send(DeltaFrame("t", b"d%d" % i))
                assert outcome.status == "queued"
            assert transport.queued_frames == 3
            replies = _spin_until(transport, loop, 3)
        finally:
            peer.join()
        assert [r.lsn for r in replies] == [1, 2, 3]
        assert transport.queued_frames == 0
        # metering: both directions recorded, identically to in-process
        assert transport.down_channel.bytes_by_kind().keys() == {"delta"}
        assert transport.up_channel.bytes_by_kind().keys() == {"ack"}

    def test_send_after_peer_close_maps_to_failed(self, link):
        transport, right, loop = link
        right.close()
        # Sends only enqueue; the reset surfaces on a loop spin.  The
        # link must report failed within a few sends and never raise.
        for _ in range(20):
            outcome = transport.send(DeltaFrame("t", b"x" * 4096))
            if outcome.status == "failed":
                break
            loop.run_once(0.01)
        else:
            pytest.fail("send never observed the dead peer")
        assert not transport.connected

    def test_flush_on_dead_link_forgets_inflight(self, link):
        transport, right, loop = link
        assert transport.send(DeltaFrame("t", b"d")).status == "queued"
        right.close()  # peer dies with the ack outstanding
        assert _spin_until(transport, loop, 1) == []
        assert transport.queued_frames == 0
        assert not transport.connected
        assert transport.send(DeltaFrame("t", b"d2")).status == "failed"

    def test_nonblocking_flush_leaves_pending_acks(self, link):
        """The write-path drain must return instantly when the peer has
        not answered yet — a slow edge's frames keep occupying the
        window instead of stalling the caller."""
        transport, right, loop = link
        assert transport.send(DeltaFrame("t", b"d")).status == "queued"
        loop.run_once(0.0)  # the frame is on the wire, the peer silent
        start = time.perf_counter()
        assert transport.flush() == []  # nothing to collect
        assert time.perf_counter() - start < 0.5
        assert transport.queued_frames == 1
        assert transport.connected
        # The ack is picked up once the peer answers.
        _echo_acks(right, 1)
        replies = _spin_until(transport, loop, 1)
        assert [r.lsn for r in replies] == [1]
        assert transport.queued_frames == 0

    def test_partial_reply_does_not_block_or_tear_the_link(self, link):
        """A reply that has only half-arrived must neither block the
        non-blocking drain nor be mistaken for a fault — the fragment
        waits in the receive buffer until the rest shows up."""
        transport, right, loop = link
        assert transport.send(DeltaFrame("t", b"d")).status == "queued"
        loop.run_once(0.0)
        data = recv_frame(right)
        frame = frame_from_bytes(data)
        ack = frame_to_bytes(
            AckFrame(edge="stub", table=frame.table, ok=True, lsn=1, epoch=0)
        )
        wire = FRAME_HEADER.pack(len(ack)) + ack
        right.sendall(wire[:7])  # header + a sliver of the body
        start = time.perf_counter()
        loop.run_once(0.05)  # the fragment lands in the decoder
        assert transport.flush() == []  # non-blocking, fragment buffered
        assert time.perf_counter() - start < 0.5
        assert transport.connected
        assert transport.queued_frames == 1
        right.sendall(wire[7:])  # the rest arrives
        replies = _spin_until(transport, loop, 1)
        assert [r.lsn for r in replies] == [1]
        assert transport.queued_frames == 0

    def test_cumulative_ack_settles_all_pending(self, link):
        """A coalescing peer answers many sends with one cumulative
        ack.  Per-frame pending accounting would drift upward forever
        — the cumulative ack must zero the pending count."""
        transport, right, loop = link

        def coalescing_peer():
            for _ in range(3):
                recv_frame(right)
            ack = CursorAckFrame(edge="stub", cursors=(("t", 3, 0),))
            send_frame(right, frame_to_bytes(ack))

        thread = threading.Thread(target=coalescing_peer)
        thread.start()
        try:
            for i in range(3):
                transport.send(DeltaFrame("t", b"d%d" % i))
            start = time.perf_counter()
            replies = _spin_until(transport, loop, 1)
            elapsed = time.perf_counter() - start
        finally:
            thread.join()
        assert elapsed < 3.0, f"spun {elapsed:.1f}s on a settled link"
        assert [type(r).__name__ for r in replies] == ["CursorAckFrame"]
        assert transport.queued_frames == 0
        assert transport.connected

    def test_request_round_trip_and_stray_replies(self, link):
        """A query issued while replication acks are outstanding gets
        *its* reply (matched by type); the acks read on the way are
        stashed and surface on the next flush."""
        transport, right, _loop = link

        def peer():
            _echo_acks(right, 2)
            data = recv_frame(right)  # the query
            frame = frame_from_bytes(data)
            assert frame.kind == "range"
            send_frame(
                right,
                frame_to_bytes(QueryResponseFrame(edge="stub", payload=b"R")),
            )

        thread = threading.Thread(target=peer)
        thread.start()
        try:
            transport.send(DeltaFrame("t", b"d1"))
            transport.send(DeltaFrame("t", b"d2"))
            reply = transport.request(
                QueryRequestFrame(kind="range", table="t", low=1, high=2)
            )
        finally:
            thread.join()
        assert isinstance(reply, QueryResponseFrame)
        assert reply.payload == b"R"
        strays = transport.flush()
        assert [r.lsn for r in strays] == [1, 2]

    def test_request_on_dead_link_raises(self, link):
        transport, right, _loop = link
        right.close()
        transport.close()
        with pytest.raises(TransportError):
            transport.request(QueryRequestFrame(kind="range", table="t"))


# ---------------------------------------------------------------------------
# The dialed seats (edge, relay upstream): one bad frame from the
# listener answers with an error, never a dead node
# ---------------------------------------------------------------------------


def _relay_seat(central):
    relay = RelayServer("seat")
    relay.adopt_config(central.config_frame())
    return relay


def _edge_seat(central):
    return EdgeServer(name="seat", config=central.client_config())


_BAD_FRAMES = {
    "garbage_tag": b"\xff" + b"junk" * 4,
    "hello_frame": frame_to_bytes(HelloFrame(edge="x", cursors=())),
    "truncated_delta": frame_to_bytes(DeltaFrame("t", b"x" * 40))[:-7],
    # What the hand-written decoder used to let through to the node.
    **MISTYPED_FRAMES,
}


class TestDialedSeatGuard:
    @pytest.mark.parametrize("bad", sorted(_BAD_FRAMES))
    @pytest.mark.parametrize(
        "seat", [_relay_seat, _edge_seat], ids=["relay_upstream", "edge"]
    )
    def test_bad_upstream_frame_is_answered_not_fatal(self, pair, seat, bad):
        """A malformed, off-role or truncated frame on the dialed
        connection used to raise out of ``run_once`` on the relay's
        (unguarded) seat and take the whole subtree's relay down.  On
        every seat the loop keeps spinning, the link stays open, the
        sender gets an error reply, the swallow is counted (and not as
        ``unexpected``), and the next valid frame is still answered."""
        left, right = pair
        node = seat(make_central())
        loop = EdgeEventLoop()
        telemetry.reset()
        try:
            conn = loop.register(
                "seat", left, handler=guarded_handler(node)
            )
            send_frame(right, _BAD_FRAMES[bad])
            for _ in range(3):
                loop.run_once(0.2)
            assert not conn.closed
            reply = frame_from_bytes(recv_frame(right))
            assert isinstance(reply, QueryResponseFrame)
            assert reply.edge == "seat" and "TransportError" in reply.error
            noted = telemetry.counters()
            assert noted == {"dialed.handle_frame:TransportError": 1}, noted
            assert telemetry.unexpected_total() == 0
            send_frame(right, frame_to_bytes(CursorProbeFrame()))
            loop.run_once(0.2)
            answer = frame_from_bytes(recv_frame(right))
            assert isinstance(answer, CursorAckFrame) and answer.edge == "seat"
        finally:
            telemetry.reset()
            loop.close()


# ---------------------------------------------------------------------------
# The Hello→Config handshake: one dialer-side implementation, one
# error contract for every dialer
# ---------------------------------------------------------------------------


def _misbehaving_listener(misbehave):
    """A listener that reads one hello and then breaks the protocol."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()

    def serve():
        conn, _addr = listener.accept()
        conn.settimeout(5)
        try:
            recv_frame(conn)  # the hello
            if misbehave == "wrong_frame":
                ack = AckFrame(edge="x", table="t", ok=True, lsn=1, epoch=0)
                send_frame(conn, frame_to_bytes(ack))
                recv_frame(conn)  # hold the link open until the dialer hangs up
        except (TransportError, OSError):
            pass
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def _dial_join(host, port):
    sock = connect_with_retry(host, port, attempts=5, delay=0.05, timeout=5)
    loop = EdgeEventLoop()
    try:
        join(loop, sock, EdgeServer("dialer"))
    finally:
        sock.close()
        loop.close()


def _dial_edge_host(host, port):
    with EdgeHost(host, port) as edge_host:
        edge_host.launch("dialer", io_timeout=5)


def _dial_relay_upstream(host, port):
    # run_relay outlives a failed upstream handshake by design (it
    # counts the error and re-dials until the budget runs out), so the
    # TransportError surfaces at its telemetry site, not as a raise.
    telemetry.reset()
    try:
        relay = run_relay(
            "dialer", host, port, max_reconnects=0,
            retry_attempts=2, retry_delay=0.05, io_timeout=5,
        )
        assert relay.config is None
        noted = telemetry.counters()
    finally:
        telemetry.reset()
    assert set(noted) == {"dialed.handshake:TransportError"}, noted
    raise TransportError("dialed.handshake")


class TestDialerHandshake:
    @pytest.mark.parametrize("misbehave", ["wrong_frame", "eof"])
    @pytest.mark.parametrize(
        "dial",
        [_dial_join, _dial_edge_host, _dial_relay_upstream],
        ids=["join", "edge_host", "run_relay"],
    )
    def test_bad_handshake_reply_is_a_transport_error(self, dial, misbehave):
        """A listener answering the hello with anything but a config —
        or hanging up instead — is a ``TransportError`` from every
        dialer (``EdgeHost.launch`` used to skip the type check and
        die with ``AttributeError`` inside ``config_from_frame``)."""
        listener, thread = _misbehaving_listener(misbehave)
        try:
            with pytest.raises(TransportError):
                dial(*listener.getsockname()[:2])
        finally:
            listener.close()
            thread.join(timeout=5)


    def test_run_edge_counts_a_swallowed_handshake_failure(self):
        """``run_edge`` outlives a failed handshake exactly like
        ``run_relay`` (shared redial loop) — and, like it, leaves a
        trace: the edge seat used to drop the error with a bare
        ``pass``."""
        listener, thread = _misbehaving_listener("eof")
        telemetry.reset()
        try:
            edge = run_edge(
                "dialer", *listener.getsockname()[:2], max_reconnects=0,
                retry_attempts=2, retry_delay=0.05, io_timeout=5,
            )
            noted = telemetry.counters()
        finally:
            telemetry.reset()
            listener.close()
            thread.join(timeout=5)
        assert edge is None
        assert set(noted) == {"dialed.handshake:TransportError"}, noted


# ---------------------------------------------------------------------------
# Full handshake cycle with the edge served from a thread
# ---------------------------------------------------------------------------


class TestHelloCursorSanitizing:
    def test_lying_cursor_ahead_of_log_cannot_starve_the_edge(self):
        """A hello claiming an LSN beyond the log head (compromised
        edge, or an edge that outlived a central restart) is clamped —
        replication must keep flowing, never silently stop."""
        from repro.edge.link import join

        central = make_central()
        edge = EdgeServer("liar")
        edge.hello = lambda: HelloFrame(
            edge="liar",
            cursors=(
                ("t", 10**6, central.keyring.current_epoch),  # absurd LSN
                ("no_such_table", 3, 0),                      # unknown replica
            ),
        )
        join(central, edge)
        peer = central.fanout.peer("liar")
        assert peer.acked_lsns["t"] <= central.replicator.log_for("t").last_lsn
        assert "no_such_table" not in peer.acked_lsns
        assert central.staleness("liar", "t") >= 0
        # The lie surfaces as a diverged nack on the next delta and the
        # ordinary snapshot heal takes over.
        central.insert("t", (9009, "a", "b", "c"))
        central.propagate("t")
        assert central.staleness("liar", "t") == 0
        assert len(edge.replica("t").tree) == len(central.vbtrees["t"])


class TestHandshakeBounds:
    """``serve_handshakes`` is a serial accept loop: what one dialer can
    cost the next is bounded by the schema, in bytes and in time."""

    @pytest.mark.parametrize(
        "announce", [(1 << 30) - 1, 600], ids=["huge", "plausible"]
    )
    def test_slow_announce_cannot_hold_the_accept_thread(self, announce):
        """One socket announces a hello and then trickles a byte every
        half ``io_timeout``.  Per-``recv`` timeouts never fired, and any
        announce up to 1 GiB was honoured: the accept thread was held
        indefinitely and an honest edge timed out behind it.  Now a
        hello announce above the largest the schema admits is refused
        at its 4-byte header, a plausible one runs into the one deadline
        that covers the whole exchange — and the honest edge is in
        within two seconds either way."""
        assert (announce > frame_limit(HelloFrame)) == (announce > 600)
        central = make_central(rows=20)
        stop = threading.Event()
        telemetry.reset()
        try:
            with Deployment(central, io_timeout=0.5) as deploy:
                slow = socket.create_connection(deploy.address, timeout=5)

                def trickle():
                    try:
                        slow.sendall(FRAME_HEADER.pack(announce))
                        while not stop.wait(0.25):
                            slow.sendall(b"\x05")
                    except OSError:
                        pass  # refused: the listener hung up on us

                thread = threading.Thread(target=trickle, daemon=True)
                thread.start()
                time.sleep(0.1)  # the slow dialer is accepted first
                started = time.monotonic()
                with EdgeHost(*deploy.address) as host:
                    host.launch("honest", io_timeout=5)
                    deploy.wait_for_edge("honest", timeout=5, sync=False)
                    assert time.monotonic() - started < 2.0
                    assert deploy.edges["honest"].connected
                    noted = telemetry.counters()
                    assert noted == {
                        "deploy.accept_loop.handshake:TransportError": 1
                    }, noted
                stop.set()
                thread.join(timeout=5)
                slow.close()
        finally:
            stop.set()
            telemetry.reset()


class TestThreadedDeployment:
    """The deployment handshake and sync protocol over real TCP, with
    the edge process's ``run_edge`` (reactor-served, like every seat)
    in a thread — same wire traffic as the multi-process tests, fast
    enough for tier-1."""

    def test_bootstrap_sync_query_and_verify(self):
        central = make_central()
        client = central.make_client()
        with Deployment(central, io_timeout=5) as deploy:
            host, port = deploy.address
            thread = threading.Thread(
                target=run_edge,
                args=("thread-edge", host, port),
                kwargs={"max_reconnects": 0, "retry_attempts": 10,
                        "retry_delay": 0.05, "io_timeout": 5},
            )
            thread.start()
            try:
                deploy.wait_for_edge("thread-edge", timeout=15)
                assert central.staleness("thread-edge", "t") == 0
                central.insert("t", (9001, "a", "b", "c"))
                deploy.sync()
                assert central.staleness("thread-edge", "t") == 0
                resp = deploy.range_query("thread-edge", "t", low=9001, high=9001)
                assert len(resp.result.rows) == 1
                assert client.verify(resp).ok
                # Replication and query traffic both metered on the link.
                kinds = deploy.edges["thread-edge"].transport.down_channel.bytes_by_kind()
                assert "snapshot" in kinds and "delta" in kinds and "query" in kinds
            finally:
                deploy.shutdown()
                thread.join(timeout=10)
        assert not thread.is_alive()

    def test_reconnect_resumes_from_reported_cursors(self):
        """A transient link drop (edge process survives) must resume
        via deltas — the hello carries the cursors — not snapshots."""
        central = make_central()
        with Deployment(central, io_timeout=5) as deploy:
            host, port = deploy.address
            thread = threading.Thread(
                target=run_edge,
                args=("r-edge", host, port),
                kwargs={"max_reconnects": 1, "retry_attempts": 40,
                        "retry_delay": 0.05, "io_timeout": 5},
            )
            thread.start()
            try:
                deploy.wait_for_edge("r-edge", timeout=15)
                old = deploy.edges["r-edge"].transport
                deploy.edges["r-edge"].registered.clear()
                old.close()  # transient network drop
                deploy.wait_for_edge("r-edge", timeout=15)
                fresh = deploy.edges["r-edge"].transport
                assert fresh is not old
                central.insert("t", (9002, "d", "e", "f"))
                deploy.sync()
                assert central.staleness("r-edge", "t") == 0
                kinds = fresh.down_channel.bytes_by_kind()
                assert "snapshot" not in kinds, "resume must not re-snapshot"
                assert kinds.get("delta", 0) > 0
            finally:
                deploy.shutdown()
                thread.join(timeout=10)

    def test_edge_survives_idle_link(self):
        """No traffic for longer than the handshake timeout is *idle*,
        not a fault: the serve loop must keep waiting, not crash."""
        central = make_central()
        client = central.make_client()
        with Deployment(central, io_timeout=5) as deploy:
            host, port = deploy.address
            thread = threading.Thread(
                target=run_edge,
                args=("idle-edge", host, port),
                kwargs={"max_reconnects": 0, "retry_attempts": 10,
                        "retry_delay": 0.05, "io_timeout": 0.3},
            )
            thread.start()
            try:
                deploy.wait_for_edge("idle-edge", timeout=15)
                time.sleep(1.0)  # > 3x the edge's io_timeout
                assert thread.is_alive(), "edge died on an idle link"
                resp = deploy.range_query("idle-edge", "t", low=1, high=50)
                assert client.verify(resp).ok
            finally:
                deploy.shutdown()
                thread.join(timeout=10)

    def test_bad_query_returns_error_reply_and_edge_survives(self):
        """A query the edge cannot answer must come back as an error
        response frame — never kill the serve loop or hang the caller."""
        central = make_central()
        client = central.make_client()
        with Deployment(central, io_timeout=5) as deploy:
            host, port = deploy.address
            thread = threading.Thread(
                target=run_edge,
                args=("q-edge", host, port),
                kwargs={"max_reconnects": 0, "retry_attempts": 10,
                        "retry_delay": 0.05, "io_timeout": 5},
            )
            thread.start()
            try:
                deploy.wait_for_edge("q-edge", timeout=15)
                with pytest.raises(TransportError, match="rejected query"):
                    deploy.secondary_range_query(
                        "q-edge", "t", "no_such_attr", low=0, high=1
                    )
                assert thread.is_alive(), "edge died on a bad query"
                resp = deploy.range_query("q-edge", "t", low=1, high=50)
                assert client.verify(resp).ok
            finally:
                deploy.shutdown()
                thread.join(timeout=10)

    def test_dead_edge_does_not_block_writes(self):
        central = make_central()
        with Deployment(central, io_timeout=5) as deploy:
            host, port = deploy.address
            thread = threading.Thread(
                target=run_edge,
                args=("d-edge", host, port),
                kwargs={"max_reconnects": 0, "retry_attempts": 10,
                        "retry_delay": 0.05, "io_timeout": 5},
            )
            thread.start()
            try:
                deploy.wait_for_edge("d-edge", timeout=15)
                deploy.edges["d-edge"].transport.close()
                thread.join(timeout=10)
                # Writes proceed against a fleet whose only edge is gone.
                for key in range(9100, 9110):
                    central.insert("t", (key, "a", "b", "c"))
                assert central.staleness("d-edge", "t") > 0
            finally:
                deploy.shutdown()
                thread.join(timeout=10)
