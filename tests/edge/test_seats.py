"""The two seats, and the two media that reach them (DESIGN.md §8.2,
§22, §30).

A *listener seat* is ``config_frame()`` + ``admit(hello, transport,
sent)`` (``CentralServer``, ``RelayServer``); a *dialer seat* is
``hello()`` + ``adopt_config()`` + ``handle_frame()`` +
``pending_upstream()`` (``EdgeServer``, ``RelayServer`` — both a
``Dialer``, which holds the reply discipline once).  The handshake
between them is one sequence over two media — a loopback socket
(``dial_handshake`` / ``serve_handshakes``) and plain objects
(``repro.edge.link.join``) — and what a seat makes of a hello must not
depend on which one carried it.
"""

import dataclasses
import select
import socket
import threading
import time

import pytest

from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeServer
from repro.edge.event_loop import EdgeEventLoop, ReactorTransport
from repro.edge.event_loop import join as join_upstream
from repro.edge.link import InProcessTransport, join, wire
from repro.edge.relay import RelayServer
from repro.edge.socket_transport import (
    connect_with_retry,
    dial_handshake,
    listen_on,
    recv_frame,
    send_frame,
    serve_handshakes,
)
from repro.edge.transport import (
    AckFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
    HelloFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.exceptions import SignatureError, StaleKeyError, TransportError
from repro.workloads.generator import TableSpec, generate_table

TABLES = ("t", "u", "v")


def make_seat(seat, **central_options):
    """``(central, listener)``: three one-insert tables, and — for the
    relay seat — a relay joined to the central holding all of them."""
    central = CentralServer("seatdb", rsa_bits=512, seed=43, **central_options)
    for i, name in enumerate(TABLES):
        schema, data = generate_table(
            TableSpec(name=name, rows=12, columns=3, seed=i)
        )
        central.create_table(schema, data, fanout_override=6)
        central.insert(name, (9000 + i, "a", "b"))  # a log head above 0
    if seat == "central":
        return central, central
    relay = RelayServer("relay-0")
    join(central, relay)
    central.fanout.settle()
    return central, relay


def admit_over_socket(seat, hello, loop=None):
    """Run the handshake on a loopback socket: ``serve_handshakes``
    answering with the seat's config and admitting the accepted
    connection as a ``ReactorTransport`` — what ``Deployment`` and
    ``run_relay`` do.  Returns the admitted link, registered on
    ``loop`` (a private one, closed on return, when none is given)."""
    listener, own_loop = listen_on("127.0.0.1", 0), loop is None
    loop = EdgeEventLoop() if own_loop else loop
    admitted = []

    def attach(conn, hello, sent):
        link = ReactorTransport(hello.edge, loop, conn)
        seat.admit(hello, link, sent)
        admitted.append(link)

    accept = threading.Thread(
        target=serve_handshakes,
        args=(listener, "test", 5.0, seat.config_frame, attach),
        daemon=True,
    )
    accept.start()
    try:
        sock = connect_with_retry(*listener.getsockname()[:2], timeout=5.0)
        sock.settimeout(5.0)
        dial_handshake(sock, hello)
        deadline = time.monotonic() + 5.0
        while not admitted:
            assert time.monotonic() < deadline, "dialer was never admitted"
            time.sleep(0.01)
        sock.close()
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # close() alone leaves accept() blocked
        listener.close()
        if own_loop:
            loop.close()
        accept.join(timeout=5)
    return admitted[0]


class TestHostileHello:
    @pytest.mark.event_loop
    @pytest.mark.parametrize("medium", ["join", "socket"])
    @pytest.mark.parametrize("seat", ["central", "relay"])
    def test_each_seat_sanitises_alike_on_both_media(self, seat, medium):
        """One hello — an LSN 10⁶ ahead of the log, an unknown table, a
        wrong-epoch cursor, and one honest cursor — leaves a seat with
        the same peer cursors whether it arrived as an object or over
        a loopback socket.  The seats' rules differ on purpose: the
        central drops unknown replicas and clamps to the log head (an
        epoch is a hint the next pump's cross-epoch check settles); a
        relay keeps only cursors on a stored frame boundary of its
        current chain and epoch."""
        central, listener = make_seat(seat)
        epoch = central.keyring.current_epoch
        heads = {t: central.log_head(t) for t in TABLES}
        hello = HelloFrame(
            edge="liar",
            cursors=(
                ("t", 10**6, epoch),
                ("no_such_table", 3, 0),
                ("u", heads["u"], epoch + 1),
                ("v", heads["v"], epoch),
            ),
        )
        if medium == "join":
            dialer = EdgeServer("liar")
            dialer.hello = lambda: hello
            join(listener, dialer)
        else:
            admit_over_socket(listener, hello)
        peer = listener.fanout.peer("liar")
        cursors = {
            t: (lsn, peer.acked_epochs[t]) for t, lsn in peer.acked_lsns.items()
        }
        if seat == "central":
            assert cursors == {
                "t": (heads["t"], epoch),
                "u": (heads["u"], epoch + 1),
                "v": (heads["v"], epoch),
            }
        else:
            assert cursors == {"v": (heads["v"], epoch)}


class TestReadmit:
    @pytest.mark.event_loop
    @pytest.mark.parametrize("seat", ["central", "relay"])
    def test_a_second_admit_closes_the_link_it_replaces(self, seat):
        """A reconnect admits its name again: the seat must close the
        link the new one replaces, or a dead ``ReactorTransport``
        stays registered on the loop.  ``CentralServer.admit`` closed
        it and ``RelayServer.admit`` did not; ``FanoutEngine.attach``
        now does it for both."""
        _central, listener = make_seat(seat)
        loop = EdgeEventLoop()
        try:
            hello = HelloFrame(edge="e0", cursors=())
            first = admit_over_socket(listener, hello, loop)
            second = admit_over_socket(listener, hello, loop)
            assert listener.fanout.peer("e0").transport is second
            assert not first.connected
            assert second.connected  # nothing spun the loop since
        finally:
            loop.close()


def seat_live_edge(medium, central, edge):
    """Admit ``edge`` to ``central`` over ``medium`` and keep the link
    served: as objects (``join``), or over a socketpair whose far end
    is the edge's handler on the engine's own reactor — one thread, so
    a wait-drain's spin serves both ends.  Returns ``(link, close)``."""
    if medium == "join":
        return join(central, edge), lambda: None
    left, right = socket.socketpair()
    central.fanout.reactor = loop = EdgeEventLoop()
    sent = central.config_frame()
    edge.adopt_config(sent)
    loop.register("far-end", right, handler=lambda data: edge.handle_frame(data))
    link = ReactorTransport(edge.name, loop, left)
    central.admit(edge.hello(), link, sent)
    return link, loop.close


def write(central, keys):
    for key in keys:
        central.insert("t", (key, "a", "b"))


def one_probe_settles_the_window(central, edge, link):
    write(central, range(9100, 9105))  # five frames, not one ack yet
    assert central.fanout.peer(edge.name).inflight == 5


def coalesced_acks(central, edge, link):
    write(central, range(9100, 9107))  # 3 + 3 acked, 1 left to the probe


def held_then_released(central, edge, link):
    peer = central.fanout.peer(edge.name)
    link.faults.hold = True
    write(central, range(9100, 9103))
    central.fanout.drain(wait=True)  # parked: the probe waits with the rest
    assert peer.inflight == 3 and peer.probe_inflight
    link.faults.clear()


def one_dropped_frame(central, edge, link):
    link.faults.drop_next = 1
    write(central, range(9100, 9102))  # the second delta covers both


def relay_style_omission(central, edge, link):
    """The first two cumulative acks say nothing about ``t`` — a relay
    whose slowest edge holds no cursor yet — the third reports it."""
    silent = [None, None]

    def aggregate(data, inner=edge.handle_frame):
        replies = inner(data)
        if isinstance(frame_from_bytes(data), CursorProbeFrame) and silent:
            silent.pop()
            (ack,) = map(frame_from_bytes, replies)
            kept = tuple(c for c in ack.cursors if c[0] != "t")
            return [frame_to_bytes(CursorAckFrame(edge=ack.edge, cursors=kept))]
        return replies

    edge.handle_frame = aggregate
    write(central, range(9100, 9103))


#: script → (the edges' ack threshold, delta frames the link must
#: carry: one per write unless noted).
SCRIPTS = {
    one_probe_settles_the_window: (1000, 5),
    coalesced_acks: (3, 7),
    held_then_released: (1000, 3),
    one_dropped_frame: (1, 2),  # the lost one, then one for both
    relay_style_omission: (1000, 3),
}


class TestOneSettleOnBothMedia:
    @pytest.mark.event_loop
    @pytest.mark.parametrize("medium", ["join", "socket"])
    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
    def test_the_same_peer_settles_alike(self, script, medium):
        """One wait-drain loop, whichever medium: the same scripted
        peer ends with every cursor at the log head under the current
        epoch, nothing outstanding, and the same number of delta
        frames on the link — nothing resent that the other medium did
        not resend."""
        ack_every, deltas = SCRIPTS[script]
        central, _ = make_seat("central", ack_every=ack_every)
        edge = EdgeServer("e0")
        link, close = seat_live_edge(medium, central, edge)
        try:
            central.fanout.settle()  # bootstrap
            script(central, edge, link)
            assert central.fanout.settle() == 1
            peer = central.fanout.peer("e0")
            epoch = central.current_epoch()
            assert peer.acked_lsns == {t: central.log_head(t) for t in TABLES}
            assert peer.acked_epochs == dict.fromkeys(TABLES, epoch)
            assert peer.outstanding == [] and not peer.probe_inflight
            assert central.fanout.settled()
            sent = [t.kind for t in link.down_channel.transfers]
            assert sent.count("delta") == deltas
            assert sent.count("snapshot") == len(TABLES)
            assert edge.replica_lsns["t"] == central.log_head("t")
        finally:
            close()


class TestDeliveredEpoch:
    @pytest.mark.parametrize("seat", ["central", "relay"])
    def test_admit_records_what_was_sent_not_the_ring(self, seat):
        """A rotation races a handshake: the dialer was answered with
        the old bundle, the ring has moved on by the time it is
        admitted.  Both seats must record the *delivered* epoch, so
        the next pump ships the refresh before the cross-epoch
        snapshot.  ``RelayServer`` used to seed the peer from its ring
        as it stood after the handshake — the refresh was marked as
        delivered and never sent."""
        central, listener = make_seat("central")
        sent = central.config_frame()
        central.rotate_key()
        if seat == "relay":
            listener = RelayServer("relay-0")
            join(central, listener)
            central.fanout.settle()
        assert listener.current_epoch() == sent.current_epoch + 1

        edge, seen = EdgeServer("late"), []

        def recording(data, inner=edge.handle_frame):
            seen.append(type(frame_from_bytes(data)).__name__)
            return inner(data)

        edge.handle_frame = recording  # wrapped before it is wired
        edge.adopt_config(sent)
        listener.admit(edge.hello(), wire(edge), sent)
        listener.fanout.pump()

        assert seen[:2] == ["ConfigFrame", "SnapshotFrame"]
        assert seen.count("ConfigFrame") == 1
        assert edge.config.keyring.current_epoch == listener.current_epoch()
        assert listener.fanout.settled()


class TestPushes:
    def test_metered_upstream_under_their_kind_and_withheld_by_faults(self):
        """A dialer's own frames ride ``flush()`` like replies — same
        ``up_channel``, same kind — and a pulled or held cable carries
        nothing in either direction."""
        ack = frame_to_bytes(
            CursorAckFrame(edge="relay-0", cursors=(("t", 3, 0),))
        )
        outbox = [ack]

        def pushes():
            frames, outbox[:] = list(outbox), []
            return frames

        link = InProcessTransport("relay-0")
        link.connect(lambda data: [], pushes)
        for fault in ("partitioned", "hold"):
            setattr(link.faults, fault, True)
            assert link.flush() == [] and outbox == [ack]
            link.faults.clear()
        assert link.up_channel.total_bytes == 0

        (reply,) = link.flush()
        assert reply == frame_from_bytes(ack)
        assert link.up_channel.bytes_by_kind() == {"ack": len(ack)}
        assert link.flush() == [] and link.down_channel.total_bytes == 0


def upstream_script():
    """One upstream script, as ``(step, frame)`` pairs a dialer is fed
    in order: a central with ``ack_every=3`` hands out a config and a
    snapshot of ``t``, then six one-insert deltas — five the dialer
    takes, one kept back to arrive ahead of its cursor — and, after a
    key rotation, the refreshed config.  Returns ``(config, steps,
    snapshot lsn, epoch)``."""
    central = CentralServer("dialdb", rsa_bits=512, seed=47, ack_every=3)
    schema, data = generate_table(TableSpec(name="t", rows=12, columns=3, seed=0))
    central.create_table(schema, data, fanout_override=6)
    config, snapshot = central.config_frame(), central.snapshot_frame("t")

    def delta(key):
        central.insert("t", (key, "a", "b"))
        payload, _ = central.delta_payload("t", central.log_head("t") - 1)
        return DeltaFrame("t", payload)

    d = [delta(9000 + i) for i in range(5)]
    ahead = delta(9005)
    payload = bytearray(d[4].payload)
    payload[-10] ^= 0x01  # inside the body signature, not its epoch
    central.rotate_key()
    steps = [
        ("snapshot", snapshot),
        ("d1", d[0]), ("d2", d[1]), ("d3", d[2]), ("d4", d[3]),
        ("stale", d[1]),
        ("gap", ahead),
        ("tamper", DeltaFrame("t", bytes(payload))),
        ("d5", d[4]),
        ("probe", CursorProbeFrame()),
        ("config", central.config_frame()),
        ("hello", HelloFrame(edge="stray", cursors=())),
    ]
    return config, steps, snapshot.lsn, snapshot.epoch


#: The two dialer seats, as factories: an edge, and a spot-checking
#: relay with no edges of its own (so it reports its store head).
DIALERS = pytest.mark.parametrize(
    "make_dialer",
    [lambda: EdgeServer("e0"),
     lambda: RelayServer("relay-0", spot_check_every=1)],
    ids=["edge", "relay"],
)


class TestOneReplyDiscipline:
    @DIALERS
    def test_both_dialers_answer_one_script_alike(self, make_dialer):
        """An edge and a spot-checking relay with no edges of its own
        are fed the same upstream script and give the same replies —
        kinds, reason codes, cursors and coalescing cadence; only the
        ``edge`` field names who answered.  The discipline lives once,
        in ``Dialer.handle_frame``: a snapshot acks at once, accepted
        deltas ack every third, a stale / gap / tampered delta nacks at
        the dialer's own cursor without resetting the count, a probe
        acks, a config is a control ack, a hello is no dialer's
        business."""
        config, steps, lsn, epoch = upstream_script()
        dialer = make_dialer()
        dialer.adopt_config(config)
        assert dialer.ack_every == 3

        def ack(at):
            return [CursorAckFrame(edge="", cursors=(("t", at, epoch),))]

        def nack(reason, at):
            return [AckFrame(
                edge="", table="t", ok=False, lsn=at, epoch=epoch,
                reason=reason,
            )]

        expected = {
            "snapshot": ack(lsn),
            "d1": [], "d2": [], "d3": ack(lsn + 3), "d4": [],
            "stale": nack("stale", lsn + 4),
            "gap": nack("gap", lsn + 4),
            "tamper": nack("tamper", lsn + 4),
            "d5": [],  # the second accepted since the last ack
            "probe": ack(lsn + 5),
            "config": [AckFrame(
                edge="", table="", ok=True, lsn=0, epoch=epoch + 1,
                reason="config",
            )],
        }
        for step, frame in steps:
            if step == "hello":
                with pytest.raises(TransportError):
                    dialer.handle_frame(frame_to_bytes(frame))
                continue
            replies = [
                frame_from_bytes(r)
                for r in dialer.handle_frame(frame_to_bytes(frame))
            ]
            assert all(r.edge == dialer.name for r in replies), step
            stripped = [dataclasses.replace(r, edge="") for r in replies]
            assert stripped == expected[step], step
        assert dialer.cursors() == (("t", lsn + 5, epoch),)
        assert list(dialer.pending_upstream()) == []


def scripted(steps, *names):
    """The frames of ``steps`` named ``names``, in that order."""
    frames = dict(steps)
    return [frames[name] for name in names]


def fed(dialer, frame):
    """Feed one frame; the decoded replies."""
    return [frame_from_bytes(r) for r in dialer.handle_frame(frame_to_bytes(frame))]


class TestDialerSeat:
    """What ``Dialer`` holds once, checked on both nodes that inherit
    it: the ack-byte threshold, the resume hello, the verify-only
    engine, the nack of a delta with nothing to extend, and ``join``
    over a socket."""

    @DIALERS
    def test_ack_bytes_release_an_ack_below_ack_every(self, make_dialer):
        config, steps, lsn, epoch = upstream_script()
        snapshot, d1, d2 = scripted(steps, "snapshot", "d1", "d2")
        dialer = make_dialer()
        dialer.adopt_config(dataclasses.replace(
            config, ack_every=1000,
            ack_bytes=len(d1.payload) + len(d2.payload),
        ))
        assert dialer.ack_every == 1000
        fed(dialer, snapshot)
        assert fed(dialer, d1) == []
        (ack,) = fed(dialer, d2)
        assert ack == CursorAckFrame(
            edge=dialer.name, cursors=(("t", lsn + 2, epoch),)
        )
        assert dialer._unacked_bytes == 0 and dialer._unacked_frames == 0

    @DIALERS
    def test_hello_resumes_from_what_the_dialer_holds(self, make_dialer):
        config, steps, lsn, epoch = upstream_script()
        dialer = make_dialer()
        assert dialer.hello().edge == dialer.name
        assert dialer.hello().cursors == ()
        dialer.adopt_config(config)
        for frame in scripted(steps, "snapshot", "d1", "d2"):
            fed(dialer, frame)
        assert dialer.hello().cursors == (("t", lsn + 2, epoch),)
        assert dialer.hello().cursors == dialer.cursors()

    @DIALERS
    def test_verify_only_holds_the_ring_public_key_alone(self, make_dialer):
        config, _steps, _lsn, epoch = upstream_script()
        dialer = make_dialer()
        dialer.adopt_config(config)
        engine = dialer._verify_only(epoch)
        assert engine.signer.public_key == dialer.config.keyring.public_key_for(epoch)
        with pytest.raises(SignatureError):
            engine.sign_value(1)
        with pytest.raises(StaleKeyError):
            dialer._verify_only(epoch + 7)

    @DIALERS
    def test_a_delta_with_nothing_to_extend_nacks_at_zero(self, make_dialer):
        config, steps, _lsn, _epoch = upstream_script()
        dialer = make_dialer()
        dialer.adopt_config(config)
        (d1,) = scripted(steps, "d1")
        assert fed(dialer, d1) == [AckFrame(
            edge=dialer.name, table="t", ok=False, lsn=0, epoch=0,
            reason="diverged",
        )]
        assert dialer.cursors() == ()

    @pytest.mark.event_loop
    @DIALERS
    def test_join_adopts_the_reply_and_serves_under_its_name(self, make_dialer):
        """``event_loop.join`` sends the node's hello, adopts the
        listener's config and serves the node's frames from the loop."""
        config, steps, lsn, epoch = upstream_script()
        dialer = make_dialer()
        near, far = socket.socketpair()
        far.settimeout(5.0)
        loop = EdgeEventLoop()
        try:
            send_frame(far, frame_to_bytes(config))  # the reply, ahead of the hello
            conn = join_upstream(loop, near, dialer)
            assert conn.name == dialer.name
            hello = frame_from_bytes(recv_frame(far))
            assert (hello.edge, hello.cursors) == (dialer.name, ())
            assert dialer.upstream_config == config and dialer.ack_every == 3
            (snapshot,) = scripted(steps, "snapshot")
            send_frame(far, frame_to_bytes(snapshot))
            deadline = time.monotonic() + 5.0
            while not select.select([far], [], [], 0)[0]:
                assert time.monotonic() < deadline, "no reply was served"
                loop.run_once(0.05)
            assert frame_from_bytes(recv_frame(far)) == CursorAckFrame(
                edge=dialer.name, cursors=(("t", lsn, epoch),)
            )
        finally:
            loop.close()
            far.close()

    @pytest.mark.event_loop
    @DIALERS
    def test_a_failed_join_leaves_the_socket_to_the_caller(self, make_dialer):
        dialer = make_dialer()
        near, far = socket.socketpair()
        near.settimeout(5.0)
        loop = EdgeEventLoop()
        try:
            send_frame(far, frame_to_bytes(CursorProbeFrame()))
            with pytest.raises(TransportError):
                join_upstream(loop, near, dialer)
            assert near.fileno() != -1
            assert dialer.config is None and dialer.upstream_config is None
            loop.run_once(0.0)
            assert loop._conns == []
        finally:
            loop.close()
            near.close()
            far.close()
