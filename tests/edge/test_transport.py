"""The message boundary between central and edge (DESIGN.md section 7):
frame codec round-trips, serialized snapshot reconstruction, and the
structural guarantee that edges hold no reference into the trusted
central server."""

import pytest

from repro.core.wire import (
    predicate_from_bytes,
    predicate_to_bytes,
    result_from_bytes,
    snapshot_to_bytes,
)
from repro.crypto.encoding import encode_value
from repro.db.expressions import AlwaysTrue, And, Comparison, Not, Or
from repro.edge import telemetry
from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeServer
from repro.edge.event_loop import guarded_handler
from repro.edge.link import InProcessTransport, join
from repro.edge.relay import RelayServer
from repro.edge.transport import (
    MAX_TEXT_BYTES,
    DeltaFrame,
    HelloFrame,
    QueryRequestFrame,
    QueryResponseFrame,
    error_response,
    frame_from_bytes,
    frame_to_bytes,
    secondary_query_frame,
)
from repro.exceptions import SignatureError, TransportError
from repro.workloads.generator import TableSpec, generate_table

from tests.edge.golden_frames import GOLDEN_FRAMES, MISTYPED_FRAMES

DB = "transportdb"


def make_central(**kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=31, **kwargs)
    schema, rows = generate_table(TableSpec(name="t", rows=90, columns=4, seed=6))
    server.create_table(schema, rows, fanout_override=6)
    return server


class TestFrameCodec:
    """The codec's properties are derived from the schema table in
    ``tests/edge/test_frame_schema.py``; what is pinned here by hand is
    only what no table row says."""

    @pytest.mark.parametrize(
        "frame", [frame for frame, _len, _sha in GOLDEN_FRAMES.values()]
    )
    def test_round_trip(self, frame):
        """Over the golden instances (every frame, every query kind,
        both trailing groups) — the frozen bytes are next to them."""
        assert frame_from_bytes(frame_to_bytes(frame)) == frame

    def test_empty_and_unknown_frames_rejected(self):
        with pytest.raises(TransportError):
            frame_from_bytes(b"")
        with pytest.raises(TransportError):
            frame_from_bytes(bytes([99]) + b"junk")
        with pytest.raises(TransportError):
            frame_from_bytes(frame_to_bytes(DeltaFrame("t", b"x")) + b"!")

    def test_predicate_round_trip(self):
        predicate = Or(
            And(Comparison("id", ">=", 10), Comparison("a1", "<", "zz")),
            Not(Comparison("id", "=", 4)),
        )
        parsed, offset = predicate_from_bytes(predicate_to_bytes(predicate))
        assert parsed == predicate
        assert offset == len(predicate_to_bytes(predicate))
        assert predicate_from_bytes(predicate_to_bytes(AlwaysTrue()))[0] == AlwaysTrue()


class TestSnapshotReconstruction:
    def test_replica_matches_central_tree(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        central_vbt = server.vbtrees["t"]
        replica = edge.replica("t")
        assert replica is not central_vbt
        assert replica.tree.node_count() == central_vbt.tree.node_count()
        assert replica.tree.next_node_id == central_vbt.tree.next_node_id
        assert len(replica.tree) == len(central_vbt.tree)
        assert [nid for nid, _ in _walk_ids(replica)] == [
            nid for nid, _ in _walk_ids(central_vbt)
        ]
        replica.tree.validate()
        replica.audit()

    def test_secondary_replica_reconstructs(self):
        server = make_central()
        server.create_secondary_index("t", "a1", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        resp = edge.query(secondary_query_frame("t", "a1", low="a", high="zzzz"))
        assert client.verify(resp).ok
        edge.replica("t__by_a1").audit()

    def test_round_trip_is_stable(self):
        server = make_central()
        sig_len = server.public_key.signature_len
        payload = snapshot_to_bytes(server.vbtrees["t"], sig_len)
        server2 = server.spawn_edge_server("probe")
        replica = server2.replica("t")
        assert snapshot_to_bytes(replica, sig_len) == payload

    def test_replica_cannot_sign(self):
        """The pre-transport implementation leaked the private signing
        key onto every edge via cloned SigningDigestEngines; replicas
        reconstructed from snapshots are verify-only."""
        server = make_central()
        edge = server.spawn_edge_server("e1")
        replica = edge.replica("t")
        with pytest.raises(SignatureError):
            replica.signing.sign_value(123)
        with pytest.raises(SignatureError):
            replica.signing.signer.sign(123)

    def test_deltas_replay_identically_after_reconstruction(self):
        """Structural mutations on a rebuilt replica must track the
        central tree byte-for-byte (node ids, splits, frees)."""
        server = make_central()
        edge = server.spawn_edge_server("e1")
        for key in range(10_000, 10_080):
            server.insert("t", (key, "x", "y", "z"))
        for key in range(0, 30, 3):
            server.delete("t", key)
        replica = edge.replica("t")
        central_vbt = server.vbtrees["t"]
        replica.tree.validate()
        replica.audit()
        assert replica.tree.node_count() == central_vbt.tree.node_count()
        assert replica.tree.next_node_id == central_vbt.tree.next_node_id


class TestTrustBoundary:
    def test_edge_holds_no_central_reference(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        assert not hasattr(edge, "central")
        for value in vars(edge).values():
            assert not isinstance(value, CentralServer)

    def test_all_replication_traffic_is_frames(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        server.insert("t", (9001, "a", "b", "c"))
        transport = server.fanout.peer(edge.name).transport
        kinds = {t.kind for t in transport.down_channel.transfers}
        assert kinds == {"snapshot", "delta"}
        ack_bytes = transport.up_channel.bytes_by_kind()
        assert ack_bytes.get("ack", 0) > 0


class TestQueryOverTransport:
    def _deployment(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        # A dedicated client<->edge link, separate from replication.
        link = InProcessTransport("client-link")
        link.connect(edge.handle_frame)
        return server, edge, client, link

    def test_query_frames_round_trip_and_verify(self):
        _server, _edge, client, link = self._deployment()
        outcome = link.send(
            QueryRequestFrame(kind="range", table="t", low=10, high=40)
        )
        assert outcome.status == "delivered"
        (response,) = outcome.replies
        assert isinstance(response, QueryResponseFrame)
        result = result_from_bytes(response.payload)
        assert len(result.rows) == 31
        assert client.verify(result).ok
        assert link.down_channel.bytes_by_kind().get("query", 0) > 0
        assert link.up_channel.bytes_by_kind().get("payload", 0) > 0

    def test_select_predicate_over_frames(self):
        _server, _edge, client, link = self._deployment()
        outcome = link.send(
            QueryRequestFrame(
                kind="select",
                table="t",
                predicate=predicate_to_bytes(Comparison("id", ">=", 80)),
                columns=("id",),
            )
        )
        result = result_from_bytes(outcome.replies[0].payload)
        assert result.columns == ("id",)
        assert all(row[0] >= 80 for row in result.rows)
        assert client.verify(result).ok

    def test_tampered_edge_detected_through_frames(self):
        from repro.edge.adversary import ValueTamper

        _server, edge, client, link = self._deployment()
        ValueTamper(table="t", key=20, column="a1", new_value="evil").apply(edge)
        outcome = link.send(
            QueryRequestFrame(kind="range", table="t", low=15, high=25)
        )
        result = result_from_bytes(outcome.replies[0].payload)
        assert not client.verify(result).ok


def _walk_ids(vbt):
    for node in vbt.tree.walk_nodes():
        yield node.node_id, node.is_leaf


# ---------------------------------------------------------------------------
# Hostile frames: a mistyped field stops at the decoder, and whatever a
# handler raises still yields a reply that encodes
# ---------------------------------------------------------------------------


def _edge_seat(server):
    edge = server.spawn_edge_server("seat")
    return edge, lambda: (
        dict(edge.replicas), edge.cursors(),
        dict(edge.replica_lsns), dict(edge.replica_epochs),
    )


def _relay_seat(server):
    relay = RelayServer("seat")
    relay.adopt_config(server.config_frame())
    relay.handle_frame(frame_to_bytes(server.snapshot_frame("t")))
    join(relay, EdgeServer("leaf"))
    return relay, lambda: (
        {t: (st.snapshot, list(st.deltas), st.head) for t, st in relay.store.items()},
        relay.cursors(), sorted(relay.fanout.peers),
    )


class TestMistypedFrames:
    def test_int_named_snapshot_cannot_brick_an_edge(self):
        """``SnapshotFrame`` whose ``table`` is the encoded int 5 used
        to install as replica ``5``; from then on ``sorted(replicas)``
        raised ``TypeError`` on every cumulative ack and query
        response — over an in-process link, out of
        ``CentralServer.insert`` itself."""
        server = make_central()
        edge = server.spawn_edge_server("e1")
        real = frame_to_bytes(server.snapshot_frame("t"))
        forged = real[:1] + encode_value(5) + real[1 + len(encode_value("t")):]
        cursors = edge.cursors()
        with pytest.raises(TransportError):
            edge.handle_frame(forged)
        assert list(edge.replicas) == ["t"]
        assert edge.cursors() == cursors
        server.insert("t", (9001, "a", "b", "c"))  # acks still flow
        assert server.staleness(edge, "t") == 0
        assert server.make_client().verify(
            edge.range_query("t", low=9001, high=9001)
        ).ok

    @pytest.mark.parametrize("name", sorted(MISTYPED_FRAMES))
    @pytest.mark.parametrize("seat", [_edge_seat, _relay_seat], ids=["edge", "relay"])
    def test_answered_counted_and_nothing_touched(self, seat, name):
        """Behind ``guarded_handler`` (every dialed seat): one error
        reply, the swallow counted as weather, and the node's replicas
        / store, cursors and peer table exactly as they were."""
        node, state = seat(make_central())
        before = state()
        telemetry.reset()
        try:
            (reply,) = guarded_handler(node)(MISTYPED_FRAMES[name])
            answer = frame_from_bytes(reply)
            assert isinstance(answer, QueryResponseFrame)
            assert answer.edge == "seat" and "TransportError" in answer.error
            assert telemetry.counters() == {"dialed.handle_frame:TransportError": 1}
            assert telemetry.unexpected_total() == 0
        finally:
            telemetry.reset()
        assert state() == before


class TestErrorTextIsClipped:
    """An exception message is as long as a peer cares to make it; the
    reply that carries it must still encode (``error_response``)."""

    LONG = "é" * (1 << 19)  # 1 MiB of UTF-8

    def _assert_decodable(self, reply: bytes):
        answer = frame_from_bytes(reply)
        assert isinstance(answer, QueryResponseFrame) and answer.payload == b""
        assert 0 < len(answer.error.encode()) <= MAX_TEXT_BYTES
        return answer

    def test_guarded_handler(self):
        class Node:
            name = "seat"

            def handle_frame(self, data):
                raise RuntimeError(TestErrorTextIsClipped.LONG)

        telemetry.reset()
        try:
            (reply,) = guarded_handler(Node())(b"\x08")
        finally:
            telemetry.reset()
        assert self._assert_decodable(reply).error.startswith("RuntimeError: é")

    def test_edge_query_path(self):
        edge = make_central().spawn_edge_server("e1")

        def explode(result):
            raise RuntimeError(self.LONG)

        edge.add_interceptor(explode)
        telemetry.reset()
        try:
            (reply,) = edge.handle_frame(
                frame_to_bytes(QueryRequestFrame(kind="range", table="t"))
            )
        finally:
            telemetry.reset()
        self._assert_decodable(reply)

    def test_relay_forwarding(self):
        class DeadLink(InProcessTransport):
            def request(self, frame):
                raise TransportError(TestErrorTextIsClipped.LONG)

        relay = RelayServer("seat")
        relay.adopt_config(make_central().config_frame())
        link = DeadLink("leaf")
        link.connect(lambda data: [])
        relay.admit(HelloFrame(edge="leaf"), link, relay.config_frame())
        (reply,) = relay.handle_frame(
            frame_to_bytes(QueryRequestFrame(kind="range", table="t"))
        )
        answer = self._assert_decodable(reply)
        assert answer.error.startswith("no downstream edge answered: é")

    def test_clip_lands_on_a_character_boundary(self):
        text = "x" + "é" * MAX_TEXT_BYTES  # the cut falls inside an é
        clipped = error_response("e", text).error
        assert text.startswith(clipped)
        assert len(clipped.encode()) == MAX_TEXT_BYTES - 1
