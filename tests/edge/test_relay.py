"""Relay semantics, in-process (DESIGN.md §13).

The tree is a :class:`~repro.edge.fleet.Fleet` — the relay joins the
central and the edges join the relay through the same handshake a
socket runs, and the relay's own upstream frames come back through its
link — but everything runs in this process so the tests can inspect
byte streams, shuffle ack orderings, and corrupt the store directly.

Covers: byte-identical store-and-forward, verified queries through the
relay, min-cursor aggregation (held edge, fresh edge omitting a table),
the "ack omitting a table is no news" bugfix end to end, aggregation
monotonicity under shuffled/duplicated acks (hypothesis), tamper
escalation through the relay, key rotation through the relay, and
verbatim ConfigFrame/ShardMap pass-through.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wire import result_from_bytes
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.fleet import Fleet
from repro.edge.relay import RelayServer, _TableStore
from repro.edge.sharding import ShardMap
from repro.edge.link import InProcessTransport
from repro.edge.transport import (
    AckFrame,
    ConfigFrame,
    CursorAckFrame,
    DeltaFrame,
    HelloFrame,
    SnapshotFrame,
    config_to_frame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table

DB = "relaydb"
TABLE = "items"


def make_central(rows=60, **kwargs):
    central = CentralServer(DB, seed=7, rsa_bits=512, **kwargs)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=rows, columns=3, seed=5)
    )
    central.create_table(schema, data, fanout_override=6)
    return central


def make_tree(edges=("edge-0", "edge-1"), central=None, **relay_options):
    """Central → relay-0 → ``edges``, settled."""
    fleet = Fleet(
        central or make_central(), relays={"relay-0": edges}, **relay_options
    )
    fleet.settle()
    return fleet


def tap(fleet, name, sink, frame_types=(SnapshotFrame, DeltaFrame)):
    """Record the bytes of every ``frame_types`` frame delivered to
    node ``name`` from now on."""
    node = fleet.node(name)

    def handler(data, inner=node.handle_frame):
        if isinstance(frame_from_bytes(data), frame_types):
            sink.append(data)
        return inner(data)

    node.handle_frame = handler


def agg_map(relay):
    """The relay's aggregate ``cursors()`` as ``{table: (lsn, epoch)}``."""
    return {t: (lsn, epoch) for t, lsn, epoch in relay.cursors()}


class TestHelloRole:
    def test_default_role_adds_no_bytes(self):
        """An edge hello encodes exactly as before the role field —
        old peers interoperate byte-for-byte."""
        hello = HelloFrame(edge="edge-0", cursors=((TABLE, 3, 0),))
        assert hello.role == "edge"
        decoded = frame_from_bytes(frame_to_bytes(hello))
        assert decoded == hello
        # The optional trailing field costs nothing when defaulted: a
        # relay hello is strictly longer than the same edge hello.
        relay_hello = dataclasses.replace(hello, role="relay")
        assert len(frame_to_bytes(relay_hello)) > len(frame_to_bytes(hello))
        assert frame_from_bytes(frame_to_bytes(relay_hello)).role == "relay"


class TestStoreAndForward:
    def test_byte_identical_frames_and_verified_queries(self):
        """Every snapshot/delta frame an edge receives is byte-equal to
        one the central sent the relay, and queries through the relay
        verify end to end."""
        central = make_central()
        fleet = Fleet(central, relays={"relay-0": ("edge-0", "edge-1")})
        upstream_frames = []
        tap(fleet, "relay-0", upstream_frames)
        downstream_frames = {"edge-0": [], "edge-1": []}
        for name, taps in downstream_frames.items():
            tap(fleet, name, taps)

        fleet.settle()
        for key in range(1000, 1010):
            central.insert(TABLE, (key, "a", "b"))
        fleet.settle()

        # Byte identity: the relay re-serialized nothing it could alter.
        sent = set(upstream_frames)
        assert sent, "central shipped no replication frames"
        for name, received in downstream_frames.items():
            assert received, f"{name} received no replication frames"
            for data in received:
                assert data in sent, (
                    f"{name} got a frame the central never produced"
                )

        # Round-robin queries hit both edges; every result verifies.
        client = central.make_client()
        answered = set()
        for _ in range(4):
            reply = fleet.link("relay-0").request(
                range_query_frame(TABLE, 1000, 1009, None, None)
            )
            assert not reply.error
            result = result_from_bytes(reply.payload)
            assert client.verify(result).ok
            assert len(result.keys) == 10
            answered.add(reply.edge)
        assert answered == {"edge-0", "edge-1"}

    def test_relay_holds_no_signing_key(self):
        """The trust claim, structurally: nothing reachable from the
        relay exposes a private key — its config is the public
        verification bundle only."""
        relay = make_tree().relays["relay-0"]
        assert not hasattr(relay.config.keyring, "private_key_for")
        record = relay.config.keyring.public_key_for(
            relay.config.keyring.current_epoch
        )
        assert not hasattr(record, "d") and not hasattr(record, "private")


class TestCursorAggregation:
    def test_held_edge_pins_the_aggregate(self):
        """The upstream cursor is the min over connected edges: one
        slow (held) edge pins it even while its sibling advances."""
        fleet = make_tree()
        central, relay = fleet.central, fleet.relays["relay-0"]
        base = agg_map(relay)[TABLE]

        fleet.faults["edge-1"].hold = True
        for key in range(2000, 2005):
            central.insert(TABLE, (key, "a", "b"))
        for _ in range(4):
            fleet.pump(wait=True)

        fast = relay.fanout.peer("edge-0").acked_lsns[TABLE]
        slow = relay.fanout.peer("edge-1").acked_lsns[TABLE]
        assert fast > slow
        agg = agg_map(relay)[TABLE]
        assert agg == (slow, relay.fanout.peer("edge-1").acked_epochs[TABLE])
        assert agg[0] == base[0]

        fleet.faults["edge-1"].hold = False
        fleet.settle()
        assert agg_map(relay)[TABLE][0] == relay.store[TABLE].head

    def test_fresh_edge_omits_table_and_cannot_stall_or_regress(self):
        """The satellite bugfix scenario end to end: a fresh edge joins
        mid-stream, so the relay's aggregate *omits* the table.  The
        central must treat that as no news — its banked cursor for the
        relay neither regresses nor wedges the settle path — and once
        the fresh edge heals, settle completes."""
        fleet = make_tree()
        central, relay = fleet.central, fleet.relays["relay-0"]
        relay_peer = central.fanout.peer(relay.name)
        banked = relay_peer.acked_lsns[TABLE]
        assert banked == relay.store[TABLE].head

        # Fresh replica-less edge: no cursor for TABLE yet.
        fleet.kill("edge-1")
        assert TABLE not in agg_map(relay)

        # An explicitly empty cumulative ack is "no news", not "lost
        # everything".
        central.fanout._process_replies(
            relay_peer,
            [CursorAckFrame(edge=relay.name, cursors=())],
        )
        assert relay_peer.acked_lsns[TABLE] == banked

        # New writes flow while the aggregate still omits the table;
        # the banked cursor must move forward or hold, never regress,
        # and the bounded drain must terminate (no stall).
        for key in range(3000, 3005):
            central.insert(TABLE, (key, "a", "b"))
        central.propagate()
        central.fanout.drain(wait=True)
        assert relay_peer.acked_lsns[TABLE] >= banked

        # Full settle once the subtree heals.
        fleet.settle()
        assert central.fanout.staleness(relay.name, TABLE) == 0
        assert agg_map(relay)[TABLE][0] == relay.store[TABLE].head


# Shared fixtures for the hypothesis property: RSA keygen is the
# expensive part, so one central's config is reused across examples
# (the relay under test is rebuilt per example).
_AGG_CENTRAL = None


def _agg_config():
    global _AGG_CENTRAL
    if _AGG_CENTRAL is None:
        _AGG_CENTRAL = make_central(rows=12)
    return config_to_frame(_AGG_CENTRAL.client_config())


HEAD = 40


@st.composite
def ack_schedules(draw):
    """A shuffled, duplicate-ridden schedule of per-edge ack events."""
    events = draw(
        st.lists(
            st.tuples(st.sampled_from(["edge-0", "edge-1"]),
                      st.integers(min_value=0, max_value=HEAD)),
            min_size=1,
            max_size=30,
        )
    )
    dup = draw(st.integers(min_value=0, max_value=5))
    events = events + events[:dup]
    random.Random(draw(st.integers(0, 2**16))).shuffle(events)
    return events


class TestAggregationMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(schedule=ack_schedules())
    def test_aggregate_is_monotone_and_exact(self, schedule):
        """Under any interleaving/duplication of downstream acks the
        aggregated cursor never decreases, and ends at exactly the min
        over edges of each edge's own (monotone) max."""
        cfg = _agg_config()
        relay = RelayServer("relay-agg")
        relay.adopt_config(cfg)
        epoch = relay.config.keyring.current_epoch
        relay.store[TABLE] = _TableStore(
            snapshot=SnapshotFrame(
                table=TABLE, lsn=0, epoch=epoch, payload=b""
            ),
            head=HEAD,
            epoch=epoch,
        )
        for name in ("edge-0", "edge-1"):
            link = InProcessTransport(name)
            link.connect(lambda data: [])
            relay.admit(HelloFrame(edge=name), link, cfg)

        applied = {"edge-0": None, "edge-1": None}
        last = agg_map(relay).get(TABLE, (-1, -1))
        for name, lsn in schedule:
            relay.fanout.observe_response_cursors(name, ((TABLE, lsn, epoch),))
            applied[name] = max(lsn, applied[name] or 0)
            agg = agg_map(relay).get(TABLE)
            if agg is not None:
                assert agg >= last, "aggregate regressed"
                last = agg

        if all(v is not None for v in applied.values()):
            assert last == (min(applied.values()), epoch)
        else:
            # An edge that never acked keeps the table out of the
            # aggregate entirely — omission, not a zero claim.
            assert TABLE not in agg_map(relay)


class TestTamperThroughRelay:
    def test_corrupt_stored_delta_rejected_and_store_dropped(self):
        """Tampering inside the relay: the edge rejects the corrupted
        frame (end-to-end signature), the relay's store re-verify
        fails, the store is dropped, an immediate diverged nack goes
        upstream (never aggregated away), and the central re-seeds the
        whole subtree."""
        fleet = make_tree(edges=("edge-0",))
        central, relay = fleet.central, fleet.relays["relay-0"]

        for key in range(4000, 4003):
            central.insert(TABLE, (key, "a", "b"))
        # Land the frames on the relay only (no downstream pump yet).
        central.propagate()
        central.fanout.drain(wait=True)
        assert relay.store[TABLE].deltas

        stored = relay.store[TABLE].deltas[-1]
        payload = bytearray(stored.payload)
        payload[len(payload) // 2] ^= 0xFF
        stored.payload = bytes(payload)

        relay.fanout.pump()
        relay.fanout.drain(wait=True)

        # The edge never applied tampered data, and the relay condemned
        # its own store.
        assert relay.store[TABLE].snapshot is None
        # Inspected here, so carried on by hand: draining the outbox
        # took the frames off the link.
        nacks = [frame_from_bytes(b) for b in relay.pending_upstream()]
        diverged = [
            f for f in nacks
            if getattr(f, "reason", "") == "diverged" and not f.ok
        ]
        assert diverged, "no immediate upstream diverged nack"
        central.fanout._process_replies(
            central.fanout.peer(relay.name), nacks
        )

        fleet.settle()
        resp = fleet.router.range_query(TABLE, low=4000, high=4002)
        assert resp.verdict.ok and len(resp.result.keys) == 3


class TestSpotCheck:
    @pytest.mark.parametrize("position, caught", [(1, False), (2, True)])
    def test_every_nth_ingested_delta_is_verified(self, position, caught):
        """``spot_check_every=2`` verifies the 2nd, 4th, … ingested
        delta: a flipped signature byte is nacked ``tamper`` upstream
        when it lands on a checked ingest, and stored verbatim when it
        does not — where the edge still rejects it end to end (the
        spot check only ever shortens the detection path)."""
        central = make_central(replication=ReplicationMode.LAZY)
        fleet = make_tree(("edge-0",), central, spot_check_every=2)
        relay, edge = fleet.relays["relay-0"], fleet.edges["edge-0"]
        rows_before = len(edge.replica(TABLE).tree)

        replies = []
        for n in (1, 2)[:position]:
            cursor = relay.store[TABLE].head
            central.insert(TABLE, (4000 + n, "a", "b"))
            payload, _head = central.delta_payload(TABLE, cursor)
            if n == position:
                payload = payload[:-1] + bytes([payload[-1] ^ 0x01])
            replies = [
                frame_from_bytes(b)
                for b in relay.handle_frame(
                    frame_to_bytes(DeltaFrame(TABLE, payload))
                )
            ]
        stored = [d.payload for d in relay.store[TABLE].deltas]
        if caught:
            assert [(r.ok, r.reason) for r in replies] == [(False, "tamper")]
            assert payload not in stored and len(stored) == 1
            return
        assert isinstance(replies[0], CursorAckFrame)
        assert stored == [payload]
        relay.fanout.pump()
        relay.fanout.drain(wait=True)
        assert len(edge.replica(TABLE).tree) == rows_before
        assert relay.store[TABLE].snapshot is None  # store condemned
        assert [
            frame_from_bytes(b).reason for b in relay.pending_upstream()
        ] == ["diverged"]


class TestRouterQuarantineThroughRelay:
    def test_adversarial_edge_quarantines_its_relay_channel(self):
        """An adversarial edge behind one relay corrupts its query
        answers; the verifying router rejects them, quarantines that
        relay's channel, and serves every request — verified — from
        the sibling relay.  Callers never see an unverified result."""
        fleet = Fleet(
            make_central(),
            relays={"relay-0": ("edge-0",), "relay-1": ("edge-1",)},
        )
        edge = fleet.edges["edge-0"]

        def corrupt(data, inner=edge.handle_frame):
            replies = []
            for raw in inner(data):
                frame = frame_from_bytes(raw)
                if (
                    hasattr(frame, "payload")
                    and hasattr(frame, "error")
                    and frame.payload
                ):
                    bad = bytearray(frame.payload)
                    bad[len(bad) // 2] ^= 0xFF
                    frame = dataclasses.replace(frame, payload=bytes(bad))
                replies.append(frame_to_bytes(frame))
            return replies

        edge.handle_frame = corrupt
        fleet.settle()
        verifying = fleet.router
        for _ in range(4):
            resp = verifying.range_query(TABLE, low=1, high=50)
            assert resp.verdict.ok
            assert resp.edge == "relay-1"
        stats = verifying.stats()
        assert stats["relay-0"].quarantined
        assert verifying.rejects >= 1 and verifying.accepts == 4


class TestRotationAndConfigPassThrough:
    def test_key_rotation_heals_through_relay(self):
        """A rotation invalidates the relay's stored chain epoch; the
        central refreshes the relay's key ring and re-seeds it, the
        relay refreshes its edges with the new (verbatim) config and
        re-snapshots them, and queries verify under the new key.

        Nobody delivers the config by hand.  The relay holds a decoded
        *copy* of the ring whatever the medium, so a rotation owes it
        exactly one ``ConfigFrame``, before the first cross-epoch
        snapshot; the engine used to decide that by sniffing the
        link's type, an in-process relay was never told, every
        snapshot install failed on ``unknown key epoch`` and the tree
        livelocked."""
        fleet = make_tree()
        central, relay = fleet.central, fleet.relays["relay-0"]
        old_epoch = relay.store[TABLE].epoch
        kinds, config_replies = [], []

        def record(data, inner=relay.handle_frame):
            frame, replies = frame_from_bytes(data), inner(data)
            if isinstance(frame, (ConfigFrame, SnapshotFrame)):
                kinds.append(type(frame))
            if isinstance(frame, ConfigFrame):
                config_replies.extend(replies)
            return replies

        relay.handle_frame = record

        central.rotate_key()
        central.insert(TABLE, (5000, "a", "b"))
        fleet.settle()
        assert relay.store[TABLE].epoch > old_epoch
        assert kinds.count(ConfigFrame) == 1
        assert kinds.index(ConfigFrame) < kinds.index(SnapshotFrame)
        epoch = central.keyring.current_epoch
        # The relay answers the refresh with one control ack.
        (ack,) = [frame_from_bytes(raw) for raw in config_replies]
        assert isinstance(ack, AckFrame) and ack.ok
        assert (ack.table, ack.reason, ack.epoch) == ("", "config", epoch)
        assert relay.config.keyring.current_epoch == epoch
        assert all(
            e.config.keyring.current_epoch == epoch
            for e in fleet.edges.values()
        )
        resp = fleet.router.range_query(TABLE, low=5000, high=5000)
        assert resp.verdict.ok and resp.result.keys == [5000]

    def test_config_and_shard_map_pass_through_verbatim(self):
        """The downstream ConfigFrame is the upstream one, byte for
        byte — including the optional trailing shard id + ShardMap."""
        central = make_central()
        shard_map = ShardMap(2, seed=1)
        shard_map.place_table(TABLE, 0)
        cfg = config_to_frame(
            central.client_config(), ack_every=3, ack_bytes=4096,
            shard_id=0, shard_map=shard_map.to_wire(),
        )
        relay = RelayServer("relay-0")
        relay.adopt_config(cfg)
        out = relay.config_frame()
        assert frame_to_bytes(out) == frame_to_bytes(cfg)
        assert out.shard_id == 0
        assert relay.ack_every == 3 and relay.ack_bytes == 4096
