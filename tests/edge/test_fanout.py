"""Fan-out engine behaviour: flow control, fault injection, healing,
and concurrent delivery (DESIGN.md section 7)."""

import socket
import threading

from repro.edge import fanout
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.event_loop import EdgeEventLoop, ReactorTransport
from repro.edge.fanout import FanoutEngine
from repro.edge.link import FaultInjector, InProcessTransport
from repro.edge.socket_transport import recv_frame
from repro.edge.transport import (
    AckFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
    SnapshotFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.workloads.generator import TableSpec, generate_table

DB = "fanoutdb"


def make_central(rows=100, **kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=51, **kwargs)
    schema, data = generate_table(
        TableSpec(name="t", rows=rows, columns=4, seed=8)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


class TestSlowEdge:
    def test_write_path_never_waits_on_a_slow_edge(self):
        """Eager inserts complete against the fast edges while a
        frame-holding (slow) edge absorbs frames up to its window and is
        then skipped — the acceptance scenario for per-edge flow
        control."""
        server = make_central(fanout_window=3)
        fast = server.spawn_edge_server("fast")
        slow = server.spawn_edge_server("slow")
        client = server.make_client()
        link = server.fanout.peer("slow").transport
        link.faults.hold = True

        for key in range(9001, 9011):
            server.insert("t", (key, "a", "b", "c"))

        # Fast edge is current and serves fresh, verified data.
        assert server.staleness(fast, "t") == 0
        resp = fast.range_query("t", low=9001, high=9010)
        assert len(resp.result.rows) == 10
        assert client.verify(resp).ok
        # Slow edge lags; the link absorbed at most `window` frames.
        assert server.staleness(slow, "t") > 0
        assert link.queued_frames <= 3
        assert server.fanout.peer("slow").inflight <= 3
        # Slow edge still serves *authentic* (stale) data meanwhile.
        stale = slow.range_query("t", low=9001, high=9010)
        assert stale.result.rows == []
        assert client.verify(stale).ok

    def test_slow_edge_catches_up_after_fault_clears(self):
        server = make_central(fanout_window=2, max_log_entries=4)
        slow = server.spawn_edge_server("slow")
        client = server.make_client()
        link = server.fanout.peer("slow").transport
        link.faults.hold = True

        for key in range(9001, 9013):  # far past log retention
            server.insert("t", (key, "a", "b", "c"))
        assert server.staleness(slow, "t") > 0

        link.faults.clear()
        server.propagate("t")
        # The queued frames only reached an early LSN; the log has been
        # truncated past that cursor, so the heal is a snapshot.
        assert slow.replication_channel.transfers[-1].kind == "snapshot"
        assert server.staleness(slow, "t") == 0
        resp = slow.range_query("t", low=9001, high=9012)
        assert len(resp.result.rows) == 12
        assert client.verify(resp).ok
        slow.replica("t").audit()


class TestPartition:
    def test_partitioned_edge_heals_via_snapshot_when_fault_clears(self):
        """The acceptance scenario: with one edge partitioned, eager
        inserts to the remaining edges complete without waiting on it,
        and the wedged edge heals via snapshot once the fault clears."""
        server = make_central(max_log_entries=4)
        healthy = server.spawn_edge_server("healthy")
        wedged = server.spawn_edge_server("wedged")
        client = server.make_client()
        link = server.fanout.peer("wedged").transport
        link.faults.partitioned = True

        before = len(wedged.replication_channel.transfers)
        for key in range(9001, 9011):
            server.insert("t", (key, "a", "b", "c"))
        # Nothing reached the wedged edge — not even wasted bytes.
        assert len(wedged.replication_channel.transfers) == before
        assert server.staleness(healthy, "t") == 0
        assert server.staleness(wedged, "t") == 10
        assert client.verify(healthy.range_query("t", low=9001, high=9010)).ok

        link.faults.clear()
        shipped = server.propagate("t")
        assert shipped == 1
        assert wedged.replication_channel.transfers[-1].kind == "snapshot"
        assert server.staleness(wedged, "t") == 0
        resp = wedged.range_query("t", low=9001, high=9010)
        assert len(resp.result.rows) == 10
        assert client.verify(resp).ok

    def test_partitioned_edge_catches_up_via_delta_within_retention(self):
        server = make_central()  # default retention: 1024 entries
        wedged = server.spawn_edge_server("wedged")
        link = server.fanout.peer("wedged").transport
        link.faults.partitioned = True
        for key in range(9001, 9006):
            server.insert("t", (key, "a", "b", "c"))
        link.faults.clear()
        server.propagate("t")
        # Log still covers the cursor: one coalesced delta, no snapshot.
        assert wedged.replication_channel.transfers[-1].kind == "delta"
        assert server.staleness(wedged, "t") == 0
        wedged.replica("t").audit()


class TestFrameLoss:
    def test_dropped_delta_is_retransmitted(self):
        server = make_central()
        edge = server.spawn_edge_server("lossy")
        client = server.make_client()
        link = server.fanout.peer("lossy").transport
        link.faults.drop_next = 1
        server.insert("t", (9001, "a", "b", "c"))  # this delta is lost
        assert server.staleness(edge, "t") == 1
        server.insert("t", (9002, "a", "b", "c"))  # resend covers both
        assert server.staleness(edge, "t") == 0
        resp = edge.range_query("t", low=9001, high=9002)
        assert len(resp.result.rows) == 2
        assert client.verify(resp).ok
        edge.replica("t").audit()


class TestNackEscalation:
    def test_gap_nack_retries_from_reported_cursor(self):
        """If the central-side cursor ever disagrees with the edge (here
        forced manually), the edge's gap-nack carries its real cursor
        and the retry succeeds — no snapshot needed."""
        server = make_central()
        edge = server.spawn_edge_server("e1")
        for key in range(9001, 9004):
            server.insert("t", (key, "a", "b", "c"))
        peer = server.fanout.peer("e1")
        peer.acked_lsns["t"] = 0  # central amnesia
        peer.sent_lsns["t"] = 0
        before = len(edge.replication_channel.transfers)
        server.insert("t", (9004, "a", "b", "c"))
        transfers = edge.replication_channel.transfers[before:]
        # First send covers 1..4 -> gap nack; retry from cursor 3 lands.
        assert [t.kind for t in transfers] == ["delta", "delta"]
        assert server.staleness(edge, "t") == 0
        edge.replica("t").audit()

    def test_diverged_nack_heals_with_snapshot_after_the_write(self):
        server = make_central()
        bad = server.spawn_edge_server("bad")
        good = server.spawn_edge_server("good")
        client = server.make_client()
        bad.replica("t").tree.delete(4)  # at-rest structural tampering
        server.delete("t", 4)
        assert bad.replication_channel.transfers[-1].kind == "snapshot"
        assert good.replication_channel.transfers[-1].kind == "delta"
        for edge in (bad, good):
            assert server.staleness(edge, "t") == 0
            assert client.verify(edge.range_query("t", low=0, high=50)).ok


class TestConcurrentDelivery:
    def test_all_edges_converge(self):
        server = make_central()
        edges = [server.spawn_edge_server(f"e{i}") for i in range(5)]
        client = server.make_client()
        for key in range(9001, 9021):
            server.insert("t", (key, "a", "b", "c"))
        for key in range(0, 20, 4):
            server.delete("t", key)
        for edge in edges:
            assert server.staleness(edge, "t") == 0
            edge.replica("t").audit()
            resp = edge.range_query("t", low=9001, high=9020)
            assert len(resp.result.rows) == 20
            assert client.verify(resp).ok

    def test_identical_cursors_share_one_sealed_payload(self):
        server = make_central(replication=ReplicationMode.LAZY)
        e1 = server.spawn_edge_server("e1")
        e2 = server.spawn_edge_server("e2")
        for key in range(9001, 9011):
            server.insert("t", (key, "a", "b", "c"))
        server.propagate("t")
        d1 = [t for t in e1.replication_channel.transfers if t.kind == "delta"]
        d2 = [t for t in e2.replication_channel.transfers if t.kind == "delta"]
        assert len(d1) == len(d2) == 1
        assert d1[0].nbytes == d2[0].nbytes  # byte-identical batch


class TestSpawnWithFaults:
    def test_no_duplicate_snapshots_while_link_holds_one(self):
        """A slow edge spawned behind a holding link gets exactly ONE
        bootstrap snapshot queued; eager inserts must not enqueue an
        O(tree) snapshot each (regression: needs_snapshot was recomputed
        per pump with no snapshot-in-flight tracking)."""
        server = make_central()
        edge = server.spawn_edge_server(
            "slow", faults=FaultInjector(hold=True)
        )
        for key in range(9001, 9007):
            server.insert("t", (key, "a", "b", "c"))
        link = server.fanout.peer("slow").transport
        kinds = [t.kind for t in edge.replication_channel.transfers]
        assert kinds.count("snapshot") == 1
        link.faults.clear()
        server.propagate("t")
        assert server.staleness(edge, "t") == 0
        edge.replica("t").audit()

    def test_edge_spawned_behind_partition_bootstraps_later(self):
        server = make_central()
        edge = server.spawn_edge_server(
            "late", faults=FaultInjector(partitioned=True)
        )
        assert edge.replicas == {}
        server.fanout.peer("late").transport.faults.clear()
        server.propagate()
        assert server.staleness(edge, "t") == 0
        client = server.make_client()
        assert client.verify(edge.range_query("t", low=0, high=10)).ok


class FakeSource:
    """The whole ``FanoutEngine(source)`` surface in thirty lines: one
    snapshot at LSN 1 and a chain of one-LSN frames (two to begin
    with) — no server, no keys, no store."""

    ack_every = 1

    def __init__(self):
        self.chain = {2: b"d2", 3: b"d3"}
        self.engine = FanoutEngine(self, window=4)
        self.nacks = []

    def replica_tables(self): return ["t"]
    def has_replica(self, table): return table == "t"
    def log_head(self, table): return max(self.chain)
    def bootstrap_lag(self, table): return 1
    def current_epoch(self): return 0
    def issue_epoch(self, table): return 0
    def config_frame(self): raise AssertionError("no rotation here")
    def on_cursors_advanced(self, peer): pass
    def on_peer_nack(self, peer, ack, verdict): self.nacks.append(verdict)

    def delta_payload(self, table, cursor):
        if cursor + 1 in self.chain:
            return self.chain[cursor + 1], cursor + 1
        return None, cursor

    def snapshot_frame(self, table):
        return SnapshotFrame(table="t", lsn=1, epoch=0, payload=b"s1")


class FakeEdge:
    """Applies the fake frames in order; gap-nacks anything else."""

    def __init__(self):
        self.cursor = 0
        self.seen = []

    def handle(self, data):
        frame = frame_from_bytes(data)
        if isinstance(frame, CursorProbeFrame):
            cursors = (("t", self.cursor, 0),) if self.cursor else ()
            return [frame_to_bytes(CursorAckFrame(edge="e", cursors=cursors))]
        self.seen.append(frame.payload)
        lsn = int(frame.payload[1:])
        ok = isinstance(frame, SnapshotFrame) or lsn == self.cursor + 1
        if ok:
            self.cursor = lsn
        ack = AckFrame(edge="e", table="t", ok=ok, lsn=self.cursor, epoch=0,
                       reason="" if ok else "gap")
        return [frame_to_bytes(ack)]


class TestFrameSourceSeam:
    def test_engine_delivers_settles_and_heals_from_a_fake_source(self):
        """The engine's only view of its owner is the ``source``
        surface, so a test can substitute a fake: bootstrap by
        snapshot, forward the stored chain frame by frame, settle every
        frame, and — when the edge loses its replica — rewind it
        through the snapshot and replay the chain."""
        source, edge = FakeSource(), FakeEdge()
        engine = source.engine
        link = InProcessTransport("e")
        link.connect(edge.handle)
        peer = engine.attach("e", link)

        assert engine.staleness("e", "t") == 3  # never bootstrapped
        assert engine.pump() == 1  # no acked epoch yet: the snapshot
        assert engine.pump() == 2  # then the two stored frames
        assert edge.seen == [b"s1", b"d2", b"d3"]
        assert engine.staleness("e", "t") == 0
        assert peer.outstanding == [] and peer.acked_lsns == {"t": 3}

        edge.cursor = 0  # the replica regressed underneath us
        source.chain[4] = b"d4"
        engine.pump()  # d4 gap-nacks behind the acked cursor → rewind
        assert source.nacks == ["snapshot"]
        assert edge.seen[-2:] == [b"d4", b"s1"] and peer.acked_lsns == {"t": 1}
        assert engine.pump() == 3  # chain replayed past the snapshot
        assert edge.cursor == 4 and engine.staleness("e", "t") == 0
        assert peer.outstanding == [] and not peer.needs_snapshot

    def test_settle_returns_rounds_used_and_stops_at_parity(self):
        """``settle`` is the one pump → wait-drain → settled loop: the
        snapshot goes in round one, the stored chain in round two, and
        a third call has nothing to do but look."""
        source, edge = FakeSource(), FakeEdge()
        engine = source.engine
        link = InProcessTransport("e")
        link.connect(edge.handle)
        engine.attach("e", link)
        assert not engine.settled()
        assert engine.settle() == 2
        assert engine.settled() and edge.seen == [b"s1", b"d2", b"d3"]
        assert engine.settle() == 1 and len(edge.seen) == 3

    def test_settle_gives_up_after_rounds_on_a_held_link(self):
        """A held link stays outstanding — ``settle`` spends its
        rounds, reports them, and leaves the answer to ``settled``;
        once the link is released the same call finishes the job."""
        source, edge = FakeSource(), FakeEdge()
        engine = source.engine
        link = InProcessTransport("e", faults=FaultInjector(hold=True))
        link.connect(edge.handle)
        peer = engine.attach("e", link)
        assert engine.settle(rounds=0) == 0 and not peer.outstanding
        assert engine.settle(rounds=3) == 3
        assert not engine.settled() and edge.seen == []
        assert [r.kind for r in peer.outstanding] == ["snapshot"]
        link.faults.clear()
        assert engine.settle(rounds=3) < 3 and engine.settled()
        assert edge.cursor == 3


class TestHealFlag:
    """``needs_snapshot`` means "owes this peer a heal", and
    ``settled()`` is the only place that asks (DESIGN.md §24)."""

    def test_a_heal_landing_after_its_record_was_forgotten_clears_the_flag(self):
        """The heal snapshot sits in a held link while a wait-drain
        runs out of rounds and forgets its record; the link is then
        released and the snapshot lands.  The edge's ack reports the
        table at the head under the current epoch, so nothing is owed
        any more — the flag used to survive (only the record's settle
        cleared it), leaving a replica with staleness 0 unsettled and
        shipping it a second O(tree) snapshot on the next pump."""
        server = make_central(replication=ReplicationMode.LAZY)
        server.spawn_edge_server("e")
        engine, peer = server.fanout, server.fanout.peer("e")
        link = peer.transport
        peer.needs_snapshot.add("t")
        link.faults.hold = True
        assert engine.pump() == 1
        assert [r.kind for r in peer.outstanding] == ["snapshot"]
        engine._forget_outstanding(peer)  # four fruitless settle rounds
        link.faults.clear()
        engine.drain()  # the queued snapshot lands, its ack comes back

        assert engine.staleness("e", "t") == 0
        assert peer.needs_snapshot == set()
        assert engine.settled()
        assert engine.pump() == 0
        assert link.down_channel.bytes_by_kind().keys() == {"snapshot"}

    def test_a_nack_behind_the_head_still_heals_by_snapshot(self):
        """The opposite case: a ``diverged`` nack from a replica whose
        cursor is *behind* the head.  Neither the cumulative ack that
        repeats that cursor nor the banked one clears the flag — the
        next pump replaces the replica wholesale, and that ack does."""
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("e")
        engine, peer = server.fanout, server.fanout.peer("e")
        server.insert("t", (9001, "a", "b", "c"))  # lazy: the edge lags by one
        behind = server.log_head("t") - 1
        nack = AckFrame(edge="e", table="t", ok=False, lsn=behind,
                        epoch=server.current_epoch(), reason="diverged")
        assert engine._process_replies(peer, [nack]) == "snapshot"
        assert engine._solicit(peer) == "delivered"  # reports `behind` again
        assert peer.acked_lsns["t"] == behind
        assert peer.needs_snapshot == {"t"} and not engine.settled()

        assert engine.pump() == 1
        assert edge.replication_channel.transfers[-1].kind == "snapshot"
        assert peer.needs_snapshot == set() and engine.settled()
        edge.replica("t").audit()


class TestSilentLivePeer:
    def test_out_of_budget_forgets_the_optimism_and_keeps_the_link(self, monkeypatch):
        """A peer that reads everything and answers nothing, over a
        real socket.  At the end of its budget the wait-drain treats
        the link as frame-losing — records dropped, optimistic cursors
        back at the acknowledged ones, so the next pump resends the
        tail — and leaves the socket alone: silence is weather.  (The
        per-peer ``poll()`` settle closed the link at its deadline;
        the reactor settle did not.)"""
        monkeypatch.setattr(fanout, "_DRAIN_SECONDS", 0.3)
        source = FakeSource()
        engine = source.engine
        left, right = socket.socketpair()
        right.settimeout(5)
        engine.reactor = loop = EdgeEventLoop()
        seen = []

        def read_and_say_nothing():
            while (data := recv_frame(right)) is not None:
                seen.append(type(frame_from_bytes(data)))

        reader = threading.Thread(target=read_and_say_nothing)
        reader.start()
        try:
            link = ReactorTransport("e", loop, left)
            peer = engine.attach("e", link, cursors=[("t", 1, 0)])
            assert engine.pump() == 2 and peer.sent_lsns == {"t": 3}
            engine.drain(wait=True)

            assert link.connected
            assert peer.outstanding == [] and not peer.probe_inflight
            assert peer.sent_lsns == {"t": 1}
            assert engine.pump() == 2  # the tail again
            loop.run_once(0.05)
        finally:
            loop.close()
            reader.join(timeout=5)
        assert seen == [DeltaFrame, DeltaFrame, CursorProbeFrame,
                        DeltaFrame, DeltaFrame]
