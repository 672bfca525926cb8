"""Batched cumulative acks, piggybacked cursors, and adaptive windows
(DESIGN.md section 10).

The protocol battery for the cursor-safe ack coalescing tentpole:

* edges defer ok-acks to a count/byte threshold and answer with one
  cumulative ``CursorAckFrame`` that settles the whole window;
* heal boundaries (snapshots) and probes ack immediately, and *nacks*
  are never coalesced — tamper/gap escalation survives batching;
* cursor application on the central side is **monotonic**: shuffled,
  duplicated, delayed acks can never regress ``acked_lsns`` (the
  regression the hypothesis property below hunts);
* per-edge flow-control windows adapt (AIMD) to observed ack latency —
  growing on fast links, shrinking on slow ones, halving on faults.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.deploy import Deployment
from repro.edge.fanout import AdaptiveWindow
from repro.edge.serve import run_edge
from repro.edge.link import InProcessTransport
from repro.edge.transport import (
    AckFrame,
    CursorAckFrame,
    CursorProbeFrame,
    HelloFrame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table

DB = "ackbatchdb"


def make_central(rows=80, **kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=71, **kwargs)
    schema, data = generate_table(
        TableSpec(name="t", rows=rows, columns=4, seed=5)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


def ack_frames(transport) -> int:
    """Ack frames the edge sent on this link (cursor acks + nacks)."""
    return sum(
        1 for t in transport.up_channel.transfers if t.kind == "ack"
    )


def probe_frames(transport) -> int:
    """Cursor probes the central sent on this link."""
    return sum(
        1 for t in transport.down_channel.transfers if t.kind == "control"
    )


def delta_frames(transport) -> int:
    return sum(
        1 for t in transport.down_channel.transfers if t.kind == "delta"
    )


# ---------------------------------------------------------------------------
# Coalescing cadence (edge side)
# ---------------------------------------------------------------------------


class TestAckCoalescing:
    def test_per_frame_cadence_is_the_default(self):
        """``ack_every=1`` acknowledges every delta immediately — the
        pre-batching behaviour in-process simulations rely on."""
        server = make_central()
        edge = server.spawn_edge_server("e1")
        link = server.fanout.peer("e1").transport
        before = ack_frames(link)
        for key in range(9001, 9006):
            server.insert("t", (key, "a", "b", "c"))
        assert ack_frames(link) - before == 5
        assert server.staleness(edge, "t") == 0
        assert probe_frames(link) == 0  # synchronous acks: never probed

    def test_count_threshold_coalesces_acks(self):
        """16 eager delta frames under ``ack_every=8`` produce exactly
        two cumulative acks — an 8x reduction at identical delta
        traffic."""
        server = make_central(ack_every=8)
        edge = server.spawn_edge_server("e1")
        link = server.fanout.peer("e1").transport
        before_acks = ack_frames(link)
        before_deltas = delta_frames(link)
        for key in range(9001, 9017):
            server.insert("t", (key, "a", "b", "c"))
        assert delta_frames(link) - before_deltas == 16
        assert ack_frames(link) - before_acks == 2
        # The 16th frame tripped the threshold: fully settled.
        assert server.staleness(edge, "t") == 0
        assert server.fanout.peer("e1").inflight == 0

    def test_wait_drain_probes_out_the_tail(self):
        """Frames below the threshold stay unacknowledged until a
        settle point solicits a probe — one tiny control frame settles
        the whole tail, and the ack-fed staleness view is exact
        again (no accuracy loss from batching)."""
        server = make_central(ack_every=8)
        edge = server.spawn_edge_server("e1")
        link = server.fanout.peer("e1").transport
        for key in range(9001, 9004):  # 3 frames: below the threshold
            server.insert("t", (key, "a", "b", "c"))
        peer = server.fanout.peer("e1")
        assert server.staleness(edge, "t") == 3  # acks deferred
        assert peer.inflight == 3
        assert ack_frames(link) == 1  # only the bootstrap heal ack
        server.fanout.drain("e1", wait=True)
        assert server.staleness(edge, "t") == 0
        assert peer.inflight == 0
        assert probe_frames(link) == 1
        assert ack_frames(link) == 2  # + exactly one cumulative ack

    def test_byte_threshold_forces_early_ack(self):
        """A byte budget of 1 acknowledges every frame whatever the
        frame threshold says."""
        server = make_central(ack_every=1000, ack_bytes=1)
        edge = server.spawn_edge_server("e1")
        link = server.fanout.peer("e1").transport
        before = ack_frames(link)
        for key in range(9001, 9005):
            server.insert("t", (key, "a", "b", "c"))
        assert ack_frames(link) - before == 4
        assert server.staleness(edge, "t") == 0

    def test_snapshot_is_a_heal_boundary(self):
        """A snapshot install acks immediately even under deep
        coalescing — the sender is waiting on the O(tree) transfer."""
        server = make_central(ack_every=1000, max_log_entries=2)
        edge = server.spawn_edge_server("e1")
        link = server.fanout.peer("e1").transport
        link.faults.partitioned = True
        for key in range(9001, 9009):  # far past log retention
            server.insert("t", (key, "a", "b", "c"))
        link.faults.clear()
        server.propagate("t")  # heals via snapshot
        assert server.staleness(edge, "t") == 0
        kinds = [t.kind for t in edge.replication_channel.transfers]
        assert kinds[-1] == "snapshot"
        edge.replica("t").audit()

    def test_nacks_are_never_coalesced(self):
        """Cumulative acks cannot mask divergence: a tampered replica
        nacks the next delta *immediately* (threshold ignored) and the
        snapshot heal escalation runs in the same pump."""
        server = make_central(ack_every=1000)
        edge = server.spawn_edge_server("bad")
        client = server.make_client()
        edge.replica("t").tree.delete(4)  # at-rest structural tampering
        server.delete("t", 4)
        assert edge.replication_channel.transfers[-1].kind == "snapshot"
        assert server.staleness(edge, "t") == 0
        resp = edge.range_query("t", low=0, high=50)
        assert client.verify(resp).ok

    def test_wait_drain_leaves_a_held_link_outstanding(self):
        """A held-but-alive link cannot answer a probe yet: the settle
        loop must give up without forgetting the frames (they are still
        queued for delivery), and the next settle after the fault
        clears converges."""
        server = make_central(ack_every=8)
        edge = server.spawn_edge_server("slow")
        peer = server.fanout.peer("slow")
        link = peer.transport
        link.faults.hold = True
        for key in range(9001, 9004):
            server.insert("t", (key, "a", "b", "c"))
        assert peer.inflight == 3
        server.fanout.drain("slow", wait=True)  # probe queues, no reply
        assert peer.inflight == 3  # optimism kept: frames are in the link
        assert peer.probe_inflight
        link.faults.clear()
        server.fanout.drain("slow", wait=True)
        assert peer.inflight == 0
        assert server.staleness(edge, "t") == 0

    def test_dropped_probe_shrinks_window_and_keeps_optimism(self):
        server = make_central(ack_every=8)
        server.spawn_edge_server("lossy")
        peer = server.fanout.peer("lossy")
        link = peer.transport
        link.faults.hold = True
        for key in range(9001, 9004):
            server.insert("t", (key, "a", "b", "c"))
        link.faults.clear()
        link.faults.drop_next = 1  # the probe itself is lost
        size = peer.window.size
        server.fanout.drain("lossy", wait=True)
        assert peer.window.size < size  # fault shrank the window
        assert peer.inflight == 3  # frames still awaiting settle
        server.fanout.drain("lossy", wait=True)  # next probe lands
        assert peer.inflight == 0
        assert server.staleness("lossy", "t") == 0

    def test_probe_frame_answers_with_cumulative_cursors(self):
        server = make_central(ack_every=1000)
        edge = server.spawn_edge_server("e1")
        for key in range(9001, 9004):
            server.insert("t", (key, "a", "b", "c"))
        (reply,) = edge.handle_frame(frame_to_bytes(CursorProbeFrame()))
        ack = frame_from_bytes(reply)
        assert isinstance(ack, CursorAckFrame)
        assert dict((t, (lsn, e)) for t, lsn, e in ack.cursors)["t"][0] == \
            edge.replica_lsns["t"]


# ---------------------------------------------------------------------------
# Monotonic cursor application (the ack/cursor correctness sweep)
# ---------------------------------------------------------------------------


def bare_peer():
    """A central with two replicated tables ("t" and "u", log heads
    past LSN 9, key epoch 2) and one attached peer whose link swallows
    every frame — acks are then injected by hand."""
    server = CentralServer(db_name=DB, rsa_bits=512, seed=72)
    for name in ("t", "u"):
        schema, data = generate_table(
            TableSpec(name=name, rows=10, columns=3, seed=6)
        )
        server.create_table(schema, data, fanout_override=6)
        for key in range(9001, 9011):
            server.insert(name, (key, "a", "b"))
    server.rotate_key(seed=73)
    server.rotate_key(seed=74)
    link = InProcessTransport("x")
    link.connect(lambda data: [])
    peer = server.fanout.attach("x", link)
    return server.fanout, peer


class TestMonotonicCursors:
    def test_outranked_gap_nack_cannot_regress_the_cursor(self):
        """Regression (pre-batching ``_apply_ack`` assigned the gap
        cursor unconditionally): a gap nack behind the acknowledged
        cursor must never roll ``acked_lsns`` back.  It must not be
        silently ignored either — on an ordered link it means the
        replica regressed, so it escalates to a snapshot heal."""
        fanout, peer = bare_peer()
        fanout._process_replies(
            peer, [CursorAckFrame(edge="x", cursors=(("t", 5, 0),))]
        )
        assert peer.acked_lsns["t"] == 5
        stale_nack = AckFrame(
            edge="x", table="t", ok=False, lsn=2, epoch=0, reason="gap"
        )
        verdict = fanout._process_replies(peer, [stale_nack])
        assert peer.acked_lsns["t"] == 5  # never regressed
        assert verdict == "snapshot"  # divergence: replaced, not retried
        assert "t" in peer.needs_snapshot

    def test_regressed_replica_heals_instead_of_livelocking(self):
        """End to end: an edge whose cursor rolled back underneath the
        central view (state loss / at-rest tampering) keeps gap-nacking
        from *behind* the acknowledged cursor.  The engine must treat
        that as divergence and snapshot-heal — not ignore the outranked
        nack and resend the same gapping delta forever."""
        server = make_central()
        edge = server.spawn_edge_server("rollback")
        client = server.make_client()
        for key in range(9001, 9006):
            server.insert("t", (key, "a", "b", "c"))
        assert server.staleness(edge, "t") == 0
        edge.replica_lsns["t"] -= 3  # the replica regresses
        server.insert("t", (9006, "a", "b", "c"))
        server.propagate("t")
        assert server.staleness(edge, "t") == 0
        assert edge.replication_channel.transfers[-1].kind == "snapshot"
        resp = edge.range_query("t", low=9001, high=9006)
        assert len(resp.result.rows) == 6
        assert client.verify(resp).ok
        edge.replica("t").audit()

    def test_delayed_old_epoch_ack_cannot_regress_the_epoch(self):
        """Regression (epochs were assigned unconditionally): an
        equal-LSN ack from before a rotation must not roll the epoch
        back — that would fake a cross-epoch mismatch and trigger a
        spurious O(tree) snapshot heal."""
        fanout, peer = bare_peer()
        fanout._process_replies(
            peer,
            [AckFrame(edge="x", table="t", ok=True, lsn=7, epoch=2)],
        )
        fanout._process_replies(
            peer,
            [AckFrame(edge="x", table="t", ok=True, lsn=7, epoch=1)],
        )
        assert peer.acked_epochs["t"] == 2

    def test_lying_cursor_ahead_of_log_cannot_suppress_replication(self):
        """The hello-path sanitization applies to every cursor source:
        a cumulative ack (or piggybacked response cursor) claiming an
        LSN beyond the log head is clamped, so the table keeps
        receiving frames instead of being skipped forever — and a
        fabricated table name is dropped instead of growing central
        state."""
        fanout, peer = bare_peer()
        fanout._process_replies(
            peer,
            [CursorAckFrame(
                edge="x",
                cursors=(("t", 10**9, 10**6), ("no_such_table", 7, 0)),
            )],
        )
        head = fanout.source.replicator.log_for("t").last_lsn
        assert peer.acked_lsns["t"] <= head
        assert peer.sent_lsns["t"] <= head
        assert peer.acked_epochs["t"] <= fanout.source.keyring.current_epoch
        assert "no_such_table" not in peer.acked_lsns
        # Same rules via the piggyback path.
        fanout.observe_response_cursors(
            "x", (("u", 10**9, 0), ("fake", 1, 0))
        )
        assert peer.acked_lsns["u"] <= \
            fanout.source.replicator.log_for("u").last_lsn
        assert "fake" not in peer.acked_lsns
        # A nack for a fabricated table must not grow needs_snapshot.
        fanout._process_replies(
            peer,
            [AckFrame(edge="x", table="ghost", ok=False, lsn=0, epoch=0,
                      reason="tamper")],
        )
        assert "ghost" not in peer.needs_snapshot

    def test_duplicate_and_stale_acks_are_idempotent(self):
        fanout, peer = bare_peer()
        frames = [
            CursorAckFrame(edge="x", cursors=(("t", 3, 0),)),
            CursorAckFrame(edge="x", cursors=(("t", 3, 0),)),  # duplicate
            AckFrame(edge="x", table="t", ok=False, lsn=1, epoch=0,
                     reason="stale"),  # ancient duplicate-delivery nack
        ]
        for frame in frames:
            fanout._process_replies(peer, [frame])
            assert peer.acked_lsns["t"] == 3

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.lists(
            st.sampled_from(range(6)), min_size=1, max_size=24
        )
    )
    def test_any_ack_ordering_is_monotonic(self, order):
        """Property: under *any* interleaving of delayed/duplicated
        acks (cumulative acks, ok acks, stale and gap nacks drawn from
        a monotone history), the applied cursor is always the max seen
        so far and never regresses."""
        # The edge's true history: cursors only ever advance, epochs
        # bump at a rotation barrier.
        history = [
            CursorAckFrame(edge="x", cursors=(("t", 1, 0), ("u", 2, 0))),
            AckFrame(edge="x", table="t", ok=True, lsn=3, epoch=0),
            AckFrame(edge="x", table="t", ok=False, lsn=4, epoch=0,
                     reason="stale"),
            AckFrame(edge="x", table="u", ok=False, lsn=5, epoch=0,
                     reason="gap"),
            CursorAckFrame(edge="x", cursors=(("t", 8, 1), ("u", 6, 1))),
            CursorAckFrame(edge="x", cursors=(("t", 9, 1), ("u", 9, 1))),
        ]
        best: dict[str, tuple[int, int]] = {}
        for idx in range(6):
            frame = history[idx]
            entries = (
                frame.cursors
                if isinstance(frame, CursorAckFrame)
                else [(frame.table, frame.lsn, frame.epoch)]
            )
            for table, lsn, epoch in entries:
                if table not in best or (lsn, epoch) > best[table]:
                    best[table] = (lsn, epoch)

        fanout, peer = bare_peer()
        seen: dict[str, tuple[int, int]] = {}
        for idx in order:
            fanout._process_replies(peer, [history[idx]])
            for table, lsn in peer.acked_lsns.items():
                epoch = peer.acked_epochs[table]
                prev = seen.get(table, (0, -1))
                assert (lsn, epoch) >= prev, "cursor regressed"
                seen[table] = (lsn, epoch)
                assert (lsn, epoch) <= best[table], "cursor overshot"
        # Exhaustive delivery reaches exactly the true maxima.
        for idx in range(6):
            fanout._process_replies(peer, [history[idx]])
        for table, (lsn, epoch) in best.items():
            assert peer.acked_lsns[table] == lsn
            assert peer.acked_epochs[table] == epoch


# ---------------------------------------------------------------------------
# Adaptive windows
# ---------------------------------------------------------------------------


class TestAdaptiveWindow:
    def test_fast_acks_grow_to_ceiling(self):
        window = AdaptiveWindow(size=2, floor=1, ceiling=6, target=0.05)
        for _ in range(10):
            window.on_ack(0.001)
        assert window.size == 6

    def test_slow_acks_shrink_to_floor(self):
        window = AdaptiveWindow(size=6, floor=2, ceiling=8, target=0.05)
        for _ in range(10):
            window.on_ack(1.0)
        assert window.size == 2

    def test_fault_halves_instantly(self):
        window = AdaptiveWindow(size=8, floor=1, ceiling=8)
        window.on_fault()
        assert window.size == 4
        window.on_fault()
        window.on_fault()
        window.on_fault()
        assert window.size == 1  # floored, never zero

    def test_ewma_smooths_one_outlier(self):
        window = AdaptiveWindow(size=4, floor=1, ceiling=8, target=0.05)
        for _ in range(6):
            window.on_ack(0.0)
        size = window.size
        window.on_ack(0.08)  # one slow ack against a fast history
        assert window.size >= size  # smoothed away, no panic shrink

    def test_fast_link_converges_larger(self):
        """Integration: with a raised ceiling, an in-process link's
        instant acks grow the window past the initial bound."""
        server = make_central(fanout_window=2, fanout_window_max=8)
        server.spawn_edge_server("e1")
        for key in range(9001, 9011):
            server.insert("t", (key, "a", "b", "c"))
        peer = server.fanout.peer("e1")
        assert peer.window.size == 8
        assert server.staleness("e1", "t") == 0

    def test_slow_held_link_shrinks_window(self):
        """Integration: acks held back by a slow link settle with high
        observed latency and the window backs off below its grown
        size."""
        server = make_central(fanout_window=4, fanout_window_max=8)
        server.fanout.ack_latency_target = 0.02
        server.spawn_edge_server("slow")
        peer = server.fanout.peer("slow")
        link = peer.transport
        link.faults.hold = True
        for key in range(9001, 9005):
            server.insert("t", (key, "a", "b", "c"))
        grown = peer.window.size
        time.sleep(0.1)  # the frames sit in the slow link
        link.faults.clear()
        server.propagate("t")
        assert server.staleness("slow", "t") == 0
        assert peer.window.size < grown
        assert peer.window.size >= peer.window.floor

    def test_solicited_settle_does_not_shrink_a_fast_window(self):
        """A probe-solicited settle measures how long the *central*
        left frames unclaimed (workload pacing, coalescing delay), not
        the link's speed — it must not feed the latency EWMA.  An
        instant in-process link under ``ack_every > window`` with a
        paced workload would otherwise be walked to the floor and
        probed on every single insert."""
        server = make_central(ack_every=8, fanout_window=2)
        server.spawn_edge_server("paced")
        peer = server.fanout.peer("paced")
        for key in (9001, 9002):  # fill the window, acks deferred
            server.insert("t", (key, "a", "b", "c"))
        assert peer.inflight == 2 == peer.window.size
        time.sleep(0.5)  # the workload pauses; frames age unclaimed
        server.insert("t", (9003, "a", "b", "c"))  # blocked -> solicit
        # The solicited settle freed the window without penalizing it.
        assert peer.window.size == 2, (
            f"solicited settle shrank a fast link (2 -> "
            f"{peer.window.size})"
        )
        assert peer.inflight == 1  # the blocked insert went out after all

    def test_dead_link_fault_halves_window_exactly_once(self):
        """One link-death event is one AIMD fault: the failed send
        charges the window and the forget-outstanding cleanup must not
        charge it again (a double fault quarters the pipeline and
        doubles the regrow time after the edge heals)."""
        import socket as socket_mod

        from repro.edge.event_loop import EdgeEventLoop, ReactorTransport

        server = make_central(fanout_window=8)
        left, right = socket_mod.socketpair()
        loop = EdgeEventLoop()
        try:
            transport = ReactorTransport("dead", loop, left, timeout=1)
            lsn = server.replicator.log_for("t").last_lsn
            epoch = server.keyring.current_epoch
            server.admit(
                HelloFrame(edge="dead", cursors=(("t", lsn, epoch),)),
                transport, server.config_frame(),
            )
            right.close()
            transport.close()  # the link dies with the window configured
            server.insert("t", (9001, "a", "b", "c"))  # one failed-send pump
            peer = server.fanout.peer("dead")
            assert peer.window.size == 4  # halved once, not quartered
            assert peer.inflight == 0
        finally:
            loop.close()

    def test_fixed_window_by_default(self):
        """Without a raised ceiling the window is the classic constant
        — simulations keep exact determinism."""
        server = make_central(fanout_window=3)
        server.spawn_edge_server("e1")
        for key in range(9001, 9011):
            server.insert("t", (key, "a", "b", "c"))
        assert server.fanout.peer("e1").window.size == 3


# ---------------------------------------------------------------------------
# Piggybacked cursors
# ---------------------------------------------------------------------------


class TestPiggybackedCursors:
    def test_query_response_carries_all_replica_cursors(self):
        server = make_central()
        server.create_secondary_index("t", "a1", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        server.insert("t", (9001, "a", "b", "c"))
        link = InProcessTransport("client")
        link.connect(edge.handle_frame)
        outcome = link.send(range_query_frame("t", low=0, high=10))
        (reply,) = outcome.replies
        tables = {t for t, _l, _e in reply.cursors}
        assert tables == {"t", "t__by_a1"}
        cursors = {t: lsn for t, lsn, _e in reply.cursors}
        assert cursors["t"] == edge.replica_lsns["t"]

    def test_router_learns_unqueried_replicas_from_piggyback(self):
        """One routed query on the base table seeds the freshest-policy
        hints for the secondary index replica too."""
        server = make_central()
        server.create_secondary_index("t", "a1", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        server.insert("t", (9001, "a", "b", "c"))
        router = server.make_router(edges=[edge], policy="freshest")
        router.query(range_query_frame("t", low=0, high=10))
        stats = router.edge_stats("e1")
        assert "t__by_a1" in stats.cursors
        assert stats.cursors["t"] == edge.replica_lsns["t"]


# ---------------------------------------------------------------------------
# Batched acks over real TCP (edge served from a thread — tier-1 safe)
# ---------------------------------------------------------------------------


class TestBatchedAcksOverTcp:
    def _threaded_deployment(self, central):
        deploy = Deployment(central, io_timeout=5)
        host, port = deploy.address
        thread = threading.Thread(
            target=run_edge,
            args=("tcp-edge", host, port),
            kwargs={"max_reconnects": 0, "retry_attempts": 10,
                    "retry_delay": 0.05, "io_timeout": 5},
        )
        thread.start()
        return deploy, thread

    def test_query_does_not_hang_behind_deferred_acks(self):
        """Regression: a socket link's ``request`` once drained one
        reply per sent frame before querying — under coalescing those
        acks are never coming and the query blocked until the receive
        timeout tore the link down.  Matching replies by type must keep
        the query path instant, and the piggybacked cursors must feed
        the central ack state so staleness settles without a sync."""
        central = make_central(ack_every=1000)
        client = central.make_client()
        deploy, thread = self._threaded_deployment(central)
        try:
            deploy.wait_for_edge("tcp-edge", timeout=15)
            for key in range(9001, 9006):
                central.insert("t", (key, "a", "b", "c"))
            start = time.perf_counter()
            resp = deploy.range_query("tcp-edge", "t", low=9001, high=9005)
            elapsed = time.perf_counter() - start
            assert elapsed < 3.0, f"query stalled {elapsed:.1f}s on deferred acks"
            assert len(resp.result.rows) == 5
            assert client.verify(resp).ok
            # The response's piggybacked cursors settled the window.
            assert central.staleness("tcp-edge", "t") == 0
            assert central.fanout.peer("tcp-edge").inflight == 0
        finally:
            deploy.shutdown()
            thread.join(timeout=10)

    def test_sync_settles_batched_acks_with_one_probe_round(self):
        central = make_central(ack_every=64)
        deploy, thread = self._threaded_deployment(central)
        try:
            deploy.wait_for_edge("tcp-edge", timeout=15)
            link = deploy.edges["tcp-edge"].transport
            before = ack_frames(link)
            for key in range(9001, 9011):
                central.insert("t", (key, "a", "b", "c"))
            deploy.sync("t")
            assert central.staleness("tcp-edge", "t") == 0
            # 10 delta frames settled by probe-solicited cumulative
            # acks — far fewer ack frames than deltas.
            assert ack_frames(link) - before <= 4
        finally:
            deploy.shutdown()
            thread.join(timeout=10)
