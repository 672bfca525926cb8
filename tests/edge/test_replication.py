"""Delta-based replica maintenance through the full deployment:
eager push, lazy batched pull, staleness in LSNs, snapshot fallbacks."""

import pytest

from repro.edge.central import CentralServer, ReplicationMode
from repro.exceptions import DeltaGapError, StaleDeltaError
from repro.workloads.generator import TableSpec, generate_table

from tests.edge.conftest import down_channel

DB = "repldb"


def make_central(replication=ReplicationMode.EAGER, rows=120, **kwargs):
    server = CentralServer(
        db_name=DB, rsa_bits=512, seed=77, replication=replication, **kwargs
    )
    schema, data = generate_table(
        TableSpec(name="t", rows=rows, columns=4, seed=9)
    )
    server.create_table(schema, data, fanout_override=6)
    return server


class TestEagerDeltas:
    def test_insert_ships_delta_not_snapshot(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        bootstrap = down_channel(server, edge).bytes_by_kind()
        assert bootstrap.get("snapshot", 0) > 0  # spawn = snapshot
        server.insert("t", (9001, "a", "b", "c"))
        after = down_channel(server, edge).bytes_by_kind()
        assert after.get("delta", 0) > 0
        assert after.get("snapshot") == bootstrap.get("snapshot")  # unchanged

    def test_delta_bytes_much_smaller_than_snapshot(self):
        server = make_central(rows=500)
        edge = server.spawn_edge_server("e1")
        snapshot_bytes = down_channel(server, edge).bytes_by_kind()["snapshot"]
        server.insert("t", (9001, "a", "b", "c"))
        delta_bytes = down_channel(server, edge).bytes_by_kind()["delta"]
        assert delta_bytes * 10 < snapshot_bytes

    def test_updates_verify_on_every_edge(self):
        server = make_central()
        edges = [server.spawn_edge_server(f"e{i}") for i in range(3)]
        client = server.make_client()
        server.insert("t", (9001, "a", "b", "c"))
        server.delete("t", 10)
        for edge in edges:
            resp = edge.range_query("t", low=0, high=10_000)
            assert client.verify(resp).ok
            keys = set(resp.result.keys)
            assert 9001 in keys and 10 not in keys
            edge.replica("t").audit()

    def test_many_updates_keep_replicas_structurally_identical(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        for key in range(10_000, 10_060):
            server.insert("t", (key, "x", "y", "z"))
        for key in range(0, 40, 2):
            server.delete("t", key)
        replica = edge.replica("t")
        central_tree = server.vbtrees["t"]
        replica.tree.validate()
        replica.audit()
        assert replica.tree.node_count() == central_tree.tree.node_count()
        assert server.staleness(edge, "t") == 0

    def test_multi_row_view_maintenance_replicates_every_delta(self):
        """One base-table insert can add several view rows; every view
        mutation's delta must be recorded and applied (regression: a
        single-slot last_delta dropped all but the final one)."""
        from repro.db.schema import Column, TableSchema
        from repro.db.types import IntType

        server = CentralServer(db_name=DB, rsa_bits=512, seed=41)
        a = TableSchema(
            "a", (Column("k", IntType()), Column("x", IntType())), key="k"
        )
        c = TableSchema(
            "c", (Column("id", IntType()), Column("grp", IntType())), key="id"
        )
        server.create_table(a, [(1, 10)])
        server.create_table(c, [(1, 7), (2, 7), (3, 7)])  # duplicated join key
        server.create_join_view("ac", "a", "c", "k", "grp")
        edge = server.spawn_edge_server("e")
        client = server.make_client()
        server.insert("a", (7, 70))  # joins all three c-rows at once
        replica = edge.replica("ac")
        assert len(list(replica.rows())) == len(
            list(server.vbtrees["ac"].rows())
        )
        replica.audit()
        resp = edge.range_query("ac")
        assert client.verify(resp).ok
        assert server.staleness(edge, "ac") == 0

    def test_table_created_after_spawn_syncs_via_snapshot(self):
        from repro.db.schema import Column, TableSchema
        from repro.db.types import IntType

        server = make_central()
        edge = server.spawn_edge_server("e1")
        late = TableSchema(
            "late", (Column("k", IntType()), Column("v", IntType())), key="k"
        )
        server.create_table(late, [(1, 10), (2, 20)])
        server.insert("late", (3, 30))
        client = server.make_client()
        resp = edge.range_query("late", low=0, high=10)
        assert len(resp.result.rows) == 3
        assert client.verify(resp).ok


class TestLazyLog:
    def test_staleness_reported_in_lsns(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        for key in (9001, 9002, 9003):
            server.insert("t", (key, "a", "b", "c"))
        assert server.staleness(edge, "t") == 3
        server.propagate()
        assert server.staleness(edge, "t") == 0

    def test_edge_serves_stale_until_propagate(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        client = server.make_client()
        server.insert("t", (9001, "a", "b", "c"))
        resp = edge.range_query("t", low=9001, high=9001)
        assert resp.result.rows == []       # stale result...
        assert client.verify(resp).ok       # ...but authentic (old state)
        server.propagate()
        resp = edge.range_query("t", low=9001, high=9001)
        assert len(resp.result.rows) == 1
        assert client.verify(resp).ok

    def test_pull_coalesces_pending_deltas_into_one_transfer(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        for key in range(9001, 9021):
            server.insert("t", (key, "a", "b", "c"))
        before = len(down_channel(server, edge).transfers)
        shipped = server.propagate("t")
        assert shipped == 1  # 20 mutations, one coalesced batch
        transfers = down_channel(server, edge).transfers[before:]
        assert len(transfers) == 1 and transfers[0].kind == "delta"
        edge.replica("t").audit()
        assert server.staleness(edge, "t") == 0

    def test_coalesced_batch_cheaper_than_individual_deltas(self):
        def pending_bytes(coalesced: bool) -> int:
            server = make_central(replication=ReplicationMode.LAZY)
            edge = server.spawn_edge_server("lazy")
            for key in range(9001, 9021):
                server.insert("t", (key, "a", "b", "c"))
            if not coalesced:
                return sum(
                    e.nbytes
                    for e in server.replicator.log_for("t").entries_since(0)
                )
            server.propagate("t")
            return down_channel(server, edge).bytes_by_kind()["delta"]

        assert pending_bytes(True) < pending_bytes(False)

    def test_log_truncation_falls_back_to_snapshot(self):
        server = make_central(
            replication=ReplicationMode.LAZY, max_log_entries=5
        )
        edge = server.spawn_edge_server("lazy")
        for key in range(9001, 9021):  # 20 deltas, log keeps 5
            server.insert("t", (key, "a", "b", "c"))
        server.propagate("t")
        kinds = [t.kind for t in down_channel(server, edge).transfers]
        assert kinds[-1] == "snapshot"
        client = server.make_client()
        resp = edge.range_query("t", low=9001, high=9020)
        assert len(resp.result.rows) == 20
        assert client.verify(resp).ok


class TestKeyRotation:
    def test_rotation_forces_snapshot_resync(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        client = server.make_client()
        server.insert("t", (9001, "a", "b", "c"))
        server.propagate()
        assert server.staleness(edge, "t") == 0

        old_epoch = server.keyring.current_epoch
        server.rotate_key(seed=78)
        server.keyring.tick()
        assert server.keyring.current_epoch == old_epoch + 1
        assert server.staleness(edge, "t") > 0  # the rotation barrier counts

        # Clients detect the stale epoch before resync...
        verdict = client.verify(edge.range_query("t", low=0, high=10))
        assert not verdict.ok and "stale" in verdict.reason

        # ...and the resync is a snapshot, after which queries verify.
        before = len(down_channel(server, edge).transfers)
        server.propagate()
        assert down_channel(server, edge).transfers[before].kind == "snapshot"
        assert edge.replica_epochs["t"] == server.keyring.current_epoch
        assert server.staleness(edge, "t") == 0
        assert client.verify(edge.range_query("t", low=0, high=10)).ok

    def test_eager_rotation_resyncs_immediately(self):
        server = make_central()
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        server.rotate_key(seed=79)
        server.keyring.tick()
        assert server.staleness(edge, "t") == 0
        assert client.verify(edge.range_query("t", low=0, high=10)).ok


class TestDivergenceHealing:
    def test_diverged_edge_healed_by_snapshot_without_wedging_others(self):
        """An edge whose replica was tampered at rest chokes on the next
        delta; the central server heals it with a snapshot and the other
        edges keep receiving deltas (regression: the ReplicaDeltaError
        used to escape CentralServer.delete and wedge replication)."""
        server = make_central()
        bad, good = server.spawn_edge_server("bad"), server.spawn_edge_server("good")
        client = server.make_client()
        bad.replica("t").tree.delete(4)  # at-rest structural tampering
        server.delete("t", 4)            # delta's delete op fails on `bad`
        assert down_channel(server, bad).transfers[-1].kind == "snapshot"
        assert down_channel(server, good).transfers[-1].kind == "delta"
        for edge in (bad, good):
            assert server.staleness(edge, "t") == 0
            edge.replica("t").audit()
            assert client.verify(edge.range_query("t", low=0, high=50)).ok
        # And the healed edge continues on the delta path afterwards.
        server.insert("t", (9100, "a", "b", "c"))
        assert down_channel(server, bad).transfers[-1].kind == "delta"

    def test_denied_insert_lock_leaves_no_divergence(self):
        """A LockError during insert must leave the central tree — and
        therefore the delta log — untouched (regression: raw_insert ran
        before locking, creating phantom rows replicas never saw)."""
        from repro.core.update import AuthenticatedUpdater, digest_resource
        from repro.db.transactions import TransactionManager
        from repro.exceptions import LockError

        server = make_central()
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        vbt = server.vbtrees["t"]
        tm = server.txn_manager
        blocker = tm.begin()
        root_resource = digest_resource("t", vbt.tree.root.node_id)
        assert blocker.lock_exclusive(root_resource)
        size_before = len(vbt.tree)
        with pytest.raises(LockError):
            server.insert("t", (9200, "a", "b", "c"))
        assert len(vbt.tree) == size_before  # nothing mutated
        assert server.replicator.log_for("t").last_lsn == 0  # nothing logged
        blocker.commit()
        # Replication continues cleanly afterwards.
        server.insert("t", (9200, "a", "b", "c"))
        resp = edge.range_query("t", low=9200, high=9200)
        assert len(resp.result.rows) == 1
        assert client.verify(resp).ok
        edge.replica("t").audit()


class TestIdempotence:
    def test_replayed_payload_rejected_and_replica_unchanged(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        server.insert("t", (9001, "a", "b", "c"))
        payload = server.replicator.log_for("t").entries_since(0)[0].payload
        edge.apply_delta("t", payload)
        with pytest.raises(StaleDeltaError):
            edge.apply_delta("t", payload)
        edge.replica("t").audit()
        # The out-of-band apply bypassed the transport, so the central
        # cursor still trails; a propagate round-trip reconciles it via
        # the edge's stale-nack (which carries the real cursor).
        assert server.staleness(edge, "t") == 1
        server.propagate("t")
        assert server.staleness(edge, "t") == 0

    def test_out_of_order_payload_rejected(self):
        server = make_central(replication=ReplicationMode.LAZY)
        edge = server.spawn_edge_server("lazy")
        server.insert("t", (9001, "a", "b", "c"))
        server.insert("t", (9002, "a", "b", "c"))
        entries = server.replicator.log_for("t").entries_since(0)
        with pytest.raises(DeltaGapError):
            edge.apply_delta("t", entries[1].payload)  # lsn 2 before 1
        edge.apply_delta("t", entries[0].payload)
        edge.apply_delta("t", entries[1].payload)
        edge.replica("t").audit()
