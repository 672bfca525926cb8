"""One logical update = one transaction across every tree it touches.

Regression tests for the pre-transport behaviour where
``CentralServer.insert`` committed the base-table transaction *before*
maintaining secondary indexes and join views: a lock denial there left
the base tree updated, the indexes not, and the replication log
recording a state no replica could reach."""

import pytest

from repro.core.update import digest_resource
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType
from repro.edge.central import CentralServer
from repro.exceptions import LockError, SchemaError
from repro.sql import Session

DB = "atomdb"


def make_server():
    server = CentralServer(db_name=DB, rsa_bits=512, seed=61)
    schema = TableSchema(
        "m",
        (Column("id", IntType()), Column("temp", IntType()),
         Column("site", IntType())),
        key="id",
    )
    server.create_table(
        schema, [(i, 15 + i % 20, i % 3) for i in range(40)],
        fanout_override=6,
    )
    return server


def block_root(server, tree_name):
    """Start a transaction holding an X-lock on a tree's root digest."""
    vbt = server.vbtrees[tree_name]
    blocker = server.txn_manager.begin()
    assert blocker.lock_exclusive(
        digest_resource(vbt.table_name, vbt.tree.root.node_id)
    )
    return blocker


def snapshot_state(server, names):
    return {
        name: (
            len(server.vbtrees[name].tree),
            server.vbtrees[name].version,
            server.replicator.log_for(name).last_lsn,
        )
        for name in names
    }


def make_view_server():
    """``m`` joined to ``sites`` on ``site``: the 40-row view ``m_sites``."""
    server = make_server()
    sites = TableSchema(
        "sites",
        (Column("site", IntType()), Column("zone", IntType())),
        key="site",
    )
    server.create_table(sites, [(i, i * 10) for i in range(3)])
    server.create_join_view("m_sites", "m", "sites", "site", "site")
    return server


class TestInsertAtomicity:
    def test_blocked_secondary_index_aborts_whole_insert(self):
        server = make_server()
        index = server.create_secondary_index("m", "temp", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        blocker = block_root(server, index)
        before = snapshot_state(server, ["m", index])
        rows_before = len(server.vbtrees["m"])

        with pytest.raises(LockError):
            server.insert("m", (9001, 99, 1))

        # Base table, base tree, index tree, and both logs: untouched.
        assert len(server.vbtrees["m"]) == rows_before
        assert snapshot_state(server, ["m", index]) == before
        server.vbtrees["m"].audit()
        server.vbtrees[index].audit()

        blocker.commit()
        server.insert("m", (9001, 99, 1))
        assert server.staleness(edge, "m") == 0
        assert server.staleness(edge, index) == 0
        resp = edge.secondary_range_query("m", "temp", low=99, high=99)
        assert len(resp.result.rows) == 1
        assert client.verify(resp).ok
        edge.replica("m").audit()
        edge.replica(index).audit()

    def test_blocked_join_view_aborts_whole_insert(self):
        server = make_view_server()
        edge = server.spawn_edge_server("e1")
        client = server.make_client()
        blocker = block_root(server, "m_sites")
        before = snapshot_state(server, ["m", "m_sites"])
        view_rows = len(server.vbtrees["m_sites"])

        with pytest.raises(LockError):
            server.insert("m", (9001, 99, 1))  # joins site 1 -> view insert

        assert snapshot_state(server, ["m", "m_sites"]) == before
        assert len(server.vbtrees["m_sites"]) == view_rows
        server.vbtrees["m"].audit()
        server.vbtrees["m_sites"].audit()

        blocker.commit()
        server.insert("m", (9001, 99, 1))
        resp = edge.range_query("m_sites")
        assert client.verify(resp).ok
        assert len(resp.result.rows) == view_rows + 1

    def test_unencodable_value_refused_before_any_mutation(self):
        """A lone surrogate has no UTF-8 (so no canonical) encoding: the
        insert is refused with a library error while the row is still
        being validated — tree, log and replica untouched."""
        from repro.exceptions import ReproError, TypeMismatchError
        from repro.workloads.generator import TableSpec, generate_table

        server = CentralServer(db_name=DB, rsa_bits=512, seed=61)
        schema, rows = generate_table(TableSpec(name="t", rows=20, columns=3, seed=2))
        server.create_table(schema, rows)
        edge = server.spawn_edge_server("e")
        before = snapshot_state(server, ["t"])
        replica = edge.replica("t")
        held = (replica.version, len(replica), edge.replica_lsns.get("t", 0))
        with pytest.raises(TypeMismatchError, match="UTF-8") as raised:
            server.insert("t", (1000, "\ud800", "x"))
        assert isinstance(raised.value, ReproError)
        assert snapshot_state(server, ["t"]) == before
        assert server.vbtrees["t"].version == 0 and before["t"][2] == 0
        server.propagate()
        replica = edge.replica("t")
        assert (replica.version, len(replica), edge.replica_lsns.get("t", 0)) == held
        assert 1000 not in replica.tree

    def test_duplicate_key_rejected_before_any_mutation(self):
        from repro.exceptions import DuplicateKeyError

        server = make_server()
        index = server.create_secondary_index("m", "temp", fanout_override=6)
        before = snapshot_state(server, ["m", index])
        with pytest.raises(DuplicateKeyError):
            server.insert("m", (10, 1, 1))
        assert snapshot_state(server, ["m", index]) == before
        assert server.txn_manager.active_count() == 0


class TestDeleteAtomicity:
    def test_blocked_secondary_index_aborts_whole_delete(self):
        server = make_server()
        index = server.create_secondary_index("m", "temp", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        blocker = block_root(server, index)
        before = snapshot_state(server, ["m", index])

        with pytest.raises(LockError):
            server.delete("m", 10)

        assert snapshot_state(server, ["m", index]) == before
        assert 10 in server.vbtrees["m"].tree
        server.vbtrees["m"].audit()
        server.vbtrees[index].audit()

        blocker.commit()
        server.delete("m", 10)
        assert server.staleness(edge, "m") == 0
        assert server.staleness(edge, index) == 0
        edge.replica("m").audit()
        edge.replica(index).audit()

    def test_no_dangling_transactions_after_aborts(self):
        server = make_server()
        index = server.create_secondary_index("m", "temp", fanout_override=6)
        blocker = block_root(server, index)
        for _ in range(3):
            with pytest.raises(LockError):
                server.insert("m", (9001, 99, 1))
            with pytest.raises(LockError):
                server.delete("m", 10)
        blocker.commit()
        assert server.txn_manager.active_count() == 0
        server.insert("m", (9001, 99, 1))
        server.delete("m", 10)


class TestOnlyBaseTablesAreWritten:
    """A join view or a secondary index changes only through its bases:
    naming one as a write (or index) target is refused before any lock
    is taken.  Accepted, a direct view write took the next ``view_id``
    the maintenance path would have used, so the next joining base
    insert failed with a duplicate key half-way through its commit; an
    index on a view was never maintained and served a verified but
    incomplete answer."""

    TREES = ["m", "sites", "m_sites"]

    def test_view_refuses_insert_and_delete(self):
        server = make_view_server()
        index = server.create_secondary_index("m", "temp", fanout_override=6)
        edge = server.spawn_edge_server("e1")
        before = snapshot_state(server, [*self.TREES, index])
        with pytest.raises(SchemaError):
            server.insert("m_sites", (40, 999, 1, 1, 1, 10))
        with pytest.raises(SchemaError):
            server.delete("m_sites", 0)
        with pytest.raises(SchemaError):
            server.insert(index, ((99, 9001), 9001, 99, 1))
        with pytest.raises(SchemaError):
            server.delete(index, (15, 0))
        assert snapshot_state(server, [*self.TREES, index]) == before
        assert server.txn_manager.active_count() == 0

        # The joining base insert the accepted view write used to break.
        server.insert("m", (9001, 99, 1))
        assert server.staleness(edge, "m") == 0
        resp = edge.range_query("m_sites")
        assert server.make_client().verify(resp).ok
        assert len(resp.result.rows) == 41

    def test_sql_insert_and_delete_on_a_view_are_refused(self):
        server = make_view_server()
        session = Session(server)
        before = snapshot_state(server, self.TREES)
        with pytest.raises(SchemaError):
            session.execute("INSERT INTO m_sites VALUES (40, 999, 1, 1, 1, 10)")
        with pytest.raises(SchemaError):
            session.execute("DELETE FROM m_sites WHERE view_id = 0")
        with pytest.raises(SchemaError):
            session.execute("DELETE FROM m_sites WHERE view_id = 999")
        assert snapshot_state(server, self.TREES) == before
        assert session.execute("DELETE FROM m WHERE id = 1") == 1

    def test_secondary_index_on_a_view_is_refused(self):
        server = make_view_server()
        before = set(server.vbtrees)
        with pytest.raises(SchemaError):
            server.create_secondary_index("m_sites", "temp")
        assert set(server.vbtrees) == before
        edge = server.spawn_edge_server("e1")
        server.insert("m", (9001, 99, 1))
        assert server.staleness(edge, "m_sites") == 0
        assert len(edge.range_query("m_sites").result.rows) == 41

    def test_a_view_is_no_base_of_another_view(self):
        server = make_view_server()
        with pytest.raises(SchemaError):
            server.create_join_view("v2", "m_sites", "m", "id", "id")
        assert "v2" not in server.vbtrees and "v2" not in server.catalog
