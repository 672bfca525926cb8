"""End-to-end edge-computing simulation tests (Figure 2 deployment)."""

import pytest

from repro.db.expressions import Comparison
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.router import in_process_query_channel
from repro.edge.transport import (
    frame_to_bytes,
    range_query_frame,
    select_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table

DB = "edgedb"


@pytest.fixture(scope="module")
def central():
    server = CentralServer(db_name=DB, rsa_bits=512, seed=11)
    spec = TableSpec(name="items", rows=200, columns=6, seed=3)
    schema, rows = generate_table(spec)
    server.create_table(schema, rows, fanout_override=8)
    return server


@pytest.fixture
def edge(central):
    # Spawning the name again replaces the previous test's edge.
    return central.spawn_edge_server("edge-test")


@pytest.fixture
def client(central):
    return central.make_client()


class TestQueryFlow:
    def test_range_query_verifies(self, edge, client):
        resp = edge.range_query("items", low=10, high=60)
        assert len(resp.result.rows) == 51
        assert client.verify(resp).ok
        assert resp.wire_bytes > 0

    def test_projection_verifies(self, edge, client):
        resp = edge.range_query("items", low=0, high=40, columns=("id", "a1"))
        assert resp.result.columns == ("id", "a1")
        assert client.verify(resp).ok

    def test_nonkey_select_verifies(self, edge, client):
        resp = edge.query(select_query_frame("items", Comparison("id", ">=", 150)))
        assert client.verify(resp).ok

    def test_io_accounting(self, edge):
        edge.range_query("items", low=5, high=6)
        assert edge.io_reads_last_query >= 1

    def test_channel_accumulates(self, edge):
        """Response bytes are counted once, by the query link's up
        channel (the edge keeps no ledger of its own)."""
        link = in_process_query_channel(edge).transport
        before = link.up_channel.total_bytes
        reply = link.request(range_query_frame("items", low=0, high=100))
        assert link.up_channel.total_bytes - before == len(frame_to_bytes(reply))

    def test_replica_holds_the_as_built_storage_overhead(self, central, edge):
        """One signed digest per tuple is all the authentication a
        replica keeps per row: ``N_r |D|`` where the paper's Section 4.1
        has ``N_r N_c |D|``."""
        from repro.analysis.params import Parameters
        from repro.analysis.storage import storage_costs

        replica = edge.replica("items")
        sig_len = central.public_key.signature_len
        held = sum(
            len(replica.tuple_auth(row.key))
            for row in replica.rows()
        )
        costs = storage_costs(
            Parameters(digest_len=sig_len + 2, num_rows=len(replica), num_cols=6)
        )
        assert held == costs.tuple_digest_overhead
        assert held * 6 == costs.table_digest_overhead

    def test_naive_baseline_verifies_beside_the_fabric(self, central, edge):
        """The Naive scheme is no part of an edge any more: the
        comparison builds a ``NaiveStore`` from the central signing
        engine and serves it the rows a replica holds."""
        from repro.baselines.naive import NaiveStore, NaiveVerifier
        from repro.core.digests import DigestEngine

        vbt = central.vbtrees["items"]
        store = NaiveStore.build(vbt.schema, vbt.rows(), central.signing_engine())
        rows = [r for _k, r in edge.replica("items").tree.range_items(10, 40)]
        result = store.build_result(rows)
        assert len(result.rows) == 31
        verifier = NaiveVerifier(DigestEngine(DB), keyring=central.keyring)
        assert verifier.verify(result)
        assert result.wire_size(central.public_key.signature_len) > 0

    @pytest.mark.parametrize("columns", [None, ("id", "a2")])
    def test_naive_baseline_follows_the_replica_through_deltas(self, columns):
        """An insert and a delete in: the store, maintained beside the
        central table, serves the rows the edge now holds, and what it
        ships is the appendix's — one tuple signature per row plus one
        per hidden attribute, ``wire_size`` to the byte."""
        from repro.baselines.naive import NaiveStore, NaiveVerifier
        from repro.core.digests import DigestEngine

        server = CentralServer(db_name=DB, rsa_bits=512, seed=12)
        schema, rows = generate_table(
            TableSpec(name="items", rows=60, columns=4, seed=3)
        )
        table = server.create_table(schema, rows, fanout_override=4)
        edge = server.spawn_edge_server("edge-naive")
        store = NaiveStore.build(schema, table.rows(), server.signing_engine())
        server.insert("items", (9001, "a", "b", "c"))
        store.add(table.get_row(9001))
        server.delete("items", 25)
        store.remove(25)
        held = [
            r for _k, r in edge.replica("items").tree.range_items(low=10, high=9001)
        ]
        result = store.build_result(held, columns)
        assert len(result.rows) == 50 and 25 not in result.keys
        assert NaiveVerifier(DigestEngine(DB), keyring=server.keyring).verify(result)
        hidden = 0 if columns is None else 2
        sig_len = server.public_key.signature_len
        assert all(len(sigs) == hidden for sigs in result.filtered_attr_digests)
        # wire_size is linear in the signature width: the slope is the
        # number of signatures shipped.
        assert result.wire_size(sig_len) - result.wire_size(0) == (
            50 * (1 + hidden) * sig_len
        )

    def test_missing_replica_raises(self, central, edge):
        from repro.exceptions import ReplicationError

        with pytest.raises(ReplicationError):
            edge.replica("ghost")

    def test_client_cost_snapshot(self, edge, client):
        client.verify(edge.range_query("items", low=0, high=20))
        snap = client.cost_snapshot()
        assert snap["hashes"] > 0
        assert snap["verifies"] > 0


class TestUpdatesAndReplication:
    def test_insert_propagates_eagerly(self, central, client):
        edge = central.spawn_edge_server("edge-ins")
        central.insert("items", (5000, *["x" * 3] * 5))
        resp = edge.range_query("items", low=5000, high=5000)
        assert len(resp.result.rows) == 1
        assert client.verify(resp).ok

    def test_delete_propagates_eagerly(self, central, client):
        central.insert("items", (6000, *["y" * 3] * 5))
        edge = central.spawn_edge_server("edge-del")
        central.delete("items", 6000)
        resp = edge.range_query("items", low=6000, high=6000)
        assert resp.result.rows == []
        assert client.verify(resp).ok

    def test_lazy_replication_staleness(self):
        server = CentralServer(
            db_name="lazydb",
            rsa_bits=512,
            seed=5,
            replication=ReplicationMode.LAZY,
        )
        schema, rows = generate_table(TableSpec(name="t", rows=50, columns=4))
        server.create_table(schema, rows, fanout_override=6)
        edge = server.spawn_edge_server("lazy-edge")
        server.insert("t", (900, "a", "b", "c"))
        assert server.staleness(edge, "t") == 1
        server.propagate()
        assert server.staleness(edge, "t") == 0
        resp = edge.range_query("t", low=900, high=900)
        assert len(resp.result.rows) == 1

    def test_join_view_queries_verify(self, client):
        server = CentralServer(db_name=DB, rsa_bits=512, seed=11)
        from repro.db.schema import Column, TableSchema
        from repro.db.types import IntType, VarcharType

        orders = TableSchema(
            "orders",
            (
                Column("oid", IntType()),
                Column("cust", IntType()),
                Column("amt", IntType()),
            ),
            key="oid",
        )
        customers = TableSchema(
            "customers",
            (Column("cust", IntType()), Column("name", VarcharType(capacity=10))),
            key="cust",
        )
        server.create_table(orders, [(i, i % 5, i * 10) for i in range(30)])
        server.create_table(customers, [(i, f"c{i}") for i in range(5)])
        server.create_join_view("order_cust", "orders", "customers", "cust", "cust")
        edge = server.spawn_edge_server("edge-join")
        view_client = server.make_client()
        resp = edge.range_query("order_cust", low=0, high=10)
        assert len(resp.result.rows) == 11
        assert view_client.verify(resp).ok

    def test_view_maintained_on_base_insert(self):
        server = CentralServer(db_name="viewdb", rsa_bits=512, seed=2)
        from repro.db.schema import Column, TableSchema
        from repro.db.types import IntType

        a = TableSchema(
            "a", (Column("k", IntType()), Column("x", IntType())), key="k"
        )
        b = TableSchema(
            "b", (Column("k2", IntType()), Column("y", IntType())), key="k2"
        )
        server.create_table(a, [(1, 10), (2, 20)])
        server.create_table(b, [(1, 100), (2, 200)])
        server.create_join_view("ab", "a", "b", "k", "k2")
        edge = server.spawn_edge_server("e")
        client = server.make_client()
        server.insert("a", (3, 30))
        server.insert("b", (3, 300))
        resp = edge.range_query("ab")
        # After both inserts the view has 3 join rows... plus the new pair.
        assert client.verify(resp).ok
        joined_keys = {tuple(r[:1]) for r in resp.result.rows}
        assert len(resp.result.rows) >= 3
