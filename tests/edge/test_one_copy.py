"""The central holds each row once: in the VB-tree.

``repro.db.table.Table`` is the plain relational table (kept for the
executor and its tests); the central server builds none — a base
table's VB-tree is the only copy of its rows, and a join view's rows
live only in the view's VB-tree.  Every path through the central plane
below runs with ``Table`` made unconstructible."""

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import IntType
from repro.edge.central import CentralServer
from repro.edge.sharding import ShardedCentral
from repro.edge.transport import secondary_query_frame
from repro.sql import Session
from repro.workloads.generator import TableSpec, generate_table


@pytest.fixture(autouse=True)
def no_table(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the central plane built a db.Table")

    monkeypatch.setattr(Table, "__init__", refuse)


def test_guard_fires():
    schema = TableSchema("t", (Column("k", IntType()),), key="k")
    with pytest.raises(AssertionError, match="db.Table"):
        Table(schema)


def test_central_paths_build_no_table():
    server = CentralServer(db_name="onecopy", rsa_bits=512, seed=3)
    m = TableSchema(
        "m",
        (Column("id", IntType()), Column("temp", IntType()),
         Column("site", IntType())),
        key="id",
    )
    sites = TableSchema(
        "sites", (Column("site", IntType()), Column("zone", IntType())), key="site"
    )
    rows = [(i, 15 + i % 20, i % 3) for i in range(40)]
    vbt = server.create_table(m, rows, fanout_override=6)
    assert vbt is server.vbtrees["m"] and len(vbt) == 40
    server.create_table(sites, [(i, i * 10) for i in range(3)])
    index = server.create_secondary_index("m", "temp", fanout_override=6)
    server.create_join_view("m_sites", "m", "sites", "site", "site")
    edge = server.spawn_edge_server("e1")
    client = server.make_client()

    server.insert("m", (9001, 99, 1))
    server.insert("sites", (3, 30))
    server.insert("m", (9002, 98, 3))
    server.delete("m", 10)
    server.delete("sites", 0)
    server.rotate_key()
    server.keyring.tick()
    server.insert("m", (9003, 97, 2))

    for name in ("m", "sites", index, "m_sites"):
        assert server.staleness(edge, name) == 0
        server.vbtrees[name].audit()
        edge.replica(name).audit()
    view = edge.range_query("m_sites")
    assert client.verify(view).ok
    assert {r[1] for r in view.result.rows} >= {9001, 9002, 9003}
    assert 10 not in {r[1] for r in view.result.rows}
    by_temp = edge.query(secondary_query_frame("m", "temp", low=97, high=99))
    assert client.verify(by_temp).ok and len(by_temp.result.rows) == 3


def test_sharded_range_table_builds_no_table():
    central = ShardedCentral("onecopy", shards=2, seed=5, rsa_bits=512)
    schema, rows = generate_table(TableSpec(name="items", rows=24, columns=3, seed=2))
    central.create_table(schema, rows, partition="range", fanout_override=6)
    central.insert("items", (9001, "a", "b"))
    central.delete("items", 0)
    assert central.total_rows("items") == 24


def test_sql_session_builds_no_table():
    central = CentralServer(db_name="onecopy", rsa_bits=512, seed=4)
    session = Session(central)
    session.execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
    assert session.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)") == 4
    assert session.execute("DELETE FROM t WHERE id BETWEEN 2 AND 3") == 2
    assert session.execute("DELETE FROM t WHERE v = 40") == 1
    assert session.query("SELECT v FROM t").rows == [(10,)]
