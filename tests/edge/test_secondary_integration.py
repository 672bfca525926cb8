"""Integration tests: secondary VB-trees through the full deployment."""

import pytest

from repro.db.expressions import between
from repro.edge.central import CentralServer
from repro.edge.transport import secondary_query_frame, select_query_frame
from repro.exceptions import ReplicationError, SchemaError
from repro.workloads.generator import TableSpec, generate_table


@pytest.fixture
def deployment():
    central = CentralServer(db_name="secdb", rsa_bits=512, seed=61)
    from repro.db.schema import Column, TableSchema
    from repro.db.types import IntType

    schema = TableSchema(
        "m",
        (
            Column("id", IntType()),
            Column("temp", IntType()),
            Column("site", IntType()),
        ),
        key="id",
    )
    rows = [(i, (i * 37) % 100, i % 5) for i in range(150)]
    central.create_table(schema, rows, fanout_override=6)
    central.create_secondary_index("m", "temp", fanout_override=6)
    edge = central.spawn_edge_server("sec-edge")
    client = central.make_client()
    return central, edge, client


class TestSecondaryThroughDeployment:
    def test_secondary_query_verifies(self, deployment):
        _central, edge, client = deployment
        resp = edge.query(secondary_query_frame("m", "temp", low=20, high=40))
        assert resp.result.rows
        assert all(20 <= r[1] <= 40 for r in resp.result.rows)
        assert client.verify(resp).ok

    def test_matches_primary_tree_selection(self, deployment):
        _central, edge, client = deployment
        via_secondary = edge.query(secondary_query_frame("m", "temp", low=10, high=30))
        via_primary = edge.query(select_query_frame("m", between("temp", 10, 30)))
        assert sorted(via_secondary.result.keys) == sorted(via_primary.result.keys)
        assert client.verify(via_secondary).ok
        assert client.verify(via_primary).ok

    def test_secondary_vo_smaller(self, deployment):
        _central, edge, _client = deployment
        via_secondary = edge.query(secondary_query_frame("m", "temp", low=10, high=30))
        via_primary = edge.query(select_query_frame("m", between("temp", 10, 30)))
        assert (
            via_secondary.result.vo.num_selection_digests
            < via_primary.result.vo.num_selection_digests
        )
        assert via_secondary.wire_bytes < via_primary.wire_bytes

    def test_insert_maintains_secondary(self, deployment):
        central, edge, client = deployment
        central.insert("m", (9000, 25, 1))
        resp = edge.query(secondary_query_frame("m", "temp", low=25, high=25))
        assert 9000 in resp.result.keys
        assert client.verify(resp).ok
        central.vbtrees["m__by_temp"].audit()

    def test_delete_maintains_secondary(self, deployment):
        central, edge, client = deployment
        row = central.vbtrees["m"].get_row(10)
        central.delete("m", 10)
        resp = edge.query(
            secondary_query_frame("m", "temp", low=row["temp"], high=row["temp"])
        )
        assert 10 not in resp.result.keys
        assert client.verify(resp).ok
        central.vbtrees["m__by_temp"].audit()

    def test_duplicate_index_rejected(self, deployment):
        central, _edge, _client = deployment
        with pytest.raises(SchemaError):
            central.create_secondary_index("m", "temp")

    def test_missing_index_raises(self, deployment):
        _central, edge, _client = deployment
        with pytest.raises(ReplicationError):
            edge.query(secondary_query_frame("m", "site", low=0, high=1))

    def test_projection_on_secondary(self, deployment):
        _central, edge, client = deployment
        resp = edge.query(
            secondary_query_frame(
                "m", "temp", low=0, high=50, columns=("id", "temp")
            )
        )
        assert resp.result.columns == ("id", "temp")
        assert client.verify(resp).ok

    def test_key_rotation_rebuilds_secondary(self, deployment):
        central, edge, client = deployment
        central.rotate_key(seed=62)
        resp = edge.query(secondary_query_frame("m", "temp", low=20, high=40))
        assert client.verify(resp).ok
        central.vbtrees["m__by_temp"].audit()


def test_a_key_predicate_on_an_index_is_a_verified_scan():
    """A select frame addressed to an index tree may name any column: a
    primary-key range there is a full scan of the index, answered and
    verified like any other select."""
    central = CentralServer(db_name="secdb", rsa_bits=512, seed=63)
    schema, rows = generate_table(TableSpec(name="t", rows=40, columns=3, seed=4))
    central.create_table(schema, rows)
    central.create_secondary_index("t", "a1")
    edge = central.spawn_edge_server("e")
    resp = edge.query(select_query_frame("t__by_a1", between("id", 1, 9)))
    assert central.make_client().verify(resp).ok
    assert set(resp.result.keys) == set(range(1, 10))
