"""Tests for the package-level quickstart API and BLOB projection —
the paper's motivating access-control/efficiency case ("wasteful data
transfers especially if the filtered attributes are BLOBs")."""

import pytest

from repro import quick_setup
from repro.core.wire import wire_breakdown
from repro.db.schema import Column, TableSchema
from repro.db.types import BlobType, IntType, VarcharType
from repro.edge.central import CentralServer


class TestQuickSetup:
    def test_returns_working_trio(self):
        central, edge, client = quick_setup(rows=100, rsa_bits=512, seed=3)
        resp = edge.range_query("items", low=0, high=10)
        assert len(resp.result.rows) == 11
        assert client.verify(resp).ok

    def test_configurable_shape(self):
        central, edge, _client = quick_setup(
            rows=50, columns=4, rsa_bits=512, seed=4, table_name="demo"
        )
        assert "demo" in central.vbtrees
        assert central.vbtrees["demo"].schema.num_columns == 4
        assert len(central.vbtrees["demo"]) == 50

    def test_deterministic_across_calls(self):
        c1, e1, _ = quick_setup(rows=20, rsa_bits=512, seed=5)
        c2, e2, _ = quick_setup(rows=20, rsa_bits=512, seed=5)
        r1 = e1.range_query("items", 0, 19).result.rows
        r2 = e2.range_query("items", 0, 19).result.rows
        assert r1 == r2


class TestBlobProjection:
    """Filtered BLOBs never leave the edge: only their signed digests
    ship, so (a) bandwidth is saved and (b) clients that project a BLOB
    away can still verify — the access-control point of Section 2."""

    @pytest.fixture
    def blob_deployment(self):
        central = CentralServer(db_name="blobdb", rsa_bits=512, seed=9)
        schema = TableSchema(
            "media",
            (
                Column("id", IntType()),
                Column("title", VarcharType(capacity=20)),
                Column("payload", BlobType(capacity=4096)),
            ),
            key="id",
        )
        rows = [
            (i, f"clip-{i}", bytes([i % 256]) * 2000) for i in range(50)
        ]
        central.create_table(schema, rows, fanout_override=8)
        edge = central.spawn_edge_server("blob-edge")
        return central, edge, central.make_client()

    def test_projected_blob_not_shipped(self, blob_deployment):
        central, edge, client = blob_deployment
        full = edge.range_query("media", low=0, high=20)
        slim = edge.range_query("media", low=0, high=20, columns=("id", "title"))
        assert client.verify(slim).ok
        # 21 blobs x 2000 bytes stay at the edge.
        assert full.wire_bytes - slim.wire_bytes > 21 * 1500
        assert all(
            not isinstance(v, (bytes, bytearray))
            for row in slim.result.rows
            for v in row
        )

    def test_blob_values_verify_when_shipped(self, blob_deployment):
        _central, edge, client = blob_deployment
        full = edge.range_query("media", low=5, high=8)
        assert client.verify(full).ok

    def test_tampered_blob_detected(self, blob_deployment):
        _central, edge, client = blob_deployment
        resp = edge.range_query("media", low=5, high=8)
        row = list(resp.result.rows[0])
        row[2] = b"X" + row[2][1:]
        resp.result.rows[0] = tuple(row)
        assert not client.verify(resp).ok

    def test_blob_digests_in_dp(self, blob_deployment):
        central, edge, _client = blob_deployment
        slim = edge.range_query("media", low=0, high=9, columns=("id",))
        breakdown = wire_breakdown(
            slim.result, central.public_key.signature_len
        )
        # D_P: 10 rows x 2 filtered columns, one bare 16-byte digest each.
        assert breakdown["dp"] == len(slim.result.vo.projection_digests) == 20 * 16
