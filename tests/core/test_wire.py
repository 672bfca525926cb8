"""Tests for the wire format and byte accounting."""

import pytest

from repro.analysis.communication import vbtree_comm_cost_as_built
from repro.analysis.params import Parameters
from repro.core.query_auth import QueryAuthenticator
from repro.core.vo import VOFormat
from repro.core.wire import result_from_bytes, result_to_bytes, wire_breakdown
from repro.db.expressions import Comparison
from repro.exceptions import VOFormatError

from tests.core.conftest import build_tree
from repro.core.digests import DigestPolicy


@pytest.fixture
def sig_len(keypair):
    return keypair.public.signature_len


class TestRoundtrip:
    def _roundtrip(self, result, sig_len):
        data = result_to_bytes(result, sig_len)
        parsed = result_from_bytes(data)
        assert parsed.table == result.table
        assert parsed.columns == result.columns
        assert parsed.all_columns == result.all_columns
        assert parsed.rows == result.rows
        assert parsed.keys == result.keys
        assert parsed.vo.format == result.vo.format
        assert parsed.vo.policy == result.vo.policy
        assert parsed.vo.top_signed == result.vo.top_signed
        assert parsed.vo.selection_entries == result.vo.selection_entries
        assert parsed.vo.projection_digests == result.vo.projection_digests
        assert parsed.vo.result_positions == result.vo.result_positions
        return data

    def test_range_query_roundtrip(self, authenticator, sig_len):
        result = authenticator.range_query(low=10, high=90)
        self._roundtrip(result, sig_len)

    def test_projection_roundtrip(self, authenticator, sig_len):
        result = authenticator.range_query(low=10, high=60, columns=("id", "name"))
        self._roundtrip(result, sig_len)

    def test_gappy_selection_roundtrip(self, authenticator, sig_len):
        result = authenticator.select(Comparison("price", "<", 40))
        self._roundtrip(result, sig_len)

    def test_empty_result_roundtrip(self, authenticator, sig_len):
        result = authenticator.range_query(low=21, high=21)
        self._roundtrip(result, sig_len)

    def test_parsed_result_still_verifies(self, authenticator, verifier, sig_len):
        result = authenticator.range_query(low=0, high=100, columns=("id", "price"))
        parsed = result_from_bytes(result_to_bytes(result, sig_len))
        assert verifier.verify(parsed).ok

    def test_trailing_garbage_rejected(self, authenticator, sig_len):
        data = result_to_bytes(authenticator.range_query(low=0, high=10), sig_len)
        with pytest.raises(VOFormatError):
            result_from_bytes(data + b"\x00")


class TestByteAccounting:
    def test_breakdown_sums_to_total(self, authenticator, sig_len):
        result = authenticator.range_query(low=0, high=150, columns=("id", "name"))
        b = wire_breakdown(result, sig_len)
        parts = (
            b["data"] + b["keys"] + b["dn"] + b["ds"] + b["dp"]
            + b["structure"] + b["header"]
        )
        assert parts == b["total"]
        assert b["total"] == len(result_to_bytes(result, sig_len))

    def test_vo_grows_linearly_with_projection(self, authenticator, sig_len):
        full = authenticator.range_query(low=0, high=100)
        projected = authenticator.range_query(low=0, high=100, columns=("id",))
        b_full = wire_breakdown(full, sig_len)
        b_proj = wire_breakdown(projected, sig_len)
        # The bare block: 16 B per hidden attribute per row, no tags.
        assert b_proj["dp"] == len(projected.rows) * 3 * 16
        assert b_full["dp"] == 0
        # ... which is the as-built formula (9), at |D| a signed digest.
        params = Parameters(
            digest_len=sig_len + 2, num_rows=len(projected.rows), num_cols=4
        )
        assert b_proj["dp"] == vbtree_comm_cost_as_built(
            params.with_(query_cols=1), 1.0
        ).dp_bytes
        assert vbtree_comm_cost_as_built(params.with_(query_cols=4), 1.0).dp_bytes == 0
        # Projection trades data bytes for digest bytes.
        assert b_proj["data"] < b_full["data"]

    def test_flat_smaller_than_structured(self, schema, keypair, sig_len):
        """The paper's set-only encoding is never larger than the
        position-tagged one."""
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=80)
        auth = QueryAuthenticator(tree)
        flat = auth.range_query(low=0, high=100, vo_format=VOFormat.FLAT_SET)
        structured = auth.range_query(
            low=0, high=100, vo_format=VOFormat.STRUCTURED
        )
        assert len(result_to_bytes(flat, sig_len)) <= len(
            result_to_bytes(structured, sig_len)
        )

    def test_vo_bytes_independent_of_table_size(self, schema, keypair, sig_len):
        small = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=5, n=100)
        large = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=5, n=800)
        r_small = QueryAuthenticator(small).range_query(low=20, high=60)
        r_large = QueryAuthenticator(large).range_query(low=20, high=60)
        b_small = wire_breakdown(r_small, sig_len)
        b_large = wire_breakdown(r_large, sig_len)
        vo_small = b_small["dn"] + b_small["ds"] + b_small["dp"]
        vo_large = b_large["dn"] + b_large["ds"] + b_large["dp"]
        # Same result rows; VO digest bytes within a small constant factor.
        assert vo_large <= 3 * vo_small
