"""Tests for replica deltas: emission, wire round-trip, apply, coalesce."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import (
    DeltaOpKind,
    NodeDigestUpdate,
    ReplicaDelta,
    TupleOp,
    apply_delta,
    coalesce,
    delta_digest,
)
from repro.core.digests import DigestPolicy
from repro.core.update import AuthenticatedUpdater
from repro.core.wire import delta_body_bytes, delta_from_bytes, delta_to_bytes
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.db.rows import Row
from repro.exceptions import EncodingError, ReplicaDeltaError

from tests.core.conftest import build_tree, make_rows, seal_delta


@pytest.fixture
def tree(schema, keypair, policy):
    return build_tree(schema, keypair, policy, fanout=4, n=60)


@pytest.fixture
def updater(tree):
    return AuthenticatedUpdater(tree)


def make_row(schema, key):
    return Row(schema, (key, f"item-{key}", (key * 7) % 100, (key * 3) % 50))


class TestEmission:
    def test_insert_emits_delta_covering_path(self, tree, updater, schema):
        updater.insert(make_row(schema, 1001))
        delta = updater.take_delta()
        assert delta is not None
        assert delta.table == tree.table_name
        assert delta.base_version == tree.version - 1
        assert delta.new_version == tree.version
        assert len(delta.ops) == 1
        assert delta.ops[0].kind is DeltaOpKind.INSERT
        # The root's digest changes on every mutation, so the root must
        # always be among the node updates.
        root_id = tree.tree.root.node_id
        assert root_id in {u.node_id for u in delta.node_updates}
        # Node updates match the tree's current (signed) digest state.
        for update in delta.node_updates:
            assert tree._node_auth[update.node_id] == update.signed

    def test_take_delta_pops(self, updater, schema):
        updater.insert(make_row(schema, 1003))
        assert updater.take_delta() is not None
        assert updater.take_delta() is None

    def test_delete_emits_delta(self, tree, updater):
        updater.delete(10)
        delta = updater.take_delta()
        assert delta.ops[0].kind is DeltaOpKind.DELETE
        assert delta.ops[0].key == 10

    def test_structural_insert_marks_structural(self, tree, updater, schema):
        # fanout 4: enough consecutive inserts force a split somewhere.
        structural = []
        for key in range(2001, 2031):
            updater.insert(make_row(schema, key))
            structural.append(updater.take_delta().structural)
        assert any(structural)

    def test_delete_to_empty_records_freed_nodes(self, schema, keypair, policy):
        small = build_tree(schema, keypair, policy, fanout=4, n=8)
        upd = AuthenticatedUpdater(small)
        freed = []
        for row in list(small.rows()):
            upd.delete(row.key)
            freed.extend(upd.take_delta().freed_nodes)
        assert freed  # lazy deletes eventually empty nodes


class TestWireRoundTrip:
    def test_round_trip_insert(self, tree, updater, schema, keypair):
        sig_len = keypair.public.signature_len
        updater.insert(make_row(schema, 1001))
        delta = seal_delta(updater.take_delta(), keypair)
        payload = delta_to_bytes(delta, sig_len)
        parsed = delta_from_bytes(payload)
        assert parsed == delta
        # Canonical: re-serializing the parsed body reproduces the bytes
        # the signature was computed over.
        assert delta_body_bytes(parsed, sig_len) == delta_body_bytes(
            delta, sig_len
        )

    def test_round_trip_delete_composite_key(self, tree, updater, keypair):
        from dataclasses import replace

        sig_len = keypair.public.signature_len
        updater.delete(10)
        delta = updater.take_delta()
        # Secondary VB-trees delete by composite (attribute, key) tuples.
        composite = replace(
            delta, ops=(TupleOp.delete((7, "x", 10)),)
        )
        composite = seal_delta(composite, keypair)
        parsed = delta_from_bytes(delta_to_bytes(composite, sig_len))
        assert parsed.ops[0].key == (7, "x", 10)

    def test_unsigned_delta_refuses_to_serialize(self, updater, schema, keypair):
        updater.insert(make_row(schema, 1001))
        with pytest.raises(ReplicaDeltaError):
            delta_to_bytes(updater.take_delta(), keypair.public.signature_len)

    def test_signature_verifies_over_body(self, updater, schema, keypair):
        sig_len = keypair.public.signature_len
        updater.insert(make_row(schema, 1001))
        delta = seal_delta(updater.take_delta(), keypair)
        verifier = DigestVerifier(keypair.public)
        body = delta_body_bytes(delta, sig_len)
        assert verifier.verify_value(delta.signature, delta_digest(body))


# Arbitrary deltas: every value type the canonical encoding supports
# (ints far outside 64 bits included), scalar and composite delete keys.
_SIG_LEN = 8
_U32S = st.integers(0, 0xFFFFFFFF)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**200, -(2**200), 0, -1, 255, 256, -128, -129]),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_SIGNED = st.binary(min_size=_SIG_LEN + 2, max_size=_SIG_LEN + 2).map(SignedDigest)
_INSERTS = st.builds(
    TupleOp,
    kind=st.just(DeltaOpKind.INSERT),
    values=st.lists(_SCALARS, max_size=5).map(tuple),
    signed_tuple=_SIGNED,
)
_DELETES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3).map(tuple)).map(
    TupleOp.delete
)
_DELTAS = st.builds(
    ReplicaDelta,
    table=st.text(max_size=10),
    lsn_first=_U32S,
    lsn_last=_U32S,
    epoch=_U32S,
    base_version=_U32S,
    new_version=_U32S,
    structural=st.booleans(),
    ops=st.lists(st.one_of(_INSERTS, _DELETES), max_size=6).map(tuple),
    node_updates=st.lists(
        st.builds(NodeDigestUpdate, _U32S, _SIGNED),
        max_size=4,
    ).map(tuple),
    freed_nodes=st.lists(_U32S, max_size=4).map(tuple),
    signature=_SIGNED,
)


class TestWireProperties:
    @given(_DELTAS)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_and_reencode_identity(self, delta):
        payload = delta_to_bytes(delta, _SIG_LEN)
        parsed = delta_from_bytes(payload)
        assert parsed == delta
        assert delta_to_bytes(parsed, _SIG_LEN) == payload
        assert delta_body_bytes(parsed, _SIG_LEN) == payload[: -(_SIG_LEN + 2)]

    @given(_DELTAS, st.integers(0, 10**9), st.integers(1, 255))
    @settings(max_examples=300, deadline=None)
    def test_corruption_parses_or_fails_closed(self, delta, position, xor):
        """Any one corrupted byte, and any cut: a parse or an
        ``EncodingError`` — no other exception type reaches the caller
        (which authenticates whatever does parse)."""
        payload = bytearray(delta_to_bytes(delta, _SIG_LEN))
        position %= len(payload)
        payload[position] ^= xor
        for data in (bytes(payload), bytes(payload[:position])):
            try:
                delta_from_bytes(data)
            except EncodingError:
                pass


class TestApply:
    def test_apply_tracks_central(self, tree, updater, schema):
        replica = tree.clone()
        deltas = []
        for key in (1001, 1003, 1005):
            updater.insert(make_row(schema, key))
            deltas.append(updater.take_delta())
        updater.delete(10)
        deltas.append(updater.take_delta())
        for delta in deltas:
            apply_delta(replica, delta)
        assert replica.version == tree.version
        assert [r.key for r in replica.rows()] == [r.key for r in tree.rows()]
        replica.audit()  # digests on the replica are the signed originals

    def test_apply_replays_structural_changes(self, tree, updater, schema):
        replica = tree.clone()
        for key in range(3001, 3061):  # forces splits at fanout 4
            updater.insert(make_row(schema, key))
            apply_delta(replica, updater.take_delta())
        replica.tree.validate()
        replica.audit()
        assert replica.tree.node_count() == tree.tree.node_count()

    def test_apply_wrong_version_rejected(self, tree, updater, schema):
        replica = tree.clone()
        updater.insert(make_row(schema, 1001))
        first = updater.take_delta()
        updater.insert(make_row(schema, 1003))
        second = updater.take_delta()
        with pytest.raises(ReplicaDeltaError):
            apply_delta(replica, second)  # skipped `first`
        apply_delta(replica, first)
        apply_delta(replica, second)
        replica.audit()

    def test_apply_twice_rejected(self, tree, updater, schema):
        replica = tree.clone()
        updater.insert(make_row(schema, 1001))
        delta = updater.take_delta()
        apply_delta(replica, delta)
        with pytest.raises(ReplicaDeltaError):
            apply_delta(replica, delta)


class TestCoalesce:
    def _seq(self, updater, schema, keys, lsn_start=1):
        from dataclasses import replace

        deltas = []
        for i, key in enumerate(keys):
            updater.insert(make_row(schema, key))
            deltas.append(
                replace(
                    updater.take_delta(),
                    lsn_first=lsn_start + i,
                    lsn_last=lsn_start + i,
                )
            )
        return deltas

    def test_coalesced_apply_equals_sequential(self, tree, updater, schema):
        sequential = tree.clone()
        batched = tree.clone()
        deltas = self._seq(updater, schema, range(4001, 4041))
        for delta in deltas:
            apply_delta(sequential, delta)
        batch = coalesce(deltas)
        assert batch.lsn_first == 1 and batch.lsn_last == 40
        apply_delta(batched, batch)
        batched.audit()
        assert [r.key for r in batched.rows()] == [
            r.key for r in sequential.rows()
        ]
        assert batched.version == sequential.version

    def test_coalesce_drops_superseded_node_digests(
        self, tree, updater, schema
    ):
        deltas = self._seq(updater, schema, (5001, 5003, 5005))
        total = sum(len(d.node_updates) for d in deltas)
        batch = coalesce(deltas)
        # Root (at least) was re-signed by every mutation; only the last
        # signature survives the batch.
        assert len(batch.node_updates) < total

    def test_coalesce_rejects_gap(self, tree, updater, schema):
        deltas = self._seq(updater, schema, (6001, 6003))
        with pytest.raises(ReplicaDeltaError):
            coalesce([deltas[0], deltas[1], deltas[1]])

    def test_coalesce_rejects_empty(self):
        with pytest.raises(ReplicaDeltaError):
            coalesce([])
