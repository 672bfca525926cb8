"""Golden vectors for the result, delta and snapshot wire formats.

The result SHA-256 values below were taken from ``result_to_bytes``
*before* the one-pass codec replaced the slice-per-value one; a codec
may get faster, the bytes may not change.  The delta vectors were
frozen the same way (PR 16) and **re-frozen on purpose** when the
replication payloads stopped carrying unsigned digest values beside
their signatures (DESIGN.md §18): they were confirmed green at the
parent commit first, then replaced in the same commit as the codec,
with the first snapshot vectors beside them.  They moved once more,
the same way, when a node stopped carrying a second ("display")
signature (DESIGN.md §20): every delta and snapshot vector shrank by
exactly one signed digest per node record
(``test_refreeze_dropped_one_signature_per_node_record``), and the four
FLATTENED result vectors kept their lengths — only the bytes of the
``top_signed`` field changed, ``nested`` not at all.  The third move is
the tuple's (DESIGN.md §21): the tuple digest became a hash of the row,
so every digest value and with it every signature changed, each delta /
snapshot vector shrank by the ``attribute count | N_c signatures`` that
followed every ``signed_tuple``, each projected result by the signature
and tags that wrapped every hidden digest, and the two full-row result
vectors kept their length and — with the signature fields masked —
their bytes (``test_refreeze_left_one_signature_per_tuple``,
``test_full_row_results_are_the_parents_bytes_but_for_signature_values``).
The decoder regressions are the deterministic form of the
``test_wire_fuzz`` byte-flip flake: a corrupted count or a cut buffer
must surface as ``VOFormatError`` / ``EncodingError``, never
``IndexError``."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestPolicy
from repro.core.wire import (
    delta_body_bytes,
    delta_from_bytes,
    delta_to_bytes,
    result_from_bytes,
    result_to_bytes,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.exceptions import EncodingError, VOFormatError

from tests.core.conftest import (
    make_rows,
    make_signing,
    replica_signing,
    snapshot_node_count_offset,
)

#: name -> (wire length, SHA-256 of the wire bytes)
GOLDEN = {
    "full_row": (
        2365,
        "e93d7d628b30373d962036a39d21cfb59848e6aee085e0f716d03b3a51ac758e",
    ),
    "projected": (
        2332,
        "493ff9ec1cc135a157f4045b3d74b2e6b6f8fc102de20d53d124e84ec0e84ba1",
    ),
    "empty": (
        390,
        "129bb38e60c2d03b9ffe78be39af4f0793e2d1cc1eab1c20e30dc0e9d93a68d4",
    ),
    "structured": (
        3880,
        "639f2b7fca102e58bcf5d9b04a5c1828eb71cd1c8621c99bad93be838461bd38",
    ),
    "nested": (
        4128,
        "083d6b561035325d28a06de68bfc49136fd2b492e8c23154b88b6a4f077d7731",
    ),
}

#: Result lengths at the parent commit, where every hidden attribute was
#: a kind-tagged signed ``D_P`` entry (row and attribute tags too under
#: STRUCTURED).
SIGNED_DP_LENGTHS = {
    "full_row": 2365,
    "projected": 4984,
    "empty": 390,
    "structured": 8718,
    "nested": 8966,
}

#: SHA-256 of the two full-row vectors with every signature field
#: (``top_signed`` and each ``D_S`` entry) zeroed — computed at the
#: parent commit and at this one, and equal.
MASKED_FULL_ROW = {
    "full_row": "c26f15659516c55e61d6db0c26e49fec8c4e497014acd4a397b5d12c28a98798",
    "empty": "6ed9f9444bd6fc2a0ea5e95c72c90bf9f97ef46a99c37ee77740a83e8f55015e",
}

CLEAN = (VOFormatError, EncodingError)


def _inflated(data: bytes, counts: set):
    """``data`` with each 4-byte field that equals one of ``counts``
    bumped by one, then set to the maximum."""
    for offset in range(0, len(data) - 4):
        value = struct.unpack_from(">I", data, offset)[0]
        if value in counts:
            for forged in (value + 1, 0xFFFFFFFF):
                yield data[:offset] + struct.pack(">I", forged) + data[offset + 4 :]


@pytest.fixture(scope="module")
def sig_len(keypair):
    return keypair.public.signature_len


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenBytes:
    def test_bytes_frozen(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[name]

    def test_round_trip_is_identity(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        parsed = result_from_bytes(data)
        assert parsed == result
        assert result_to_bytes(parsed, sig_len) == data


def _ds_count_offset(data: bytes, result, sig_len: int) -> int:
    """Offset of the 4-byte ``D_S`` count: everything after it is
    entries of known width, so count back from the end."""
    vo = result.vo
    assert vo.result_positions is None  # FLAT_SET: fixed-width entries
    entry = 1 + sig_len + 2
    tail = 4 + entry * len(vo.selection_entries) + 4 + len(vo.projection_digests)
    offset = len(data) - tail
    assert struct.unpack_from(">I", data, offset)[0] == len(vo.selection_entries)
    return offset


@pytest.mark.parametrize("name", ["full_row", "projected", "empty"])
class TestDecoderBounds:
    def test_truncated_right_after_ds_count(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        cut = _ds_count_offset(data, result, sig_len) + 4
        with pytest.raises(CLEAN):
            result_from_bytes(data[:cut])

    def test_ds_count_inflated_by_one(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        offset = _ds_count_offset(data, result, sig_len)
        count = len(result.vo.selection_entries) + 1
        with pytest.raises(CLEAN):
            result_from_bytes(
                data[:offset] + struct.pack(">I", count) + data[offset + 4 :]
            )



def test_refreeze_unwrapped_every_hidden_digest(golden_results, sig_len):
    """Each projected result moved by the kind tag and signature that
    wrapped every hidden digest — ``1 + (sig_len + 2) - digest_len`` —
    plus, under STRUCTURED, its ``row | attribute`` tags; a result that
    hides nothing did not move."""
    digest_len = 16
    for name, (_policy, result) in golden_results.items():
        hidden = len(result.rows) * (len(result.all_columns) - len(result.columns))
        assert len(result.vo.projection_digests) == hidden * digest_len
        tags = 8 if result.vo.result_positions is not None else 0
        assert GOLDEN[name][0] == SIGNED_DP_LENGTHS[name] - hidden * (
            1 + sig_len + 2 - digest_len + tags
        )
    assert {n for n, (_p, r) in golden_results.items() if r.columns == r.all_columns} == {
        "full_row", "empty",
    }


@pytest.mark.parametrize("name", sorted(MASKED_FULL_ROW))
def test_full_row_results_are_the_parents_bytes_but_for_signature_values(
    golden_results, sig_len, name
):
    """Every digest value changed, so every signature did; zero the
    signature fields and a full-row payload is the parent's, byte for
    byte (an empty ``D_P`` is the same four zero bytes)."""
    _policy, result = golden_results[name]
    data = bytearray(result_to_bytes(result, sig_len))
    assert data[-4:] == bytes(4)
    ds_at = _ds_count_offset(bytes(data), result, sig_len)
    fields = [ds_at - (sig_len + 2)] + [
        ds_at + 4 + i * (1 + sig_len + 2) + 1
        for i in range(len(result.vo.selection_entries))
    ]
    for at in fields:
        data[at : at + sig_len] = bytes(sig_len)
    assert hashlib.sha256(data).hexdigest() == MASKED_FULL_ROW[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_prefix_rejected_cleanly(golden_results, sig_len, name):
    _policy, result = golden_results[name]
    data = result_to_bytes(result, sig_len)
    for cut in range(len(data)):
        with pytest.raises(CLEAN):
            result_from_bytes(data[:cut])


@pytest.mark.parametrize("name", ["structured", "nested"])
def test_structured_counts_inflated(golden_results, sig_len, name):
    """Every 4-byte field that equals one of the VO's counts, bumped by
    one or set to the maximum: a clean error or a parse, never a crash."""
    _policy, result = golden_results[name]
    data = result_to_bytes(result, sig_len)
    vo = result.vo
    counts = {
        len(vo.selection_entries),
        len(vo.projection_digests),
        len(vo.result_positions),
    }
    for mutated in _inflated(data, counts):
        try:
            result_from_bytes(mutated)
        except CLEAN:
            pass


# ---------------------------------------------------------------------------
# Sealed replica deltas
# ---------------------------------------------------------------------------

#: name -> (wire length, SHA-256 of the sealed payload)
GOLDEN_DELTAS = {
    "insert": (
        567,
        "013ea3249cb4caf37518a870fb218140385892bbc7471372323c87fa68af230d",
    ),
    "delete": (
        401,
        "047d03e6f07216b24e5a309c37de0e47498bf250b53f936e8b1f8dc0fb49a7c7",
    ),
    "secondary_delete": (
        351,
        "73c6fe7aefa76c6540bd4f2a68bc09ce8f0e8e74a052109920ab188279361335",
    ),
    "batch_32_2": (
        4719,
        "a97835a6bef811f7715584950b10e52344424087392170ec4fb1812456fabdc0",
    ),
    "structural": (
        1188,
        "e8700cbf244e251a106246f8469c2550a2ec9b475bb1b6ef07a63a4e87a1cd81",
    ),
}

@pytest.mark.parametrize("name", sorted(GOLDEN_DELTAS))
class TestGoldenDeltas:
    def test_bytes_frozen(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_DELTAS[name]

    def test_round_trip_is_identity(self, golden_deltas, sig_len, name):
        delta = golden_deltas[name]
        data = delta_to_bytes(delta, sig_len)
        parsed = delta_from_bytes(data)
        assert parsed == delta
        assert delta_to_bytes(parsed, sig_len) == data
        # The signed object is the payload minus its trailing signature.
        assert delta_body_bytes(parsed, sig_len) == data[: -(sig_len + 2)]

    def test_every_prefix_rejected_cleanly(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        for cut in range(len(data)):
            with pytest.raises(EncodingError):
                delta_from_bytes(data[:cut])

    def test_trailing_byte_rejected(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        with pytest.raises(EncodingError):
            delta_from_bytes(data + b"\x00")

    def test_counts_inflated(self, golden_deltas, sig_len, name):
        """Every 4-byte field that equals one of the delta's counts,
        bumped by one or set to the maximum: a clean error or a parse,
        never a crash and never an allocation sized by the forged count."""
        delta = golden_deltas[name]
        data = delta_to_bytes(delta, sig_len)
        counts = {len(delta.ops), len(delta.node_updates), len(delta.freed_nodes)}
        counts |= {len(op.values) for op in delta.ops if op.values is not None}
        for mutated in _inflated(data, counts):
            try:
                delta_from_bytes(mutated)
            except EncodingError:
                pass


def test_golden_deltas_cover_the_shapes(golden_deltas):
    """The vectors are only worth freezing if they reach every branch of
    the codec: both op kinds, scalar and composite delete keys, a
    coalesced batch, a structural delta with freed nodes."""
    from repro.core.delta import DeltaOpKind

    def kinds(delta):
        return [op.kind for op in delta.ops]

    assert kinds(golden_deltas["insert"]) == [DeltaOpKind.INSERT]
    assert kinds(golden_deltas["delete"]) == [DeltaOpKind.DELETE]
    assert golden_deltas["secondary_delete"].ops[0].key == (98, 14)
    batch = golden_deltas["batch_32_2"]
    assert kinds(batch) == [DeltaOpKind.INSERT] * 32 + [DeltaOpKind.DELETE] * 2
    assert (batch.lsn_first, batch.lsn_last) == (1, 34)
    structural = golden_deltas["structural"]
    assert structural.structural and structural.freed_nodes


@pytest.mark.parametrize("flag", [2, 0x80, 0xFF])
def test_non_canonical_structural_flag_rejected(golden_deltas, sig_len, flag):
    """The flag is one byte with two legal values; the edge no longer
    re-encodes what it parsed, so the decoder itself refuses the other
    254 (they used to collapse to ``True``)."""
    delta = golden_deltas["delete"]
    data = bytearray(delta_to_bytes(delta, sig_len))
    # sig_len | table value | 5 uints | flag
    offset = 4 + 5 + len(delta.table.encode()) + 20
    assert data[offset] == int(delta.structural)
    data[offset] = flag
    with pytest.raises(EncodingError):
        delta_from_bytes(bytes(data))


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

#: name -> (wire length, SHA-256 of the snapshot payload)
GOLDEN_SNAPSHOTS = {
    "primary": (
        4234,
        "4d6aea72cc37fd6439a87e3ac2a8f53f069b3ad02cf34412ff114dc10f704211",
    ),
    "secondary": (
        3109,
        "69c84c879eafa3ed78cb9e045586a22f69ff89d21c8498bb15948ef121df0c49",
    ),
}

#: Lengths at the parent commit, where every inserted or stored tuple
#: was ``signed_tuple | attribute count | N_c signed attribute digests``.
PER_ATTRIBUTE_LENGTHS = {
    "insert": 835,
    "delete": 401,
    "secondary_delete": 351,
    "batch_32_2": 13295,
    "structural": 3332,
    "primary": 10666,
    "secondary": 7397,
}

#: Lengths one commit earlier still, where every node record was
#: ``signed | signed_display``.
TWO_SIGNATURE_LENGTHS = {
    "insert": 1165,
    "delete": 665,
    "secondary_delete": 549,
    "batch_32_2": 14483,
    "structural": 3464,
    "primary": 11722,
    "secondary": 7991,
}


def test_refreeze_dropped_one_signature_per_node_record(
    golden_deltas, golden_snapshots, sig_len
):
    """That re-freeze moved each vector by the dropped signature and by
    nothing else: ``sig_len + 2`` bytes per node update in a delta, per
    node in a snapshot."""
    records = {name: len(d.node_updates) for name, d in golden_deltas.items()}
    records |= {n: t.tree.node_count() for n, t in golden_snapshots.items()}
    assert sorted(records) == sorted(PER_ATTRIBUTE_LENGTHS) == sorted(TWO_SIGNATURE_LENGTHS)
    for name, count in records.items():
        assert count > 0
        assert (
            PER_ATTRIBUTE_LENGTHS[name]
            == TWO_SIGNATURE_LENGTHS[name] - (sig_len + 2) * count
        )


def test_refreeze_left_one_signature_per_tuple(
    schema, golden_deltas, golden_snapshots, sig_len
):
    """This re-freeze moved each vector by what followed every tuple's
    own signature and by nothing else: the 4-byte attribute count and
    ``N_c`` signed digests, per insert op in a delta, per row in a
    snapshot; a delta that inserts nothing kept its length."""
    from repro.core.delta import DeltaOpKind

    tuples = {
        name: sum(op.kind is DeltaOpKind.INSERT for op in d.ops)
        for name, d in golden_deltas.items()
    }
    tuples |= {name: len(tree) for name, tree in golden_snapshots.items()}
    frozen = GOLDEN_DELTAS | GOLDEN_SNAPSHOTS
    assert sorted(tuples) == sorted(frozen) == sorted(PER_ATTRIBUTE_LENGTHS)
    per_tuple = 4 + (sig_len + 2) * schema.num_columns
    for name, count in tuples.items():
        assert frozen[name][0] == PER_ATTRIBUTE_LENGTHS[name] - per_tuple * count
    assert {name for name, count in tuples.items() if not count} == {
        "delete", "secondary_delete",
    }


@pytest.fixture(scope="module")
def replica_engine(keypair):
    return replica_signing(keypair, DigestPolicy.FLATTENED)


def _assert_replica_of(replica, vbtree):
    """Same tree, signed material only, and it audits on its own."""
    assert replica.attribute == vbtree.attribute
    assert replica.version == vbtree.version
    assert list(replica.tree.items()) == list(vbtree.tree.items())
    assert replica._tuple_auth == vbtree._tuple_auth
    assert replica._node_auth == vbtree._node_auth
    assert not replica._tuple_values and not replica._node_values
    replica.tree.validate()
    replica.audit()


@pytest.mark.parametrize("name", sorted(GOLDEN_SNAPSHOTS))
class TestGoldenSnapshots:
    def test_bytes_frozen(self, golden_snapshots, sig_len, name):
        data = snapshot_to_bytes(golden_snapshots[name], sig_len)
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_SNAPSHOTS[name]

    def test_round_trip_is_identity(
        self, golden_snapshots, replica_engine, sig_len, name
    ):
        vbtree = golden_snapshots[name]
        data = snapshot_to_bytes(vbtree, sig_len)
        replica = snapshot_from_bytes(data, replica_engine)
        _assert_replica_of(replica, vbtree)
        assert snapshot_to_bytes(replica, sig_len) == data

    def test_every_prefix_rejected_cleanly(
        self, golden_snapshots, replica_engine, sig_len, name
    ):
        """The leaf flag used to be an unbounded read (``IndexError``)
        and a short signature slice a ``SignatureError``."""
        data = snapshot_to_bytes(golden_snapshots[name], sig_len)
        for cut in range(len(data)):
            with pytest.raises(EncodingError):
                snapshot_from_bytes(data[:cut], replica_engine)

    def test_trailing_byte_rejected(
        self, golden_snapshots, replica_engine, sig_len, name
    ):
        data = snapshot_to_bytes(golden_snapshots[name], sig_len)
        with pytest.raises(EncodingError):
            snapshot_from_bytes(data + b"\x00", replica_engine)

    def test_node_and_row_counts_inflated(
        self, golden_snapshots, replica_engine, sig_len, name
    ):
        """The two counts that size the decoder's outer loops, bumped by
        one or set to the maximum, are refused — ``EncodingError`` and
        nothing else, before anything is allocated for them."""
        from repro.core.wire import _encode_key
        from repro.crypto.encoding import encode_values

        vbtree = golden_snapshots[name]
        data = snapshot_to_bytes(vbtree, sig_len)
        nodes = vbtree.tree.node_count()
        first_key, first_row = next(iter(vbtree.tree.items()))
        node_count_at = snapshot_node_count_offset(data, vbtree.tree)
        row_count_at = data.index(
            _encode_key(first_key) + encode_values(first_row.values)
        ) - 4
        for offset, count in ((node_count_at, nodes), (row_count_at, len(vbtree))):
            assert struct.unpack_from(">I", data, offset)[0] == count
            for forged in (count + 1, 0xFFFFFFFF):
                with pytest.raises(EncodingError):
                    snapshot_from_bytes(
                        data[:offset] + struct.pack(">I", forged) + data[offset + 4 :],
                        replica_engine,
                    )

    def test_counts_inflated(self, golden_snapshots, replica_engine, sig_len, name):
        """Every 4-byte field that equals one of the snapshot's counts
        (nodes, keys per node, rows, columns),
        bumped by one or set to the maximum: a clean error or a parse,
        never a crash and never an allocation sized by the forged count."""
        vbtree = golden_snapshots[name]
        data = snapshot_to_bytes(vbtree, sig_len)
        counts = {vbtree.tree.node_count(), len(vbtree), vbtree.schema.num_columns}
        counts |= {len(node.keys) for node in vbtree.tree.walk_nodes()}
        for mutated in _inflated(data, counts):
            try:
                snapshot_from_bytes(mutated, replica_engine)
            except EncodingError:
                pass


def test_golden_snapshots_cover_the_shapes(golden_snapshots):
    """Internal nodes with child ids, scalar and composite keys."""
    primary, secondary = golden_snapshots["primary"], golden_snapshots["secondary"]
    assert primary.height() >= 2 and secondary.height() >= 2
    assert primary.attribute is None and secondary.attribute == "price"
    assert all(isinstance(key, tuple) for key, _row in secondary.tree.items())
    assert not any(isinstance(key, tuple) for key, _row in primary.tree.items())


@pytest.mark.parametrize("flag", [2, 0x80, 0xFF])
def test_non_canonical_leaf_flag_rejected(
    golden_snapshots, replica_engine, sig_len, flag
):
    vbtree = golden_snapshots["primary"]
    data = bytearray(snapshot_to_bytes(vbtree, sig_len))
    # node count | root id | leaf flag
    offset = snapshot_node_count_offset(bytes(data), vbtree.tree) + 4 + 4
    assert data[offset] == 0  # the root of a three-level tree
    data[offset] = flag
    with pytest.raises(EncodingError):
        snapshot_from_bytes(bytes(data), replica_engine)


class TestSnapshotProperties:
    @given(
        keys=st.sets(st.integers(0, 400), max_size=20),
        deleted=st.sets(st.integers(0, 400), max_size=8),
        fanout=st.integers(3, 6),
        policy=st.sampled_from(list(DigestPolicy)),
        secondary=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_and_reencode_identity(
        self, schema, keypair, keys, deleted, fanout, policy, secondary
    ):
        """``snapshot_to_bytes(snapshot_from_bytes(b)) == b`` over built
        *and* updated trees (deletes leave under-full and freed nodes)."""
        from repro.core.update import AuthenticatedUpdater
        from repro.core.vbtree import VBTree

        rows = [r for r in make_rows(schema, n=401, step=1) if r.key in keys]
        vbtree = VBTree.build(
            schema,
            rows,
            make_signing(keypair, policy),
            fanout_override=fanout,
            attribute="price" if secondary else None,
        )
        updater = AuthenticatedUpdater(vbtree)
        for row in rows:
            if row.key in deleted:
                updater.delete(vbtree.key_of(row))
        sig_len = keypair.public.signature_len
        data = snapshot_to_bytes(vbtree, sig_len)
        replica = snapshot_from_bytes(data, replica_signing(keypair, policy))
        _assert_replica_of(replica, vbtree)
        assert snapshot_to_bytes(replica, sig_len) == data
