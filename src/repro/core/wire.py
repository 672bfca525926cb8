"""Wire format for authenticated results — exact byte accounting.

The communication-cost experiments (Figures 10-11) need real byte
counts from the running system, so authenticated results serialize to a
deterministic binary format and the benches measure ``len(bytes)``.

Layout (all integers big-endian, lengths 4 bytes):

    header   : sig_len | format | policy | envelope_height
               table | key_column | columns | all_columns
    rows     : count, then each row's values (canonical encoding)
    keys     : values
    vo       : top_signed
               D_S count, entries
               D_P byte length, bare digests
               result positions (STRUCTURED only)

``D_S`` entries carry positional tags only in the STRUCTURED format,
which is exactly the encoding-size difference between the two formats
that the ``bench_ablation_granularity`` bench reports.  ``D_P`` is one
block in both: ``Q_r × (N_c − Q_c)`` digests at the commutative hash's
width, row-major in schema column order, no kind, row or attribute tags
(DESIGN.md D5) — four zero bytes when nothing is projected away.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.delta import (
    DeltaOpKind,
    NodeDigestUpdate,
    ReplicaDelta,
    TupleOp,
    delta_digest,
)
from repro.core.digests import DigestPolicy
from repro.core.vo import (
    AuthenticatedResult,
    VerificationObject,
    VOEntry,
    VOEntryKind,
    VOFormat,
)
from repro.crypto.encoding import (
    decode_uint,
    decode_value,
    decode_values,
    encode_uint,
    encode_value,
    encode_values,
)
from repro.crypto.meter import NULL_METER, CostMeter
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.exceptions import (
    CryptoError,
    DatabaseError,
    DeltaTamperError,
    EncodingError,
    ReplicaDeltaError,
    StaleKeyError,
    VOFormatError,
)

__all__ = [
    "result_to_bytes",
    "result_from_bytes",
    "wire_breakdown",
    "delta_body_bytes",
    "delta_to_bytes",
    "delta_from_bytes",
    "authenticate_delta",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "predicate_to_bytes",
    "predicate_from_bytes",
]

_FORMAT_TAGS = {VOFormat.FLAT_SET: 0, VOFormat.STRUCTURED: 1}
_FORMAT_FROM_TAG = {v: k for k, v in _FORMAT_TAGS.items()}
_POLICY_TAGS = {DigestPolicy.FLATTENED: 0, DigestPolicy.NESTED: 1}
_POLICY_FROM_TAG = {v: k for k, v in _POLICY_TAGS.items()}
_KIND_TAGS = {VOEntryKind.NODE: 0, VOEntryKind.TUPLE: 1}
_KIND_FROM_TAG = {v: k for k, v in _KIND_TAGS.items()}
_KIND_BYTES = {kind: bytes([tag]) for kind, tag in _KIND_TAGS.items()}

_U32 = struct.Struct(">I")
#: sig_len | format | policy | envelope_height
_RESULT_HEADER = struct.Struct(">IBBI")


def _encode_path(path: tuple[int, ...]) -> bytes:
    return struct.pack(f">{len(path) + 1}I", len(path), *path)


def _decode_path(data: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    count, offset = decode_uint(data, offset)
    end = offset + 4 * count
    if end > len(data):
        raise VOFormatError("truncated path")
    return struct.unpack_from(f">{count}I", data, offset), end


def _decode_signed(data: bytes, offset: int, sig_len: int) -> tuple[SignedDigest, int]:
    """One fixed-width signature + 2-byte epoch, bounds-checked and
    sliced, never parsed."""
    end = offset + sig_len + 2
    if end > len(data):
        raise VOFormatError("truncated signed digest")
    return SignedDigest(data[offset:end]), end


def _encode_entries(parts: list[bytes], entries: list[VOEntry], structured: bool) -> None:
    """Append ``count | entries`` for ``D_S``."""
    parts.append(_U32.pack(len(entries)))
    for entry in entries:
        parts.append(_KIND_BYTES[entry.kind])
        parts.append(entry.signed)
        if structured:
            if entry.path is None or entry.slot is None:
                raise VOFormatError("structured entry missing position tags")
            parts.append(_encode_path(entry.path))
            parts.append(_U32.pack(entry.slot))


def _decode_entries(
    data: bytes, offset: int, structured: bool, sig_len: int
) -> tuple[list[VOEntry], int]:
    """Parse ``count | entries``; every read is checked against the
    buffer, so a wrong count or a cut buffer is a ``VOFormatError``."""
    count, offset = decode_uint(data, offset)
    size = len(data)
    # kind tag + signature + epoch, plus at least two uints of tags.
    min_width = 1 + sig_len + 2 + (8 if structured else 0)
    if count * min_width > size - offset:
        raise VOFormatError(f"{count} VO entries cannot fit the remaining bytes")
    entries = []
    for _ in range(count):
        if offset >= size:
            raise VOFormatError("truncated VO entry")
        kind = _KIND_FROM_TAG.get(data[offset])
        if kind is None:
            raise VOFormatError(f"unknown VO entry kind tag {data[offset]}")
        signed, offset = _decode_signed(data, offset + 1, sig_len)
        if not structured:
            entries.append(VOEntry(kind, signed))
        else:
            path, offset = _decode_path(data, offset)
            slot, offset = decode_uint(data, offset)
            entries.append(VOEntry(kind, signed, path, slot))
    return entries, offset


def result_to_bytes(result: AuthenticatedResult, sig_len: int) -> bytes:
    """Serialize an authenticated result.

    A row that still is the tuple its carried wire form was made from
    (:meth:`~repro.core.vo.AuthenticatedResult.encoding_of`) is written
    as those bytes; any other is encoded — the bytes are the same
    either way.

    Args:
        result: The result + VO to encode.
        sig_len: Raw signature width in bytes (modulus size).
    """
    vo = result.vo
    structured = vo.format is VOFormat.STRUCTURED
    try:
        parts = [
            _RESULT_HEADER.pack(
                sig_len,
                _FORMAT_TAGS[vo.format],
                _POLICY_TAGS[vo.policy],
                vo.envelope_height,
            ),
            encode_value(result.table),
            encode_value(result.key_column),
            encode_values(result.columns),
            encode_values(result.all_columns),
            _U32.pack(len(result.rows)),
        ]
        carried = result.encoding_of
        parts.extend([carried(row) or encode_values(row) for row in result.rows])
        parts.append(encode_values(result.keys))
        parts.append(vo.top_signed)
        _encode_entries(parts, vo.selection_entries, structured)
        parts.append(_U32.pack(len(vo.projection_digests)))
        parts.append(vo.projection_digests)
        if structured:
            positions = vo.result_positions or []
            parts.append(_U32.pack(len(positions)))
            for path, slot in positions:
                parts.append(_encode_path(tuple(path)))
                parts.append(_U32.pack(slot))
    except struct.error as exc:
        raise EncodingError(f"uint out of range: {exc}") from None
    return b"".join(parts)


def result_from_bytes(data: bytes) -> AuthenticatedResult:
    """Parse the serialization produced by :func:`result_to_bytes`.

    Each row keeps the slice it was decoded from, and its values'
    slices, as its carried wire form, so the verifier hashes the bytes
    that arrived; decoding is canonical
    (:func:`~repro.crypto.encoding.decode_payload`), so those are
    exactly the encoding of the values returned.

    Raises:
        VOFormatError, EncodingError: On any malformed, truncated or
            over-long buffer — never ``IndexError``: no read goes past
            the end of ``data``.
    """
    if len(data) < _RESULT_HEADER.size:
        raise VOFormatError("truncated result header")
    sig_len, fmt_tag, policy_tag, envelope_height = _RESULT_HEADER.unpack_from(data)
    fmt = _FORMAT_FROM_TAG.get(fmt_tag)
    policy = _POLICY_FROM_TAG.get(policy_tag)
    if fmt is None or policy is None:
        raise VOFormatError("unknown format/policy tags")
    structured = fmt is VOFormat.STRUCTURED
    offset = _RESULT_HEADER.size
    table, offset = decode_value(data, offset)
    key_column, offset = decode_value(data, offset)
    columns, offset = decode_values(data, offset)
    all_columns, offset = decode_values(data, offset)
    row_count, offset = decode_uint(data, offset)
    if row_count * 4 > len(data) - offset:
        raise VOFormatError(f"{row_count} rows cannot fit the remaining bytes")
    rows = []
    encodings = {}
    for _ in range(row_count):
        start, slices = offset, []
        values, offset = decode_values(data, offset, slices)
        row = tuple(values)
        rows.append(row)
        encodings[id(row)] = (row, data[start:offset], slices)
    keys, offset = decode_values(data, offset)
    top_signed, offset = _decode_signed(data, offset, sig_len)
    selection, offset = _decode_entries(data, offset, structured, sig_len)
    dp_len, offset = decode_uint(data, offset)
    if dp_len > len(data) - offset:
        raise VOFormatError(f"{dp_len} D_P bytes cannot fit the remaining bytes")
    projection = data[offset : offset + dp_len]
    offset += dp_len
    positions = None
    if structured:
        pos_count, offset = decode_uint(data, offset)
        if pos_count * 8 > len(data) - offset:
            raise VOFormatError(
                f"{pos_count} positions cannot fit the remaining bytes"
            )
        positions = []
        for _ in range(pos_count):
            path, offset = _decode_path(data, offset)
            slot, offset = decode_uint(data, offset)
            positions.append((path, slot))
    if offset != len(data):
        raise VOFormatError(f"{len(data) - offset} trailing bytes")
    vo = VerificationObject(
        format=fmt,
        policy=policy,
        table=table,
        top_signed=top_signed,
        selection_entries=selection,
        projection_digests=projection,
        result_positions=positions,
        envelope_height=envelope_height,
    )
    return AuthenticatedResult(
        table=table,
        columns=tuple(columns),
        all_columns=tuple(all_columns),
        key_column=key_column,
        rows=rows,
        keys=keys,
        vo=vo,
        encodings=encodings,
    )


def wire_breakdown(result: AuthenticatedResult, sig_len: int) -> dict[str, int]:
    """Byte counts per component — the measured analogue of formula (9).

    Keys: ``data`` (result tuple values), ``keys``, ``dn``, ``ds``,
    ``dp`` (the bare digest block), ``structure`` (positions and tags),
    ``header``, ``total``.
    """
    vo = result.vo
    data_bytes = sum(len(encode_values(row)) for row in result.rows)
    key_bytes = len(encode_values(result.keys))
    dn_bytes = sig_len + 2
    ds_sig = vo.num_selection_digests * (sig_len + 2 + 1)
    dp_bytes = len(vo.projection_digests)
    total = len(result_to_bytes(result, sig_len))
    header = (
        4 + 2 + 4
        + len(encode_value(result.table))
        + len(encode_value(result.key_column))
        + len(encode_values(result.columns))
        + len(encode_values(result.all_columns))
        + 4  # row count
        + 4 + 4  # D_S count / D_P byte length
    )
    structure = total - data_bytes - key_bytes - dn_bytes - ds_sig - dp_bytes - header
    return {
        "data": data_bytes,
        "keys": key_bytes,
        "dn": dn_bytes,
        "ds": ds_sig,
        "dp": dp_bytes,
        "structure": structure,
        "header": header,
        "total": total,
    }


# ---------------------------------------------------------------------------
# Replica deltas (DESIGN.md section 6) — replication bytes are measured
# with the same encoding primitives as query VOs, so clone-vs-delta
# comparisons are apples-to-apples.
# ---------------------------------------------------------------------------

_OP_INSERT = 0
_OP_DELETE = 1
_OP_TAGS = {DeltaOpKind.INSERT: _OP_INSERT, DeltaOpKind.DELETE: _OP_DELETE}
#: key flag + an empty composite key's count: the narrowest key.
_MIN_KEY_WIDTH = 5
#: op tag + the narrowest key: the narrowest op.
_MIN_OP_WIDTH = 1 + _MIN_KEY_WIDTH
#: lsn_first | lsn_last | epoch | base_version | new_version | structural
#: | op count — what follows ``sig_len | table`` in a delta body.
_DELTA_HEADER = struct.Struct(">5IBI")

# Tree search keys are scalars for primary VB-trees but composite
# ``(attribute, primary key)`` tuples for secondary VB-trees.
_KEY_SCALAR = 0
_KEY_COMPOSITE = 1


def _encode_key(key: Any) -> bytes:
    if isinstance(key, tuple):
        return bytes([_KEY_COMPOSITE]) + encode_values(key)
    return bytes([_KEY_SCALAR]) + encode_value(key)


def _decode_key(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise EncodingError("truncated key")
    flag = data[offset]
    offset += 1
    if flag == _KEY_COMPOSITE:
        values, offset = decode_values(data, offset)
        return tuple(values), offset
    if flag == _KEY_SCALAR:
        return decode_value(data, offset)
    raise EncodingError(f"unknown key flag {flag}")


def _encode_tuple_op(op: TupleOp) -> bytes:
    out = [bytes([_OP_TAGS[op.kind]])]
    if op.kind is DeltaOpKind.INSERT:
        if op.values is None or op.signed_tuple is None:
            raise ReplicaDeltaError("insert op missing its signed digest")
        out.append(encode_values(op.values))
        out.append(op.signed_tuple)
    else:
        out.append(_encode_key(op.key))
    return b"".join(out)


def delta_body_bytes(delta: ReplicaDelta, sig_len: int) -> bytes:
    """Serialize a delta's signed portion (everything but the signature).

    The LSN range, epoch and versions are inside the body, so the
    central server's signature binds them — a replayed or renumbered
    delta cannot carry a valid signature.
    """
    parts = [
        encode_uint(sig_len),
        encode_value(delta.table),
        encode_uint(delta.lsn_first),
        encode_uint(delta.lsn_last),
        encode_uint(delta.epoch),
        encode_uint(delta.base_version),
        encode_uint(delta.new_version),
        bytes([1 if delta.structural else 0]),
        encode_uint(len(delta.ops)),
    ]
    for op in delta.ops:
        parts.append(_encode_tuple_op(op))
    parts.append(encode_uint(len(delta.node_updates)))
    for update in delta.node_updates:
        parts.append(encode_uint(update.node_id))
        parts.append(update.signed)
    parts.append(encode_uint(len(delta.freed_nodes)))
    for node_id in delta.freed_nodes:
        parts.append(encode_uint(node_id))
    return b"".join(parts)


def delta_to_bytes(delta: ReplicaDelta, sig_len: int) -> bytes:
    """Serialize a sealed delta: body followed by the body signature.

    Raises:
        ReplicaDeltaError: If the delta has not been signed.
    """
    if delta.signature is None:
        raise ReplicaDeltaError("cannot serialize an unsigned delta")
    return delta_body_bytes(delta, sig_len) + delta.signature


def delta_from_bytes(data: bytes) -> ReplicaDelta:
    """Parse the serialization produced by :func:`delta_to_bytes`.

    Parsing performs **no** authentication.  The authenticated object
    is the byte string the central server signed — ``data`` minus its
    trailing ``sig_len + 2`` signature bytes — so a caller that is
    about to trust the result goes through :func:`authenticate_delta`,
    which checks the signature over that received slice.  Nothing is
    re-serialised to verify: that the encoding is canonical (a payload
    the central server emits re-encodes to itself) is a property the
    codec tests pin, not an assumption verification rests on.

    One pass, every read bounded, every count checked against the bytes
    that remain before its loop runs.

    Raises:
        EncodingError: On any malformed, truncated or over-long buffer
            — never ``IndexError``.
    """
    size = len(data)
    try:
        sig_len, offset = decode_uint(data, 0)
        width = sig_len + 2
        if width > size:
            raise EncodingError(f"{sig_len}-byte signatures cannot fit the payload")
        # ``signature ‖ epoch``, the one record every signed digest is
        # (sliced, never parsed), and ``node id | signed``, one node update.
        signed_record = struct.Struct(f">{width}s")
        update_records = struct.Struct(f">I{width}s")
        table, offset = decode_value(data, offset)
        (
            lsn_first, lsn_last, epoch, base_version, new_version, flag, op_count,
        ) = _DELTA_HEADER.unpack_from(data, offset)
        offset += _DELTA_HEADER.size
        if flag > 1:
            raise EncodingError(f"non-canonical structural flag {flag}")
        if op_count * _MIN_OP_WIDTH > size - offset:
            raise EncodingError(f"{op_count} ops cannot fit the remaining bytes")
        ops = []
        for _ in range(op_count):
            if offset >= size:
                raise EncodingError("truncated delta op")
            tag = data[offset]
            if tag == _OP_DELETE:
                key, offset = _decode_key(data, offset + 1)
                ops.append(TupleOp(DeltaOpKind.DELETE, None, key))
                continue
            if tag != _OP_INSERT:
                raise EncodingError(f"unknown delta op tag {tag}")
            values, offset = decode_values(data, offset + 1)
            signed = SignedDigest(*signed_record.unpack_from(data, offset))
            offset += width
            ops.append(TupleOp(DeltaOpKind.INSERT, tuple(values), None, signed))
        update_count, offset = decode_uint(data, offset)
        end = offset + update_count * update_records.size
        if end > size:
            raise EncodingError(
                f"{update_count} node updates cannot fit the remaining bytes"
            )
        updates = tuple([
            NodeDigestUpdate(node_id, SignedDigest(signed))
            for node_id, signed in update_records.iter_unpack(data[offset:end])
        ])
        offset = end
        freed_count, offset = decode_uint(data, offset)
        if freed_count * 4 > size - offset:
            raise EncodingError(
                f"{freed_count} freed node ids cannot fit the remaining bytes"
            )
        freed = struct.unpack_from(f">{freed_count}I", data, offset)
        offset += 4 * freed_count
    except struct.error:  # a fixed-width read ran off the end
        raise EncodingError("truncated delta") from None
    if offset + width > size:
        raise EncodingError("truncated delta")
    if offset + width != size:
        raise EncodingError(f"{size - offset - width} trailing delta bytes")
    return ReplicaDelta(
        table=table,
        lsn_first=lsn_first,
        lsn_last=lsn_last,
        epoch=epoch,
        base_version=base_version,
        new_version=new_version,
        structural=flag == 1,
        ops=tuple(ops),
        node_updates=updates,
        freed_nodes=freed,
        signature=SignedDigest(data[offset:]),
    )


def authenticate_delta(
    payload: bytes, table: str, keyring, meter: CostMeter = NULL_METER
) -> ReplicaDelta:
    """The one definition of "this delta verifies": parse ``payload`` and
    check the central server's signature over **the bytes that arrived**.

    A sealed delta is ``body ‖ signature``; the signer's input was the
    body, so the verifier's is ``payload[:-(sig_len + 2)]`` — the
    received slice, not a re-serialisation of the parsed copy.  In
    order: the payload parses (no trailing bytes, no non-canonical
    flag); it is addressed to ``table``; ``keyring`` serves a public
    key for the claimed epoch (an expired epoch is refused the way a
    stale query signature is); the payload's declared signature width
    is that key's — so the slice boundary is the signer's, checked
    before any public-key operation; the signature recovers to the
    digest of the slice.

    Raises:
        DeltaTamperError: If any of those fails.
    """
    try:
        delta = delta_from_bytes(payload)
    except CryptoError as exc:
        raise DeltaTamperError(f"delta for {table!r} does not parse: {exc}") from exc
    if delta.table != table:
        raise DeltaTamperError(
            f"delta addressed to {delta.table!r}, applied to {table!r}"
        )
    try:
        public_key = keyring.public_key_for(delta.epoch)
    except StaleKeyError as exc:
        raise DeltaTamperError(f"delta epoch {delta.epoch} rejected: {exc}") from exc
    sig_len = public_key.signature_len
    if _U32.unpack_from(payload)[0] != sig_len:
        raise DeltaTamperError(
            f"delta declares a signature width other than epoch "
            f"{delta.epoch}'s {sig_len} bytes"
        )
    body = payload[: -(sig_len + 2)]
    if not DigestVerifier(public_key, meter=meter).verify_value(
        delta.signature, delta_digest(body)
    ):
        raise DeltaTamperError(
            f"delta signature over {table!r} body does not verify"
        )
    return delta


#: block_size | key_len | pointer_len | digest_len | max_children |
#: leaf_capacity | next node id | node count — the snapshot's tree header.
_SNAPSHOT_TREE = struct.Struct(">8I")
#: node id | leaf flag | key count — what opens every snapshot node.
_SNAPSHOT_NODE = struct.Struct(">IBI")
#: three values of at least ``tag | length`` each: the narrowest column.
_MIN_COLUMN_WIDTH = 15


def _encode_schema(schema) -> bytes:
    """Serialize a table schema (name, key column, typed columns)."""
    parts = [
        encode_value(schema.name),
        encode_value(schema.key),
        encode_uint(schema.num_columns),
    ]
    for column in schema.columns:
        parts.append(encode_value(column.name))
        parts.append(encode_value(column.type.name))
        parts.append(encode_value(getattr(column.type, "capacity", None)))
    return b"".join(parts)


def _decode_schema(data: bytes, offset: int):
    from repro.db.schema import Column, TableSchema
    from repro.db.types import type_from_name

    name, offset = decode_value(data, offset)
    key, offset = decode_value(data, offset)
    count, offset = decode_uint(data, offset)
    if count * _MIN_COLUMN_WIDTH > len(data) - offset:
        raise EncodingError(f"{count} columns cannot fit the remaining bytes")
    columns = []
    for _ in range(count):
        col_name, offset = decode_value(data, offset)
        type_name, offset = decode_value(data, offset)
        capacity, offset = decode_value(data, offset)
        columns.append(Column(col_name, type_from_name(type_name, capacity)))
    return TableSchema(name, tuple(columns), key=key), offset


def snapshot_to_bytes(vbtree, sig_len: int) -> bytes:
    """Serialize a full VB-tree replica: the snapshot-transfer wire cost.

    This is what a full resync (edge bootstrap, log gap, key rotation)
    ships, and what the seed's per-update clone propagation effectively
    shipped on *every* mutation — the honest baseline for
    ``benchmarks/bench_replication.py``.  The format is self-describing
    (schema, tree geometry, node-id counter) so an edge server can
    reconstruct the replica from bytes alone — see
    :func:`snapshot_from_bytes` — without sharing any Python objects
    with the central server.  Layout: header, pre-order node structure
    (id, leaf flag, keys, child ids, the node's signed digest), then
    per row its key, values and signed tuple digest — the one signature
    a tuple has (DESIGN.md D5).  As in a delta, digests travel in signed
    form only.
    """
    from repro.core.secondary import SecondaryVBTree

    geometry = vbtree.geometry
    nodes = list(vbtree.tree.walk_nodes())
    try:
        parts = [
            encode_uint(sig_len),
            encode_value(vbtree.table_name),
            encode_uint(vbtree.version),
            _encode_schema(vbtree.schema),
            encode_value(
                vbtree.attribute if isinstance(vbtree, SecondaryVBTree) else None
            ),
            _SNAPSHOT_TREE.pack(
                geometry.block_size,
                geometry.key_len,
                geometry.pointer_len,
                geometry.digest_len,
                vbtree.tree.max_children,
                vbtree.tree.leaf_capacity,
                vbtree.tree._next_node_id,
                len(nodes),
            ),
        ]
        for node in nodes:
            parts.append(
                _SNAPSHOT_NODE.pack(node.node_id, node.is_leaf, len(node.keys))
            )
            parts.extend(map(_encode_key, node.keys))
            if not node.is_leaf:
                ids = [child.node_id for child in node.children]
                parts.append(struct.pack(f">{len(ids)}I", *ids))
            parts.append(vbtree.node_auth(node))
    except struct.error as exc:
        raise EncodingError(f"uint out of range: {exc}") from None
    parts.append(encode_uint(len(vbtree.tree)))
    for key, row in vbtree.tree.items():
        parts.append(_encode_key(key))
        parts.append(encode_values(row.values))
        parts.append(vbtree.tuple_auth(key))
    return b"".join(parts)


def snapshot_from_bytes(data: bytes, signing):
    """Reconstruct a replica VB-tree from :func:`snapshot_to_bytes`.

    Args:
        data: The serialized snapshot.
        signing: Digest context to install on the replica — on an edge
            server a
            :class:`~repro.core.digests.VerifyOnlyDigestEngine` (the
            replica must never hold a private key).

    The reconstruction is exact: node ids, the node-id counter, and the
    tree geometry are restored byte-for-byte so that replaying deltas
    against the replica reproduces the central server's structural
    changes (DESIGN.md section 6's determinism argument).  The replica
    holds signed digests only; the central server's working value maps
    stay empty on it.

    One pass in :func:`delta_from_bytes`'s style: every read bounded,
    every node, key and row count refused against the bytes that remain
    before its loop runs.

    Raises:
        EncodingError: On any malformed, truncated or over-long buffer
            — never ``IndexError`` or ``SignatureError``.
    """
    from repro.core.secondary import SecondaryVBTree
    from repro.core.vbtree import VBTree
    from repro.db.btree import BPlusTree, InternalNode, LeafNode
    from repro.db.page import PageGeometry
    from repro.db.rows import Row

    size = len(data)
    nodes: dict[int, Any] = {}
    order: list[Any] = []
    child_ids: dict[int, tuple[int, ...]] = {}
    node_auths: dict[int, SignedDigest] = {}
    row_map: dict[Any, Row] = {}
    tuple_auth: dict[Any, SignedDigest] = {}
    try:
        sig_len, offset = decode_uint(data, 0)
        width = sig_len + 2
        if width > size:
            raise EncodingError(f"{sig_len}-byte signatures cannot fit the payload")
        # ``signature ‖ epoch``: what closes every node, and every row
        # after them — sliced, never parsed.
        signed_record = struct.Struct(f">{width}s")
        table_name, offset = decode_value(data, offset)
        version, offset = decode_uint(data, offset)
        schema, offset = _decode_schema(data, offset)
        attribute, offset = decode_value(data, offset)
        attr_index = None if attribute is None else schema.column_index(attribute)
        (
            block_size, key_len, pointer_len, digest_len,
            max_children, leaf_capacity, next_node_id, node_count,
        ) = _SNAPSHOT_TREE.unpack_from(data, offset)
        offset += _SNAPSHOT_TREE.size
        geometry = PageGeometry(block_size, key_len, pointer_len, digest_len)
        if node_count * (_SNAPSHOT_NODE.size + width) > size - offset:
            raise EncodingError(f"{node_count} nodes cannot fit the remaining bytes")
        for _ in range(node_count):
            node_id, leaf_flag, key_count = _SNAPSHOT_NODE.unpack_from(data, offset)
            offset += _SNAPSHOT_NODE.size
            if leaf_flag > 1:
                raise EncodingError(f"non-canonical leaf flag {leaf_flag}")
            if key_count * _MIN_KEY_WIDTH > size - offset:
                raise EncodingError(f"{key_count} keys cannot fit the remaining bytes")
            node = LeafNode(node_id) if leaf_flag else InternalNode(node_id)
            for _ in range(key_count):
                key, offset = _decode_key(data, offset)
                node.keys.append(key)
            if not leaf_flag:
                child_ids[node_id] = struct.unpack_from(
                    f">{key_count + 1}I", data, offset
                )
                offset += 4 * (key_count + 1)
            node_auths[node_id] = SignedDigest(*signed_record.unpack_from(data, offset))
            offset += width
            nodes[node_id] = node
            order.append(node)
        row_count, offset = decode_uint(data, offset)
        # key | value count | signed tuple
        if row_count * (_MIN_KEY_WIDTH + 4 + width) > size - offset:
            raise EncodingError(f"{row_count} rows cannot fit the remaining bytes")
        for _ in range(row_count):
            key, offset = _decode_key(data, offset)
            values, offset = decode_values(data, offset)
            tuple_auth[key] = SignedDigest(*signed_record.unpack_from(data, offset))
            offset += width
            row_map[key] = Row(schema, values)
    except struct.error:  # a fixed-width read ran off the end
        raise EncodingError("truncated snapshot") from None
    except DatabaseError as exc:  # schema, geometry or row does not validate
        raise EncodingError(f"snapshot does not describe a table: {exc}") from exc
    if offset != size:
        raise EncodingError(f"{size - offset} trailing snapshot bytes")
    if not order:
        raise EncodingError("snapshot carries no nodes")
    if schema.name != table_name and attribute is None:
        raise EncodingError(
            f"snapshot table {table_name!r} does not match schema {schema.name!r}"
        )

    for node in order:
        for cid in child_ids.get(node.node_id, ()):
            try:
                child = nodes[cid]
            except KeyError:
                raise EncodingError(
                    f"snapshot references unknown child node {cid}"
                ) from None
            node.children.append(child)
            child.parent = node
    # Pre-order over an ordered B+-tree visits leaves left-to-right;
    # rebuild the leaf chain from that order.
    leaves = [n for n in order if n.is_leaf]
    for prev, cur in zip(leaves, leaves[1:], strict=False):
        prev.next_leaf = cur
        cur.prev_leaf = prev
    for leaf in leaves:
        try:
            leaf.values = [row_map[k] for k in leaf.keys]
        except KeyError as exc:
            raise EncodingError(
                f"snapshot leaf references unknown row key {exc}"
            ) from None

    tree = BPlusTree.__new__(BPlusTree)
    tree.geometry = geometry
    tree.max_children = max_children
    tree.leaf_capacity = leaf_capacity
    tree._next_node_id = next_node_id
    tree.io_reads = 0
    tree._root = order[0]
    tree._size = row_count

    if attribute is not None:
        vbt = SecondaryVBTree.__new__(SecondaryVBTree)
        vbt.attribute = attribute
        vbt.key_of = lambda row: (row.values[attr_index], row.key)
    else:
        vbt = VBTree.__new__(VBTree)
        vbt.key_of = lambda row: row.key
    vbt.schema = schema
    vbt.signing = signing
    vbt.geometry = geometry
    vbt.tree = tree
    vbt._tuple_auth = tuple_auth
    vbt._node_auth = node_auths
    vbt._tuple_values = {}
    vbt._node_values = {}
    vbt.version = version
    return vbt


# ---------------------------------------------------------------------------
# Predicates — serialized inside query-request transport frames so that
# edge servers can answer general selections without sharing Python
# objects with the client.
# ---------------------------------------------------------------------------

_PRED_TRUE = 0
_PRED_COMPARISON = 1
_PRED_AND = 2
_PRED_OR = 3
_PRED_NOT = 4


def predicate_to_bytes(predicate) -> bytes:
    """Serialize a :class:`~repro.db.expressions.Predicate` tree.

    Raises:
        EncodingError: For predicate types outside the built-in algebra
            (``AlwaysTrue``/``Comparison``/``And``/``Or``/``Not``).
    """
    from repro.db.expressions import AlwaysTrue, And, Comparison, Not, Or

    if isinstance(predicate, AlwaysTrue):
        return bytes([_PRED_TRUE])
    if isinstance(predicate, Comparison):
        return (
            bytes([_PRED_COMPARISON])
            + encode_value(predicate.column)
            + encode_value(predicate.op)
            + encode_value(predicate.value)
        )
    if isinstance(predicate, And):
        return (
            bytes([_PRED_AND])
            + predicate_to_bytes(predicate.left)
            + predicate_to_bytes(predicate.right)
        )
    if isinstance(predicate, Or):
        return (
            bytes([_PRED_OR])
            + predicate_to_bytes(predicate.left)
            + predicate_to_bytes(predicate.right)
        )
    if isinstance(predicate, Not):
        return bytes([_PRED_NOT]) + predicate_to_bytes(predicate.inner)
    raise EncodingError(
        f"cannot serialize predicate of type {type(predicate).__name__}"
    )


def predicate_from_bytes(data: bytes, offset: int = 0):
    """Parse one predicate; returns ``(predicate, new_offset)``."""
    from repro.db.expressions import AlwaysTrue, And, Comparison, Not, Or

    if offset >= len(data):
        raise EncodingError("truncated predicate")
    tag = data[offset]
    offset += 1
    if tag == _PRED_TRUE:
        return AlwaysTrue(), offset
    if tag == _PRED_COMPARISON:
        column, offset = decode_value(data, offset)
        op, offset = decode_value(data, offset)
        value, offset = decode_value(data, offset)
        return Comparison(column, op, value), offset
    if tag in (_PRED_AND, _PRED_OR):
        left, offset = predicate_from_bytes(data, offset)
        right, offset = predicate_from_bytes(data, offset)
        cls = And if tag == _PRED_AND else Or
        return cls(left, right), offset
    if tag == _PRED_NOT:
        inner, offset = predicate_from_bytes(data, offset)
        return Not(inner), offset
    raise EncodingError(f"unknown predicate tag {tag}")
