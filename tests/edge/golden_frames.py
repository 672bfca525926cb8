"""Golden vectors for the nine transport frames, and the mistyped
frames the hand-written decoder used to accept.

Frozen from ``frame_to_bytes`` at commit 7b3d5eb, *before* the frame
codec was derived from the schema table (DESIGN.md §19): a codec may be
rewritten, the bytes may not move.  One vector has been re-frozen on
purpose since, in the commit that took the unread ``naive`` flag byte
off ``SnapshotFrame``: ``snapshot``, 24 → 23 bytes.  ``tests/core/test_wire_golden.py``
is the pattern — ``(wire length, SHA-256 of the wire bytes)`` beside
the value that must produce them.  One instance of every frame, plus
each optional-trailing group present (the relay hello, a sharded
config with a hash and a range entry) and each query kind.
"""

from repro.crypto.encoding import encode_uint, encode_value
from repro.edge.transport import (
    AckFrame,
    ConfigFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
    HelloFrame,
    QueryRequestFrame,
    QueryResponseFrame,
    SnapshotFrame,
)

#: name -> (frame, wire length, SHA-256 of the wire bytes)
GOLDEN_FRAMES = {
    "snapshot": (
        SnapshotFrame(table="t", lsn=7, epoch=2, payload=b"abc"),
        23,
        "149097d142aed7dcbcbac90abe8d4cab784d657665a7b5bcac06f58a02e15692",
    ),
    "delta": (
        DeltaFrame(table="t__by_a1", payload=b"\x00\xff" * 9),
        37,
        "66de3196229beb22ec9da062d4cda4c1cf2629494c753f5733fcfb80f1c2d652",
    ),
    "nack": (
        AckFrame(edge="e1", table="t", ok=False, lsn=3, epoch=1, reason="gap"),
        31,
        "bbe5a52ea7d9da2096b137b9d843063d1a8b6ce2bbe68dafdcccaf68cb506f8f",
    ),
    "query_range": (
        QueryRequestFrame(
            kind="range", table="t", low=5, high=90,
            columns=("id", "a1"), vo_format="flat",
        ),
        67,
        "68ddf0534750c5ace0112bad38427a256037cb0c60fb0201c8bd2928570f0a60",
    ),
    "query_select": (
        QueryRequestFrame(kind="select", table="t", predicate=b"\x01"),
        49,
        "2b0f5d1834db6bb44d7ef6fa452ea80e13d61421ca8539f8c2f1bd1c9ce63c55",
    ),
    "query_secondary": (
        QueryRequestFrame(
            kind="secondary", table="t", attribute="a2", low="aa", high=None,
        ),
        55,
        "e7a2f6d6ac78790c8550190de1f2154131acfa2210672264b1fb00109d19e15f",
    ),
    "response": (
        QueryResponseFrame(
            edge="e1", payload=b"result-bytes", lsn=12, epoch=1,
            cursors=(("t", 12, 1), ("t__by_a1", 9, 1)),
        ),
        77,
        "1609e543c3418c50d4e841032860d3646435dea0468bab721ed8e8c8567bae3d",
    ),
    "response_error": (
        QueryResponseFrame(
            edge="e1", payload=b"",
            error="ReplicationError: edge 'e1' holds no replica of 'u'",
        ),
        81,
        "43010b8c8f6b6ac255e70948f9479244a5ccef20cf4d9f0f0018906d9c1c5c94",
    ),
    "hello": (
        HelloFrame(edge="e1", cursors=(("t", 7, 0),)),
        26,
        "1cc430d46f0e61a3aed747f76834a0eaae29c59a336d953725f1f4e301ad311d",
    ),
    "hello_relay": (
        HelloFrame(edge="relay-0", role="relay"),
        27,
        "2d0ec7ab4393fde4b0c9706115c8a2a61f720b8d5fb1fe99dec65c8f873a22de",
    ),
    "config": (
        ConfigFrame(
            db_name="db", policy="flattened", grace=2, clock=9,
            epochs=((0, 12345, 3, 1, 4), (1, 2**511 + 187, 65537, 4, -1)),
            ack_every=16, ack_bytes=1 << 20,
        ),
        169,
        "8317e22161e56b368c3b683353a136e6db2f88101989f72f9fbc128f68bcdadd",
    ),
    "config_sharded": (
        ConfigFrame(
            db_name="db", policy="nested", grace=0, clock=0,
            epochs=((0, 12345, 3, 0, -1),),
            shard_id=1,
            shard_map=(
                3, 2, 7,
                (("t", "hash", (1,)), ("u", "range", (100,))),
            ),
        ),
        126,
        "688ec881094ed2901ff6fb52dd3bd870f7500da1a9d847f5232ec4ccc11d813c",
    ),
    "cursor_ack": (
        CursorAckFrame(edge="e1", cursors=(("t", 7, 0), ("u", 1234567, 3))),
        40,
        "5cb4c8c127a1498826a3b1a3a31daeeb1f407cf0ab6648034159d0b42f3a15c8",
    ),
    "cursor_probe": (
        CursorProbeFrame(),
        1,
        "beead77994cf573341ec17b58bbf7eb34d2711c993c1d976b128b3188dc1829a",
    ),
}


def _raw(tag: int, *parts: bytes) -> bytes:
    return bytes([tag]) + b"".join(parts)


_V, _U = encode_value, encode_uint

#: name -> wire bytes the hand-written decoder (commit 7b3d5eb) accepted
#: as a frame although a field has the wrong type or a non-canonical
#: encoding — built by hand, because the schema's encoder refuses them.
#: Every one is a ``TransportError`` at the decoder now.
MISTYPED_FRAMES = {
    # SnapshotFrame(table=5): installed as replica ``5`` and bricked
    # ``sorted(replicas)`` on every later ack.
    "snapshot_table_int": _raw(0, _V(5), _U(0), _U(0), _V(b"")),
    "delta_payload_str": _raw(1, _V("t"), _V("p")),
    "hello_edge_none": _raw(5, _V(None), _U(0)),
    "response_error_int": _raw(
        4, _V("e"), _V(b""), _V(7), _U(0), _U(0), _U(0)
    ),
    "flag_byte_2": _raw(2, _V("e"), _V("t"), b"\x02", _U(0), _U(0), _V("")),
    "flag_byte_255": _raw(2, _V("e"), _V("t"), b"\xff", _U(0), _U(0), _V("")),
    # has-columns = 0 ("all columns"), yet one name follows.
    "absent_projection_with_names": _raw(
        3, _V("range"), _V("t"), _V(None), _V(None), _V(None),
        b"\x00", _U(1), _V("id"), _V(None), _V(None),
    ),
    "epoch_record_of_strings": _raw(
        6, _V("db"), _V("flattened"), _U(0), _U(0),
        _U(1), _V("0"), _V("n"), _V("e"), _V("0"), _V("-1"), _U(1), _U(1),
    ),
}
