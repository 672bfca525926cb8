"""The wire: nine typed frames, each declared once, as data.

The paper's security model (Section 3.1, Figure 2) places edge servers
*outside* the trust boundary: the central DBMS must be reachable from an
edge only through an authenticated message channel, never through shared
objects.  This module is the vocabulary of that channel.  All
central↔edge traffic — snapshot transfers, replica delta batches,
acknowledgements, and query request/responses — travels as typed,
wire-serializable **frames**; what carries them is a *link*
(:mod:`repro.edge.link` in-process, :mod:`repro.edge.event_loop` over
TCP).

It is also the one piece of code that parses bytes from a party the
system assumes hostile, so "well-formed" has exactly one definition:
:data:`FRAMES`, one row per frame — tag, dataclass, direction,
accounting kind, and per field a name, a **primitive** and a one-line
meaning.  A primitive is a wire type *with its bound*: it refuses a
wrong Python type, a non-canonical flag byte, and any length or count
above its schema constant or above what the remaining bytes can hold —
before any loop or allocation, in the encoder and the decoder alike, so
a frame that encodes always decodes.  Everything else is derived from
the table at import: :func:`frame_to_bytes` / :func:`frame_from_bytes`
(one closure pair per frame), :func:`frame_kind`, :func:`frame_limit`
and :data:`MAX_FRAME_BYTES`, the ``docs/ARCHITECTURE.md`` section 2
tables (:func:`frame_reference`, diffed by ``tools/check_docs.py``) and
the fuzzers' strategies (``tests/edge/test_frame_schema.py``).  Adding
a field is one schema row plus one dataclass field; the two are tied
together at import (DESIGN.md section 19).

Role and ownership: the codec is shared vocabulary, not a seat — the
same nine frames serve central→edge links, central→relay links, and
relay→edge links (the relay forwards replication frames *verbatim*,
which is why byte-exactness is a protocol property and not a bench
nicety).  Nothing in this module holds a signing key or verifies a
signature: integrity lives inside the payloads (signed deltas,
snapshots, VOs), so the transport layer — and anything that can
read/modify it, a relay included — is untrusted by construction.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.crypto.encoding import VALUE_HEADER, decode_payload, encode_value
from repro.exceptions import TransportError

__all__ = [
    "SnapshotFrame",
    "DeltaFrame",
    "AckFrame",
    "CursorAckFrame",
    "CursorProbeFrame",
    "QueryRequestFrame",
    "QueryResponseFrame",
    "HelloFrame",
    "ConfigFrame",
    "config_to_frame",
    "config_from_frame",
    "range_query_frame",
    "secondary_query_frame",
    "select_query_frame",
    "error_response",
    "FRAMES",
    "MAX_CURSORS",
    "MAX_FRAME_BYTES",
    "frame_to_bytes",
    "frame_from_bytes",
    "frame_kind",
    "frame_limit",
    "frame_reference",
]


# ---------------------------------------------------------------------------
# Frames — the field-by-field reference is the schema table below (and,
# generated from it, docs/ARCHITECTURE.md section 2); the docstrings
# here keep only what a table row cannot say.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotFrame:
    """A full replica transfer (bootstrap / gap / rotation / heal)."""

    table: str
    lsn: int
    epoch: int
    payload: bytes


@dataclass(frozen=True)
class DeltaFrame:
    """One sealed replica delta (or coalesced batch) for ``table``."""

    table: str
    payload: bytes


@dataclass(frozen=True)
class AckFrame:
    """Edge→central acknowledgement carrying the edge's cursor.

    Since cumulative acks (DESIGN.md section 10) this is the *immediate*
    reply: every rejection, and the control ack of a config refresh
    (``table == ""``).  ``reason`` is a code, not prose — ``stale``,
    ``gap``, ``tamper``, ``diverged``, ``config`` (unknown key epoch:
    re-send the config bundle, then retry), ``error``.
    """

    edge: str
    table: str
    ok: bool
    lsn: int
    epoch: int
    reason: str = ""


@dataclass(frozen=True)
class CursorAckFrame:
    """Edge→central cumulative acknowledgement (DESIGN.md section 10).

    One frame acknowledges *everything* the edge has applied: it
    carries the edge's per-table ``(lsn, epoch)`` cursors, and the
    fan-out engine treats any cursor ≥ a sent frame's LSN as
    acknowledging that frame and everything below it.  Edges emit it on
    a count/byte threshold (not per frame — the whole point), on heal
    boundaries (snapshot installs), and in reply to a
    :class:`CursorProbeFrame`; rejections still travel as immediate
    :class:`AckFrame` nacks, so coalescing can never mask a
    tamper/gap signal.
    """

    edge: str
    cursors: tuple[tuple[str, int, int], ...] = ()


@dataclass(frozen=True)
class CursorProbeFrame:
    """Central→edge ack solicitation (DESIGN.md section 10).

    A tiny control frame the fan-out engine sends when it needs the
    edge's cursors *now* (a settle point — ``drain(wait=True)``) and
    coalescing may be holding them back.  The edge answers immediately
    with a cumulative :class:`CursorAckFrame`.  One probe settles an
    entire pipelined window, which is what makes batched acks safe to
    wait on.
    """


@dataclass(frozen=True)
class QueryRequestFrame:
    """A client query addressed to an edge server: ``kind`` is
    ``range`` (primary-key range), ``select`` (general predicate, the
    only kind that carries ``predicate`` —
    :func:`repro.core.wire.predicate_to_bytes`) or ``secondary`` (range
    on an indexed ``attribute``)."""

    kind: str
    table: str
    attribute: Optional[str] = None
    low: Any = None
    high: Any = None
    columns: Optional[tuple[str, ...]] = None
    predicate: Optional[bytes] = None
    vo_format: Optional[str] = None


@dataclass(frozen=True)
class QueryResponseFrame:
    """An edge server's answer: a serialized authenticated result.

    Over a socket the edge *must* answer every frame, so failures
    travel as data (``error``, clipped to its bound where it is built —
    :func:`error_response`) instead of killing the serve loop.

    ``lsn`` / ``epoch`` echo the responding replica's cursor at answer
    time, and ``cursors`` piggybacks the same cumulative payload a
    :class:`CursorAckFrame` carries on a response the edge was sending
    anyway (DESIGN.md sections 9 and 10): routers use them as staleness
    hints for *every* replica, the deployment layer feeds them back
    into the fan-out engine's ack cursors.  Untrusted like everything
    from an edge — a lying cursor can only skew routing, never
    verification.
    """

    edge: str
    payload: bytes
    error: str = ""
    lsn: int = 0
    epoch: int = 0
    cursors: tuple[tuple[str, int, int], ...] = ()


@dataclass(frozen=True)
class HelloFrame:
    """Edge→central registration handshake (socket transport).

    Sent once per connection, before any other frame.  A freshly
    started edge process registers with an empty cursor list; an edge
    *re*-connecting after a transient disconnect reports the replica
    cursors it already holds so the central server can resume delta
    delivery instead of re-shipping snapshots.

    ``role`` is ``"edge"`` (the default) or ``"relay"``.  A relay dials
    upstream exactly like an edge but holds no replicas of its own — it
    stores and re-fans-out the signed frames verbatim (DESIGN.md
    section 13).  The field rides as *optional trailing bytes*: it is
    encoded only for non-default roles, so every plain edge's hello
    stays byte-identical to the pre-relay wire protocol.
    """

    edge: str
    cursors: tuple[tuple[str, int, int], ...] = ()
    role: str = "edge"


@dataclass(frozen=True)
class ConfigFrame:
    """Central→edge handshake reply: the public verification bundle.

    Carries exactly what :class:`~repro.edge.central.ClientConfig`
    holds — database name, digest policy, and the PKI key-ring records
    (public keys only) — plus the ack-coalescing policy the central
    server wants this edge to run with.  In a one-process simulation
    the bundle is passed as an object; over a socket it has to travel
    as bytes.

    ``shard_id`` (``-1`` = unsharded central) and ``shard_map``
    (:meth:`~repro.edge.sharding.ShardMap.to_wire` tuples, or ``None``)
    ride together as *optional trailing bytes*: they are encoded only
    when a map is present, so a single-shard deployment's config frame
    is byte-identical to the pre-sharding wire protocol.
    """

    db_name: str
    policy: str
    grace: int
    clock: int
    epochs: tuple[tuple[int, int, int, int, int], ...]
    ack_every: int = 1
    ack_bytes: int = 1 << 18
    shard_id: int = -1
    shard_map: tuple | None = None

    @property
    def current_epoch(self) -> int:
        """Newest key epoch the bundle carries (``-1`` if none) — what
        a listener seat records as *delivered* to the peer it admits."""
        return max((record[0] for record in self.epochs), default=-1)


def range_query_frame(
    table: str,
    low: Any = None,
    high: Any = None,
    columns: Optional[Sequence[str]] = None,
    vo_format=None,
) -> QueryRequestFrame:
    """A primary-key range query frame (shared by every query surface)."""
    return QueryRequestFrame(
        kind="range",
        table=table,
        low=low,
        high=high,
        columns=tuple(columns) if columns is not None else None,
        vo_format=getattr(vo_format, "value", vo_format),
    )


def secondary_query_frame(
    table: str,
    attribute: str,
    low: Any = None,
    high: Any = None,
    columns: Optional[Sequence[str]] = None,
    vo_format=None,
) -> QueryRequestFrame:
    """A secondary-index range query frame."""
    return QueryRequestFrame(
        kind="secondary",
        table=table,
        attribute=attribute,
        low=low,
        high=high,
        columns=tuple(columns) if columns is not None else None,
        vo_format=getattr(vo_format, "value", vo_format),
    )


def select_query_frame(
    table: str,
    predicate: bytes,
    columns: Optional[Sequence[str]] = None,
    vo_format=None,
) -> QueryRequestFrame:
    """A general-selection query frame (``predicate`` pre-serialized
    via :func:`repro.core.wire.predicate_to_bytes`)."""
    return QueryRequestFrame(
        kind="select",
        table=table,
        columns=tuple(columns) if columns is not None else None,
        predicate=predicate,
        vo_format=getattr(vo_format, "value", vo_format),
    )


def config_to_frame(
    config,
    ack_every: int = 1,
    ack_bytes: int = 1 << 18,
    shard_id: int = -1,
    shard_map: tuple | None = None,
) -> ConfigFrame:
    """Serialize a :class:`~repro.edge.central.ClientConfig` bundle
    plus the central server's ack-coalescing policy for this edge —
    and, in a sharded plane, the shard id and placement map wire
    tuples (:meth:`~repro.edge.sharding.ShardMap.to_wire`)."""
    ring = config.keyring
    return ConfigFrame(
        db_name=config.db_name,
        policy=config.policy.value,
        grace=ring.grace,
        clock=ring.now,
        epochs=tuple(
            (epoch, n, e, issued_at, -1 if expires_at is None else expires_at)
            for epoch, n, e, issued_at, expires_at in ring.export_records()
        ),
        ack_every=ack_every,
        ack_bytes=ack_bytes,
        shard_id=shard_id,
        shard_map=shard_map,
    )


def config_from_frame(frame: ConfigFrame):
    """Rebuild the verification bundle an edge process runs under."""
    from repro.core.digests import DigestPolicy
    from repro.crypto.keyring import KeyRing
    from repro.edge.central import ClientConfig

    ring = KeyRing.restore(
        [
            (epoch, n, e, issued_at, None if expires_at < 0 else expires_at)
            for epoch, n, e, issued_at, expires_at in frame.epochs
        ],
        grace=frame.grace,
        clock=frame.clock,
    )
    return ClientConfig(
        db_name=frame.db_name,
        policy=DigestPolicy(frame.policy),
        keyring=ring,
    )


Frame = Any  # union of the nine frame dataclasses


# ---------------------------------------------------------------------------
# Schema bounds — every length and count the frame layer reads is
# refused above one of these (why each: DESIGN.md section 19).
# ---------------------------------------------------------------------------

#: Node, replica, column, policy, kind and reason-code names.
MAX_NAME_BYTES = 255
#: Error text of a :class:`QueryResponseFrame`.
MAX_TEXT_BYTES = 1 << 10
#: A range bound or a serialized predicate.
MAX_SCALAR_BYTES = 1 << 16
#: A snapshot, delta or result payload — what keeps the socket ceiling
#: (:data:`MAX_FRAME_BYTES`) where the 1 GiB literal used to put it.
MAX_PAYLOAD_BYTES = 1 << 30
#: Entries in a cursor list (= replicas per node; the router bounds its
#: per-edge staleness hints by the same fact) and in a shard map.
MAX_CURSORS = 512
#: Names in a projection.
MAX_COLUMNS = 1024
#: Key-ring records in a config; each integer of a record fits an
#: 8192-bit modulus.
MAX_EPOCHS = 256
MAX_KEY_INT_BYTES = 1025
#: Integers per shard-map entry (a range entry holds ``nshards - 1``
#: boundaries), each a 64-bit key.
MAX_SHARDS = 256
MAX_SHARD_INT_BYTES = 9

_U32 = struct.Struct(">I")
_NONE = type(None)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class Primitive(NamedTuple):
    """One wire type: how a field is written, read, documented, bounded.

    ``encode(value, parts)`` appends the field's bytes to ``parts`` and
    ``decode(data, offset, out) -> offset`` appends what it read to
    ``out``; the two refuse the same values.  Whatever either raises that is not a ``TransportError`` —
    a decoder running off the end of ``data`` (``struct.error``,
    ``IndexError``), an encoder handed something it cannot even
    measure — :func:`frame_from_bytes` / :func:`frame_to_bytes` report
    as the ``TransportError`` it is.
    """

    wire: str        # "wire type" column of the generated doc tables
    bound: str       # "bound" column
    min_bytes: int   # fewest / most bytes one encoded field occupies
    max_bytes: int
    encode: Callable[[Any, list], None]
    decode: Callable[[bytes, int, list], int]


def _size(n: int) -> str:
    for unit, step in (("GiB", 1 << 30), ("KiB", 1 << 10)):
        if n % step == 0:
            return f"{n // step} {unit}"
    return f"{n} B"


def _encode_uint(value: Any, parts: list) -> None:
    if type(value) is not int or not 0 <= value <= 0xFFFFFFFF:
        raise TransportError(f"not a uint: {value!r:.40}")
    parts.append(_U32.pack(value))


def _decode_uint(data: bytes, offset: int, out: list) -> int:
    out.append(_U32.unpack_from(data, offset)[0])
    return offset + 4


def _byte(values: tuple) -> Primitive:
    """One raw byte, the index of the field's value in ``values`` — any
    other byte is non-canonical and refused."""
    kind = type(values[0])
    encoded = {value: bytes([index]) for index, value in enumerate(values)}

    def encode(value: Any, parts: list) -> None:
        if type(value) is not kind or value not in encoded:
            raise TransportError(f"not one of {values}: {value!r:.40}")
        parts.append(encoded[value])

    def decode(data: bytes, offset: int, out: list) -> int:
        if data[offset] >= len(values):
            raise TransportError(f"non-canonical byte {data[offset]} for {values}")
        out.append(values[data[offset]])
        return offset + 1

    bound = ", ".join(f"`{i}` = {v}" for i, v in enumerate(values))
    return Primitive("1 raw byte", bound, 1, 1, encode, decode)


def _value(kinds: tuple[type, ...], bound: int) -> Primitive:
    """A ``value`` field (tag + uint length + payload,
    :mod:`repro.crypto.encoding`) holding exactly one of ``kinds`` in
    at most ``bound`` payload bytes — the announced length is checked
    before the payload is touched."""

    def encode(value: Any, parts: list) -> None:
        if type(value) not in kinds:
            raise TransportError(f"{wire} cannot hold a {type(value).__name__}")
        data = encode_value(value)
        if len(data) - 5 > bound:
            raise TransportError(f"{wire} exceeds {_size(bound)}")
        parts.append(data)

    def decode(data: bytes, offset: int, out: list) -> int:
        tag, length = header(data, offset)
        start = offset + 5
        end = start + length
        if length > bound or end > len(data):
            raise TransportError(f"{wire} exceeds {_size(bound)} or the frame")
        value = decode_payload(tag, data[start:end])
        if type(value) not in kinds:
            raise TransportError(f"{wire} cannot hold a {type(value).__name__}")
        out.append(value)
        return end

    header = VALUE_HEADER.unpack_from
    names = "/".join("None" if k is _NONE else k.__name__ for k in kinds)
    wire = "value" if len(kinds) > 2 else f"value ({names})"
    return Primitive(wire, f"≤ {_size(bound)}", 5, 5 + bound, encode, decode)


def _record(*prims: Primitive) -> Primitive:
    """A fixed run of fields, as a tuple."""
    writers = tuple(p.encode for p in prims)
    readers = tuple(p.decode for p in prims)

    def encode(values: Sequence, parts: list) -> None:
        for write, value in zip(writers, values, strict=True):
            write(value, parts)

    def decode(data: bytes, offset: int, out: list) -> int:
        fields: list = []
        for read in readers:
            offset = read(data, offset, fields)
        out.append(tuple(fields))
        return offset

    return Primitive(
        ", ".join(p.wire for p in prims),
        ", ".join(p.bound for p in prims),
        sum(p.min_bytes for p in prims),
        sum(p.max_bytes for p in prims),
        encode, decode,
    )


def _listof(item: Primitive, most: int) -> Primitive:
    """``uint count`` then ``count`` items, as a tuple.  The count is
    refused above ``most`` and above what the remaining bytes can hold
    — before the loop runs."""
    write, read, least = item.encode, item.decode, item.min_bytes

    def encode(items: Sequence, parts: list) -> None:
        if len(items) > most:
            raise TransportError(f"{len(items)} entries exceed the bound {most}")
        parts.append(_U32.pack(len(items)))
        for item in items:
            write(item, parts)

    def decode(data: bytes, offset: int, out: list) -> int:
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        if count > most or count * least > len(data) - offset:
            raise TransportError(f"implausible count {count} (bound {most})")
        items: list = []
        for _ in range(count):
            offset = read(data, offset, items)
        out.append(tuple(items))
        return offset

    return Primitive(
        f"uint count, then count × ({item.wire})",
        f"≤ {most} entries ({item.bound})",
        4, 4 + most * item.max_bytes, encode, decode,
    )


UINT = Primitive("uint", "< 2³²", 4, 4, _encode_uint, _decode_uint)
FLAG = _byte((False, True))
NAME = _value((str,), MAX_NAME_BYTES)
OPT_NAME = _value((str, _NONE), MAX_NAME_BYTES)
TEXT = _value((str,), MAX_TEXT_BYTES)
PAYLOAD = _value((bytes,), MAX_PAYLOAD_BYTES)
OPT_BYTES = _value((bytes, _NONE), MAX_SCALAR_BYTES)
SCALAR = _value((_NONE, bool, int, float, str, bytes), MAX_SCALAR_BYTES)
CURSORS = _listof(_record(NAME, UINT, UINT), MAX_CURSORS)._replace(
    wire="cursor list (section 1)", bound=f"≤ {MAX_CURSORS} entries"
)
_KEY_INT = _value((int,), MAX_KEY_INT_BYTES)
EPOCHS = _listof(_record(*[_KEY_INT] * 5), MAX_EPOCHS)._replace(
    wire="uint count, then 5 × value (int) per record",
    bound=f"≤ {MAX_EPOCHS} records, each int {_KEY_INT.bound}",
)

_NAMES = _listof(NAME, MAX_COLUMNS)


def _encode_columns(columns: Optional[Sequence[str]], parts: list) -> None:
    parts.append(b"\x00" if columns is None else b"\x01")
    _NAMES.encode(columns or (), parts)


def _decode_columns(data: bytes, offset: int, out: list) -> int:
    present = data[offset]
    if present > 1:
        raise TransportError(f"non-canonical projection flag {present}")
    offset = _NAMES.decode(data, offset + 1, out)
    if not present:
        if out[-1]:
            raise TransportError("an absent projection carries no names")
        out[-1] = None
    return offset


COLUMNS = Primitive(
    "1 raw byte (`1` = a projection; `0` = all columns, count 0), "
    + _NAMES.wire,
    f"≤ {MAX_COLUMNS} names",
    5, 1 + _NAMES.max_bytes, _encode_columns, _decode_columns,
)

_SHARD_INT = _value((int,), MAX_SHARD_INT_BYTES)
_PLACEMENT = _record(  # one ShardMap.to_wire() entry
    NAME, _byte(("hash", "range")), _listof(_SHARD_INT, MAX_SHARDS)
)
_SHARD_MAP = _record(  # version, nshards, seed, entries
    UINT, UINT, _SHARD_INT, _listof(_PLACEMENT, MAX_CURSORS)
)


def _encode_shards(group: tuple[int, Optional[tuple]], parts: list) -> None:
    shard_id, shard_map = group
    if shard_map is not None:  # a shard id travels only alongside a map
        _encode_uint(shard_id + 1, parts)  # -1 → 0
        _SHARD_MAP.encode(shard_map, parts)


def _decode_shards(data: bytes, offset: int, out: list) -> int:
    if offset == len(data):  # absent: exactly the pre-sharding encoding
        out += (-1, None)
        return offset
    offset = _decode_uint(data, offset, out)
    out[-1] -= 1
    return _SHARD_MAP.decode(data, offset, out)


SHARDS = Primitive(
    "uint shard id + 1, then the shard map (layout below); "
    "**optional trailing**, both or neither",
    f"≤ {MAX_CURSORS} entries of ≤ {MAX_SHARDS} ints, each {_SHARD_INT.bound}",
    0, 4 + _SHARD_MAP.max_bytes, _encode_shards, _decode_shards,
)

_ROLES = ("edge", "relay")  # the first is the default and never encoded


def _encode_role(role: Any, parts: list) -> None:
    if role not in _ROLES:
        raise TransportError(f"unknown role {role!r:.40}")
    if role != _ROLES[0]:
        NAME.encode(role, parts)


def _decode_role(data: bytes, offset: int, out: list) -> int:
    if offset == len(data):  # absent: exactly the pre-relay encoding
        out.append(_ROLES[0])
        return offset
    offset = NAME.decode(data, offset, out)
    if out[-1] not in _ROLES[1:]:
        raise TransportError(f"unknown or non-canonical role {out[-1]!r:.40}")
    return offset


ROLE = Primitive(
    "value (str), **optional trailing**", "`relay` (absent = `edge`)",
    0, NAME.max_bytes, _encode_role, _decode_role,
)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class FrameSpec(NamedTuple):
    """One frame, declared once.

    ``direction`` is ``down`` (central → relay → edge) or ``up``;
    ``kind`` is the byte-accounting kind of
    :class:`~repro.edge.network.Channel` transfers.  A field row is
    ``(name, primitive, meaning)``; the one primitive that spans two
    dataclass fields (:data:`SHARDS`) names both, space-separated.
    """

    tag: int
    cls: type
    direction: str
    kind: str
    purpose: str
    fields: tuple[tuple[str, Primitive, str], ...]


FRAMES: tuple[FrameSpec, ...] = (
    FrameSpec(0, SnapshotFrame, "down", "snapshot", "full replica transfer", (
        ("table", NAME, "replica name (table, join view, or index)"),
        ("lsn", UINT, "delta-log cursor the snapshot corresponds to"),
        ("epoch", UINT, "key epoch of every signature in the payload"),
        ("payload", PAYLOAD, "`snapshot_to_bytes` output (layout below)"),
    )),
    FrameSpec(1, DeltaFrame, "down", "delta", "sealed replica delta (or batch)", (
        ("table", NAME, "replica the delta applies to"),
        ("payload", PAYLOAD, "sealed body + signature (layout below)"),
    )),
    FrameSpec(2, AckFrame, "up", "ack", "per-table ack / immediate nack", (
        ("edge", NAME, "responding peer's name"),
        ("table", NAME, 'replica the ack refers to (`""` = control ack)'),
        ("ok", FLAG, "applied, or rejected"),
        ("lsn", UINT, "the peer's cursor for `table` after processing"),
        ("epoch", UINT, "the peer's replica epoch after processing"),
        ("reason", NAME, '`""` when ok, else a reason code (listed below)'),
    )),
    FrameSpec(3, QueryRequestFrame, "down", "query", "client query to an edge", (
        ("kind", NAME, "`range`, `select`, or `secondary`"),
        ("table", NAME, "base table / view name"),
        ("attribute", OPT_NAME, "indexed attribute (`secondary` only)"),
        ("low", SCALAR, "range lower bound (or None)"),
        ("high", SCALAR, "range upper bound (or None)"),
        ("columns", COLUMNS, "projection column names, or None for all"),
        ("predicate", OPT_BYTES, "serialized predicate (`select` only)"),
        ("vo_format", OPT_NAME, "VO format override"),
    )),
    FrameSpec(4, QueryResponseFrame, "up", "payload", "authenticated result", (
        ("edge", NAME, "responding edge's name"),
        ("payload", PAYLOAD, '`result_to_bytes` output (`b""` on error)'),
        ("error", TEXT, 'why the query failed (`""` on success)'),
        ("lsn", UINT, "cursor echo: replica cursor at answer time"),
        ("epoch", UINT, "cursor echo: replica epoch at answer time"),
        ("cursors", CURSORS, "piggybacked cumulative cursors (untrusted)"),
    )),
    FrameSpec(5, HelloFrame, "up", "control", "registration handshake (first)", (
        ("edge", NAME, "the dialing peer's name"),
        ("cursors", CURSORS, "replica cursors held (empty = fresh start)"),
        ("role", ROLE, '`"edge"` (default) or `"relay"`'),
    )),
    FrameSpec(6, ConfigFrame, "down", "control", "verification bundle (reply)", (
        ("db_name", NAME, "logical database name (hashed into digests)"),
        ("policy", NAME, "digest policy value string"),
        ("grace", UINT, "key-ring grace window"),
        ("clock", UINT, "key-ring logical clock"),
        ("epochs", EPOCHS, "`(epoch, n, e, issued_at, expires_at or −1)`"),
        ("ack_every", UINT, "ack-coalescing frame threshold (1 = every)"),
        ("ack_bytes", UINT, "ack-coalescing byte threshold"),
        ("shard_id shard_map", SHARDS, "owning shard (−1 = none) and map"),
    )),
    FrameSpec(7, CursorAckFrame, "up", "ack", "cumulative batched ack", (
        ("edge", NAME, "responding peer's name"),
        ("cursors", CURSORS, "per-table `(lsn, epoch)`, cumulative"),
    )),
    FrameSpec(8, CursorProbeFrame, "down", "control", "ack solicitation", ()),
)


# ---------------------------------------------------------------------------
# Derived: codec, accounting kinds, size limits, doc tables
# ---------------------------------------------------------------------------


def _codec(spec: FrameSpec) -> tuple[Callable, Callable]:
    """The ``(encode, decode)`` closures of one schema row.

    Raises:
        TypeError: If the row's field names are not exactly the
            dataclass's fields, in order — at import, so the two
            cannot drift.
    """
    declared = [n for name, _prim, _meaning in spec.fields for n in name.split()]
    actual = [f.name for f in dataclasses.fields(spec.cls)]
    if declared != actual:
        raise TypeError(
            f"schema row of {spec.cls.__name__} names {declared}, "
            f"the dataclass has {actual}"
        )
    tag = bytes([spec.tag])
    cls = spec.cls
    writers = tuple(
        (prim.encode, attrgetter(*name.split()))
        for name, prim, _meaning in spec.fields
    )
    readers = tuple(prim.decode for _name, prim, _meaning in spec.fields)

    def encode(frame: Frame) -> bytes:
        parts = [tag]
        for write, get in writers:
            write(get(frame), parts)
        return b"".join(parts)

    def decode(data: bytes) -> Frame:
        out: list = []
        offset = 1
        for read in readers:
            offset = read(data, offset, out)
        if offset != len(data):
            raise TransportError(f"{len(data) - offset} trailing frame bytes")
        return cls(*out)

    return encode, decode


_ENCODERS, _DECODERS, _KINDS, _LIMITS = {}, {}, {}, {}
for _spec in FRAMES:
    _ENCODERS[_spec.cls], _DECODERS[_spec.tag] = _codec(_spec)
    _KINDS[_spec.cls] = _spec.kind
    _LIMITS[_spec.cls] = 1 + sum(prim.max_bytes for _n, prim, _m in _spec.fields)

#: The largest frame the schema admits — the ceiling of every served
#: link's length header (a snapshot of a large replica is a few MB;
#: anything near this is a corrupted or hostile announce).
MAX_FRAME_BYTES = max(_LIMITS.values())


def frame_kind(frame: Frame) -> str:
    """The transfer-accounting kind for ``frame``."""
    return _KINDS[type(frame)]


def frame_limit(cls: type) -> int:
    """The most bytes a well-formed frame of type ``cls`` can occupy —
    what a reader that knows which frame comes next (the handshake)
    accepts at the length header."""
    return _LIMITS[cls]


def frame_to_bytes(frame: Frame) -> bytes:
    """Serialize any transport frame (1-byte tag + typed fields).

    Raises:
        TransportError: For a non-frame, a field of the wrong type, or
            a length or count above its schema bound — whatever
            :func:`frame_from_bytes` would refuse.
    """
    try:
        encode = _ENCODERS[type(frame)]
    except KeyError:
        raise TransportError(
            f"cannot serialize frame {type(frame).__name__}"
        ) from None
    try:
        return encode(frame)
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(f"unencodable frame: {exc}") from exc


def frame_from_bytes(data: bytes) -> Frame:
    """Parse the serialization produced by :func:`frame_to_bytes`.

    Raises:
        TransportError: On an empty, unknown-tag, truncated, mistyped,
            over-bound or trailing-byte payload — never anything else.
    """
    if not data:
        raise TransportError("empty frame")
    try:
        decode = _DECODERS[data[0]]
    except KeyError:
        raise TransportError(f"unknown frame tag {data[0]}") from None
    try:
        return decode(data)
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(f"malformed frame: {exc}") from exc


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [header, ["---"] * len(header), *rows]
    return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)


def frame_reference() -> dict[str, str]:
    """The generated blocks of ``docs/ARCHITECTURE.md`` section 2:
    ``"catalog"`` plus one field table per frame class name."""
    blocks = {"catalog": _table(
        ["tag", "frame", "direction", "accounting kind", "at most", "purpose"],
        [[str(s.tag), f"`{s.cls.__name__}`", s.direction, s.kind,
          f"{_LIMITS[s.cls]} B", s.purpose] for s in FRAMES],
    )}
    for spec in FRAMES:
        blocks[spec.cls.__name__] = _table(
            ["field", "wire type", "bound", "meaning"],
            [[", ".join(f"`{n}`" for n in name.split()), prim.wire,
              prim.bound, meaning] for name, prim, meaning in spec.fields],
        ) if spec.fields else "Tag byte only — no fields."
    return blocks


def error_response(edge: str, error: str) -> QueryResponseFrame:
    """The reply to a request that could not be answered.  The text is
    usually an exception message, which a peer can make arbitrarily
    long, so it is clipped to the ``error`` field's bound here, where
    it is built — the reply must always encode."""
    raw = error.encode("utf-8", "replace")[:MAX_TEXT_BYTES]
    return QueryResponseFrame(
        edge=edge, payload=b"", error=raw.decode("utf-8", "ignore")
    )
