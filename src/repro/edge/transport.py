"""Message transport between the central server and its edge servers.

The paper's security model (Section 3.1, Figure 2) places edge servers
*outside* the trust boundary: the central DBMS must be reachable from an
edge only through an authenticated message channel, never through shared
objects.  This module is that boundary.  All central↔edge traffic —
snapshot transfers, replica delta batches, acknowledgements, and query
request/responses — travels as typed, wire-serializable **frames** over
a pluggable :class:`Transport`.

The in-process implementation (:class:`InProcessTransport`) absorbs the
byte/latency accounting that used to live on raw
:class:`~repro.edge.network.Channel` objects (one channel per
direction), and adds **fault injection** so the fan-out engine's flow
control and healing paths can be exercised deterministically:

* ``partitioned`` — the link is down; sends fail outright.
* ``drop_next`` — the next N frames are lost in flight (bytes leave the
  sender but never reach the edge, and no ack comes back).
* ``hold`` — a slow edge: frames queue in the link instead of being
  delivered; they drain on :meth:`InProcessTransport.flush` once the
  fault clears.  Combined with the fan-out engine's bounded in-flight
  window this models per-edge backpressure.

A real-socket transport only needs to reimplement
``send``/``flush``/``poll``/``request`` over its medium; the frame
codec is already byte-exact.  One exists: the event-loop
:class:`~repro.edge.event_loop.ReactorTransport`, which honours the
same three fault states by gating its connection's outbound queue (see
:attr:`FaultInjector.blocks_delivery`).

Role and ownership: the codec is shared vocabulary, not a seat — the
same nine frames serve central→edge links, central→relay links, and
relay→edge links (the relay forwards replication frames *verbatim*,
which is why byte-exactness is a protocol property and not a bench
nicety).  Nothing in this module holds a signing key or verifies a
signature: integrity lives inside the payloads (signed deltas,
snapshots, VOs), so the transport layer — and anything that can
read/modify it, a relay included — is untrusted by construction.  A
``Transport`` instance belongs to the single sender thread that calls
``send``/``flush``; concurrency, where it exists, is the medium's
concern (the reactor's queue lock, the TCP transport's per-connection
thread), never the codec's.  The authoritative field tables for every
frame live in ``docs/ARCHITECTURE.md`` (enforced by
``tools/check_docs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.crypto.encoding import (
    decode_uint,
    decode_value,
    decode_values,
    encode_uint,
    encode_value,
    encode_values,
)
from repro.edge.network import Channel, Transfer
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
    "frame_to_bytes",
    "frame_from_bytes",
    "FaultInjector",
    "SendOutcome",
    "Transport",
    "InProcessTransport",
]


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotFrame:
    """A full replica transfer (bootstrap / gap / rotation / heal).

    Attributes:
        table: Replica name (base table, join view, or secondary index).
        lsn: Delta-log cursor the snapshot corresponds to.
        epoch: Key epoch every signature in the payload was issued under.
        naive: Whether the edge should also maintain the Naive
            baseline's per-tuple signature store for this replica (the
            payload already carries the signed tuple/attribute digests
            the store needs).
        payload: :func:`repro.core.wire.snapshot_to_bytes` output.
    """

    table: str
    lsn: int
    epoch: int
    naive: bool
    payload: bytes


@dataclass(frozen=True)
class DeltaFrame:
    """One sealed replica delta (or coalesced batch) for ``table``."""

    table: str
    payload: bytes


@dataclass(frozen=True)
class AckFrame:
    """Edge→central acknowledgement carrying the edge's cursor.

    Attributes:
        edge: Responding edge server's name.
        table: Replica the ack refers to.
        ok: True if the frame was applied.
        lsn: The edge's delta cursor for ``table`` *after* processing.
        epoch: Key epoch of the edge's replica after processing.
        reason: Nack reason code (``""`` when ok) — one of ``stale``,
            ``gap``, ``tamper``, ``diverged``, ``config`` (unknown key
            epoch: re-send the config bundle, then retry), ``error``.
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

    Attributes:
        edge: Responding edge server's name.
        cursors: ``(table, lsn, epoch)`` for every replica the edge
            holds — cumulative, never incremental.
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
    """A client query addressed to an edge server.

    Attributes:
        kind: ``range`` (primary-key range), ``select`` (general
            predicate), or ``secondary`` (range on an indexed
            attribute).
        table: Base table / view name.
        attribute: Indexed attribute (``secondary`` only).
        low/high: Range bounds (``range``/``secondary``).
        columns: Projection, or ``None`` for all columns.
        predicate: Serialized predicate (``select`` only) — see
            :func:`repro.core.wire.predicate_to_bytes`.
        vo_format: VO format name override, or ``None`` for the default.
    """

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

    Attributes:
        edge: Responding edge server's name.
        payload: :func:`repro.core.wire.result_to_bytes` output (empty
            when the query was rejected).
        error: Why the query could not be answered (``""`` on
            success) — e.g. a replica this edge does not hold.  Over a
            socket the edge *must* answer every frame, so failures
            travel as data instead of killing the serve loop.
        lsn: Cursor echo — the responding replica's delta cursor at
            answer time.  Clients (the query router) use it as a
            staleness hint: it costs two varint bytes and saves a
            central round-trip per freshness decision.  Untrusted like
            everything from an edge — a lying cursor can only skew
            routing, never verification.
        epoch: Cursor echo — the replica's key epoch at answer time.
        cursors: Piggybacked cumulative cursors — the same
            ``(table, lsn, epoch)`` payload a
            :class:`CursorAckFrame` carries, riding on a response the
            edge was sending anyway (DESIGN.md section 10).  Routers
            feed them into per-edge staleness hints for *every* replica
            (not just the queried one), and the deployment layer feeds
            them back into the fan-out engine's ack cursors.  Untrusted,
            exactly like the ``lsn`` echo.
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

    Attributes:
        edge: The edge server's name (transport link label).
        cursors: ``(table, lsn, epoch)`` per replica the edge holds.
        role: ``"edge"`` (the default) or ``"relay"``.  A relay dials
            upstream exactly like an edge but holds no replicas of its
            own — it stores and re-fans-out the signed frames verbatim
            (DESIGN.md section 13).  The field rides as *optional
            trailing bytes*: it is encoded only for non-default roles,
            so every plain edge's hello stays byte-identical to the
            pre-relay wire protocol.
    """

    edge: str
    cursors: tuple[tuple[str, int, int], ...] = ()
    role: str = "edge"


@dataclass(frozen=True)
class ConfigFrame:
    """Central→edge handshake reply: the public verification bundle.

    Carries exactly what :class:`~repro.edge.central.ClientConfig`
    holds — database name, digest policy, and the PKI key-ring records
    (public keys only).  In a one-process simulation the bundle is
    passed as an object; over a socket it has to travel as bytes.

    Attributes:
        db_name: Logical database name (hashed into every digest).
        policy: Digest policy value string.
        grace: Key-ring grace window.
        clock: Key-ring logical clock.
        epochs: ``(epoch, n, e, issued_at, expires_at)`` records;
            ``expires_at`` is ``-1`` for still-current epochs.
        ack_every: Ack-coalescing frame threshold the central server
            wants this edge to run with (1 = acknowledge every frame,
            the pre-batching cadence).
        ack_bytes: Ack-coalescing byte threshold — an ack is emitted
            once this many replication payload bytes have been absorbed
            unacknowledged, whatever the frame count.
        shard_id: Which signer shard this bundle belongs to (``-1`` =
            unsharded central — the default, and the only value a
            pre-sharding peer ever sees).
        shard_map: The sharded plane's versioned placement map as
            :meth:`~repro.edge.sharding.ShardMap.to_wire` tuples, or
            ``None``.  Both shard fields ride as *optional trailing
            bytes*: they are encoded only when a map is present, so a
            single-shard deployment's config frame is byte-identical
            to the pre-sharding wire protocol.
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

_FRAME_SNAPSHOT = 0
_FRAME_DELTA = 1
_FRAME_ACK = 2
_FRAME_QUERY = 3
_FRAME_RESPONSE = 4
_FRAME_HELLO = 5
_FRAME_CONFIG = 6
_FRAME_CURSOR_ACK = 7
_FRAME_CURSOR_PROBE = 8

#: Channel transfer kind per frame type (byte accounting breakdown).
_FRAME_KINDS = {
    SnapshotFrame: "snapshot",
    DeltaFrame: "delta",
    AckFrame: "ack",
    CursorAckFrame: "ack",
    CursorProbeFrame: "control",
    QueryRequestFrame: "query",
    QueryResponseFrame: "payload",
    HelloFrame: "control",
    ConfigFrame: "control",
}


def _encode_cursors(cursors: Sequence[tuple[str, int, int]]) -> bytes:
    """Shared ``(table, lsn, epoch)`` list encoding (hello / acks)."""
    parts = [encode_uint(len(cursors))]
    for table, lsn, epoch in cursors:
        parts.append(encode_value(table))
        parts.append(encode_uint(lsn))
        parts.append(encode_uint(epoch))
    return b"".join(parts)


def _decode_cursors(
    data: bytes, offset: int
) -> tuple[tuple[tuple[str, int, int], ...], int]:
    count, offset = decode_uint(data, offset)
    cursors = []
    for _ in range(count):
        table, offset = decode_value(data, offset)
        lsn, offset = decode_uint(data, offset)
        epoch, offset = decode_uint(data, offset)
        cursors.append((table, lsn, epoch))
    return tuple(cursors), offset


def frame_kind(frame: Frame) -> str:
    """The transfer-accounting kind for ``frame``."""
    return _FRAME_KINDS[type(frame)]


def frame_to_bytes(frame: Frame) -> bytes:
    """Serialize any transport frame (1-byte tag + typed fields)."""
    if isinstance(frame, SnapshotFrame):
        return b"".join(
            (
                bytes([_FRAME_SNAPSHOT]),
                encode_value(frame.table),
                encode_uint(frame.lsn),
                encode_uint(frame.epoch),
                bytes([1 if frame.naive else 0]),
                encode_value(frame.payload),
            )
        )
    if isinstance(frame, DeltaFrame):
        return b"".join(
            (
                bytes([_FRAME_DELTA]),
                encode_value(frame.table),
                encode_value(frame.payload),
            )
        )
    if isinstance(frame, AckFrame):
        return b"".join(
            (
                bytes([_FRAME_ACK]),
                encode_value(frame.edge),
                encode_value(frame.table),
                bytes([1 if frame.ok else 0]),
                encode_uint(frame.lsn),
                encode_uint(frame.epoch),
                encode_value(frame.reason),
            )
        )
    if isinstance(frame, QueryRequestFrame):
        return b"".join(
            (
                bytes([_FRAME_QUERY]),
                encode_value(frame.kind),
                encode_value(frame.table),
                encode_value(frame.attribute),
                encode_value(frame.low),
                encode_value(frame.high),
                bytes([0 if frame.columns is None else 1]),
                encode_values(frame.columns or ()),
                encode_value(frame.predicate),
                encode_value(frame.vo_format),
            )
        )
    if isinstance(frame, QueryResponseFrame):
        return b"".join(
            (
                bytes([_FRAME_RESPONSE]),
                encode_value(frame.edge),
                encode_value(frame.payload),
                encode_value(frame.error),
                encode_uint(frame.lsn),
                encode_uint(frame.epoch),
                _encode_cursors(frame.cursors),
            )
        )
    if isinstance(frame, CursorAckFrame):
        return b"".join(
            (
                bytes([_FRAME_CURSOR_ACK]),
                encode_value(frame.edge),
                _encode_cursors(frame.cursors),
            )
        )
    if isinstance(frame, CursorProbeFrame):
        return bytes([_FRAME_CURSOR_PROBE])
    if isinstance(frame, HelloFrame):
        parts = [
            bytes([_FRAME_HELLO]),
            encode_value(frame.edge),
            _encode_cursors(frame.cursors),
        ]
        if frame.role != "edge":
            # Optional trailing role byte(s): absent for plain edges,
            # so their hello stays byte-identical to the pre-relay
            # protocol (and a pre-relay decoder would accept it).
            parts.append(encode_value(frame.role))
        return b"".join(parts)
    if isinstance(frame, ConfigFrame):
        parts = [
            bytes([_FRAME_CONFIG]),
            encode_value(frame.db_name),
            encode_value(frame.policy),
            encode_uint(frame.grace),
            encode_uint(frame.clock),
            encode_uint(len(frame.epochs)),
        ]
        for record in frame.epochs:
            parts.extend(encode_value(field_) for field_ in record)
        parts.append(encode_uint(frame.ack_every))
        parts.append(encode_uint(frame.ack_bytes))
        if frame.shard_map is not None:
            # Optional trailing shard fields: absent for an unsharded
            # central, so the single-shard frame stays byte-identical
            # to the pre-sharding protocol (and a pre-sharding decoder
            # would accept it unchanged).
            parts.append(encode_uint(frame.shard_id + 1))  # -1 → 0
            parts.append(_encode_shard_map(frame.shard_map))
        return b"".join(parts)
    raise TransportError(f"cannot serialize frame {type(frame).__name__}")


def _encode_shard_map(wire: tuple) -> bytes:
    """Encode :meth:`~repro.edge.sharding.ShardMap.to_wire` tuples."""
    version, nshards, seed, entries = wire
    parts = [
        encode_uint(version),
        encode_uint(nshards),
        encode_value(seed),
        encode_uint(len(entries)),
    ]
    for name, kind, payload in entries:
        parts.append(encode_value(name))
        parts.append(bytes([0 if kind == "hash" else 1]))
        parts.append(encode_uint(len(payload)))
        parts.extend(encode_value(v) for v in payload)
    return b"".join(parts)


def _decode_shard_map(data: bytes, offset: int) -> tuple[tuple, int]:
    version, offset = decode_uint(data, offset)
    nshards, offset = decode_uint(data, offset)
    seed, offset = decode_value(data, offset)
    count, offset = decode_uint(data, offset)
    entries = []
    for _ in range(count):
        name, offset = decode_value(data, offset)
        kind = "hash" if data[offset] == 0 else "range"
        offset += 1
        width, offset = decode_uint(data, offset)
        payload = []
        for _ in range(width):
            value, offset = decode_value(data, offset)
            payload.append(value)
        entries.append((name, kind, tuple(payload)))
    return (version, nshards, seed, tuple(entries)), offset


def frame_from_bytes(data: bytes) -> Frame:
    """Parse the serialization produced by :func:`frame_to_bytes`.

    Raises:
        TransportError: On an empty, unknown-tag, or trailing-byte
            payload.
    """
    if not data:
        raise TransportError("empty frame")
    tag = data[0]
    offset = 1
    try:
        if tag == _FRAME_SNAPSHOT:
            table, offset = decode_value(data, offset)
            lsn, offset = decode_uint(data, offset)
            epoch, offset = decode_uint(data, offset)
            naive = bool(data[offset])
            offset += 1
            payload, offset = decode_value(data, offset)
            frame: Frame = SnapshotFrame(
                table=table, lsn=lsn, epoch=epoch, naive=naive, payload=payload
            )
        elif tag == _FRAME_DELTA:
            table, offset = decode_value(data, offset)
            payload, offset = decode_value(data, offset)
            frame = DeltaFrame(table=table, payload=payload)
        elif tag == _FRAME_ACK:
            edge, offset = decode_value(data, offset)
            table, offset = decode_value(data, offset)
            ok = bool(data[offset])
            offset += 1
            lsn, offset = decode_uint(data, offset)
            epoch, offset = decode_uint(data, offset)
            reason, offset = decode_value(data, offset)
            frame = AckFrame(
                edge=edge, table=table, ok=ok, lsn=lsn, epoch=epoch,
                reason=reason,
            )
        elif tag == _FRAME_QUERY:
            kind, offset = decode_value(data, offset)
            table, offset = decode_value(data, offset)
            attribute, offset = decode_value(data, offset)
            low, offset = decode_value(data, offset)
            high, offset = decode_value(data, offset)
            has_columns = bool(data[offset])
            offset += 1
            columns, offset = decode_values(data, offset)
            predicate, offset = decode_value(data, offset)
            vo_format, offset = decode_value(data, offset)
            frame = QueryRequestFrame(
                kind=kind,
                table=table,
                attribute=attribute,
                low=low,
                high=high,
                columns=tuple(columns) if has_columns else None,
                predicate=predicate,
                vo_format=vo_format,
            )
        elif tag == _FRAME_RESPONSE:
            edge, offset = decode_value(data, offset)
            payload, offset = decode_value(data, offset)
            error, offset = decode_value(data, offset)
            lsn, offset = decode_uint(data, offset)
            epoch, offset = decode_uint(data, offset)
            cursors, offset = _decode_cursors(data, offset)
            frame = QueryResponseFrame(
                edge=edge, payload=payload, error=error, lsn=lsn,
                epoch=epoch, cursors=cursors,
            )
        elif tag == _FRAME_CURSOR_ACK:
            edge, offset = decode_value(data, offset)
            cursors, offset = _decode_cursors(data, offset)
            frame = CursorAckFrame(edge=edge, cursors=cursors)
        elif tag == _FRAME_CURSOR_PROBE:
            frame = CursorProbeFrame()
        elif tag == _FRAME_HELLO:
            edge, offset = decode_value(data, offset)
            cursors, offset = _decode_cursors(data, offset)
            # Optional trailing role field (relays only) — its absence
            # is exactly the pre-relay encoding.
            role = "edge"
            if offset < len(data):
                role, offset = decode_value(data, offset)
            frame = HelloFrame(edge=edge, cursors=cursors, role=role)
        elif tag == _FRAME_CONFIG:
            db_name, offset = decode_value(data, offset)
            policy, offset = decode_value(data, offset)
            grace, offset = decode_uint(data, offset)
            clock, offset = decode_uint(data, offset)
            count, offset = decode_uint(data, offset)
            epochs = []
            for _ in range(count):
                record = []
                for _field in range(5):
                    value, offset = decode_value(data, offset)
                    record.append(value)
                epochs.append(tuple(record))
            ack_every, offset = decode_uint(data, offset)
            ack_bytes, offset = decode_uint(data, offset)
            # Optional trailing shard fields (sharded planes only) —
            # their absence is exactly the pre-sharding encoding.
            shard_id, shard_map = -1, None
            if offset < len(data):
                raw_shard, offset = decode_uint(data, offset)
                shard_id = raw_shard - 1
                shard_map, offset = _decode_shard_map(data, offset)
            frame = ConfigFrame(
                db_name=db_name, policy=policy, grace=grace, clock=clock,
                epochs=tuple(epochs), ack_every=ack_every,
                ack_bytes=ack_bytes, shard_id=shard_id,
                shard_map=shard_map,
            )
        else:
            raise TransportError(f"unknown frame tag {tag}")
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(f"malformed frame: {exc}") from exc
    if offset != len(data):
        raise TransportError(f"{len(data) - offset} trailing frame bytes")
    return frame


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


@dataclass
class FaultInjector:
    """Mutable fault state of one link (see module docstring).

    Attributes:
        partitioned: Link down; sends fail, nothing leaves the sender.
        drop_next: Lose the next N frames in flight.
        hold: Queue frames instead of delivering (slow edge); they
            drain on :meth:`InProcessTransport.flush` once cleared.
        delay: Per-frame latency shaping, in seconds.  The in-process
            link models it as a one-flush delivery delay (the frame is
            queued like a held frame but drains on the *next* flush
            even while the fault persists — a slow link, not a wedged
            one); the reactor parks the connection's queue until the
            deadline passes without ever blocking the loop.
    """

    partitioned: bool = False
    drop_next: int = 0
    hold: bool = False
    delay: float = 0.0

    @property
    def blocks_delivery(self) -> bool:
        """True while queued frames must stay in the link.

        Both the held (slow-edge) and partitioned states park a
        reactor connection's outbound queue — the event loop skips it
        entirely, so a faulted edge costs zero syscalls per spin and
        can never delay a healthy edge's flush (DESIGN.md section 11).
        """
        return self.partitioned or self.hold

    def clear(self) -> None:
        """Return the link to healthy operation."""
        self.partitioned = False
        self.drop_next = 0
        self.hold = False
        self.delay = 0.0


@dataclass
class SendOutcome:
    """What happened to one sent frame.

    Attributes:
        status: ``delivered`` (processed by the peer, ``replies``
            populated), ``queued`` (in the link, ack pending),
            ``dropped`` (lost in flight), or ``failed`` (partitioned —
            nothing left the sender).
        replies: Frames the peer sent back (delivered sends only).
        transfer: Byte/latency accounting record (absent when failed).
    """

    status: str
    replies: list = field(default_factory=list)
    transfer: Optional[Transfer] = None

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"


class Transport:
    """Abstract point-to-point frame transport (central/client side).

    Concrete transports implement :meth:`send` and :meth:`flush`; the
    edge side registers a frame handler via :meth:`connect` (in-process)
    or speaks the same frames over a socket
    (:mod:`repro.edge.socket_transport`).

    Byte metering lives *here*, not in the concrete transports: every
    implementation records outbound frames through :meth:`_record_send`
    and inbound replies through :meth:`_record_reply`, so the
    per-direction :class:`~repro.edge.network.Channel` accounting
    (and therefore every byte-based bench) is identical whichever
    medium carries the frames.

    Args:
        name: Link label (usually the edge server's name).
        down_channel: Sender→peer byte accounting (snapshots, deltas,
            queries); created if not given.
        up_channel: Peer→sender byte accounting (acks, query
            responses); created if not given.
    """

    def __init__(
        self,
        name: str,
        down_channel: Channel | None = None,
        up_channel: Channel | None = None,
    ) -> None:
        self.name = name
        self.down_channel = down_channel or Channel()
        self.up_channel = up_channel or Channel()

    # -- metering (one implementation for every medium) -----------------

    def _record_send(self, data: bytes, frame: Frame) -> Transfer:
        """Meter one outbound serialized frame."""
        return self.down_channel.send(len(data), kind=frame_kind(frame))

    def _record_reply(self, data: bytes, frame: Frame) -> Transfer:
        """Meter one inbound serialized reply frame."""
        return self.up_channel.send(len(data), kind=frame_kind(frame))

    # -- the transport surface ------------------------------------------

    @property
    def queued_frames(self) -> int:
        """Frames in the link (sent, not yet acknowledged/processed)."""
        return 0

    @property
    def connected(self) -> bool:
        """False once the link is known dead (socket fault, closed).

        A *faulted but recoverable* link (partitioned/held in-process
        injection) still reports True — connectedness is about whether
        replies can ever arrive on this object, not about the current
        weather.
        """
        return True

    def connect(self, handler: Callable[[bytes], Sequence[bytes]]) -> None:
        """Register the peer's handler (receives and returns *bytes*)."""
        raise NotImplementedError

    def send(self, frame: Frame) -> SendOutcome:
        """Ship one frame; never raises on link faults (see outcome)."""
        raise NotImplementedError

    def flush(self) -> list:
        """Deliver/collect queued frames; returns the peer's replies.

        Never blocks: a transport whose replies arrive asynchronously
        (the reactor link) returns only what has already landed, so
        this is safe on a write path.  Callers that must *wait* for a
        settle drive :meth:`poll` (the fan-out engine's
        probe-then-poll drain) — under coalesced acks the number of
        replies is not knowable from the number of sends, so "block
        until every reply arrived" is not a question a link can
        answer.
        """
        raise NotImplementedError

    def poll(self) -> list:
        """Block until at least one reply frame is available (or the
        link dies), then return everything available.

        The settle primitive for the batched-ack protocol (DESIGN.md
        section 10): after soliciting a :class:`CursorProbeFrame`, the
        fan-out engine polls for the cumulative ack instead of
        counting one reply per sent frame.  Returns ``[]`` only when
        nothing can arrive anymore — the link is dead, held, or timed
        out — never as "not yet".
        """
        return self.flush()

    def request(self, frame: Frame) -> Frame:
        """One synchronous request/reply round-trip (the query path).

        Every transport must offer this so client-side query code (the
        router, the deployment layer) is medium-agnostic and query
        traffic is metered identically over every medium — the same
        consolidation the ABC already provides for send-path metering.

        Raises:
            TransportError: If the link is down, drops the exchange, or
                (in-process fault injection) holds the reply past the
                caller's patience — the in-flight equivalent of a
                receive timeout.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class InProcessTransport(Transport):
    """Same-process transport with byte accounting and fault injection.

    Args:
        name: Link label (usually the edge server's name).
        down_channel: Sender→peer byte accounting (snapshots, deltas,
            queries); created if not given.
        up_channel: Peer→sender byte accounting (acks, query
            responses); created if not given.
        faults: Initial fault state (healthy by default).

    The peer handler is wired with :meth:`connect` and exchanges only
    serialized bytes — the two endpoints share no mutable objects, which
    is what makes the trust boundary real even in-process.
    """

    def __init__(
        self,
        name: str,
        down_channel: Channel | None = None,
        up_channel: Channel | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(name, down_channel, up_channel)
        self.faults = faults or FaultInjector()
        self._handler: Callable[[bytes], Sequence[bytes]] | None = None
        self._queue: list[bytes] = []

    def connect(self, handler: Callable[[bytes], Sequence[bytes]]) -> None:
        self._handler = handler

    @property
    def queued_frames(self) -> int:
        """Frames sitting in the link awaiting :meth:`flush`."""
        return len(self._queue)

    @property
    def connected(self) -> bool:
        """An in-process link is alive once a handler is wired; fault
        injection (partition/hold) is weather, not death."""
        return self._handler is not None

    def send(self, frame: Frame) -> SendOutcome:
        if self._handler is None:
            raise TransportError(f"transport {self.name!r} is not connected")
        if self.faults.partitioned:
            return SendOutcome(status="failed")
        data = frame_to_bytes(frame)
        transfer = self._record_send(data, frame)
        if self.faults.drop_next > 0:
            self.faults.drop_next -= 1
            return SendOutcome(status="dropped", transfer=transfer)
        if self.faults.hold or self.faults.delay > 0:
            # A held frame waits for the fault to clear; a delayed
            # frame merely waits for the next flush — the in-process
            # model of a slow link is "delivered one tick late".
            self._queue.append(data)
            return SendOutcome(status="queued", transfer=transfer)
        return SendOutcome(
            status="delivered",
            replies=self._deliver(data),
            transfer=transfer,
        )

    def flush(self) -> list:
        """Drain held frames once faults have cleared.

        Returns the peer's accumulated reply frames; a no-op (empty
        list) while the link is still partitioned or holding.
        """
        if self.faults.partitioned or self.faults.hold:
            return []
        replies: list = []
        while self._queue:
            replies.extend(self._deliver(self._queue.pop(0)))
        return replies

    def request(self, frame: Frame) -> Frame:
        """One synchronous round-trip, with fault injection applied.

        The query-path mirror of :meth:`ReactorTransport.request
        <repro.edge.event_loop.ReactorTransport.request>`: a
        partitioned link raises, a dropped request raises (the reply
        will never come), and a held request raises too — the frame
        stays queued in the slow link (it was metered as sent and the
        edge will eventually process it on :meth:`flush`), but a
        synchronous caller cannot wait for it, exactly like a receive
        timeout against a wedged TCP peer.
        """
        outcome = self.send(frame)
        if outcome.status == "failed":
            raise TransportError(f"link to {self.name!r} is down")
        if outcome.status == "dropped":
            raise TransportError(
                f"request to {self.name!r} lost in flight"
            )
        if outcome.status == "queued":
            raise TransportError(
                f"link to {self.name!r} timed out (peer holding frames)"
            )
        (reply,) = outcome.replies
        return reply

    def _deliver(self, data: bytes) -> list:
        assert self._handler is not None
        replies = []
        for reply_bytes in self._handler(data):
            reply = frame_from_bytes(reply_bytes)
            self._record_reply(reply_bytes, reply)
            replies.append(reply)
        return replies
