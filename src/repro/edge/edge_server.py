"""Unsecured edge servers (Figure 2, middle).

An edge server holds replicas of the database + VB-trees and processes
queries on behalf of the central DBMS, attaching a verification object
to every result.  It is *unsecured*: a hacker may tamper with the data
there (Section 3.1) — the :mod:`repro.edge.adversary` module models
that by mutating replicas or intercepting responses.

The edge holds **no reference to the central server**.  It is
constructed from an :class:`EdgeConfig` (database name, digest policy,
and the PKI-distributed key ring — the same bundle clients get) and
receives everything else over serialized transport frames
(:mod:`repro.edge.transport`): snapshots and deltas arrive as bytes,
acknowledgements and query responses leave as bytes.  Replicas are
reconstructed from snapshot payloads with a
:class:`~repro.core.digests.VerifyOnlyDigestEngine`, so an edge never
holds — and cannot use — the central server's private signing key.

The upstream half of an edge — the dialer seat of docs/ARCHITECTURE.md
section 3, and the ack/nack reply discipline of DESIGN.md section 10 —
is :class:`Dialer`, which a relay's upstream face
(:class:`~repro.edge.relay.RelayServer`) shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.delta import ReplicaDelta, apply_delta
from repro.core.digests import DigestEngine, VerifyOnlyDigestEngine
from repro.core.query_auth import QueryAuthenticator
from repro.core.secondary import secondary_index_name
from repro.core.vbtree import VBTree
from repro.core.vo import AuthenticatedResult, VOFormat
from repro.core.wire import (
    authenticate_delta,
    predicate_from_bytes,
    result_from_bytes,
    result_to_bytes,
    snapshot_from_bytes,
)
from repro.crypto.meter import CostMeter
from repro.edge import telemetry
from repro.edge.central import ClientConfig
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
    config_from_frame,
    error_response,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
from repro.exceptions import (
    DeltaGapError,
    DeltaTamperError,
    ReplicationError,
    StaleDeltaError,
    TransportError,
)

__all__ = ["Dialer", "EdgeConfig", "EdgeServer", "EdgeResponse"]

#: A hook that may rewrite an outgoing result (adversary injection point).
ResultInterceptor = Callable[[AuthenticatedResult], AuthenticatedResult]


#: Everything an edge server is *allowed* to know about the central
#: DBMS — the same public bundle clients receive (db name, digest
#: policy, PKI-distributed key ring), never a live object reference.
EdgeConfig = ClientConfig


@dataclass
class EdgeResponse:
    """What the client receives: the result and its wire size.

    ``lsn``/``epoch`` are the responding replica's cursor echo
    (DESIGN.md section 9) — an untrusted staleness hint for routing,
    not part of what verification covers.
    """

    edge_name: str
    result: AuthenticatedResult
    wire_bytes: int
    lsn: int = 0
    epoch: int = 0

    @classmethod
    def from_frame(cls, reply: QueryResponseFrame) -> "EdgeResponse":
        """What a client makes of one successful response frame."""
        return cls(
            edge_name=reply.edge,
            result=result_from_bytes(reply.payload),
            wire_bytes=len(reply.payload),
            lsn=reply.lsn,
            epoch=reply.epoch,
        )


class Dialer:
    """The dialer seat (docs/ARCHITECTURE.md section 3), written once:
    a node that joins a listener — an edge, or a relay's upstream face
    — and answers what the listener sends it.

    :meth:`handle_frame` is the whole upstream reply discipline
    (DESIGN.md section 10): a snapshot is a heal boundary and is
    answered at once with one cumulative
    :class:`~repro.edge.transport.CursorAckFrame`; accepted deltas are
    **coalesced** — no reply until ``ack_every`` frames / ``ack_bytes``
    payload bytes have been absorbed, then one cumulative ack covers
    them all; a *rejected* snapshot or delta always nacks immediately
    with an :class:`~repro.edge.transport.AckFrame` carrying the node's
    own cursor for that table and a reason code (coalescing can never
    mask a tamper/gap signal, it only thins the ok-traffic); a
    :class:`~repro.edge.transport.CursorProbeFrame` gets the cumulative
    ack; a :class:`~repro.edge.transport.ConfigFrame` is adopted and
    answered with a control ack (empty table, no cursor to move); a
    query gets the node's one
    :class:`~repro.edge.transport.QueryResponseFrame`.  Any other frame
    is a :class:`~repro.exceptions.TransportError`.

    What differs between nodes is what they make of a frame.  A node
    supplies ``cursors()`` — the ``(table, lsn, epoch)`` its acks (and,
    unless it overrides :meth:`hello`, its hello) report;
    ``_take_snapshot(frame)`` and ``_take_delta(frame)`` — ``None``
    when accepted, else the nack's reason code; and ``_answer(query)``
    — the :class:`~repro.edge.transport.QueryResponseFrame`.

    Args:
        name: Node name (its hello identity and the ``edge`` of every
            reply).
        config: Public verification parameters (:class:`EdgeConfig`);
            a node that *joins* a listener (:meth:`hello`, then
            :meth:`adopt_config` with the reply) starts without one.
        ack_every: Ack-coalescing frame threshold.  ``1`` (the
            default) acknowledges every frame — the exact pre-batching
            cadence, which in-process simulations rely on for
            synchronous cursor convergence.  Deployments raise it (via
            the handshake ``ConfigFrame``) to cut ack traffic.
        ack_bytes: Ack-coalescing byte threshold — an ack is emitted
            once this many unacknowledged replication payload bytes
            have been absorbed, even below ``ack_every`` frames.
    """

    def __init__(
        self,
        name: str,
        config: EdgeConfig | None = None,
        ack_every: int = 1,
        ack_bytes: int = 1 << 18,
    ) -> None:
        self.name = name
        self.config = config
        #: The last adopted ConfigFrame, verbatim (a relay replays it
        #: byte-identical downstream).
        self.upstream_config: Optional[ConfigFrame] = None
        self.ack_every = max(1, ack_every)
        self.ack_bytes = max(1, ack_bytes)
        #: Replication frames / payload bytes absorbed since the last
        #: cumulative ack left (the coalescing state).
        self._unacked_frames = 0
        self._unacked_bytes = 0

    def hello(self) -> HelloFrame:
        """The registration hello: this node's name and the cursors it
        already holds (none when fresh), so the listener resumes delta
        delivery instead of re-shipping snapshots."""
        return HelloFrame(edge=self.name, cursors=self.cursors())

    def adopt_config(self, frame: ConfigFrame) -> None:
        """Replace the verification bundle (the handshake's reply, or
        an in-stream key-ring refresh); the listener's ack-coalescing
        policy travels with it."""
        self.config = config_from_frame(frame)
        self.upstream_config = frame
        self.ack_every = max(1, frame.ack_every)
        self.ack_bytes = max(1, frame.ack_bytes)

    def pending_upstream(self) -> Sequence[bytes]:
        """Frames to send unasked: none unless the node queues some."""
        return ()

    def handle_frame(self, data: bytes) -> list[bytes]:
        """Process one serialized frame; returns serialized replies."""
        frame = frame_from_bytes(data)
        if isinstance(frame, QueryRequestFrame):
            reply = self._answer(frame)
        elif isinstance(frame, DeltaFrame):
            reason = self._take_delta(frame)
            if reason is not None:
                return [frame_to_bytes(self._nack(frame.table, reason))]
            self._unacked_frames += 1
            self._unacked_bytes += len(frame.payload)
            if (
                self._unacked_frames < self.ack_every
                and self._unacked_bytes < self.ack_bytes
            ):
                return []
            reply = self._cursor_ack()
        elif isinstance(frame, SnapshotFrame):
            reason = self._take_snapshot(frame)
            if reason is not None:
                return [frame_to_bytes(self._nack(frame.table, reason))]
            reply = self._cursor_ack()
        elif isinstance(frame, CursorProbeFrame):
            # Ack solicitation: the listener is settling (a sync
            # point) and wants the cumulative cursors now.
            reply = self._cursor_ack()
        elif isinstance(frame, ConfigFrame):
            # Key-ring refresh (a rotation reached this node): the
            # paper's "well-known location" re-fetched, pushed over
            # the same channel.
            self.adopt_config(frame)
            reply = AckFrame(
                edge=self.name, table="", ok=True, lsn=0,
                epoch=self.config.keyring.current_epoch, reason="config",
            )
        else:
            raise TransportError(
                f"{type(self).__name__} {self.name!r} cannot handle "
                f"{type(frame).__name__}"
            )
        return [frame_to_bytes(reply)]

    def _nack(self, table: str, reason: str) -> AckFrame:
        """An immediate nack at this node's own cursor for ``table``
        (``0, 0`` when it reports none)."""
        lsn, epoch = next(
            ((lsn, epoch) for t, lsn, epoch in self.cursors() if t == table),
            (0, 0),
        )
        return AckFrame(
            edge=self.name, table=table, ok=False, lsn=lsn, epoch=epoch,
            reason=reason,
        )

    def _cursor_ack(self) -> CursorAckFrame:
        """One cumulative ack covering every table; resets the
        coalescing counters (everything up to here is now spoken for)."""
        self._unacked_frames = 0
        self._unacked_bytes = 0
        return CursorAckFrame(edge=self.name, cursors=self.cursors())

    def _verify_only(self, epoch: int) -> VerifyOnlyDigestEngine:
        """The public-key-only digest engine a snapshot signed under
        key epoch ``epoch`` is rebuilt with — a dialer never holds the
        private key.

        Raises:
            StaleKeyError: If the ring refuses ``epoch``.
        """
        return VerifyOnlyDigestEngine(
            DigestEngine(self.config.db_name, policy=self.config.policy),
            self.config.keyring.public_key_for(epoch),
            epoch,
        )


class EdgeServer(Dialer):
    """One edge-of-network replica server: a :class:`Dialer` that
    installs snapshots and applies deltas to its own replicas and
    executes queries against them.

    Args:
        name / config / ack_every / ack_bytes: See :class:`Dialer`.
    """

    def __init__(
        self,
        name: str,
        config: EdgeConfig | None = None,
        ack_every: int = 1,
        ack_bytes: int = 1 << 18,
    ) -> None:
        super().__init__(name, config, ack_every, ack_bytes)
        self.meter = CostMeter()
        self.replicas: dict[str, VBTree] = {}
        self.replica_versions: dict[str, int] = {}
        #: Last applied log sequence number per table (delta cursor).
        self.replica_lsns: dict[str, int] = {}
        #: Key epoch each replica's signatures were produced under.
        self.replica_epochs: dict[str, int] = {}
        #: Signature width of each replica's material (from snapshots).
        self.replica_sig_lens: dict[str, int] = {}
        self._interceptors: list[ResultInterceptor] = []
        self.io_reads_last_query = 0
        #: The exception behind the most recent query error response —
        #: re-raised by :meth:`query` so same-process callers keep typed
        #: exceptions while transports get frames.
        self._last_query_exc: Optional[BaseException] = None

    #: Bound here, not only inherited: the e2e tracer
    #: (``benchmarks/e2e/e2ebench/trace.py``) wraps
    #: ``EdgeServer.handle_frame`` by reading the class ``__dict__``.
    handle_frame = Dialer.handle_frame

    def cursors(self) -> tuple[tuple[str, int, int], ...]:
        """``(table, lsn, epoch)`` for every replica this edge holds —
        what its hello, acks and query responses report."""
        return tuple(
            (table, self.replica_lsns.get(table, 0),
             self.replica_epochs.get(table, 0))
            for table in sorted(self.replicas)
        )

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def _take_snapshot(self, frame: SnapshotFrame) -> Optional[str]:
        """Reconstruct a full replica from a serialized snapshot,
        resetting the table's delta cursor to the frame's LSN."""
        try:
            signing = self._verify_only(frame.epoch)
            vbt = snapshot_from_bytes(frame.payload, signing)
        except Exception as exc:
            # Malformed payload or unacceptable epoch: nack so the
            # sender's heal path retries.  Counted — a snapshot that
            # fails to install during a healthy run is a bug, not
            # weather (FL002).
            telemetry.note("edge_server.snapshot_install", exc)
            return "error"
        table = frame.table
        self.replicas[table] = vbt
        self.replica_versions[table] = vbt.version
        self.replica_lsns[table] = frame.lsn
        self.replica_epochs[table] = frame.epoch
        self.replica_sig_lens[table] = signing.signer.public_key.signature_len
        return None

    def _take_delta(self, frame: DeltaFrame) -> Optional[str]:
        """:meth:`apply_delta`, its refusal named as a nack reason."""
        try:
            self.apply_delta(frame.table, frame.payload)
        except StaleDeltaError:
            return "stale"
        except DeltaGapError:
            return "gap"
        except DeltaTamperError:
            return "tamper"
        except ReplicationError:
            return "diverged"
        except Exception as exc:
            # Anything else (e.g. at-rest tampering broke the tree
            # underneath the apply) is replica divergence too: a
            # rejected replication frame must *always* produce an
            # immediate nack, so the sender's heal escalation runs
            # instead of a wedge.  Counted so the "anything else"
            # class stays visible (FL002).
            telemetry.note("edge_server.delta_apply", exc)
            return "diverged"
        return None

    def apply_delta(self, table: str, payload: bytes) -> ReplicaDelta:
        """Authenticate and apply one wire-serialized replica delta.

        The full check sequence (DESIGN.md section 6.2): parse, then
        verify the central server's signature over the received body
        bytes under the delta's claimed key epoch
        (:func:`repro.core.wire.authenticate_delta` — via the key ring,
        so expired epochs are rejected too), enforce LSN contiguity,
        then match the epoch against the replica's — all before any
        mutation.  A delta that fails any of these *wire checks* leaves
        the replica untouched.  A delta that fails mid-*application*
        (replica divergence — e.g. at-rest tampering changed the tree
        underneath) can leave the replica partially mutated; the cursor
        does not advance, and the central server heals such replicas
        with a snapshot resync (the fan-out engine's nack escalation —
        :class:`repro.edge.fanout.FanoutEngine`).

        Returns:
            The applied delta.

        Raises:
            ReplicationError: If no replica of ``table`` exists.
            DeltaTamperError: Malformed payload, bad signature, or
                unknown/expired key epoch.
            StaleDeltaError: Replayed delta (at or below the cursor).
            DeltaGapError: Out-of-order delta or epoch change — the
                edge must resync via snapshot.
        """
        vbt = self.replica(table)
        delta = authenticate_delta(
            payload, table, self.config.keyring, self.meter
        )
        cursor = self.replica_lsns.get(table, 0)
        if delta.lsn_last <= cursor:
            raise StaleDeltaError(
                f"replayed delta lsn {delta.lsn_first}..{delta.lsn_last} "
                f"(cursor {cursor}) rejected"
            )
        if delta.lsn_first != cursor + 1:
            raise DeltaGapError(
                f"delta lsn {delta.lsn_first} does not extend cursor "
                f"{cursor}; snapshot resync required"
            )
        if delta.epoch != self.replica_epochs.get(table):
            raise DeltaGapError(
                f"delta epoch {delta.epoch} != replica epoch "
                f"{self.replica_epochs.get(table)}; snapshot resync required"
            )
        apply_delta(vbt, delta)
        self.replica_lsns[table] = delta.lsn_last
        self.replica_versions[table] = delta.new_version
        return delta

    def replica(self, table: str) -> VBTree:
        """The local VB-tree replica for ``table``.

        Raises:
            ReplicationError: If no replica has been received.
        """
        try:
            return self.replicas[table]
        except KeyError:
            raise ReplicationError(
                f"edge {self.name!r} holds no replica of {table!r}"
            ) from None

    def _sig_len(self, table: str) -> int:
        """Signature width of ``table``'s replica material."""
        try:
            return self.replica_sig_lens[table]
        except KeyError:
            raise ReplicationError(
                f"edge {self.name!r} holds no replica of {table!r}"
            ) from None

    # ------------------------------------------------------------------
    # Adversary injection
    # ------------------------------------------------------------------

    def add_interceptor(self, interceptor: ResultInterceptor) -> None:
        """Register a result-rewriting hook (adversary models)."""
        self._interceptors.append(interceptor)

    def clear_interceptors(self) -> None:
        """Remove all result interceptors."""
        self._interceptors.clear()

    # ------------------------------------------------------------------
    # Query processing — every query round-trips through the serialized
    # frame codec, so the wire format is exercised on every call.
    # ------------------------------------------------------------------

    def range_query(
        self,
        table: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """Selection on the primary key, with projection."""
        return self.query(
            range_query_frame(table, low, high, columns, vo_format)
        )

    def query(self, frame: QueryRequestFrame) -> EdgeResponse:
        """Answer one query frame (any kind —
        :mod:`repro.edge.transport`'s builders make them) through the
        frame codec end to end.

        Raises:
            Exception: The typed exception behind an error reply (e.g.
                :class:`~repro.exceptions.ReplicationError` for a
                replica this edge lacks) — transports get the frame,
                same-process callers the exception.
        """
        replies = self.handle_frame(frame_to_bytes(frame))
        response = frame_from_bytes(replies[0])
        assert isinstance(response, QueryResponseFrame)
        if response.error:
            exc = self._last_query_exc
            self._last_query_exc = None
            if exc is not None:
                raise exc
            raise TransportError(response.error)
        return EdgeResponse.from_frame(response)

    def _answer(self, frame: QueryRequestFrame) -> QueryResponseFrame:
        """Execute one query, answered on every medium: a raise here
        would escape an in-process router's verify-or-failover path,
        while over a socket the serve loop already converts it — same
        format either way, so clients cannot tell the media apart."""
        self._last_query_exc = None
        try:
            return self._execute_query(frame)
        except Exception as exc:
            # The traceback is stripped before stashing: it would pin
            # every frame-local (request, replica state) on a
            # long-lived edge whose errors arrive via transports.
            telemetry.note("edge_server.query", exc)
            self._last_query_exc = exc.with_traceback(None)
            return error_response(self.name, f"{type(exc).__name__}: {exc}")

    def _execute_query(self, frame: QueryRequestFrame) -> QueryResponseFrame:
        vo_format = VOFormat(frame.vo_format) if frame.vo_format else None
        name = frame.table
        if frame.kind == "secondary":
            if frame.attribute is None:
                raise TransportError("secondary query names no attribute")
            name = secondary_index_name(frame.table, frame.attribute)
        elif frame.kind not in ("range", "select"):
            raise TransportError(f"unknown query kind {frame.kind!r}")
        vbt = self.replica(name)
        if frame.kind == "secondary" and vbt.attribute is None:
            raise ReplicationError(f"{name!r} is not a secondary index")
        vbt.tree.reset_io()
        authenticator = QueryAuthenticator(vbt)
        if frame.kind == "select":
            predicate, _ = predicate_from_bytes(frame.predicate or b"")
            result = authenticator.select(
                predicate, columns=frame.columns, vo_format=vo_format
            )
        else:
            result = authenticator.range_query(
                frame.low, frame.high, columns=frame.columns,
                vo_format=vo_format,
            )
        payload = self._respond(name, vbt, result)
        # Cursor echo: the answering replica's delta cursor rides on
        # every response so clients can route by staleness without a
        # central round-trip.  For secondary queries this is the
        # *index* replica's cursor — the replica that produced the
        # result, which is the one whose freshness matters.  The full
        # cumulative cursor set is piggybacked too (DESIGN.md section
        # 10): the response was travelling anyway, so every replica's
        # staleness hint — and, over a deployment link, the central
        # fan-out engine's ack state — rides along for a few bytes.
        return QueryResponseFrame(
            edge=self.name,
            payload=payload,
            lsn=self.replica_lsns.get(name, 0),
            epoch=self.replica_epochs.get(name, 0),
            cursors=self.cursors(),
        )

    def _respond(
        self, table: str, vbt: VBTree, result: AuthenticatedResult
    ) -> bytes:
        """Serialize an outgoing result, applying interceptors (the
        link that carries it counts its bytes)."""
        for interceptor in self._interceptors:
            result = interceptor(result)
        self.io_reads_last_query = vbt.tree.io_reads
        return result_to_bytes(result, self._sig_len(table))
