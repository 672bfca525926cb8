"""Relay tier: store-and-forward fan-out of signed frames (DESIGN.md §13).

A :class:`RelayServer` sits *between* the central signer and a group of
edge servers — the cloud→relay→edge hierarchy the edge-computing
deployment model assumes.  It dials upstream exactly like an edge
(:class:`~repro.edge.transport.HelloFrame` with ``role="relay"``),
receives the very same signed snapshot/delta frames, and re-fans them
out **byte-identical** to its downstream edges through its own
:class:`~repro.edge.fanout.FanoutEngine`, built with the relay itself
as its frame ``source`` — "this relay's verbatim frame store" where the
central's engine reads "the live signer".

Trust level: a relay holds **no private signing key** and is exactly as
untrusted as an edge.  It cannot forge a frame (every delta body and
every tuple/node digest is RSA-signed by the central server, and edges
verify end-to-end), and it cannot truncate history undetected (LSN
chains are signed into the delta bodies; a gap nacks at the edge and
escalates).  The only verification a relay *can* do is the optional
spot-check — re-running the edge's signature check over a sample of
ingested deltas (``spot_check_every``) and over its whole store when a
downstream nack implicates it — purely to shorten the detection path;
end-to-end safety never depends on it.

What a relay adds to the protocol:

* **Cursor aggregation** — downstream cursor acks are folded into one
  cumulative upstream :class:`~repro.edge.transport.CursorAckFrame`
  with **min-cursor semantics**: the upstream cursor for a table is the
  minimum acknowledged ``(lsn, epoch)`` over the connected downstream
  edges (the relay's own store head when none are connected), so the
  upstream view never overstates what the *subtree* durably holds.  A
  table some connected edge has no cursor for yet is **omitted** from
  the aggregate — "no news", which upstream's drain treats as neither
  progress nor regression (see the stall bugfix in
  :meth:`FanoutEngine.drain <repro.edge.fanout.FanoutEngine.drain>`).
* **Nacks are never aggregated** — a downstream tamper/gap/diverged
  signal keeps its immediate escalation: the relay re-verifies the
  implicated stored chain, heals the edge from its own store when the
  store checks out, and only when the *store itself* is bad drops it
  and nacks ``diverged`` upstream right away.
* **Config/shard-map pass-through** — the upstream
  :class:`~repro.edge.transport.ConfigFrame` (key ring, ack policy,
  shard id + ShardMap trailing bytes) is stashed verbatim and replayed
  byte-identically to every downstream handshake and key-ring refresh;
  the relay adds nothing and signs nothing.
* **Query forwarding** — a :class:`~repro.edge.transport.QueryRequestFrame`
  arriving from upstream is forwarded round-robin to a connected edge;
  the edge's signed response travels back untouched except for the
  piggybacked cursors, which are replaced with the relay's *aggregate*
  (the response rides the upstream replication link, so its cursors
  must mean what that link's acks mean).

Thread/loop ownership: a relay is **single-thread-owned**.  The serving
loop thread (:func:`run_relay`, or a :class:`RelayHost`'s thread) runs
the upstream frame handler, the downstream ``fanout.pump()``, query
forwarding, and the upstream outbox drain; both socket directions
live on one :class:`~repro.edge.event_loop.EdgeEventLoop` (the upstream
dial is a handler-mode connection, each downstream accept is a
:class:`~repro.edge.event_loop.ReactorTransport`), so one ``select``
serves the whole relay.  In-process tests drive the same objects from
the test thread.

The store is memory-only and append-only between snapshots (a chain
cannot be compacted below its snapshot without re-snapshotting, and a
relay cannot produce snapshots — it has no key), so a long-lived chain
grows with history; upstream heals and key rotations replace the
snapshot and restart the chain.  A relay that dies loses its store and
re-registers empty — the standard snapshot heal then rebuilds the whole
subtree, which is exactly the recovery story edges already have.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.wire import authenticate_delta, delta_from_bytes, snapshot_from_bytes
from repro.edge.edge_server import Dialer
from repro.edge.event_loop import SocketListener, join, serve_dialed
from repro.edge.fanout import FanoutEngine, PeerState
from repro.edge.link import Transport
from repro.edge.transport import (
    AckFrame,
    ConfigFrame,
    CursorAckFrame,
    DeltaFrame,
    HelloFrame,
    QueryRequestFrame,
    QueryResponseFrame,
    SnapshotFrame,
    error_response,
    frame_to_bytes,
)
from repro.edge import telemetry
from repro.exceptions import (
    DeltaGapError,
    DeltaTamperError,
    ReplicationError,
    StaleKeyError,
    TransportError,
)

__all__ = ["RelayServer", "RelayHost", "run_relay"]


@dataclass
class _StoredDelta:
    """One verbatim delta frame payload held for re-fan-out."""

    lsn_first: int
    lsn_last: int
    epoch: int
    payload: bytes


@dataclass
class _TableStore:
    """The relay's holdings for one table: a snapshot frame plus the
    contiguous chain of delta frames extending it.

    Invariant: ``deltas`` is sorted, frame ``i+1``'s ``lsn_first`` is
    frame ``i``'s ``lsn_last + 1`` (the first extends
    ``snapshot.lsn``), every frame carries ``epoch``, and ``head`` is
    the last frame's ``lsn_last`` (``snapshot.lsn`` when empty).
    """

    snapshot: Optional[SnapshotFrame] = None
    deltas: list[_StoredDelta] = field(default_factory=list)
    head: int = 0
    epoch: int = 0

    def retained_bytes(self) -> int:
        """Payload bytes this table pins in memory (snapshot + chain)."""
        total = len(self.snapshot.payload) if self.snapshot else 0
        return total + sum(len(d.payload) for d in self.deltas)


class RelayServer(Dialer):
    """Unkeyed store-and-forward node between central and its edges:
    upstream a :class:`~repro.edge.edge_server.Dialer` whose cursors
    are the subtree's aggregate and whose queries are forwarded,
    downstream a listener seat.

    Args:
        name: Relay name (its upstream link label / hello identity).
        spot_check_every: Verify the signature of every Nth ingested
            delta frame (``0`` = never).  Purely a detection
            accelerator — edges re-verify everything regardless.
        max_store_bytes: Per-table cap on retained payload bytes
            (``0`` = unbounded).  When a delta append pushes a table
            past the cap, the whole chain is deterministically evicted
            and a ``diverged`` nack asks upstream for a fresh snapshot
            at head — the snapshot *is* the compact representation, so
            the heal itself is the compaction.  A snapshot alone is
            never evicted (it is the minimal heal unit); the cap
            bounds the delta chain riding on top of it, which is what
            actually grows without bound on a long-lived link.

    The relay is single-thread-owned (module docstring); the lock below
    only keeps the accept thread's :meth:`admit` from reading the store
    while an upstream frame rewrites it.
    """

    def __init__(
        self,
        name: str,
        spot_check_every: int = 0,
        max_store_bytes: int = 0,
    ) -> None:
        super().__init__(name)
        self.spot_check_every = max(0, spot_check_every)
        self.max_store_bytes = max(0, max_store_bytes)
        #: Store-hygiene telemetry: ``compacted_frames`` (deltas
        #: retired because a stored snapshot now covers them),
        #: ``store_evictions`` (byte-cap / fault-hook chain drops).
        self.counters: dict[str, int] = {
            "compacted_frames": 0,
            "store_evictions": 0,
        }
        self.store: dict[str, _TableStore] = {}
        self.fanout = FanoutEngine(self)
        self._lock = threading.RLock()
        #: Deltas ingested since the last spot check.
        self._ingested = 0
        #: Spontaneous upstream frames (escalation nacks) + the
        #: aggregate-changed flag, drained by :meth:`pending_upstream`.
        self._outbox_lock = threading.Lock()
        self._outbox: list[bytes] = []
        self._agg_dirty = False
        self._last_agg: tuple = ()
        self._rr = 0  # round-robin index for query forwarding

    # ------------------------------------------------------------------
    # The dialer seat's node half, and config pass-through
    # ------------------------------------------------------------------

    def hello(self) -> HelloFrame:
        """The upstream registration hello: ``role="relay"`` and
        ``(table, head, epoch)`` per stored chain — what a live relay
        can genuinely resume from on a reconnect (the aggregate is
        what its acks report); empty after a restart."""
        cursors = tuple(
            (table, st.head, st.epoch)
            for table, st in sorted(self.store.items())
            if st.snapshot is not None
        )
        return HelloFrame(edge=self.name, cursors=cursors, role="relay")

    def config_frame(self) -> ConfigFrame:
        """The adopted upstream ConfigFrame, byte-identical — replayed
        to downstream handshakes and refreshes (key ring + ack policy +
        shard id/map pass-through; the relay adds nothing).

        Raises:
            ReplicationError: Before the first upstream handshake.
        """
        if self.upstream_config is None:
            raise ReplicationError(
                f"relay {self.name!r} has no upstream config yet"
            )
        return self.upstream_config

    # ------------------------------------------------------------------
    # The fan-out engine's frame source (``FanoutEngine(source)``): the
    # verbatim store, one pre-sealed frame at a time.  These run on the
    # pump path — nothing here may block (fabriclint FL004).
    # ------------------------------------------------------------------

    def _chain(self, table: str) -> Optional[_TableStore]:
        """``table``'s store if it currently holds a snapshot."""
        st = self.store.get(table)
        return st if st is not None and st.snapshot is not None else None

    def replica_tables(self) -> list:
        return [t for t, st in self.store.items() if st.snapshot is not None]

    def has_replica(self, table: str) -> bool:
        return table in self.store

    def log_head(self, table: str) -> Optional[int]:
        st = self._chain(table)
        return None if st is None else st.head

    def bootstrap_lag(self, table: str) -> int:
        return 1

    def current_epoch(self) -> int:
        if self.config is None:
            raise StaleKeyError("relay has no upstream config yet")
        return self.config.keyring.current_epoch

    def issue_epoch(self, table: str) -> int:
        # No chain to issue from: fall back to the ring (the snapshot
        # path then fails to build a frame and flags the table until
        # the store is re-seeded).
        st = self._chain(table)
        return self.current_epoch() if st is None else st.epoch

    def delta_payload(self, table: str, cursor: int) -> tuple:
        st = self._chain(table)
        if st is None:
            raise DeltaGapError(f"relay holds no chain for {table!r}")
        if cursor >= st.head:
            return (None, cursor)
        for stored in st.deltas:
            if stored.lsn_first == cursor + 1:
                return (stored.payload, stored.lsn_last)
        # The cursor does not sit on a stored frame boundary (an edge
        # resumed from state this chain generation never produced).
        raise DeltaGapError(
            f"no stored frame extends cursor {cursor} for {table!r}"
        )

    def snapshot_frame(self, table: str) -> SnapshotFrame:
        st = self._chain(table)
        if st is None:
            raise ReplicationError(f"relay holds no snapshot for {table!r}")
        return st.snapshot

    # ------------------------------------------------------------------
    # Downstream peer management
    # ------------------------------------------------------------------

    def admit(
        self, hello: HelloFrame, transport: Transport, sent: ConfigFrame
    ) -> PeerState:
        """The listener seat: register the downstream dialer behind
        ``hello``, answered with ``sent`` — over a socket
        (:func:`run_relay`) or as objects (:func:`repro.edge.link.join`).

        The hello is untrusted: only cursors that land on a stored
        frame boundary of the current chain generation (and match its
        epoch) are kept — a cursor from a previous generation cannot
        be extended by stored frames and would only gap-nack; dropping
        it routes the edge through the snapshot heal instead.  Every
        downstream ring is a copy decoded from a stashed frame, so the
        peer is recorded at the epoch of the config it was *sent*: a
        rotation that reached the relay after that reply still owes
        the edge a refresh.
        """
        kept = []
        with self._lock:
            for table, lsn, epoch in hello.cursors:
                st = self._chain(table)
                if st is None or epoch != st.epoch:
                    continue
                boundaries = {st.snapshot.lsn}
                boundaries.update(d.lsn_last for d in st.deltas)
                if lsn in boundaries:
                    kept.append((table, lsn, epoch))
        peer = self.fanout.attach(
            hello.edge, transport, cursors=kept,
            config_epoch=sent.current_epoch,
        )
        self.on_cursors_advanced()
        return peer

    def prune_disconnected(self) -> None:
        """Drop peers whose links are dead (a reconnect re-attaches
        under the same name with a fresh transport)."""
        dead = [
            name
            for name, peer in self.fanout.peers.items()
            if not peer.transport.connected
        ]
        if not dead:
            return
        for name in dead:
            del self.fanout.peers[name]
        self.on_cursors_advanced()

    # ------------------------------------------------------------------
    # Upstream frames: the store behind the Dialer's reply discipline
    # ------------------------------------------------------------------

    def handle_frame(self, data: bytes) -> list[bytes]:
        """:meth:`Dialer.handle_frame
        <repro.edge.edge_server.Dialer.handle_frame>` under the relay's
        lock (the accept thread admits peers concurrently)."""
        with self._lock:
            return super().handle_frame(data)

    def _take_snapshot(self, frame: SnapshotFrame) -> None:
        """Store a snapshot verbatim and restart the table's chain.

        Stored deltas that still contiguously extend the new snapshot's
        LSN are kept (an upstream heal that merely re-bases does not
        throw away the tail); everything else is dropped.
        """
        st = self.store.setdefault(frame.table, _TableStore())
        st.snapshot = frame
        st.epoch = frame.epoch
        head = frame.lsn
        kept: list[_StoredDelta] = []
        for stored in sorted(st.deltas, key=lambda d: d.lsn_first):
            if stored.lsn_first == head + 1 and stored.epoch == frame.epoch:
                kept.append(stored)
                head = stored.lsn_last
        self.counters["compacted_frames"] += len(st.deltas) - len(kept)
        st.deltas = kept
        st.head = head
        self.on_cursors_advanced()

    def _take_delta(self, frame: DeltaFrame) -> Optional[str]:
        """Extend ``frame.table``'s stored chain with a delta, or name
        why not (the nack carries the *aggregated* cursor, never the
        store head: the upstream retry resumes from what the subtree
        durably holds)."""
        table = frame.table
        st = self._chain(table)
        if st is None:
            return "diverged"  # nothing to extend: ask for a (re-)seed
        try:
            delta = delta_from_bytes(frame.payload)
        except Exception as exc:  # broad by design: adversarial bytes
            # raise anything; the nack is the answer, the note the trace.
            telemetry.note("relay.ingest_delta.parse", exc, detail=table)
            return "tamper"
        if delta.table != table:
            return "tamper"
        self._ingested += 1
        if (
            self.spot_check_every
            and self._ingested % self.spot_check_every == 0
            and not self._verify_delta_payload(table, frame.payload)
        ):
            return "tamper"
        if delta.epoch != st.epoch:
            # Cross-epoch extension needs a fresh snapshot, exactly as
            # on an edge replica.
            return "gap"
        if delta.lsn_last <= st.head:
            return "stale"
        if delta.lsn_first > st.head + 1:
            return "gap"
        if delta.lsn_first <= st.head:
            # Overlap: upstream resent from its (aggregated) cursor,
            # which is below our head.  Truncate the chain back to that
            # boundary and extend with the fresh frame — aggregated
            # cursors are always stored-frame boundaries (edges ack
            # only whole frames), so a misaligned overlap means the
            # generations diverged: reload wholesale.
            kept = [d for d in st.deltas if d.lsn_last < delta.lsn_first]
            chain_end = kept[-1].lsn_last if kept else st.snapshot.lsn
            if chain_end != delta.lsn_first - 1:
                return "diverged"
            st.deltas = kept
        st.deltas.append(
            _StoredDelta(
                lsn_first=delta.lsn_first,
                lsn_last=delta.lsn_last,
                epoch=delta.epoch,
                payload=frame.payload,
            )
        )
        st.head = delta.lsn_last
        if (
            self.max_store_bytes
            and st.deltas
            and st.retained_bytes() > self.max_store_bytes
        ):
            # Over the cap: evict the chain and heal by snapshot — the
            # fresh snapshot replaces snapshot + deltas wholesale, so
            # the nack is also the compaction request.
            self._evict_table(st)
            return "diverged"
        return None

    # ------------------------------------------------------------------
    # Cursor aggregation (min-cursor semantics)
    # ------------------------------------------------------------------

    def cursors(self) -> tuple[tuple[str, int, int], ...]:
        """The subtree's cumulative cursors, one entry per stored table
        — what every upstream ack and nack of this relay reports.

        With no connected downstream edges the relay itself is the
        subtree and reports its store head.  Otherwise each table
        reports the **minimum** acknowledged ``(lsn, epoch)`` over the
        connected edges; a table some connected edge holds no cursor
        for yet is omitted entirely — "no news", never a claim.
        Cursor reads are lock-free: per-peer cursors are monotone, so a
        torn read can only be *older*, which min-aggregation absorbs.
        """
        peers = [
            p for p in self.fanout.peers.values() if p.transport.connected
        ]
        cursors = []
        for table in sorted(self.store):
            st = self.store[table]
            if st.snapshot is None:
                continue
            if not peers:
                cursors.append((table, st.head, st.epoch))
                continue
            entries = []
            for peer in peers:
                lsn = peer.acked_lsns.get(table)
                if lsn is None:
                    entries = None
                    break
                entries.append((lsn, peer.acked_epochs.get(table, 0)))
            if entries is None:
                continue
            lsn, epoch = min(entries)
            cursors.append((table, lsn, epoch))
        return tuple(cursors)

    def _cursor_ack(self) -> CursorAckFrame:
        """The Dialer's cumulative ack, which also clears the
        spontaneous-ack dirty flag (this ack carries the very aggregate
        the flag would have announced)."""
        ack = super()._cursor_ack()
        with self._outbox_lock:
            self._agg_dirty = False
            self._last_agg = ack.cursors
        return ack

    def on_cursors_advanced(self, peer: Optional[PeerState] = None) -> None:
        """Mark the aggregate dirty if it moved — the serving loop's
        :meth:`pending_upstream` drain turns that into at most one
        spontaneous upstream :class:`CursorAckFrame` per spin."""
        agg = self.cursors()
        with self._outbox_lock:
            if agg != self._last_agg:
                self._last_agg = agg
                self._agg_dirty = True

    def pending_upstream(self) -> list[bytes]:
        """Drain spontaneous upstream frames: queued escalation nacks
        first (never coalesced), then at most one cumulative ack when
        the aggregate advanced since the last one sent."""
        with self._outbox_lock:
            frames = list(self._outbox)
            self._outbox.clear()
            dirty = self._agg_dirty
            self._agg_dirty = False
        if dirty:
            frames.append(
                frame_to_bytes(
                    CursorAckFrame(edge=self.name, cursors=self.cursors())
                )
            )
        return frames

    # ------------------------------------------------------------------
    # Downstream nack escalation & spot-checks
    # ------------------------------------------------------------------

    def on_peer_nack(self, peer: PeerState, ack, verdict: str) -> None:
        """A downstream edge rejected a stored frame.

        ``gap`` verdicts stay local (the engine retries / heals from
        the store).  ``snapshot`` verdicts implicate the store itself:
        re-verify the whole chain; if it checks out the edge is at
        fault and heals from our (good) snapshot, if it does not the
        store is dropped and a ``diverged`` nack is queued upstream
        immediately — downstream nacks are never aggregated away.
        """
        if verdict != "snapshot":
            return
        table = ack.table
        if not table or table not in self.store:
            return
        if self._verify_table(table):
            return  # store is fine; the engine already heals the edge
        self._evict_table(self.store[table])
        self._queue_diverged(table)

    def _evict_table(self, st: _TableStore) -> None:
        """Deterministically drop one table's chain (snapshot heal path)."""
        st.snapshot = None
        st.deltas = []
        st.head = 0
        self.counters["store_evictions"] += 1

    def _queue_diverged(self, table: str) -> None:
        """Queue an immediate (never aggregated) upstream request for a
        fresh snapshot of ``table``."""
        nack = AckFrame(
            edge=self.name, table=table, ok=False, lsn=0, epoch=0,
            reason="diverged",
        )
        with self._outbox_lock:
            self._outbox.append(frame_to_bytes(nack))

    def drop_store(self, table: str) -> bool:
        """Chaos hook: lose one table's stored chain as a fault.

        Models a relay that lost (or corrupted) its in-memory store
        without dying — the same state a byte-cap eviction or a failed
        self-verification produces.  Queues an immediate ``diverged``
        nack upstream so the next serve-loop drain requests the
        snapshot heal.  Returns False when there was nothing to drop.
        """
        with self._lock:
            st = self._chain(table)
            if st is None:
                return False
            self._evict_table(st)
            self._queue_diverged(table)
            self.on_cursors_advanced()
            return True

    def _verify_table(self, table: str) -> bool:
        """Best-effort verification of one stored chain: reconstruct
        the snapshot under the verify-only engine and check every
        stored delta's body signature.  A relay cannot verify *query
        semantics* (it holds no replicas) — this is the same wire-level
        check an edge performs, run over the store."""
        st = self._chain(table)
        if st is None or self.config is None:
            return False
        try:
            snapshot_from_bytes(
                st.snapshot.payload, self._verify_only(st.snapshot.epoch)
            )
        except Exception as exc:  # broad by design: a corrupted stored
            # snapshot fails verification however it fails to parse.
            telemetry.note("relay.verify_table", exc, detail=table)
            return False
        return all(
            self._verify_delta_payload(table, d.payload) for d in st.deltas
        )

    def _verify_delta_payload(self, table: str, payload: bytes) -> bool:
        if self.config is None:
            return False
        try:
            authenticate_delta(payload, table, self.config.keyring)
        except DeltaTamperError as exc:
            telemetry.note("relay.verify_delta", exc, detail=table)
            return False
        return True

    # ------------------------------------------------------------------
    # Query forwarding
    # ------------------------------------------------------------------

    def _answer(self, frame: QueryRequestFrame) -> QueryResponseFrame:
        """Round-robin the query to a connected downstream edge.

        The edge's signed response travels back untouched except for
        the piggybacked cursors, which are replaced with the relay's
        aggregate — on the upstream link a cursor means "what this
        peer's subtree acknowledges", and the answering edge's own
        cursors are already folded into that aggregate.
        """
        peers = [
            p for p in self.fanout.peers.values() if p.transport.connected
        ]
        if not peers:
            return error_response(
                self.name, f"relay {self.name!r} has no connected edges"
            )
        last_error = ""
        for i in range(len(peers)):
            peer = peers[(self._rr + i) % len(peers)]
            try:
                reply = peer.transport.request(frame)
            except TransportError as exc:
                last_error = str(exc)
                continue
            if not isinstance(reply, QueryResponseFrame):
                last_error = f"unexpected {type(reply).__name__}"
                continue
            self._rr = (self._rr + i + 1) % len(peers)
            self.fanout.observe_response_cursors(peer.name, reply.cursors)
            return dataclasses.replace(reply, cursors=self.cursors())
        return error_response(
            self.name, f"no downstream edge answered: {last_error}"
        )


# ---------------------------------------------------------------------------
# Socket serving
# ---------------------------------------------------------------------------


#: Selector timeout per serving-loop spin (readiness wakes the loop;
#: this bounds how long a cross-thread ``drop_store`` or stop waits).
_SPIN = 0.05


def run_relay(
    name: str,
    host: str,
    port: int,
    listen_host: str = "127.0.0.1",
    listen_port: int = 0,
    *,
    io_timeout: float = 30.0,
    max_reconnects: int | None = None,
    retry_attempts: int = 40,
    retry_delay: float = 0.25,
    spot_check_every: int = 0,
    max_store_bytes: int = 0,
    verbose: bool = False,
    stop_event: threading.Event | None = None,
    ready: Callable[["RelayServer", tuple[str, int]], None] | None = None,
) -> "RelayServer":
    """Serve one relay: dial upstream, listen downstream, one loop.

    Both socket directions share a single
    :class:`~repro.edge.event_loop.EdgeEventLoop`: the upstream
    connection is a handler-mode registration (incoming frames are
    answered inline by :meth:`RelayServer.handle_frame` behind
    :func:`~repro.edge.event_loop.guarded_handler`), each accepted
    downstream edge becomes a
    :class:`~repro.edge.event_loop.ReactorTransport` the relay's
    fan-out engine pumps.  The dial → handshake → serve → redial loop
    is :func:`~repro.edge.event_loop.serve_dialed`, shared with the
    edge process; each spin additionally pumps stored frames
    downstream and drains the upstream outbox (spontaneous aggregate
    acks and escalation nacks).

    Args:
        name: Relay name (upstream hello identity).
        host / port: The upstream listener (central, or another relay).
        listen_host / listen_port: Where downstream edges dial
            (``0`` = ephemeral; the bound address is reported through
            ``ready``).
        io_timeout: Connect/handshake timeout (both directions) and
            the downstream links' query-reply deadline.
        max_reconnects / retry_attempts / retry_delay / verbose: The
            upstream dial budget, as for ``serve_dialed``.
        spot_check_every / max_store_bytes: See :class:`RelayServer`.
        stop_event: Cooperative shutdown signal.
        ready: Called once with ``(relay, (host, port))`` after the
            downstream listener is bound (before the upstream dial).

    Returns:
        The relay server, once the upstream is gone for good or
        ``stop_event`` is set.
    """
    relay = RelayServer(
        name,
        spot_check_every=spot_check_every,
        max_store_bytes=max_store_bytes,
    )
    stop = stop_event if stop_event is not None else threading.Event()

    def _downstream_config() -> ConfigFrame:
        # An edge may dial before the upstream handshake delivered the
        # config; make it wait briefly instead of failing its dial.
        deadline = time.monotonic() + io_timeout
        while relay.upstream_config is None:
            if stop.is_set() or time.monotonic() > deadline:
                raise TransportError("relay has no upstream config yet")
            time.sleep(0.05)
        return relay.config_frame()

    def _attached(hello: HelloFrame, _transport) -> None:
        if verbose:
            print(f"[relay {name}] edge {hello.edge} attached", flush=True)

    seat = SocketListener(
        relay, listen_host, listen_port, site="relay", io_timeout=io_timeout,
        config=_downstream_config, admitted=_attached,
    )
    loop, bound = seat.loop, seat.address
    if ready is not None:
        ready(relay, bound)
    if verbose:
        print(f"[relay {name}] listening on {bound[0]}:{bound[1]}", flush=True)

    def _each_spin(upstream) -> None:
        relay.prune_disconnected()
        relay.fanout.pump()
        for frame_bytes in relay.pending_upstream():
            if upstream.closed:
                break
            loop.enqueue(upstream, frame_bytes)

    try:
        serve_dialed(
            loop, host, port, lambda sock: join(loop, sock, relay),
            label=f"relay {name}",
            spin=_SPIN, each_spin=_each_spin, stop=stop,
            max_reconnects=max_reconnects, retry_attempts=retry_attempts,
            retry_delay=retry_delay, io_timeout=io_timeout, verbose=verbose,
        )
    finally:
        stop.set()
        seat.close(timeout=5)
    return relay


class RelayHost:
    """Run one socket relay on a background thread (tests / benches).

    The in-process counterpart of ``python -m repro.edge.serve
    --relay``: same :func:`run_relay` loop with the CLI's defaults,
    same wire traffic, no subprocess.  Use as a context manager::

        with RelayHost("relay-0", upstream=deploy.address) as host:
            host.wait_ready()
            edges = EdgeHost(*host.address)
            ...
    """

    def __init__(self, name: str, upstream: tuple[str, int]) -> None:
        self.name = name
        self.upstream = upstream
        self.relay: Optional[RelayServer] = None
        self.address: Optional[tuple[str, int]] = None
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "RelayHost":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name=f"relay-host-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def _on_ready(self, relay: RelayServer, address: tuple[str, int]) -> None:
        self.relay = relay
        self.address = address
        self._ready.set()

    def _run(self) -> None:
        try:
            run_relay(
                self.name, *self.upstream,
                stop_event=self._stop, ready=self._on_ready,
            )
        finally:
            self._ready.set()  # never leave a waiter hanging on a crash

    def wait_ready(self, timeout: float = 30.0) -> tuple[str, int]:
        """Block until the downstream listener is bound; returns its
        address.

        Raises:
            TransportError: If the relay did not come up in time.
        """
        if not self._ready.wait(timeout) or self.address is None:
            raise TransportError(
                f"relay {self.name!r} did not come up within {timeout}s"
            )
        return self.address

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "RelayHost":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
