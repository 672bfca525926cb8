"""Central-side replication fan-out over the message transport.

Before this engine existed, ``CentralServer._after_update`` walked every
edge synchronously inside the write path — a diverged replica was healed
with an O(tree) snapshot *before* the insert returned, and one wedged
edge delayed all the others.  The fan-out engine decouples that:
mutations only *record* deltas; delivery happens in :meth:`pump` cycles
that walk the attached edges in one deterministic sweep, with

* **per-edge cumulative cursors** — each peer's delta cursor is
  central-side state fed exclusively by the edge's acknowledgements
  (:class:`~repro.edge.transport.CursorAckFrame` cumulative acks, the
  cursors piggybacked on query responses, and immediate
  :class:`~repro.edge.transport.AckFrame` nacks).  Cursor application
  is **monotonic**: a delayed, duplicated, or reordered ack can never
  regress a newer cumulative one.  The edge is untrusted, so acks are
  treated as routing hints: a lying cursor can only cause redundant
  sends or a snapshot heal, never an integrity violation — every
  payload is signed;
* **batched acknowledgement settle** — a cursor ≥ a sent frame's LSN
  acknowledges that frame and everything at or below it, so one
  cumulative ack (or one probe round) settles an entire pipelined
  window instead of one ack per frame (DESIGN.md section 10);
* **an adaptive in-flight window** — per-edge AIMD flow control
  (:class:`AdaptiveWindow`) driven by observed ack latency: fast links
  grow toward a ceiling, slow acks shrink toward a floor, and a nack
  or link fault halves the window instantly;
* **nack → retry → snapshot-heal escalation** — a ``gap`` nack gets one
  retry from the cursor the edge reports; ``tamper``/``diverged`` nacks
  (and a failed retry) escalate to a full snapshot;
* **payload sharing** — peers at the same cursor receive byte-identical
  sealed batches, built once per pump.

Wedged links (partitioned or dropping) simply leave the peer's cursor
behind; a later pump retries, and if the delta log has been truncated
past the cursor by then, the peer heals via the snapshot path — the
standard lazy-catch-up machinery, no special recovery code.

The engine's *frame source* is a collaborator, not a base class: every
read of the owning server (table list, log heads, key epochs, peer
order, ack policy, config bundle, delta payloads, snapshot frames) and
both feedback signals (cursor advances, peer nacks) go through the
``source`` object it was built with (:class:`FanoutEngine` lists the
surface).  The same delivery machinery — windows, cursors, nack
escalation, settle — therefore fans out either the central signer's
freshly sealed batches (:class:`~repro.edge.central.CentralServer` is
a source) or a relay's verbatim stored frames
(:class:`~repro.edge.relay.RelayServer` is the other, DESIGN.md section
13), and a test can drive it from a thirty-line fake.

Thread/loop ownership: pumps and drains run on whatever thread calls
them (the deployment's sync loop, or a reactor tick); per-peer state is
guarded by ``PeerState.lock`` because piggybacked query-response
cursors arrive on query threads.  Trust: this module runs **central
side** — in the default wiring the owning server holds the signing
key, but the engine itself never touches it: payloads arrive sealed
from the source, which is exactly what lets an unkeyed relay reuse it
verbatim.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.edge.link import Transport
from repro.edge.transport import (
    AckFrame,
    CursorAckFrame,
    CursorProbeFrame,
    DeltaFrame,
)
from repro.exceptions import DeltaGapError, ReplicationError, StaleKeyError

__all__ = ["AdaptiveWindow", "SentRecord", "PeerState", "FanoutEngine"]

#: Fruitless probe round trips (answered, but no cursor moved) a
#: wait-drain spends on a peer before calling it frame-losing.
_DRAIN_ROUNDS = 4

#: Wall-clock budget (seconds) of one wait-drain over a reactor: a live
#: peer still uncovered — or silent — at the end of it is frame-losing.
_DRAIN_SECONDS = 5.0


@dataclass
class AdaptiveWindow:
    """AIMD-style per-edge in-flight window (DESIGN.md section 10.3).

    Replaces the engine-wide fixed ``window`` constant: each peer's
    bound adapts to what its link can actually absorb.  Additive
    increase — every settled ack whose smoothed latency is at or under
    ``target`` grows the window by one, up to ``ceiling``; decrease —
    a slow ack shrinks it by one, and :meth:`on_fault` (nack, failed
    or dropped send, dead link) halves it instantly, never below
    ``floor``.  With ``ceiling == size`` (the default wiring) the
    window is effectively the classic fixed bound, so simulations that
    depend on an exact constant keep their determinism.

    Attributes:
        size: Current bound on unacknowledged in-flight frames.
        floor: Hard lower bound (a link must always be probed-able).
        ceiling: Hard upper bound (memory/burst safety).
        target: Smoothed ack latency (seconds) at or under which the
            link counts as fast; above it the window shrinks.
        alpha: EWMA smoothing factor for observed ack latency.
        ewma: Smoothed observed ack latency, ``None`` until the first
            settle.

    Latency samples are capped at ``8 × target`` before entering the
    EWMA: under deferred acks a frame can sit settled-but-unclaimed
    until the next sync point, and one idle-period settle measuring
    seconds would otherwise poison the average for dozens of
    subsequent fast acks (the engine additionally skips latency credit
    entirely for settles *it* solicited — see
    :meth:`FanoutEngine._settle`).
    """

    size: int
    floor: int = 1
    ceiling: int = 8
    target: float = 0.05
    alpha: float = 0.3
    ewma: Optional[float] = None

    def on_ack(self, latency: float) -> None:
        """One frame settled after ``latency`` seconds in flight."""
        sample = min(latency, 8 * self.target)
        if self.ewma is None:
            self.ewma = sample
        else:
            self.ewma = self.alpha * sample + (1 - self.alpha) * self.ewma
        if self.ewma <= self.target:
            self.size = min(self.ceiling, self.size + 1)
        else:
            self.size = max(self.floor, self.size - 1)

    def on_fault(self) -> None:
        """Instant multiplicative shrink (nack or link fault)."""
        self.size = max(self.floor, self.size // 2)


@dataclass
class SentRecord:
    """One replication frame awaiting acknowledgement coverage.

    Attributes:
        kind: ``delta`` / ``snapshot`` / ``config``.
        table: Replica the frame addresses (``""`` for config).
        lsn: Highest LSN the frame carries — covered (settled) once the
            peer's acknowledged cursor reaches it.
        epoch: Key epoch the frame was issued under (snapshots must
            match it before settling; deltas settle on LSN alone, LSNs
            being globally monotonic per table across epochs).
        sent_at: Monotonic send timestamp — ack latency feeds the
            peer's :class:`AdaptiveWindow` at settle time.
        queued: The send left the frame *in the link* (a slow or
            pipelining one) rather than at the peer — a queued
            snapshot suppresses a second O(tree) send for its table
            until an ack covers it or the link loses it.
    """

    kind: str
    table: str
    lsn: int
    epoch: int
    sent_at: float
    queued: bool = False


@dataclass
class PeerState:
    """Central-side replication state for one edge server.

    Attributes:
        name: The edge's name (transport link label).
        transport: The link to the edge.
        acked_lsns: Per-table cursor confirmed by the edge's acks
            (monotonic — see :meth:`FanoutEngine._advance_cursor`).
        acked_epochs: Per-table key epoch confirmed by acks.
        sent_lsns: Optimistic per-table cursor including frames still
            in flight (queued in a slow link); falls back to the acked
            cursor when a send is known lost.
        outstanding: Sent replication frames not yet covered by an
            acknowledged cursor; its length is the in-flight count the
            window bounds.
        window: This peer's adaptive in-flight bound.
        probe_inflight: A cursor probe is in the link — suppresses
            duplicate probes until its (or any) cumulative ack arrives.
        needs_snapshot: Tables flagged for a full-resync heal — until
            the heal's record settles, or the peer reports the table
            at the log head under its issue epoch (a heal whose record
            was forgotten in the meantime still landed).
        config_epoch: Key epoch of the last verification bundle shipped
            to this peer (handshake or refresh) — suppresses duplicate
            key-ring refreshes when several tables heal after one
            rotation.  ``None``: the peer was handed no copy — it reads
            the source's live ring — and is never refreshed.
        lock: Serializes every mutation of this record.  The pump and
            drain paths were single-writer per peer by construction,
            but piggybacked query-response cursors
            (:meth:`FanoutEngine.observe_response_cursors`) arrive on
            whatever thread served the query — without the lock a
            settle there could race an append in the pump and drop a
            sent-frame record.
    """

    name: str
    transport: Transport
    #: Required — sized by the owning engine's window configuration
    #: (:meth:`FanoutEngine.attach`), never defaulted: a silently
    #: misconfigured flow-control bound is worse than a TypeError.
    window: AdaptiveWindow
    acked_lsns: dict[str, int] = field(default_factory=dict)
    acked_epochs: dict[str, int] = field(default_factory=dict)
    sent_lsns: dict[str, int] = field(default_factory=dict)
    outstanding: list[SentRecord] = field(default_factory=list)
    probe_inflight: bool = False
    needs_snapshot: set[str] = field(default_factory=set)
    config_epoch: Optional[int] = None
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )

    @property
    def inflight(self) -> int:
        """Unacknowledged replication frames in the link."""
        return len(self.outstanding)

    def cursor(self, table: str) -> int:
        """The cursor to extend with the next send."""
        return self.sent_lsns.get(table, self.acked_lsns.get(table, 0))

    def reset_cursor(self, table: str) -> None:
        """Forget optimistic progress (a send was lost or rejected)."""
        self.sent_lsns[table] = self.acked_lsns.get(table, 0)


class FanoutEngine:
    """Concurrent, flow-controlled delta/snapshot delivery to all edges.

    Args:
        source: The owning server (same trust domain) — the *frame
            source*, the engine's only view of its owner:

            * ``replica_tables()`` — tables, in pump order;
            * ``has_replica(table)`` — untrusted-ack sanitization;
            * ``log_head(table)`` — ``None`` if never logged;
            * ``bootstrap_lag(table)`` — staleness of a never-
              bootstrapped peer of a never-logged table;
            * ``current_epoch()`` — ``StaleKeyError`` before the first;
            * ``issue_epoch(table)`` — a relay's stored chain may lag
              the ring after a rotation; not a peer needing a snapshot;
            * ``ack_every`` — the peers' ack-coalescing threshold;
            * ``config_frame()`` — the key-ring refresh;
            * ``delta_payload(table, cursor)`` — ``(payload, lsn_last)``
              of the next frame (may stop short of the head) or
              ``(None, cursor)``; ``DeltaGapError`` → snapshot;
            * ``snapshot_frame(table)`` — ``ReplicationError`` when none
              can be built now (the table stays flagged);
            * ``on_cursors_advanced(peer)``, ``on_peer_nack(peer, ack,
              verdict)`` — feedback, the peer's lock held.
        window: Initial per-edge bound on unacknowledged in-flight
            frames (each peer's :class:`AdaptiveWindow` starts here).
        window_max: Adaptive-window ceiling; ``None`` pins it to
            ``window`` (a fixed window — the deterministic default).
    """

    def __init__(
        self,
        source,
        window: int = 8,
        window_max: Optional[int] = None,
    ) -> None:
        self.source = source
        self.window = window
        self.window_max = max(window_max or window, window)
        #: Smoothed ack latency (seconds) at or under which a link
        #: counts as fast and its window grows.
        self.ack_latency_target = 0.05
        self.peers: dict[str, PeerState] = {}
        self._payload_lock = threading.Lock()
        #: The event loop owning this engine's remote links (``None`` =
        #: in-process links only).  Set by the socket listener seat
        #: (:class:`~repro.edge.event_loop.SocketListener`); pumps then
        #: collect already-ready acks without flushing (frames keep
        #: coalescing per connection), and ``drain(wait=True)`` spins
        #: it between solicitations — the medium a wait-drain advances.
        self.reactor = None

    # ------------------------------------------------------------------
    # Peer management
    # ------------------------------------------------------------------

    def attach(
        self,
        name: str,
        transport: Transport,
        cursors: Iterable[tuple[str, int, int]] = (),
        config_epoch: Optional[int] = None,
    ) -> PeerState:
        """Register an edge's transport link — both listener seats'
        ``admit``.  Re-attaching a known name is the reconnect path:
        the link it replaces is closed, so a dead socket never stays
        registered on the reactor.

        ``config_epoch`` is the key epoch of the verification bundle
        the peer was actually *sent* (the listener seat's ``admit``
        reads it off the delivered ``ConfigFrame``), never the ring as
        it stands now: a rotation racing the handshake must still
        trigger a refresh on the next pump.  ``None`` means the peer
        holds no copy at all — a central-spawned in-process edge built
        on the live ring (expiry clock included), which must never
        have it swapped for a frozen-clock copy.  ``cursors`` (resume
        state from a reconnect handshake, already sanitized by the
        caller) are seeded *before* the peer is published, so a
        concurrent pump can never observe the cursor-less intermediate
        state and ship a redundant snapshot."""
        peer = PeerState(
            name=name,
            transport=transport,
            window=AdaptiveWindow(
                size=self.window,
                ceiling=self.window_max,
                target=self.ack_latency_target,
            ),
            config_epoch=config_epoch,
        )
        for table, lsn, epoch in cursors:
            peer.acked_lsns[table] = lsn
            peer.acked_epochs[table] = epoch
            peer.sent_lsns[table] = lsn
        previous = self.peers.get(name)
        if previous is not None and previous.transport is not transport:
            previous.transport.close()
        self.peers[name] = peer
        return peer

    def peer(self, name: str) -> PeerState:
        """The peer state for ``name``.

        Raises:
            ReplicationError: If no such edge is attached.
        """
        try:
            return self.peers[name]
        except KeyError:
            raise ReplicationError(f"no edge {name!r} attached") from None

    def bootstrap(self, name: str, payloads: Optional[dict] = None) -> int:
        """Ship every table's snapshot to a newly attached edge.

        ``payloads`` is the per-sweep payload cache: callers attaching
        a whole fleet pass one shared dict so the O(tree) snapshot is
        serialized once, not once per edge (see
        :meth:`CentralServer.spawn_edge_fleet
        <repro.edge.central.CentralServer.spawn_edge_fleet>`).
        """
        peer = self.peer(name)
        if payloads is None:
            payloads = {}
        with peer.lock:
            shipped = 0
            for table in self.source.replica_tables():
                shipped += self._send_snapshot(peer, table, payloads)
            return shipped

    def staleness(self, name: str, table: str) -> int:
        """How many LSNs the edge's *acknowledged* replica of ``table``
        lags the central delta log.  Key rotation consumes an LSN
        barrier per table, so a replica that missed a rotation reports
        as stale even though no tuple changed."""
        peer = self.peer(name)
        head = self.source.log_head(table)
        if head is None:
            # Never logged: stale only if the edge was never bootstrapped.
            if table in peer.acked_epochs:
                return 0
            return self.source.bootstrap_lag(table)
        return head - peer.acked_lsns.get(table, 0)

    def stats(self) -> dict[str, dict]:
        """Per-peer delivery summary (benches / operator dashboards).

        One entry per attached edge: the in-flight count, the adaptive
        window's current bound, per-table acked cursors, and — where
        the link meters traffic — replication bytes shipped down the
        link.  In a sharded plane every shard engine reports only its
        own fleet, which is what makes per-shard fan-out cost a
        directly observable quantity."""
        out: dict[str, dict] = {}
        for name, peer in self.peers.items():
            with peer.lock:
                down = peer.transport.down_channel
                out[name] = {
                    "inflight": peer.inflight,
                    "window": peer.window.size,
                    "needs_snapshot": sorted(peer.needs_snapshot),
                    "acked_lsns": dict(peer.acked_lsns),
                    "bytes_down": down.total_bytes,
                    "bytes_by_kind": down.bytes_by_kind(),
                }
        return out

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def pump(
        self,
        tables: Optional[Iterable[str]] = None,
        force_snapshot: bool = False,
    ) -> int:
        """One delivery cycle over every attached edge, in attach
        order; returns the number of frames shipped.

        Each peer is first drained (queued frames flushed, pending acks
        applied), then brought up to date on ``tables`` (default: all
        replicated trees) subject to its in-flight window.  The sweep
        is serial: over TCP a send only enqueues (the reactor writes),
        so there is no per-peer blocking to overlap.
        """
        peers = list(self.peers.values())
        if not peers:
            return 0
        if self.reactor is not None:
            # Read-collect spin: land whatever acks the kernel already
            # has (so the per-peer drain below applies them) WITHOUT
            # flushing outbound queues — consecutive eager pumps keep
            # stacking frames per connection, and the next settle ships
            # each edge's whole batch in one vectored write.
            self.reactor.run_once(0.0, flush_writes=False)
        names = (
            list(tables) if tables is not None
            else self.source.replica_tables()
        )
        payloads: dict = {}
        return sum(
            self._sync_peer(peer, names, force_snapshot, payloads)
            for peer in peers
        )

    def _sync_peer(
        self, peer: PeerState, names: list, force_snapshot: bool, payloads: dict
    ) -> int:
        with peer.lock:
            self._process_replies(peer, peer.transport.flush())
            sync = self._send_snapshot if force_snapshot else self._sync_table
            return sum(sync(peer, table, payloads) for table in names)

    def settle(
        self, tables: Optional[Iterable[str]] = None, rounds: int = 8
    ) -> int:
        """Pump, then wait-drain, until :meth:`settled` — this
        engine's propagate-to-quiescence loop (a deployment's
        ``sync``).  Several rounds let the nack → retry → snapshot
        escalation run out: a heal needs one round to learn of the
        problem and one to ship the fix.

        Returns:
            The rounds used — ``rounds`` when it gave up (a held or
            partitioned link stays outstanding; ask :meth:`settled`).
        """
        tables = list(tables) if tables is not None else None
        for used in range(1, rounds + 1):
            self.pump(tables)
            self.drain(wait=True)
            if self.settled(tables):
                return used
        return max(rounds, 0)

    def settled(self, tables: Optional[Iterable[str]] = None) -> bool:
        """True when every *connected* peer has nothing in flight, no
        snapshot pending and no acknowledged lag on ``tables``
        (default: every replicated table).  A relay's acks carry
        min-cursor aggregates over its own connected edges, so a
        settled central is transitively a statement about the tree."""
        names = (
            list(tables) if tables is not None
            else self.source.replica_tables()
        )
        # Snapshot: an accept thread may attach a dialer mid-iteration.
        for peer in list(self.peers.values()):
            if not peer.transport.connected:
                continue
            if peer.needs_snapshot or peer.inflight:
                return False
            if any(self.staleness(peer.name, t) for t in names):
                return False
        return True

    def drain(self, name: Optional[str] = None, wait: bool = False) -> None:
        """Collect and apply outstanding acks without sending deltas.

        Pipelining transports (the reactor link's enqueue-only sends)
        leave acks in the link until the next pump; deployments
        call this to settle cursors after a propagation round.  With
        ``wait=True`` this is the batched-ack settle loop, one loop
        for every medium: apply what is buffered, solicit a
        :class:`~repro.edge.transport.CursorProbeFrame` from every
        peer with frames still uncovered (one probe settles a whole
        window, and over TCP it rides the same vectored write as the
        peer's queued deltas), advance the medium — one reactor spin
        for *all* peers at once, nothing when delivery is synchronous
        — and apply the cumulative acks, until each peer is

        * **covered** — nothing outstanding, no probe in the link;
        * **parked** — a ``hold`` / ``partitioned`` link keeps its
          optimism and settles after the fault clears;
        * **dead** — its optimistic state is forgotten (frames the
          peer never processed are resent by a later pump — a lost
          tail is never silently dropped), the window charged once;
        * **out of budget** — :data:`_DRAIN_ROUNDS` probe round trips
          that moved no cursor where delivery is synchronous (a count,
          never a clock: an in-process run stays a pure function of
          its seeds, DESIGN.md section 14.2), :data:`_DRAIN_SECONDS`
          of wall clock over a reactor.  A live link that ran out is
          losing frames: forgotten like a dead one, and never closed.

        A round whose ack advanced *any* cursor is progress, not loss,
        and consumes no budget (bounded — cursors are monotone and
        clamped to the log head), so a healthy but lagging peer is not
        declared frame-losing and flooded with resends.  Never do
        ``wait=True`` on the write path.
        """
        pending = [self.peer(name)] if name is not None else list(self.peers.values())
        budget: dict[str, tuple] = {}
        deadline = time.monotonic() + _DRAIN_SECONDS
        while True:
            pending = [p for p in pending if self._drain_peer(p, wait, budget)]
            if not pending:
                return
            if self.reactor is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.reactor.run_once(min(remaining, 0.2))
        for peer in pending:
            with peer.lock:
                if peer.outstanding:
                    self._forget_outstanding(peer)

    def _drain_peer(self, peer: PeerState, wait: bool, budget: dict) -> bool:
        """One step of :meth:`drain` for one peer; True while the peer
        is worth another look after the medium has advanced."""
        with peer.lock:
            self._process_replies(peer, peer.transport.flush())
            if not wait or not (peer.outstanding or peer.probe_inflight):
                return False
            if not peer.transport.connected:
                self._forget_outstanding(peer)
                return False
            if peer.probe_inflight:
                # Asked already; only the medium can bring the answer,
                # and not while the link is parked.
                return (
                    self.reactor is not None
                    and not peer.transport.faults.blocks_delivery
                )
            cursors = (dict(peer.acked_lsns), dict(peer.acked_epochs))
            asked, spent = budget.get(peer.name, (None, 0))
            if asked == cursors:
                # The last probe was answered and nothing moved: the
                # peer's cumulative ack omitted the uncovered tables
                # (a relay whose slowest edge lags) or the frames are
                # gone.  "No news" must not pass for good news.
                spent += 1
                if spent >= _DRAIN_ROUNDS:
                    self._forget_outstanding(peer)
                    return False
            status = self._solicit(peer)
            if status in ("failed", "dropped"):
                return False
            if peer.transport.faults.blocks_delivery:
                return False  # the probe waits in the link with the rest
            # Rounds are counted where the answer is already in
            # (synchronous delivery); a reactor link answers in its
            # own time and is held to the deadline instead.
            counted = status == "delivered" or self.reactor is None
            budget[peer.name] = (cursors if counted else None, spent)
            return True

    def _send(
        self, peer: PeerState, frame, record: Optional[SentRecord] = None
    ) -> tuple[str, str]:
        """Ship one frame and book what became of it — the one place
        the four send outcomes are handled.  ``failed`` / ``dropped``
        charge the window once and fall the frame's table back to its
        acknowledged cursor (a later pump resends); a link found dead
        loses its whole pipelined tail with it — one event, one
        halving.  ``queued`` / ``delivered`` enter ``record`` (if any)
        in the in-flight window, and a delivered frame's replies are
        applied.  Returns ``(status, verdict of the replies)``."""
        outcome = peer.transport.send(frame)
        if outcome.status in ("failed", "dropped"):
            peer.window.on_fault()
            if record is not None and record.table:
                peer.reset_cursor(record.table)
            if not peer.transport.connected:
                self._forget_outstanding(peer, fault=False)
            return outcome.status, "ok"
        if record is not None:
            record.queued = outcome.status == "queued"
            peer.outstanding.append(record)
            if record.table:
                peer.sent_lsns[record.table] = record.lsn
        if outcome.status == "queued":
            return "queued", "ok"
        return "delivered", self._process_replies(peer, outcome.replies)

    def _solicit(self, peer: PeerState) -> str:
        """Ask the peer for its cumulative cursors (ack solicitation)."""
        if peer.probe_inflight:
            return "pending"
        # In flight *before* the send: a probe delivered synchronously
        # has its cumulative ack applied inside the send, and the ack
        # must be recognized as solicited to skip the latency credit —
        # frames it settles aged at the workload's pace, not the
        # link's.  The ack clears the flag; only a queued probe keeps it.
        peer.probe_inflight = True
        status, _verdict = self._send(peer, CursorProbeFrame())
        if status != "queued":
            peer.probe_inflight = False
        return status

    def _forget_outstanding(self, peer: PeerState, fault: bool = True) -> None:
        """A link fault lost (or may have lost) every in-flight frame:
        drop the optimistic state so later pumps resend and heal —
        delivery failures surface as resends/nacks, never as a
        silently-dropped tail.  ``fault=False`` when the caller already
        charged the window for this same event (one fault, one halving
        — §10.3's AIMD contract)."""
        peer.outstanding.clear()
        peer.probe_inflight = False
        for table in list(peer.sent_lsns):
            peer.reset_cursor(table)
        if fault:
            peer.window.on_fault()

    def _sync_table(self, peer: PeerState, table: str, payloads: dict) -> int:
        shipped = 0
        gap_retried = False
        while True:
            needs_snapshot = (
                table in peer.needs_snapshot
                or peer.acked_epochs.get(table) != self.source.issue_epoch(table)
            )
            if needs_snapshot:
                return shipped + self._send_snapshot(peer, table, payloads)
            cursor = peer.cursor(table)
            head = self.source.log_head(table) or 0
            if cursor >= head:
                return shipped
            if self._window_blocked(peer):
                return shipped  # flow control: revisit on a later pump
            try:
                payload, lsn_last = self._cached(
                    payloads, self.source.delta_payload, table, cursor
                )
            except DeltaGapError:
                return shipped + self._send_snapshot(peer, table, payloads)
            if payload is None or lsn_last <= cursor:
                return shipped
            status, verdict = self._send(
                peer,
                DeltaFrame(table, payload),
                SentRecord(
                    kind="delta", table=table, lsn=lsn_last,
                    epoch=peer.acked_epochs.get(table, 0),
                    sent_at=time.monotonic(),
                ),
            )
            if status == "failed":
                return shipped  # partitioned or dead: retry on a later pump
            shipped += 1
            if status == "dropped":
                return shipped  # lost in flight: retry on a later pump
            if status == "queued":
                if lsn_last >= head:
                    return shipped
                # A stored-frame source (relay) ships pre-sealed
                # batches one frame at a time: keep forwarding toward
                # the head, window permitting.  The central's live
                # batches always reach the head in one frame, so this
                # branch never loops there.
                continue
            if verdict == "gap":
                # gap nack: one retry from the cursor the edge
                # reported, then either success or snapshot escalation.
                if gap_retried:
                    return shipped + self._send_snapshot(
                        peer, table, payloads
                    )
                gap_retried = True
                continue
            if table in peer.needs_snapshot:
                return shipped + self._send_snapshot(peer, table, payloads)
            if peer.cursor(table) >= (self.source.log_head(table) or 0):
                return shipped
            # Delivered mid-stream with ground still to cover (stored
            # frames ahead): keep forwarding.

    def _window_blocked(self, peer: PeerState) -> bool:
        """Window check, with ack solicitation under coalescing.

        When acks are deferred (``ack_every > 1``), a full window may
        consist entirely of frames the edge has already *applied* but
        not yet acknowledged — without solicitation the pipeline would
        wedge until the next settle point whenever the coalescing
        threshold exceeds the window.  One probe frees the whole
        window (synchronously in-process, by the next pump's drain
        over TCP), so ack traffic stays paced by the window, never by
        the frame count.  Under per-frame acks a full window means
        genuinely undelivered frames and probing it is pure noise.
        """
        if peer.inflight < peer.window.size:
            return False
        if self.source.ack_every > 1:
            self._solicit(peer)
            return peer.inflight >= peer.window.size
        return True

    def _send_snapshot(
        self, peer: PeerState, table: str, payloads: dict
    ) -> int:
        if self._window_blocked(peer):
            return 0
        if any(
            r.queued and r.kind == "snapshot" and r.table == table
            for r in peer.outstanding
        ):
            return 0  # one O(tree) transfer per table in the link at a time
        # A peer holding a *copy* of the key ring (whatever it was sent
        # when it was admitted — over a socket or in-process) gets one
        # refresh per rotation, before the first cross-epoch snapshot,
        # or its signatures will not verify over there.  A peer that
        # was sent nothing reads the live ring and needs none.
        current_epoch = self.source.current_epoch()
        if peer.config_epoch not in (None, current_epoch):
            status, _verdict = self._send(
                peer,
                self.source.config_frame(),
                SentRecord(
                    kind="config", table="", lsn=0, epoch=current_epoch,
                    sent_at=time.monotonic(),
                ),
            )
            if status in ("failed", "dropped"):
                return 0  # link is down; retry the heal on a later pump
            peer.config_epoch = current_epoch
            if status == "queued" and peer.inflight >= peer.window.size:
                # The refresh consumed the last window slot; the
                # O(tree) snapshot waits for a later pump rather
                # than overshooting the bound.
                return 1
        try:
            frame = self._cached(payloads, self.source.snapshot_frame, table)
        except ReplicationError:
            # A source that cannot produce the snapshot right now (a
            # relay whose store was dropped after a tamper escalation)
            # leaves the table flagged; the heal completes once the
            # source is re-seeded.  The central wiring never raises.
            peer.needs_snapshot.add(table)
            return 0
        if frame.lsn < peer.acked_lsns.get(table, 0):
            # Rewind heal: the snapshot is *behind* the peer's banked
            # cursor.  The central never produces this (its snapshots
            # are built at the log head, and acked cursors are clamped
            # to it), but a stored-frame source can — a relay whose
            # chain was replaced by a coalesced resend serves its
            # stored snapshot, and a peer that acked a now-vanished
            # frame boundary must be rewound through it and replayed.
            # Its banked cursor refers to a chain this source no longer
            # serves, so drop it; otherwise the monotone-cursor guard
            # discards the regressed ack and the heal livelocks.
            peer.acked_lsns.pop(table, None)
            peer.acked_epochs.pop(table, None)
            peer.sent_lsns.pop(table, None)
        status, _verdict = self._send(
            peer,
            frame,
            SentRecord(
                kind="snapshot", table=table, lsn=frame.lsn,
                epoch=frame.epoch, sent_at=time.monotonic(),
            ),
        )
        return 0 if status == "failed" else 1

    # ------------------------------------------------------------------
    # Acknowledgement application (DESIGN.md section 10)
    # ------------------------------------------------------------------

    def _process_replies(self, peer: PeerState, replies: Sequence) -> str:
        """Apply every reply frame; returns the *worst* verdict seen
        (``snapshot`` > ``gap`` > ``ok``), so a nack travelling next to
        a cumulative ack still drives the escalation."""
        rank = {"ok": 0, "gap": 1, "snapshot": 2}
        verdict = "ok"
        for reply in replies:
            if isinstance(reply, CursorAckFrame):
                self._apply_cursor_ack(peer, reply)
                outcome = "ok"
            elif isinstance(reply, AckFrame):
                outcome = self._apply_ack(peer, reply)
            else:
                # A non-ack reply to a replication frame is an edge-side
                # failure with no table attribution: forget *all*
                # optimistic progress so later pumps resend (and, via
                # the edge's nacks, heal) instead of assuming delivery.
                self._forget_outstanding(peer)
                outcome = "ok"
            if rank[outcome] > rank[verdict]:
                verdict = outcome
        return verdict

    def _advance_cursor(
        self, peer: PeerState, table: str, lsn: int, epoch: int
    ) -> None:
        """Monotonic cursor application, with untrusted-input
        sanitization.

        Every cursor here came from an edge (cumulative ack, nack, or
        a piggybacked query response), so the hello-path rules apply
        at this one choke point too: unknown replicas are dropped
        (else fabricated table names grow ``acked_lsns`` without
        bound) and the LSN/epoch are clamped to the log head / current
        epoch — a lying cursor *ahead* of the log would otherwise make
        ``_sync_table`` skip the table forever (silent permanent
        staleness, the outcome §10.2 promises cannot happen), and an
        epoch from the future would pin the cross-epoch check into a
        perpetual snapshot loop.

        Table LSNs are globally monotonic (key rotation burns a
        barrier LSN instead of restarting the sequence), so the newest
        information always carries the highest ``(lsn, epoch)`` — any
        out-of-order, duplicate, or stale ack is simply outranked and
        can never regress ``acked_lsns``/``acked_epochs`` (the
        regression the pre-batching engine allowed by assigning
        cursors unconditionally).
        """
        if not self.source.has_replica(table):
            return
        head = self.source.log_head(table)
        lsn = min(lsn, head or 0)
        try:
            epoch = min(epoch, self.source.current_epoch())
            if lsn == head and epoch == self.source.issue_epoch(table):
                # The peer *reports* the table current: whatever flagged
                # it has been healed, whether or not the heal's record
                # is still outstanding (a wait-drain may have forgotten
                # it while the snapshot sat in a held link).  Only a
                # report counts — the banked cursor of a peer that
                # nacked at the head proves nothing.
                peer.needs_snapshot.discard(table)
        except StaleKeyError:
            pass  # no epoch registered yet (bare central in unit tests)
        current = peer.acked_lsns.get(table)
        if current is None or lsn > current:
            peer.acked_lsns[table] = lsn
            peer.acked_epochs[table] = epoch
        elif lsn == current and epoch > peer.acked_epochs.get(table, -1):
            peer.acked_epochs[table] = epoch
        peer.sent_lsns[table] = max(
            peer.sent_lsns.get(table, 0), peer.acked_lsns[table]
        )

    def _settle(self, peer: PeerState, credit_latency: bool = True) -> None:
        """Retire every outstanding frame the acknowledged cursors now
        cover — the batched-ack core: one cumulative cursor settles an
        entire window.  Each settled frame feeds its observed ack
        latency into the peer's adaptive window, except when
        ``credit_latency`` is off: a settle *we* solicited (probe
        reply) or happened upon (piggybacked query cursors) measures
        the central's own settle timing, not the link's speed, and
        must not walk a fast link's window down."""
        if not peer.outstanding:
            return
        now = time.monotonic()
        remaining: list[SentRecord] = []
        for record in peer.outstanding:
            if record.kind == "config":
                remaining.append(record)  # settled by its control ack
                continue
            acked = peer.acked_lsns.get(record.table)
            covered = acked is not None and acked >= record.lsn
            if covered and record.kind == "snapshot":
                covered = (
                    peer.acked_epochs.get(record.table, -1) >= record.epoch
                )
            if covered:
                if credit_latency:
                    peer.window.on_ack(now - record.sent_at)
                if record.kind == "snapshot":
                    peer.needs_snapshot.discard(record.table)
            else:
                remaining.append(record)
        peer.outstanding = remaining

    def _drop_outstanding(self, peer: PeerState, table: str) -> None:
        """Retire (without ack credit) every outstanding frame for
        ``table`` — they were nacked or superseded; the escalation
        path owns the table now."""
        peer.outstanding = [
            r for r in peer.outstanding if r.table != table
        ]

    def _apply_cursor_ack(self, peer: PeerState, ack: CursorAckFrame) -> None:
        """One cumulative ack: advance every cursor monotonically, then
        settle the outstanding frames those cursors cover.  An ack that
        answers *our* probe carries no link-speed information (the
        frames may have sat settled-but-unclaimed until we asked), so
        solicited settles skip the latency feedback."""
        solicited, peer.probe_inflight = peer.probe_inflight, False
        self._absorb_cursors(peer, ack.cursors, credit_latency=not solicited)

    def observe_response_cursors(
        self, name: str, cursors: Sequence[tuple[str, int, int]]
    ) -> None:
        """Feed the cursors piggybacked on a query response into the
        peer's ack state (the deployment layer calls this — query
        responses travel on the same ordered link as replication, so a
        piggybacked cursor is exactly as authoritative as a
        :class:`~repro.edge.transport.CursorAckFrame`).  Unknown peers
        are ignored; application is monotonic like every other ack."""
        peer = self.peers.get(name)
        if peer is None or not cursors:
            return
        # This is the one PeerState writer that runs on a query thread
        # rather than the pump's; the peer lock keeps its settle from
        # racing a concurrent send's bookkeeping.
        with peer.lock:
            self._absorb_cursors(peer, cursors, credit_latency=False)

    def _absorb_cursors(
        self, peer: PeerState, cursors: Sequence, credit_latency: bool
    ) -> None:
        """Advance every cursor monotonically, settle what they cover,
        and tell the source — one cumulative ack's worth of news."""
        for table, lsn, epoch in cursors:
            self._advance_cursor(peer, table, lsn, epoch)
        self._settle(peer, credit_latency=credit_latency)
        self.source.on_cursors_advanced(peer)

    def _apply_ack(self, peer: PeerState, ack: AckFrame) -> str:
        table = ack.table
        if table and not self.source.has_replica(table):
            # Untrusted input: a fabricated replica name must not grow
            # needs_snapshot (or any per-table state) without bound.
            return "ok"
        if not table:
            # Control ack (a key-ring refresh): settle the config frame.
            now = time.monotonic()
            remaining = []
            for record in peer.outstanding:
                if record.kind == "config":
                    peer.window.on_ack(now - record.sent_at)
                else:
                    remaining.append(record)
            peer.outstanding = remaining
            return "ok"
        if ack.ok or ack.reason == "stale":
            # `stale` means the edge already holds the range — a benign
            # duplicate (e.g. a resend racing a queued frame).  The
            # carried cursor still advances central state (monotonic).
            self._advance_cursor(peer, table, ack.lsn, ack.epoch)
            self._settle(peer)
            self.source.on_cursors_advanced(peer)
            return "ok"
        if ack.reason == "gap":
            if ack.lsn < peer.acked_lsns.get(table, 0):
                # An outranked gap nack is never a mere delay: replies
                # travel the ordered link in generation order and the
                # edge's cursor is monotone, so a cursor *behind* what
                # this edge already acknowledged means the replica
                # regressed underneath us (state loss, at-rest
                # tampering).  Obeying it would regress `acked_lsns`
                # (the monotonicity bug); ignoring it would retry the
                # same gapping delta forever.  Escalate: replace the
                # replica wholesale — monotonic cursors must never
                # mask divergence.
                peer.needs_snapshot.add(table)
                self._drop_outstanding(peer, table)
                peer.reset_cursor(table)
                peer.window.on_fault()
                self.source.on_peer_nack(peer, ack, "snapshot")
                return "snapshot"
            # Trust the reported cursor as a routing hint only; the
            # retried batch is signed, so a lying edge gains nothing.
            # The retry resumes from the *sanitized* acknowledged
            # cursor (reset, not the raw ack.lsn — a lying cursor
            # ahead of the log must not park sent_lsns in the future).
            self._advance_cursor(peer, table, ack.lsn, ack.epoch)
            peer.reset_cursor(table)
            self._drop_outstanding(peer, table)
            peer.window.on_fault()
            self.source.on_peer_nack(peer, ack, "gap")
            return "gap"
        # tamper / diverged / unknown: the replica cannot be trusted to
        # extend — replace it wholesale.
        peer.needs_snapshot.add(table)
        self._drop_outstanding(peer, table)
        peer.reset_cursor(table)
        peer.window.on_fault()
        self.source.on_peer_nack(peer, ack, "snapshot")
        return "snapshot"

    # ------------------------------------------------------------------
    # Payloads (built once per pump, shared across peers)
    # ------------------------------------------------------------------

    def _cached(self, payloads: dict, build, *key):
        with self._payload_lock:
            if key not in payloads:
                payloads[key] = build(*key)
            return payloads[key]
