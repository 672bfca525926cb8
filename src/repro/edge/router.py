"""Verified query routing across a fleet of edge servers.

The paper's deployment story (Section 3.1, Figure 2) is *many* edge
servers answering on-demand queries whose results clients verify
locally.  This module is the client-side piece that makes the fleet
usable: an :class:`EdgeRouter` holds query channels to N edges
(in-process or TCP), tracks what it can observe about each —

* **latency** — an exponentially weighted moving average over the
  round-trip time each channel reports (simulated transfer seconds for
  in-process links, wall clock over TCP);
* **staleness hints** — the LSN cursor every
  :class:`~repro.edge.transport.QueryResponseFrame` now echoes
  (DESIGN.md section 9).  Hints are untrusted, like everything an edge
  says: a lying cursor can only skew routing, never verification;
* **health** — consecutive transport failures put an edge into a
  cooldown window; it is retried once the window lapses and rejoins the
  rotation on the first success —

and picks an edge per query under a pluggable :class:`RoutingPolicy`.
Routing *orders* the whole fleet rather than choosing a single edge, so
a failed attempt falls through to the next-best candidate and a query
only fails when every edge is exhausted (:class:`~repro.exceptions.RouterError`).

:class:`VerifyingRouter` composes routing with the paper's verification
guarantee: every routed result is verified with the existing
:class:`~repro.edge.client.Client`, and a REJECT **quarantines** the
edge (it served tampered data — cooldown is not enough) and transparently
fails over to the next-best edge.  Tamper detection thereby becomes an
availability mechanism: a fabric with a tampering edge keeps returning
verified ACCEPTs, and the tampered edge stops receiving traffic.  This
is the lazy-trust tradeoff WedgeChain (Nawab, 2020) makes explicit —
results from possibly-lagging, possibly-compromised edges are usable
*because* they are verifiable after the fact.

Role and ownership: the router runs **client-side**, inside the
trusted perimeter of whoever holds the central's *public* keys — it
holds no signing key and adds nothing to the trust base.  It is
single-threaded by construction (per-query state lives on the stack;
per-edge stats are plain attributes) and does not own sockets: each
query channel borrows the deployment's current connection for the
target edge, so a restarted edge process is routable the moment it
re-registers.  A channel may equally point at a relay
(DESIGN.md section 13) — the relay round-robins the query over its
own edges, and verification still happens here, end-to-end against
the signer's public key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

from repro.core.secondary import secondary_index_name
from repro.core.vo import AuthenticatedResult
from repro.core.wire import predicate_to_bytes, result_from_bytes
from repro.edge import telemetry
from repro.edge.link import InProcessTransport, Transport
from repro.edge.transport import (
    MAX_CURSORS,
    QueryRequestFrame,
    QueryResponseFrame,
    range_query_frame,
    secondary_query_frame,
    select_query_frame,
)
from repro.exceptions import RouterError, TransportError

#: Smoothing factor of the per-edge latency EWMA (higher = reacts
#: faster).
_EWMA_ALPHA = 0.3

__all__ = [
    "RoutingPolicy",
    "EdgeStats",
    "RoutedResponse",
    "VerifiedResponse",
    "MergedResponse",
    "TransportQueryChannel",
    "DeploymentQueryChannel",
    "in_process_query_channel",
    "EdgeRouter",
    "VerifyingRouter",
    "ScatterGatherRouter",
]


class RoutingPolicy(Enum):
    """How the router orders candidate edges for one query.

    Every policy is deterministic given the router's observed state, so
    routing decisions are exactly reproducible in tests and benches.
    """

    ROUND_ROBIN = "round_robin"      # rotate through healthy edges
    LOWEST_LATENCY = "lowest_latency"  # EWMA ascending, unprobed first
    FRESHEST = "freshest"            # highest known LSN for the replica
    WEIGHTED = "weighted"            # smooth WRR, weight ~ 1/EWMA


@dataclass
class EdgeStats:
    """Everything the router has observed about one edge.

    Attributes:
        name: The edge's name (channel label).
        served: Queries this edge answered successfully.
        failures: Transport faults + error responses, cumulative.
        rejects: Results that failed client-side verification
            (populated by :class:`VerifyingRouter`).
        consecutive_failures: Current failure streak (reset on success).
        ewma_latency: Smoothed observed round-trip seconds, or ``None``
            until the edge has answered at least once.
        cooldown_until: Clock value before which the edge is skipped
            (0 when healthy).
        quarantined: Permanently out of rotation (served tampered
            data); only :meth:`EdgeRouter.release` re-admits it.
        quarantine_reason: The verification verdict (or other cause)
            that triggered the quarantine.
        last_error: Most recent transport/verification failure text.
        cursors: Replica name → highest LSN this edge has echoed.
        epochs: Replica name → key epoch last echoed.
    """

    name: str
    served: int = 0
    failures: int = 0
    rejects: int = 0
    consecutive_failures: int = 0
    ewma_latency: Optional[float] = None
    cooldown_until: float = 0.0
    quarantined: bool = False
    quarantine_reason: str = ""
    last_error: str = ""
    cursors: dict[str, int] = field(default_factory=dict)
    epochs: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RoutedResponse:
    """One routed (not yet verified) query answer.

    Attributes:
        edge: The edge that answered.
        frame: The raw response frame (cursor echo included).
        result: The deserialized authenticated result.
        latency: Round-trip seconds the channel reported.
        attempts: Every edge tried for this query, in order — length 1
            when the first choice answered, longer after failover.
    """

    edge: str
    frame: QueryResponseFrame
    result: AuthenticatedResult
    latency: float
    attempts: tuple[str, ...]


@dataclass(frozen=True)
class VerifiedResponse:
    """A routed answer that passed client-side verification.

    Attributes:
        edge: The edge whose result verified.
        result: The verified authenticated result.
        verdict: The ACCEPT verdict (``verdict.ok`` is always True).
        latency: Round-trip seconds for the accepted attempt.
        attempts: Every edge tried, across all verify-or-failover
            rounds, in order.
        rejected: Edges whose results failed verification for this
            query (now quarantined).
    """

    edge: str
    result: AuthenticatedResult
    verdict: Any
    latency: float
    attempts: tuple[str, ...]
    rejected: tuple[str, ...]


# ---------------------------------------------------------------------------
# Query channels — one request/reply surface over any medium
# ---------------------------------------------------------------------------


class TransportQueryChannel:
    """Query channel over a fixed :class:`~repro.edge.link.Transport`.

    Args:
        name: The edge's name.
        transport: A connected transport whose peer answers query
            frames (an in-process link wired to
            :meth:`~repro.edge.edge_server.EdgeServer.handle_frame`, or
            an accepted :class:`~repro.edge.event_loop.ReactorTransport`).

    Latency is the channel model's deterministic transfer seconds
    (request + reply — :class:`~repro.edge.network.Channel`'s
    rtt/bandwidth math), never wall clock: on a fixed link wall-clock
    differences are noise, but a per-link ``rtt_seconds`` makes "the
    slow edge" an exact, reproducible quantity.  Wall clock is
    :class:`DeploymentQueryChannel`'s job.
    """

    def __init__(self, name: str, transport: Transport) -> None:
        self.name = name
        self.transport = transport

    def request(self, frame: QueryRequestFrame) -> tuple[QueryResponseFrame, float]:
        """One query round-trip; returns ``(response, latency_seconds)``.

        Raises:
            TransportError: If the link is down/faulted or the peer
                answered with something other than a query response.
        """
        reply = self.transport.request(frame)
        if not isinstance(reply, QueryResponseFrame):
            raise TransportError(
                f"edge {self.name!r} answered a query with "
                f"{type(reply).__name__}"
            )
        return reply, (
            self.transport.down_channel.transfers[-1].seconds
            + self.transport.up_channel.transfers[-1].seconds
        )


class DeploymentQueryChannel:
    """Query channel to one edge process of a live
    :class:`~repro.edge.deploy.Deployment`.

    The transport is resolved *per request* from the deployment's edge
    table, so a killed-and-restarted edge is reachable again as soon as
    its new connection completes the registration handshake — the
    router's cooldown/recovery machinery needs no deployment-specific
    code.  Latency is wall clock: over real sockets the observed
    round-trip is exactly what a latency-aware policy should route on.
    """

    def __init__(self, deployment, name: str) -> None:
        self.deployment = deployment
        self.name = name

    def request(self, frame: QueryRequestFrame) -> tuple[QueryResponseFrame, float]:
        """One query round-trip over the edge's current connection.

        Raises:
            TransportError: If the edge is not connected or the link
                drops mid-exchange.
        """
        handle = self.deployment.edges.get(self.name)
        if handle is None or handle.transport is None or not handle.transport.connected:
            raise TransportError(f"edge {self.name!r} is not connected")
        start = time.perf_counter()
        reply = handle.transport.request(frame)
        if not isinstance(reply, QueryResponseFrame):
            raise TransportError(
                f"edge {self.name!r} answered a query with "
                f"{type(reply).__name__}"
            )
        # Bank the piggybacked cursors centrally: the response shared
        # the ordered replication link, so they are acks (DESIGN.md
        # section 10) — query traffic keeps the fan-out engine's
        # staleness view current between settle points for free.
        self.deployment.central.fanout.observe_response_cursors(
            self.name, reply.cursors
        )
        return reply, time.perf_counter() - start


def in_process_query_channel(
    edge, down_channel=None, up_channel=None
) -> TransportQueryChannel:
    """A dedicated client↔edge query link for an in-process edge.

    Separate from the replication link on purpose: queries and
    replication never share a flow-control window, and the link's
    channels meter query traffic exactly as a TCP link would (the
    Transport ABC's consolidated metering).  Pass a custom
    ``down_channel``/``up_channel`` (e.g. with a higher
    ``rtt_seconds``) to model a slow edge deterministically.
    """
    link = InProcessTransport(edge.name, down_channel, up_channel)
    link.connect(edge.handle_frame)
    return TransportQueryChannel(edge.name, link)


# ---------------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------------


class _QuerySurface:
    """Convenience query builders shared by :class:`EdgeRouter` and
    :class:`VerifyingRouter` (mirroring the edge / deployment query
    API) — each builds the wire frame and defers to ``self.query``, so
    the two classes cannot drift apart."""

    def range_query(
        self,
        table: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ):
        """Routed primary-key range query."""
        return self.query(range_query_frame(table, low, high, columns, vo_format))

    def secondary_range_query(
        self,
        table: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ):
        """Routed secondary-index range query."""
        return self.query(
            secondary_query_frame(table, attribute, low, high, columns, vo_format)
        )

    def select_query(
        self,
        table: str,
        predicate,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ):
        """Routed general-predicate selection."""
        return self.query(
            select_query_frame(
                table, predicate_to_bytes(predicate), columns, vo_format
            )
        )


class EdgeRouter(_QuerySurface):
    """Staleness/latency-aware query router over N edge channels.

    Args:
        channels: Query channels, one per edge (anything with a
            ``.name`` and a ``.request(frame) -> (response, seconds)``).
        policy: Candidate ordering policy (name or enum).
        failure_threshold: Consecutive transport failures before an
            edge enters cooldown.
        cooldown: Seconds (on ``clock``) an edge sits out after
            crossing the failure threshold.
        clock: Time source for cooldown bookkeeping — injectable so the
            health state machine is deterministic under test.
    """

    def __init__(
        self,
        channels: Sequence,
        policy: RoutingPolicy | str = RoutingPolicy.ROUND_ROBIN,
        failure_threshold: int = 3,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not channels:
            raise RouterError("a router needs at least one edge channel")
        self.policy = RoutingPolicy(policy)
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self._channels = {ch.name: ch for ch in channels}
        if len(self._channels) != len(channels):
            raise RouterError("edge channel names must be unique")
        self._names = list(self._channels)  # insertion order = tie-break
        self._stats = {name: EdgeStats(name=name) for name in self._names}
        self._rotation = 0
        #: Smooth-WRR running counters (``weighted`` policy only).
        self._wrr_current: dict[str, float] = dict.fromkeys(self._names, 0.0)
        self.queries = 0
        self.failovers = 0
        self.failed_queries = 0

    # ------------------------------------------------------------------
    # Observed state
    # ------------------------------------------------------------------

    @property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def edge_stats(self, name: str) -> EdgeStats:
        """The live stats record for ``name`` (KeyError if unknown)."""
        return self._stats[name]

    def stats(self) -> dict[str, EdgeStats]:
        """Per-edge observed state, by edge name."""
        return dict(self._stats)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict summary (for benches / logs)."""
        return {
            "policy": self.policy.value,
            "queries": self.queries,
            "failovers": self.failovers,
            "failed_queries": self.failed_queries,
            "edges": {
                s.name: {
                    "served": s.served,
                    "failures": s.failures,
                    "rejects": s.rejects,
                    "ewma_latency": s.ewma_latency,
                    "quarantined": s.quarantined,
                    "quarantine_reason": s.quarantine_reason,
                    "in_cooldown": self._in_cooldown(s),
                }
                for s in self._stats.values()
            },
        }

    def observe_cursor(
        self, name: str, table: str, lsn: int, epoch: int = 0
    ) -> None:
        """Install a staleness hint out of band (e.g. seeded from the
        central fan-out engine's ack-fed cursors at construction).
        Monotonic: an older hint never regresses a newer echo."""
        stats = self._stats[name]
        if lsn >= stats.cursors.get(table, 0):
            stats.cursors[table] = lsn
            stats.epochs[table] = epoch

    def seed_from_fanout(self, fanout) -> None:
        """Seed staleness hints from a central fan-out engine's ack-fed
        cursors (the authoritative central-side staleness view), so a
        fresh ``freshest`` router routes sensibly before any edge has
        answered a query.  Unknown edge names are skipped."""
        for name in self.edge_names:
            peer = fanout.peers.get(name)
            if peer is None:
                continue
            for table, lsn in peer.acked_lsns.items():
                self.observe_cursor(
                    name, table, lsn, peer.acked_epochs.get(table, 0)
                )

    def quarantine(self, name: str, reason: str = "") -> None:
        """Remove ``name`` from rotation until :meth:`release`."""
        stats = self._stats[name]
        stats.quarantined = True
        stats.quarantine_reason = reason

    def release(self, name: str) -> None:
        """Re-admit a quarantined edge (e.g. after re-imaging it)."""
        stats = self._stats[name]
        stats.quarantined = False
        stats.quarantine_reason = ""
        stats.consecutive_failures = 0
        stats.cooldown_until = 0.0

    # ------------------------------------------------------------------
    # Candidate ordering
    # ------------------------------------------------------------------

    def _in_cooldown(self, stats: EdgeStats) -> bool:
        return stats.cooldown_until > self.clock()

    def _replica_name(self, frame: QueryRequestFrame) -> str:
        if frame.kind == "secondary" and frame.attribute is not None:
            return secondary_index_name(frame.table, frame.attribute)
        return frame.table

    def ordering(self, frame: QueryRequestFrame, exclude=()) -> list[str]:
        """Full candidate order for ``frame`` under the current policy —
        the failover sequence.  Pure: does not advance any rotation or
        WRR state (that happens once per :meth:`query`).

        Healthy edges come first, ordered by the policy; edges in
        cooldown follow (same policy order) as a last resort;
        quarantined edges never appear.
        """
        exclude = set(exclude)
        eligible = [
            n for n in self._names
            if n not in exclude and not self._stats[n].quarantined
        ]
        healthy = [n for n in eligible if not self._in_cooldown(self._stats[n])]
        cooling = [n for n in eligible if self._in_cooldown(self._stats[n])]
        replica = self._replica_name(frame)
        return self._policy_order(healthy, replica) + self._policy_order(
            cooling, replica
        )

    def _rotated(self, names: list[str]) -> list[str]:
        if not names:
            return names
        start = self._rotation % len(names)
        return names[start:] + names[:start]

    def _policy_order(self, names: list[str], replica: str) -> list[str]:
        if len(names) <= 1:
            return list(names)
        if self.policy is RoutingPolicy.ROUND_ROBIN:
            return self._rotated(names)
        if self.policy is RoutingPolicy.LOWEST_LATENCY:
            # Unprobed edges first (explore once), then EWMA ascending;
            # rotation breaks ties so equal-latency edges share load.
            return sorted(
                self._rotated(names),
                key=lambda n: (
                    self._stats[n].ewma_latency is not None,
                    self._stats[n].ewma_latency or 0.0,
                ),
            )
        if self.policy is RoutingPolicy.FRESHEST:
            # Edges with no hint yet are probed first — cursor knowledge
            # only comes from echoes (or seeding), and without the probe
            # the policy would lock onto the first responder.  Known
            # edges order by LSN descending; rotation breaks ties.
            return sorted(
                self._rotated(names),
                key=lambda n: (
                    replica in self._stats[n].cursors,
                    -self._stats[n].cursors.get(replica, 0),
                ),
            )
        # WEIGHTED: smooth weighted round-robin (nginx-style) with
        # weights proportional to inverse observed latency, so a 10×
        # slower edge gets ~10× fewer queries instead of none at all.
        weights = self._wrr_weights(names)
        projected = {
            n: self._wrr_current.get(n, 0.0) + weights[n] for n in names
        }
        return sorted(names, key=lambda n: (-projected[n], self._names.index(n)))

    def _wrr_weights(self, names: list[str]) -> dict[str, float]:
        measured = [
            self._stats[n].ewma_latency
            for n in names
            if self._stats[n].ewma_latency is not None
        ]
        floor = min(measured) if measured else None
        weights: dict[str, float] = {}
        for n in names:
            ewma = self._stats[n].ewma_latency
            if ewma is None or floor is None or ewma <= 0:
                weights[n] = 100.0  # unprobed: explore at full weight
            else:
                weights[n] = max(1.0, round(100.0 * floor / ewma))
        return weights

    def _commit_choice(self, exclude=()) -> None:
        """Advance the per-query routing state exactly once, over the
        same candidate set :meth:`ordering` ranked (``exclude``
        included, or an excluded edge would be debited as the WRR
        choice it never was)."""
        exclude = set(exclude)
        self._rotation += 1
        if self.policy is RoutingPolicy.WEIGHTED:
            eligible = [
                n for n in self._names
                if n not in exclude and not self._stats[n].quarantined
            ]
            names = [
                n for n in eligible if not self._in_cooldown(self._stats[n])
            ] or eligible
            if not names:
                return
            weights = self._wrr_weights(names)
            for n in names:
                self._wrr_current[n] = self._wrr_current.get(n, 0.0) + weights[n]
            chosen = max(
                names,
                key=lambda n: (self._wrr_current[n], -self._names.index(n)),
            )
            self._wrr_current[chosen] -= sum(weights.values())

    def select(self, frame: QueryRequestFrame, exclude=()) -> str:
        """The edge :meth:`query` would try first, without querying.

        Raises:
            RouterError: If no edge is eligible.
        """
        order = self.ordering(frame, exclude)
        if not order:
            raise RouterError(
                f"no eligible edge for {frame.kind} query on "
                f"{frame.table!r} (all quarantined or excluded)"
            )
        return order[0]

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def query(self, frame: QueryRequestFrame, exclude=()) -> RoutedResponse:
        """Route one query, failing over along the policy order.

        Returns:
            The first successfully parsed response.

        Raises:
            RouterError: When every candidate edge failed.
        """
        order = self.ordering(frame, exclude)
        if not order:
            raise RouterError(
                f"no eligible edge for {frame.kind} query on "
                f"{frame.table!r} (all quarantined or excluded)"
            )
        self.queries += 1
        self._commit_choice(exclude)
        replica = self._replica_name(frame)
        attempts: list[str] = []
        for name in order:
            stats = self._stats[name]
            attempts.append(name)
            try:
                reply, latency = self._channels[name].request(frame)
            except TransportError as exc:
                self._record_failure(stats, str(exc))
                continue
            if reply.error:
                # An application-level error ("no replica of X") fails
                # this query over to the next edge but says nothing
                # about the *link* — it must not feed the cooldown
                # streak, or a healthy edge missing one replica would
                # be deprioritized for every table it serves fine.
                self._record_failure(stats, reply.error, link_fault=False)
                continue
            try:
                result = result_from_bytes(reply.payload)
            except Exception as exc:
                # Counted: an unparseable payload is either tampering
                # (the adversary tests drive this) or a codec bug —
                # both worth a counter, not just a failover (FL002).
                telemetry.note("router.payload_parse", exc)
                self._record_failure(
                    stats, f"unparseable response payload: {exc}"
                )
                continue
            self._record_success(stats, reply, latency, replica)
            self.failovers += len(attempts) - 1
            return RoutedResponse(
                edge=name,
                frame=reply,
                result=result,
                latency=latency,
                attempts=tuple(attempts),
            )
        self.failed_queries += 1
        raise RouterError(
            f"every edge failed {frame.kind} query on {frame.table!r} "
            f"(tried {attempts})"
        )

    def _record_success(
        self,
        stats: EdgeStats,
        reply: QueryResponseFrame,
        latency: float,
        replica: str,
    ) -> None:
        stats.served += 1
        stats.consecutive_failures = 0
        stats.cooldown_until = 0.0
        stats.last_error = ""
        if stats.ewma_latency is None:
            stats.ewma_latency = latency
        else:
            stats.ewma_latency = (
                _EWMA_ALPHA * latency + (1 - _EWMA_ALPHA) * stats.ewma_latency
            )
        if reply.lsn >= stats.cursors.get(replica, 0):
            stats.cursors[replica] = reply.lsn
            stats.epochs[replica] = reply.epoch
        # Piggybacked cumulative cursors: one response refreshes the
        # staleness hint for *every* replica this edge holds, so a
        # `freshest` router learns about tables it has never queried
        # there.  Monotonic, like every hint, and bounded — the names
        # come from an untrusted edge, and fabricated ones spread over
        # many responses must not grow a long-lived client's state
        # without limit.  One frame carries at most MAX_CURSORS
        # (replicas per node); so does the table: once full, hints for
        # *known* replicas keep updating and unknown names are dropped.
        for table, lsn, epoch in reply.cursors:
            if table not in stats.cursors and len(stats.cursors) >= MAX_CURSORS:
                continue
            if lsn >= stats.cursors.get(table, 0):
                stats.cursors[table] = lsn
                stats.epochs[table] = epoch

    def _record_failure(
        self, stats: EdgeStats, error: str, link_fault: bool = True
    ) -> None:
        """Count one failed attempt; only *link* faults (transport
        errors, garbled payloads) advance the cooldown streak —
        per-replica error responses are not a health signal."""
        stats.failures += 1
        stats.last_error = error
        if not link_fault:
            return
        stats.consecutive_failures += 1
        if stats.consecutive_failures >= self.failure_threshold:
            stats.cooldown_until = self.clock() + self.cooldown

    def record_reject(self, name: str, reason: str) -> None:
        """Count a client-side verification REJECT against ``name`` —
        the verdict surfaces in :meth:`stats` / :meth:`snapshot`."""
        stats = self._stats[name]
        stats.rejects += 1
        stats.last_error = reason


class VerifyingRouter(_QuerySurface):
    """Verify-or-failover: routing composed with client verification.

    Every routed result is verified with ``client``; a REJECT (or an
    unusable response) quarantines the edge and the query transparently
    fails over to the next-best candidate, so callers only ever see
    verified ACCEPTs — or a :class:`~repro.exceptions.RouterError` once
    the whole fleet is exhausted.

    Args:
        router: The routing core (policies, health, stats).
        client: A verifying client holding the central server's key
            ring (:meth:`~repro.edge.central.CentralServer.make_client`).
    """

    def __init__(self, router: EdgeRouter, client) -> None:
        self.router = router
        self.client = client
        self.accepts = 0
        self.rejects = 0

    def stats(self) -> dict[str, EdgeStats]:
        """Per-edge observed state (see :meth:`EdgeRouter.stats`)."""
        return self.router.stats()

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict summary including verification counters."""
        out = self.router.snapshot()
        out["accepts"] = self.accepts
        out["rejects"] = self.rejects
        return out

    def query(self, frame: QueryRequestFrame) -> VerifiedResponse:
        """Route, verify, and fail over until a result verifies.

        Raises:
            RouterError: When no remaining edge produces a verified
                result.
        """
        rejected: list[str] = []
        attempts: list[str] = []
        excluded: set[str] = set()
        rounds = 0
        while True:
            try:
                routed = self.router.query(frame, exclude=excluded)
            except RouterError:
                if rounds:
                    self.router.queries -= 1
                raise
            rounds += 1
            if rounds > 1:
                # A verify-reject retry is the same logical query
                # failing over across rounds, not a new client query —
                # keep the routing counters meaning what they say.
                self.router.queries -= 1
                self.router.failovers += 1
            attempts.extend(routed.attempts)
            # Every edge tried this round is spent for this logical
            # query: the answering edge is about to be judged, and the
            # ones that failed in transport have already fed the health
            # cooldown once.  Excluding them from later verify-rounds
            # keeps that "exactly once" — without this, a reject round
            # re-attempted the same down edge and double-counted its
            # failure streak (probing it toward cooldown on the back of
            # a *different* edge's tampering).
            excluded.update(routed.attempts)
            verdict = self.client.verify(routed.result)
            if verdict.ok:
                self.accepts += 1
                return VerifiedResponse(
                    edge=routed.edge,
                    result=routed.result,
                    verdict=verdict,
                    latency=routed.latency,
                    attempts=tuple(attempts),
                    rejected=tuple(rejected),
                )
            # Tampered data: cooldown is not enough — the edge is out
            # of rotation until an operator releases it.
            self.rejects += 1
            self.router.record_reject(routed.edge, verdict.reason)
            self.router.quarantine(
                routed.edge, reason=f"verification rejected: {verdict.reason}"
            )
            rejected.append(routed.edge)


# ---------------------------------------------------------------------------
# Shard-aware scatter/gather
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergedResponse:
    """A scatter/gather answer assembled from verified shard sub-results.

    Every sub-result was verified against *its own shard's* public
    keys before merging, and a range partition's shards are visited in
    key order — so the merged ``rows``/``keys`` read exactly like one
    verified unsharded answer.  Completeness across shards follows
    from the shard map: the half-open ranges tile the key domain, so
    the union of per-shard completeness proofs covers the whole query
    range (DESIGN.md section 12).

    Attributes:
        table: Queried table name.
        rows: Result tuples, concatenated across shards in shard (=
            key) order.
        keys: Primary key per result row, same order.
        parts: The per-shard :class:`VerifiedResponse` sub-results, in
            shard order.
        shards: Shard id of each entry in ``parts``.
        attempts: Every edge tried, across all shards, in order.
        rejected: Edges quarantined for failing verification during
            this query (tampering is contained per shard — the other
            shards' sub-results are all present in ``parts``).
    """

    table: str
    rows: list[tuple[Any, ...]]
    keys: list[Any]
    parts: tuple[VerifiedResponse, ...]
    shards: tuple[int, ...]
    attempts: tuple[str, ...]
    rejected: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def verified(self) -> bool:
        """Always True by construction: every part carried an ACCEPT
        verdict from its shard's verifying router before merging."""
        return all(part.verdict.ok for part in self.parts)


class ScatterGatherRouter:
    """Shard-aware query planning over per-shard verifying routers.

    A range query is *planned* against the shard map — only the shards
    whose key ranges overlap the query are contacted, each with the
    query clamped to its own range — then *gathered*: every sub-result
    arrives through that shard's :class:`VerifyingRouter` (verify or
    fail over within the shard, quarantine on REJECT) and the verified
    sub-results merge into one :class:`MergedResponse`.  A tampering
    edge in shard ``k`` therefore costs shard ``k`` a failover; shards
    ``≠ k`` never notice.

    Args:
        shard_map: Placement map (anything with ``plan(table, low,
            high)`` and ``shards_for_table(table)`` —
            :class:`~repro.edge.sharding.ShardMap` or a map restored
            from ConfigFrame wire tuples).
        routers: shard id → that shard's :class:`VerifyingRouter`.
    """

    def __init__(self, shard_map, routers: dict[int, VerifyingRouter]) -> None:
        if not routers:
            raise RouterError("a scatter/gather router needs shard routers")
        self.shard_map = shard_map
        self.routers = dict(routers)
        self.queries = 0
        self.scattered_queries = 0

    def router_for(self, shard_id: int) -> VerifyingRouter:
        """The verifying router of one shard (RouterError if absent)."""
        try:
            return self.routers[shard_id]
        except KeyError:
            raise RouterError(f"no router for shard {shard_id}") from None

    def _gather(
        self, table: str, plan: Sequence[tuple[int, Any, Any]], query
    ) -> MergedResponse:
        parts: list[VerifiedResponse] = []
        shards: list[int] = []
        rows: list[tuple[Any, ...]] = []
        keys: list[Any] = []
        attempts: list[str] = []
        rejected: list[str] = []
        for shard_id, low, high in plan:
            sub = query(self.router_for(shard_id), low, high)
            parts.append(sub)
            shards.append(shard_id)
            rows.extend(sub.result.rows)
            keys.extend(sub.result.keys)
            attempts.extend(sub.attempts)
            rejected.extend(sub.rejected)
        return MergedResponse(
            table=table,
            rows=rows,
            keys=keys,
            parts=tuple(parts),
            shards=tuple(shards),
            attempts=tuple(attempts),
            rejected=tuple(rejected),
        )

    def range_query(
        self,
        table: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ) -> MergedResponse:
        """Scattered primary-key range query, merged in key order.

        Raises:
            RouterError: When some overlapping shard cannot produce a
                verified sub-result (its whole fleet exhausted).
        """
        plan = self.shard_map.plan(table, low, high)
        self.queries += 1
        if len(plan) > 1:
            self.scattered_queries += 1
        return self._gather(
            table,
            plan,
            lambda router, lo, hi: router.range_query(
                table, lo, hi, columns, vo_format
            ),
        )

    def secondary_range_query(
        self,
        table: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ) -> MergedResponse:
        """Secondary-attribute range query, scattered to *every* shard
        holding the table (a key-range partition says nothing about
        where attribute values live).  Rows concatenate in shard
        order; each shard's slice is attribute-ordered."""
        plan = [
            (shard_id, low, high)
            for shard_id in self.shard_map.shards_for_table(table)
        ]
        self.queries += 1
        if len(plan) > 1:
            self.scattered_queries += 1
        return self._gather(
            table,
            plan,
            lambda router, lo, hi: router.secondary_range_query(
                table, attribute, lo, hi, columns, vo_format
            ),
        )

    def select_query(
        self,
        table: str,
        predicate,
        columns: Optional[Sequence[str]] = None,
        vo_format=None,
    ) -> MergedResponse:
        """General-predicate selection, scattered to every shard
        holding the table."""
        shard_ids = self.shard_map.shards_for_table(table)
        self.queries += 1
        if len(shard_ids) > 1:
            self.scattered_queries += 1
        return self._gather(
            table,
            [(shard_id, None, None) for shard_id in shard_ids],
            lambda router, lo, hi: router.select_query(
                table, predicate, columns, vo_format
            ),
        )

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict summary: scatter counters + per-shard snapshots."""
        return {
            "queries": self.queries,
            "scattered_queries": self.scattered_queries,
            "shards": {
                shard_id: router.snapshot()
                for shard_id, router in self.routers.items()
            },
        }
