"""The trusted central DBMS (Figure 2, left).

Owns the master database, the signing key pair, the key ring, and the
VB-trees; applies all updates (only it can sign digests) and replicates
them to edge servers as signed **deltas** over a per-table log
(DESIGN.md section 6), delivered through the message transport
(DESIGN.md section 7): eager mode pumps the fan-out engine after each
update commits, lazy mode coalesces the pending log into batches on
:meth:`CentralServer.propagate`, and a full snapshot ships only on edge
bootstrap, log gap, key rotation, or divergence healing.

Edge servers are reached *only* through serialized transport frames —
the central server never hands an edge a live object, and an edge holds
no reference back (the paper's trust boundary, now structural).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

from repro.constants import RSA_BITS
from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.secondary import secondary_index_name
from repro.core.update import AuthenticatedUpdater
from repro.core.vbtree import VBTree
from repro.core.wire import snapshot_to_bytes
from repro.crypto.keyring import KeyRing
from repro.crypto.rsa import RSAKeyPair, generate_keypair
from repro.crypto.signatures import DigestSigner
from repro.db.mview import MaterializedJoinView
from repro.db.rows import Row
from repro.db.schema import Catalog, TableSchema
from repro.db.transactions import TransactionManager
from repro.edge.fanout import FanoutEngine
from repro.edge.link import FaultInjector, Transport, wire
from repro.edge.replication import Replicator
from repro.edge.transport import (
    ConfigFrame,
    HelloFrame,
    SnapshotFrame,
    config_to_frame,
)
from repro.exceptions import (
    DuplicateKeyError,
    ReplicationError,
    SchemaError,
)

__all__ = [
    "CentralServer",
    "ReplicationMode",
    "ClientConfig",
]


class ReplicationMode(Enum):
    """How updates reach the edge servers (Section 3.4)."""

    EAGER = "eager"    # pump the fan-out engine per committed update
    LAZY = "lazy"      # deltas accumulate; edges catch up on propagate()


@dataclass(frozen=True)
class ClientConfig:
    """Everything a client needs to verify results from this server."""

    db_name: str
    policy: DigestPolicy
    keyring: KeyRing


class CentralServer:
    """The trusted central DBMS.

    Args:
        db_name: Logical database name (hashed into every digest).
        rsa_bits: Signing key size (512 keeps simulations fast).
        seed: Deterministic key generation seed.
        policy: Digest policy for all VB-trees.
        replication: Eager or lazy replica maintenance.
        max_log_entries: Per-table delta-log retention; edges that fall
            further behind than this resync via full snapshot.
        fanout_window: Initial per-edge bound on unacknowledged
            in-flight replication frames (flow control — see
            :class:`~repro.edge.fanout.FanoutEngine`).
        fanout_window_max: Adaptive-window ceiling; ``None`` pins the
            window at ``fanout_window`` — the fixed, deterministic
            default.  Raise it to let fast links grow their pipeline.
        ack_every: Ack-coalescing frame threshold pushed to every edge
            (DESIGN.md section 10).  ``1`` (default) acknowledges every
            replication frame — the exact pre-batching cadence;
            deployments and benches raise it to cut ack traffic (one
            cumulative cursor ack per ``ack_every`` frames).
        ack_bytes: Ack-coalescing byte threshold pushed to every edge.
        shard_id: This server's slot in a sharded central plane
            (see :class:`~repro.edge.sharding.ShardedCentral`); ``-1``
            (default) means standalone — the single-signer deployment,
            wire-compatible with every pre-sharding peer.
    """

    def __init__(
        self,
        db_name: str,
        rsa_bits: int = RSA_BITS,
        seed: int | None = None,
        policy: DigestPolicy = DigestPolicy.FLATTENED,
        replication: ReplicationMode = ReplicationMode.EAGER,
        max_log_entries: int = 1024,
        fanout_window: int = 8,
        fanout_window_max: int | None = None,
        ack_every: int = 1,
        ack_bytes: int = 1 << 18,
        shard_id: int = -1,
    ) -> None:
        self.db_name = db_name
        self.shard_id = shard_id
        self.policy = policy
        self.replication = replication
        self.ack_every = max(1, ack_every)
        self.ack_bytes = max(1, ack_bytes)
        self.replicator = Replicator(max_log_entries=max_log_entries)
        self.keyring = KeyRing()
        self._keypair: RSAKeyPair = generate_keypair(bits=rsa_bits, seed=seed)
        self.keyring.register(self._keypair.public)
        self._signer = DigestSigner.from_keypair(
            self._keypair, epoch=self.keyring.current_epoch
        )
        self.catalog = Catalog(db_name)
        #: Every tree by name — base tables, join views, secondary
        #: indexes.  A base table's VB-tree is the central's only copy
        #: of its rows.
        self.vbtrees: dict[str, VBTree] = {}
        self.views: dict[str, MaterializedJoinView] = {}
        self._updaters: dict[str, AuthenticatedUpdater] = {}
        self._secondary_of: dict[str, list[str]] = {}
        self.txn_manager = TransactionManager()
        #: The live in-process edge servers, by name (spawn order).
        self._edges: dict = {}
        self.fanout = FanoutEngine(
            self, window=fanout_window, window_max=fanout_window_max
        )

    # ------------------------------------------------------------------
    # Signing plumbing
    # ------------------------------------------------------------------

    def signing_engine(self) -> SigningDigestEngine:
        """A fresh digest engine bound to the current signing key — what
        every VB-tree is built with, and what the comparison benches
        build the standalone Naive baseline with."""
        engine = DigestEngine(self.db_name, policy=self.policy)
        return SigningDigestEngine(engine, self._signer)

    @property
    def public_key(self):
        """Current public key (current epoch)."""
        return self._keypair.public

    def client_config(self) -> ClientConfig:
        """Bundle of verification parameters — the public parameters
        an edge server is allowed to hold are the same bundle: edges
        and clients trust exactly the same PKI-distributed one."""
        return ClientConfig(
            db_name=self.db_name, policy=self.policy, keyring=self.keyring
        )

    def make_client(self, meter=None):
        """Construct a :class:`~repro.edge.client.Client` wired to this
        server's key ring and digest parameters."""
        from repro.edge.client import Client

        return Client(self.client_config(), meter=meter)

    def make_router(
        self,
        edges: Sequence | None = None,
        policy="round_robin",
        channels: Sequence | None = None,
        **kwargs,
    ):
        """A :class:`~repro.edge.router.VerifyingRouter` over in-process
        edge servers, on dedicated query links (never the replication
        links — queries and replication must not share a flow-control
        window).

        Staleness hints are seeded from the fan-out engine's ack-fed
        cursors, so a ``freshest`` router routes sensibly before any
        edge has answered a single query.

        Args:
            edges: Edge servers to route over (default: every attached
                in-process edge).
            policy: Routing policy name or enum.
            channels: Pre-built query channels (overrides ``edges`` —
                the hook for custom per-edge latency models).
            **kwargs: Forwarded to
                :class:`~repro.edge.router.VerifyingRouter`.
        """
        from repro.edge.router import VerifyingRouter, in_process_query_channel

        if channels is None:
            if edges is None:
                edges = self.edges
            if not edges:
                raise ReplicationError(
                    "no in-process edge servers to route over"
                )
            channels = [in_process_query_channel(edge) for edge in edges]
        router = VerifyingRouter(
            channels, self.make_client(), policy=policy, **kwargs
        )
        router.seed_from_fanout(self.fanout)
        return router

    # ------------------------------------------------------------------
    # Schema / data management
    # ------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]] = (),
        fanout_override: int | None = None,
    ) -> VBTree:
        """Create a base table: its VB-tree, built over ``rows`` in key
        order, is the table."""
        self.catalog.register(schema)
        ordered = sorted(
            (Row(schema, values) for values in rows), key=lambda row: row.key
        )
        vbt = VBTree.build(
            schema, ordered, self.signing_engine(), fanout_override=fanout_override
        )
        return self._add_tree(schema.name, vbt)

    def create_join_view(
        self,
        name: str,
        left: str,
        right: str,
        left_column: str,
        right_column: str,
        fanout_override: int | None = None,
    ) -> MaterializedJoinView:
        """Materialize an equi-join of two base tables and build a
        VB-tree over it (Section 3.3's join strategy): each left row's
        join partners, left rows in key order — the maintenance path."""
        # Both bases must be base tables: maintenance runs on base
        # writes only, so it would never reach a view built on a view.
        left_rows = self.base_table(left).rows()
        self.base_table(right)
        view = MaterializedJoinView(
            name, self.vbtrees, left, right, left_column, right_column
        )
        self.catalog.register(view.schema)
        rows = [
            view.materialize(joined)
            for lrow in left_rows
            for joined in view.peek_left_insert(lrow)
        ]
        self.views[name] = view
        vbt = VBTree.build(
            view.schema, rows, self.signing_engine(), fanout_override=fanout_override
        )
        self._add_tree(name, vbt)
        return view

    def create_secondary_index(
        self,
        table: str,
        attribute: str,
        fanout_override: int | None = None,
    ) -> str:
        """Build a secondary VB-tree on ``attribute`` (the paper's
        "one or more VB-trees" per table; see
        :mod:`repro.core.secondary`).

        Returns:
            The index name (``<table>__by_<attribute>``), which a
            ``secondary`` query frame addresses
            (:func:`~repro.edge.transport.secondary_query_frame`).
        """
        base = self.base_table(table)
        name = secondary_index_name(table, attribute)
        if name in self.vbtrees:
            raise SchemaError(f"secondary index {name!r} already exists")
        vbt = VBTree.build(
            base.schema,
            base.rows(),
            self.signing_engine(),
            fanout_override=fanout_override,
            attribute=attribute,
        )
        self._add_tree(name, vbt)
        self._secondary_of.setdefault(table, []).append(name)
        self.propagate(name)
        return name

    def base_table(self, name: str) -> VBTree:
        """The VB-tree of base table ``name`` — the central's only copy
        of its rows, and the only kind of tree a write may name.

        Raises:
            SchemaError: For an unknown name, a join view or a
                secondary index: those are maintained from their bases,
                never written or indexed directly.
        """
        vbt = self.vbtrees.get(name)
        if vbt is None:
            raise SchemaError(f"no table {name!r}")
        if name in self.views or vbt.attribute is not None:
            raise SchemaError(
                f"{name!r} is not a base table: views and indexes are"
                " maintained from their bases, never written"
            )
        return vbt

    def _add_tree(self, name: str, vbt: VBTree) -> VBTree:
        self.vbtrees[name] = vbt
        self._updaters[name] = AuthenticatedUpdater(vbt)
        return vbt

    # ------------------------------------------------------------------
    # Updates (Section 3.4 — updates go through the central server)
    #
    # One logical update touches several trees: the base table's
    # VB-tree, every secondary index, and every affected join view.
    # All of them commit under ONE transaction whose locks are acquired
    # up front — a denied lock (or any planning failure) aborts with
    # every tree untouched and nothing in the replication log, so base
    # table and indexes can never come apart.
    # ------------------------------------------------------------------

    def insert(self, table: str, values: Sequence[Any]) -> Row:
        """Insert one row into base table ``table`` — its VB-tree, every
        secondary index and join view on it, atomically — then (eager)
        replica propagation.  A view or index name raises
        ``SchemaError`` (:meth:`base_table`)."""
        vbt = self.base_table(table)
        row = Row(vbt.schema, values)
        if row.key in vbt.tree:
            raise DuplicateKeyError(
                f"duplicate key {row.key!r} in table {table!r}"
            )
        txn = self.txn_manager.begin()
        try:
            # Phase 1 — plan + lock every digest path the update needs.
            self._updaters[table].lock_path(vbt.key_of(row), txn)
            index_names = list(self._secondary_of.get(table, ()))
            for index_name in index_names:
                self._updaters[index_name].lock_path(
                    self.vbtrees[index_name].key_of(row), txn
                )
            view_plan = []
            for view in self.views.values():
                if view.left == table:
                    joined = view.peek_left_insert(row)
                elif view.right == table:
                    joined = view.peek_right_insert(row)
                else:
                    continue
                if not joined:
                    continue
                for key in view.next_keys(len(joined)):
                    self._updaters[view.name].lock_path(key, txn)
                view_plan.append((view, joined))
        except Exception:
            txn.abort()
            raise
        affected = [table, *index_names]
        try:
            # Phase 2 — mutate everything under the held locks.
            self._updaters[table].insert(row, txn=txn)
            for index_name in index_names:
                self._updaters[index_name].insert(row, txn=txn)
            for view, joined in view_plan:
                updater = self._updaters[view.name]
                for joined_values in joined:
                    vrow = view.materialize(joined_values)
                    updater.insert(vrow, txn=txn)
                affected.append(view.name)
            txn.commit()
        except BaseException:
            txn.abort()
            raise
        for name in affected:
            self._record_deltas(name)
        self._replicate(affected)
        return row

    def delete(self, table: str, key: Any) -> Row:
        """Delete one row of base table ``table`` everywhere (its
        VB-tree, indexes, views) atomically, then (eager) replica
        propagation."""
        vbt = self.base_table(table)
        row = vbt.get_row(key)  # KeyNotFoundError before anything mutates
        txn = self.txn_manager.begin()
        try:
            self._updaters[table].lock_path(vbt.key_of(row), txn)
            index_names = list(self._secondary_of.get(table, ()))
            for index_name in index_names:
                self._updaters[index_name].lock_path(
                    self.vbtrees[index_name].key_of(row), txn
                )
            view_plan = []
            for view in self.views.values():
                if view.left == table:
                    removed = view.peek_left_delete(row)
                elif view.right == table:
                    removed = view.peek_right_delete(row)
                else:
                    continue
                if not removed:
                    continue
                for vrow in removed:
                    self._updaters[view.name].lock_path(vrow.key, txn)
                view_plan.append((view, removed))
        except Exception:
            txn.abort()
            raise
        affected = [table, *index_names]
        try:
            self._updaters[table].delete(key, txn=txn)
            for index_name in index_names:
                secondary = self.vbtrees[index_name]
                self._updaters[index_name].delete(secondary.key_of(row), txn=txn)
            for view, removed in view_plan:
                updater = self._updaters[view.name]
                for vrow in removed:
                    updater.delete(vrow.key, txn=txn)
                affected.append(view.name)
            txn.commit()
        except BaseException:
            txn.abort()
            raise
        for name in affected:
            self._record_deltas(name)
        self._replicate(affected)
        return row

    def _record_deltas(self, table: str) -> None:
        """Move every pending delta the updater emitted into the log.

        Draining the whole queue matters: one logical update can emit
        several deltas (view maintenance inserts one row per joined
        tuple)."""
        for delta in self._updaters[table].take_deltas():
            self.replicator.record(
                table, delta, self._signer, self.public_key.signature_len
            )

    def _replicate(self, tables: Sequence[str] | None = None) -> None:
        """Eagerly pump the fan-out engine for ``tables``.

        The write path only *enqueues* (records deltas in the log); this
        pump delivers them — and heals diverged replicas via snapshot —
        after the update has committed, so a wedged edge can never fail
        or delay the central write."""
        if self.replication is ReplicationMode.EAGER:
            self.fanout.pump(tables)

    # ------------------------------------------------------------------
    # Key rotation (Section 3.4's stale-data defence)
    # ------------------------------------------------------------------

    def rotate_key(self, rsa_bits: int | None = None, seed: int | None = None) -> int:
        """Generate a new key pair, register a new epoch, and re-sign
        every digest.  Edge replicas become stale until propagated.

        Returns:
            The new epoch number.
        """
        bits = rsa_bits or self._keypair.bits
        self._keypair = generate_keypair(bits=bits, seed=seed)
        self.keyring.register(self._keypair.public)
        self._signer = DigestSigner.from_keypair(
            self._keypair, epoch=self.keyring.current_epoch
        )
        for name, vbt in list(self.vbtrees.items()):
            rebuilt = VBTree.build(
                vbt.schema,
                list(vbt.rows()),
                self.signing_engine(),
                fanout_override=vbt.tree.fanout_override,
                attribute=vbt.attribute,
            )
            rebuilt.version = vbt.version + 1
            self._add_tree(name, rebuilt)
        # Every signature in every log entry is now obsolete: consume an
        # LSN barrier per table so laggard edges detect the gap and
        # resync via snapshot (their epoch check catches it too).
        for name in self.vbtrees:
            self.replicator.log_for(name).barrier()
        if self.replication is ReplicationMode.EAGER:
            self.propagate()
        return self.keyring.current_epoch

    # ------------------------------------------------------------------
    # The fan-out engine's frame source (``FanoutEngine(source)``):
    # everything the delivery engine reads from, or reports to, this
    # server — the live signer seals one batch up to the log head.
    # ------------------------------------------------------------------

    def replica_tables(self) -> list:
        return list(self.vbtrees)

    def has_replica(self, table: str) -> bool:
        return table in self.vbtrees

    def log_head(self, table: str) -> int | None:
        log = self.replicator.logs.get(table)
        return None if log is None else log.last_lsn

    def bootstrap_lag(self, table: str) -> int:
        # Every version is missing, plus one for the snapshot itself.
        return self.vbtrees[table].version + 1

    def current_epoch(self) -> int:
        return self.keyring.current_epoch

    def issue_epoch(self, table: str) -> int:
        return self.keyring.current_epoch  # everything is signed under it

    def config_frame(self) -> ConfigFrame:
        return config_to_frame(
            self.client_config(),
            ack_every=self.ack_every,
            ack_bytes=self.ack_bytes,
        )

    def delta_payload(self, table: str, cursor: int) -> tuple:
        payload = self.replicator.batch_since(
            table, cursor, self._signer, self.public_key.signature_len
        )
        return payload, self.log_head(table) or 0

    def snapshot_frame(self, table: str) -> SnapshotFrame:
        return SnapshotFrame(
            table=table,
            lsn=self.replicator.log_for(table).last_lsn,
            epoch=self.keyring.current_epoch,
            payload=snapshot_to_bytes(
                self.vbtrees[table], self.public_key.signature_len
            ),
        )

    def on_cursors_advanced(self, peer) -> None:
        """Nothing to recompute: the engine's cursors *are* the state."""

    def on_peer_nack(self, peer, ack, verdict: str) -> None:
        """Nothing to verify: the engine's own escalation heals."""

    # ------------------------------------------------------------------
    # Edge servers & replication
    # ------------------------------------------------------------------

    def admit(
        self, hello: HelloFrame, transport: Transport, sent: ConfigFrame | None
    ):
        """The listener seat: register the dialer behind ``hello``,
        reachable only through ``transport``, having been answered
        with ``sent`` — the same call whether the exchange ran over a
        socket (:class:`~repro.edge.deploy.Deployment` wraps the
        accepted connection in a
        :class:`~repro.edge.event_loop.ReactorTransport`) or as
        objects (:func:`repro.edge.link.join`).

        Re-admitting a known name replaces its link and central-side
        peer state — the reconnect path; the engine's ``attach``
        closes the replaced link.  The hello's cursors seed the
        fan-out engine's ack-fed cursors, so a transiently
        disconnected dialer resumes delta delivery where it left off,
        while a restarted (replica-less) one registers empty and is
        healed via snapshot by the next pump's epoch check.  ``sent``
        is what was *delivered*: its epoch, not the ring's as it
        stands now, decides whether the next pump owes the peer a
        refresh.  ``None`` means nothing was sent because the peer
        reads this server's live ring (:meth:`spawn_edge_server`).

        Returns:
            The engine's :class:`~repro.edge.fanout.PeerState`.
        """
        # The hello is untrusted input: drop cursors for replicas this
        # server does not have, and clamp each LSN to the log head — a
        # lying (or central-restart-surviving) cursor ahead of the log
        # would otherwise suppress every future send for that table.
        sane = [
            (table, min(lsn, self.log_head(table) or 0), epoch)
            for table, lsn, epoch in hello.cursors
            if table in self.vbtrees
        ]
        # Whatever in-process edge held the name is gone: only
        # spawn_edge_server lists its (new) object.
        self._edges.pop(hello.edge, None)
        return self.fanout.attach(
            hello.edge, transport, cursors=sane,
            config_epoch=None if sent is None else sent.current_epoch,
        )

    def spawn_edge_server(self, name: str, faults: FaultInjector | None = None):
        """Create an edge server reachable only through a transport
        link, bootstrapping every table's replica via serialized
        snapshot frames.  Spawning a name again replaces the edge (and
        its listing in :attr:`edges`) with a fresh, empty one — the
        in-process image of a crash and relaunch.

        Args:
            name: Edge server name (also the link label).
            faults: Initial fault state for the link (fault injection).
        """
        return self._spawn_edge(name, faults, None)

    def spawn_edge_fleet(self, names: Sequence[str]) -> list:
        """Spawn many in-process edge servers, sharing bootstrap work.

        Identical to calling :meth:`spawn_edge_server` per name except
        that every snapshot payload is serialized **once** for the
        whole fleet (the per-sweep payload cache is shared across the
        bootstraps), which is what makes attaching thousands of
        simulated edges affordable — the per-edge cost is applying the
        snapshot, not re-signing and re-serializing it.

        Returns:
            The edge servers, in ``names`` order.
        """
        payloads: dict = {}
        return [self._spawn_edge(name, None, payloads) for name in names]

    def _spawn_edge(self, name: str, faults: FaultInjector | None, payloads):
        from repro.edge.edge_server import EdgeServer

        # Built on the live bundle, not a handshake copy: this edge
        # shares the ring (expiry clock included), so it is admitted
        # with nothing sent and never refreshed.
        edge = EdgeServer(
            name=name,
            config=self.client_config(),
            ack_every=self.ack_every,
            ack_bytes=self.ack_bytes,
        )
        self.admit(edge.hello(), wire(edge, faults), None)
        self._edges[name] = edge
        self.fanout.bootstrap(name, payloads)
        return edge

    def propagate(self, table: str | None = None, force_snapshot: bool = False) -> int:
        """Bring every edge server up to date through the fan-out
        engine.

        Edges with pending log entries receive them as one coalesced,
        signed delta batch; edges that cannot catch up from the log
        (no replica yet, log gap, or key rotation) receive a full
        snapshot.  With ``force_snapshot`` every edge receives a
        snapshot regardless — the seed's clone-shipping behaviour, kept
        as the comparison baseline for ``bench_replication``.

        Returns:
            Number of frames shipped (deltas + snapshots).
        """
        if table is not None and table not in self.vbtrees:
            raise ReplicationError(f"no VB-tree for {table!r}")
        tables = [table] if table else None
        return self.fanout.pump(tables, force_snapshot=force_snapshot)

    def staleness(self, edge, table: str) -> int:
        """LSNs the edge's replica of ``table`` lags behind the delta
        log, per the fan-out engine's ack-fed cursors.

        Args:
            edge: Edge name or :class:`~repro.edge.edge_server.EdgeServer`.
            table: Replica name.
        """
        name = getattr(edge, "name", edge)
        return self.fanout.staleness(name, table)

    @property
    def edges(self) -> list:
        """The live in-process edge servers (:meth:`spawn_edge_server`),
        one object per name.  Remote dialers are fan-out peers only —
        the central never holds their server objects."""
        return list(self._edges.values())
