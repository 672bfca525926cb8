"""Multi-process deployment: central listener + edge OS processes.

This is the paper's Figure 2 drawn with real process boundaries: the
trusted central DBMS runs in *this* process and listens on a TCP port;
each edge server is a separate OS process (``python -m
repro.edge.serve``) that dials in, registers, and receives its replicas
over the wire.  Nothing but serialized frames ever crosses the
boundary — the same property the in-process transport enforces
structurally, now enforced by the operating system.

Typical use (see also ``examples/socket_deployment.py`` and the
README's Deployment section)::

    central = CentralServer("proddb", seed=7)
    central.create_table(schema, rows)
    with Deployment(central) as deploy:
        deploy.launch_edge("edge-0")
        deploy.launch_edge("edge-1")
        deploy.wait_for_edge("edge-0")
        deploy.wait_for_edge("edge-1")
        central.insert("items", (1001, "new row"))
        deploy.sync()
        response = deploy.range_query("edge-0", "items", low=1, high=50)
        assert central.make_client().verify(response).ok

A relay tier (DESIGN.md §13) is the same supervisor one level deeper:
``deploy.launch_relay("relay-0")`` starts an unkeyed store-and-forward
process that dials this listener like an edge and re-listens on a
pinned port; ``deploy.launch_edge("edge-0", relay="relay-0")`` starts
an edge dialing *that* listener instead of this one.  Kill, restart
and storms treat both kinds alike — a restart re-execs the argv the
process was launched with.

Failure handling rides entirely on the existing replication machinery:
a killed edge's link reports ``failed`` sends (like a partitioned
in-process link) and the central write path never blocks on it; when
the process is relaunched it re-registers with an empty cursor list
and the fan-out engine's epoch check heals it with snapshots — the
same nack→retry→snapshot-heal escalation, now exercised by real
``ECONNRESET``\\ s.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from repro.core.vo import VOFormat
from repro.core.wire import predicate_to_bytes
from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeResponse
from repro.edge.event_loop import EdgeEventLoop, SocketListener
from repro.edge.link import Transport
from repro.edge.router import DeploymentQueryChannel, EdgeRouter, VerifyingRouter
from repro.edge.socket_transport import listen_on
from repro.edge.transport import (
    ConfigFrame,
    HelloFrame,
    QueryRequestFrame,
    range_query_frame,
    secondary_query_frame,
    select_query_frame,
)
from repro.exceptions import ReplicationError, TransportError

__all__ = ["EdgeProcess", "Deployment", "ShardedDeployment"]

#: Pump-then-drain rounds one :meth:`Deployment.sync` may take.
_SYNC_ROUNDS = 8


def _src_root() -> str:
    """The directory to put on the edge processes' ``PYTHONPATH``."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class EdgeProcess:
    """One managed dialer — an edge or a relay: its OS process and,
    when it dials *this* deployment's listener, its current link.

    Attributes:
        name: Edge/relay name (its hello identity).
        process: The ``python -m repro.edge.serve`` subprocess (``None``
            for externally launched dialers that just registered).
        transport: Link over the most recent connection accepted from
            this name (``None`` for an edge behind a relay — it
            registers with the relay process, not here).
        registered: Set each time the dialer completes a handshake
            with this deployment's listener.
        log: The open log-file handle the current process writes to
            (``None`` when logging to ``/dev/null``).  Kept per handle
            so a restart closes the superseded handle instead of
            leaking one file descriptor per relaunch.
        argv: The ``repro.edge.serve`` arguments the process was
            spawned with — a restart is "kill, re-exec the same argv",
            so whatever it was launched with (relay store cap, the
            listener it dials, retry budget) survives by construction.
        relay: Name of the relay whose listener this process dials
            (``None`` = the central listener).
        listen: The pinned ``(host, port)`` a relay re-listens on for
            its own edges (``None`` for edges).
    """

    name: str
    process: Optional[subprocess.Popen] = None
    transport: Optional[Transport] = None
    registered: threading.Event = field(default_factory=threading.Event)
    log: Any = None
    argv: tuple[str, ...] = ()
    relay: Optional[str] = None
    listen: Optional[tuple[str, int]] = None

    @property
    def connected(self) -> bool:
        return self.transport is not None and self.transport.connected

    @property
    def alive(self) -> bool:
        """True while the subprocess is running."""
        return self.process is not None and self.process.poll() is None

    def close_log(self) -> None:
        if self.log is not None:
            try:
                self.log.close()
            except OSError:
                pass
            self.log = None


class Deployment:
    """Run a central listener and supervise the processes dialing it.

    Every accepted link is served from one shared
    :class:`~repro.edge.event_loop.EdgeEventLoop` — single-threaded,
    non-blocking, vectored writes; the fan-out engine's settle points
    are readiness-driven.  A managed process is either an **edge**
    (:meth:`launch_edge`) dialing *some* listener — this one, or a
    relay's — or a **relay** (:meth:`launch_relay`): an unkeyed
    store-and-forward process (DESIGN.md §13) that dials this listener
    with ``role="relay"`` and re-listens on a pinned port for its own
    edges.  The central sees only its direct dialers — with k relays
    in front of n edges its egress scales with k, not n — while every
    edge still verifies the byte-identical signed frames end-to-end,
    so relays need no trust.

    Args:
        central: The trusted central server (lives in this process).
        host: Listen address (loopback by default); relays launched
            here listen on it too.
        port: Listen port (``0`` = ephemeral; read :attr:`address`).
        io_timeout: Handshake budget, and the query-reply deadline
            of every accepted link.
        log_dir: Directory for per-process stdout/stderr logs;
            processes are silenced (``/dev/null``) when not given.
        reactor: Share an existing :class:`EdgeEventLoop` instead of
            owning a private one.  A sharded deployment runs one
            ``Deployment`` per signer shard on one machine; sharing
            the loop keeps every shard's accepted links on a single
            selector.  A shared reactor is *not* closed by
            :meth:`shutdown` — its owner closes it.
        shard_map: A :class:`~repro.edge.sharding.ShardMap` to push to
            every registering edge in the handshake ``ConfigFrame``
            (optional trailing fields — absent, the handshake is
            byte-identical to the unsharded protocol).

    Raises:
        OSError: If the listener cannot bind — nothing is left behind
            (no reactor, no thread, ``central.fanout.reactor``
            untouched).
    """

    def __init__(
        self,
        central: CentralServer,
        host: str = "127.0.0.1",
        port: int = 0,
        io_timeout: float = 10.0,
        log_dir: str | None = None,
        reactor: EdgeEventLoop | None = None,
        shard_map=None,
    ) -> None:
        self.central = central
        self.host = host
        self.io_timeout = io_timeout
        self.log_dir = log_dir
        self.shard_map = shard_map
        self.edges: dict[str, EdgeProcess] = {}
        self._closed = False
        self._seat = SocketListener(
            central, host, port, site="deploy", io_timeout=io_timeout,
            loop=reactor, config=self._config_frame, admitted=self._registered,
        )
        self.reactor = self._seat.loop

    # ------------------------------------------------------------------
    # Listener side of the handshake (runs on the accept thread)
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` edges should dial."""
        return self._seat.address

    def _config_frame(self) -> ConfigFrame:
        return replace(
            self.central.config_frame(),
            shard_id=self.central.shard_id,
            shard_map=(
                self.shard_map.to_wire() if self.shard_map is not None else None
            ),
        )

    def _registered(self, hello: HelloFrame, transport: Transport) -> None:
        """Book one admitted dialer's current link."""
        handle = self.edges.setdefault(hello.edge, EdgeProcess(hello.edge))
        handle.transport = transport
        handle.registered.set()

    # ------------------------------------------------------------------
    # Process supervision
    # ------------------------------------------------------------------

    def _spawn(self, handle: EdgeProcess) -> EdgeProcess:
        """(Re-)exec ``python -m repro.edge.serve`` with ``handle.argv``.

        The subprocess inherits this interpreter and gets the package's
        source root prepended to ``PYTHONPATH``.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_root() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # Relaunch under the same name: the dead process's log handle
        # is superseded — close it now or every restart leaks one file
        # descriptor.
        handle.close_log()
        stdout: Any = subprocess.DEVNULL
        if self.log_dir is not None:
            os.makedirs(self.log_dir, exist_ok=True)
            stdout = open(  # not a context manager: closed on relaunch/shutdown
                os.path.join(self.log_dir, f"{handle.name}.log"), "ab"
            )
            handle.log = stdout
        handle.registered.clear()
        handle.process = subprocess.Popen(
            [sys.executable, "-m", "repro.edge.serve", *handle.argv],
            env=env,
            stdout=stdout,
            stderr=subprocess.STDOUT if stdout is not subprocess.DEVNULL
            else subprocess.DEVNULL,
        )
        return handle

    def launch_edge(
        self,
        name: str,
        relay: str | None = None,
    ) -> EdgeProcess:
        """Start an edge process dialing this listener — or, with
        ``relay``, the listener of that (already launched) relay.

        Call :meth:`wait_for_edge` (or, behind a relay,
        :meth:`wait_for_edges`) before relying on its replicas.
        """
        host, port = self.address if relay is None else self.relay_address(relay)
        argv = ["--name", name, "--host", host, "--port", str(port)]
        if relay is not None:
            # A generous retry budget keeps the edge re-dialing through
            # a relay kill/restart window instead of giving up.
            argv += ["--retry-attempts", "120"]
        handle = self.edges.setdefault(name, EdgeProcess(name))
        handle.argv = tuple(argv)
        handle.relay = relay
        return self._spawn(handle)

    def launch_relay(
        self, name: str, *, spot_check_every: int = 0,
        max_store_bytes: int = 0,
    ) -> EdgeProcess:
        """Start a relay process dialing this listener.

        The relay's downstream listen port is reserved on the first
        launch and *pinned to the name*: a replacement (relaunch or
        :meth:`restart_edge`) rebinds the same address, so its edges'
        reconnect loops find it again without any coordination.  A
        SIGKILLed relay loses its frame store; the replacement
        registers empty, heals via snapshot and re-seeds its whole
        subtree — the escalation a killed edge exercises, one level up.
        """
        chost, cport = self.address
        handle = self.edges.setdefault(name, EdgeProcess(name))
        if handle.listen is None:
            # Probably-free: the probe closes before the relay binds —
            # fine on loopback, and what makes restarts address-stable.
            probe = listen_on(self.host, 0)
            handle.listen = (self.host, probe.getsockname()[1])
            probe.close()
        handle.argv = (
            "--relay", "--name", name,
            "--host", chost, "--port", str(cport),
            "--listen-host", handle.listen[0],
            "--listen-port", str(handle.listen[1]),
            "--spot-check-every", str(spot_check_every),
            "--max-store-bytes", str(max_store_bytes),
            "--retry-attempts", "120",
        )
        return self._spawn(handle)

    def relay_address(self, name: str) -> tuple[str, int]:
        """The ``(host, port)`` edges of relay ``name`` dial."""
        listen = self.edges[name].listen
        if listen is None:
            raise TransportError(f"{name!r} is not a launched relay")
        return listen

    def wait_for_edge(
        self, name: str, timeout: float = 30.0, sync: bool = True
    ) -> EdgeProcess:
        """Block until ``name`` (an edge or relay dialing this
        listener) has completed its handshake.

        A relay binds its downstream listener before dialing, so its
        registration also means its edges can reach it.

        Args:
            name: Dialer to wait for.
            timeout: Registration deadline.
            sync: Also run a :meth:`sync` round so the replicas are
                current when this returns.

        Raises:
            TransportError: If it does not register in time.
        """
        handle = self.edges.setdefault(name, EdgeProcess(name))
        if not handle.registered.wait(timeout):
            raise TransportError(
                f"edge {name!r} did not register within {timeout}s"
            )
        if sync:
            self.sync()
        return handle

    def wait_for_edges(
        self,
        relay: str,
        names: Sequence[str],
        table: str,
        timeout: float = 30.0,
    ) -> None:
        """Block until every named edge answers a query through
        ``relay``.

        Edges behind a relay register with the relay *process*, which
        this process cannot observe directly — so readiness is probed
        the way it will be used: round-robin queries through the relay
        until every name has answered, interleaved with sync rounds so
        the probed replicas exist.

        Raises:
            TransportError: If some edge never answered in time.
        """
        deadline = time.monotonic() + timeout
        missing = set(names)
        while missing:
            if time.monotonic() > deadline:
                raise TransportError(
                    f"edges {sorted(missing)} behind relay {relay!r} did not "
                    f"answer within {timeout}s"
                )
            self.sync()
            for _ in range(len(missing) + 1):
                try:
                    response = self.range_query(relay, table)
                except TransportError:
                    time.sleep(0.2)
                    break
                missing.discard(response.edge_name)

    def kill_edge(self, name: str) -> None:
        """SIGKILL the managed process — the mid-stream crash scenario.

        The central side is *not* told: its next send discovers the
        reset, exactly as with a remote machine failure.  Killing a
        relay takes its frame store with it; its edges re-dial the
        pinned listen address until a replacement binds it.
        """
        handle = self.edges[name]
        if handle.alive:
            handle.process.kill()
            handle.process.wait(timeout=10)
        handle.registered.clear()

    def restart_edge(self, name: str) -> EdgeProcess:
        """Kill the process and re-exec the argv it was launched with
        (same name, same listener, same options)."""
        self.kill_edge(name)
        return self._spawn(self.edges[name])

    def restart_storm(
        self,
        names: Sequence[str] | None = None,
        cycles: int = 1,
        seed: int = 0,
        wait: bool = True,
        timeout: float = 30.0,
    ) -> list[str]:
        """Seeded SIGKILL/relaunch storm over the named processes.

        Each cycle kills and relaunches every target once, in an order
        drawn from ``random.Random(seed)`` — the same seed always
        produces the same kill order, which is what makes a storm
        failure replayable (see ``src/repro/chaos``).

        Args:
            names: Processes to storm (default: every managed one).
            cycles: Kill/relaunch passes over the whole target set.
            seed: Shuffle seed; the schedule is a pure function of it.
            wait: Re-wait for registration (and sync) after each cycle,
                so the storm ends with a healed fleet.  Only direct
                dialers register here; an edge behind a relay is
                probed through it (:meth:`wait_for_edges`).
            timeout: Per-process registration deadline when waiting.

        Returns:
            The kill order actually applied, one entry per kill.
        """
        rng = random.Random(seed)
        targets = list(names) if names is not None else sorted(
            name for name, handle in self.edges.items()
            if handle.process is not None
        )
        order: list[str] = []
        for _ in range(max(0, cycles)):
            shuffled = list(targets)
            rng.shuffle(shuffled)
            for name in shuffled:
                self.restart_edge(name)
                order.append(name)
            if wait:
                for name in shuffled:
                    if self.edges[name].relay is None:
                        self.wait_for_edge(name, timeout=timeout)
        return order

    # ------------------------------------------------------------------
    # Replication & queries over the wire
    # ------------------------------------------------------------------

    def sync(self, table: str | None = None) -> int:
        """Propagate until every *connected* edge is current.

        :meth:`FanoutEngine.settle
        <repro.edge.fanout.FanoutEngine.settle>`, at most
        :data:`_SYNC_ROUNDS` rounds: each pumps the fan-out engine and
        then wait-drains the pipelined acks
        (:meth:`FanoutEngine.drain
        <repro.edge.fanout.FanoutEngine.drain>`): every edge's queued
        frames and its cursor probe leave in one vectored write, and
        one ``select`` loop settles the whole fleet as acks land — no
        per-peer blocking, no busy polling.  A relay's cumulative acks
        carry min-cursor aggregates over its connected edges, so "all
        connected peers current" is transitively a statement about the
        whole tree.

        Returns:
            The pump-then-drain rounds it took.

        Raises:
            ReplicationError: If ``table`` is not a replicated table.
        """
        if table is not None and table not in self.central.vbtrees:
            raise ReplicationError(f"no VB-tree for {table!r}")
        return self.central.fanout.settle([table] if table else None, _SYNC_ROUNDS)

    def staleness(self, name: str, table: str) -> int:
        """LSN lag of ``name``'s replica of ``table`` (ack-fed)."""
        return self.central.staleness(name, table)

    def _request(self, name: str, frame: QueryRequestFrame) -> EdgeResponse:
        # One round trip, one body: the router's channel (current
        # connection, reply type check, piggybacked cursors banked).
        reply, _latency = DeploymentQueryChannel(self, name).request(frame)
        if reply.error:
            raise TransportError(
                f"edge {name!r} rejected query: {reply.error}"
            )
        return EdgeResponse.from_frame(
            reply, self.edges[name].transport.up_channel.transfers[-1]
        )

    def make_router(
        self,
        names: Sequence[str] | None = None,
        policy="round_robin",
        **kwargs,
    ):
        """A :class:`~repro.edge.router.VerifyingRouter` over this
        deployment's direct dialers, on real TCP query channels.

        Channels resolve each peer's *current* connection per request,
        so a killed edge fails fast (and enters router cooldown) while
        a restarted one is routable again right after re-registering.
        A relay's channel queries the relay, which round-robins the
        request over its own edges — a killed relay cools down and its
        sibling serves: failover one tier up, verification still
        end-to-end.  Staleness hints are seeded from the fan-out
        engine's cursors.

        Args:
            names: Peers to route over (default: every edge or relay
                dialing this listener, connected or not — an
                unreachable one just starts in the failure path).
            policy: Routing policy name or enum.
            **kwargs: Forwarded to :class:`~repro.edge.router.EdgeRouter`.
        """
        if names is None:
            names = [n for n, h in self.edges.items() if h.relay is None]
        channels = [DeploymentQueryChannel(self, name) for name in names]
        router = EdgeRouter(channels, policy=policy, **kwargs)
        router.seed_from_fanout(self.central.fanout)
        return VerifyingRouter(router, self.central.make_client())

    def range_query(
        self,
        edge: str,
        table: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """Primary-key range query against a remote edge, over TCP."""
        return self._request(
            edge, range_query_frame(table, low, high, columns, vo_format)
        )

    def secondary_range_query(
        self,
        edge: str,
        table: str,
        attribute: str,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """Secondary-index range query against a remote edge."""
        return self._request(
            edge,
            secondary_query_frame(table, attribute, low, high, columns, vo_format),
        )

    def select(
        self,
        edge: str,
        table: str,
        predicate,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
    ) -> EdgeResponse:
        """General predicate selection against a remote edge."""
        return self._request(
            edge,
            select_query_frame(
                table, predicate_to_bytes(predicate), columns, vo_format
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Close the listener, links, and every managed process."""
        if self._closed:
            return
        self._closed = True
        handles = list(self.edges.values())
        for handle in handles:
            if handle.transport is not None:
                handle.transport.close()  # a shared reactor outlives us
        self._seat.close(timeout)
        # SIGTERM the whole tree at once, then reap (SIGKILL laggards).
        running = [h.process for h in handles if h.alive]
        for proc in running:
            proc.terminate()
        for proc in running:
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        for handle in handles:
            handle.close_log()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ShardedDeployment:
    """One listener per signer shard, one shared reactor, one machine.

    The multi-process face of
    :class:`~repro.edge.sharding.ShardedCentral`: every shard gets its
    own :class:`Deployment` (own TCP listener, own fan-out engine, own
    edge processes), all sharing a single
    :class:`~repro.edge.event_loop.EdgeEventLoop` —
    N signer shards' worth of accepted links on one selector.  Each
    shard's handshake ``ConfigFrame`` carries the plane's versioned
    shard map plus that shard's id and public keys, so a registering
    edge (or a map-restoring router) learns the whole placement from
    any one shard.

    Args:
        sharded: The sharded central plane.
        host: Listen address for every shard listener.
        io_timeout / log_dir: As for :class:`Deployment`.

    Raises:
        OSError: If any shard's listener cannot bind — all or nothing:
            the shards already listening are shut down and the shared
            reactor is closed before the error propagates.
    """

    def __init__(
        self,
        sharded,
        host: str = "127.0.0.1",
        io_timeout: float = 10.0,
        log_dir: str | None = None,
    ) -> None:
        self.sharded = sharded
        self.reactor = EdgeEventLoop()
        self.deployments: list[Deployment] = []
        try:
            for shard in sharded.shards:
                self.deployments.append(
                    Deployment(
                        shard,
                        host=host,
                        io_timeout=io_timeout,
                        log_dir=log_dir,
                        reactor=self.reactor,
                        shard_map=sharded.shard_map,
                    )
                )
        except OSError:
            self.shutdown()
            raise

    def deployment(self, shard_id: int) -> Deployment:
        """The per-shard deployment (IndexError if unknown)."""
        return self.deployments[shard_id]

    def address(self, shard_id: int) -> tuple[str, int]:
        """The ``(host, port)`` edges of shard ``shard_id`` dial."""
        return self.deployments[shard_id].address

    def launch_edge(self, shard_id: int, name: str) -> EdgeProcess:
        """Start an edge process attached to shard ``shard_id``."""
        return self.deployments[shard_id].launch_edge(name)

    def wait_for_edge(
        self, shard_id: int, name: str, timeout: float = 30.0
    ) -> EdgeProcess:
        """Block until the edge has registered with its shard."""
        return self.deployments[shard_id].wait_for_edge(name, timeout=timeout)

    def sync(self) -> int:
        """Propagate every shard until its connected edges are current.

        Shards are share-nothing, so per-shard sync rounds compose
        without any cross-shard ordering concern.

        Returns:
            The settle rounds taken, summed over the shards.
        """
        return sum(deploy.sync() for deploy in self.deployments)

    def make_router(self, policy="round_robin", **kwargs):
        """A :class:`~repro.edge.router.ScatterGatherRouter` over every
        shard's TCP edge processes: per-shard verify-or-failover
        routers (each holding its own shard's public keys) composed
        with the plane's shard map."""
        routers = {
            shard_id: deploy.make_router(policy=policy, **kwargs)
            for shard_id, deploy in enumerate(self.deployments)
        }
        return self.sharded.make_sharded_router(routers)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Shut down every shard deployment, then the shared reactor."""
        for deploy in self.deployments:
            deploy.shutdown(timeout=timeout)
        self.reactor.close()

    def __enter__(self) -> "ShardedDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
