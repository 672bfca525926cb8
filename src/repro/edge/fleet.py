"""One in-process fleet: central, optional relay tier, edges.

The paper's deployment is one picture — a central DBMS feeding many
edge replicas (Figure 2), possibly through an unkeyed relay tier
(DESIGN.md section 13) — and this is that picture built once, on the
two seats every node already has (docs/ARCHITECTURE.md section 3):
relays and the edges behind them *join* their listener through
:func:`repro.edge.link.join`, the socket handshake run as objects, so
cursor sanitising, the delivered config epoch and key-ring refreshes
are the listener's own code, not a harness's copy of it; a relay's
spontaneous acks and nacks come back through the link like any reply.
Edges attached straight to the central are the ones it spawns itself
(:meth:`CentralServer.spawn_edge_server
<repro.edge.central.CentralServer.spawn_edge_server>` — they read its
live key ring).

Delivery stays tick-synchronous (the chaos determinism contract,
DESIGN.md section 14.2): nothing moves except inside :meth:`Fleet.pump`
and the central's own eager pumps, on the caller's thread.  The TCP
builder of the same shapes is :class:`~repro.edge.deploy.Deployment`
with :class:`~repro.edge.event_loop.EdgeHost` and
:class:`~repro.edge.relay.RelayHost`, which admit through the same
seats.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeServer
from repro.edge.link import FaultInjector, InProcessTransport, join
from repro.edge.relay import RelayServer
from repro.edge.router import TransportQueryChannel

__all__ = ["Fleet"]

#: Pump rounds :meth:`Fleet.settle` spends before calling the fleet stuck.
_SETTLE_ROUNDS = 200


class Fleet:
    """Central + edges (+ relays), in-process, wired for fault injection.

    Each node's replication link *and* its query link share one
    :class:`~repro.edge.link.FaultInjector` (:attr:`faults`), so a
    partition severs the node completely — replication stalls and
    queries fail over — exactly like pulling a network cable, not like
    two half-broken links.

    Args:
        central: The trusted central server, tables already created.
        edges: Names of the edges attached straight to the central.
        relays: Relay name → names of the edges behind it.
        **relay_options: Passed to every
            :class:`~repro.edge.relay.RelayServer` (``spot_check_every``,
            ``max_store_bytes``).

    Attributes:
        edges / relays: The live node objects, by name (a kill swaps
            the object).
        faults: One injector per node.
        router: A :class:`~repro.edge.router.VerifyingRouter` over the
            central's direct dialers — its own edges and the relays,
            which forward round-robin to theirs.
    """

    def __init__(
        self,
        central: CentralServer,
        edges: Sequence[str] = (),
        relays: Mapping[str, Sequence[str]] | None = None,
        **relay_options,
    ) -> None:
        relays = relays or {}
        self.central = central
        self.edges: dict[str, EdgeServer] = {}
        self.relays: dict[str, RelayServer] = {}
        self.faults: dict[str, FaultInjector] = {}
        self._relay_options = relay_options
        #: Edge name → the relay it sits behind.
        self._behind = {
            name: relay for relay, names in relays.items() for name in names
        }
        for name in edges:
            self._start_edge(name)
        for relay in relays:
            self._start_relay(relay)
        for name in self._behind:
            self._start_edge(name)
        self.router = central.make_router(
            channels=[self._query_channel(n) for n in (*edges, *self.relays)]
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _start_relay(self, name: str) -> None:
        faults = self.faults.setdefault(name, FaultInjector())
        self.relays[name] = RelayServer(name, **self._relay_options)
        join(self.central, self.relays[name], faults)

    def _start_edge(self, name: str) -> None:
        faults = self.faults.setdefault(name, FaultInjector())
        relay = self._behind.get(name)
        if relay is None:
            self.edges[name] = self.central.spawn_edge_server(name, faults)
        else:
            self.edges[name] = EdgeServer(name)
            join(self.relays[relay], self.edges[name], faults)

    def _query_channel(self, name: str) -> TransportQueryChannel:
        """A query link that always reaches the *current* node object
        under ``name`` (a kill swaps the object)."""
        link = InProcessTransport(name, faults=self.faults[name])
        link.connect(lambda data: self.node(name).handle_frame(data))
        return TransportQueryChannel(name, link)

    def node(self, name: str):
        """The live relay or edge called ``name``."""
        return self.relays[name] if name in self.relays else self.edges[name]

    def link(self, name: str):
        """The replication link ``name`` is fed through (its upstream's
        end: byte accounting, fault state)."""
        relay = self._behind.get(name)
        engine = self.central.fanout if relay is None else self.relays[relay].fanout
        return engine.peer(name).transport

    def kill(self, name: str) -> None:
        """Crash + supervisor relaunch of one node, in-process: its
        state dies with it and a fresh, empty node re-joins under the
        same name and fault injector (cleared — the new process has a
        new cable), to be healed via snapshot — the escalation a
        SIGKILLed ``serve`` process takes through the handshake.  A
        killed relay loses its frame store; its edges outlive it and
        re-join the replacement with their resume cursors."""
        self.faults[name].clear()
        if name in self.relays:
            self._start_relay(name)
            for edge, relay in self._behind.items():
                if relay == name:
                    join(self.relays[name], self.edges[edge], self.faults[edge])
        else:
            self._start_edge(name)
        if name in self.router.router.edge_names:
            # A byzantine replica died with the process; let the router
            # probe the reborn node again.
            self.router.router.release(name)

    # ------------------------------------------------------------------
    # Replication driving
    # ------------------------------------------------------------------

    def pump(self, wait: bool = False) -> None:
        """One replication cycle down the tree: the central ships what
        fits its windows and applies the acks that arrived, then each
        relay forwards from its store and its spontaneous upstream
        frames (aggregate acks, escalation nacks) are collected — what
        a socket relay's serving loop does on every spin.  Faulted
        links simply fail or queue; later pumps retry.  ``wait``
        makes each drain a wait-drain (probe, apply, until covered)."""
        self.central.propagate()
        self.central.fanout.drain(wait=wait)
        for name, relay in self.relays.items():
            relay.fanout.pump()
            relay.fanout.drain(wait=wait)
            self.central.fanout.drain(name)

    def settle(self) -> int:
        """Pump until every engine of the tree — the central's and each
        relay's — is :meth:`~repro.edge.fanout.FanoutEngine.settled`;
        returns the rounds taken.

        Raises:
            AssertionError: If the tree has not settled within
                :data:`_SETTLE_ROUNDS` — a stuck fleet is a failed
                run, not a slow one.
        """
        engines = [self.central.fanout, *(r.fanout for r in self.relays.values())]
        for used in range(1, _SETTLE_ROUNDS + 1):
            self.pump(wait=True)
            if all(engine.settled() for engine in engines):
                return used
        raise AssertionError(
            f"fleet failed to settle in {_SETTLE_ROUNDS} rounds; "
            f"central={self.central.fanout.stats()}"
        )
