"""Tick-driven chaos execution against an in-process fleet.

The orchestrator is a deterministic interpreter: at every tick it
applies the :class:`~repro.chaos.plan.FaultPlan`'s scheduled events to
the fleet (recording each application in an append-only ``trace``),
issues that tick's open-loop query batch through the verifying router,
runs one replication pump, and moves on.  Wall-clock never influences
control flow — two runs of the same (fleet seed, plan, load profile)
apply the same faults at the same ticks to the same query stream, so
the ``trace`` is byte-identical across runs and a chaos failure is a
seed, not an anecdote.

The invariants every run must uphold (asserted by ``tests/chaos/`` and
gated by ``bench_chaos.py``):

* **Zero unverified results** — every response the router surfaces is
  verified-ACCEPT; tamper turns into quarantine + failover, never into
  an answer.
* **Quarantine on tamper** — a byzantine edge is detected (counted as
  ``detection_queries``: routed queries between the first tamper and
  the first REJECT) and stays out of rotation until healed.
* **Post-storm parity** — after heal + settle, every edge's cursors
  reach the central's log heads (``recovery_pumps`` counts the settle
  rounds; the fleet converged or the run failed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.edge.adversary import ValueTamper
from repro.edge.central import CentralServer
from repro.edge.router import TransportQueryChannel
from repro.edge.link import FaultInjector, InProcessTransport
from repro.exceptions import RouterError
from repro.workloads.generator import TableSpec, generate_table
from repro.workloads.load_gen import LoadGenerator, LoadProfile

__all__ = ["InProcessFleet", "ChaosOrchestrator", "ChaosReport"]

TABLE = "items"


class InProcessFleet:
    """Central + n in-process edges wired for fault injection.

    Each edge's replication link *and* its dedicated query link share
    one :class:`~repro.edge.link.FaultInjector`, so a partition
    severs the edge completely — replication stalls and queries fail
    over — exactly like pulling a network cable, not like two
    half-broken links.

    Args:
        n_edges: Fleet size.
        rows: Seed rows in the queried table (keys ``0..rows-1``).
        seed: Central's deterministic crypto/PRNG seed.
        data_seed: Table payload seed.
        rsa_bits: Key size (512 keeps chaos runs fast; verification
            strength is not what chaos tests).
        policy: Router policy.
        **central_kwargs: Forwarded to :class:`CentralServer`.
    """

    def __init__(
        self,
        n_edges: int = 4,
        rows: int = 64,
        seed: int = 11,
        data_seed: int = 5,
        rsa_bits: int = 512,
        policy: str = "round_robin",
        **central_kwargs,
    ) -> None:
        self.table = TABLE
        self.n_keys = rows
        self.central = CentralServer(
            "chaosdb", seed=seed, rsa_bits=rsa_bits, **central_kwargs
        )
        schema, data = generate_table(
            TableSpec(name=TABLE, rows=rows, columns=3, seed=data_seed)
        )
        self.central.create_table(schema, data, fanout_override=6)
        self.faults: dict[str, FaultInjector] = {}
        self.edges: dict = {}
        channels = []
        for i in range(n_edges):
            name = f"edge-{i}"
            injector = FaultInjector()
            self.faults[name] = injector
            self.edges[name] = self.central.spawn_edge_server(
                name, faults=injector
            )
            channels.append(self._query_channel(name, injector))
        self.router = self.central.make_router(
            channels=channels, policy=policy
        )
        self._rotations = 0
        self._writes = 0
        #: Edges currently carrying un-healed tampered replicas.
        self.tampered: set[str] = set()

    def _query_channel(
        self, name: str, injector: FaultInjector
    ) -> TransportQueryChannel:
        """A query link that always reaches the *current* edge object
        under ``name`` (an in-process restart swaps the object)."""
        link = InProcessTransport(name, faults=injector)
        link.connect(lambda data, _n=name: self.edges[_n].handle_frame(data))
        return TransportQueryChannel(name, link, simulated_latency=True)

    def edge_names(self) -> list[str]:
        return sorted(self.edges)

    # ------------------------------------------------------------------
    # Fault actions (the orchestrator's event vocabulary)
    # ------------------------------------------------------------------

    def tamper(self, name: str, key: int, column: str = "a1") -> None:
        """Byzantine edge: corrupt ``key`` in the replica at rest."""
        ValueTamper(
            table=self.table,
            key=key,
            column=column,
            new_value=f"tampered-{key}",
        ).apply(self.edges[name])
        self.tampered.add(name)

    def kill(self, name: str) -> None:
        """Crash + supervisor relaunch, in-process: the edge's replica
        store dies with it; the fresh server re-attaches empty and the
        fan-out engine heals it via snapshot (the same escalation a
        SIGKILLed ``serve`` process takes through the handshake)."""
        from repro.edge.edge_server import EdgeServer

        injector = self.faults[name]
        injector.clear()
        edge = EdgeServer(
            name=name,
            config=self.central.edge_config(),
            ack_every=self.central.ack_every,
            ack_bytes=self.central.ack_bytes,
        )
        link = InProcessTransport(name, faults=injector)
        edge.attach_transport(link)
        self.central.fanout.attach(name, link)
        self.central.fanout.bootstrap(name)
        self.edges[name] = edge
        self.tampered.discard(name)
        # The byzantine replica (if any) died with the process; let the
        # router probe the reborn edge again.
        self.router.router.release(name)

    def rotate(self) -> None:
        """Rotate the signing key (deterministic per-rotation seed)."""
        self._rotations += 1
        self.central.rotate_key(seed=4000 + self._rotations)

    def write(self, n: int = 1) -> None:
        """Deterministic insert churn (keys far above the seed range)."""
        for _ in range(n):
            key = 100_000 + self._writes
            self._writes += 1
            self.central.insert(self.table, (key, "wr", "wr"))

    # ------------------------------------------------------------------
    # Replication driving
    # ------------------------------------------------------------------

    def pump(self) -> None:
        """One replication cycle: ship what fits the windows, apply
        what acks arrived.  Faulted links simply fail/queue — the
        engine retries on later pumps."""
        self.central.propagate()
        self.central.fanout.drain(wait=False)

    def settle(self, max_pumps: int = 200) -> int:
        """Pump until every edge reaches cursor parity on every table.

        Returns the number of pumps taken.

        Raises:
            AssertionError: If parity is not reached within
                ``max_pumps`` — a stuck fleet is a failed run, not a
                slow one.
        """
        for pumps in range(1, max_pumps + 1):
            self.central.propagate()
            self.central.fanout.drain(wait=True)
            if self.at_parity():
                return pumps
        raise AssertionError(
            f"fleet failed to reach cursor parity in {max_pumps} pumps; "
            f"staleness={self.staleness_map()}"
        )

    def at_parity(self) -> bool:
        """True when no edge lags any table's log head."""
        return all(
            self.central.staleness(name, table) == 0
            for name in self.edges
            for table in self.central.vbtrees
        )

    def staleness_map(self) -> dict:
        return {
            name: {
                table: self.central.staleness(name, table)
                for table in self.central.vbtrees
            }
            for name in self.edges
        }

    def heal_all(self) -> None:
        """Clear every injected fault and respawn tampered edges."""
        for injector in self.faults.values():
            injector.clear()
        for name in sorted(self.tampered):
            self.kill(name)


@dataclass
class ChaosReport:
    """What one scenario run did and observed (all deterministic except
    the latency list inside ``load_summary``)."""

    scenario: str
    plan_bytes: bytes
    trace: tuple[str, ...]
    #: Routed queries whose result the caller saw — every one verified.
    verified: int = 0
    #: Results surfaced WITHOUT a verified ACCEPT — the invariant; any
    #: nonzero value fails the battery.
    unverified: int = 0
    #: Queries the router could not answer at all (fleet exhausted).
    unavailable: int = 0
    #: Verify-REJECTs observed en route (tamper detections).
    rejections: int = 0
    #: Routed queries between first tamper and first REJECT.
    detection_queries: int = -1
    #: Settle pumps needed to reach post-storm cursor parity.
    recovery_pumps: int = 0
    #: Edges quarantined at end of storm (before heal).
    quarantined: tuple[str, ...] = ()
    load_summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.unverified == 0

    def summary(self) -> dict:
        """Flat dict for benches / baselines."""
        return {
            "verified": self.verified,
            "unverified": self.unverified,
            "unavailable": self.unavailable,
            "rejections": self.rejections,
            "detection_queries": self.detection_queries,
            "recovery_pumps": self.recovery_pumps,
            **self.load_summary,
        }


class ChaosOrchestrator:
    """Run one plan against one fleet under one load profile."""

    def __init__(
        self,
        fleet: InProcessFleet,
        plan: FaultPlan,
        profile: LoadProfile | None = None,
        writes_per_tick: int = 2,
    ) -> None:
        self.fleet = fleet
        self.plan = plan
        self.profile = profile or LoadProfile(n_keys=fleet.n_keys)
        self.writes_per_tick = writes_per_tick
        self.load = LoadGenerator(self.profile, plan.ticks)
        self.trace: list[str] = []
        self._tamper_seen_tick: int | None = None
        self._detected_at_query: int | None = None
        self._queries_since_tamper = 0

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------

    def _apply(self, ev: FaultEvent) -> None:
        fleet = self.fleet
        if ev.kind == "partition":
            fleet.faults[ev.target].partitioned = True
        elif ev.kind == "heal":
            fleet.faults[ev.target].clear()
        elif ev.kind == "hold":
            fleet.faults[ev.target].hold = True
        elif ev.kind == "release":
            fleet.faults[ev.target].hold = False
        elif ev.kind == "drop":
            fleet.faults[ev.target].drop_next += int(ev.arg)
        elif ev.kind == "slow":
            fleet.faults[ev.target].delay = ev.arg
        elif ev.kind == "tamper":
            fleet.tamper(ev.target, key=int(ev.arg))
            if self._tamper_seen_tick is None:
                self._tamper_seen_tick = ev.tick
        elif ev.kind == "kill":
            fleet.kill(ev.target)
        elif ev.kind == "rotate":
            fleet.rotate()
        elif ev.kind == "drop_store":
            # Only meaningful on fleets with a relay tier; the flat
            # fleet records the event and moves on (scenarios that
            # schedule it run their own relay harness).
            pass
        else:  # pragma: no cover - plan validation forbids this
            raise ValueError(f"unhandled event kind {ev.kind!r}")
        self.trace.append(
            f"{ev.tick}:{ev.kind}:{ev.target}:{ev.arg!r}"
        )

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self) -> ChaosReport:
        fleet, plan, load = self.fleet, self.plan, self.load
        report = ChaosReport(
            scenario=plan.name,
            plan_bytes=plan.to_bytes(),
            trace=(),
        )
        for tick in range(plan.ticks):
            for ev in plan.at(tick):
                self._apply(ev)
            fleet.write(self.writes_per_tick)
            for low, high in load.batch(tick):
                load.note_issued()
                try:
                    resp = fleet.router.range_query(
                        fleet.table, low=low, high=high
                    )
                except RouterError:
                    load.note_unavailable()
                    report.unavailable += 1
                    continue
                if resp.verdict.ok:
                    report.verified += 1
                    load.note_answered(resp.latency)
                else:  # pragma: no cover - the broken invariant
                    report.unverified += 1
                report.rejections += len(resp.rejected)
                if self._tamper_seen_tick is not None:
                    if self._detected_at_query is None:
                        self._queries_since_tamper += 1
                        if resp.rejected:
                            self._detected_at_query = (
                                self._queries_since_tamper
                            )
            fleet.pump()
        report.quarantined = tuple(
            sorted(
                name
                for name, stats in fleet.router.router.stats().items()
                if stats.quarantined
            )
        )
        # --- storm over: heal, settle, converge -----------------------
        fleet.heal_all()
        report.recovery_pumps = fleet.settle()
        report.detection_queries = (
            self._detected_at_query
            if self._detected_at_query is not None
            else (-1 if self._tamper_seen_tick is not None else 0)
        )
        report.trace = tuple(self.trace)
        report.load_summary = load.report.summary()
        return report
