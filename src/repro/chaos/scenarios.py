"""The standing chaos battery: named, seeded failure storms.

Each scenario is a zero-or-seed-argument callable returning a
:class:`~repro.chaos.orchestrator.ChaosReport`; the :data:`SCENARIOS`
registry is what ``tests/chaos/test_scenarios.py`` iterates and what
``benchmarks/bench_chaos.py`` commits baselines for.  All of them run
in-process, deterministically, in tier-1 time — the socket-level storm
(real SIGKILLs over a relay tree) lives in
``tests/chaos/test_chaos_deploy.py`` under the ``socket`` marker.

Every scenario must uphold the battery's three invariants (DESIGN.md
§14): zero unverified results surfaced, tamper quarantined, post-storm
cursor parity.  What each scenario is *allowed* to degrade differs —
availability may dip under a full partition, latency may blow through
the SLO on a slow link — and the per-scenario docstrings below are the
normative statement of those allowances.
"""

from __future__ import annotations

from repro.chaos.orchestrator import (
    ChaosOrchestrator,
    ChaosReport,
    InProcessFleet,
)
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.core.wire import result_from_bytes
from repro.edge.edge_server import EdgeServer
from repro.edge.relay import RelayServer
from repro.edge.link import InProcessTransport
from repro.edge.transport import (
    config_from_frame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
from repro.workloads.load_gen import LoadProfile

__all__ = [
    "SCENARIOS",
    "network_flaps",
    "slow_links",
    "byzantine_edges",
    "rotation_mid_partition",
    "relay_storm",
    "combined_storm",
]


def network_flaps(seed: int = 0) -> ChaosReport:
    """Links flap up and down across the fleet, with frame drops.

    May degrade: nothing user-visible — at most one edge is down at a
    time, so the router always has a healthy fallback and availability
    stays 100%.  Must hold: zero unverified, parity after heal.
    """
    plan = FaultPlan(
        name="network_flaps",
        seed=seed,
        ticks=12,
        events=(
            FaultEvent(1, "partition", "edge-0"),
            FaultEvent(2, "drop", "edge-1", 2.0),
            FaultEvent(3, "heal", "edge-0"),
            FaultEvent(4, "partition", "edge-1"),
            FaultEvent(6, "heal", "edge-1"),
            FaultEvent(6, "partition", "edge-2"),
            FaultEvent(7, "drop", "edge-3", 3.0),
            FaultEvent(8, "heal", "edge-2"),
            FaultEvent(9, "partition", "edge-0"),
            FaultEvent(11, "heal", "edge-0"),
        ),
    )
    fleet = InProcessFleet(n_edges=4, seed=11 + seed)
    orch = ChaosOrchestrator(
        fleet, plan, LoadProfile(n_keys=fleet.n_keys, seed=seed)
    )
    return orch.run()


def slow_links(seed: int = 0) -> ChaosReport:
    """Staggered latency shaping: one link at a time turns slow.

    May degrade: per-query latency on the shaped link (queries that
    land there fail over — the open-loop report counts the detour);
    replication to the slow edge lags by design, healing on release.
    Must hold: zero unverified, parity after heal.
    """
    plan = FaultPlan(
        name="slow_links",
        seed=seed,
        ticks=12,
        events=(
            FaultEvent(1, "slow", "edge-0", 0.02),
            FaultEvent(4, "heal", "edge-0"),
            FaultEvent(4, "slow", "edge-1", 0.03),
            FaultEvent(7, "heal", "edge-1"),
            FaultEvent(7, "slow", "edge-2", 0.01),
            FaultEvent(10, "heal", "edge-2"),
        ),
    )
    fleet = InProcessFleet(n_edges=4, seed=13 + seed)
    orch = ChaosOrchestrator(
        fleet, plan, LoadProfile(n_keys=fleet.n_keys, seed=seed)
    )
    return orch.run()


def byzantine_edges(seed: int = 0) -> ChaosReport:
    """Two edges serve tampered replicas of the hottest keys.

    Must hold: every tamper is *detected* (the Zipf head guarantees
    the corrupted keys are queried), each byzantine edge is
    quarantined, the caller still only ever sees verified ACCEPTs, and
    after the storm the respawned edges reach parity.  May degrade:
    effective fleet size (quarantine removes capacity).
    """
    plan = FaultPlan(
        name="byzantine_edges",
        seed=seed,
        ticks=14,
        events=(
            # Key 0 is the Zipf-hottest: detection is a matter of a
            # few queries, and the detection-latency count is stable.
            FaultEvent(2, "tamper", "edge-1", 0.0),
            FaultEvent(6, "tamper", "edge-2", 1.0),
        ),
    )
    fleet = InProcessFleet(n_edges=4, seed=17 + seed)
    orch = ChaosOrchestrator(
        fleet,
        plan,
        LoadProfile(n_keys=fleet.n_keys, seed=seed, queries_per_tick=10),
    )
    return orch.run()


def rotation_mid_partition(seed: int = 0) -> ChaosReport:
    """The signing key rotates while an edge is partitioned.

    The partitioned edge misses the rotation entirely; on heal it
    holds only stale-epoch state and must be snapshot-healed across
    the epoch barrier.  Must hold: its stale-epoch answers (if routed)
    still verify against the key ring's epoch history — old signatures
    are valid, they are just old — zero unverified throughout, and
    post-heal parity on the new epoch.  May degrade: the healed edge's
    staleness window.
    """
    plan = FaultPlan(
        name="rotation_mid_partition",
        seed=seed,
        ticks=12,
        events=(
            FaultEvent(1, "partition", "edge-0"),
            FaultEvent(3, "rotate", "central"),
            FaultEvent(5, "rotate", "central"),
            FaultEvent(7, "heal", "edge-0"),
            FaultEvent(8, "partition", "edge-2"),
            FaultEvent(9, "rotate", "central"),
            FaultEvent(10, "heal", "edge-2"),
        ),
    )
    fleet = InProcessFleet(n_edges=4, seed=19 + seed)
    orch = ChaosOrchestrator(
        fleet, plan, LoadProfile(n_keys=fleet.n_keys, seed=seed)
    )
    return orch.run()


def combined_storm(seed: int = 0) -> ChaosReport:
    """Everything at once: generated flap/slow/drop/kill noise plus a
    scheduled tamper and a rotation, under sustained load.

    Must hold: the full triad — zero unverified, tamper quarantined,
    post-storm parity.  May degrade: availability (the generated storm
    can partition several edges at once) and latency.
    """
    # The generated noise covers edges 0–3; the byzantine edge (4) is
    # deliberately outside it, so the tamper can't be masked by a
    # coincidental kill or partition — detection must come from the
    # verifying router, not from the storm erasing the evidence.
    noise = FaultPlan.generate(
        seed=seed,
        targets=[f"edge-{i}" for i in range(4)],
        ticks=16,
        events_per_tick=1.5,
        name="combined_storm",
    )
    extra = (
        FaultEvent(4, "tamper", "edge-4", 0.0),
        FaultEvent(8, "rotate", "central"),
    )
    plan = FaultPlan(
        name="combined_storm",
        seed=seed,
        ticks=16,
        events=tuple(noise.events) + extra,
    )
    fleet = InProcessFleet(n_edges=5, seed=23 + seed)
    orch = ChaosOrchestrator(
        fleet,
        plan,
        LoadProfile(n_keys=fleet.n_keys, seed=seed, queries_per_tick=10),
    )
    return orch.run()


# ---------------------------------------------------------------------------
# Relay storm (its own harness: the fleet has a store-and-forward tier)
# ---------------------------------------------------------------------------


class _RelayHarness:
    """Central → relay → edges, all in-process (the wiring of
    ``tests/edge/test_relay.py``, packaged for chaos runs)."""

    def __init__(self, seed: int, max_store_bytes: int = 0) -> None:
        from repro.edge.central import CentralServer
        from repro.workloads.generator import TableSpec, generate_table

        self.table = "items"
        self.central = CentralServer("chaosrelay", seed=29 + seed, rsa_bits=512)
        schema, data = generate_table(
            TableSpec(name=self.table, rows=48, columns=3, seed=7)
        )
        self.central.create_table(schema, data, fanout_override=6)
        self.max_store_bytes = max_store_bytes
        self.client = self.central.make_client()
        #: Store counters banked across relay kills (a supervisor's
        #: cumulative view; each kill resets the live relay's own).
        self.banked = {"compacted_frames": 0, "store_evictions": 0}
        self.relay: RelayServer | None = None
        self.up: InProcessTransport | None = None
        self.edges: dict[str, EdgeServer] = {}
        self._attach_relay()
        for i in range(2):
            self._attach_edge(f"edge-{i}")
        self.tree_sync()

    def _attach_relay(self) -> None:
        relay = RelayServer(
            "relay-0", max_store_bytes=self.max_store_bytes
        )
        up = InProcessTransport("relay-0")
        up.connect(relay.handle_frame)
        cfg = self.central.config_frame()
        relay.adopt_config(cfg)
        sent_epoch = max((rec[0] for rec in cfg.epochs), default=-1)
        self.central.attach_remote_edge(
            "relay-0", up, config_epoch=sent_epoch
        )
        self.relay, self.up = relay, up

    def _attach_edge(self, name: str) -> None:
        edge = EdgeServer(
            name=name,
            config=config_from_frame(self.relay.config_frame()),
        )
        down = InProcessTransport(name)
        down.connect(edge.handle_frame)
        self.relay.attach_edge(name, down)
        self.edges[name] = edge

    def push_config(self) -> None:
        """Deliver the central's current ConfigFrame to the relay
        (what the socket serve loop does after a key rotation)."""
        cfg = self.central.config_frame()
        self.relay.handle_frame(frame_to_bytes(cfg))

    def kill_relay(self) -> None:
        """Discard the relay wholesale (store and all) and bring up an
        empty replacement; its subtree re-attaches and snapshot-heals —
        the in-process image of SIGKILL + supervisor relaunch."""
        for key in self.banked:
            self.banked[key] += self.relay.counters[key]
        self._attach_relay()
        for name in list(self.edges):
            self._attach_edge(name)

    def total_counters(self) -> dict:
        """Banked + live store counters across every relay incarnation."""
        return {
            key: self.banked[key] + self.relay.counters[key]
            for key in self.banked
        }

    def tree_sync(self, rounds: int = 30) -> int:
        """Drive the whole tree to quiescence; returns rounds used.

        Raises:
            AssertionError: When the tree cannot settle — a wedged
                relay subtree is a failed run.
        """
        relay_peer = self.central.fanout.peer("relay-0")
        for used in range(1, rounds + 1):
            self.central.propagate()
            self.central.fanout.drain(wait=True)
            self.relay.fanout.pump()
            self.relay.fanout.drain(wait=True)
            frames = [
                frame_from_bytes(b) for b in self.relay.pending_upstream()
            ]
            if frames:
                self.central.fanout._process_replies(relay_peer, frames)
            settled = all(
                self.central.fanout.staleness("relay-0", t) == 0
                for t in self.central.vbtrees
            ) and all(
                self.relay.fanout.staleness(name, t) == 0
                for name in self.edges
                for t in self.central.vbtrees
            )
            if settled:
                return used
        raise AssertionError("relay subtree failed to settle")

    def query(self, low: int, high: int):
        """One forwarded query; returns ``(result, verdict)``."""
        reply = self.up.request(
            range_query_frame(self.table, low, high, None, None)
        )
        result = result_from_bytes(reply.payload)
        return result, self.client.verify(result)


def relay_storm(seed: int = 0) -> ChaosReport:
    """The relay tier dies repeatedly (and sheds store state) under
    query load, with a tight store byte-cap forcing evictions.

    Must hold: every forwarded result the caller sees verifies (the
    relay adds and removes nothing — a healed, empty relay serves
    byte-identical signed frames), the subtree re-settles after every
    kill, and the byte-cap eviction path heals by snapshot rather than
    wedging.  May degrade: heal traffic (snapshots instead of deltas).
    """
    # A cap above snapshot+short-chain early in the run but below it
    # once the table has grown: steady insert churn must trip eviction
    # at least once, while the early chain survives long enough for
    # the rotation snapshot to have deltas to compact.  The cap is
    # sized to this table's payloads (three evictions, seven compacted
    # frames, from 11 800 to 12 600 B — this is the middle): a format
    # change that moves their size moves it too.
    harness = _RelayHarness(seed, max_store_bytes=12_200)
    trace: list[str] = []
    report = ChaosReport(
        scenario="relay_storm",
        plan_bytes=FaultPlan(
            name="relay_storm", seed=seed, ticks=10
        ).to_bytes(),
        trace=(),
    )
    writes = 0
    recovery = 0
    for tick in range(10):
        if tick in (3, 7):
            harness.kill_relay()
            trace.append(f"{tick}:kill:relay-0:0.0")
        if tick == 2:
            # Rotate while the relay holds a delta chain: the rotation
            # snapshot covers it, exercising store compaction.  The
            # socket serve loop pushes the refreshed ConfigFrame to
            # connected relays; in-process we deliver it by hand.
            harness.central.rotate_key(seed=4100 + seed)
            harness.push_config()
            trace.append(f"{tick}:rotate:central:0.0")
        if tick == 5:
            harness.relay.drop_store(harness.table)
            trace.append(f"{tick}:drop_store:{harness.table}:0.0")
        for _ in range(4):
            key = 200_000 + writes
            writes += 1
            harness.central.insert(harness.table, (key, "wr", "wr"))
        recovery += harness.tree_sync()
        for low, high in ((0, 6), (200_000 + writes - 4, 200_000 + writes)):
            result, verdict = harness.query(low, high)
            if verdict.ok:
                report.verified += 1
            else:  # pragma: no cover - the broken invariant
                report.unverified += 1
    report.recovery_pumps = recovery
    report.detection_queries = 0
    report.trace = tuple(trace)
    report.load_summary = {
        "issued": report.verified + report.unverified,
        "answered": report.verified,
        **harness.total_counters(),
    }
    return report


#: The battery: what the chaos tests iterate and the bench baselines.
SCENARIOS = {
    "network_flaps": network_flaps,
    "slow_links": slow_links,
    "byzantine_edges": byzantine_edges,
    "rotation_mid_partition": rotation_mid_partition,
    "relay_storm": relay_storm,
    "combined_storm": combined_storm,
}
