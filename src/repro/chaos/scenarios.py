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
    ROWS,
    TABLE,
    ChaosOrchestrator,
    ChaosReport,
    chaos_fleet,
)
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.workloads.load_gen import LoadProfile

def _edges(n: int) -> list[str]:
    return [f"edge-{i}" for i in range(n)]


def _storm(plan: FaultPlan, fleet_seed: int, n_edges: int = 4, **load) -> ChaosReport:
    """Run ``plan`` against a flat fleet of ``n_edges`` (its central
    seeded ``fleet_seed + plan.seed``) under the plan-seeded Zipf
    load; ``load`` overrides :class:`LoadProfile` fields."""
    fleet = chaos_fleet(fleet_seed + plan.seed, edges=_edges(n_edges))
    profile = LoadProfile(n_keys=ROWS, seed=plan.seed, **load)
    return ChaosOrchestrator(fleet, plan, profile).run()


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
    return _storm(plan, 11)


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
    return _storm(plan, 13)


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
    return _storm(plan, 17, queries_per_tick=10)


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
    return _storm(plan, 19)


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
        targets=_edges(4),
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
    return _storm(plan, 23, n_edges=5, queries_per_tick=10)


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
    # sized to this table's payloads (five evictions, seven compacted
    # frames, from 11 800 to 12 600 B — this is the middle): a format
    # change that moves their size moves it too.
    fleet = chaos_fleet(
        29 + seed, rows=48, db="chaosrelay", data_seed=7,
        relays={"relay-0": _edges(2)}, max_store_bytes=12_200,
    )
    fleet.settle()
    trace: list[str] = []
    report = ChaosReport(
        scenario="relay_storm",
        plan_bytes=FaultPlan(
            name="relay_storm", seed=seed, ticks=10
        ).to_bytes(),
        trace=(),
    )
    #: Store counters across every relay incarnation (a supervisor's
    #: cumulative view; each kill resets the live relay's own).
    counters = {"compacted_frames": 0, "store_evictions": 0}

    def bank() -> None:
        for key in counters:
            counters[key] += fleet.relays["relay-0"].counters[key]

    writes = 0
    for tick in range(10):
        if tick in (3, 7):
            bank()
            fleet.kill("relay-0")
            trace.append(f"{tick}:kill:relay-0:0.0")
        if tick == 2:
            # Rotate while the relay holds a delta chain: the rotation
            # snapshot covers it, exercising store compaction.
            fleet.central.rotate_key(seed=4100 + seed)
            trace.append(f"{tick}:rotate:central:0.0")
        if tick == 5:
            fleet.relays["relay-0"].drop_store(TABLE)
            trace.append(f"{tick}:drop_store:{TABLE}:0.0")
        for _ in range(4):
            key = 200_000 + writes
            writes += 1
            fleet.central.insert(TABLE, (key, "wr", "wr"))
        report.recovery_pumps += fleet.settle()
        for low, high in ((0, 6), (200_000 + writes - 4, 200_000 + writes)):
            resp = fleet.router.range_query(TABLE, low=low, high=high)
            if resp.verdict.ok:
                report.verified += 1
            else:  # pragma: no cover - the broken invariant
                report.unverified += 1
    bank()
    report.detection_queries = 0
    report.trace = tuple(trace)
    report.load_summary = {
        "issued": report.verified + report.unverified,
        "answered": report.verified,
        **counters,
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
