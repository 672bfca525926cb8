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
from repro.edge.fleet import Fleet
from repro.exceptions import RouterError
from repro.workloads.generator import TableSpec, generate_table
from repro.workloads.load_gen import LoadGenerator, LoadProfile

__all__ = ["chaos_fleet", "ChaosOrchestrator", "ChaosReport"]

TABLE = "items"
#: Seed rows of the battery's table (keys ``0..ROWS-1``).
ROWS = 64
#: Inserts the orchestrator commits per tick, storm or no storm.
_WRITES_PER_TICK = 2


def chaos_fleet(
    seed: int,
    rows: int = ROWS,
    db: str = "chaosdb",
    data_seed: int = 5,
    **shape,
) -> Fleet:
    """A :class:`~repro.edge.fleet.Fleet` over a fresh central owning
    one :data:`TABLE` of ``rows`` rows (keys ``0..rows-1``; 512-bit
    keys keep chaos runs fast — verification strength is not what
    chaos tests).  ``shape`` is the fleet's: ``edges=``, ``relays=``
    and relay store options."""
    central = CentralServer(db, seed=seed, rsa_bits=512)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=rows, columns=3, seed=data_seed)
    )
    central.create_table(schema, data, fanout_override=6)
    return Fleet(central, **shape)


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
        fleet: Fleet,
        plan: FaultPlan,
        profile: LoadProfile,
    ) -> None:
        self.fleet = fleet
        self.plan = plan
        self.profile = profile
        self.load = LoadGenerator(self.profile, plan.ticks)
        self.trace: list[str] = []
        self._rotations = 0
        self._writes = 0
        #: Edges currently carrying un-healed tampered replicas.
        self._tampered: set[str] = set()
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
            # Byzantine edge: corrupt one key in the replica at rest.
            key = int(ev.arg)
            ValueTamper(
                table=TABLE, key=key, column="a1",
                new_value=f"tampered-{key}",
            ).apply(fleet.edges[ev.target])
            self._tampered.add(ev.target)
            if self._tamper_seen_tick is None:
                self._tamper_seen_tick = ev.tick
        elif ev.kind == "kill":
            fleet.kill(ev.target)
            self._tampered.discard(ev.target)
        elif ev.kind == "rotate":
            # Deterministic per-rotation seed.
            self._rotations += 1
            fleet.central.rotate_key(seed=4000 + self._rotations)
        elif ev.kind == "drop_store":
            # Only meaningful with a relay tier (``relay_storm`` keeps
            # its own schedule); a flat fleet records the event and
            # moves on.
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
            # Deterministic insert churn, keys far above the seed range.
            for _ in range(_WRITES_PER_TICK):
                fleet.central.insert(TABLE, (100_000 + self._writes, "wr", "wr"))
                self._writes += 1
            for low, high in load.batch(tick):
                load.note_issued()
                try:
                    resp = fleet.router.range_query(TABLE, low=low, high=high)
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
        # --- storm over: heal (clear every fault, respawn tampered
        # edges), settle, converge ----------------------------------
        for injector in fleet.faults.values():
            injector.clear()
        for name in sorted(self._tampered):
            fleet.kill(name)
        report.recovery_pumps = fleet.settle()
        report.detection_queries = (
            self._detected_at_query
            if self._detected_at_query is not None
            else (-1 if self._tamper_seen_tick is not None else 0)
        )
        report.trace = tuple(self.trace)
        report.load_summary = load.report.summary()
        return report
