"""FaultPlan: canonical bytes, seeded generation, byte-identical replay.

The battery's reproducibility contract (DESIGN.md §14): a chaos run is
fully described by (fleet seed, plan, load profile), the plan is a pure
function of *its* seed, and a failing storm re-files as "seed N, plan
bytes B" — so these properties are what make a chaos failure a seed
instead of an anecdote.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosOrchestrator,
    FaultEvent,
    FaultPlan,
    chaos_fleet,
)
from repro.chaos.plan import EVENT_KINDS
from repro.workloads.load_gen import LoadProfile


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, "meteor", "edge-0")

    def test_rejects_negative_tick(self):
        with pytest.raises(ValueError, match="negative tick"):
            FaultEvent(-1, "partition", "edge-0")

    def test_rejects_unserializable_target(self):
        with pytest.raises(ValueError, match="unserializable"):
            FaultEvent(0, "partition", "edge 0")


class TestFaultPlan:
    def test_events_canonically_sorted(self):
        plan = FaultPlan(
            name="p", seed=0, ticks=5,
            events=(
                FaultEvent(3, "heal", "edge-0"),
                FaultEvent(1, "partition", "edge-0"),
            ),
        )
        assert [ev.tick for ev in plan.events] == [1, 3]

    def test_rejects_event_outside_ticks(self):
        with pytest.raises(ValueError, match="outside plan"):
            FaultPlan(
                name="p", seed=0, ticks=3,
                events=(FaultEvent(3, "heal", "edge-0"),),
            )

    def test_at_and_targets(self):
        plan = FaultPlan(
            name="p", seed=0, ticks=5,
            events=(
                FaultEvent(1, "partition", "edge-1"),
                FaultEvent(1, "drop", "edge-0", 2.0),
                FaultEvent(2, "heal", "edge-1"),
            ),
        )
        assert [ev.kind for ev in plan.at(1)] == ["drop", "partition"]
        assert plan.targets() == ("edge-0", "edge-1")

    def test_roundtrip_hand_authored(self):
        plan = FaultPlan(
            name="hand", seed=9, ticks=8,
            events=(
                FaultEvent(0, "slow", "edge-2", 0.0125),
                FaultEvent(3, "tamper", "edge-1", 7.0),
                FaultEvent(5, "rotate", "central"),
            ),
        )
        assert FaultPlan.from_bytes(plan.to_bytes()) == plan

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError, match="faultplan"):
            FaultPlan.from_bytes(b"not a plan\n")

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_generated_plan_roundtrips_and_is_pure(self, seed):
        """Generation is a pure function of its inputs, and the
        canonical bytes round-trip exactly (repr floats included)."""
        targets = ["edge-0", "edge-1", "edge-2"]
        plan = FaultPlan.generate(seed, targets, ticks=10,
                                  events_per_tick=1.3)
        again = FaultPlan.generate(seed, targets, ticks=10,
                                   events_per_tick=1.3)
        assert plan == again
        assert plan.to_bytes() == again.to_bytes()
        decoded = FaultPlan.from_bytes(plan.to_bytes())
        assert decoded == plan
        assert decoded.to_bytes() == plan.to_bytes()
        for ev in plan.events:
            assert ev.kind in EVENT_KINDS
            assert 0 <= ev.tick < plan.ticks

    def test_equal_plans_iff_equal_bytes(self):
        a = FaultPlan.generate(5, ["edge-0", "edge-1"], ticks=6)
        b = FaultPlan.generate(5, ["edge-0", "edge-1"], ticks=6)
        c = FaultPlan.generate(6, ["edge-0", "edge-1"], ticks=6)
        assert a == b and a.to_bytes() == b.to_bytes()
        assert a != c and a.to_bytes() != c.to_bytes()


class TestReplay:
    """Any interleaving of partition/heal/kill (and the rest) against a
    FaultPlan schedule is replayable byte-identically from its seed."""

    @staticmethod
    def _run(seed):
        edges = ["edge-0", "edge-1", "edge-2"]
        plan = FaultPlan.generate(
            seed, edges, ticks=5, events_per_tick=1.5, name="replay"
        )
        fleet = chaos_fleet(31 + seed, rows=32, edges=edges)
        orch = ChaosOrchestrator(
            fleet,
            plan,
            LoadProfile(n_keys=32, queries_per_tick=4, seed=seed),
        )
        return orch.run()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=5, deadline=None)
    def test_same_seed_same_storm(self, seed):
        a = self._run(seed)
        b = self._run(seed)
        # The applied-fault trace and the plan bytes are the replay
        # evidence: byte-identical across runs.
        assert a.trace == b.trace
        assert a.plan_bytes == b.plan_bytes
        # Every deterministic observation matches too (wall-clock
        # latency lives only in load_summary and is not compared).
        for attr in ("verified", "unverified", "unavailable",
                     "rejections", "detection_queries", "quarantined"):
            assert getattr(a, attr) == getattr(b, attr), attr
        assert a.ok and b.ok
