"""Sharded central plane test battery (DESIGN.md section 12).

Four layers, all deterministic:

* **Stable hashing** — shard assignment must be a pure function of
  ``(value, seed)``: the same table routes to the same shard in *other
  processes* (checked with subprocesses under different
  ``PYTHONHASHSEED`` values, which would scatter the builtin ``hash``).
* **Shard map** — half-open range semantics: a boundary key lands in
  exactly one shard (the range *starting* at it), scatter plans clamp
  inclusive sub-bounds correctly, and the map survives its wire form.
* **Sharded writes** — every insert lands on exactly one shard, and a
  shard's results verify *only* against that shard's public keys.
* **Scatter/gather under attack** — a tampered sub-result from one
  shard is REJECTed and failed over inside that shard without
  discarding the other shards' verified sub-results; quarantine never
  crosses a shard boundary.
"""

import os
import subprocess
import sys

import pytest

from repro.db.expressions import Comparison
from repro.edge.adversary import ResponseTamper, ValueTamper
from repro.edge.central import CentralServer
from repro.edge.sharding import (
    ShardMap,
    ShardedCentral,
    boundaries_from_keys,
    stable_hash,
)
from repro.edge.transport import (
    ConfigFrame,
    config_to_frame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.exceptions import ReplicationError, RouterError, SchemaError
from repro.workloads.generator import TableSpec, generate_table

DB = "sharddb"


def sharded_fabric(shards=4, rows=48, edges_per_shard=2):
    """A range-partitioned table on a small sharded plane with edges."""
    central = ShardedCentral(DB, shards=shards, seed=41, rsa_bits=512)
    schema, seed_rows = generate_table(
        TableSpec(name="items", rows=rows, columns=4, seed=9)
    )
    central.create_table(
        schema, seed_rows, partition="range", fanout_override=6
    )
    fleets = central.spawn_edge_fleet(per_shard=edges_per_shard)
    return central, fleets


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_deterministic_and_seed_dependent(self):
        assert stable_hash("items", 7) == stable_hash("items", 7)
        assert stable_hash("items", 7) != stable_hash("items", 8)
        assert stable_hash("items", 7) != stable_hash("other", 7)
        assert stable_hash(12345) == stable_hash(12345)

    def test_cross_process_stability(self):
        """The assignment hash must agree across processes — including
        ones whose builtin ``hash()`` is randomized differently."""
        script = (
            "from repro.edge.sharding import stable_hash;"
            "print(stable_hash('items', 7), stable_hash(99, 3))"
        )
        outputs = set()
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (
                    os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                    env.get("PYTHONPATH", ""),
                ) if p
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert outputs == {f"{stable_hash('items', 7)} {stable_hash(99, 3)}"}


# ---------------------------------------------------------------------------
# Shard map semantics
# ---------------------------------------------------------------------------


class TestShardMap:
    def make_map(self):
        shard_map = ShardMap(nshards=4, seed=5)
        shard_map.place_range_table("items", (100, 200, 300))
        return shard_map

    def test_boundary_key_lands_in_exactly_one_shard(self):
        """Half-open ``[lo, hi)``: a key equal to a boundary belongs to
        the range *starting* at that boundary, and to no other."""
        shard_map = self.make_map()
        assert shard_map.shard_for("items", 99) == 0
        assert shard_map.shard_for("items", 100) == 1
        assert shard_map.shard_for("items", 199) == 1
        assert shard_map.shard_for("items", 200) == 2
        assert shard_map.shard_for("items", 300) == 3
        # Exhaustive: every key in the domain has exactly one owner, and
        # ownership is monotone in the key.
        owners = [shard_map.shard_for("items", k) for k in range(0, 400)]
        assert sorted(owners) == owners
        assert set(owners) == {0, 1, 2, 3}

    def test_plan_clamps_inclusive_bounds(self):
        shard_map = self.make_map()
        # Full scatter: inclusive upper clamp of a range ending at b is
        # b - 1; the outer ends stay unbounded.
        assert shard_map.plan("items", None, None) == [
            (0, None, 99), (1, 100, 199), (2, 200, 299), (3, 300, None),
        ]
        # Query inside one shard's range never scatters.
        assert shard_map.plan("items", 120, 180) == [(1, 120, 180)]
        # Boundary-straddling query visits both owners, clamped.
        assert shard_map.plan("items", 150, 250) == [
            (1, 150, 199), (2, 200, 250),
        ]
        # A query left of every boundary touches only shard 0.
        assert shard_map.plan("items", None, 42) == [(0, None, 42)]

    def test_hash_placement_is_stable_and_exclusive(self):
        a = ShardMap(nshards=4, seed=5)
        b = ShardMap(nshards=4, seed=5)
        assert a.place_table("users") == b.place_table("users")
        assert a.shards_for_table("users") == (a.shard_for("users", 1),)
        with pytest.raises(SchemaError):
            a.place_table("users")

    def test_wire_round_trip_routes_identically(self):
        shard_map = self.make_map()
        shard_map.place_table("users", shard=2)
        restored = ShardMap.from_wire(shard_map.to_wire())
        assert restored.version == shard_map.version
        assert restored.nshards == shard_map.nshards
        for key in (0, 99, 100, 250, 300, 10**9):
            assert restored.shard_for("items", key) == shard_map.shard_for(
                "items", key
            )
        assert restored.shard_for("users", 1) == 2
        assert restored.plan("items", 150, 250) == shard_map.plan(
            "items", 150, 250
        )

    def test_boundaries_from_keys(self):
        assert boundaries_from_keys(range(0, 80, 2), 4) == (20, 40, 60)
        with pytest.raises(ReplicationError):
            boundaries_from_keys([1, 2], 4)

    def test_validation(self):
        with pytest.raises(ReplicationError):
            ShardMap(nshards=0)
        shard_map = ShardMap(nshards=3)
        with pytest.raises(ReplicationError):
            shard_map.place_range_table("t", (1,))  # needs 2 boundaries
        with pytest.raises(ReplicationError):
            shard_map.place_range_table("t", (5, 1))  # unsorted
        with pytest.raises(SchemaError):
            shard_map.shard_for("missing", 1)


# ---------------------------------------------------------------------------
# Sharded writes & per-shard keys
# ---------------------------------------------------------------------------


class TestShardedWrites:
    def test_insert_lands_on_exactly_one_shard(self):
        central, _fleets = sharded_fabric()
        before = [
            len(s.vbtrees["items"]) for s in central.shards
        ]
        owner = central.shard_for("items", 1001)
        central.insert("items", (1001, "x", "y", "z"))
        after = [len(s.vbtrees["items"]) for s in central.shards]
        for shard_id, (b, a) in enumerate(zip(before, after, strict=True)):
            assert a - b == (1 if shard_id == owner else 0)
        assert central.total_rows("items") == sum(before) + 1

    def test_delete_routes_to_owner(self):
        central, _fleets = sharded_fabric()
        total = central.total_rows("items")
        central.delete("items", 10)
        assert central.total_rows("items") == total - 1

    def test_per_shard_keys_do_not_cross_verify(self):
        """Shard A's signed results must fail verification under shard
        B's key ring — per-shard authenticity is what confines a
        compromised signer to its own partition."""
        central, fleets = sharded_fabric()
        plan = central.shard_map.plan("items", None, None)
        shard_a, lo, hi = plan[0]
        response = fleets[shard_a][0].range_query("items", low=lo, high=hi)
        assert central.shard(shard_a).make_client().verify(response.result).ok
        verdict = central.shard(shard_a + 1).make_client().verify(
            response.result
        )
        assert not verdict.ok

    def test_fanout_is_isolated_per_shard(self):
        """Each shard's fan-out engine serves only its own fleet, and
        an insert ships bytes down *only* the owning shard's links —
        per-shard fan-out cost is directly observable."""
        central, fleets = sharded_fabric()
        owner = central.shard_for("items", 2001)
        before = {
            shard_id: {
                name: peer["bytes_down"]
                for name, peer in central.shard(shard_id).fanout.stats().items()
            }
            for shard_id in range(central.nshards)
        }
        assert all(
            set(stats) == {e.name for e in fleets[shard_id]}
            for shard_id, stats in before.items()
        )
        central.insert("items", (2001, "x", "y", "z"))
        for shard_id in range(central.nshards):
            after = central.shard(shard_id).fanout.stats()
            for name, peer in after.items():
                grew = peer["bytes_down"] > before[shard_id][name]
                assert grew == (shard_id == owner), (shard_id, name)
                assert peer["inflight"] == 0  # eager mode drains fully
                if shard_id == owner:
                    assert peer["acked_lsns"]["items"] > 0

    def test_shard_key_rotation_is_local(self):
        central, fleets = sharded_fabric()
        central.rotate_key(0)
        plan = central.shard_map.plan("items", None, None)
        for shard_id, lo, hi in plan:
            response = fleets[shard_id][0].range_query("items", low=lo, high=hi)
            assert central.shard(shard_id).make_client().verify(
                response.result
            ).ok


# ---------------------------------------------------------------------------
# Scatter/gather under attack
# ---------------------------------------------------------------------------


class TestScatterGatherUnderAttack:
    def test_merged_range_query_matches_unsharded(self):
        central, _fleets = sharded_fabric()
        schema, seed_rows = generate_table(
            TableSpec(name="items", rows=48, columns=4, seed=9)
        )
        single = CentralServer(DB, seed=41, rsa_bits=512)
        single.create_table(schema, seed_rows, fanout_override=6)
        edge = single.spawn_edge_server("ref-edge")

        merged = central.make_router().range_query("items", low=2, high=45)
        reference = edge.range_query("items", low=2, high=45)
        assert merged.verified
        assert merged.keys == reference.result.keys
        assert merged.rows == reference.result.rows

    def test_tampered_shard_fails_over_without_discarding_others(self):
        """One shard serves tampered data: that shard REJECTs and fails
        over to its healthy sibling; every other shard's verified
        sub-result is kept and the merged answer still verifies."""
        central, fleets = sharded_fabric()
        router = central.make_router()
        bad_shard = 1
        bad_edge = fleets[bad_shard][0]
        ResponseTamper(row_index=0, column_index=1, new_value="mitm").install(
            bad_edge
        )

        rejected: list[str] = []
        for _ in range(4):  # round-robin lands on the tampered edge
            merged = router.range_query("items", low=None, high=None)
            assert merged.verified
            assert len(merged.parts) == central.nshards
            rejected.extend(merged.rejected)
        assert bad_edge.name in rejected
        # Quarantine is confined to the tampering shard.
        assert router.router_for(bad_shard).stats()[bad_edge.name].quarantined
        for shard_id in range(central.nshards):
            if shard_id == bad_shard:
                continue
            for name, stats in router.router_for(shard_id).stats().items():
                assert not stats.quarantined, (shard_id, name)
        # The merged answer equals the untampered one.
        clean = central.make_router().range_query("items")
        assert merged.keys == clean.keys and merged.rows == clean.rows

    def test_whole_shard_tampered_raises_but_only_that_shard(self):
        central, fleets = sharded_fabric()
        router = central.make_router()
        for edge in fleets[2]:  # shard 2 owns [24, 36) of the 48 keys
            ValueTamper(
                table="items", key=25, column="a1", new_value="evil"
            ).apply(edge)
        with pytest.raises(RouterError):
            router.range_query("items")
        # The other shards' routers saw no rejects at all.
        for shard_id in (0, 1, 3):
            assert router.router_for(shard_id).rejects == 0

    def test_secondary_and_select_scatter_to_all_shards(self):
        central, _fleets = sharded_fabric()
        central.create_secondary_index("items", "a1")
        router = central.make_router()
        by_attr = router.secondary_range_query("items", "a1")
        assert by_attr.verified and len(by_attr.parts) == central.nshards
        assert sorted(by_attr.keys) == sorted(
            central.make_router().range_query("items").keys
        )
        picked = router.select_query("items", Comparison("id", "<", 10))
        assert picked.verified
        assert sorted(picked.keys) == list(range(0, 10))
        assert router.scattered_queries == 2


# ---------------------------------------------------------------------------
# ConfigFrame wire compatibility
# ---------------------------------------------------------------------------


class TestConfigFrameShardWire:
    def test_unsharded_frame_is_byte_identical_to_pre_shard_protocol(self):
        """The shard fields ride as optional trailing bytes: an
        unsharded central's config frame must encode to exactly the
        bytes a pre-sharding peer expects (and emitted)."""
        central = CentralServer(DB, seed=41, rsa_bits=512)
        frame = config_to_frame(central.client_config())
        encoded = frame_to_bytes(frame)
        legacy = ConfigFrame(
            db_name=frame.db_name, policy=frame.policy, grace=frame.grace,
            clock=frame.clock, epochs=frame.epochs,
            ack_every=frame.ack_every, ack_bytes=frame.ack_bytes,
        )
        assert encoded == frame_to_bytes(legacy)
        decoded = frame_from_bytes(encoded)
        assert decoded.shard_id == -1 and decoded.shard_map is None

    def test_sharded_frame_round_trips_map_and_id(self):
        central, _fleets = sharded_fabric(shards=3, rows=24)
        frame = config_to_frame(
            central.shard(1).client_config(),
            shard_id=1,
            shard_map=central.shard_map.to_wire(),
        )
        decoded = frame_from_bytes(frame_to_bytes(frame))
        assert decoded.shard_id == 1
        restored = ShardMap.from_wire(decoded.shard_map)
        for key in (0, 7, 8, 15, 16, 47, 10**6):
            assert restored.shard_for("items", key) == (
                central.shard_map.shard_for("items", key)
            )

    def test_shard_id_without_map_stays_legacy_bytes(self):
        """A shard id travels only alongside a map — without one the
        frame stays in the legacy encoding (nothing trailing)."""
        central = CentralServer(DB, seed=41, rsa_bits=512)
        plain = config_to_frame(central.client_config())
        tagged = config_to_frame(central.client_config(), shard_id=3)
        assert frame_to_bytes(plain) == frame_to_bytes(tagged)
