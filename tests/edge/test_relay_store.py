"""Bounded relay frame store: accounting, eviction, compaction, heal.

The relay keeps whole verbatim frames (a snapshot plus the delta chain
extending it) and, unbounded, that store grows with write volume
forever.  ``max_store_bytes`` caps it: when snapshot + chain exceed the
cap the relay deterministically evicts the table to empty and nacks
``diverged`` upstream — the ordinary snapshot-heal escalation *is* the
compaction path, so the bound never invents a new recovery mechanism.
A snapshot alone is never evicted (it is the minimal heal unit; caps
smaller than one snapshot must not livelock).
"""

from repro.edge.central import CentralServer
from repro.edge.fleet import Fleet
from repro.edge.relay import RelayServer
from repro.edge.transport import frame_from_bytes
from repro.workloads.generator import TableSpec, generate_table

DB = "relaystoredb"
TABLE = "items"


def make_central(rows=40, **kwargs):
    central = CentralServer(DB, seed=7, rsa_bits=512, **kwargs)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=rows, columns=3, seed=5)
    )
    central.create_table(schema, data, fanout_override=6)
    return central


def build_tree(rows=40):
    """Central → relay-0 → two edges, settled; returns ``(fleet,
    central, relay)``."""
    central = make_central(rows=rows)
    fleet = Fleet(central, relays={"relay-0": ("edge-0", "edge-1")})
    fleet.settle()
    return fleet, central, fleet.relays["relay-0"]


def verified_rows(fleet, low, high):
    """Rows of one range query forwarded through the relay — the
    fleet's router surfaces verified ACCEPTs only."""
    resp = fleet.router.range_query(TABLE, low=low, high=high)
    assert resp.verdict.ok
    return len(resp.result.rows)


class TestRetainedBytes:
    def test_accounts_snapshot_plus_chain(self):
        fleet, central, relay = build_tree()
        st = relay.store[TABLE]
        assert st.snapshot is not None
        expected = len(st.snapshot.payload) + sum(
            len(d.payload) for d in st.deltas
        )
        assert st.retained_bytes() == expected

    def test_grows_with_deltas(self):
        fleet, central, relay = build_tree()
        st = relay.store[TABLE]
        before = st.retained_bytes()
        central.insert(TABLE, (9001, "a", "b"))
        fleet.settle()
        assert len(st.deltas) >= 1
        assert st.retained_bytes() > before


class TestByteCapEviction:
    def test_over_cap_evicts_and_heals_by_snapshot(self):
        """Chain growth past the cap → deterministic eviction →
        ``diverged`` nack → upstream ships a fresh snapshot at head —
        the store ends compact and queries still verify."""
        fleet, central, relay = build_tree()
        snapshot_bytes = len(relay.store[TABLE].snapshot.payload)
        # Cap just above the current snapshot: the next delta trips it.
        relay.max_store_bytes = snapshot_bytes + 100
        for key in range(9001, 9011):
            central.insert(TABLE, (key, "a", "b"))
        fleet.settle()
        assert relay.counters["store_evictions"] >= 1
        st = relay.store[TABLE]
        # Healed: fresh snapshot at the head, chain empty (compact).
        assert st.snapshot is not None
        assert st.deltas == []
        assert st.head == st.snapshot.lsn
        assert verified_rows(fleet, 9001, 9010) == 10

    def test_snapshot_alone_never_evicted(self):
        """A cap below one snapshot must not livelock the heal path:
        the snapshot is the minimal heal unit and always stays."""
        fleet, central, relay = build_tree()
        relay.max_store_bytes = 10  # absurd: under any snapshot
        central.insert(TABLE, (9001, "a", "b"))
        fleet.settle()
        st = relay.store[TABLE]
        assert st.snapshot is not None  # healed, not wedged
        assert st.deltas == []  # but no chain is ever retained
        assert st.retained_bytes() >= len(st.snapshot.payload)

    def test_unbounded_by_default(self):
        fleet, central, relay = build_tree()
        for key in range(9001, 9011):
            central.insert(TABLE, (key, "a", "b"))
            fleet.settle()
        assert relay.counters["store_evictions"] == 0
        assert len(relay.store[TABLE].deltas) >= 10


class TestCompaction:
    def test_rotation_snapshot_compacts_covered_chain(self):
        """A snapshot whose LSN covers stored deltas drops them, and
        the drop is counted — the chain never holds frames a snapshot
        already subsumes."""
        fleet, central, relay = build_tree()
        for key in range(9001, 9004):
            central.insert(TABLE, (key, "a", "b"))
        fleet.settle()
        chain = len(relay.store[TABLE].deltas)
        assert chain >= 1

        central.rotate_key()
        fleet.settle()
        assert relay.counters["compacted_frames"] >= chain
        st = relay.store[TABLE]
        assert st.deltas == []
        assert st.head == st.snapshot.lsn


class TestDropStoreHook:
    def test_drop_store_evicts_and_nacks_diverged(self):
        fleet, central, relay = build_tree()
        assert relay.drop_store(TABLE) is True
        st = relay.store[TABLE]
        assert st.snapshot is None and st.deltas == [] and st.head == 0
        assert relay.counters["store_evictions"] == 1
        nacks = [frame_from_bytes(b) for b in relay.pending_upstream()]
        assert any(
            not f.ok and f.reason == "diverged" and f.table == TABLE
            for f in nacks
        )

    def test_drop_store_heals_through_ordinary_path(self):
        fleet, central, relay = build_tree()
        relay.drop_store(TABLE)
        # Write traffic keeps flowing during the fault (as in the chaos
        # storm); the diverged nack escalates the next ship to snapshot.
        central.insert(TABLE, (9050, "a", "b"))
        fleet.settle()
        st = relay.store[TABLE]
        assert st.snapshot is not None
        assert verified_rows(fleet, 0, 5) == 6

    def test_drop_store_nothing_to_drop(self):
        relay = RelayServer("relay-0")
        assert relay.drop_store("nope") is False


class TestPlumbing:
    def test_ctor_and_run_relay_accept_cap(self):
        import inspect

        from repro.edge.relay import run_relay

        relay = RelayServer("relay-0", max_store_bytes=12345)
        assert relay.max_store_bytes == 12345
        assert "max_store_bytes" in inspect.signature(run_relay).parameters

    def test_serve_cli_exposes_cap_flag(self):
        import os
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.edge.serve", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        assert "--max-store-bytes" in proc.stdout
