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

import pytest

from repro.core.wire import result_from_bytes
from repro.edge.central import CentralServer
from repro.edge.edge_server import EdgeServer
from repro.edge.relay import RelayServer
from repro.edge.link import InProcessTransport
from repro.edge.transport import (
    config_from_frame,
    frame_from_bytes,
    frame_to_bytes,
    range_query_frame,
)
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


def attach_relay(central, name="relay-0", **kwargs):
    relay = RelayServer(name, **kwargs)
    up = InProcessTransport(name)
    up.connect(relay.handle_frame)
    cfg = central.config_frame()
    relay.adopt_config(cfg)
    sent_epoch = max((record[0] for record in cfg.epochs), default=-1)
    central.attach_remote_edge(name, up, config_epoch=sent_epoch)
    return relay, up


def attach_edge(relay, name):
    edge = EdgeServer(
        name=name, config=config_from_frame(relay.config_frame())
    )
    down = InProcessTransport(name)
    down.connect(edge.handle_frame)
    relay.attach_edge(name, down)
    return edge, down


def tree_sync(central, relay, edges, rounds=20):
    relay_peer = central.fanout.peer(relay.name)
    for _ in range(rounds):
        central.propagate()
        central.fanout.drain(wait=True)
        relay.fanout.pump()
        relay.fanout.drain(wait=True)
        frames = [frame_from_bytes(b) for b in relay.pending_upstream()]
        if frames:
            central.fanout._process_replies(relay_peer, frames)
        settled = all(
            central.fanout.staleness(relay.name, t) == 0
            for t in central.vbtrees
        ) and all(
            relay.fanout.staleness(name, t) == 0
            for name in edges
            for t in central.vbtrees
        )
        if settled:
            return True
    return False


def build_tree(rows=40, edge_names=("edge-0", "edge-1"), **relay_kwargs):
    central = make_central(rows=rows)
    relay, up = attach_relay(central, **relay_kwargs)
    edges = {n: attach_edge(relay, n)[0] for n in edge_names}
    assert tree_sync(central, relay, edges)
    return central, relay, up, edges


class TestRetainedBytes:
    def test_accounts_snapshot_plus_chain(self):
        central, relay, up, edges = build_tree()
        st = relay.store[TABLE]
        assert st.snapshot is not None
        expected = len(st.snapshot.payload) + sum(
            len(d.payload) for d in st.deltas
        )
        assert st.retained_bytes() == expected

    def test_grows_with_deltas(self):
        central, relay, up, edges = build_tree()
        st = relay.store[TABLE]
        before = st.retained_bytes()
        central.insert(TABLE, (9001, "a", "b"))
        assert tree_sync(central, relay, edges)
        assert len(st.deltas) >= 1
        assert st.retained_bytes() > before


class TestByteCapEviction:
    def test_over_cap_evicts_and_heals_by_snapshot(self):
        """Chain growth past the cap → deterministic eviction →
        ``diverged`` nack → upstream ships a fresh snapshot at head —
        the store ends compact and queries still verify."""
        central, relay, up, edges = build_tree()
        snapshot_bytes = len(relay.store[TABLE].snapshot.payload)
        # Cap just above the current snapshot: the next delta trips it.
        relay.max_store_bytes = snapshot_bytes + 100
        for key in range(9001, 9011):
            central.insert(TABLE, (key, "a", "b"))
        assert tree_sync(central, relay, edges)
        assert relay.counters["store_evictions"] >= 1
        st = relay.store[TABLE]
        # Healed: fresh snapshot at the head, chain empty (compact).
        assert st.snapshot is not None
        assert st.deltas == []
        assert st.head == st.snapshot.lsn
        client = central.make_client()
        reply = up.request(range_query_frame(TABLE, 9001, 9010, None, None))
        result = result_from_bytes(reply.payload)
        assert client.verify(result).ok
        assert len(result.rows) == 10

    def test_snapshot_alone_never_evicted(self):
        """A cap below one snapshot must not livelock the heal path:
        the snapshot is the minimal heal unit and always stays."""
        central, relay, up, edges = build_tree()
        relay.max_store_bytes = 10  # absurd: under any snapshot
        central.insert(TABLE, (9001, "a", "b"))
        assert tree_sync(central, relay, edges)
        st = relay.store[TABLE]
        assert st.snapshot is not None  # healed, not wedged
        assert st.deltas == []  # but no chain is ever retained
        assert st.retained_bytes() >= len(st.snapshot.payload)

    def test_unbounded_by_default(self):
        central, relay, up, edges = build_tree()
        for key in range(9001, 9011):
            central.insert(TABLE, (key, "a", "b"))
            assert tree_sync(central, relay, edges)
        assert relay.counters["store_evictions"] == 0
        assert len(relay.store[TABLE].deltas) >= 10


class TestCompaction:
    def test_rotation_snapshot_compacts_covered_chain(self):
        """A snapshot whose LSN covers stored deltas drops them, and
        the drop is counted — the chain never holds frames a snapshot
        already subsumes."""
        central, relay, up, edges = build_tree()
        for key in range(9001, 9004):
            central.insert(TABLE, (key, "a", "b"))
        assert tree_sync(central, relay, edges)
        chain = len(relay.store[TABLE].deltas)
        assert chain >= 1

        central.rotate_key()
        cfg = central.config_frame()
        relay.handle_frame(frame_to_bytes(cfg))
        assert tree_sync(central, relay, edges)
        assert relay.counters["compacted_frames"] >= chain
        st = relay.store[TABLE]
        assert st.deltas == []
        assert st.head == st.snapshot.lsn


class TestDropStoreHook:
    def test_drop_store_evicts_and_nacks_diverged(self):
        central, relay, up, edges = build_tree()
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
        central, relay, up, edges = build_tree()
        relay.drop_store(TABLE)
        # Write traffic keeps flowing during the fault (as in the chaos
        # storm); the diverged nack escalates the next ship to snapshot.
        central.insert(TABLE, (9050, "a", "b"))
        assert tree_sync(central, relay, edges)
        st = relay.store[TABLE]
        assert st.snapshot is not None
        client = central.make_client()
        reply = up.request(range_query_frame(TABLE, 0, 5, None, None))
        assert client.verify(result_from_bytes(reply.payload)).ok

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
