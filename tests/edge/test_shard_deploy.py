"""Sharded deployment over real sockets (``-m socket``).

The multi-process face of the sharded plane: one TCP listener per
signer shard sharing a single reactor, edge OS processes registering
per shard, a scattered range query gathered over TCP and verified
against per-shard keys — and the handshake ``ConfigFrame`` observed on
the wire carrying the versioned shard map, so any one shard teaches a
joining peer the whole placement.
"""

import socket

import pytest

from repro.edge.deploy import ShardedDeployment
from repro.edge.sharding import ShardMap, ShardedCentral
from repro.edge.socket_transport import recv_frame, send_frame
from repro.edge.transport import (
    ConfigFrame,
    HelloFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.socket, pytest.mark.timeout(120)]

DB = "sharddeploydb"
SHARDS = 2
EDGES_PER_SHARD = 2
SPEC = TableSpec(name="items", rows=64, columns=4, seed=13)


@pytest.fixture
def plane(tmp_path):
    central = ShardedCentral(DB, shards=SHARDS, seed=51, rsa_bits=512)
    schema, rows = generate_table(SPEC)
    central.create_table(schema, rows, partition="range", fanout_override=6)
    deploy = ShardedDeployment(central, log_dir=str(tmp_path / "edge-logs"))
    yield central, deploy
    deploy.shutdown()


class TestShardedDeployment:
    def test_scattered_tcp_query_verified_across_shards(self, plane):
        central, deploy = plane
        for shard_id in range(SHARDS):
            for i in range(EDGES_PER_SHARD):
                deploy.launch_edge(shard_id, f"edge-s{shard_id}-{i}")
        for shard_id in range(SHARDS):
            for i in range(EDGES_PER_SHARD):
                deploy.wait_for_edge(shard_id, f"edge-s{shard_id}-{i}")

        for key in (1001, 1002, 1003):
            central.insert("items", (key, "x", "y", "z"))
        deploy.sync()

        router = deploy.make_router()
        merged = router.range_query("items", low=5, high=1002)
        assert merged.verified
        assert len(merged.parts) == SHARDS
        assert merged.keys == [*range(5, 64), 1001, 1002]
        # Each sub-result verified against its own shard's keys, served
        # by an edge of that shard.
        for shard_id, part in zip(merged.shards, merged.parts, strict=True):
            assert part.edge.startswith(f"edge-s{shard_id}-")

        snap = router.snapshot()
        assert snap["scattered_queries"] == 1
        assert set(snap["shards"]) == set(range(SHARDS))

    def test_handshake_config_frame_carries_shard_map(self, plane):
        central, deploy = plane
        restored_maps = []
        for shard_id in range(SHARDS):
            with socket.create_connection(
                deploy.address(shard_id), timeout=10
            ) as conn:
                send_frame(
                    conn, frame_to_bytes(HelloFrame(edge=f"probe-{shard_id}"))
                )
                data = recv_frame(conn)
            assert data is not None
            config = frame_from_bytes(data)
            assert isinstance(config, ConfigFrame)
            assert config.shard_id == shard_id
            assert config.shard_map is not None
            restored_maps.append(ShardMap.from_wire(config.shard_map))
        # Any one shard teaches the whole placement: the maps agree
        # with the plane and with each other.
        for restored in restored_maps:
            assert restored.version == central.shard_map.version
            for key in (0, 31, 32, 63, 10**6):
                assert restored.shard_for("items", key) == (
                    central.shard_map.shard_for("items", key)
                )
        # Per-shard authenticity: the two shards advertise different
        # public keys in their handshake bundles.
        assert (
            central.shard(0).client_config().keyring.export_records()
            != central.shard(1).client_config().keyring.export_records()
        )


class TestAllOrNothingConstruction:
    def test_failed_shard_listener_unwinds_the_whole_plane(self, monkeypatch):
        """Shard k's listener failing to bind must not strand shards
        0..k-1: their listeners and accept threads are shut down, the
        shared reactor is closed, and no shard's fan-out engine is
        left pointing at it."""
        import gc
        import os

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc (Linux)")

        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        central = ShardedCentral(DB, shards=SHARDS, seed=51, rsa_bits=512)
        schema, rows = generate_table(SPEC)
        central.create_table(schema, rows, partition="range", fanout_override=6)

        real_bind = socket.socket.bind
        binds = []

        def bind_until_last_shard(sock, address):
            binds.append(address)
            if len(binds) == SHARDS:
                raise OSError("address already in use (injected)")
            return real_bind(sock, address)

        gc.collect()
        baseline = fd_count()
        monkeypatch.setattr(socket.socket, "bind", bind_until_last_shard)
        with pytest.raises(OSError, match="injected"):
            ShardedDeployment(central)
        monkeypatch.undo()
        gc.collect()
        assert len(binds) == SHARDS  # shard 0 really was listening
        assert all(shard.fanout.reactor is None for shard in central.shards)
        assert fd_count() == baseline
