"""Restart storms over real processes (``-m socket``).

The OS-process face of the chaos battery: seeded SIGKILL/relaunch
storms over edge fleets and relay subtrees, with the PR-5 fd-hygiene
regression extended to repeated restart cycles — a storm that leaks a
descriptor per kill survives the single-restart test and falls over in
production.
"""

import os

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.socket, pytest.mark.timeout(240)]

DB = "chaosdeploydb"
TABLE = "items"


def make_central(rows=80, **kwargs):
    central = CentralServer(DB, rsa_bits=512, seed=61, **kwargs)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=rows, columns=3, seed=3)
    )
    central.create_table(schema, data, fanout_override=6)
    return central


def fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def expected_order(seed, targets, cycles):
    """The schedule ``restart_storm`` promises: a pure function of the
    seed (recomputed here independently)."""
    import random

    rng = random.Random(seed)
    order = []
    for _ in range(cycles):
        shuffled = list(targets)
        rng.shuffle(shuffled)
        order.extend(shuffled)
    return order


class TestEdgeRestartStorm:
    def test_storm_is_seeded_heals_and_leaks_no_fds(self, tmp_path):
        """Three kill/relaunch cycles over two edges: the kill order
        replays from the seed, every post-cycle query is verified,
        the fleet ends at parity, and the process-wide fd count
        returns to its baseline (PR-5 hygiene, now under repetition)."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc (Linux)")
        central = make_central()
        deploy = Deployment(central, log_dir=str(tmp_path / "logs"))
        try:
            client = central.make_client()
            for name in ("edge-0", "edge-1"):
                deploy.launch_edge(name)
                deploy.wait_for_edge(name)
            baseline = fd_count()

            order = deploy.restart_storm(cycles=3, seed=7)
            assert order == expected_order(7, ["edge-0", "edge-1"], 3)

            central.insert(TABLE, (9001, "a", "b"))
            deploy.sync()
            for name in ("edge-0", "edge-1"):
                assert central.staleness(name, TABLE) == 0
                resp = deploy.range_query(name, TABLE, low=9001, high=9001)
                assert len(resp.result.rows) == 1
                assert client.verify(resp).ok

            assert fd_count() <= baseline + 1, (
                f"fd leak under storm: baseline {baseline}, "
                f"now {fd_count()}"
            )
        finally:
            deploy.shutdown()


class TestRelayRestartStorm:
    def test_relay_subtree_storm_zero_unverified_no_fd_leak(self, tmp_path):
        """Two storms over a relay subtree (store cap pinned across
        restarts): between storms the subtree heals to parity, every
        result routed to the caller verifies, and repeated relay
        kills leak no descriptors in the supervising process."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc (Linux)")
        central = make_central()
        rd = Deployment(central, log_dir=str(tmp_path / "logs"))
        try:
            client = central.make_client()
            rd.launch_relay("relay-0", max_store_bytes=200_000)
            rd.wait_for_edge("relay-0")
            rd.launch_edge("edge-0", "relay-0")
            rd.launch_edge("edge-1", "relay-0")
            rd.wait_for_edges("relay-0", ["edge-0", "edge-1"], TABLE)
            launched_with = rd.edges["relay-0"].argv
            assert "200000" == launched_with[
                launched_with.index("--max-store-bytes") + 1
            ]
            baseline = fd_count()

            unverified = 0
            for round_, seed in enumerate((3, 4)):
                order = rd.restart_storm(["relay-0"], cycles=1, seed=seed)
                assert order == ["relay-0"]
                rd.wait_for_edges(
                    "relay-0", ["edge-0", "edge-1"], TABLE, timeout=60.0
                )
                central.insert(TABLE, (9100 + round_, "x", "y"))
                rd.sync()
                assert central.staleness("relay-0", TABLE) == 0
                resp = rd.range_query(
                    "relay-0", TABLE, low=9100, high=9100 + round_
                )
                assert len(resp.result.rows) == round_ + 1
                if not client.verify(resp).ok:
                    unverified += 1
            assert unverified == 0
            # Every restart re-exec'd the argv of the first launch:
            # same store cap, same pinned listen port.
            assert rd.edges["relay-0"].argv == launched_with

            assert fd_count() <= baseline + 1, (
                f"fd leak under relay storm: baseline {baseline}, "
                f"now {fd_count()}"
            )
        finally:
            rd.shutdown()
