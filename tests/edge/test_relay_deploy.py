"""Relay tier over real sockets and processes (``-m socket``).

Two layers of realism:

* :class:`RelayHost` — the relay's actual :func:`run_relay` serve loop
  (upstream dial + downstream listener on one reactor) on a background
  thread, with an :class:`EdgeHost` fleet dialing it over loopback TCP.
* :class:`Deployment` supervising a tree — the full central → k relay
  *processes* → n edge *processes* topology (``launch_relay`` /
  ``launch_edge(name, relay)``), including the acceptance scenario:
  SIGKILL a relay mid-stream, keep writing and querying (verified,
  with failover), restart it, and watch the whole subtree heal via
  snapshot to cursor parity.
"""

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeHost
from repro.edge.relay import RelayHost
from repro.exceptions import RouterError, TransportError
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.socket, pytest.mark.timeout(180)]

DB = "relaydeploydb"
TABLE = "items"


def make_central(rows=120, **kwargs):
    central = CentralServer(DB, rsa_bits=512, seed=61, **kwargs)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=rows, columns=4, seed=3)
    )
    central.create_table(schema, data, fanout_override=6)
    return central


class TestRelayHost:
    def test_relay_serve_loop_end_to_end(self):
        """One relay serve loop between a real central listener and a
        TCP edge fleet: replication settles through the store-and-
        forward hop, and queries through the relay round-robin over
        its edges, verified end to end."""
        central = make_central()
        deploy = Deployment(central)
        host = None
        try:
            with RelayHost("relay-0", upstream=deploy.address) as relay_host:
                address = relay_host.wait_ready()
                host = EdgeHost(*address)
                host.launch_fleet(["edge-0", "edge-1"])
                deploy.wait_for_edge("relay-0")

                for key in range(9001, 9006):
                    central.insert(TABLE, (key, "a", "b", "c"))
                deploy.sync()
                assert central.staleness("relay-0", TABLE) == 0
                # The relay's own fan-out settled its edges too.
                relay = relay_host.relay
                assert relay.store[TABLE].head > 0
                for name in ("edge-0", "edge-1"):
                    assert relay.fanout.staleness(name, TABLE) == 0

                client = central.make_client()
                answered = set()
                for _ in range(4):
                    resp = deploy.range_query(
                        "relay-0", TABLE, low=9001, high=9005
                    )
                    assert len(resp.result.rows) == 5
                    assert client.verify(resp).ok
                    answered.add(resp.edge_name)
                assert answered == {"edge-0", "edge-1"}
        finally:
            if host is not None:
                host.close()
            deploy.shutdown()


class TestRelayTree:
    def test_relay_tree_kill_restart_subtree_heal(self, tmp_path):
        """The acceptance scenario: 1 central × 2 relay processes × 4
        edge processes.  Writes replicate through both relays; queries
        through either relay verify.  SIGKILL relay-0 mid-stream: the
        write path never blocks, the verifying router fails over to
        relay-1, and every answer observed during the outage is
        verified (zero unverified results).  Restart relay-0: it
        re-registers empty, heals via snapshot, its edges re-dial the
        same listen address, and the whole subtree returns to cursor
        parity."""
        central = make_central()
        rd = Deployment(central, log_dir=str(tmp_path / "logs"))
        try:
            for relay in ("relay-0", "relay-1"):
                rd.launch_relay(relay)
            for relay in ("relay-0", "relay-1"):
                rd.wait_for_edge(relay)
            rd.launch_edge("edge-0", "relay-0")
            rd.launch_edge("edge-1", "relay-0")
            rd.launch_edge("edge-2", "relay-1")
            rd.launch_edge("edge-3", "relay-1")
            rd.wait_for_edges("relay-0", ["edge-0", "edge-1"], TABLE)
            rd.wait_for_edges("relay-1", ["edge-2", "edge-3"], TABLE)

            client = central.make_client()
            for key in range(9001, 9006):
                central.insert(TABLE, (key, "a", "b", "c"))
            rd.sync()
            assert central.staleness("relay-0", TABLE) == 0
            assert central.staleness("relay-1", TABLE) == 0
            for relay in ("relay-0", "relay-1"):
                resp = rd.range_query(relay, TABLE, low=9001, high=9005)
                assert len(resp.result.rows) == 5
                assert client.verify(resp).ok

            # --- SIGKILL relay-0: writes keep flowing, queries fail
            # over, and nothing unverified ever reaches the caller.
            verifying = rd.make_router(
                policy="round_robin", failure_threshold=1, cooldown=30.0
            )
            assert set(verifying.edge_names) == {"relay-0", "relay-1"}
            rd.kill_edge("relay-0")
            for key in range(9006, 9011):
                central.insert(TABLE, (key, "x", "y", "z"))
            rd.sync()
            assert central.staleness("relay-1", TABLE) == 0

            unverified = 0
            answers = 0
            for _ in range(6):
                try:
                    resp = verifying.range_query(TABLE, low=9006, high=9010)
                except (RouterError, TransportError):
                    continue  # exhausted mid-cooldown: an error, never
                    # an unverified answer
                answers += 1
                if not resp.verdict.ok:
                    unverified += 1
                assert len(resp.result.rows) == 5
            assert unverified == 0
            assert answers >= 4  # relay-1's subtree carried the outage

            # --- Restart: same listen port, empty store, snapshot
            # heal; the subtree's edges re-dial and settle.
            rd.restart_edge("relay-0")
            rd.wait_for_edge("relay-0")
            rd.wait_for_edges(
                "relay-0", ["edge-0", "edge-1"], TABLE, timeout=60.0
            )
            rd.sync()
            assert central.staleness("relay-0", TABLE) == 0
            resp = rd.range_query("relay-0", TABLE, low=9001, high=9010)
            assert len(resp.result.rows) == 10
            assert client.verify(resp).ok
        finally:
            rd.shutdown()
