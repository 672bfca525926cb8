"""Verified routing over a real multi-process deployment (``-m socket``).

The router's acceptance scenario on real sockets: two edge OS
processes, a verified workload routed across them, SIGKILL of the
currently preferred edge mid-workload with **zero failed queries**
(failover absorbs the crash), and recovery — the killed edge rejoins
the rotation after it restarts, re-registers, and its cooldown lapses.

Also pins the metering invariant the router benches rely on: query
traffic is metered identically over an in-process link and a TCP link
(same frame bytes on the same channel kinds).
"""

import time

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.link import InProcessTransport
from repro.edge.transport import range_query_frame
from repro.workloads.generator import TableSpec, generate_table
from repro.workloads.queries import QueryWorkload

pytestmark = [pytest.mark.socket, pytest.mark.timeout(120)]

DB = "routerdeploydb"

SPEC = TableSpec(name="items", rows=120, columns=4, seed=3)


def make_central(**kwargs):
    server = CentralServer(db_name=DB, rsa_bits=512, seed=61, **kwargs)
    schema, data = generate_table(SPEC)
    server.create_table(schema, data, fanout_override=6)
    return server


@pytest.fixture
def deployment(tmp_path):
    central = make_central()
    deploy = Deployment(central, log_dir=str(tmp_path / "edge-logs"))
    yield central, deploy
    deploy.shutdown()


class TestRouterOverSockets:
    def test_kill_preferred_edge_mid_workload_zero_failed_queries(
        self, deployment
    ):
        central, deploy = deployment
        deploy.launch_edge("edge-0")
        deploy.launch_edge("edge-1")
        deploy.wait_for_edge("edge-0")
        deploy.wait_for_edge("edge-1")
        verifying = deploy.make_router(
            policy="round_robin", failure_threshold=1, cooldown=1.0
        )
        workload = QueryWorkload(spec=SPEC, selectivity=0.2, seed=11)
        frames = list(workload.request_frames(60))

        # Phase 1: both edges serve.
        for frame in frames[:20]:
            assert verifying.query(frame).verdict.ok
        served = {s.name for s in verifying.stats().values() if s.served}
        assert served == {"edge-0", "edge-1"}

        # Phase 2: SIGKILL the edge the router would pick next; the
        # workload continues without a single failed query.
        preferred = verifying.router.select(frames[20])
        deploy.kill_edge(preferred)
        survivor = ({"edge-0", "edge-1"} - {preferred}).pop()
        for frame in frames[20:40]:
            resp = verifying.query(frame)
            assert resp.verdict.ok
            assert resp.edge == survivor
        assert verifying.router.failed_queries == 0
        assert verifying.accepts == 40
        assert verifying.router.edge_stats(preferred).failures >= 1

        # Phase 3: restart; the edge re-registers, heals via snapshot,
        # and — once its cooldown lapses — rejoins the rotation.
        deploy.restart_edge(preferred)
        deploy.wait_for_edge(preferred)
        assert central.staleness(preferred, "items") == 0
        time.sleep(1.1)  # let the router cooldown expire
        recovered = set()
        for frame in frames[40:]:
            resp = verifying.query(frame)
            assert resp.verdict.ok
            recovered.add(resp.edge)
        assert preferred in recovered, "restarted edge never rejoined"
        assert verifying.router.failed_queries == 0
        assert verifying.accepts == 60
        assert not any(s.quarantined for s in verifying.stats().values())

        # Writes made after the crash are queryable — and verified —
        # through the recovered fabric.
        central.insert("items", (9001, "a", "b", "c"))
        deploy.sync()
        resp = verifying.range_query("items", low=9001, high=9001)
        assert resp.verdict.ok and len(resp.result.rows) == 1

    def test_query_byte_metering_parity_inprocess_vs_tcp(self, deployment):
        """The same query frame must meter the same bytes on the same
        channel kinds whichever medium carries it (Transport ABC
        metering) — the invariant that makes in-process router benches
        transferable to TCP deployments."""
        central, deploy = deployment
        deploy.launch_edge("edge-0")
        deploy.wait_for_edge("edge-0")
        # Same-length name so the response frame's edge field (the one
        # legitimately differing byte run) has identical wire size.
        local = central.spawn_edge_server("edge-9")
        link = InProcessTransport("edge-9-query")
        link.connect(local.handle_frame)

        frame = range_query_frame("items", low=10, high=50)
        tcp = deploy.edges["edge-0"].transport
        tcp_down0 = tcp.down_channel.bytes_by_kind().get("query", 0)
        tcp_up0 = tcp.up_channel.bytes_by_kind().get("payload", 0)
        tcp_reply = tcp.request(frame)
        local_reply = link.request(frame)

        tcp_down = tcp.down_channel.bytes_by_kind()["query"] - tcp_down0
        tcp_up = tcp.up_channel.bytes_by_kind()["payload"] - tcp_up0
        assert tcp_down == link.down_channel.bytes_by_kind()["query"]
        assert tcp_up == link.up_channel.bytes_by_kind()["payload"]
        # Same replica state ⇒ byte-identical payload and cursor echo.
        assert tcp_reply.payload == local_reply.payload
        assert (tcp_reply.lsn, tcp_reply.epoch) == (
            local_reply.lsn,
            local_reply.epoch,
        )
