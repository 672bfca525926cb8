"""Settle by evidence (DESIGN.md §33): a wait-drain gives up on a socket
peer after its link's own reply deadline passes with no evidence from
it, and a sync that finds a peer silent says so by name instead of
returning as if the fleet were current.

Both tests run real loopback TCP behind an
:class:`~repro.edge.event_loop.EdgeHost`, so they carry the
``event_loop`` marker (tier-1 runs them).
"""

import time

import pytest

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeHost
from repro.exceptions import TransportError
from repro.workloads.generator import TableSpec, generate_table

pytestmark = [pytest.mark.event_loop, pytest.mark.timeout(120)]

TABLE = "t"


def make_central(rows):
    central = CentralServer(db_name="evidencedb", rsa_bits=512, seed=61)
    schema, data = generate_table(TableSpec(name=TABLE, rows=rows, columns=3, seed=4))
    central.create_table(schema, data)
    return central


def test_a_peer_that_never_answers_is_named_not_settled():
    """An edge that joined but whose loop never started reads its
    frames into the kernel and answers nothing.  ``wait_for_edge``
    used to return after a fleet-wide 5 s deadline with the peer
    reading current, and the first query then timed out; now the sync
    gives up after the link's 1 s reply deadline and raises, naming
    the peer and its lag.  Once the loop runs, the next sync settles
    and the replica answers verified queries."""
    central = make_central(rows=60)
    with Deployment(central, io_timeout=1.0) as deploy, \
            EdgeHost(*deploy.address) as host:
        host.launch("e")
        started = time.monotonic()
        with pytest.raises(TransportError) as raised:
            deploy.wait_for_edge("e")
        assert time.monotonic() - started < 5.0
        lag = central.staleness("e", TABLE)
        assert lag > 0
        assert "'e'" in str(raised.value) and f"'{TABLE}': {lag}" in str(raised.value)
        assert central.fanout.stats()["e"]["silent"]
        assert not central.fanout.settled()
        assert deploy.edges["e"].connected  # silence is weather

        host.start()
        deploy.sync()
        assert not central.fanout.stats()["e"]["silent"]
        assert central.fanout.settled() and central.staleness("e", TABLE) == 0
        response = deploy.range_query("e", TABLE, low=5, high=25)
        assert central.make_client().verify(response).ok
        assert response.result.rows


def test_concurrent_installs_each_get_one_snapshot():
    """Eight edges join before any sync; one ``sync`` installs every
    replica with exactly one snapshot transfer per edge, and the fleet
    is settled when it returns."""
    central = make_central(rows=300)
    names = [f"e{i}" for i in range(8)]
    with Deployment(central) as deploy, EdgeHost(*deploy.address) as host:
        host.launch_fleet(names)
        for name in names:
            deploy.wait_for_edge(name, sync=False)
        deploy.sync()
        assert central.fanout.settled()
        for name in names:
            assert TABLE in host.edges[name].replicas, name
            kinds = [t.kind for t in deploy.edges[name].transport.down_channel.transfers]
            assert kinds.count("snapshot") == 1, name
            assert central.staleness(name, TABLE) == 0, name
