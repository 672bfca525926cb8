"""``Fleet.kill`` (``repro.edge.fleet``, DESIGN.md §22): one meaning,
the faithful one — the node's state dies with it, a fresh one re-joins
under the same name, and whatever outlives it keeps what it had.  The
hand-wired harnesses this replaced got both halves wrong somewhere.
"""

from repro.edge.central import CentralServer
from repro.edge.fleet import Fleet
from repro.workloads.generator import TableSpec, generate_table

TABLE = "items"


def make_central():
    central = CentralServer("fleetdb", seed=7, rsa_bits=512)
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=40, columns=3, seed=5)
    )
    central.create_table(schema, data, fanout_override=6)
    return central


def test_reborn_edge_replaces_the_corpse_in_the_central_listing():
    """``central.edges`` used to keep the dead object (the chaos fleet
    re-attached the engine's peer but not the listing), so the default
    ``make_router()`` routed to a replica frozen at the kill: a
    verified answer of 0 rows for keys written after it."""
    central = make_central()
    fleet = Fleet(central, edges=("edge-0", "edge-1"))
    corpse = fleet.edges["edge-0"]
    fleet.kill("edge-0")
    for key in (9001, 9002, 9003):
        central.insert(TABLE, (key, "a", "b"))
    fleet.settle()

    reborn = fleet.edges["edge-0"]
    assert reborn is not corpse
    assert central.edges == [fleet.edges["edge-1"], reborn]
    router = central.make_router()
    answers = [router.range_query(TABLE, low=9001, high=9003) for _ in range(2)]
    assert {a.edge for a in answers} == {"edge-0", "edge-1"}
    assert all(len(a.result.rows) == 3 for a in answers)


def test_killed_relay_heals_its_subtree_by_snapshot():
    """The store dies with the relay; the edges outlive it, re-join the
    replacement with their resume cursors — which its empty store
    cannot extend — and are healed by snapshot, every forwarded query
    verified."""
    central = make_central()
    fleet = Fleet(central, relays={"relay-0": ("edge-0", "edge-1")})
    for key in range(9001, 9006):
        central.insert(TABLE, (key, "a", "b"))
    fleet.settle()
    old, edges = fleet.relays["relay-0"], dict(fleet.edges)
    assert old.store[TABLE].snapshot is not None

    fleet.kill("relay-0")
    reborn = fleet.relays["relay-0"]
    assert reborn is not old and reborn.store == {}
    assert fleet.edges == edges  # same objects, replicas intact
    assert all(e.replica_lsns[TABLE] > 0 for e in edges.values())
    for key in range(9006, 9011):
        central.insert(TABLE, (key, "a", "b"))
    fleet.settle()

    for name in edges:  # the fresh links carried a snapshot each
        assert fleet.link(name).down_channel.bytes_by_kind()["snapshot"] > 0
    for _ in range(4):
        resp = fleet.router.range_query(TABLE, low=9001, high=9010)
        assert resp.verdict.ok and len(resp.result.rows) == 10
