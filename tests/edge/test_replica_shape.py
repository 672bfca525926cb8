"""A replica's tree shape stays checkable (DESIGN.md §31).

A snapshot's tree header — geometry, both capacities, the node-id
counter — is not signed.  An edge checks it twice: at install, where
the restore accepts only what some ``VBTree`` constructor could give
(so an impossible pair such as ``(2, 1)`` is nacked ``error``), and on
every delta, where the replay must free and create exactly the nodes
the delta names (so a valid but wrong pair such as ``(100, 100)`` is
nacked ``diverged`` on the first structural delta).  Either way the
central heals the edge with an honest snapshot.
"""

import struct

import pytest

from repro.edge.central import CentralServer
from repro.edge.link import FaultInjector
from repro.edge.transport import (
    AckFrame,
    SnapshotFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.workloads.generator import TableSpec, generate_table

from tests.core.conftest import snapshot_node_count_offset


def _edited_edge(capacities):
    """A central with 40 rows at fan-out 4 and one edge whose first
    snapshot has its capacity fields set to ``capacities`` in transit.

    Returns the central, the edge and the log of the edge's nacks as
    ``(cursor, reason)`` — an accepted frame is acknowledged by a
    cumulative cursor ack instead."""
    central = CentralServer(db_name="shapedb", rsa_bits=512, seed=3)
    schema, rows = generate_table(TableSpec(name="t", rows=40, columns=4, seed=3))
    central.create_table(schema, rows, fanout_override=4)
    faults = FaultInjector(hold=True)
    edge = central.spawn_edge_server("e", faults=faults)
    tree = central.vbtrees["t"].tree
    nacks = []
    edited = []

    def handler(data, inner=edge.handle_frame):
        frame = frame_from_bytes(data)
        if isinstance(frame, SnapshotFrame) and not edited:
            payload = frame.payload
            # max children | leaf capacity | next node id | node count
            at = snapshot_node_count_offset(payload, tree) - 12
            payload = payload[:at] + struct.pack(">II", *capacities) + payload[at + 8 :]
            data = frame_to_bytes(
                SnapshotFrame(frame.table, frame.lsn, frame.epoch, payload)
            )
            edited.append(frame)
        replies = inner(data)
        for reply in replies:
            ack = frame_from_bytes(reply)
            if isinstance(ack, AckFrame) and not ack.ok:
                nacks.append((ack.lsn, ack.reason))
        return replies

    edge.handle_frame = handler
    faults.clear()
    central.propagate()
    assert edited
    return central, edge, nacks


def _assert_healed(central, edge):
    """At parity, the central's shape, and every answer verifies."""
    replica, master = edge.replica("t"), central.vbtrees["t"]
    assert central.fanout.settled()
    assert edge.replica_lsns["t"] == central.log_head("t")
    assert (replica.tree.max_children, replica.tree.leaf_capacity) == (4, 4)
    assert list(replica.tree.items()) == list(master.tree.items())
    assert replica._node_auth == master._node_auth
    client = central.make_client()
    for row in master.rows():
        response = edge.range_query("t", low=row.key, high=row.key)
        assert response.result.keys == [row.key]
        assert client.verify(response).ok


def test_impossible_capacities_are_nacked_at_install():
    """``(2, 1)`` is a pair no ``BPlusTree`` has: the install is nacked
    ``error`` and the heal installs the honest snapshot."""
    central, edge, nacks = _edited_edge((2, 1))
    assert nacks == [(0, "error")]
    for key in range(1000, 1031):
        central.insert("t", (key, "a", "b", "c"))
        central.propagate()
    assert nacks == [(0, "error")]
    _assert_healed(central, edge)


def test_wrong_but_valid_capacities_are_nacked_on_the_first_structural_delta():
    """``(100, 100)`` is a pair some constructor gives, so it installs;
    the first insert that splits a node at the central replays without
    a split on the edge, and the edge nacks ``diverged``."""
    central, edge, nacks = _edited_edge((100, 100))
    assert nacks == []
    assert edge.replica("t").tree.leaf_capacity == 100
    master = central.vbtrees["t"].tree
    structural_lsn = None
    for key in range(1000, 1031):
        before = master.next_node_id
        central.insert("t", (key, "a", "b", "c"))
        central.propagate()
        if structural_lsn is None and master.next_node_id != before:
            structural_lsn = central.log_head("t")
    assert structural_lsn is not None
    assert nacks == [(structural_lsn - 1, "diverged")]
    _assert_healed(central, edge)


@pytest.mark.parametrize("capacities", [(3, 4), (0, 0), (5, 2)])
def test_other_impossible_pairs_are_refused(capacities):
    central, edge, nacks = _edited_edge(capacities)
    assert nacks == [(0, "error")]
    _assert_healed(central, edge)
