"""One way to ask: every query surface takes a frame and gives the same
answer.

A query is one :class:`~repro.edge.transport.QueryRequestFrame`, made
by one of the three builders in :mod:`repro.edge.transport`.
``EdgeServer.query``, ``VerifyingRouter.query``,
``ScatterGatherRouter.query`` and ``Deployment.query`` all take it; for
the same frame they must return byte-identical result payloads, and
every answer must verify.
"""

import pytest

from repro.core.wire import result_to_bytes
from repro.db.expressions import Comparison, Or
from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeHost
from repro.edge.router import ScatterGatherRouter, in_process_query_channel
from repro.edge.sharding import ShardedCentral, ShardMap
from repro.edge.transport import (
    range_query_frame,
    secondary_query_frame,
    select_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table

TABLE = "t"
SPEC = TableSpec(name=TABLE, rows=60, columns=3, seed=9)

#: One frame of each kind: a key range, an attribute range answered by
#: the index on ``a1``, and a gappy non-key selection.
FRAMES = {
    "range": range_query_frame(TABLE, 7, 31),
    "secondary": secondary_query_frame(TABLE, "a1", "b", "p", columns=("id", "a1")),
    "select": select_query_frame(
        TABLE, Or(Comparison("id", "<", 5), Comparison("a2", ">=", "s"))
    ),
}
KINDS = sorted(FRAMES)


def make_central():
    central = CentralServer(db_name="askdb", rsa_bits=512, seed=37)
    schema, rows = generate_table(SPEC)
    central.create_table(schema, rows, fanout_override=5)
    central.create_secondary_index(TABLE, "a1", fanout_override=5)
    return central


@pytest.fixture(scope="module")
def fabric():
    central = make_central()
    edge = central.spawn_edge_server("e0")
    return central, edge


def payload(central, response):
    return result_to_bytes(response.result, central.public_key.signature_len)


@pytest.mark.parametrize("kind", KINDS)
def test_in_process_surfaces_answer_alike(fabric, kind):
    central, edge = fabric
    frame = FRAMES[kind]
    client = central.make_client()
    direct = edge.query(frame)
    assert client.verify(direct).ok and direct.result.rows
    expected = payload(central, direct)

    router = central.make_router(channels=[in_process_query_channel(edge)])
    routed = router.query(frame)
    assert routed.verdict.ok and payload(central, routed) == expected

    shard_map = ShardMap(1)
    shard_map.place_table(TABLE, 0)
    scattered = ScatterGatherRouter(shard_map, {0: router}).query(frame)
    (part,) = scattered.parts
    assert scattered.verified and payload(central, part) == expected
    assert scattered.keys == direct.result.keys
    assert scattered.rows == direct.result.rows


@pytest.mark.event_loop
@pytest.mark.timeout(120)
def test_tcp_surfaces_answer_like_the_edge():
    central = make_central()
    reference = central.spawn_edge_server("reference")
    client = central.make_client()
    with Deployment(central) as deploy, EdgeHost(*deploy.address) as host:
        host.start()
        host.launch("tcp-edge")
        deploy.wait_for_edge("tcp-edge")
        router = deploy.make_router(names=["tcp-edge"])
        for kind in KINDS:
            frame = FRAMES[kind]
            expected = payload(central, reference.query(frame))
            answer = deploy.query("tcp-edge", frame)
            assert client.verify(answer).ok, kind
            assert payload(central, answer) == expected, kind
            routed = router.query(frame)
            assert routed.verdict.ok and routed.edge == "tcp-edge", kind
            assert payload(central, routed) == expected, kind


@pytest.fixture(scope="module")
def three_shards():
    """The table range-partitioned over three signer shards, one edge
    each, beside the same rows unsharded."""
    sharded = ShardedCentral("askdb", shards=3, seed=37, rsa_bits=512)
    schema, rows = generate_table(SPEC)
    sharded.create_table(schema, rows, partition="range", fanout_override=5)
    sharded.create_secondary_index(TABLE, "a1")
    sharded.spawn_edge_fleet(per_shard=1)
    unsharded = make_central()
    unsharded.spawn_edge_server("whole")
    return sharded, unsharded


@pytest.mark.parametrize("kind", KINDS)
def test_three_shards_answer_like_one_table(three_shards, kind):
    """Range and select slices arrive in key order, so the merge reads
    exactly like the unsharded answer; a secondary slice is in its own
    shard's attribute order, so it matches as a set."""
    sharded, unsharded = three_shards
    frame = FRAMES[kind]
    whole = unsharded.make_router().query(frame)
    router = sharded.make_router()
    merged = router.query(frame)
    assert merged.verified
    if kind == "secondary":
        assert sorted(zip(merged.keys, merged.rows, strict=True)) == sorted(
            zip(whole.result.keys, whole.result.rows, strict=True)
        )
    else:
        assert merged.keys == whole.result.keys
        assert merged.rows == whole.result.rows
    assert router.queries == 1 and router.scattered_queries == 1


def test_a_range_contacts_only_the_shards_it_overlaps(three_shards):
    sharded, _unsharded = three_shards
    bounds = sharded.shard_map.placement(TABLE).boundaries
    router = sharded.make_router()
    inside = router.query(range_query_frame(TABLE, bounds[0], bounds[0] + 3))
    assert inside.shards == (1,) and router.scattered_queries == 0
    across = router.query(range_query_frame(TABLE, bounds[0] - 2, bounds[0] + 3))
    assert across.shards == (0, 1) and router.scattered_queries == 1
    assert across.keys == list(range(bounds[0] - 2, bounds[0] + 4))
    assert [part.result.keys[0] for part in across.parts] == [
        bounds[0] - 2, bounds[0],
    ]
