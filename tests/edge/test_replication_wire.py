"""What the replication wire carries and what a replica holds
(DESIGN.md §6.1 and §18): signed digests only, one payload format, and
every malformed or foreign-format payload refused with the replica
untouched."""

import struct

import pytest

from repro.core.delta import delta_digest
from repro.core.query_auth import QueryAuthenticator
from repro.core.vo import VOFormat
from repro.core.wire import (
    authenticate_delta,
    delta_from_bytes,
    result_from_bytes,
    result_to_bytes,
    snapshot_from_bytes,
)
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.edge import telemetry
from repro.edge.adversary import DropTuple, SpuriousTuple, ValueTamper
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.transport import (
    DeltaFrame,
    SnapshotFrame,
    frame_from_bytes,
    frame_to_bytes,
)
from repro.exceptions import DeltaTamperError, EncodingError, VOFormatError
from repro.workloads.generator import TableSpec, generate_table

from tests.core.conftest import snapshot_node_count_offset
from tests.edge.parent_format_fixtures import (
    ELEVEN_SIGNATURE_INSERT_DELTA_HEX,
    ELEVEN_SIGNATURE_RECIPE,
    ELEVEN_SIGNATURE_SNAPSHOT_HEX,
    PARENT_INSERT_DELTA_HEX,
    PARENT_RECIPE,
    PARENT_SNAPSHOT_HEX,
    SIGNED_DP_FLAT_RESULT_HEX,
    SIGNED_DP_STRUCTURED_RESULT_HEX,
    TWO_SIGNATURE_INSERT_DELTA_HEX,
    TWO_SIGNATURE_SNAPSHOT_HEX,
)


def _replica_state(edge, table):
    vbt = edge.replica(table)
    return (
        vbt,
        vbt.version,
        edge.replica_lsns[table],
        edge.replica_versions[table],
        edge.replica_epochs[table],
        list(vbt.tree.items()),
        dict(vbt._tuple_auth),
        dict(vbt._node_auth),
    )


def _nack(edge, frame):
    (reply,) = edge.handle_frame(frame_to_bytes(frame))
    ack = frame_from_bytes(reply)
    assert not ack.ok
    return ack


# ----------------------------------------------------------------------
# A replica holds exactly what it serves
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet():
    """Bootstrap, single-op deltas (insert, delete), then one coalesced
    lazy batch of 32 appends + 2 deletes — over a primary tree and a
    composite-key secondary index, on two edges."""
    server = CentralServer(db_name="dietdb", rsa_bits=512, seed=41)
    schema, rows = generate_table(
        TableSpec(name="items", rows=40, columns=10, attr_size=20, key_step=4, seed=5)
    )
    # Fan-out 5 over 40 rows: a three-node path, as in the 2000-row
    # e2e recipe at the default geometry.
    server.create_table(schema, rows, fanout_override=5)
    server.create_secondary_index("items", "a1", fanout_override=4)
    edges = [server.spawn_edge_server(f"e{i}") for i in range(2)]

    def values(key):
        return (key, *(f"{key:04d}-{c:02d}-".ljust(20, "x") for c in range(1, 10)))

    server.insert("items", values(1001))  # eager: one op, one delta
    insert_bytes = server.replicator.log_for("items").entries_since(0)[-1].nbytes
    server.delete("items", 8)
    server.replication = ReplicationMode.LAZY
    for key in range(5001, 5033):
        server.insert("items", values(key))
    server.delete("items", 5001)
    server.delete("items", 5002)
    server.propagate()
    for edge in edges:
        for table in server.vbtrees:
            assert server.staleness(edge.name, table) == 0
    return server, edges, insert_bytes


def test_single_insert_delta_size_is_pinned(fleet):
    """10 columns × 20 B, a three-node path, table ``items``: the e2e
    recipe's insert delta, to the byte — 1 858 B before the diet,
    1 488 B while each of the three path nodes shipped two signatures,
    1 290 B while the tuple shipped its attribute count and ten
    attribute signatures behind its own."""
    _server, _edges, insert_bytes = fleet
    assert insert_bytes == 1488 - 3 * 66 - (4 + 10 * 66) == 626


def test_replica_holds_signed_digests_only(fleet):
    server, edges, _ = fleet
    for edge in edges:
        assert sorted(edge.replicas) == sorted(server.vbtrees)
        for table, central_tree in server.vbtrees.items():
            replica = edge.replica(table)
            assert not replica._tuple_values and not replica._node_values
            assert len(replica._tuple_auth) == len(replica) == len(central_tree)
            # One signed digest per tuple — nothing per attribute ...
            assert all(
                type(signed) is SignedDigest
                for signed in replica._tuple_auth.values()
            )
            # ... one per node, and nothing beside either.
            assert len(replica._node_auth) == replica.tree.node_count()
            assert all(
                type(signed) is SignedDigest
                for signed in replica._node_auth.values()
            )
            # Every signature a VO can ship arrived bit for bit.
            assert replica._tuple_auth == central_tree._tuple_auth
            assert replica._node_auth == central_tree._node_auth
            replica.audit()


def test_signatures_on_the_fabric_are_counted_in_tuples_and_nodes(monkeypatch):
    """One signature per tuple and per node, wherever the fabric signs
    (DESIGN.md §21): a secondary-indexed insert signs ``1 + H`` per tree
    (plus each tree's delta seal), a delete signs no tuple, and a key
    rotation re-signs ``rows + nodes`` per tree and nothing per
    attribute."""
    from repro.crypto.signatures import DigestSigner

    signs = []
    sign = DigestSigner.sign
    monkeypatch.setattr(
        DigestSigner, "sign", lambda self, value: signs.append(value) or sign(self, value)
    )

    def count(operation, *args, **kwargs):
        del signs[:]
        operation(*args, **kwargs)
        return len(signs)

    server = CentralServer(db_name="dietdb", rsa_bits=512, seed=53)
    schema, rows = generate_table(
        TableSpec(name="items", rows=40, columns=10, attr_size=20, key_step=4, seed=5)
    )
    built = count(server.create_table, schema, rows, fanout_override=5)
    primary = server.vbtrees["items"]
    assert built == 40 + primary.tree.node_count()
    indexed = count(server.create_secondary_index, "items", "a1", fanout_override=4)
    secondary = server.vbtrees["items__by_a1"]
    assert indexed == 40 + secondary.tree.node_count()
    server.spawn_edge_server("e0")

    def last_deltas():
        return [
            server.replicator.log_for(t).entries_since(0)[-1].delta
            for t in ("items", "items__by_a1")
        ]

    values = (1001, *(f"1001-{c:02d}-".ljust(20, "x") for c in range(1, 10)))
    inserted = count(server.insert, "items", values)
    assert not any(d.structural for d in last_deltas())
    assert inserted == (1 + primary.height() + 1) + (1 + secondary.height() + 1)
    deleted = count(server.delete, "items", 8)
    # Each tree's dirty nodes and its seal; no tuple is signed.
    assert deleted == sum(len(d.node_updates) + 1 for d in last_deltas())

    rotated = count(server.rotate_key, seed=54)
    trees = server.vbtrees.values()
    assert rotated == sum(len(t) + t.tree.node_count() for t in trees)
    assert all(len(t) == 40 for t in trees)


def test_central_keeps_its_working_values_and_audits(fleet):
    server, _edges, _ = fleet
    for tree in server.vbtrees.values():
        assert set(tree._tuple_values) == set(tree._tuple_auth)
        assert set(tree._node_values) == set(tree._node_auth)
        tree.audit()


@pytest.mark.parametrize(
    "columns, vo_format",
    [
        (None, None),
        (("id", "a1"), None),
        (("id", "a3", "a7"), VOFormat.STRUCTURED),
    ],
    ids=["full_row", "projected", "structured"],
)
def test_edge_results_equal_the_centrals_byte_for_byte(fleet, columns, vo_format):
    server, edges, _ = fleet
    sig_len = server.public_key.signature_len
    central = QueryAuthenticator(server.vbtrees["items"])
    client = server.make_client()
    for low, high in ((0, 60), (990, 1010), (5000, 5040), (7, 9), (None, None)):
        expected = result_to_bytes(
            central.range_query(
                low=low, high=high, columns=columns, vo_format=vo_format
            ),
            sig_len,
        )
        for edge in edges:
            response = edge.range_query(
                "items", low=low, high=high, columns=columns, vo_format=vo_format
            )
            assert result_to_bytes(response.result, sig_len) == expected
            assert client.verify(response).ok


def test_secondary_index_results_verify(fleet):
    server, edges, _ = fleet
    client = server.make_client()
    for edge in edges:
        response = edge.secondary_range_query("items", "a1", low="1", high="6")
        assert response.result.rows and client.verify(response).ok


def test_canaries_are_still_rejected():
    """The three tamper canaries the e2e gate plants, against a replica
    that holds signed material only."""
    server = CentralServer(db_name="dietdb", rsa_bits=512, seed=43)
    schema, rows = generate_table(TableSpec(name="t", rows=60, columns=5, seed=6))
    server.create_table(schema, rows, fanout_override=5)
    client = server.make_client()
    attacks = [
        (ValueTamper(table="t", key=20, column="a1", new_value="evil").apply, 10, 30),
        (SpuriousTuple(table="t", row_values=(1000, "f", "a", "k", "e")).apply, 990, 1010),
        (DropTuple(table="t", index=1, cover=False).install, 10, 30),
    ]
    for i, (attack, low, high) in enumerate(attacks):
        edge = server.spawn_edge_server(f"victim-{i}")
        attack(edge)
        assert not client.verify(edge.range_query("t", low=low, high=high)).ok
    honest = server.spawn_edge_server("honest")
    router = server.make_router(policy="round_robin")
    for _ in range(8):
        # The spurious tuple sits outside this range, so its edge still
        # answers it honestly; the other two are routed around for good.
        answer = router.range_query("t", low=10, high=30)
        assert answer.verdict.ok and answer.edge in (honest.name, "victim-1")
    quarantined = {n for n, s in router.snapshot()["edges"].items() if s["quarantined"]}
    assert quarantined == {"victim-0", "victim-2"}


# ----------------------------------------------------------------------
# Malformed snapshots: EncodingError, a nack, nothing touched
# ----------------------------------------------------------------------


@pytest.fixture
def victim():
    server = CentralServer(
        db_name="dietdb", rsa_bits=512, seed=47,
        replication=ReplicationMode.LAZY,
    )
    schema, rows = generate_table(TableSpec(name="t", rows=30, columns=4, seed=7))
    server.create_table(schema, rows, fanout_override=4)
    edge = server.spawn_edge_server("victim")
    server.insert("t", (9001, "a", "b", "c"))
    server.propagate()
    assert edge.replica_lsns["t"] == 1
    return server, edge


def _malformed_snapshots(payload, tree):
    """``(label, bytes)``: cuts where the old decoder read past the end
    (``IndexError`` at a leaf flag, ``SignatureError`` on a short
    signature slice), a trailing byte, and counts that announce more
    than the payload holds."""
    nodes = tree.node_count()
    node_count_at = snapshot_node_count_offset(payload, tree)
    yield "cut mid-header", payload[:7]
    # node count | root id | leaf flag
    yield "cut at the root's leaf flag", payload[: node_count_at + 8]
    yield "cut mid-signature", payload[: len(payload) - 17]
    yield "trailing byte", payload + b"\x00"
    for forged in (nodes + 1, 0xFFFFFFFF):
        yield f"node count {forged}", (
            payload[:node_count_at]
            + struct.pack(">I", forged)
            + payload[node_count_at + 4 :]
        )
    yield "declared signature width", b"\xff\xff\xff\xff" + payload[4:]


def test_malformed_snapshot_is_nacked_and_touches_nothing(victim):
    server, edge = victim
    frame = server.snapshot_frame("t")
    before = _replica_state(edge, "t")
    telemetry.reset()
    cases = 0
    tree = server.vbtrees["t"].tree
    for label, payload in _malformed_snapshots(frame.payload, tree):
        with pytest.raises(EncodingError):
            snapshot_from_bytes(payload, edge.replica("t").signing)
        ack = _nack(edge, SnapshotFrame("t", frame.lsn, frame.epoch, payload))
        assert (ack.reason, ack.lsn) == ("error", 1), label
        assert _replica_state(edge, "t") == before, label
        cases += 1
    edge.replica("t").audit()
    # Counted, not swallowed: each refusal is an EncodingError on record.
    counters = telemetry.counters()
    assert counters["edge_server.snapshot_install:EncodingError"] == cases
    telemetry.reset()
    # ... and the well-formed snapshot still installs.
    (reply,) = edge.handle_frame(frame_to_bytes(frame))
    assert edge.replica("t") is not before[0]
    edge.replica("t").audit()


# ----------------------------------------------------------------------
# Mixed-version fleets fail closed
# ----------------------------------------------------------------------


def _fleet_of(recipe):
    """A fixture recipe at this commit: same keys, same rows."""
    server = CentralServer(replication=ReplicationMode.LAZY, **recipe["central"])
    schema, rows = generate_table(TableSpec(**recipe["table"]))
    server.create_table(schema, rows)
    edge = server.spawn_edge_server("e0")
    return server, edge


#: The three earlier layouts of the one payload format, oldest first.
_EARLIER_LAYOUTS = [
    "values beside signatures", "two node signatures", "eleven tuple signatures",
]


@pytest.mark.parametrize(
    "recipe, delta_hex",
    [
        (PARENT_RECIPE, PARENT_INSERT_DELTA_HEX),
        (PARENT_RECIPE, TWO_SIGNATURE_INSERT_DELTA_HEX),
        (ELEVEN_SIGNATURE_RECIPE, ELEVEN_SIGNATURE_INSERT_DELTA_HEX),
    ],
    ids=_EARLIER_LAYOUTS,
)
def test_parent_format_delta_is_refused_as_tamper(recipe, delta_hex):
    """The parent's delta is authentic — signed by this very key over
    its own bytes — so the parser is the only gate: it must not read
    an old layout as the new one."""
    server, edge = _fleet_of(recipe)
    parent_delta = bytes.fromhex(delta_hex)
    width = server.public_key.signature_len + 2
    assert DigestVerifier(server.public_key).verify_value(
        SignedDigest(parent_delta[-width:]),
        delta_digest(parent_delta[:-width]),
    )
    with pytest.raises(EncodingError):
        delta_from_bytes(parent_delta)
    with pytest.raises(DeltaTamperError):
        authenticate_delta(parent_delta, "t", edge.config.keyring)
    before = _replica_state(edge, "t")
    telemetry.reset()
    ack = _nack(edge, DeltaFrame("t", parent_delta))
    assert (ack.reason, ack.lsn) == ("tamper", 0)
    assert _replica_state(edge, "t") == before
    edge.replica("t").audit()
    assert telemetry.unexpected_total() == 0
    # The same insert in today's format: same header, same row, same
    # signatures, minus the copies — and it applies.
    server.insert("t", recipe["insert"])
    payload, _head = server.delta_payload("t", 0)
    assert len(payload) < len(parent_delta)
    assert payload[:40] == parent_delta[:40]
    edge.apply_delta("t", payload)
    assert edge.replica_lsns["t"] == 1
    edge.replica("t").audit()


@pytest.mark.parametrize(
    "recipe, snapshot_hex",
    [
        (PARENT_RECIPE, PARENT_SNAPSHOT_HEX),
        (PARENT_RECIPE, TWO_SIGNATURE_SNAPSHOT_HEX),
        (ELEVEN_SIGNATURE_RECIPE, ELEVEN_SIGNATURE_SNAPSHOT_HEX),
    ],
    ids=_EARLIER_LAYOUTS,
)
def test_parent_format_snapshot_is_refused_as_error(recipe, snapshot_hex):
    server, edge = _fleet_of(recipe)
    parent_snapshot = bytes.fromhex(snapshot_hex)
    current = server.snapshot_frame("t")
    assert len(current.payload) < len(parent_snapshot)
    assert current.payload[:64] == parent_snapshot[:64]  # same tree, same header
    with pytest.raises(EncodingError):
        snapshot_from_bytes(parent_snapshot, edge.replica("t").signing)
    before = _replica_state(edge, "t")
    ack = _nack(
        edge, SnapshotFrame("t", current.lsn, current.epoch, parent_snapshot)
    )
    assert (ack.reason, ack.lsn) == ("error", 0)
    assert _replica_state(edge, "t") == before
    edge.replica("t").audit()
    telemetry.reset()


@pytest.mark.parametrize(
    "result_hex, vo_format",
    [
        (SIGNED_DP_FLAT_RESULT_HEX, VOFormat.FLAT_SET),
        (SIGNED_DP_STRUCTURED_RESULT_HEX, VOFormat.STRUCTURED),
    ],
    ids=["flat", "structured"],
)
def test_parent_format_projected_result_does_not_parse(result_hex, vo_format):
    """A parent edge's projected answer — every hidden attribute a
    kind-tagged signed ``D_P`` entry — is refused by the decoder, so a
    client of this commit REJECTs it without folding a byte of it; the
    same query against an edge of this commit is shorter and verifies."""
    server, edge = _fleet_of(ELEVEN_SIGNATURE_RECIPE)
    parent_result = bytes.fromhex(result_hex)
    with pytest.raises(VOFormatError):
        result_from_bytes(parent_result)
    response = edge.range_query(
        "t", columns=ELEVEN_SIGNATURE_RECIPE["columns"], vo_format=vo_format
    )
    current = result_to_bytes(response.result, server.public_key.signature_len)
    # 2 rows x 2 hidden columns: a signature and its tags less, each.
    tags = 8 if vo_format is VOFormat.STRUCTURED else 0
    assert len(current) == len(parent_result) - 4 * (1 + 66 - 16 + tags)
    assert current[:200] == parent_result[:200]  # same header, same rows
    assert server.make_client().verify(result_from_bytes(current)).ok
