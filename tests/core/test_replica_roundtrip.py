"""A replica is the central tree, made the way an edge makes it.

An edge's replica is ``snapshot_from_bytes(snapshot_to_bytes(t))``,
then kept current by ``apply_delta``.  These properties hold it to the
central tree ``t`` field by field, over primary and secondary trees,
small fan-outs and the default geometry — and hold the unsigned tree
header to what a constructor could give (DESIGN.md §31).
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import apply_delta, coalesce
from repro.core.digests import DigestPolicy
from repro.core.update import AuthenticatedUpdater
from repro.core.vbtree import VBTree
from repro.core.wire import snapshot_from_bytes, snapshot_to_bytes
from repro.db.btree import BPlusTree, LeafNode
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.exceptions import DatabaseError, EncodingError

from tests.core.conftest import (
    make_signing,
    replica_of,
    replica_signing,
    snapshot_node_count_offset,
)


def _row(schema, key):
    return Row(schema, (key, f"item-{key}", (key * 7) % 100, (key * 3) % 50))


def _state(vbt):
    """Everything a replica must share with the central tree."""
    tree = vbt.tree
    nodes = [
        (
            node.node_id,
            node.is_leaf,
            list(node.keys),
            None if node.parent is None else node.parent.node_id,
            None if node.is_leaf else [c.node_id for c in node.children],
        )
        for node in tree.walk_nodes()
    ]
    forward = [leaf.node_id for leaf in tree.leaves()]
    backward = []
    leaf = tree.first_leaf()
    while leaf.next_leaf is not None:
        leaf = leaf.next_leaf
    while leaf is not None:
        backward.append(leaf.node_id)
        leaf = leaf.prev_leaf
    return {
        "nodes": nodes,
        "leaf chain": (forward, backward[::-1]),
        "rows": list(tree.items()),
        "tuple signatures": dict(vbt._tuple_auth),
        "node signatures": dict(vbt._node_auth),
        "geometry": vbt.geometry,
        "tree geometry": tree.geometry,
        "capacities": (tree.max_children, tree.leaf_capacity),
        "next node id": tree.next_node_id,
        "size": len(tree),
        "version": vbt.version,
        "attribute": vbt.attribute,
        "key_of": [(vbt.key_of(row), key) for key, row in tree.items()],
    }


def _assert_same(replica, central):
    mine, theirs = _state(replica), _state(central)
    for field, value in theirs.items():
        assert mine[field] == value, field
    assert not replica._tuple_values and not replica._node_values


class TestRoundTripProperty:
    @given(
        keys=st.sets(st.integers(0, 120), max_size=40),
        ops=st.lists(st.integers(0, 160), max_size=30),
        fanout=st.sampled_from([3, 4, 5, 6, None]),
        policy=st.sampled_from(list(DigestPolicy)),
        secondary=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_replica_equals_central_after_snapshot_and_deltas(
        self, schema, keypair, keys, ops, fanout, policy, secondary
    ):
        """Equal after the round trip; equal again after the same
        inserts and deletes reach the central through the updater and
        the replica through ``apply_delta`` — one delta at a time, and
        once coalesced into a single batch."""
        live = {key: _row(schema, key) for key in sorted(keys)}
        central = VBTree.build(
            schema,
            list(live.values()),
            make_signing(keypair, policy),
            fanout_override=fanout,
            attribute="price" if secondary else None,
        )
        one_by_one, batched = replica_of(central), replica_of(central)
        _assert_same(one_by_one, central)
        _assert_same(batched, central)

        updater = AuthenticatedUpdater(central)
        for key in ops:
            row = live.pop(key, None)
            if row is None:
                live[key] = _row(schema, key)
                updater.insert(live[key])
            else:
                updater.delete(central.key_of(row))
        deltas = [
            replace(delta, lsn_first=lsn, lsn_last=lsn)
            for lsn, delta in enumerate(updater.take_deltas(), 1)
        ]
        for delta in deltas:
            apply_delta(one_by_one, delta)
        if deltas:
            apply_delta(batched, coalesce(deltas))
        _assert_same(one_by_one, central)
        _assert_same(batched, central)
        one_by_one.tree.validate()
        one_by_one.audit()


class TestRestore:
    GEOMETRY = PageGeometry(block_size=4096, key_len=8, pointer_len=4, digest_len=66)

    def _restore(self, max_children, leaf_capacity):
        return BPlusTree.restore(
            self.GEOMETRY, (max_children, leaf_capacity), LeafNode(0), 1, 0
        )

    @pytest.mark.parametrize("override", [3, 4, 17, 500])
    def test_an_overrides_pair_is_accepted(self, override):
        tree = self._restore(override, override)
        assert (tree.max_children, tree.leaf_capacity) == (override, override)
        assert tree.fanout_override == override

    def test_the_geometrys_pair_is_accepted(self):
        implied = (self.GEOMETRY.internal_fanout(), self.GEOMETRY.leaf_capacity())
        tree = self._restore(*implied)
        assert (tree.max_children, tree.leaf_capacity) == implied
        assert tree.fanout_override is None

    @pytest.mark.parametrize("pair", [(2, 1), (2, 2), (0, 0), (3, 4), (52, 51)])
    def test_no_other_pair(self, pair):
        with pytest.raises(DatabaseError):
            self._restore(*pair)

    def test_restored_tree_keeps_ids_and_counter(self, schema, keypair):
        central = VBTree.build(
            schema,
            [_row(schema, k) for k in range(30)],
            make_signing(keypair, DigestPolicy.FLATTENED),
            fanout_override=4,
        )
        replica = replica_of(central)
        assert replica.tree.next_node_id == central.tree.next_node_id
        assert replica.tree.fanout_override == 4


class TestUnsignedHeader:
    """The tree header's other fields, edited: ``EncodingError``."""

    @pytest.fixture
    def snapshot(self, schema, keypair):
        vbtree = VBTree.build(
            schema,
            [_row(schema, k) for k in range(24)],
            make_signing(keypair, DigestPolicy.FLATTENED),
            fanout_override=4,
        )
        data = snapshot_to_bytes(vbtree, keypair.public.signature_len)
        return vbtree, data, snapshot_node_count_offset(data, vbtree.tree)

    def _edit(self, data, at, value):
        return data[:at] + struct.pack(">I", value) + data[at + 4 :]

    # block size | key | pointer | digest | max children | leaf capacity
    # | next node id | node count
    @pytest.mark.parametrize(
        ("field", "value"), [(1, 9), (3, 65), (3, 200)], ids=["key_len", "digest_len", "wide"]
    )
    def test_a_geometry_the_constructor_would_not_derive(
        self, snapshot, keypair, field, value
    ):
        _vbtree, data, count_at = snapshot
        edited = self._edit(data, count_at - 28 + 4 * field, value)
        with pytest.raises(EncodingError):
            snapshot_from_bytes(edited, replica_signing(keypair, DigestPolicy.FLATTENED))

    def test_a_counter_not_past_every_id(self, snapshot, keypair):
        vbtree, data, count_at = snapshot
        highest = max(node.node_id for node in vbtree.tree.walk_nodes())
        edited = self._edit(data, count_at - 4, highest)
        with pytest.raises(EncodingError):
            snapshot_from_bytes(edited, replica_signing(keypair, DigestPolicy.FLATTENED))

    def test_the_honest_header_restores(self, snapshot, keypair):
        vbtree, data, _count_at = snapshot
        replica = snapshot_from_bytes(data, replica_signing(keypair, DigestPolicy.FLATTENED))
        _assert_same(replica, vbtree)
