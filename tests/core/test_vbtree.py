"""Tests for VB-tree construction, digest storage, and auditing."""

import pytest

from repro.core.digests import DigestPolicy
from repro.core.query_auth import QueryAuthenticator
from repro.core.vbtree import VBTree
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.exceptions import AuthenticationError, KeyNotFoundError

from tests.core.conftest import (
    build_tree,
    flip_bit as _flipped,
    make_rows,
    replica_of,
)


class TestBuild:
    def test_row_count_and_order(self, vbtree):
        keys = [r.key for r in vbtree.rows()]
        assert keys == sorted(keys)
        assert len(vbtree) == len(keys) > 0

    def test_every_row_has_tuple_auth(self, vbtree):
        """One signed digest per tuple, and nothing per attribute."""
        assert len(vbtree._tuple_auth) == len(vbtree)
        for row in vbtree.rows():
            assert type(vbtree.tuple_auth(row.key)) is SignedDigest

    def test_every_node_has_auth(self, vbtree, keypair):
        verifier = DigestVerifier(keypair.public)
        for node in vbtree.tree.walk_nodes():
            assert verifier.recover(vbtree.node_auth(node)) > 0

    def test_missing_key_raises(self, vbtree):
        with pytest.raises(KeyNotFoundError):
            vbtree.tuple_auth(99999)

    def test_audit_passes_on_honest_tree(self, vbtree):
        vbtree.audit()

    def test_signatures_verify(self, vbtree, keypair):
        """The signed forms recover to the values the central tree folds
        from: the signature *is* the stored digest."""
        verifier = DigestVerifier(keypair.public)
        value = vbtree.compute_node_value(vbtree.tree.root)
        assert verifier.recover(vbtree.root_auth()) == value
        for row in list(vbtree.rows())[:5]:
            digests = vbtree.signing.engine.tuple_digests(vbtree.table_name, row)
            assert (
                verifier.recover(vbtree.tuple_auth(row.key)) == digests.tuple_value
            )

    def test_one_signature_per_node_is_what_the_vo_top_ships(self, vbtree):
        """No second "display" form, under either policy: ``D_N`` for an
        envelope top is the very signature ``D_S`` ships for that node
        when it is pruned, and a build signs each node once."""
        assert len(vbtree._node_auth) == vbtree.tree.node_count()
        whole_table = QueryAuthenticator(vbtree).range_query()
        assert whole_table.vo.top_signed is vbtree.root_auth()
        leaf = vbtree.tree.first_leaf()
        one_row = QueryAuthenticator(vbtree).range_query(
            low=leaf.keys[0], high=leaf.keys[0]
        )
        assert one_row.vo.top_signed is vbtree.node_auth(leaf)

    def test_auth_is_signed_material_only(self, vbtree):
        """A node's auth and a tuple's auth are each one signed digest:
        exactly what a VO can ship."""
        assert type(vbtree.root_auth()) is SignedDigest
        key = next(iter(vbtree.rows())).key
        assert type(vbtree.tuple_auth(key)) is SignedDigest

    def test_geometry_uses_signature_width(self, vbtree, keypair):
        expected_digest_len = keypair.public.signature_len + 2
        assert vbtree.geometry.digest_len == expected_digest_len

    def test_vbtree_fanout_below_plain_btree(self, vbtree):
        plain = vbtree.geometry.without_digests()
        assert vbtree.geometry.internal_fanout() < plain.internal_fanout()


def _tuple_value(vbt, row):
    return vbt.signing.engine.tuple_digests(vbt.table_name, row).tuple_value


class TestNodeDigestStructure:
    """What each signature recovers to, recomputed from the rows."""

    def test_leaf_value_is_combination_of_tuples(self, vbtree, keypair):
        recover = DigestVerifier(keypair.public).recover
        engine = vbtree.signing.engine
        leaf = vbtree.tree.first_leaf()
        expected = engine.node_value([_tuple_value(vbtree, r) for r in leaf.values])
        assert recover(vbtree.node_auth(leaf)) == expected

    def test_internal_value_is_combination_of_children(self, vbtree, keypair):
        recover = DigestVerifier(keypair.public).recover
        engine = vbtree.signing.engine
        root = vbtree.tree.root
        if root.is_leaf:
            pytest.skip("tree too small")
        expected = engine.node_value(
            [recover(vbtree.node_auth(c)) for c in root.children]
        )
        assert recover(vbtree.node_auth(root)) == expected

    def test_flattened_root_is_product_of_all_tuples(self, schema, keypair):
        """FLATTENED: the root exponent is the product of every tuple
        digest in the table — the flattening property that makes the
        paper's set-only VO work."""
        vbt = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=40)
        modulus = vbt.signing.engine.commutative.modulus
        product = 1
        for row in vbt.rows():
            product = (product * _tuple_value(vbt, row)) % modulus
        recover = DigestVerifier(keypair.public).recover
        assert recover(vbt.root_auth()) == product

    def test_nested_root_differs_from_flat_product(self, schema, keypair):
        vbt = build_tree(schema, keypair, DigestPolicy.NESTED, n=40)
        modulus = vbt.signing.engine.commutative.modulus
        product = 1
        for row in vbt.rows():
            product = (product * _tuple_value(vbt, row)) % modulus
        if not vbt.tree.root.is_leaf:
            recover = DigestVerifier(keypair.public).recover
            assert recover(vbt.root_auth()) != product


class TestAudit:
    def test_audit_detects_tampered_row(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        # Tamper with a stored row without updating digests.
        leaf = vbt.tree.first_leaf()
        row = leaf.values[0]
        leaf.values[0] = Row(schema, (row.key, "EVIL", 0, 0))
        with pytest.raises(AuthenticationError):
            vbt.audit()

    def test_audit_detects_tampered_node_digest(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        vbt.install_node_auth(vbt.tree.root.node_id, _flipped(vbt.root_auth()))
        with pytest.raises(AuthenticationError):
            vbt.audit()

    def test_audit_detects_a_tampered_envelope_top(self, schema, keypair, policy):
        """A node's one signature is what a VO ships as ``D_N`` when the
        node tops an envelope; the audit checks it on every node, not
        only the root."""
        vbt = build_tree(schema, keypair, policy, n=30)
        leaf = vbt.tree.first_leaf()
        vbt.install_node_auth(leaf.node_id, _flipped(vbt.node_auth(leaf)))
        with pytest.raises(
            AuthenticationError, match=f"node {leaf.node_id} signature invalid"
        ):
            vbt.audit()

    def test_audit_detects_tampered_tuple_signature(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        key = next(iter(vbt.rows())).key
        vbt.install_tuple_auth(key, _flipped(vbt.tuple_auth(key)))
        with pytest.raises(AuthenticationError):
            vbt.audit()

    def test_recompute_all_restores_audit(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        vbt.install_node_auth(vbt.tree.root.node_id, _flipped(vbt.root_auth()))
        vbt.recompute_all_nodes()
        vbt.audit()

    def test_replica_audits_without_the_signers_working_values(
        self, schema, keypair, policy
    ):
        """One audit for central and replica: it recomputes from the
        rows, so the value maps a replica never fills are not needed."""
        vbt = build_tree(schema, keypair, policy, n=30)
        assert len(vbt._tuple_values) == 30
        assert set(vbt._node_values) == set(vbt._node_auth)
        replica = replica_of(vbt)
        assert not replica._tuple_values and not replica._node_values
        replica.audit()


class TestRawMutation:
    def test_raw_insert_stores_tuple_auth(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=20)
        row = Row(schema, (1001, "new", 5, 5))
        trace, auth = vbt.raw_insert(row)
        assert vbt.tuple_auth(1001) is auth
        assert trace.modified

    def test_raw_delete_removes_tuple_auth(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=20)
        key = next(iter(vbt.rows())).key
        vbt.raw_delete(key)
        with pytest.raises(KeyNotFoundError):
            vbt.tuple_auth(key)

    def test_recompute_dirty_after_insert(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=50)
        row = Row(schema, (1001, "new", 5, 5))
        trace, _ = vbt.raw_insert(row)
        vbt.recompute_dirty(trace)
        vbt.audit()

    def test_recompute_dirty_after_delete(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=50)
        keys = [r.key for r in vbt.rows()][:10]
        for key in keys:
            trace, _ = vbt.raw_delete(key)
            vbt.recompute_dirty(trace)
        vbt.audit()
