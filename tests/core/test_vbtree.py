"""Tests for VB-tree construction, digest storage, and auditing."""

import pytest

from repro.core.digests import DigestPolicy
from repro.core.vbtree import VBTree
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.exceptions import AuthenticationError, KeyNotFoundError

from tests.core.conftest import build_tree, make_rows


def _flipped(signed: SignedDigest) -> SignedDigest:
    return SignedDigest(signed.signature ^ 1, signed.epoch)


class TestBuild:
    def test_row_count_and_order(self, vbtree):
        keys = [r.key for r in vbtree.rows()]
        assert keys == sorted(keys)
        assert len(vbtree) == len(keys) > 0

    def test_every_row_has_tuple_auth(self, vbtree):
        for row in vbtree.rows():
            auth = vbtree.tuple_auth(row.key)
            assert len(auth.signed_attrs) == len(row.values)

    def test_every_node_has_auth(self, vbtree, keypair):
        verifier = DigestVerifier(keypair.public)
        for node in vbtree.tree.walk_nodes():
            auth = vbtree.node_auth(node)
            assert verifier.recover(auth.signed) > 0

    def test_missing_key_raises(self, vbtree):
        with pytest.raises(KeyNotFoundError):
            vbtree.tuple_auth(99999)

    def test_audit_passes_on_honest_tree(self, vbtree):
        vbtree.audit()

    def test_signatures_verify(self, vbtree, keypair):
        """The signed forms recover to the values the central tree folds
        from: the signature *is* the stored digest."""
        verifier = DigestVerifier(keypair.public)
        root = vbtree.root_auth()
        value = vbtree.compute_node_value(vbtree.tree.root)
        assert verifier.recover(root.signed) == value
        for row in list(vbtree.rows())[:5]:
            auth = vbtree.tuple_auth(row.key)
            digests = vbtree.signing.engine.tuple_digests(vbtree.table_name, row)
            assert verifier.recover(auth.signed_tuple) == digests.tuple_value
            assert (
                tuple(map(verifier.recover, auth.signed_attrs))
                == digests.attribute_values
            )

    def test_display_form(self, vbtree, keypair):
        verifier = DigestVerifier(keypair.public)
        root = vbtree.root_auth()
        engine = vbtree.signing.engine
        value = verifier.recover(root.signed)
        assert verifier.recover(root.signed_display) == engine.display_value(value)
        if vbtree.policy is DigestPolicy.NESTED:
            assert root.signed_display == root.signed

    def test_auth_is_signed_material_only(self, vbtree):
        """``TupleAuth`` / ``NodeAuth`` are exactly what a VO can ship."""
        assert set(vars(vbtree.root_auth())) == {"signed", "signed_display"}
        key = next(iter(vbtree.rows())).key
        assert set(vars(vbtree.tuple_auth(key))) == {"signed_tuple", "signed_attrs"}

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
        assert recover(vbtree.node_auth(leaf).signed) == expected

    def test_internal_value_is_combination_of_children(self, vbtree, keypair):
        recover = DigestVerifier(keypair.public).recover
        engine = vbtree.signing.engine
        root = vbtree.tree.root
        if root.is_leaf:
            pytest.skip("tree too small")
        expected = engine.node_value(
            [recover(vbtree.node_auth(c).signed) for c in root.children]
        )
        assert recover(vbtree.node_auth(root).signed) == expected

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
        assert recover(vbt.root_auth().signed) == product

    def test_nested_root_differs_from_flat_product(self, schema, keypair):
        vbt = build_tree(schema, keypair, DigestPolicy.NESTED, n=40)
        modulus = vbt.signing.engine.commutative.modulus
        product = 1
        for row in vbt.rows():
            product = (product * _tuple_value(vbt, row)) % modulus
        if not vbt.tree.root.is_leaf:
            recover = DigestVerifier(keypair.public).recover
            assert recover(vbt.root_auth().signed) != product


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
        root_auth = vbt.root_auth()
        root_auth.signed = _flipped(root_auth.signed)
        with pytest.raises(AuthenticationError):
            vbt.audit()

    def test_audit_detects_tampered_display_signature(
        self, schema, keypair, policy
    ):
        """``signed_display`` is what every VO's envelope top ships; the
        audit used to leave it to clients."""
        vbt = build_tree(schema, keypair, policy, n=30)
        leaf_auth = vbt.node_auth(vbt.tree.first_leaf())
        leaf_auth.signed_display = _flipped(leaf_auth.signed_display)
        with pytest.raises(AuthenticationError, match="display"):
            vbt.audit()

    def test_audit_detects_tampered_tuple_signature(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        auth = vbt.tuple_auth(next(iter(vbt.rows())).key)
        auth.signed_tuple = _flipped(auth.signed_tuple)
        with pytest.raises(AuthenticationError):
            vbt.audit()

    def test_recompute_all_restores_audit(self, schema, keypair, policy):
        vbt = build_tree(schema, keypair, policy, n=30)
        root_auth = vbt.root_auth()
        root_auth.signed = _flipped(root_auth.signed)
        vbt.recompute_all_nodes()
        vbt.audit()

    def test_clone_audits_without_the_signers_working_values(
        self, schema, keypair, policy
    ):
        """One audit for central and replica: it recomputes from the
        rows, so the value maps a replica never fills are not needed."""
        vbt = build_tree(schema, keypair, policy, n=30)
        assert len(vbt._tuple_values) == 30
        assert set(vbt._node_values) == set(vbt._node_auth)
        replica = vbt.clone()
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
