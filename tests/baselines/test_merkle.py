"""Tests for the Merkle-tree baseline (Devanbu et al. style)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.merkle import MerkleTree, MerkleVerifier
from repro.crypto.meter import CostMeter
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType

from tests.core.conftest import flip_bit
from repro.exceptions import VOFormatError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=512, seed=88)


@pytest.fixture(scope="module")
def schema():
    return TableSchema(
        "log",
        (Column("seq", IntType()), Column("msg", VarcharType(capacity=12))),
        key="seq",
    )


@pytest.fixture(scope="module")
def rows(schema):
    return [Row(schema, (i * 2, f"m{i}")) for i in range(100)]


@pytest.fixture(scope="module")
def tree(schema, rows, keypair):
    return MerkleTree(schema, rows, DigestSigner.from_keypair(keypair))


@pytest.fixture
def verifier(keypair):
    return MerkleVerifier(keypair.public)


class TestConstruction:
    def test_height_logarithmic(self, tree):
        assert tree.height() == 8  # ceil(log2(100)) + 1
        assert tree.num_rows == 100

    def test_root_deterministic(self, schema, rows, keypair):
        t2 = MerkleTree(schema, rows, DigestSigner.from_keypair(keypair))
        assert t2.root_hash() == tree_root(schema, rows, keypair)

    def test_single_row_tree(self, schema, keypair):
        t = MerkleTree(
            schema,
            [Row(schema, (1, "only"))],
            DigestSigner.from_keypair(keypair),
        )
        assert t.height() == 1
        proof = t.prove_range(0, 1)
        assert MerkleVerifier(keypair.public).verify(proof)

    def test_empty_tree_has_root(self, schema, keypair):
        t = MerkleTree(schema, [], DigestSigner.from_keypair(keypair))
        assert t.root_hash()


def tree_root(schema, rows, keypair):
    return MerkleTree(schema, rows, DigestSigner.from_keypair(keypair)).root_hash()


class TestProofs:
    @pytest.mark.parametrize(
        "first,count", [(0, 1), (0, 100), (37, 1), (10, 25), (99, 1), (50, 50)]
    )
    def test_ranges_verify(self, tree, verifier, first, count):
        assert verifier.verify(tree.prove_range(first, count))

    def test_key_range_proof(self, tree, verifier):
        proof = tree.prove_key_range(20, 60)
        assert len(proof.rows) == 21  # keys 20..60 step 2
        assert verifier.verify(proof)

    def test_out_of_bounds_rejected(self, tree):
        with pytest.raises(VOFormatError):
            tree.prove_range(90, 20)
        with pytest.raises(VOFormatError):
            tree.prove_range(-1, 5)

    def test_empty_range_rejected(self, tree):
        with pytest.raises(VOFormatError):
            tree.prove_range(5, 0)

    @given(
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=1, max_value=100),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_valid_range_verifies(self, tree, verifier, first, count):
        count = min(count, 100 - first)
        assert verifier.verify(tree.prove_range(first, count))


class TestTamperDetection:
    def test_modified_tuple(self, tree, verifier):
        proof = tree.prove_range(10, 5)
        rows = list(proof.rows)
        rows[0] = (rows[0][0], "EVIL")
        tampered = type(proof)(
            table=proof.table,
            first_index=proof.first_index,
            total_leaves=proof.total_leaves,
            rows=tuple(rows),
            siblings=proof.siblings,
            signed_root=proof.signed_root,
        )
        assert not verifier.verify(tampered)

    def test_shifted_range_claim(self, tree, verifier):
        proof = tree.prove_range(10, 5)
        shifted = type(proof)(
            table=proof.table,
            first_index=11,  # lie about where the range starts
            total_leaves=proof.total_leaves,
            rows=proof.rows,
            siblings=proof.siblings,
            signed_root=proof.signed_root,
        )
        assert not verifier.verify(shifted)

    def test_missing_sibling(self, tree, verifier):
        proof = tree.prove_range(10, 5)
        broken = type(proof)(
            table=proof.table,
            first_index=proof.first_index,
            total_leaves=proof.total_leaves,
            rows=proof.rows,
            siblings=proof.siblings[1:],
            signed_root=proof.signed_root,
        )
        assert not verifier.verify(broken)

    def test_forged_root_signature(self, tree, verifier):
        proof = tree.prove_range(10, 5)
        forged = type(proof)(
            table=proof.table,
            first_index=proof.first_index,
            total_leaves=proof.total_leaves,
            rows=proof.rows,
            siblings=proof.siblings,
            signed_root=flip_bit(proof.signed_root),
        )
        assert not verifier.verify(forged)


class TestPaperCriticisms:
    """Quantify the limitations Section 2 attributes to this scheme."""

    def test_vo_grows_with_table_size(self, schema, keypair, verifier):
        """Same 5-tuple result, 10x table size => more sibling hashes
        (VB-tree VOs are size-independent; this baseline's are not)."""
        signer = DigestSigner.from_keypair(keypair)
        small_rows = [Row(schema, (i, f"m{i}")) for i in range(64)]
        big_rows = [Row(schema, (i, f"m{i}")) for i in range(4096)]
        small = MerkleTree(schema, small_rows, signer)
        big = MerkleTree(schema, big_rows, signer)
        p_small = small.prove_range(10, 5)
        p_big = big.prove_range(10, 5)
        assert len(p_big.siblings) > len(p_small.siblings)

    def test_single_signature_total(self, tree):
        """Only the root is ever signed — updates would invalidate it
        for every reader (no per-subtree independence)."""
        proof_a = tree.prove_range(0, 3)
        proof_b = tree.prove_range(90, 3)
        assert proof_a.signed_root == proof_b.signed_root

    def test_hash_count_logarithmic(self, tree, keypair):
        meter = CostMeter()
        verifier = MerkleVerifier(keypair.public, meter=meter)
        assert verifier.verify(tree.prove_range(42, 1))
        # 1 leaf hash + ~log2(100) internal recomputations.
        assert meter.hashes <= 1 + tree.height() + 1
