"""Tests for the Naive baseline (paper appendix)."""

import pytest

from repro.baselines.naive import NaiveStore, NaiveVerifier
from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.crypto.meter import CostMeter
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType
from repro.exceptions import VOFormatError

DB = "naivedb"


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=512, seed=77)


@pytest.fixture(scope="module")
def schema():
    return TableSchema(
        "products",
        (
            Column("id", IntType()),
            Column("label", VarcharType(capacity=16)),
            Column("price", IntType()),
        ),
        key="id",
    )


@pytest.fixture(scope="module")
def rows(schema):
    return [Row(schema, (i, f"p{i}", i * 3)) for i in range(50)]


@pytest.fixture(scope="module")
def store(schema, rows, keypair):
    engine = DigestEngine(DB, policy=DigestPolicy.FLATTENED)
    signing = SigningDigestEngine(engine, DigestSigner.from_keypair(keypair))
    return NaiveStore.build(schema, rows, signing)


@pytest.fixture
def verifier(keypair):
    return NaiveVerifier(
        DigestEngine(DB, policy=DigestPolicy.FLATTENED),
        public_key=keypair.public,
    )


class TestHonestResults:
    def test_full_rows_verify(self, store, rows, verifier):
        result = store.build_result(rows[5:20])
        assert verifier.verify(result)
        assert result.num_rows == 15

    def test_projection_verifies(self, store, rows, verifier):
        result = store.build_result(rows[:10], columns=("id", "price"))
        assert result.filtered_columns == ("label",)
        assert verifier.verify(result)

    def test_single_row(self, store, rows, verifier):
        assert verifier.verify(store.build_result(rows[:1]))

    def test_empty_result(self, store, verifier):
        assert verifier.verify(store.build_result([]))

    def test_per_tuple_decryptions(self, store, rows, keypair):
        """The defining cost: one decryption per tuple (plus one per
        filtered attribute)."""
        meter = CostMeter()
        verifier = NaiveVerifier(
            DigestEngine(DB, policy=DigestPolicy.FLATTENED),
            public_key=keypair.public,
            meter=meter,
        )
        result = store.build_result(rows[:10], columns=("id",))
        assert verifier.verify(result)
        # 10 tuple digests + 10 rows x 2 filtered attrs
        assert meter.verifies == 10 + 20


class TestTamperDetection:
    def test_modified_value(self, store, rows, verifier):
        result = store.build_result(rows[:5])
        r = list(result.rows[0])
        r[2] += 1
        result.rows[0] = tuple(r)
        assert not verifier.verify(result)

    def test_spurious_tuple(self, store, rows, verifier):
        result = store.build_result(rows[:5])
        result.rows.append((999, "fake", 0))
        result.keys.append(999)
        result.tuple_digests.append(result.tuple_digests[0])
        result.filtered_attr_digests.append(result.filtered_attr_digests[0])
        assert not verifier.verify(result)

    def test_swapped_digests(self, store, rows, verifier):
        result = store.build_result(rows[:5])
        result.tuple_digests[0], result.tuple_digests[1] = (
            result.tuple_digests[1],
            result.tuple_digests[0],
        )
        assert not verifier.verify(result)

    def test_misaligned_arrays(self, store, rows, verifier):
        result = store.build_result(rows[:5])
        result.keys.pop()
        assert not verifier.verify(result)

    def test_wrong_filtered_digest(self, store, rows, verifier):
        result = store.build_result(rows[:5], columns=("id",))
        result.filtered_attr_digests[0] = result.filtered_attr_digests[1]
        assert not verifier.verify(result)


class TestThePapersPerAttributeForm:
    """The fabric's VB-trees sign one digest per tuple (DESIGN.md D5);
    this baseline is where the paper's form survives."""

    def test_signs_every_attribute_and_the_tuple(self, schema, rows, keypair):
        meter = CostMeter()
        signing = SigningDigestEngine(
            DigestEngine(DB, meter=meter),
            DigestSigner.from_keypair(keypair, meter=meter),
        )
        store = NaiveStore.build(schema, rows, signing)
        assert meter.signs == len(rows) * (schema.num_columns + 1)
        store.add(Row(schema, (1000, "late", 7)))
        assert meter.signs == (len(rows) + 1) * (schema.num_columns + 1)
        # ... while a VB-tree over the same rows signs rows + nodes.
        from repro.core.vbtree import VBTree

        meter.reset()
        tree = VBTree.build(schema, rows, signing)
        assert meter.signs == len(rows) + tree.tree.node_count()

    def test_tuple_digest_is_the_fold_of_the_attribute_digests(
        self, store, rows, keypair
    ):
        """Formula (2) as the paper writes it — under FLATTENED the
        product a hidden factor could be divided out of, which is why
        every factor is signed here."""
        from repro.crypto.signatures import DigestVerifier

        recover = DigestVerifier(keypair.public).recover
        engine = DigestEngine(DB)
        auth = store.auth_for(rows[3].key)
        product = 1
        for signed in auth.signed_attrs:
            product = product * recover(signed) % engine.commutative.modulus
        assert recover(auth.signed_tuple) == product
        assert product != engine.tuple_digests("products", rows[3]).tuple_value


class TestMaintenance:
    def test_add_and_remove(self, schema, keypair):
        engine = DigestEngine(DB, policy=DigestPolicy.FLATTENED)
        signing = SigningDigestEngine(engine, DigestSigner.from_keypair(keypair))
        store = NaiveStore(schema, signing)
        row = Row(schema, (1, "x", 2))
        store.add(row)
        assert store.auth_for(1)
        store.remove(1)
        with pytest.raises(VOFormatError):
            store.auth_for(1)


class TestWireSize:
    def test_grows_linearly_with_rows(self, store, rows, keypair):
        sig_len = keypair.public.signature_len
        s5 = store.build_result(rows[:5]).wire_size(sig_len)
        s10 = store.build_result(rows[:10]).wire_size(sig_len)
        s20 = store.build_result(rows[:20]).wire_size(sig_len)
        assert s20 - s10 == pytest.approx(2 * (s10 - s5), rel=0.2)

    def test_projection_ships_digests_for_filtered(self, store, rows, keypair):
        sig_len = keypair.public.signature_len
        full = store.build_result(rows[:10]).wire_size(sig_len)
        proj = store.build_result(rows[:10], columns=("id",)).wire_size(sig_len)
        # Filtered attributes are replaced by (large RSA) digests here,
        # so projection *costs* bytes with 512-bit signatures — the
        # paper's 16-byte-digest assumption is what makes it cheap.
        assert proj != full
