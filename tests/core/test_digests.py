"""Tests for the digest engine — formulas (1), (2), (3)."""

import pytest

from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.crypto.commutative import (
    AdditiveSetHash,
    ExponentialCommutativeHash,
)
from repro.crypto.encoding import digest_input
from repro.crypto.meter import CostMeter
from repro.crypto.signatures import DigestSigner, DigestVerifier
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType
from repro.exceptions import AuthenticationError

from tests.core.conftest import DB_NAME, pack, row_string


@pytest.fixture
def schema():
    return TableSchema(
        "t",
        (Column("id", IntType()), Column("v", VarcharType(capacity=10))),
        key="id",
    )


@pytest.fixture(params=[DigestPolicy.FLATTENED, DigestPolicy.NESTED])
def engine(request):
    return DigestEngine(DB_NAME, policy=request.param)


class TestAttributeDigests:
    def test_deterministic(self, engine):
        a = engine.attribute_value("t", "v", 1, "x")
        assert a == engine.attribute_value("t", "v", 1, "x")

    @pytest.mark.parametrize(
        "table,attr,key,value",
        [
            ("t2", "v", 1, "x"),
            ("t", "v2", 1, "x"),
            ("t", "v", 2, "x"),
            ("t", "v", 1, "y"),
        ],
    )
    def test_every_input_matters(self, engine, table, attr, key, value):
        base = engine.attribute_value("t", "v", 1, "x")
        assert engine.attribute_value(table, attr, key, value) != base

    def test_db_name_matters(self):
        e1 = DigestEngine("db1")
        e2 = DigestEngine("db2")
        assert e1.attribute_value("t", "v", 1, "x") != e2.attribute_value(
            "t", "v", 1, "x"
        )


class TestTupleDigests:
    def test_is_the_hash_of_the_row_string_under_both_policies(self, engine):
        vals = [engine.attribute_value("t", f"a{i}", 1, i) for i in range(5)]
        got = engine.tuple_value("t", 1, pack(vals))
        assert got == engine.commutative.digest_of_bytes(
            row_string(DB_NAME, "t", 1, vals)
        )
        # One function, no flag: the policy does not enter.
        other = DigestEngine(
            DB_NAME,
            policy=next(p for p in DigestPolicy if p is not engine.policy),
        )
        assert other.tuple_value("t", 1, pack(vals)) == got

    def test_is_a_unit_of_the_fold_ring(self, engine):
        vals = [engine.attribute_value("t", "v", key, "x") for key in range(50)]
        assert all(
            engine.tuple_value("t", key, pack([v])) % 2 == 1
            for key, v in enumerate(vals)
        )

    def test_order_matters(self, engine):
        """The paper's tuple digest was a commutative fold; this one is
        positional, which is what binds a value to its column."""
        vals = [engine.attribute_value("t", f"a{i}", 1, i) for i in range(5)]
        assert engine.tuple_value(
            "t", 1, pack(vals)
        ) != engine.tuple_value("t", 1, pack(vals[::-1]))

    @pytest.mark.parametrize(
        "table,key,drop",
        [("t2", 1, 0), ("t", 2, 0), ("t", 1, 1)],
        ids=["table", "key", "column count"],
    )
    def test_every_input_matters(self, engine, table, key, drop):
        vals = [engine.attribute_value("t", f"a{i}", 1, i) for i in range(3)]
        base = engine.tuple_value("t", 1, pack(vals))
        assert engine.tuple_value(
            table, key, pack(vals[: len(vals) - drop])
        ) != base

    def test_db_name_matters(self):
        block = pack([3, 5])
        assert DigestEngine("db1").tuple_value("t", 1, block) != DigestEngine(
            "db2"
        ).tuple_value("t", 1, block)

    def test_no_attribute_input_is_a_row_string(self, engine):
        """Formula (1) inputs open with the string tag of the database
        name; the row tag opens with another byte."""
        assert digest_input(DB_NAME, "t", "v", 1, "x")[:1] == b"S"
        assert row_string(DB_NAME, "t", 1, [3])[:1] == b"R"

    @pytest.mark.parametrize("block", [b"", b"\x01" * 15, b"\x01" * 17])
    def test_empty_or_ragged_block_rejected(self, engine, block):
        with pytest.raises(AuthenticationError):
            engine.tuple_value("t", 1, block)

    @pytest.mark.parametrize("bad", [1, 1.0, True, b"t", None])
    def test_table_name_must_be_a_string(self, engine, bad):
        with pytest.raises(AuthenticationError):
            engine.tuple_value(bad, 1, pack([3]))
        assert not engine._prefixes

    def test_tuple_digests_from_row(self, engine, schema):
        row = Row(schema, (7, "hello"))
        d = engine.tuple_digests("t", row)
        singles = [
            engine.attribute_value("t", "id", 7, 7),
            engine.attribute_value("t", "v", 7, "hello"),
        ]
        assert d.attribute_digests == pack(singles)
        assert d.tuple_value == engine.tuple_value("t", 7, d.attribute_digests)
        assert d.tuple_value == engine.commutative.digest_of_bytes(
            row_string(DB_NAME, "t", 7, singles)
        )


class TestNodeDigests:
    def test_commutative(self, engine):
        vals = [engine.attribute_value("t", "a", i, i) for i in range(4)]
        assert engine.node_value(vals) == engine.node_value(vals[::-1])

    def test_empty_node_identity(self, engine):
        empty = engine.node_value([])
        v = engine.attribute_value("t", "a", 1, 1)
        # Folding the identity with one value gives that value's digest.
        assert engine.node_value([v]) == engine.node_value([v])
        assert isinstance(empty, int)

    def test_flattened_fold_matches_recompute(self):
        """The paper's incremental insert: fold == full recompute."""
        engine = DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED)
        tuples = [engine.attribute_value("t", "a", i, i) for i in range(6)]
        node = engine.node_value(tuples[:5])
        assert engine.fold_into_node(node, tuples[5]) == engine.node_value(tuples)

    def test_nested_fold_rejected(self):
        engine = DigestEngine(DB_NAME, policy=DigestPolicy.NESTED)
        with pytest.raises(AuthenticationError):
            engine.fold_into_node(1, 2)

    def test_equal_exponents_give_equal_powers_never_the_converse(self):
        """What comparing ``D_N`` as a value rests on (DESIGN.md §20):
        ``g``'s order divides ``2^(k-2)``, which divides the modulus the
        exponents are reduced by — so equal exponent products always
        had equal ``g^x`` "display" forms, while two products one order
        apart shared a display form and are now told apart."""
        h = DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED).commutative
        order = h.modulus >> 2
        assert pow(h.generator, order, h.modulus) == 1
        x = 12345
        assert pow(h.generator, x + order, h.modulus) == pow(h.generator, x, h.modulus)
        assert (x + order) % h.modulus != x

    def test_negative_values_rejected(self, engine):
        with pytest.raises(AuthenticationError):
            engine.node_value([0]) if engine.policy is DigestPolicy.FLATTENED else (
                _ for _ in ()
            ).throw(AuthenticationError("skip"))


class TestPolicyConstraints:
    def test_flattened_requires_exponential_hash(self):
        with pytest.raises(AuthenticationError):
            DigestEngine(
                DB_NAME,
                commutative=AdditiveSetHash(),
                policy=DigestPolicy.FLATTENED,
            )

    def test_nested_allows_other_hashes(self):
        engine = DigestEngine(
            DB_NAME, commutative=AdditiveSetHash(), policy=DigestPolicy.NESTED
        )
        assert engine.node_value([3, 5]) == engine.commutative.combine([3, 5])
        # Digests travel at this hash's own width inside the row string.
        assert engine.tuple_value(
            "t", 1, pack([3, 5], width=32)
        ) == engine.commutative.digest_of_bytes(
            row_string(DB_NAME, "t", 1, [3, 5], width=32)
        )


class TestSigningEngine:
    def test_sign_tuple_roundtrip(self, schema, engine):
        from repro.crypto.rsa import generate_keypair

        kp = generate_keypair(bits=512, seed=5)
        signing = SigningDigestEngine(engine, DigestSigner.from_keypair(kp))
        verifier = DigestVerifier(kp.public)
        row = Row(schema, (3, "abc"))
        digests, signed_tuple = signing.sign_tuple("t", row)
        assert verifier.recover(signed_tuple) == digests.tuple_value


class TestMetering:
    def test_hashes_and_combines_counted(self, schema):
        meter = CostMeter()
        engine = DigestEngine(
            DB_NAME,
            commutative=ExponentialCommutativeHash(meter=meter),
            policy=DigestPolicy.FLATTENED,
            meter=meter,
        )
        row = Row(schema, (3, "abc"))
        engine.tuple_digests("t", row)
        assert meter.hashes == 3      # one per attribute, one for the row
        assert meter.combines == 0    # nothing is folded below a node
