"""Tests for secondary VB-trees (sort orders beyond the primary key)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.query_auth import QueryAuthenticator
from repro.core.secondary import MAX_KEY, MIN_KEY
from repro.core.vbtree import VBTree
from repro.core.verify import ResultVerifier
from repro.crypto.signatures import DigestSigner
from repro.db.expressions import And, Comparison, Not, Or, between
from repro.exceptions import SchemaError

from tests.core.conftest import DB_NAME, build_tree, make_rows


@pytest.fixture(scope="module")
def signing(schema, keypair):
    engine = DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED)
    return SigningDigestEngine(engine, DigestSigner.from_keypair(keypair))


@pytest.fixture(scope="module")
def rows(schema):
    return make_rows(schema, n=150)


@pytest.fixture(scope="module")
def price_tree(schema, rows, signing):
    return VBTree.build(
        schema, rows, signing, fanout_override=5, attribute="price"
    )


@pytest.fixture(scope="module")
def price_auth(price_tree):
    return QueryAuthenticator(price_tree)


@pytest.fixture(scope="module")
def base_tree(schema, rows, signing):
    return VBTree.build(schema, rows, signing, fanout_override=5)


@pytest.fixture
def flat_verifier(keypair):
    return ResultVerifier(
        DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED),
        public_key=keypair.public,
    )


class TestSentinels:
    def test_min_below_everything(self):
        assert MIN_KEY < 0
        assert MIN_KEY < "a"
        assert not (MIN_KEY > 5)
        assert 3 > MIN_KEY

    def test_max_above_everything(self):
        assert MAX_KEY > 10**18
        assert MAX_KEY > "zzz"
        assert 5 < MAX_KEY

    def test_ordering_between_sentinels(self):
        assert MIN_KEY < MAX_KEY
        assert MIN_KEY == MIN_KEY
        assert MIN_KEY != MAX_KEY

    def test_composite_tuple_comparisons(self):
        assert (5, MIN_KEY) < (5, 0) < (5, MAX_KEY) < (6, MIN_KEY)


class TestConstruction:
    def test_sorted_by_attribute(self, price_tree):
        prices = [row["price"] for row in price_tree.rows()]
        assert prices == sorted(prices)

    def test_duplicate_attr_values_kept(self, price_tree, rows):
        assert len(price_tree) == len(rows)

    def test_audit_passes(self, price_tree):
        price_tree.audit()

    def test_rejects_blob_attribute(self, signing):
        from repro.db.schema import Column, TableSchema
        from repro.db.types import BlobType, IntType

        schema = TableSchema(
            "t", (Column("id", IntType()), Column("b", BlobType())), key="id"
        )
        with pytest.raises(SchemaError):
            VBTree(schema, signing, attribute="b")

    def test_rejects_primary_key(self, schema, signing):
        with pytest.raises(SchemaError):
            VBTree(schema, signing, attribute="id")

    def test_key_len_is_composite(self, price_tree, schema):
        expected = (
            schema.column("price").type.byte_width()
            + schema.key_type.byte_width()
        )
        assert price_tree.geometry.key_len == expected

    def test_rejects_unknown_attribute(self, schema, signing):
        with pytest.raises(SchemaError):
            VBTree(schema, signing, attribute="nope")

    def test_range_query_reads_the_trees_own_sort_column(
        self, schema, keypair, price_auth
    ):
        """One authenticator: a range on a primary tree bounds the
        primary key, on an index its attribute."""
        primary = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=20)
        assert primary.attribute is None
        by_key = QueryAuthenticator(primary).range_query(low=10, high=20)
        assert by_key.keys == [10, 12, 14, 16, 18, 20]
        by_price = price_auth.range_query(low=10, high=20)
        assert by_price.rows
        assert all(10 <= row[2] <= 20 for row in by_price.rows)


class TestQueries:
    def test_attribute_range_verifies(self, price_auth, flat_verifier):
        result = price_auth.range_query(low=10, high=40)
        assert result.rows
        assert all(10 <= row[2] <= 40 for row in result.rows)  # price col
        assert flat_verifier.verify(result).ok

    def test_equality_with_duplicates_verifies(self, price_auth, flat_verifier, rows):
        target = rows[0]["price"]
        result = price_auth.range_query(low=target, high=target)
        expected = sum(1 for r in rows if r["price"] == target)
        assert len(result.rows) == expected >= 1
        assert flat_verifier.verify(result).ok

    def test_projection_verifies(self, price_auth, flat_verifier):
        result = price_auth.range_query(low=0, high=50, columns=("id", "price"))
        assert flat_verifier.verify(result).ok

    def test_open_ranges(self, price_auth, flat_verifier, rows):
        everything = price_auth.range_query()
        assert len(everything.rows) == len(rows)
        assert flat_verifier.verify(everything).ok

    def test_empty_range_verifies(self, price_auth, flat_verifier):
        result = price_auth.range_query(low=1000, high=2000)
        assert result.rows == []
        assert flat_verifier.verify(result).ok

    def test_tamper_detected(self, price_auth, flat_verifier):
        result = price_auth.range_query(low=10, high=40)
        row = list(result.rows[0])
        row[1] = row[1] + "!"
        result.rows[0] = tuple(row)
        assert not flat_verifier.verify(result).ok


class TestVOSizeBenefit:
    def test_contiguous_envelope_beats_gappy_primary(
        self, schema, keypair, rows, signing, price_auth
    ):
        """The point of a secondary sort order: the same non-key
        selection costs far fewer D_S digests than scanning the primary
        tree with gaps."""
        primary = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=150)
        primary_auth = QueryAuthenticator(primary)

        predicate = between("price", 20, 50)
        via_primary = primary_auth.select(predicate)
        via_secondary = price_auth.range_query(low=20, high=50)

        assert sorted(via_primary.keys) == sorted(via_secondary.keys)
        assert (
            via_secondary.vo.num_selection_digests
            < via_primary.vo.num_selection_digests
        )

    def test_secondary_results_match_filter(self, price_auth, rows):
        result = price_auth.range_query(low=33, high=66)
        expected = sorted(
            (r["price"], r.key) for r in rows if 33 <= r["price"] <= 66
        )
        got = sorted((row[2], key) for row, key in zip(result.rows, result.keys, strict=True))
        assert got == expected


_BOUNDS = {"id": st.integers(-5, 305), "price": st.integers(-5, 105)}
_COMPARISONS = st.sampled_from(sorted(_BOUNDS)).flatmap(
    lambda column: st.builds(
        Comparison,
        st.just(column),
        st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        _BOUNDS[column],
    )
)
_PREDICATES = st.recursive(
    _COMPARISONS,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=5,
)


class TestSelectOnTheSortColumn:
    """A tree narrows a selection by its own sort column — the key, or
    an index's attribute — and re-checks the predicate on every row it
    scans, so an index answers any predicate over the table."""

    @given(predicate=_PREDICATES)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_index_and_base_select_the_same_rows(
        self, rows, base_tree, price_auth, flat_verifier, predicate
    ):
        via_index = price_auth.select(predicate)
        via_base = QueryAuthenticator(base_tree).select(predicate)
        expected = sorted(row.key for row in rows if predicate.evaluate(row))
        assert via_base.keys == expected
        assert sorted(zip(via_index.keys, via_index.rows, strict=True)) == list(
            zip(via_base.keys, via_base.rows, strict=True)
        )
        assert flat_verifier.verify(via_index).ok
        assert flat_verifier.verify(via_base).ok
