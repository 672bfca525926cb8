"""The result-at-a-time digest kernel against its executable spec.

``DigestEngine.attribute_digests`` / ``tuple_values`` are the only place
formula (1)'s input is concatenated on the live path; ``digest_input``
+ ``digest_of_bytes`` is what they must equal, byte for byte and count
for count.  The pinned ``CostMeter`` totals at the bottom were read off
the per-attribute loop the kernel replaced."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveStore, NaiveVerifier
from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.secondary import SecondaryQueryAuthenticator, SecondaryVBTree
from repro.core.verify import ResultVerifier
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.crypto.commutative import (
    AdditiveSetHash,
    ExponentialCommutativeHash,
    MultiplicativeSetHash,
    get_commutative_hash,
)
from repro.crypto.encoding import decode_values, digest_input, encode_value, encode_values
from repro.crypto.hashing import get_base_hash
from repro.crypto.meter import CostMeter
from repro.crypto.signatures import DigestSigner
from repro.db.rows import Row
from repro.exceptions import AuthenticationError, EncodingError

from tests.core.conftest import DB_NAME, make_rows, pack, row_string

#: (commutative hash, digest policy) — FLATTENED needs the exponent ring.
ENGINES = [
    ("exp2k", DigestPolicy.FLATTENED),
    ("exp2k", DigestPolicy.NESTED),
    ("mult-prime", DigestPolicy.NESTED),
    ("add2k", DigestPolicy.NESTED),
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
names = st.text(min_size=1, max_size=12)
#: ``(columns, [(key, values), ...])``: a result of one to four rows.
results = st.lists(names, min_size=1, max_size=6).flatmap(
    lambda columns: st.tuples(
        st.just(tuple(columns)),
        st.lists(
            st.tuples(scalars, st.tuples(*[scalars] * len(columns))),
            min_size=1,
            max_size=4,
        ),
    )
)


class _Recording:
    """A commutative hash that remembers the bytes the kernel asked it
    to hash."""

    def __init__(self, inner):
        self._inner = inner
        self.chunks: list[bytes] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def digest_block(self, chunks):
        self.chunks.extend(chunks)
        return self._inner.digest_block(chunks)


def make_engine(hash_name, policy):
    meter = CostMeter()
    recording = _Recording(get_commutative_hash(hash_name, meter=meter))
    if policy is DigestPolicy.FLATTENED:
        # The FLATTENED guard wants the real class; record around it.
        engine = DigestEngine(DB_NAME, recording._inner, policy, meter=meter)
        engine.commutative = recording
    else:
        engine = DigestEngine(DB_NAME, recording, policy, meter=meter)
    return engine, recording, meter


@pytest.mark.parametrize("hash_name,policy", ENGINES)
class TestKernelEqualsSpec:
    @given(table=names, result=results)
    @settings(max_examples=60, deadline=None)
    def test_bytes_values_and_counts(self, hash_name, policy, table, result):
        engine, recording, meter = make_engine(hash_name, policy)
        columns, rows = result
        keys = [key for key, _values in rows]
        encodings = [[encode_value(v) for v in values] for _key, values in rows]

        got = engine.attribute_digests(table, columns, keys, encodings)

        spec_bytes = [
            digest_input(DB_NAME, table, col, key, val)
            for key, values in rows
            for col, val in zip(columns, values, strict=True)
        ]
        assert recording.chunks == spec_bytes
        reference = get_commutative_hash(hash_name)
        width = reference.digest_len
        singles = [reference.digest_of_bytes(b) for b in spec_bytes]
        assert got == pack(singles, width)
        assert meter.hashes == len(spec_bytes)
        assert meter.bytes_hashed == sum(map(len, spec_bytes))
        assert meter.combines == 0
        # A second call is served from the prefix cache: same answer.
        assert engine.attribute_digests(table, columns, keys, encodings) == got
        # Formula (2) in the same call: the row strings are hashed after
        # every attribute string, over exactly those digests.
        recording.chunks.clear()
        n_c = len(columns)
        row_specs = [
            row_string(DB_NAME, table, key, singles[i * n_c : (i + 1) * n_c], width)
            for i, key in enumerate(keys)
        ]
        assert engine.tuple_values(table, columns, keys, encodings) == [
            reference.digest_of_bytes(r) for r in row_specs
        ]
        assert recording.chunks == spec_bytes + row_specs
        # The int wrapper only encodes, a row at a time; the decoder's
        # slices are the same encodings.
        for i, (key, values) in enumerate(rows):
            assert engine.row_attribute_values(table, columns, key, values) == (
                singles[i * n_c : (i + 1) * n_c]
            )
            slices: list[bytes] = []
            decoded, _end = decode_values(encode_values(values), 0, slices)
            assert slices == encodings[i]
            assert engine.row_attribute_values(table, columns, key, decoded) == (
                singles[i * n_c : (i + 1) * n_c]
            )

    def test_attribute_value_and_tuple_digests_share_the_kernel(
        self, hash_name, policy, schema
    ):
        engine, recording, _meter = make_engine(hash_name, policy)
        row = Row(schema, (7, "item-7", 49, 21))
        digests = engine.tuple_digests("items", row)
        singles = [
            engine.attribute_value("items", name, 7, value)
            for name, value in zip(schema.column_names, row.values, strict=True)
        ]
        reference = get_commutative_hash(hash_name)
        assert digests.attribute_digests == pack(singles, reference.digest_len)
        row_spec = row_string(DB_NAME, "items", 7, singles, reference.digest_len)
        assert digests.tuple_value == reference.digest_of_bytes(row_spec)
        spec = [
            digest_input(DB_NAME, "items", name, 7, value)
            for name, value in zip(schema.column_names, row.values, strict=True)
        ]
        # Formula (1) per attribute, then formula (2)'s row string —
        # once for the row, and the singles again.
        assert recording.chunks == spec + [row_spec] + spec


#: name -> (factory(base hash name), the int a digest must be, from the
#: base hash's raw bytes).  The 100-bit width is not a whole number of
#: bytes, and a 256-bit modulus is wider than md5 and sha1: in both,
#: slicing a base digest's low bytes alone would be wrong.
PACKED_FORMS = {
    **{
        f"{cls.__name__}-{bits}": (
            lambda hash_name, cls=cls, bits=bits: cls(
                bits=bits, base_hash=get_base_hash(hash_name)
            ),
            lambda raw, bits=bits: (int.from_bytes(raw, "big") % 2**bits) | 1,
        )
        for cls in (ExponentialCommutativeHash, AdditiveSetHash)
        for bits in (64, 128, 256, 100)
    },
    "MultiplicativeSetHash": (
        lambda hash_name: MultiplicativeSetHash(base_hash=get_base_hash(hash_name)),
        lambda raw: int.from_bytes(raw, "big") % (MultiplicativeSetHash._PRIME - 1) + 1,
    ),
}


@pytest.mark.parametrize("hash_name", ["sha256", "sha1", "md5"])
@pytest.mark.parametrize("form", sorted(PACKED_FORMS))
@given(chunks=st.lists(st.binary(max_size=80), max_size=12))
@settings(max_examples=25, deadline=None)
def test_packed_bytes_are_the_int_form(form, hash_name, chunks):
    """A packed block is each digest's ``int`` written at ``digest_len``
    bytes, and that ``int`` is the scheme's reduction of the base hash."""
    build, spec = PACKED_FORMS[form]
    scheme, meter = build(hash_name), CostMeter()
    scheme.meter = meter
    block = scheme.digest_block(chunks)
    assert (meter.hashes, meter.bytes_hashed) == (len(chunks), sum(map(len, chunks)))
    width = scheme.digest_len
    assert block == b"".join(
        scheme.digest_of_bytes(chunk).to_bytes(width, "big") for chunk in chunks
    )
    assert [scheme.digest_of_bytes(chunk) for chunk in chunks] == [
        spec(hashlib.new(hash_name, chunk).digest()) for chunk in chunks
    ]


class TestKernelEdges:
    def test_composite_key_is_rejected_like_the_spec(self):
        engine = DigestEngine(DB_NAME)
        with pytest.raises(EncodingError):
            digest_input(DB_NAME, "t", "a", (1, 2), "x")
        with pytest.raises(EncodingError):
            engine.row_attribute_values("t", ("a",), (1, 2), ("x",))

    def test_secondary_tree_hashes_the_primary_key(self, schema, keypair):
        """A secondary VB-tree's search key is the composite
        ``(attribute, primary key)``; formula (1) still hashes the
        primary key, so its results verify through the same kernel."""
        signing = SigningDigestEngine(
            DigestEngine(DB_NAME), DigestSigner.from_keypair(keypair)
        )
        tree = SecondaryVBTree.build_on(
            schema, "price", make_rows(schema, n=40), signing, fanout_override=5
        )
        result = SecondaryQueryAuthenticator(tree).range_query(low=20, high=60)
        assert result.rows
        verifier = ResultVerifier(DigestEngine(DB_NAME), public_key=keypair.public)
        assert verifier.verify(result).ok
        engine = DigestEngine(DB_NAME)
        reference = engine.commutative
        for key, row in zip(result.keys, result.rows, strict=True):
            assert engine.row_attribute_values(
                result.table, result.columns, key, row
            ) == [
                reference.digest_of_bytes(
                    digest_input(DB_NAME, result.table, col, key, val)
                )
                for col, val in zip(result.columns, row, strict=True)
            ]

    def test_width_mismatch_raises(self):
        engine = DigestEngine(DB_NAME)
        with pytest.raises(AuthenticationError):
            engine.row_attribute_values("t", ("a", "b"), 1, ("x",))
        with pytest.raises(AuthenticationError):
            engine.row_attribute_values("t", ("a",), 1, ("x", "y"))
        x = encode_value("x")
        # One ragged row of a result, or keys and rows in different numbers.
        with pytest.raises(AuthenticationError):
            engine.tuple_values("t", ("a",), [1, 2], [[x], [x, x]])
        with pytest.raises(AuthenticationError):
            engine.attribute_digests("t", ("a",), [1, 2], [[x]])
        with pytest.raises(AuthenticationError):
            engine.tuple_values("t", (), [1], [[]])

    def test_equal_but_differently_encoded_names_cannot_alias(self):
        """``1 == 1.0 == True`` as dict keys, three encodings on the
        wire: the prefix cache only ever holds exact strings."""
        engine = DigestEngine(DB_NAME)
        for bad in (1, 1.0, True, b"t", None):
            with pytest.raises(AuthenticationError):
                engine.row_attribute_values(bad, ("a",), 1, ("x",))
            with pytest.raises(AuthenticationError):
                engine.row_attribute_values("t", (bad,), 1, ("x",))
        assert not engine._prefixes

    def test_prefix_cache_is_bounded(self):
        from repro.core import digests

        engine = DigestEngine(DB_NAME)
        for i in range(digests._PREFIX_CACHE_MAX + 10):
            engine.row_attribute_values("t", (f"c{i}",), 1, ("x",))
        assert len(engine._prefixes) <= digests._PREFIX_CACHE_MAX
        assert engine.attribute_value("t", "c0", 1, "x") == DigestEngine(
            DB_NAME
        ).attribute_value("t", "c0", 1, "x")


#: name -> (hashes, bytes_hashed, combines, verifies) after verifying the
#: parsed wire form of ``golden_results[name]`` with a fresh meter.
PINNED_COST = {
    "full_row": (205, 11152, 49, 9),
    "projected": (78, 4836, 35, 10),
    "empty": (0, 0, 3, 4),
    "structured": (123, 7421, 72, 9),
    "nested": (123, 7749, 72, 9),
}

#: The same five while the tuple digest was the fold of its attribute
#: digests and every hidden attribute a signature to recover (the parent
#: commit; read off the per-attribute loop the kernel replaced).
PRODUCT_FORM_COST = {
    "full_row": (164, 7134, 172, 9),
    "projected": (52, 2288, 113, 62),
    "empty": (0, 0, 3, 4),
    "structured": (82, 3403, 236, 91),
    "nested": (82, 3731, 236, 91),
}


def test_row_hash_moved_the_pins_by_arithmetic(golden_results):
    """Per result row: one more hash (over exactly the row string), the
    ``N_c`` attribute folds replaced by nothing, and no recovery per
    hidden attribute.  FLAT_SET folded the ``N_c`` attribute digests
    straight into the envelope product where it now folds one tuple
    digest (``N_c - 1`` fewer); STRUCTURED built a tuple value from them
    first, counted as ``N_c`` multiplications, and that is gone whole."""
    from repro.core.vo import VOFormat

    assert sorted(PINNED_COST) == sorted(PRODUCT_FORM_COST) == sorted(golden_results)
    for name, (_policy, result) in golden_results.items():
        rows, n_c = len(result.rows), len(result.all_columns)
        hidden = n_c - len(result.columns)
        before, after = PRODUCT_FORM_COST[name], PINNED_COST[name]
        row_bytes = sum(
            len(row_string(DB_NAME, result.table, key, [1] * n_c)) for key in result.keys
        )
        folds = n_c - 1 if result.vo.format is VOFormat.FLAT_SET else n_c
        assert after == (
            before[0] + rows,
            before[1] + row_bytes,
            before[2] - folds * rows,
            before[3] - hidden * rows,
        ), name


@pytest.mark.parametrize("name", sorted(PINNED_COST))
def test_cost_meter_parity(golden_results, keypair, name):
    policy, result = golden_results[name]
    parsed = result_from_bytes(
        result_to_bytes(result, keypair.public.signature_len)
    )
    meter = CostMeter()
    verifier = ResultVerifier(
        DigestEngine(DB_NAME, policy=policy, meter=meter),
        public_key=keypair.public,
        meter=meter,
    )
    verdict = verifier.verify(parsed)
    assert verdict.ok
    assert (
        meter.hashes,
        meter.bytes_hashed,
        meter.combines,
        meter.verifies,
    ) == PINNED_COST[name]
    assert verdict.digests_decrypted == meter.verifies
    assert meter.signs == 0


@pytest.mark.parametrize("policy", list(DigestPolicy))
@pytest.mark.parametrize(
    "columns,pinned",
    [(None, (80, 3480, 80, 20)), (("id", "price"), (40, 1660, 80, 60))],
)
def test_naive_verifier_cost_parity(schema, keypair, policy, columns, pinned):
    rows = make_rows(schema, n=40)
    signing = SigningDigestEngine(
        DigestEngine(DB_NAME, policy=policy), DigestSigner.from_keypair(keypair)
    )
    store = NaiveStore.build(schema, rows, signing)
    meter = CostMeter()
    verifier = NaiveVerifier(
        DigestEngine(DB_NAME, policy=policy, meter=meter),
        public_key=keypair.public,
        meter=meter,
    )
    assert verifier.verify(store.build_result(rows[5:25], columns))
    assert (
        meter.hashes,
        meter.bytes_hashed,
        meter.combines,
        meter.verifies,
    ) == pinned
