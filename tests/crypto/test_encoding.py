"""Tests for the canonical injective value encoding."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    decode_uint,
    decode_value,
    decode_values,
    digest_input,
    encode_uint,
    encode_value,
    encode_values,
)
from repro.exceptions import EncodingError

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.floats(allow_nan=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)


class TestScalarRoundtrip:
    @given(scalars)
    @settings(max_examples=300)
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded)
        assert offset == len(encoded)
        if isinstance(value, float):
            assert math.isclose(decoded, value) or decoded == value
        else:
            assert decoded == value
            assert type(decoded) is type(value) or isinstance(value, memoryview)

    def test_bool_not_confused_with_int(self):
        assert encode_value(True) != encode_value(1)
        assert encode_value(False) != encode_value(0)

    def test_str_not_confused_with_bytes(self):
        assert encode_value("ab") != encode_value(b"ab")

    def test_negative_ints(self):
        for v in (-1, -255, -256, -(2**64)):
            decoded, _ = decode_value(encode_value(v))
            assert decoded == v

    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            encode_value([1, 2])

    def test_truncated_payload_raises(self):
        encoded = encode_value("hello")
        with pytest.raises(EncodingError):
            decode_value(encoded[:-2])

    def test_unknown_tag_raises(self):
        with pytest.raises(EncodingError):
            decode_value(b"Z" + encode_uint(0))


class TestInjectivity:
    @given(scalars, scalars)
    @settings(max_examples=300)
    def test_distinct_values_distinct_encodings(self, a, b):
        if a != b or type(a) is not type(b):
            if encode_value(a) == encode_value(b):
                # identical encodings are only acceptable for equal values
                assert a == b and type(a) is type(b)

    def test_concatenation_ambiguity_removed(self):
        # "ab"+"c" vs "a"+"bc" must differ once length-prefixed.
        assert encode_value("ab") + encode_value("c") != encode_value(
            "a"
        ) + encode_value("bc")


class TestSequences:
    @given(st.lists(scalars, max_size=10))
    @settings(max_examples=100)
    def test_values_roundtrip(self, values):
        # NaN-free floats only (strategy excludes NaN).
        encoded = encode_values(values)
        decoded, offset = decode_values(encoded)
        assert offset == len(encoded)
        assert len(decoded) == len(values)

    def test_empty_sequence(self):
        decoded, _ = decode_values(encode_values([]))
        assert decoded == []


class TestUint:
    def test_roundtrip(self):
        for v in (0, 1, 2**16, 2**32 - 1):
            assert decode_uint(encode_uint(v))[0] == v

    def test_out_of_range(self):
        with pytest.raises(EncodingError):
            encode_uint(-1)
        with pytest.raises(EncodingError):
            encode_uint(2**32)

    def test_truncated(self):
        with pytest.raises(EncodingError):
            decode_uint(b"\x00\x00")


class TestDigestInput:
    def test_all_components_matter(self):
        base = digest_input("db", "t", "a", 1, "v")
        assert digest_input("dbX", "t", "a", 1, "v") != base
        assert digest_input("db", "tX", "a", 1, "v") != base
        assert digest_input("db", "t", "aX", 1, "v") != base
        assert digest_input("db", "t", "a", 2, "v") != base
        assert digest_input("db", "t", "a", 1, "vX") != base

    def test_deterministic(self):
        assert digest_input("d", "t", "a", 5, b"blob") == digest_input(
            "d", "t", "a", 5, b"blob"
        )

    def test_component_shift_ambiguity(self):
        # Moving characters between adjacent fields must change the bytes.
        assert digest_input("db", "ta", "x", 0, "") != digest_input(
            "dbt", "a", "x", 0, ""
        )


class TestRefusals:
    """Satellite fixes: the encoder raises only ``EncodingError``, and
    only a value's one canonical encoding decodes."""

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "\udc80"])
    def test_unencodable_str_is_an_encoding_error(self, text):
        with pytest.raises(EncodingError, match="utf-8"):
            encode_value(text)

    @pytest.mark.parametrize(
        "encoded",
        [
            b"I" + encode_uint(2) + b"\x00\x05",  # 5 with a redundant sign byte
            b"I" + encode_uint(2) + b"\xff\xff",  # -1 likewise
            b"I" + encode_uint(1) + b"\x80",  # -128 is written in 2 bytes
            b"I" + encode_uint(0),  # 0 is written as one byte
            b"N" + encode_uint(1) + b"\x00",
            b"T" + encode_uint(2) + b"ab",
            b"F" + encode_uint(1) + b"\x01",
        ],
    )
    def test_non_canonical_encodings_are_refused(self, encoded):
        with pytest.raises(EncodingError):
            decode_value(encoded)
        with pytest.raises(EncodingError):
            decode_values(encode_uint(1) + encoded)

    def test_canonical_neighbours_still_decode(self):
        for value in (5, -1, -128, 0, 127, 128, None, True, False):
            assert decode_value(encode_value(value)) == (value, len(encode_value(value)))

    @given(
        st.one_of(
            st.binary(max_size=24),
            st.tuples(
                st.sampled_from(b"NTFIDSBZ"),
                st.binary(max_size=10),
            ).map(lambda tp: bytes([tp[0]]) + encode_uint(len(tp[1])) + tp[1]),
            scalars.map(encode_value),
        )
    )
    @settings(max_examples=500)
    def test_decoding_is_injective(self, data):
        """Every byte string the decoder accepts is exactly the encoding
        of what it returns — the property a verifier that hashes the
        received bytes in place of re-encoding rests on."""
        try:
            value, end = decode_value(data)
        except EncodingError:
            return
        assert data[:end] == encode_value(value)

    @given(st.lists(scalars, max_size=6))
    def test_decode_values_keeps_each_values_bytes(self, values):
        data = encode_values(values)
        slices = []
        decoded, end = decode_values(data, 0, slices)
        assert end == len(data) and len(decoded) == len(values)
        assert slices == [encode_value(v) for v in decoded]
