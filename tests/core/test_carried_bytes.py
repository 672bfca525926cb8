"""Bytes stay bytes on the query path (DESIGN.md §27, §29).

An edge writes a served row as the wire form the row memoised; a client
hashes the bytes each value arrived as.  These tests hold the shortcut
to what re-encoding would have done: the wire bytes are the same with or
without anything carried, a carried encoding counts only for the very
tuple object it was made from, every adversary is rejected whether or
not the rows it touches were memoised first, every byte a client hashes
counts, and a result carrying objects the codec cannot encode is a
verdict, not an exception.
"""

import dataclasses
import decimal
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.query_auth import QueryAuthenticator
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.crypto.encoding import encode_value, encode_values
from repro.crypto.meter import CostMeter
from repro.crypto.signatures import SignedDigest
from repro.edge.adversary import DropTuple, ResponseTamper, SpuriousTuple, ValueTamper
from repro.exceptions import EncodingError, VOFormatError

from tests.core.test_recover_memo import (
    COMBO_IDS,
    COMBOS,
    ROWS,
    deployment,
    said,
    verifier_for,
)

PROJECTION = ("id", "a2")


@pytest.fixture(scope="module", params=COMBOS, ids=COMBO_IDS)
def combo(request):
    policy, vo_format = request.param
    central, edge = deployment(policy)
    return central, edge, vo_format


def _decoded(edge, vo_format, low, high, columns=None):
    return edge.range_query(
        "t", low=low, high=high, columns=columns, vo_format=vo_format
    ).result


class TestWireBytesDoNotMove:
    @given(
        low=st.integers(0, ROWS - 1),
        span=st.integers(0, 80),
        projected=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_bytes_with_or_without_carried_encodings(
        self, combo, low, span, projected
    ):
        central, edge, vo_format = combo
        sig_len = central.public_key.signature_len
        columns = PROJECTION if projected else None
        built = QueryAuthenticator(edge.replica("t")).range_query(
            low=low, high=low + span, columns=columns, vo_format=vo_format
        )
        assert bool(built.encodings) is (not projected and bool(built.rows))
        data = result_to_bytes(built, sig_len)
        built.encodings = {}
        assert result_to_bytes(built, sig_len) == data
        decoded = result_from_bytes(data)
        assert len(decoded.encodings) == len(decoded.rows)
        assert result_to_bytes(decoded, sig_len) == data
        decoded.encodings = {}
        assert result_to_bytes(decoded, sig_len) == data

    def test_a_served_row_memoises_its_wire_form(self, combo):
        _central, edge, vo_format = combo
        replica = edge.replica("t")
        _decoded(edge, vo_format, 10, 20)
        row = replica.get_row(15)
        assert row.encoding is row.encoding == encode_values(row.values)


class TestIdentityBinding:
    """A carried encoding is used only for the tuple object it belongs to."""

    @pytest.mark.parametrize("columns", [None, PROJECTION], ids=["full", "projected"])
    def test_a_replaced_row_tuple_is_rejected(self, combo, columns):
        central, edge, vo_format = combo
        result = _decoded(edge, vo_format, 30, 50, columns)
        verifier = verifier_for(central)
        assert verifier.verify(result).ok
        i = 3
        tampered = list(result.rows[i])
        tampered[1] = "not what the central signed"
        result.rows[i] = tuple(tampered)
        verdict = verifier.verify(result)
        assert not verdict.ok and verdict.reason.startswith("digest mismatch")
        assert said(verdict) == said(verifier_for(central).verify(result))

    def test_swapped_row_tuples_are_rejected(self, combo):
        central, edge, vo_format = combo
        result = _decoded(edge, vo_format, 30, 50)
        result.rows[2], result.rows[5] = result.rows[5], result.rows[2]
        assert not verifier_for(central).verify(result).ok

    def test_an_equal_copy_is_encoded_afresh_and_verifies(self, combo):
        central, edge, vo_format = combo
        result = _decoded(edge, vo_format, 30, 50)
        result.rows = [tuple(list(row)) for row in result.rows]
        assert all(result.encoding_of(row) is None for row in result.rows)
        assert verifier_for(central).verify(result).ok


class TestAdversariesMemoisedOrNot:
    """Every detected adversary stays detected when the rows it touches
    were served (and memoised) before it struck."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "memoised"])
    @pytest.mark.parametrize(
        "make, low, high",
        [
            (lambda: ValueTamper(table="t", key=45, column="a1", new_value="evil"), 40, 50),
            (lambda: ResponseTamper(row_index=2, column_index=1, new_value="evil"), 40, 50),
            (lambda: DropTuple(table="t", index=2, cover=False), 40, 50),
            (lambda: SpuriousTuple(table="t", row_values=(1000, "f", "a", "k", "e")), 990, 1010),
        ],
        ids=["ValueTamper", "ResponseTamper", "DropTuple", "SpuriousTuple"],
    )
    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    def test_rejected(self, policy, vo_format, make, low, high, warm):
        central, edge = deployment(policy)
        verifier = verifier_for(central)
        if warm:
            result = _decoded(edge, vo_format, 0, 2000)
            assert verifier.verify(result).ok and len(result.rows) == ROWS
        adversary = make()
        if hasattr(adversary, "apply"):
            adversary.apply(edge)
        else:
            adversary.install(edge)
        result = _decoded(edge, vo_format, low, high)
        verdict = verifier.verify(result)
        assert not verdict.ok
        assert said(verdict) == said(verifier_for(central).verify(result))


class TestSignatureWidth:
    def test_wrong_width_is_refused_before_any_pow(self, combo):
        central, edge, vo_format = combo
        meter = CostMeter()
        verifier = verifier_for(central, meter=meter)
        result = _decoded(edge, vo_format, 30, 50)
        assert verifier.verify(result).ok  # D_S now recalled, not decrypted
        pows = meter.verifies
        top = result.vo.top_signed
        for odd in (SignedDigest(top[1:]), SignedDigest(b"\x00" + top)):
            result.vo.top_signed = odd
            verdict = verifier.verify(result)
            assert verdict.reason == "bad signature: signed digest is not the key's width"
            assert verdict.digests_decrypted == 0 and meter.verifies == pows

    def test_signed_digests_decode_as_slices_of_the_payload(self, combo):
        central, edge, vo_format = combo
        sig_len = central.public_key.signature_len
        result = _decoded(edge, vo_format, random.Random(3).randrange(ROWS), ROWS)
        data = result_to_bytes(result, sig_len)
        for signed in (result.vo.top_signed, *(e.signed for e in result.vo.selection_entries)):
            assert type(signed) is SignedDigest and len(signed) == sig_len + 2
            assert signed in data


class TestEveryByteCounts:
    """Every byte of a 3-row result that formula (1) or (2) reads — each
    value's encoding, each key's, and ``D_P`` — flipped on the wire, one
    at a time: each flip is refused, by the decoder or by the verifier,
    whether or not the rows were served (memoised) and the verifier
    warmed before."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "memoised"])
    @pytest.mark.parametrize("columns", [None, PROJECTION], ids=["full", "projected"])
    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    def test_every_flip_is_rejected(self, policy, vo_format, columns, warm):
        central, edge = deployment(policy)
        warm_verifier = verifier_for(central)
        if warm:
            assert warm_verifier.verify(_decoded(edge, vo_format, 0, 2000)).ok
        result = _decoded(edge, vo_format, 40, 42, columns)
        assert len(result.rows) == 3 and warm_verifier.verify(result).ok
        data = result_to_bytes(result, central.public_key.signature_len)
        spans, at = [], 0
        # Each row's wire form and the keys' are ``count | enc(v) …``;
        # the values start after the count.
        for part in [*map(result.encoding_of, result.rows), encode_values(result.keys)]:
            at = data.index(part, at)
            spans.append(range(at + 4, at + len(part)))
            at += len(part)
        block = result.vo.projection_digests
        assert bool(block) is (columns is not None)
        if block:
            spans.append(range(data.index(block, at), data.index(block, at) + len(block)))
        verified = 0
        for i in (i for span in spans for i in span):
            # The low bit keeps text text (a value the verifier must
            # refuse); all eight bits mostly break the encoding (one the
            # decoder must).
            for mask in (0x01, 0xFF):
                flipped = bytearray(data)
                flipped[i] ^= mask
                try:
                    parsed = result_from_bytes(bytes(flipped))
                except (VOFormatError, EncodingError):
                    continue
                verifier = warm_verifier if warm else verifier_for(central)
                verdict = verifier.verify(parsed)
                assert not verdict.ok, f"byte {i} ^ {mask:#x} accepted"
                verified += 1
        assert verified > sum(map(len, spans)) // 2


class _Opaque:
    """An object no codec knows."""


#: Objects of every kind an in-process caller could put in a result:
#: scalars (mostly not the ones the central signed), containers, a lone
#: surrogate, numbers the codec has no tag for, and plain objects.
anything = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.lists(st.integers(), max_size=3),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.frozensets(st.integers(), max_size=3),
    st.complex_numbers(allow_nan=False),
    st.decimals(allow_nan=False),
    st.builds(object),
    st.builds(_Opaque),
    st.builds(bytearray, st.binary(max_size=8)),
)


def _encodes_like(obj, original):
    try:
        return encode_value(obj) == encode_value(original)
    except EncodingError:
        return False


class TestForeignObjectsAreAVerdict:
    """``ResultVerifier.verify`` returns a verdict rather than raising —
    also for an in-process result whose rows or keys hold objects the
    codec cannot encode."""

    @given(
        obj=anything,
        row=st.integers(0, 5),
        column=st.integers(0, 4),
        into_key=st.booleans(),
        projected=st.booleans(),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_never_accepted_never_raised(
        self, combo, obj, row, column, into_key, projected
    ):
        central, edge, vo_format = combo
        result = _decoded(edge, vo_format, 60, 65, PROJECTION if projected else None)
        column %= len(result.columns)
        original = result.keys[row] if into_key else result.rows[row][column]
        assume(not _encodes_like(obj, original))
        rows, keys = list(result.rows), list(result.keys)
        if into_key:
            keys[row] = obj
        else:
            values = list(rows[row])
            values[column] = obj
            rows[row] = tuple(values)
        tampered = dataclasses.replace(result, rows=rows, keys=keys)
        verdict = verifier_for(central).verify(tampered)
        assert verdict.ok is False

    @pytest.mark.parametrize(
        "obj",
        [["x"], object(), (1, 2), "\ud800", decimal.Decimal(1), 1j, {"a": 1}],
        ids=["list", "object", "tuple", "surrogate", "decimal", "complex", "dict"],
    )
    @pytest.mark.parametrize("into_key", [False, True], ids=["value", "key"])
    def test_unencodable_is_a_malformed_vo(self, combo, obj, into_key):
        central, edge, vo_format = combo
        result = _decoded(edge, vo_format, 60, 65)
        if into_key:
            tampered = dataclasses.replace(result, keys=[obj, *result.keys[1:]])
        else:
            first = (result.rows[0][0], obj, *result.rows[0][2:])
            tampered = dataclasses.replace(
                result, rows=[first, *result.rows[1:]], encodings={}
            )
        verdict = verifier_for(central).verify(tampered)
        assert not verdict.ok and verdict.reason.startswith("malformed VO")
