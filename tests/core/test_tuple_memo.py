"""The tuple cache is a function cache and nothing else (DESIGN.md §34).

A :class:`~repro.core.verify.ResultVerifier` remembers, from every
result it accepted, each row's formula-(2) value under the exact bytes
that value was hashed from: the row's key encoding, its value encodings
and its stride of ``D_P``, within the result's ``(table, columns,
all_columns)``.  These tests hold that memory to what it may be: a
verifier that has accepted a great deal and one that has seen nothing
say the same thing about every result, honest or hostile; a row is
found only by the bytes hashed, never by the values; nothing from a
rejected result is kept; the cache stays inside its byte bound; and a
row met again is not hashed again.
"""

import pytest

from repro.core import verify as verify_module
from repro.core.digests import DigestPolicy
from repro.core.query_auth import QueryAuthenticator
from repro.core.vo import VOFormat
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.crypto.encoding import encode_value, encode_values
from repro.edge.adversary import (
    DropTuple,
    ResponseTamper,
    SpuriousTuple,
    ValueTamper,
)
from repro.exceptions import EncodingError, VOFormatError

from tests.core.conftest import flip_bit
from tests.core.test_recover_memo import (
    COMBO_IDS,
    COMBOS,
    ROWS,
    deployment,
    overlapping_queries,
    said,
    verifier_for,
)

PROJECTION = ("id", "a2")


def query(edge, vo_format, low, high, columns=None):
    return edge.range_query(
        "t", low=low, high=high, columns=columns, vo_format=vo_format
    ).result


def held(verifier):
    """The key bytes the tuple cache holds, counted from its entries."""
    return sum(len(row) for rows in verifier._tuples.values() for row in rows)


def remembered(verifier):
    """A copy of the tuple cache, for before/after comparison."""
    return {context: dict(rows) for context, rows in verifier._tuples.items()}


@pytest.fixture(scope="module", params=COMBOS, ids=COMBO_IDS)
def warm(request):
    """A deployment and a verifier that has accepted the whole table,
    full-row and projected, and 120 overlapping results besides — each
    also shown to a fresh verifier."""
    policy, vo_format = request.param
    central, edge = deployment(policy)
    verifier = verifier_for(central)
    for columns in (None, PROJECTION):
        assert verifier.verify(query(edge, vo_format, 0, ROWS, columns)).ok
    for result in overlapping_queries(edge, vo_format, 120):
        verdict = verifier.verify(result)
        assert verdict.ok
        assert said(verdict) == said(verifier_for(central).verify(result))
    assert held(verifier) <= verifier._held
    return central, edge, verifier, vo_format


class TestWarmEqualsCold:
    """Whatever a warm verifier says, a fresh one says."""

    def agree(self, central, verifier, result, ok):
        verdict = verifier.verify(result)
        assert said(verdict) == said(verifier_for(central).verify(result))
        assert verdict.ok is ok
        return verdict

    @pytest.mark.parametrize("columns", [None, PROJECTION], ids=["full", "projected"])
    def test_every_in_flight_interceptor(self, warm, columns):
        central, edge, verifier, vo_format = warm
        bounds = dict(low=100, high=130, columns=columns, vo_format=vo_format)
        adversaries = [
            (ResponseTamper(row_index=0, column_index=1, new_value="evil"), False),
            (DropTuple(table="t", index=2, cover=False), False),
        ]
        if vo_format is VOFormat.FLAT_SET:
            # The documented boundary: a covered drop is a correct
            # smaller answer under the unordered format.
            adversaries.append((DropTuple(table="t", index=2, cover=True), True))
        for adversary, ok in adversaries:
            adversary.install(edge)
            try:
                result = edge.range_query("t", **bounds).result
                self.agree(central, verifier, result, ok)
            finally:
                edge.clear_interceptors()
        self.agree(central, verifier, edge.range_query("t", **bounds).result, True)

    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    def test_at_rest_tampering(self, policy, vo_format):
        # Own deployment: these adversaries rewrite the replica.
        central, edge = deployment(policy)
        verifier = verifier_for(central)
        for columns in (None, PROJECTION):
            assert verifier.verify(query(edge, vo_format, 0, ROWS, columns)).ok
        ValueTamper(table="t", key=50, column="a1", new_value="evil").apply(edge)
        SpuriousTuple(table="t", row_values=(1000, "f", "a", "k", "e")).apply(edge)
        for low, high, ok in ((40, 60, False), (990, 1010, False), (80, 100, True)):
            for columns in (None, PROJECTION):
                result = query(edge, vo_format, low, high, columns)
                self.agree(central, verifier, result, ok)

    @pytest.mark.parametrize("columns", [None, PROJECTION], ids=["full", "projected"])
    def test_every_flipped_row_byte(self, warm, columns):
        """Each byte of a remembered 3-row result that the row hash
        reads — every value's encoding, every key's, ``D_P`` — flipped on
        the wire: what the decoder passes, warm and cold refuse alike."""
        central, edge, verifier, vo_format = warm
        result = query(edge, vo_format, 40, 42, columns)
        assert verifier.verify(result).ok and len(result.rows) == 3
        data = result_to_bytes(result, central.public_key.signature_len)
        spans, at = [], 0
        for part in [*map(result.encoding_of, result.rows), encode_values(result.keys)]:
            at = data.index(part, at)
            spans.append(range(at + 4, at + len(part)))
            at += len(part)
        block = result.vo.projection_digests
        if block:
            start = data.index(block, at)
            spans.append(range(start, start + len(block)))
        shown = 0
        for i in (i for span in spans for i in span):
            for mask in (0x01, 0xFF):
                flipped = bytearray(data)
                flipped[i] ^= mask
                try:
                    parsed = result_from_bytes(bytes(flipped))
                except (VOFormatError, EncodingError):
                    continue
                self.agree(central, verifier, parsed, False)
                shown += 1
        assert shown > sum(map(len, spans)) // 2
        assert verifier.verify(result_from_bytes(data)).ok


class TestKeyedByTheBytesHashed:
    """A row is found by the exact bytes its value is a function of."""

    def test_a_remembered_row_with_one_value_byte_changed(self, warm):
        central, edge, verifier, vo_format = warm
        result = query(edge, vo_format, 60, 66)
        assert verifier.verify(result).ok
        data = result_to_bytes(result, central.public_key.signature_len)
        # The last byte of row 3's wire form ends its last value, a text
        # one; its low bit flipped keeps it text.
        wire = result.encoding_of(result.rows[3])
        changed = bytearray(data)
        changed[data.index(wire) + len(wire) - 1] ^= 0x01
        tampered = result_from_bytes(bytes(changed))
        assert tampered.rows[3] != result.rows[3]
        assert tampered.rows[:3] == result.rows[:3]
        verdict = verifier.verify(tampered)
        assert verdict.reason.startswith("digest mismatch")
        assert said(verdict) == said(verifier_for(central).verify(tampered))

    def test_a_carried_encoding_that_disagrees_with_its_row(self, warm):
        """The honest row is remembered; the same row object, carrying
        another value's encoding, is hashed over what it carries and
        refused — a cache keyed by the row's values would accept it."""
        central, edge, verifier, vo_format = warm
        result = query(edge, vo_format, 70, 75)
        assert verifier.verify(result).ok
        row = result.rows[2]
        entry_row, wire, slices = result.encodings[id(row)]
        assert entry_row is row
        forged = [*slices[:1], encode_value("evil"), *slices[2:]]
        result.encodings[id(row)] = (row, wire, forged)
        verdict = verifier.verify(result)
        assert verdict.reason.startswith("digest mismatch")
        assert said(verdict) == said(verifier_for(central).verify(result))

    def test_an_in_process_result_encoded_afresh_is_a_hit(self, warm):
        """A built (never serialised) result carries no value slices; its
        fresh encodings are the decoded rows' bytes, so it hits."""
        central, _edge, _verifier, vo_format = warm
        verifier = verifier_for(central)
        built = QueryAuthenticator(central.vbtrees["t"]).range_query(
            low=10, high=30, vo_format=vo_format
        )
        decoded = result_from_bytes(
            result_to_bytes(built, central.public_key.signature_len)
        )
        assert verifier.verify(decoded).ok
        before = remembered(verifier)
        assert verifier.verify(built).ok
        assert remembered(verifier) == before


    def test_a_column_name_that_is_not_exactly_a_string(self, warm):
        """A ``str`` subclass equal to a remembered column name: refused
        by the structural checks, warm as cold, before any cache (the
        engine's prefix cache, keyed by equality, used to let a warm
        engine pass what a fresh one refused)."""

        class Name(str):
            pass

        central, edge, verifier, vo_format = warm
        result = query(edge, vo_format, 10, 20, PROJECTION)
        assert verifier.verify(result).ok
        result.columns = (Name(PROJECTION[0]), *PROJECTION[1:])
        verdict = verifier.verify(result)
        assert verdict.reason.startswith("malformed VO")
        assert said(verdict) == said(verifier_for(central).verify(result))


class TestRejectedStoresNothing:
    """Only an accepted result's rows are kept."""

    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    def test_honest_rows_under_a_bad_signature(self, policy, vo_format):
        central, edge = deployment(policy)
        verifier = verifier_for(central)
        for columns in (None, PROJECTION):
            result = query(edge, vo_format, 20, 40, columns)
            result.vo.top_signed = flip_bit(result.vo.top_signed, 3)
            assert not verifier.verify(result).ok
            assert verifier._tuples == {} and verifier._held == 0

    def test_a_warm_cache_is_unchanged_by_rejections(self, warm):
        central, edge, verifier, vo_format = warm
        before, charged = remembered(verifier), verifier._held
        adversary = ResponseTamper(row_index=1, column_index=2, new_value="evil")
        adversary.install(edge)
        try:
            for low in (5, 95, 185):
                assert not verifier.verify(query(edge, vo_format, low, low + 9)).ok
        finally:
            edge.clear_interceptors()
        # Remembered rows under a signature that no longer holds.
        result = query(edge, vo_format, 30, 50, PROJECTION)
        result.vo.top_signed = flip_bit(result.vo.top_signed, 7)
        assert not verifier.verify(result).ok
        assert remembered(verifier) == before and verifier._held == charged


class TestBound:
    """The cache never holds more than its constant, and forgetting
    changes no verdict."""

    def test_the_benchmark_table_fits(self):
        # 2 000 rows of 10 × 20 B, whole and projected: at most 7 B of
        # key and 10 × 25 B of values a row each time.
        assert verify_module._TUPLES_MAX_BYTES >= 2 * 2000 * (7 + 10 * 25)

    def test_held_bytes_never_pass_the_constant(self, monkeypatch):
        cap = 6000
        monkeypatch.setattr(verify_module, "_TUPLES_MAX_BYTES", cap)
        central, edge = deployment(DigestPolicy.FLATTENED)
        verifier = verifier_for(central)
        clears = 0
        for low in range(0, ROWS, 7):
            for columns in (None, PROJECTION):
                before = verifier._held
                result = query(edge, VOFormat.FLAT_SET, low, low + 9, columns)
                verdict = verifier.verify(result)
                assert verdict.ok
                assert said(verdict) == said(verifier_for(central).verify(result))
                assert held(verifier) <= verifier._held <= cap
                clears += verifier._held < before
        assert clears >= 3
        # A result that alone would pass the bound is accepted, not kept.
        verifier._tuples.clear()
        verifier._held = 0
        assert verifier.verify(query(edge, VOFormat.FLAT_SET, 0, ROWS)).ok
        assert verifier._tuples == {} and verifier._held == 0


class TestHashedOnce:
    """A warm verify of an honest result makes no hash: every row is
    remembered, and ``D_S`` / ``D_N`` are signatures, not hashes."""

    @pytest.mark.parametrize("policy, vo_format", COMBOS, ids=COMBO_IDS)
    @pytest.mark.parametrize("columns", [None, PROJECTION], ids=["full", "projected"])
    def test_no_hashes_on_a_warm_reverify(self, policy, vo_format, columns):
        central, edge = deployment(policy)
        client = central.make_client()
        result = query(edge, vo_format, 100, 140, columns)
        first = client.verify(result)
        hashes = client.meter.hashes
        assert first.ok and hashes > 0
        for again in (result, query(edge, vo_format, 100, 140, columns)):
            verdict = client.verify(again)
            assert verdict.ok and client.meter.hashes == hashes
            # Every signature is still recovered (recalled) on a hit.
            assert verdict.digests_recalled == again.vo.digest_count()
        # A wider answer hashes only the rows it adds.
        wider = query(edge, vo_format, 100, 150, columns)
        assert client.verify(wider).ok
        fresh = central.make_client()
        assert fresh.verify(wider).ok
        assert 0 < client.meter.hashes - hashes < fresh.meter.hashes
