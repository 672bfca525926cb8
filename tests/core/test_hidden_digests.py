"""The surface one signature per tuple opened (DESIGN.md D5, §21): the
hidden attributes of a projection travel as a bare, positional block of
16-byte digests, and the column list a response declares decides where
every digest sits in the row the client hashes.  Every case goes over
the result wire — mutate, serialise, parse, verify — under each digest
policy and VO format that exist together (FLAT_SET is refused under
NESTED before any of this, ``test_query_verify``)."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.query_auth import QueryAuthenticator
from repro.core.verify import ResultVerifier
from repro.core.vo import VOFormat
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.crypto.encoding import encode_value
from repro.crypto.meter import CostMeter
from repro.exceptions import VOFormatError

from tests.core.conftest import DB_NAME, build_tree

WIDTH = 16
#: ``id`` and ``name`` come back; ``price`` and ``stock`` are hidden.
COLUMNS = ("id", "name")
HIDDEN = 2

COMBOS = [
    (DigestPolicy.FLATTENED, VOFormat.FLAT_SET),
    (DigestPolicy.FLATTENED, VOFormat.STRUCTURED),
    (DigestPolicy.NESTED, VOFormat.STRUCTURED),
]


@pytest.fixture(scope="module", params=COMBOS, ids=lambda c: f"{c[0].value}-{c[1].value}")
def combo(request, schema, keypair):
    policy, vo_format = request.param
    tree = build_tree(schema, keypair, policy, n=60)
    sig_len = keypair.public.signature_len

    def query(columns=COLUMNS, low=10, high=40):
        return QueryAuthenticator(tree).range_query(
            low=low, high=high, columns=columns, vo_format=vo_format
        )

    def verdict(result):
        """What a client makes of ``result`` after a trip over the wire."""
        meter = CostMeter()
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=policy, meter=meter),
            public_key=keypair.public,
            meter=meter,
        )
        return verifier.verify(result_from_bytes(result_to_bytes(result, sig_len)))

    return query, verdict


def _digest(block, row, slot):
    at = (row * HIDDEN + slot) * WIDTH
    return block[at : at + WIDTH]


def _with_digest(block, row, slot, digest):
    at = (row * HIDDEN + slot) * WIDTH
    return block[:at] + digest + block[at + WIDTH :]


class TestHiddenDigestTampering:
    def test_honest_projection_verifies_with_no_recovery_per_hidden_digest(self, combo):
        query, verdict = combo
        result = query()
        assert len(result.vo.projection_digests) == len(result.rows) * HIDDEN * WIDTH
        outcome = verdict(result)
        assert outcome.ok
        assert outcome.digests_decrypted == result.vo.digest_count()

    def test_forged_hidden_digest(self, combo):
        """Not even a *valid* digest of another value passes: the block
        is hashed as a string, so the only bytes that verify are the
        ones the central server hashed."""
        query, verdict = combo
        result = query()
        engine = DigestEngine(DB_NAME)
        forged = engine.attribute_digests(
            "items", ("price",), result.keys[:1], [[encode_value(10**6)]]
        )
        assert forged != _digest(result.vo.projection_digests, 0, 0)
        result.vo.projection_digests = _with_digest(
            result.vo.projection_digests, 0, 0, forged
        )
        outcome = verdict(result)
        assert not outcome.ok and outcome.reason.startswith("digest mismatch")

    def test_two_hidden_digests_swapped_within_a_row(self, combo):
        """The product the paper folded could not tell this apart."""
        query, verdict = combo
        result = query()
        block = result.vo.projection_digests
        price, stock = _digest(block, 3, 0), _digest(block, 3, 1)
        assert price != stock
        result.vo.projection_digests = _with_digest(
            _with_digest(block, 3, 0, stock), 3, 1, price
        )
        assert not verdict(result).ok

    def test_two_hidden_digests_swapped_across_rows(self, combo):
        query, verdict = combo
        result = query()
        block = result.vo.projection_digests
        first, second = _digest(block, 0, 1), _digest(block, 1, 1)
        assert first != second
        result.vo.projection_digests = _with_digest(
            _with_digest(block, 0, 1, second), 1, 1, first
        )
        assert not verdict(result).ok

    def test_visible_value_moved_by_a_permuted_schema(self, combo):
        """``all_columns`` is the name -> position map of the row hash:
        an edge that permutes it moves a returned value (and the hidden
        digests around it) to other positions, and the row no longer
        hashes to what was signed."""
        query, verdict = combo
        result = query(columns=("id", "price"))
        assert result.all_columns == ("id", "name", "price", "stock")
        result.all_columns = ("id", "name", "stock", "price")
        assert not verdict(result).ok
        result.all_columns = ("price", "name", "id", "stock")
        assert not verdict(result).ok

    @pytest.mark.parametrize("delta", [-WIDTH, -1, 1, WIDTH])
    def test_truncated_or_overlong_block_is_malformed(self, combo, delta):
        query, verdict = combo
        result = query()
        block = result.vo.projection_digests
        result.vo.projection_digests = (
            block[:delta] if delta < 0 else block + bytes(delta)
        )
        outcome = verdict(result)
        assert not outcome.ok and outcome.reason.startswith("malformed VO")
        assert outcome.digests_decrypted == 0  # refused before any recovery

    def test_block_on_a_full_row_result_is_malformed(self, combo):
        query, verdict = combo
        result = query(columns=None)
        assert result.vo.projection_digests == b""
        result.vo.projection_digests = bytes(WIDTH)
        assert verdict(result).reason.startswith("malformed VO")

    def test_projection_that_returns_no_column_still_binds_the_key(self, combo):
        query, verdict = combo
        result = query(columns=())
        assert result.rows == [()] * len(result.keys) and verdict(result).ok
        result.keys[0], result.keys[1] = result.keys[1], result.keys[0]
        assert not verdict(result).ok

    @given(position=st.integers(0, 10**9), xor=st.integers(1, 255))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_single_byte_change_inside_the_block_is_rejected(
        self, combo, position, xor
    ):
        query, verdict = combo
        result = query()
        assert verdict(result).ok
        block = bytearray(result.vo.projection_digests)
        block[position % len(block)] ^= xor
        tampered = copy.copy(result)
        tampered.vo = copy.copy(result.vo)
        tampered.vo.projection_digests = bytes(block)
        assert not verdict(tampered).ok
        assert verdict(result).ok  # the untouched result still verifies


class TestTheVerifierDoesNotTrustTheDeclaredSchema:
    """A positional row hash makes name -> position a security-relevant
    map, so the client checks that it *is* a map before using it.  One
    refusal each, through ``result_from_bytes``."""

    def _refused(self, combo, mutate, needle):
        query, verdict = combo
        result = query()
        mutate(result)
        outcome = verdict(result)
        assert not outcome.ok
        assert outcome.reason.startswith("malformed VO") and needle in outcome.reason
        assert outcome.digests_decrypted == 0

    def test_repeated_name_in_all_columns(self, combo):
        def mutate(result):
            result.all_columns = ("id", "name", "price", "price")

        self._refused(combo, mutate, "duplicate schema columns")

    def test_key_column_outside_all_columns(self, combo):
        def mutate(result):
            result.key_column = "rowid"

        self._refused(combo, mutate, "key column")

    def test_schema_without_columns(self, combo):
        def mutate(result):
            result.all_columns = result.columns = ()
            result.rows = [()] * len(result.keys)
            result.vo.projection_digests = b""

        self._refused(combo, mutate, "without columns")

    def test_dp_length_off_by_one_digest(self, combo):
        def mutate(result):
            result.vo.projection_digests += bytes(WIDTH)

        self._refused(combo, mutate, "D_P length")


def test_dp_length_beyond_the_buffer_is_refused_by_the_decoder(schema, keypair):
    """The block's length prefix is bounded against the bytes that
    remain, like every other count in the codec."""
    tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=60)
    result = QueryAuthenticator(tree).range_query(low=10, high=40, columns=COLUMNS)
    data = result_to_bytes(result, keypair.public.signature_len)
    at = len(data) - len(result.vo.projection_digests) - 4
    assert int.from_bytes(data[at : at + 4], "big") == len(result.vo.projection_digests)
    for forged in (len(result.vo.projection_digests) + 1, 0xFFFFFFFF):
        with pytest.raises(VOFormatError):
            result_from_bytes(data[:at] + forged.to_bytes(4, "big") + data[at + 4 :])
