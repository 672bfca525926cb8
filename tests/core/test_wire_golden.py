"""Golden vectors for the result and delta wire formats.

The SHA-256 values below were taken from ``result_to_bytes`` and
``delta_to_bytes`` *before* the one-pass codecs replaced the
slice-per-value ones; a codec may get faster, the bytes may not change.
The decoder regressions are the deterministic form of the
``test_wire_fuzz`` byte-flip flake: a corrupted count or a cut buffer
must surface as ``VOFormatError`` / ``EncodingError``, never
``IndexError``."""

import hashlib
import struct

import pytest

from repro.core.wire import (
    delta_body_bytes,
    delta_from_bytes,
    delta_to_bytes,
    result_from_bytes,
    result_to_bytes,
)
from repro.exceptions import EncodingError, VOFormatError

#: name -> (wire length, SHA-256 of the wire bytes)
GOLDEN = {
    "full_row": (
        2365,
        "15aa7c01559934e66b4acdb96da490c7988e0366188e37495a76d670875e0711",
    ),
    "projected": (
        4984,
        "b75067871d12ec964941d098fd509c6c27bfa712a7150a4083ff0b41fba9a7df",
    ),
    "empty": (
        390,
        "f5bea5f824c037d27d31c33b0b76984712add0ca9884a376b7c10ad67c5ba026",
    ),
    "structured": (
        8718,
        "df58f8995f2a6a0bd733bdb7adc6b596aeb85a5c324f98aa65e5031ae63853fd",
    ),
    "nested": (
        8966,
        "5989f3c5608271a3434ca1dc7ed9f86c9e91c6858dd9c4bc86aa17f64d86abe8",
    ),
}

CLEAN = (VOFormatError, EncodingError)


@pytest.fixture(scope="module")
def sig_len(keypair):
    return keypair.public.signature_len


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenBytes:
    def test_bytes_frozen(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN[name]

    def test_round_trip_is_identity(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        parsed = result_from_bytes(data)
        assert parsed == result
        assert result_to_bytes(parsed, sig_len) == data


def _ds_count_offset(data: bytes, result, sig_len: int) -> int:
    """Offset of the 4-byte ``D_S`` count: everything after it is
    entries of known width, so count back from the end."""
    vo = result.vo
    assert vo.result_positions is None  # FLAT_SET: fixed-width entries
    entry = 1 + sig_len + 2
    tail = (
        4
        + entry * len(vo.selection_entries)
        + 4
        + entry * len(vo.projection_entries)
    )
    offset = len(data) - tail
    assert struct.unpack_from(">I", data, offset)[0] == len(vo.selection_entries)
    return offset


@pytest.mark.parametrize("name", ["full_row", "projected", "empty"])
class TestDecoderBounds:
    def test_truncated_right_after_ds_count(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        cut = _ds_count_offset(data, result, sig_len) + 4
        with pytest.raises(CLEAN):
            result_from_bytes(data[:cut])

    def test_ds_count_inflated_by_one(self, golden_results, sig_len, name):
        _policy, result = golden_results[name]
        data = result_to_bytes(result, sig_len)
        offset = _ds_count_offset(data, result, sig_len)
        count = len(result.vo.selection_entries) + 1
        with pytest.raises(CLEAN):
            result_from_bytes(
                data[:offset] + struct.pack(">I", count) + data[offset + 4 :]
            )



@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_prefix_rejected_cleanly(golden_results, sig_len, name):
    _policy, result = golden_results[name]
    data = result_to_bytes(result, sig_len)
    for cut in range(len(data)):
        with pytest.raises(CLEAN):
            result_from_bytes(data[:cut])


@pytest.mark.parametrize("name", ["structured", "nested"])
def test_structured_counts_inflated(golden_results, sig_len, name):
    """Every 4-byte field that equals one of the VO's counts, bumped by
    one or set to the maximum: a clean error or a parse, never a crash."""
    _policy, result = golden_results[name]
    data = result_to_bytes(result, sig_len)
    vo = result.vo
    counts = {
        len(vo.selection_entries),
        len(vo.projection_entries),
        len(vo.result_positions),
    }
    for offset in range(0, len(data) - 4):
        value = struct.unpack_from(">I", data, offset)[0]
        if value not in counts:
            continue
        for forged in (value + 1, 0xFFFFFFFF):
            mutated = data[:offset] + struct.pack(">I", forged) + data[offset + 4 :]
            try:
                result_from_bytes(mutated)
            except CLEAN:
                pass


# ---------------------------------------------------------------------------
# Sealed replica deltas
# ---------------------------------------------------------------------------

#: name -> (wire length, SHA-256 of the sealed payload)
GOLDEN_DELTAS = {
    "insert": (
        1490,
        "8dd480aba3fd9853cfcf70a620e14a256b179f0c188788d3ba0829f045cf7b60",
    ),
    "delete": (
        837,
        "f66f492179a92311023665101478a52a3a43a9dfcd925951f4118e7a69e43012",
    ),
    "secondary_delete": (
        676,
        "e23b72b8352ab3521f2ecbba358311f16edf2415c617f7251ad7029b40fef0d3",
    ),
    "batch_32_2": (
        18825,
        "90540befb1fb3726515c565e752654be877ee09269350e5d17c8822258c7476e",
    ),
    "structural": (
        4435,
        "b56301dfdacdac8f4849fb173842d863c2e6ae93ddc64e980288c7e6f639e93a",
    ),
}

@pytest.mark.parametrize("name", sorted(GOLDEN_DELTAS))
class TestGoldenDeltas:
    def test_bytes_frozen(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_DELTAS[name]

    def test_round_trip_is_identity(self, golden_deltas, sig_len, name):
        delta = golden_deltas[name]
        data = delta_to_bytes(delta, sig_len)
        parsed = delta_from_bytes(data)
        assert parsed == delta
        assert delta_to_bytes(parsed, sig_len) == data
        # The signed object is the payload minus its trailing signature.
        assert delta_body_bytes(parsed, sig_len) == data[: -(sig_len + 2)]

    def test_every_prefix_rejected_cleanly(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        for cut in range(len(data)):
            with pytest.raises(EncodingError):
                delta_from_bytes(data[:cut])

    def test_trailing_byte_rejected(self, golden_deltas, sig_len, name):
        data = delta_to_bytes(golden_deltas[name], sig_len)
        with pytest.raises(EncodingError):
            delta_from_bytes(data + b"\x00")

    def test_counts_inflated(self, golden_deltas, sig_len, name):
        """Every 4-byte field that equals one of the delta's counts,
        bumped by one or set to the maximum: a clean error or a parse,
        never a crash and never an allocation sized by the forged count."""
        delta = golden_deltas[name]
        data = delta_to_bytes(delta, sig_len)
        counts = {len(delta.ops), len(delta.node_updates), len(delta.freed_nodes)}
        counts |= {len(op.values) for op in delta.ops if op.values is not None}
        for offset in range(0, len(data) - 4):
            value = struct.unpack_from(">I", data, offset)[0]
            if value not in counts:
                continue
            for forged in (value + 1, 0xFFFFFFFF):
                mutated = (
                    data[:offset] + struct.pack(">I", forged) + data[offset + 4 :]
                )
                try:
                    delta_from_bytes(mutated)
                except EncodingError:
                    pass


def test_golden_deltas_cover_the_shapes(golden_deltas):
    """The vectors are only worth freezing if they reach every branch of
    the codec: both op kinds, scalar and composite delete keys, a
    coalesced batch, a structural delta with freed nodes."""
    from repro.core.delta import DeltaOpKind

    def kinds(delta):
        return [op.kind for op in delta.ops]

    assert kinds(golden_deltas["insert"]) == [DeltaOpKind.INSERT]
    assert kinds(golden_deltas["delete"]) == [DeltaOpKind.DELETE]
    assert golden_deltas["secondary_delete"].ops[0].key == (98, 14)
    batch = golden_deltas["batch_32_2"]
    assert kinds(batch) == [DeltaOpKind.INSERT] * 32 + [DeltaOpKind.DELETE] * 2
    assert (batch.lsn_first, batch.lsn_last) == (1, 34)
    structural = golden_deltas["structural"]
    assert structural.structural and structural.freed_nodes


@pytest.mark.parametrize("flag", [2, 0x80, 0xFF])
def test_non_canonical_structural_flag_rejected(golden_deltas, sig_len, flag):
    """The flag is one byte with two legal values; the edge no longer
    re-encodes what it parsed, so the decoder itself refuses the other
    254 (they used to collapse to ``True``)."""
    delta = golden_deltas["delete"]
    data = bytearray(delta_to_bytes(delta, sig_len))
    # sig_len | table value | 5 uints | flag
    offset = 4 + 5 + len(delta.table.encode()) + 20
    assert data[offset] == int(delta.structural)
    data[offset] = flag
    with pytest.raises(EncodingError):
        delta_from_bytes(bytes(data))
