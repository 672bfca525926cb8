"""Golden vectors for the result wire format.

The SHA-256 values below were taken from ``result_to_bytes`` *before*
the one-pass codec replaced the slice-per-value one; the codec may get
faster, the bytes may not change.  The decoder regressions at the bottom
are the deterministic form of the ``test_wire_fuzz`` byte-flip flake: a
corrupted count or a cut buffer must surface as ``VOFormatError`` /
``EncodingError``, never ``IndexError``."""

import hashlib
import struct

import pytest

from repro.core.wire import result_from_bytes, result_to_bytes
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
