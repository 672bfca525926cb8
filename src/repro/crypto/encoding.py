"""Canonical byte encoding for digest inputs and wire formats.

Formula (1) of the paper hashes the concatenation
``db | table | attr | key | value``.  A naive concatenation is ambiguous
(``"ab"+"c" == "a"+"bc"``), so every component here is length-prefixed
and type-tagged, giving an **injective** encoding: distinct value tuples
never encode to the same byte string.  The same primitives back the VO
wire format in :mod:`repro.core.wire`.

Supported scalar types: ``None``, ``bool``, ``int`` (arbitrary
precision), ``float``, ``str``, ``bytes``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

from repro.exceptions import EncodingError

__all__ = [
    "encode_value",
    "decode_value",
    "encode_values",
    "decode_values",
    "encode_uint",
    "decode_uint",
    "VALUE_HEADER",
    "decode_payload",
    "digest_input",
]

# One-byte type tags.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"

# The same tags as the ints that unpacking a buffer yields.
_NONE_TAG, _TRUE_TAG, _FALSE_TAG, _INT_TAG, _FLOAT_TAG, _STR_TAG, _BYTES_TAG = (
    tag[0]
    for tag in (
        _TAG_NONE, _TAG_TRUE, _TAG_FALSE, _TAG_INT, _TAG_FLOAT, _TAG_STR, _TAG_BYTES
    )
)

_U32 = struct.Struct(">I")
_pack_u32 = _U32.pack
#: ``tag | length`` — what precedes every payload.  Public, with
#: :func:`decode_payload`, for decoders that must refuse an announced
#: length *before* touching the payload (the frame schema's bounded
#: fields, :mod:`repro.edge.transport`).
VALUE_HEADER = struct.Struct(">BI")
_F64 = struct.Struct(">d")

# Whole encodings of the payload-free values.
_NONE = _TAG_NONE + _pack_u32(0)
_TRUE = _TAG_TRUE + _pack_u32(0)
_FALSE = _TAG_FALSE + _pack_u32(0)
_FLOAT_HEADER = _TAG_FLOAT + _pack_u32(8)


def encode_uint(value: int) -> bytes:
    """Encode a non-negative int as a 4-byte big-endian length/count field."""
    if value < 0 or value > 0xFFFFFFFF:
        raise EncodingError(f"uint out of range: {value}")
    return _pack_u32(value)


def decode_uint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a 4-byte big-endian uint; return ``(value, new_offset)``."""
    if offset + 4 > len(data):
        raise EncodingError("truncated uint field")
    return _U32.unpack_from(data, offset)[0], offset + 4


def encode_value(value: Any) -> bytes:
    """Canonically encode one scalar as ``tag | length | payload``.

    The encoding is injective across all supported types: the type tag
    separates namespaces and the length prefix removes concatenation
    ambiguity.  Exact types are dispatched first (the digest kernel and
    the result codec call this once per attribute); subclasses take the
    ``isinstance`` route to the same bytes.

    Raises:
        EncodingError: For unsupported types (including ``int``-like
            ``bool`` confusion — ``bool`` is tagged separately), for a
            ``str`` UTF-8 cannot encode (a lone surrogate), and for
            payloads whose length does not fit the 4-byte field.
    """
    cls = type(value)
    try:
        if cls is str:
            payload = value.encode("utf-8")
            return _TAG_STR + _pack_u32(len(payload)) + payload
        if cls is int:
            payload = value.to_bytes(
                (value.bit_length() + 8) // 8 or 1, "big", signed=True
            )
            return _TAG_INT + _pack_u32(len(payload)) + payload
        if cls is bytes:
            return _TAG_BYTES + _pack_u32(len(value)) + value
    except struct.error:
        raise EncodingError("payload too long for a 4-byte length") from None
    except UnicodeEncodeError as exc:
        raise EncodingError(f"str is not encodable as utf-8: {exc}") from None
    if cls is float:
        return _FLOAT_HEADER + _F64.pack(value)
    if value is None:
        return _NONE
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    if isinstance(value, int):
        return encode_value(int(value))
    if isinstance(value, float):
        return encode_value(float(value))
    if isinstance(value, str):
        return encode_value(str(value))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return encode_value(bytes(value))
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def decode_payload(tag: int, payload: bytes) -> Any:
    """Value of one ``tag | length | payload`` field; ``payload`` is
    already known to be whole.

    Only the canonical encoding of a value decodes: whatever this
    returns, :func:`encode_value` maps back to exactly ``tag | length |
    payload``, so decoding is injective and a verifier may hash the
    bytes it received in place of re-encoding what they decoded to.
    (Strict UTF-8 already refuses every other spelling of a ``str``.)

    Raises:
        EncodingError: On an unknown tag, bad UTF-8, or a payload that
            is not the one :func:`encode_value` writes for its value — an
            ``int`` with a redundant sign byte, a payload after ``N`` /
            ``T`` / ``F``, a float that does not pack back to itself.
    """
    if tag == _STR_TAG:
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"bad utf-8 payload: {exc}") from exc
    if tag == _INT_TAG:
        value = int.from_bytes(payload, "big", signed=True)
        if len(payload) != (value.bit_length() + 8) // 8:
            raise EncodingError("non-canonical int payload")
        return value
    if tag == _BYTES_TAG:
        return payload
    if tag == _NONE_TAG or tag == _TRUE_TAG or tag == _FALSE_TAG:
        if payload:
            raise EncodingError("payload after a payload-free tag")
        return None if tag == _NONE_TAG else tag == _TRUE_TAG
    if tag == _FLOAT_TAG:
        try:
            value = _F64.unpack(payload)[0]
        except struct.error as exc:
            raise EncodingError(f"bad float payload: {exc}") from exc
        if _F64.pack(value) != payload:
            raise EncodingError("float payload does not re-encode to itself")
        return value
    raise EncodingError(f"unknown type tag {bytes([tag])!r}")


def decode_value(data: bytes, offset: int = 0) -> tuple[Any, int]:
    """Decode one scalar encoded by :func:`encode_value`.

    Returns:
        ``(value, new_offset)``.

    Raises:
        EncodingError: On truncation or unknown tags.
    """
    if offset + 5 > len(data):
        raise EncodingError("truncated value: missing tag or length")
    tag, length = VALUE_HEADER.unpack_from(data, offset)
    start = offset + 5
    end = start + length
    if end > len(data):
        raise EncodingError("truncated value payload")
    return decode_payload(tag, data[start:end]), end


def encode_values(values: Iterable[Any]) -> bytes:
    """Encode a sequence of scalars with a leading count."""
    items = [encode_value(v) for v in values]
    return encode_uint(len(items)) + b"".join(items)


def decode_values(
    data: bytes, offset: int = 0, encodings: list[bytes] | None = None
) -> tuple[list[Any], int]:
    """Decode a sequence written by :func:`encode_values`; with
    ``encodings``, also append each value's ``tag | length | payload``
    slice to it — the bytes a verifier hashes in place of re-encoding
    the value (canonical decoding makes them the same)."""
    # decode_value's body, repeated in the loop: a call per value costs
    # a quarter more, and result rows are decoded a value at a time.
    count, cursor = decode_uint(data, offset)
    size = len(data)
    if count * 5 > size - cursor:
        raise EncodingError(f"{count} values cannot fit the remaining bytes")
    unpack = VALUE_HEADER.unpack_from
    out: list[Any] = []
    append = out.append
    try:
        for _ in range(count):
            tag, length = unpack(data, cursor)
            start = cursor + 5
            end = start + length
            if end > size:
                raise EncodingError("truncated value payload")
            append(decode_payload(tag, data[start:end]))
            if encodings is not None:
                encodings.append(data[cursor:end])
            cursor = end
    except struct.error:  # fewer than 5 bytes left for tag + length
        raise EncodingError("truncated value: missing tag or length") from None
    return out, cursor


def digest_input(
    db_name: str,
    table_name: str,
    attr_name: str,
    key: Any,
    value: Any,
) -> bytes:
    """Build the canonical byte string hashed by formula (1).

    ``h( db | table | attr | key | value )`` with every component
    length-prefixed so the mapping from the 5-tuple to bytes is
    injective.

    This is the executable specification of the digest input.  The
    live path builds the same bytes a result at a time in
    :meth:`repro.core.digests.DigestEngine.attribute_digests`
    (cached prefixes, each key encoded once) and is tested against this
    function.
    """
    return (
        encode_value(db_name)
        + encode_value(table_name)
        + encode_value(attr_name)
        + encode_value(key)
        + encode_value(value)
    )
