"""The frame layer, tested from its one definition.

``repro.edge.transport.FRAMES`` declares every frame as data; nothing
below names a frame or a field.  The golden vectors
(``tests/edge/golden_frames.py``, frozen against the hand-written codec
before it was replaced) pin the bytes; everything else is derived from
the table: hypothesis strategies are keyed by **primitive**, a frame
strategy is whatever its schema row says, and the properties are the
decoder's whole contract — round trip; every prefix and one trailing
byte refused (the only prefixes that may parse are the two documented
optional-trailing boundaries); any mutation yields a frame or a
``TransportError`` and nothing else; every length and count above its
bound refused, by the encoder too.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import encode_uint, encode_value
from repro.edge import transport
from repro.edge.transport import (
    FRAMES,
    MAX_FRAME_BYTES,
    FrameSpec,
    frame_from_bytes,
    frame_kind,
    frame_limit,
    frame_to_bytes,
)
from repro.exceptions import TransportError

from tests.edge.golden_frames import GOLDEN_FRAMES, MISTYPED_FRAMES

# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_golden_frame_bytes_frozen(name):
    """(Their round trip is ``test_transport.TestFrameCodec``.)"""
    frame, length, digest = GOLDEN_FRAMES[name]
    data = frame_to_bytes(frame)
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)


def test_golden_frames_cover_every_row_and_both_trailing_groups():
    frames = [frame for frame, _len, _sha in GOLDEN_FRAMES.values()]
    assert {type(f) for f in frames} == {spec.cls for spec in FRAMES}
    assert any(getattr(f, "role", "edge") != "edge" for f in frames)
    assert any(getattr(f, "shard_map", None) is not None for f in frames)


# ---------------------------------------------------------------------------
# Strategies, one per primitive — a new frame or field needs nothing
# here; a new primitive needs its one entry (and the test below says so)
# ---------------------------------------------------------------------------

_names = st.text(max_size=24)
_uints = st.integers(0, 2**32 - 1)
_shard_ints = st.integers(-(2**63), 2**63 - 1)
_cursors = st.lists(st.tuples(_names, _uints, _uints), max_size=5).map(tuple)
_shard_maps = st.tuples(
    _uints, _uints, _shard_ints,
    st.lists(
        st.tuples(
            _names,
            st.sampled_from(("hash", "range")),
            st.lists(_shard_ints, max_size=4).map(tuple),
        ),
        max_size=4,
    ).map(tuple),
)

STRATEGIES = {
    transport.UINT: _uints,
    transport.FLAG: st.booleans(),
    transport.NAME: _names,
    transport.OPT_NAME: st.none() | _names,
    transport.TEXT: st.text(max_size=200),
    transport.PAYLOAD: st.binary(max_size=300),
    transport.OPT_BYTES: st.none() | st.binary(max_size=64),
    transport.SCALAR: (
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=40) | st.binary(max_size=40)
    ),
    transport.CURSORS: _cursors,
    transport.COLUMNS: st.none() | st.lists(_names, max_size=6).map(tuple),
    transport.EPOCHS: st.lists(
        st.tuples(*[st.integers(-1, 2**1024)] * 5), max_size=3
    ).map(tuple),
    # The group primitive yields both of its fields.
    transport.SHARDS: st.just((-1, None))
    | st.tuples(st.integers(-1, 2**31), _shard_maps),
    transport.ROLE: st.sampled_from(transport._ROLES),
}

#: Primitives whose field may be absent at the end of a frame — where a
#: prefix of a valid frame is itself a valid (shorter) frame.
TRAILING = (transport.ROLE, transport.SHARDS)


def _build(spec: FrameSpec, values) -> object:
    flat = []
    for (name, _prim, _meaning), value in zip(spec.fields, values, strict=True):
        flat.extend(value if len(name.split()) > 1 else (value,))
    return spec.cls(*flat)


def _frames_of(spec: FrameSpec):
    return st.tuples(
        *[STRATEGIES[prim] for _name, prim, _meaning in spec.fields]
    ).map(lambda values: _build(spec, values))


frames = st.sampled_from(FRAMES).flatmap(_frames_of)


def test_every_primitive_in_the_table_has_a_strategy():
    used = {prim for spec in FRAMES for _n, prim, _m in spec.fields}
    assert used <= set(STRATEGIES)


@pytest.mark.parametrize("spec", FRAMES, ids=lambda s: s.cls.__name__)
def test_the_strategy_generates_every_shape(spec):
    """Each row's strategy reaches what the twelve hand-listed
    round-trip cases used to pin: defaults and non-defaults of every
    optional field, both trailing groups present and absent."""
    seen = {name: set() for name, _p, _m in spec.fields}

    @given(_frames_of(spec))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def collect(frame):
        for name in seen:
            value = getattr(frame, name.split()[-1])
            seen[name].add(value is None or value in ((), "", b"", "edge", 0))

    collect()
    for name, (_n, prim, _m) in zip(seen, spec.fields, strict=True):
        if prim is not transport.FLAG:
            assert seen[name] == {True, False}, name


# ---------------------------------------------------------------------------
# The decoder's contract
# ---------------------------------------------------------------------------


def _decodes(data: bytes):
    """The frame ``data`` parses to, or ``None`` for a TransportError —
    any other exception propagates and fails the test."""
    try:
        return frame_from_bytes(data)
    except TransportError:
        return None


def _without_trailing(frame):
    """``frame`` with its optional-trailing fields at their defaults."""
    spec = next(s for s in FRAMES if s.cls is type(frame))
    defaults = {
        field.name: field.default
        for name, prim, _m in spec.fields if prim in TRAILING
        for field in dataclasses.fields(frame) if field.name in name.split()
    }
    return dataclasses.replace(frame, **defaults)


@given(frames)
@settings(max_examples=400, deadline=None)
def test_round_trip(frame):
    data = frame_to_bytes(frame)
    assert frame_from_bytes(data) == frame
    assert len(data) <= frame_limit(type(frame)) <= MAX_FRAME_BYTES
    assert frame_kind(frame) in {
        "snapshot", "delta", "ack", "query", "payload", "control"
    }


@given(frames)
@settings(max_examples=150, deadline=None)
def test_every_prefix_and_a_trailing_byte_are_refused(frame):
    data = frame_to_bytes(frame)
    assert _decodes(data + b"\x00") is None
    shorter = frame_to_bytes(_without_trailing(frame))
    for cut in range(len(data)):
        parsed = _decodes(data[:cut])
        if parsed is not None:
            # Only at an optional-trailing boundary, and only to the
            # frame that boundary encodes.
            assert data[:cut] == shorter and parsed == _without_trailing(frame)


@given(frames, st.data())
@settings(max_examples=400, deadline=None)
def test_a_flipped_byte_yields_a_frame_or_a_transport_error(frame, draw):
    data = bytearray(frame_to_bytes(frame))
    position = draw.draw(st.integers(0, len(data) - 1))
    data[position] ^= draw.draw(st.integers(1, 255))
    parsed = _decodes(bytes(data))
    if parsed is not None:
        # decode(encode(decode(b))) == decode(b): what the decoder lets
        # through, the encoder accepts and reproduces (compared as
        # bytes too — a flipped float may be a NaN).
        again = frame_to_bytes(parsed)
        assert frame_to_bytes(frame_from_bytes(again)) == again


@given(st.binary(max_size=200))
@settings(max_examples=400, deadline=None)
def test_arbitrary_bytes_yield_a_frame_or_a_transport_error(data):
    parsed = _decodes(data)
    if parsed is not None:
        assert _decodes(frame_to_bytes(parsed)) is not None


# ---------------------------------------------------------------------------
# Bounds — per primitive: a well-formed field one past its bound
# ---------------------------------------------------------------------------

_name_256 = "x" * (transport.MAX_NAME_BYTES + 1)
_cursor = encode_value("t") + encode_uint(1) + encode_uint(0)
_int = encode_value(1)
_many_shard_entries = tuple(
    (f"t{i}", "hash", (0,)) for i in range(transport.MAX_CURSORS + 1)
)
_wide_shard_entry = (("t", "range", tuple(range(transport.MAX_SHARDS + 1))),)

#: primitive -> [(over-bound value, its would-be wire bytes), ...]
OVER_BOUND = {
    transport.NAME: [(_name_256, encode_value(_name_256))],
    transport.OPT_NAME: [(_name_256, encode_value(_name_256))],
    transport.TEXT: [
        ("e" * (transport.MAX_TEXT_BYTES + 1),
         encode_value("e" * (transport.MAX_TEXT_BYTES + 1))),
    ],
    transport.OPT_BYTES: [
        (b"p" * (transport.MAX_SCALAR_BYTES + 1),
         encode_value(b"p" * (transport.MAX_SCALAR_BYTES + 1))),
    ],
    transport.SCALAR: [
        ("s" * (transport.MAX_SCALAR_BYTES + 1),
         encode_value("s" * (transport.MAX_SCALAR_BYTES + 1))),
        (1 << (8 * transport.MAX_SCALAR_BYTES),
         encode_value(1 << (8 * transport.MAX_SCALAR_BYTES))),
    ],
    transport.CURSORS: [
        ((("t", 1, 0),) * (transport.MAX_CURSORS + 1),
         encode_uint(transport.MAX_CURSORS + 1)
         + _cursor * (transport.MAX_CURSORS + 1)),
        ((("t" * 256, 1, 0),),
         encode_uint(1) + encode_value("t" * 256) + encode_uint(1) * 2),
    ],
    transport.COLUMNS: [
        (("c",) * (transport.MAX_COLUMNS + 1),
         b"\x01" + encode_uint(transport.MAX_COLUMNS + 1)
         + encode_value("c") * (transport.MAX_COLUMNS + 1)),
    ],
    transport.EPOCHS: [
        (((1, 1, 1, 1, 1),) * (transport.MAX_EPOCHS + 1),
         encode_uint(transport.MAX_EPOCHS + 1)
         + _int * 5 * (transport.MAX_EPOCHS + 1)),
        (((0, 1 << (8 * transport.MAX_KEY_INT_BYTES), 3, 0, -1),),
         encode_uint(1) + _int
         + encode_value(1 << (8 * transport.MAX_KEY_INT_BYTES)) + _int * 3),
    ],
    transport.SHARDS: [
        ((0, (1, 2, 0, _many_shard_entries)),
         encode_uint(1) + encode_uint(1) + encode_uint(2) + encode_value(0)
         + encode_uint(len(_many_shard_entries))
         + b"".join(
             encode_value(name) + b"\x00" + encode_uint(1) + encode_value(0)
             for name, _kind, _payload in _many_shard_entries
         )),
        ((0, (1, 2, 0, _wide_shard_entry)),
         encode_uint(1) + encode_uint(1) + encode_uint(2) + encode_value(0)
         + encode_uint(1) + encode_value("t") + b"\x01"
         + encode_uint(transport.MAX_SHARDS + 1)
         + b"".join(map(encode_value, range(transport.MAX_SHARDS + 1)))),
    ],
    transport.ROLE: [
        ("edge", encode_value("edge")),  # the default is never encoded
        ("root", encode_value("root")),
    ],
}


def _golden(spec):
    """A golden instance of the row's frame — the one with its
    optional-trailing group present, where there is one."""
    matching = [f for f, _l, _s in GOLDEN_FRAMES.values() if type(f) is spec.cls]
    return next((f for f in matching if _without_trailing(f) != f), matching[0])


def _field_value(frame, name):
    values = tuple(getattr(frame, n) for n in name.split())
    return values if len(values) > 1 else values[0]


def _encoded(prim, value) -> bytes:
    parts: list = []
    prim.encode(value, parts)
    return b"".join(parts)


def _field_bytes(spec, frame) -> list:
    return [_encoded(p, _field_value(frame, name)) for name, p, _m in spec.fields]


def _fields_with(prims):
    return [
        pytest.param(spec, index, id=f"{spec.cls.__name__}.{name.split()[-1]}")
        for spec in FRAMES
        for index, (name, prim, _m) in enumerate(spec.fields)
        if prim in prims
    ]


@pytest.mark.parametrize("spec, index", _fields_with(OVER_BOUND))
def test_one_past_the_bound_is_refused_both_ways(spec, index):
    """Splice a well-formed over-bound field into an otherwise golden
    frame: the decoder refuses it (a ``TransportError``, not a
    truncation artefact — the field is all there), and the encoder
    refuses the value that would have produced it."""
    golden = _golden(spec)
    prim = spec.fields[index][1]
    parts = _field_bytes(spec, golden)
    for value, wire in OVER_BOUND[prim]:
        if prim is transport.ROLE and value == "edge":
            # Encodes (to nothing); only its explicit wire form is refused.
            assert _encoded(prim, value) == b""
        else:
            with pytest.raises(TransportError):
                _encoded(prim, value)
        spliced = parts[:index] + [wire] + parts[index + 1 :]
        with pytest.raises(TransportError):
            frame_from_bytes(bytes([spec.tag]) + b"".join(spliced))




#: Primitives whose first 4 bytes after an optional 1-byte prefix are a
#: length or count: (prefix bytes before the announce).
_ANNOUNCE_AT = {
    transport.NAME: 1, transport.OPT_NAME: 1, transport.TEXT: 1,
    transport.PAYLOAD: 1, transport.OPT_BYTES: 1, transport.SCALAR: 1,
    transport.CURSORS: 0, transport.COLUMNS: 1, transport.EPOCHS: 0,
}


@pytest.mark.parametrize("spec, index", _fields_with(_ANNOUNCE_AT))
def test_an_inflated_announce_is_refused_before_its_loop(spec, index):
    """Every length and count bumped by one, past its bound, and to the
    maximum — with the rest of the frame left in place, so the bytes
    that remain could not hold it: ``TransportError``, never a read off
    the end or an allocation sized by the attacker."""
    parts = _field_bytes(spec, _golden(spec))
    prim = spec.fields[index][1]
    at = 1 + sum(map(len, parts[:index])) + _ANNOUNCE_AT[prim]
    data = bytes([spec.tag]) + b"".join(parts)
    announced = int.from_bytes(data[at : at + 4], "big")
    for forged in (announced + 1, prim.max_bytes, 2**32 - 1):
        with pytest.raises(TransportError):
            frame_from_bytes(data[:at] + encode_uint(forged) + data[at + 4 :])


# ---------------------------------------------------------------------------
# Types: what the hand-written decoder let through
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MISTYPED_FRAMES))
def test_mistyped_and_non_canonical_frames_are_refused(name):
    with pytest.raises(TransportError):
        frame_from_bytes(MISTYPED_FRAMES[name])


@pytest.mark.parametrize("spec", FRAMES, ids=lambda s: s.cls.__name__)
def test_the_encoder_refuses_a_field_of_the_wrong_type(spec):
    golden = _golden(spec)
    for field in dataclasses.fields(golden):
        with pytest.raises(TransportError):
            frame_to_bytes(dataclasses.replace(golden, **{field.name: object()}))
    with pytest.raises(TransportError):
        frame_to_bytes(object())


# ---------------------------------------------------------------------------
# The table is tied to the dataclasses at import
# ---------------------------------------------------------------------------


def test_a_row_that_disagrees_with_its_dataclass_fails_at_import():
    """``_codec`` is what the module runs over every row at import."""
    delta = next(s for s in FRAMES if s.cls.__name__ == "DeltaFrame")
    renamed = delta._replace(
        fields=(("replica", transport.NAME, ""), delta.fields[1])
    )
    with pytest.raises(TypeError, match="DeltaFrame"):
        transport._codec(renamed)
    with pytest.raises(TypeError, match="DeltaFrame"):
        transport._codec(delta._replace(fields=delta.fields[:1]))  # one short
    with pytest.raises(TypeError, match="DeltaFrame"):
        transport._codec(delta._replace(fields=delta.fields[::-1]))  # order
    transport._codec(delta)


def test_no_hand_written_dispatch_is_left():
    """One definition: no per-frame constant, map or ``isinstance`` arm
    beside the table."""
    import inspect
    import re

    source = inspect.getsource(transport)
    assert not re.search(r"^_FRAME_\w+ = |isinstance\(frame", source, re.M)
    assert len({spec.tag for spec in FRAMES}) == len(FRAMES) == 9
