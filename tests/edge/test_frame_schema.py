"""The frame layer's wire bytes are frozen (tests/edge/golden_frames.py)."""

import hashlib

import pytest

from repro.edge.transport import frame_from_bytes, frame_to_bytes

from tests.edge.golden_frames import GOLDEN_FRAMES


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_golden_frame_bytes_frozen(name):
    frame, length, digest = GOLDEN_FRAMES[name]
    data = frame_to_bytes(frame)
    assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)
    assert frame_from_bytes(data) == frame
