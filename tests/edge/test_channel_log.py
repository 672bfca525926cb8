"""A channel's history is a list of ``Transfer`` to every reader and two
columns in memory (DESIGN.md §23): the model test keeps a plain
``list[Transfer]`` beside it; the memory test counts what 100 000 sends
leave behind."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.network import Channel, Transfer

KINDS = ("payload", "delta", "snapshot", "ack", "control", "query")

_index = st.integers(-40, 40)
_bound = st.none() | _index
_ops = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 1 << 40), st.sampled_from(KINDS)),
    st.tuples(st.just("send_default"), st.integers(0, 1 << 20)),
    st.tuples(st.just("index"), _index),
    st.tuples(st.just("slice"), _bound, _bound, st.none() | st.sampled_from((-2, -1, 1, 3))),
    st.just(("iterate",)),
    st.just(("totals",)),
    st.just(("clear",)),
    st.just(("reset",)),
)


@given(
    ops=st.lists(_ops, max_size=60),
    rtt=st.sampled_from((0.0, 0.02, 0.2)),
    bandwidth=st.sampled_from((1_000.0, 12_500_000.0)),
)
@settings(max_examples=300, deadline=None)
def test_log_reads_like_the_list_it_replaced(ops, rtt, bandwidth):
    channel = Channel(bandwidth_bps=bandwidth, rtt_seconds=rtt)
    model: list[Transfer] = []
    for op in ops:
        if op[0] in ("send", "send_default"):
            kind = op[2] if op[0] == "send" else "payload"
            assert channel.send(*op[1:]) is None  # materialises nothing
            model.append(Transfer(op[1], rtt + op[1] / bandwidth, kind))
        elif op[0] == "index":
            if -len(model) <= op[1] < len(model):
                assert channel.transfers[op[1]] == model[op[1]]
            else:
                with pytest.raises(IndexError):
                    _ = channel.transfers[op[1]]
        elif op[0] == "slice":
            assert channel.transfers[slice(*op[1:])] == model[slice(*op[1:])]
        elif op[0] == "iterate":
            assert list(channel.transfers) == model
            assert [t.kind for t in channel.transfers] == [t.kind for t in model]
        elif op[0] == "totals":
            by_kind: dict[str, int] = {}
            for t in model:
                by_kind[t.kind] = by_kind.get(t.kind, 0) + t.nbytes
            assert channel.bytes_by_kind() == by_kind
            assert list(channel.bytes_by_kind()) == list(by_kind)  # first-seen order
            assert channel.total_bytes == sum(t.nbytes for t in model)
            assert channel.total_seconds == pytest.approx(
                sum(t.seconds for t in model)
            )
        elif op[0] == "clear":
            channel.transfers.clear()
            model.clear()
        else:
            channel.reset()
            model.clear()
        assert len(channel.transfers) == len(model)


def test_negative_sizes_are_refused_and_leave_no_trace():
    channel = Channel()
    with pytest.raises(ValueError):
        channel.send(-1)
    assert len(channel.transfers) == 0 and channel.bytes_by_kind() == {}


def test_latency_model_is_read_when_the_transfer_is():
    channel = Channel(rtt_seconds=0.5, bandwidth_bps=100.0)
    channel.send(50, kind="delta")
    assert channel.transfers[-1] == Transfer(50, 1.0, "delta")
    channel.rtt_seconds = 0.0
    assert channel.transfers[0].seconds == 0.5 == channel.total_seconds


def test_a_channel_records_at_most_256_kinds():
    channel = Channel()
    for i in range(256):
        channel.send(1, kind=f"k{i}")
    with pytest.raises(ValueError):
        channel.send(1, kind="one too many")
    assert len(channel.transfers) == 256 and channel.total_bytes == 256
    channel.send(7, kind="k255")
    assert channel.transfers[-1].kind == "k255"


def test_100_000_sends_retain_under_2_mb():
    """≈ 150 B a frame as frozen dataclasses (15 MB here); 9 B as two
    columns, plus the arrays' growth slack."""
    channel = Channel()
    channel.send(1, kind="delta")
    channel.send(1, kind="ack")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(50_000):
            channel.send(600 + i, kind="delta")
            channel.send(40, kind="ack")
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(channel.transfers) == 100_002
    assert after - before < 2_000_000, f"{after - before} B retained by 100 000 sends"
    assert channel.transfers[-2] == Transfer(
        50_599, channel.rtt_seconds + 50_599 / channel.bandwidth_bps, "delta"
    )
