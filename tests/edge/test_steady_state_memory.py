"""Retained memory per operation, gated (DESIGN.md §23).

A long-lived client and its links answer millions of queries; whatever
each one leaves behind for good is a leak with a budget.  The fabric is
the e2e benchmark's recipe scaled to 400 rows, in-process: one central
server, one edge, one verifying router.  ``tracemalloc`` attributes
every live allocation to the file that made it, and only allocations
made by ``src/repro`` count — the harness's own lists do not.
"""

import gc
import os
import random
import tracemalloc

import pytest

import repro
from repro.edge.central import CentralServer
from repro.edge.router import in_process_query_channel
from repro.workloads.generator import TableSpec, generate_table, zipf_ranks

TABLE = "items"
ROWS, KEY_STEP = 400, 4
_OURS = [tracemalloc.Filter(True, os.path.join(os.path.dirname(repro.__file__), "*"))]
#: What one insert → sync retained when the budget was pinned (this
#: fabric, CPython 3.11; 3 629 B at the parent commit, whose signed
#: digests were an int in a frozen record), and the budget: a quarter
#: above it, for interpreters whose objects are larger.
MEASURED_PER_WRITE = 3294
PER_WRITE_BUDGET = 4120


@pytest.fixture
def fabric():
    central = CentralServer("benchdb", rsa_bits=512, seed=7)
    schema, rows = generate_table(
        TableSpec(name=TABLE, rows=ROWS, columns=10, attr_size=20, key_step=KEY_STEP, seed=7)
    )
    central.create_table(schema, rows)
    edge = central.spawn_edge_server("edge-0")
    router = central.make_router(
        channels=[in_process_query_channel(edge)], policy="round_robin"
    )
    return central, router


def retained_by(operation, warmup, measured):
    """Bytes ``src/repro`` still holds per call of ``operation(i)``
    over ``measured`` calls that follow ``warmup`` unrecorded ones.
    Cyclic garbage awaiting a collection is not retention."""
    for i in range(warmup):
        operation(i)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(_OURS)
        for i in range(warmup, warmup + measured):
            operation(i)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(_OURS)
    finally:
        tracemalloc.stop()
    grown = sum(s.size_diff for s in after.compare_to(before, "filename"))
    return grown / measured


def test_a_query_on_an_unchanging_tree_retains_under_128_bytes(fabric):
    _central, router = fabric
    # Zipf-popular 7-row ranges, as read_narrow_tcp asks them.
    starts = zipf_ranks(ROWS - 7, 2500, seed=3)

    def query(i):
        low = starts[i] * KEY_STEP
        answer = router.range_query(TABLE, low=low, high=low + 6 * KEY_STEP)
        assert answer.verdict.ok and len(answer.result.rows) == 7

    per_query = retained_by(query, warmup=500, measured=2000)
    assert per_query < 128, (
        f"{per_query:.0f} B retained per query by src/repro on an unchanging "
        "tree (a channel's two history columns are 9 B a frame, two frames "
        "a query, plus array growth slack; ≈ 390 B when every frame kept a "
        "Transfer object)"
    )


def test_a_full_range_query_retains_under_128_bytes_once_rows_are_served(fabric):
    """Every replica row memoises its wire form the first time it is
    served (DESIGN.md §27): a per-row cost, paid once — a query over
    all 400 rows keeps nothing more once each row has been served."""
    _central, router = fabric

    def query(i):
        answer = router.range_query(TABLE, low=0, high=(ROWS - 1) * KEY_STEP)
        assert answer.verdict.ok and len(answer.result.rows) == ROWS

    per_query = retained_by(query, warmup=2, measured=40)
    assert per_query < 128, (
        f"{per_query:.0f} B retained per 400-row query by src/repro after "
        "every row was served once (the wire-form memo is per row, not "
        "per query)"
    )


def test_an_insert_sync_pair_retains_what_it_stores_and_little_else(fabric):
    central, _router = fabric
    rng = random.Random(5)
    holes = [k * KEY_STEP + 1 + k % 3 for k in range(ROWS)]
    rng.shuffle(holes)

    def write(i):
        values = (holes[i], *("v" * 20 for _ in range(9)))
        central.insert(TABLE, values)
        central.propagate(TABLE)
        central.fanout.drain(wait=True)

    per_write = retained_by(write, warmup=40, measured=300)
    assert per_write < PER_WRITE_BUDGET, (
        f"{per_write:.0f} B retained per insert → sync by src/repro.  A write "
        "legitimately keeps its row (central tree, edge replica), "
        "the tuple's signature on each side, and its sealed delta in the "
        "replication log until max_log_entries (1024) evicts it — "
        f"≈ {MEASURED_PER_WRITE} B measured when this budget was pinned; "
        "growth past the budget is something new held per write"
    )

