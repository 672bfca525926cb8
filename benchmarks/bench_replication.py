"""Replication cost: clone-shipping (seed baseline) vs delta shipping.

The seed's ``CentralServer.propagate`` shipped a full VB-tree clone to
every edge per mutation — O(tree × edges) bytes per changed row.  The
delta protocol (DESIGN.md section 6) ships the root-to-leaf digest path
instead, which is O(path).  This bench measures both from the running
system at several table sizes and writes the series as JSON
(``benchmarks/results/replication_bytes.json``) in addition to the
usual CSV, per the acceptance criterion: a single-row insert into a
10k-row table must replicate in >= 10x fewer bytes than a full clone.
"""

import json
import os

import pytest

from repro.bench.series import emit, results_dir
from repro.edge.central import CentralServer, ReplicationMode
from repro.workloads.generator import TableSpec, generate_table

TABLE_SIZES = (1_000, 5_000, 10_000)


def _deployment(rows: int, replication=ReplicationMode.EAGER):
    central = CentralServer(
        db_name="replbench", rsa_bits=512, seed=404, replication=replication
    )
    spec = TableSpec(name="items", rows=rows, columns=5, seed=11)
    schema, data = generate_table(spec)
    central.create_table(schema, data)
    edge = central.spawn_edge_server("bench-edge")
    return central, edge


def _one_insert_costs(rows: int) -> dict:
    """Replication bytes + simulated latency for one single-row insert."""
    central, edge = _deployment(rows)
    # The seed's per-update behaviour, kept behind force_snapshot: a
    # full replica transfer through the same byte-accounted channel.
    central.propagate("items", force_snapshot=True)
    link = central.fanout.peer(edge.name).transport.down_channel
    clone_transfer = link.transfers[-1]
    assert clone_transfer.kind == "snapshot"
    clone_bytes = clone_transfer.nbytes
    before = len(link.transfers)
    central.insert("items", (10_000_000, *["zz"] * 4))
    transfers = link.transfers[before:]
    assert len(transfers) == 1 and transfers[0].kind == "delta"
    return {
        "rows": rows,
        "clone_bytes": clone_bytes,
        "delta_bytes": transfers[0].nbytes,
        "ratio": clone_bytes / transfers[0].nbytes,
        "delta_seconds": transfers[0].seconds,
        "tree_height": central.vbtrees["items"].height(),
    }


def test_single_insert_delta_vs_clone(benchmark):
    """The acceptance criterion: O(path), not O(tree)."""
    series = [_one_insert_costs(rows) for rows in TABLE_SIZES]
    emit(
        "Replication bytes per single-row insert: full clone vs signed delta",
        "replication_bytes",
        ["rows", "clone bytes", "delta bytes", "ratio", "height"],
        [
            (s["rows"], s["clone_bytes"], s["delta_bytes"],
             round(s["ratio"], 1), s["tree_height"])
            for s in series
        ],
    )
    path = os.path.join(results_dir(), "replication_bytes.json")
    with open(path, "w") as fh:
        json.dump({"series": series}, fh, indent=2)
    print(f"[json series written to {os.path.relpath(path)}]")

    at_10k = next(s for s in series if s["rows"] == 10_000)
    assert at_10k["ratio"] >= 10.0, (
        f"delta replication only {at_10k['ratio']:.1f}x smaller than clone"
    )
    # Delta size tracks tree height (O(path)), not table size: going
    # 1k -> 10k rows grows the clone ~10x but the delta barely moves.
    smallest, largest = series[0], series[-1]
    assert largest["clone_bytes"] > 5 * smallest["clone_bytes"]
    assert largest["delta_bytes"] < 2 * smallest["delta_bytes"]

    benchmark.pedantic(_one_insert_costs, args=(1_000,), rounds=1, iterations=1)


@pytest.mark.parametrize("n_updates", [1, 10, 50])
def test_lazy_batch_amortizes(benchmark, n_updates):
    """Lazy mode coalesces the pending log into one signed batch; bytes
    per update fall as the batch grows (superseded root/path digests
    are dropped)."""
    central, edge = _deployment(2_000, replication=ReplicationMode.LAZY)

    def run():
        for i in range(n_updates):
            central.insert(
                "items", (20_000_000 + i + n_updates * 1_000, *["b"] * 4)
            )
        link = central.fanout.peer(edge.name).transport.down_channel
        before = link.total_bytes
        central.propagate("items")
        return link.total_bytes - before

    batch_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    per_update = batch_bytes / n_updates
    print(
        f"\n[lazy batch] {n_updates} updates -> {batch_bytes} B "
        f"({per_update:.0f} B/update)"
    )
    assert central.staleness(edge, "items") == 0
