"""Fan-out scaling: sync time and replication bytes vs. edge count.

The fan-out engine (DESIGN.md section 7) delivers signed delta batches
through per-edge transport links with bounded in-flight windows.  This
bench sweeps the edge count (1..32) under eager and lazy replication,
measuring wall-clock sync time and total replication bytes for a fixed
update batch, and runs a slow-edge scenario demonstrating that the
write path is not blocked by one wedged edge.  Series are written as
JSON (``benchmarks/results/fanout_scale.json``) in the same shape
``bench_replication.py`` uses, plus the usual CSV.

The event-loop rows (DESIGN.md section 11) push the same bench to
fleet scale: one central process driving **2000 connected in-process
edges** (``mode="fleet"``, per-edge memory must stay flat) and **500
real loopback-TCP edges** served by a single
:class:`~repro.edge.event_loop.EdgeHost` reactor thread
(``mode="tcp-reactor"``).  Each row reports wall-clock sync, send-side
syscalls per delta batch, and frames/sec; the bench asserts a whole
pipelined delta batch (plus its probe) rides at most two vectored
writes per edge (``syscalls_per_batch <= 2.0`` — a blocking
per-frame-``sendall`` link measured 9.1 at 500 edges, which is why
none exists any more) and that delta bytes per edge are **exactly**
identical in-process and over TCP — same frames on the wire, only the
syscall schedule differs.
"""

import json
import os
import time
import tracemalloc

from repro.bench.series import emit, results_dir
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.deploy import Deployment
from repro.edge.event_loop import EdgeHost
from repro.workloads.generator import TableSpec, generate_table

EDGE_COUNTS = (1, 2, 4, 8, 16, 32)
UPDATES = 8
ROWS = 300

#: Fleet-scale sweep (event-loop rows): in-process simulated edges and
#: real loopback-TCP edges.  The fleet table is smaller than the 1..32
#: sweep's — these rows measure *delivery* scaling, not snapshot apply.
FLEET_COUNTS = (50, 500, 2000)
TCP_COUNTS = (50, 500)
FLEET_ROWS = 60


def _merge_series(path: str, rows: list[dict]) -> list[dict]:
    """Merge ``rows`` into the results file keyed by ``(mode, edges)``.

    The 1..32 eager/lazy sweep and the fleet/TCP sweep run as separate
    tests but gate against one committed baseline, so each test must
    preserve the other's rows whichever order (or subset) ran.
    """
    existing: list[dict] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh).get("series", [])
        except (OSError, ValueError):
            existing = []
    fresh = {(r["mode"], r["edges"]) for r in rows}
    merged = [
        r for r in existing if (r.get("mode"), r.get("edges")) not in fresh
    ]
    merged.extend(rows)
    with open(path, "w") as fh:
        json.dump({"series": merged}, fh, indent=2)
    print(f"[json series written to {os.path.relpath(path)}]")
    return merged


def _deployment(n_edges: int, replication: ReplicationMode, **kwargs):
    central = CentralServer(
        db_name="fanoutbench",
        rsa_bits=512,
        seed=505,
        replication=replication,
        **kwargs,
    )
    spec = TableSpec(name="items", rows=ROWS, columns=5, seed=12)
    schema, data = generate_table(spec)
    central.create_table(schema, data)
    edges = [central.spawn_edge_server(f"edge-{i}") for i in range(n_edges)]
    return central, edges


def _run_updates(central) -> None:
    for i in range(UPDATES):
        central.insert("items", (50_000 + i, *["uu"] * 4))


def _sync_cost(n_edges: int, replication: ReplicationMode) -> dict:
    central, edges = _deployment(n_edges, replication)
    for edge in edges:
        edge.replication_channel.reset()
    start = time.perf_counter()
    _run_updates(central)
    if replication is ReplicationMode.LAZY:
        central.propagate("items")
    elapsed = time.perf_counter() - start
    total_bytes = sum(e.replication_channel.total_bytes for e in edges)
    sim_seconds = sum(e.replication_channel.total_seconds for e in edges)
    assert all(central.staleness(e, "items") == 0 for e in edges)
    return {
        "edges": n_edges,
        "mode": replication.value,
        "updates": UPDATES,
        "sync_seconds": elapsed,
        "sim_transfer_seconds": sim_seconds,
        "replication_bytes": total_bytes,
        "bytes_per_edge": total_bytes // n_edges,
    }


def test_fanout_scaling(benchmark):
    """Bytes and time vs. edge count, eager vs. lazy."""
    series = [
        _sync_cost(n, mode)
        for mode in (ReplicationMode.EAGER, ReplicationMode.LAZY)
        for n in EDGE_COUNTS
    ]
    emit(
        "Replication fan-out: sync cost vs edge count (eager vs lazy)",
        "fanout_scale",
        ["mode", "edges", "sync s", "bytes total", "bytes/edge"],
        [
            (s["mode"], s["edges"], round(s["sync_seconds"], 3),
             s["replication_bytes"], s["bytes_per_edge"])
            for s in series
        ],
    )
    path = os.path.join(results_dir(), "fanout_scale.json")
    _merge_series(path, series)

    # Per-edge replication cost is flat as the fleet grows (each edge
    # receives the same O(path) deltas), so total bytes scale linearly.
    for mode in ("eager", "lazy"):
        rows = [s for s in series if s["mode"] == mode]
        smallest, largest = rows[0], rows[-1]
        ratio = largest["bytes_per_edge"] / smallest["bytes_per_edge"]
        assert 0.5 < ratio < 2.0, f"{mode}: per-edge bytes not flat ({ratio:.2f}x)"
    # Lazy coalescing ships fewer bytes per edge than eager's per-update
    # pushes at every fleet size.
    for n in EDGE_COUNTS:
        eager = next(s for s in series if s["mode"] == "eager" and s["edges"] == n)
        lazy = next(s for s in series if s["mode"] == "lazy" and s["edges"] == n)
        assert lazy["bytes_per_edge"] < eager["bytes_per_edge"]

    benchmark.pedantic(
        _sync_cost, args=(4, ReplicationMode.EAGER), rounds=1, iterations=1
    )


def test_slow_edge_does_not_block_writes(benchmark):
    """One frame-holding (slow) edge: the write path and the healthy
    edges proceed at full speed; the slow edge absorbs at most the
    in-flight window and heals after the fault clears."""
    n_edges = 8
    central, edges = _deployment(
        n_edges, ReplicationMode.EAGER, fanout_window=4
    )
    slow = edges[-1]
    link = central.fanout.peer(slow.name).transport
    link.faults.hold = True

    start = time.perf_counter()
    _run_updates(central)
    slow_elapsed = time.perf_counter() - start
    healthy = edges[:-1]
    assert all(central.staleness(e, "items") == 0 for e in healthy)
    assert central.staleness(slow, "items") > 0
    assert link.queued_frames <= 4

    # Clear the fault: the slow edge catches up (delta or snapshot).
    link.faults.clear()
    start = time.perf_counter()
    central.propagate("items")
    heal_elapsed = time.perf_counter() - start
    assert central.staleness(slow, "items") == 0

    # Reference run without any fault, same fleet size.
    central2, _edges2 = _deployment(
        n_edges, ReplicationMode.EAGER, fanout_window=4
    )
    start = time.perf_counter()
    _run_updates(central2)
    clean_elapsed = time.perf_counter() - start

    emit(
        "Slow-edge scenario: write-path wall time (8 edges, window 4)",
        "fanout_slow_edge",
        ["scenario", "seconds"],
        [
            ("all edges healthy", round(clean_elapsed, 3)),
            ("one slow edge", round(slow_elapsed, 3)),
            ("healing the slow edge", round(heal_elapsed, 3)),
        ],
    )
    path = os.path.join(results_dir(), "fanout_slow_edge.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "series": [
                    {"scenario": "clean", "seconds": clean_elapsed},
                    {"scenario": "slow_edge", "seconds": slow_elapsed},
                    {"scenario": "heal", "seconds": heal_elapsed},
                ]
            },
            fh,
            indent=2,
        )
    print(f"[json series written to {os.path.relpath(path)}]")

    # The wedged edge must not make the write path materially slower —
    # if anything it is faster, since frames to it are skipped once the
    # window fills.  Allow generous head-room for timer noise.
    assert slow_elapsed < clean_elapsed * 3

    def fresh_run():
        central3, _ = _deployment(4, ReplicationMode.EAGER)
        _run_updates(central3)

    benchmark.pedantic(fresh_run, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# Event-loop fleet scale: 2000 in-process edges, 500 TCP edges
# ---------------------------------------------------------------------------


def _fleet_central() -> CentralServer:
    central = CentralServer(
        db_name="fanoutbench",
        rsa_bits=512,
        seed=505,
        replication=ReplicationMode.EAGER,
    )
    spec = TableSpec(name="items", rows=FLEET_ROWS, columns=5, seed=12)
    schema, data = generate_table(spec)
    central.create_table(schema, data)
    return central


def _delta_bytes(channel) -> int:
    kinds = channel.bytes_by_kind()
    return kinds.get("delta", 0) + kinds.get("snapshot", 0)


def _fleet_cost(n_edges: int) -> dict:
    """One central process driving ``n_edges`` in-process edges.

    Per-edge memory is measured with ``tracemalloc`` across the fleet
    bootstrap (replica trees + transports are the per-edge state);
    snapshot payloads are serialized once for the whole fleet
    (:meth:`~repro.edge.central.CentralServer.spawn_edge_fleet`), which
    is what makes the 2000-edge point affordable.
    """
    central = _fleet_central()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    edges = central.spawn_edge_fleet([f"edge-{i}" for i in range(n_edges)])
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    for edge in edges:
        edge.replication_channel.reset()
    start = time.perf_counter()
    _run_updates(central)
    central.fanout.drain(wait=True)
    elapsed = time.perf_counter() - start
    assert all(central.staleness(e, "items") == 0 for e in edges)
    total_bytes = sum(_delta_bytes(e.replication_channel) for e in edges)
    return {
        "edges": n_edges,
        "mode": "fleet",
        "updates": UPDATES,
        "sync_seconds": elapsed,
        "replication_bytes": total_bytes,
        "bytes_per_edge": total_bytes // n_edges,
        "per_edge_kb": round((after - before) / 1024 / n_edges, 1),
        "frames_per_sec": round(UPDATES * n_edges / elapsed),
    }


def _tcp_cost(n_edges: int) -> dict:
    """``n_edges`` real loopback-TCP edges hosted by one reactor thread;
    the send-syscall tally is the central reactor's own."""
    central = _fleet_central()
    deploy = Deployment(central)
    host = EdgeHost(*deploy.address)
    names = [f"edge-{i}" for i in range(n_edges)]
    try:
        host.launch_fleet(names)
        for name in names:
            deploy.wait_for_edge(name, sync=False)
        deploy.sync()  # bootstrap snapshots, excluded from the row
        transports = [deploy.edges[name].transport for name in names]
        for transport in transports:
            transport.down_channel.reset()
        sends_before = deploy.reactor.syscalls["sendmsg"]
        start = time.perf_counter()
        _run_updates(central)
        deploy.sync()
        elapsed = time.perf_counter() - start
        assert all(central.staleness(n, "items") == 0 for n in names)
        sends = deploy.reactor.syscalls["sendmsg"] - sends_before
        total_bytes = sum(_delta_bytes(t.down_channel) for t in transports)
        return {
            "edges": n_edges,
            "mode": "tcp-reactor",
            "updates": UPDATES,
            "sync_seconds": elapsed,
            "replication_bytes": total_bytes,
            "bytes_per_edge": total_bytes // n_edges,
            "send_syscalls": sends,
            "syscalls_per_batch": round(sends / n_edges, 2),
            "frames_per_sec": round(UPDATES * n_edges / elapsed),
        }
    finally:
        host.close()
        deploy.shutdown()


def test_event_loop_fleet_scale(benchmark):
    """Fleet-scale acceptance (DESIGN.md section 11): 2000 connected
    in-process edges at flat per-edge memory, 500 TCP edges to cursor
    parity, at most two send syscalls per delta batch per edge, and
    exact delta-byte parity across media."""
    fleet = [_fleet_cost(n) for n in FLEET_COUNTS]
    tcp = [_tcp_cost(n) for n in TCP_COUNTS]
    series = fleet + tcp
    emit(
        "Event-loop fan-out: fleet scale (in-process + reactor TCP)",
        "fanout_fleet",
        ["mode", "edges", "sync s", "bytes/edge", "syscalls/batch",
         "frames/s", "KiB/edge"],
        [
            (s["mode"], s["edges"], round(s["sync_seconds"], 3),
             s["bytes_per_edge"], s.get("syscalls_per_batch", "-"),
             s["frames_per_sec"], s.get("per_edge_kb", "-"))
            for s in series
        ],
    )
    path = os.path.join(results_dir(), "fanout_scale.json")
    _merge_series(path, series)

    # Flat per-edge memory: the 2000-edge fleet costs no more per edge
    # than the 50-edge fleet (shared payloads, no per-edge threads).
    small, large = fleet[0], fleet[-1]
    assert large["edges"] >= 2000
    assert large["per_edge_kb"] <= small["per_edge_kb"] * 1.5, (
        f"per-edge memory grew {small['per_edge_kb']} → "
        f"{large['per_edge_kb']} KiB"
    )

    # The syscall claim, absolute: a whole pipelined delta batch rides
    # one vectored write per edge (a second only when the probe misses
    # the batch's flush) — UPDATES frames + 1 probe, never UPDATES + 1
    # syscalls.
    for row in tcp:
        assert row["syscalls_per_batch"] <= 2.0, (
            f"{row['send_syscalls']} sendmsg for {row['edges']} edges — "
            "coalescing broken"
        )

    # Exact delta-byte parity across media: in-process and TCP ship
    # byte-identical replication traffic.
    by_row = {(s["mode"], s["edges"]): s for s in series}
    for n in TCP_COUNTS:
        assert (
            by_row[("fleet", n)]["bytes_per_edge"]
            == by_row[("tcp-reactor", n)]["bytes_per_edge"]
        ), f"delta bytes diverge across media at {n} edges"

    benchmark.pedantic(_fleet_cost, args=(50,), rounds=1, iterations=1)
