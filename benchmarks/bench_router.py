"""Router bench: throughput and latency vs. edge count and policy.

A fleet of in-process edges with **deterministic** per-link latency
models (the channel rtt/bandwidth math — DESIGN.md section 9) serves a
seeded range-query workload through the :class:`VerifyingRouter`.  The
last edge is always *slow* (10× the rtt) and *stale* (its replication
link holds frames, so its cursor lags the delta log), which is exactly
the edge a latency- or freshness-aware policy should route around.

Two scenarios:

* ``slow_stale`` — policy × edge-count sweep; asserts the policy
  choice measurably shifts p99 latency (round-robin keeps hitting the
  slow edge, lowest-latency stops after one probe).
* ``adversary`` — the PR's acceptance fabric: 3 edges, one tampering,
  one slow/stale, 500 queries; asserts 100 % verified ACCEPTs, zero
  failed queries, the tampered edge quarantined, and the p99 shift.

Byte series (query + response payload bytes, exactly reproducible from
the seeds) land in ``benchmarks/results/router.json`` and are gated by
``check_regression.py``; latency percentiles are simulated seconds
(deterministic too, but not gated — they gate behaviour via the
assertions instead).  Wall-clock throughput is reported, never gated.
"""

import json
import math
import os
import time

from repro.bench.series import emit, results_dir
from repro.edge.adversary import ValueTamper
from repro.edge.central import CentralServer
from repro.edge.network import Channel
from repro.edge.router import TransportQueryChannel
from repro.edge.link import InProcessTransport
from repro.workloads.generator import TableSpec, generate_table
from repro.workloads.queries import QueryWorkload

POLICIES = ("round_robin", "lowest_latency", "freshest", "weighted")
EDGE_COUNTS = (2, 4, 8)
QUERIES = 200
ROWS = 240
SELECTIVITY = 0.05
FAST_RTT = 0.02   # the Channel default: an edge-era WAN link
SLOW_RTT = 0.20   # the injected slow edge
STALE_UPDATES = 6

SPEC = TableSpec(name="items", rows=ROWS, columns=5, seed=21)


def _fabric(n_edges: int):
    """Central + ``n_edges`` in-process edges; the last edge is slow
    (10× rtt on its query link) and stale (replication held across
    ``STALE_UPDATES`` inserts, so its cursor lags the log)."""
    central = CentralServer(db_name="routerbench", rsa_bits=512, seed=808)
    schema, rows = generate_table(SPEC)
    central.create_table(schema, rows)
    edges = [central.spawn_edge_server(f"edge-{i}") for i in range(n_edges)]
    central.fanout.peer(edges[-1].name).transport.faults.hold = True
    for i in range(STALE_UPDATES):
        central.insert("items", (50_000 + i, *["uu"] * 4))
    channels = []
    for i, edge in enumerate(edges):
        rtt = SLOW_RTT if i == n_edges - 1 else FAST_RTT
        link = InProcessTransport(
            edge.name, Channel(rtt_seconds=rtt), Channel(rtt_seconds=rtt)
        )
        link.connect(edge.handle_frame)
        channels.append(TransportQueryChannel(edge.name, link))
    return central, edges, channels


def _pct(samples, q: float) -> float:
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def _query_bytes(channels) -> tuple[int, int]:
    down = sum(
        ch.transport.down_channel.bytes_by_kind().get("query", 0)
        for ch in channels
    )
    up = sum(
        ch.transport.up_channel.bytes_by_kind().get("payload", 0)
        for ch in channels
    )
    return down, up


def _run(policy: str, n_edges: int, queries: int, tamper: bool = False) -> dict:
    central, edges, channels = _fabric(n_edges)
    if tamper:
        # Tampered keys every 10 apart: every query window (12 rows at
        # 5 % selectivity) covers at least one, so the tampering edge's
        # first served result REJECTs deterministically.
        for key in range(0, ROWS, 10):
            ValueTamper(
                table="items", key=key, column="a1", new_value="evil"
            ).apply(edges[min(1, n_edges - 1)])
    verifying = central.make_router(channels=channels, policy=policy)
    workload = QueryWorkload(spec=SPEC, selectivity=SELECTIVITY, seed=33)
    latencies = []
    start = time.perf_counter()
    for frame in workload.request_frames(queries):
        response = verifying.query(frame)
        assert response.verdict.ok
        latencies.append(response.latency)
    elapsed = time.perf_counter() - start
    down, up = _query_bytes(channels)
    slow_served = verifying.stats()[edges[-1].name].served
    stale_lag = central.staleness(edges[-1].name, "items")
    return {
        "scenario": "adversary" if tamper else "slow_stale",
        "policy": policy,
        "edges": n_edges,
        "queries": queries,
        "queries_per_second": queries / elapsed,
        "p50_latency_s": _pct(latencies, 0.50),
        "p99_latency_s": _pct(latencies, 0.99),
        "slow_edge_served": slow_served,
        "stale_edge_lag_lsns": stale_lag,
        "query_bytes": down,
        "payload_bytes": up,
        "accepts": verifying.accepts,
        "rejects": verifying.rejects,
        "failed_queries": verifying.failed_queries,
        "quarantined": sorted(
            name for name, s in verifying.stats().items() if s.quarantined
        ),
    }


def _emit_series(series: list[dict]) -> None:
    emit(
        "Verified query routing: p50/p99 latency and bytes by policy",
        "router",
        ["scenario", "policy", "edges", "q/s", "p50 s", "p99 s",
         "slow served", "query B", "payload B"],
        [
            (s["scenario"], s["policy"], s["edges"],
             round(s["queries_per_second"], 1),
             round(s["p50_latency_s"], 4), round(s["p99_latency_s"], 4),
             s["slow_edge_served"], s["query_bytes"], s["payload_bytes"])
            for s in series
        ],
    )
    path = os.path.join(results_dir(), "router.json")
    with open(path, "w") as fh:
        json.dump({"series": series}, fh, indent=2)
    print(f"[json series written to {os.path.relpath(path)}]")


def test_router_policy_sweep(benchmark):
    """Policy × edge-count sweep under one slow/stale edge: the policy
    choice must measurably shift tail latency."""
    series = [
        _run(policy, n, QUERIES)
        for policy in POLICIES
        for n in EDGE_COUNTS
    ]

    for s in series:
        # Every run is fully verified and the stale edge really lags.
        assert s["accepts"] == QUERIES and s["failed_queries"] == 0
        assert s["stale_edge_lag_lsns"] == STALE_UPDATES

    for n in EDGE_COUNTS:
        by = {s["policy"]: s for s in series if s["edges"] == n}
        # Round-robin hits the slow edge 1/n of the time, so its p99 is
        # the slow round-trip; lowest-latency probes it once and then
        # routes around it — the issue's "measurable p99 shift".
        assert by["round_robin"]["p99_latency_s"] > 2 * SLOW_RTT
        assert by["lowest_latency"]["p99_latency_s"] < 2 * SLOW_RTT
        assert (
            by["round_robin"]["p99_latency_s"]
            > 3 * by["lowest_latency"]["p99_latency_s"]
        )
        # Freshest never serves from the stale edge after probing it.
        assert by["freshest"]["slow_edge_served"] <= 1
        # Weighted de-prioritizes but does not starve the slow edge.
        assert 0 < by["weighted"]["slow_edge_served"] < QUERIES // n

    _emit_series(series)
    benchmark.pedantic(
        _run, args=("lowest_latency", 2, 50), rounds=1, iterations=1
    )


def test_router_verify_or_failover_acceptance(benchmark):
    """The PR acceptance scenario: a 3-edge fabric with one tampering
    edge and one slow/stale edge serves a 500-query workload through
    the VerifyingRouter with 100 % verified-ACCEPT results and the
    tampered edge quarantined."""
    runs = {
        policy: _run(policy, 3, 500, tamper=True)
        for policy in ("round_robin", "lowest_latency")
    }
    for s in runs.values():
        assert s["accepts"] == 500, "every query must return a verified ACCEPT"
        assert s["failed_queries"] == 0
        assert s["rejects"] >= 1
        assert s["quarantined"] == ["edge-1"], "tampering edge quarantined"
    # With the tampered edge quarantined, round-robin is left splitting
    # traffic with the slow edge; lowest-latency routes around it — the
    # policy choice shifts p99 even in the adversarial fabric.
    assert (
        runs["round_robin"]["p99_latency_s"]
        > 3 * runs["lowest_latency"]["p99_latency_s"]
    )

    emit(
        "Verify-or-failover acceptance (3 edges: 1 tampered, 1 slow/stale)",
        "router_adversary",
        ["policy", "accepts", "rejects", "quarantined", "p99 s"],
        [
            (s["policy"], s["accepts"], s["rejects"],
             ",".join(s["quarantined"]), round(s["p99_latency_s"], 4))
            for s in runs.values()
        ],
    )
    benchmark.pedantic(
        _run, args=("lowest_latency", 3, 50, True), rounds=1, iterations=1
    )
