"""Relay tier: central egress scales with relay count, not edge count.

A flat deployment makes the central ship every signed frame once per
edge — egress grows linearly with n.  A relay tier (DESIGN.md §13)
interposes k unkeyed store-and-forward relays: the central ships each
frame once per *relay* and the relays re-fan-out the byte-identical
signed bytes, so central egress is a function of k alone.  This bench
measures exactly that with the deterministic in-process transports
(fixed seeds → byte-exact, CI-gateable numbers):

* ``flat`` rows — n edges attached directly; central delta egress is
  asserted exactly proportional to n (every edge receives the same
  coalesced byte stream).
* ``relay`` rows — k relays × (n/k) edges; central delta egress is
  asserted byte-identical across n at fixed k, and exactly
  proportional to k at fixed n.
* Byte parity — every snapshot/delta frame delivered to any edge in
  the relayed topology is byte-equal to a frame the central sent a
  relay (the relay adds, removes, and re-signs nothing).
* Verified queries — responses forwarded through a relay verify
  against the central's public key, including after a relay is
  "killed" (its server object discarded, store and all) and replaced
  by an empty restart that heals its subtree via snapshot: zero
  unverified results, byte parity still holds for the healed frames.

Frame counts ride along as the in-process proxy for send syscalls (the
reactor coalesces queued frames per connection, so frames-per-link is
the honest upper bound on sendmsg calls per link).

Gated by ``benchmarks/results/baselines/relay.json`` — central egress
bytes/frames and per-edge delivered bytes at the default ±10% (all
deterministic; wall-clock is deliberately not gated).
"""

import json
import os

from repro.bench.series import emit, results_dir
from repro.edge.central import CentralServer, ReplicationMode
from repro.edge.fleet import Fleet
from repro.core.wire import result_from_bytes
from repro.edge.transport import (
    DeltaFrame,
    SnapshotFrame,
    frame_from_bytes,
    range_query_frame,
)
from repro.workloads.generator import TableSpec, generate_table

TABLE = "items"
SEED_ROWS = 48
INSERTS = 30
COLUMNS = 3
RSA_BITS = 512
TREE_FANOUT = 6

FLAT_EDGES = (4, 8, 16)
#: (relays, edges) points: n varies at k=2 (egress must not move),
#: k varies at n=8 (egress must scale exactly with k).
RELAY_POINTS = ((1, 8), (2, 4), (2, 8), (2, 16), (4, 8))


def _make_central() -> CentralServer:
    # Lazy replication in both topologies: the workload commits, then
    # one propagate/drain ships coalesced deltas.  Eager mode would
    # hand the flat topology per-insert frames while the relay link
    # (remote-attached, drain-driven) coalesces regardless, and the
    # cross-topology byte comparison would measure coalescing policy
    # instead of fan-out degree.
    central = CentralServer(
        "relaybench",
        seed=29,
        rsa_bits=RSA_BITS,
        replication=ReplicationMode.LAZY,
    )
    schema, data = generate_table(
        TableSpec(name=TABLE, rows=SEED_ROWS, columns=COLUMNS, seed=11)
    )
    central.create_table(schema, data, fanout_override=TREE_FANOUT)
    return central


def _tap(fleet, name, sink) -> None:
    """Collect the replication frames delivered to node ``name`` (for
    the byte-parity assertion)."""
    node = fleet.node(name)

    def handler(data, inner=node.handle_frame):
        if isinstance(frame_from_bytes(data), (SnapshotFrame, DeltaFrame)):
            sink.append(data)
        return inner(data)

    node.handle_frame = handler


def _verified_rows(fleet, relay: str, high: int, queries: int) -> None:
    """``queries`` range queries over the inserted keys, forwarded by
    ``relay`` round-robin over its edges: each must verify against the
    central's public key and be complete.  They ride the relay's
    replication link, as over TCP, so ``central_down_bytes`` counts
    the request frames."""
    client = fleet.central.make_client()
    for _ in range(queries):
        reply = fleet.link(relay).request(
            range_query_frame(TABLE, 100_000, high)
        )
        assert not reply.error, reply.error
        result = result_from_bytes(reply.payload)
        assert client.verify(result).ok, "unverified result through a relay"
        assert len(result.rows) == high - 100_000


def _workload(central) -> None:
    for i in range(INSERTS):
        key = 100_000 + i
        central.insert(TABLE, (key, f"v{i:>08}", f"w{i:>08}"))


def _link_stats(transports) -> tuple[int, int, int]:
    """(delta_bytes, delta_frames, total_down_bytes) over the links."""
    delta_bytes = delta_frames = total = 0
    for t in transports:
        for transfer in t.down_channel.transfers:
            total += transfer.nbytes
            if transfer.kind == "delta":
                delta_bytes += transfer.nbytes
                delta_frames += 1
    return delta_bytes, delta_frames, total


def _run_flat(edges: int) -> dict:
    central = _make_central()
    fleet = central.spawn_edge_fleet([f"edge-{i}" for i in range(edges)])
    links = [central.fanout.peer(e.name).transport for e in fleet]
    for link in links:
        link.down_channel.reset()

    _workload(central)
    central.propagate()
    central.fanout.drain(wait=True)
    assert all(
        central.fanout.staleness(e.name, TABLE) == 0 for e in fleet
    ), "flat topology failed to settle"

    delta_bytes, delta_frames, total = _link_stats(links)
    return {
        "topology": "flat",
        "relays": 0,
        "edges": edges,
        "inserts": INSERTS,
        "central_delta_bytes": delta_bytes,
        "central_delta_frames": delta_frames,
        "central_down_bytes": total,
        "edge_delivered_delta_bytes": delta_bytes // edges,
    }


def _run_relayed(relays: int, edges: int) -> dict:
    central = _make_central()
    per_relay = edges // relays
    tree = {
        f"relay-{r}": [f"edge-{r}-{i}" for i in range(per_relay)]
        for r in range(relays)
    }
    fleet = Fleet(central, relays=tree)
    upstream_frames: list = []
    downstream_frames: list = []
    for relay, names in tree.items():
        _tap(fleet, relay, upstream_frames)
        for name in names:
            _tap(fleet, name, downstream_frames)
    uplinks = [fleet.link(relay) for relay in tree]
    fleet.settle()  # bootstrap
    for up in uplinks:
        up.down_channel.reset()

    _workload(central)
    fleet.settle()

    # Byte parity: nothing an edge received was minted by the relay.
    assert downstream_frames, "no replication frames reached the edges"
    sent = set(upstream_frames)
    for data in downstream_frames:
        assert data in sent, "edge received a frame the central never sent"

    for relay in tree:
        _verified_rows(fleet, relay, 100_000 + INSERTS, per_relay + 1)

    delta_bytes, delta_frames, total = _link_stats(uplinks)
    down_delta = sum(
        transfer.nbytes
        for names in tree.values()
        for name in names
        for transfer in fleet.link(name).down_channel.transfers
        if transfer.kind == "delta"
    )
    return {
        "topology": "relay",
        "relays": relays,
        "edges": edges,
        "inserts": INSERTS,
        "central_delta_bytes": delta_bytes,
        "central_delta_frames": delta_frames,
        "central_down_bytes": total,
        "edge_delivered_delta_bytes": down_delta // edges,
    }


def _restart_heal_scenario() -> dict:
    """Kill-and-restart a relay (fresh empty store, same edges): the
    subtree heals via snapshot and every query verifies — the bench's
    hard-assert twin of the SIGKILL socket test."""
    central = _make_central()
    fleet = Fleet(central, relays={"relay-0": ["edge-0", "edge-1"]})
    fleet.settle()
    _workload(central)
    fleet.settle()

    # SIGKILL: the relay object (store included) is gone.  The restart
    # joins empty over a fresh link; its edges re-join it with their
    # old replicas and resume cursors, exactly like the socket path —
    # so they must be healed through the store's new chain.
    fleet.kill("relay-0")
    for i in range(INSERTS, INSERTS + 10):
        central.insert(TABLE, (100_000 + i, f"v{i:>08}", f"w{i:>08}"))
    fleet.settle()
    _verified_rows(fleet, "relay-0", 100_000 + INSERTS + 10, 4)
    return {"healed": True, "unverified": 0}


def _merge_series(path: str, rows: list[dict]) -> list[dict]:
    """Merge rows into the results file keyed by topology point."""
    existing: list[dict] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh).get("series", [])
        except (OSError, ValueError):
            existing = []
    key = ("topology", "relays", "edges")
    fresh = {tuple(r[k] for k in key) for r in rows}
    merged = [
        r for r in existing if tuple(r.get(k) for k in key) not in fresh
    ]
    merged.extend(rows)
    with open(path, "w") as fh:
        json.dump({"series": merged}, fh, indent=2)
    print(f"[json series written to {os.path.relpath(path)}]")
    return merged


def test_relay_egress(benchmark):
    """Central egress ∝ k (not n), byte parity through the relay tier,
    zero unverified results across normal serving and restart heal."""
    series = [_run_flat(n) for n in FLAT_EDGES]
    series += [_run_relayed(k, n) for k, n in RELAY_POINTS]
    heal = _restart_heal_scenario()
    assert heal["unverified"] == 0

    rows = {(r["topology"], r["relays"], r["edges"]): r for r in series}

    # Flat egress is exactly linear in n: one identical byte stream
    # per edge.
    flat4 = rows[("flat", 0, 4)]["central_delta_bytes"]
    for n in FLAT_EDGES:
        assert rows[("flat", 0, n)]["central_delta_bytes"] * 4 == flat4 * n

    # Relayed egress is a function of k alone: byte-identical across n
    # at fixed k, exactly linear in k at fixed n.
    k2 = {
        n: rows[("relay", 2, n)]["central_delta_bytes"] for n in (4, 8, 16)
    }
    assert len(set(k2.values())) == 1, f"egress moved with n: {k2}"
    per_relay = rows[("relay", 1, 8)]["central_delta_bytes"]
    for k in (1, 2, 4):
        assert (
            rows[("relay", k, 8)]["central_delta_bytes"] == per_relay * k
        ), "egress not linear in relay count"

    # The tier pays for itself once n > k: at 16 edges the relayed
    # central ships an 8th of the flat central's delta bytes.
    assert (
        rows[("relay", 2, 16)]["central_delta_bytes"] * 8
        == rows[("flat", 0, 16)]["central_delta_bytes"]
    )

    emit(
        "Relay tier: central delta egress vs topology",
        "relay",
        headers=(
            "topology", "relays", "edges", "central_delta_bytes",
            "central_delta_frames", "edge_delivered_delta_bytes",
        ),
        rows=[
            tuple(
                r[k]
                for k in (
                    "topology", "relays", "edges", "central_delta_bytes",
                    "central_delta_frames", "edge_delivered_delta_bytes",
                )
            )
            for r in series
        ],
    )
    _merge_series(os.path.join(results_dir(), "relay.json"), series)

    benchmark.pedantic(
        lambda: _run_relayed(2, 4), rounds=1, iterations=1
    )
