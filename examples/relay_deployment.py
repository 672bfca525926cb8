#!/usr/bin/env python3
"""Relay tier: central → relays → edges, over real processes and TCP.

Launches the trusted central server in this process, two *unkeyed
relay processes* (``python -m repro.edge.serve --relay``) dialing it,
and two edge processes dialing each relay, then walks the relay
story (DESIGN.md §13):

* fan-out economics — the central ships each signed frame once per
  *relay*; the relays re-fan-out the byte-identical bytes, so central
  egress scales with the relay count, not the edge count;
* trust — the relays hold no private key; queries forwarded through
  them verify end-to-end against the central public key;
* aggregation — each relay folds its edges' cursor acks into one
  cumulative min-cursor ack upstream;
* failure — one relay is SIGKILLed mid-stream; writes keep
  committing, the sibling relay's subtree keeps serving verified
  answers, and the restarted relay (empty store, same listen port)
  heals its whole subtree via snapshot back to cursor parity.

Run:  python examples/relay_deployment.py
"""

from repro.edge.central import CentralServer
from repro.edge.deploy import Deployment
from repro.workloads.generator import TableSpec, generate_table


def main() -> None:
    central = CentralServer("edgenet", rsa_bits=512, seed=2026)
    schema, rows = generate_table(
        TableSpec(name="items", rows=200, columns=4, seed=13)
    )
    central.create_table(schema, rows, fanout_override=8)
    client = central.make_client()

    with Deployment(central) as rd:
        host, port = rd.address
        print(f"--- central listening on {host}:{port} ---")
        for relay in ("relay-0", "relay-1"):
            rd.launch_relay(relay)
        for relay in ("relay-0", "relay-1"):
            rd.wait_for_edge(relay)
            lhost, lport = rd.relay_address(relay)
            print(f"  {relay}: pid {rd.edges[relay].process.pid}, "
                  f"listening for edges on {lhost}:{lport}")
        rd.launch_edge("edge-0", "relay-0")
        rd.launch_edge("edge-1", "relay-0")
        rd.launch_edge("edge-2", "relay-1")
        rd.launch_edge("edge-3", "relay-1")
        rd.wait_for_edges("relay-0", ["edge-0", "edge-1"], "items")
        rd.wait_for_edges("relay-1", ["edge-2", "edge-3"], "items")
        print("  4 edge processes registered, 2 per relay")

        print("\n--- updates fan out through the relay tier ---")
        for key in range(9001, 9006):
            central.insert("items", (key, "fresh", "row", "data"))
        rd.sync()
        for relay in ("relay-0", "relay-1"):
            print(f"  {relay} subtree: staleness "
                  f"{central.staleness(relay, 'items')} LSNs "
                  "(min-cursor aggregate over its edges)")

        print("\n--- verified queries through an unkeyed relay ---")
        for relay in ("relay-0", "relay-1"):
            resp = rd.range_query(relay, "items", low=9001, high=9005)
            verdict = client.verify(resp)
            print(f"  via {relay}: {resp.edge_name} answered "
                  f"{len(resp.result.rows)} rows, verified: {verdict.ok}")
            assert verdict.ok

        print("\n--- SIGKILL relay-0: the sibling subtree carries on ---")
        rd.kill_edge("relay-0")
        for key in range(9006, 9011):
            central.insert("items", (key, "more", "row", "data"))
        rd.sync()
        resp = rd.range_query("relay-1", "items", low=9001, high=9010)
        print(f"  writes committed; relay-1 subtree serves "
              f"{len(resp.result.rows)} rows, verified: "
              f"{client.verify(resp).ok}")

        print("\n--- restart relay-0: empty store, snapshot subtree heal ---")
        rd.restart_edge("relay-0")
        rd.wait_for_edge("relay-0")
        rd.wait_for_edges("relay-0", ["edge-0", "edge-1"], "items",
                          timeout=60.0)
        rd.sync()
        resp = rd.range_query("relay-0", "items", low=9001, high=9010)
        print(f"  relay-0 healed; staleness "
              f"{central.staleness('relay-0', 'items')}; its subtree "
              f"serves {len(resp.result.rows)} rows, verified: "
              f"{client.verify(resp).ok}")
        assert client.verify(resp).ok
        assert central.staleness("relay-0", "items") == 0


if __name__ == "__main__":
    main()
