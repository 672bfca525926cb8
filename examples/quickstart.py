#!/usr/bin/env python3
"""Quickstart: the paper's Figure-2 deployment in ~40 lines.

A trusted central DBMS builds a VB-tree over a table, distributes it to
an (unsecured) edge server, a client queries the edge and verifies the
result against the central server's signature — then we tamper with the
edge and watch verification fail.

Run:  python examples/quickstart.py
"""

from repro import quick_setup
from repro.edge.adversary import ValueTamper


def main() -> None:
    # 1. Central server with a 1000-row demo table, one edge, one client.
    central, edge, client = quick_setup(rows=1000, rsa_bits=512, seed=7)
    print(f"central db: {central.db_name!r}, table 'items' with "
          f"{len(central.vbtrees['items'])} rows")
    print(f"VB-tree height {central.vbtrees['items'].height()}, "
          f"digest policy {central.policy.value!r}")

    # 2. A range query answered by the edge server, with its VO.
    response = edge.range_query("items", low=100, high=160)
    print(f"\nquery id in [100, 160]: {len(response.result.rows)} rows, "
          f"{response.wire_bytes:,} bytes on the wire "
          f"(VO: {response.result.vo.digest_count()} signed digests)")

    # 3. The client verifies: values untampered, no spurious tuples.
    verdict = client.verify(response)
    print(f"verification: ok={verdict.ok} "
          f"({verdict.digests_decrypted} signature decryptions)")
    assert verdict.ok

    # 4. Projection is done AT THE EDGE (the paper's headline feature):
    #    filtered attributes are replaced by their 16-byte digests, which
    #    the edge hashes from the row it holds.  Same range, same signed
    #    digests: the client decrypted them in step 3 and remembers.
    response = edge.range_query("items", low=100, high=160,
                                columns=("id", "a1"))
    verdict = client.verify(response)
    print(f"\nprojected query (2 of 10 columns): ok={verdict.ok}, "
          f"D_P carries {len(response.result.vo.projection_digests) // 16} "
          f"bare attribute digests, {verdict.digests_decrypted} signature "
          f"decryptions ({verdict.digests_recalled} recalled)")
    assert verdict.ok

    # 5. A hacker corrupts one value in the edge server's replica...
    ValueTamper(table="items", key=120, column="a1",
                new_value="hacked!").apply(edge)
    response = edge.range_query("items", low=100, high=160)
    verdict = client.verify(response)
    print(f"\nafter tampering with the replica: ok={verdict.ok} "
          f"({verdict.reason})")
    assert not verdict.ok

    # ...but queries that don't touch the corrupted tuple still verify.
    response = edge.range_query("items", low=500, high=560)
    assert client.verify(response).ok
    print("queries not covering the tampered tuple still verify: ok=True")


if __name__ == "__main__":
    main()
