"""Adversary models for the unsecured edge servers.

Section 3.1: "the edge servers are assumed to be unsecured, meaning it
is possible for a hacker to tamper with the data there, but the servers
themselves do not act maliciously, e.g. they do not intentionally drop
qualifying tuples from the query results."

The adversaries here cover both sides of that line:

* Detected by the mechanism (the paper's integrity guarantees):
  :class:`ValueTamper`, :class:`SpuriousTuple`, :class:`ResponseTamper`,
  :class:`DropTuple` (without cover), :class:`StaleReplay` (with key
  rotation + key ring).
* The documented trust boundary: :class:`DropTuple` *with* cover — a
  malicious edge that re-covers a dropped tuple with its signed digest
  passes verification, which is exactly why the paper assumes servers
  do not act maliciously.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.vo import AuthenticatedResult, VOEntry, VOEntryKind
from repro.crypto.signatures import SignedDigest
from repro.db.rows import Row
from repro.edge.edge_server import EdgeServer
from repro.exceptions import EdgeError

__all__ = [
    "ValueTamper",
    "SpuriousTuple",
    "DropTuple",
    "ResponseTamper",
    "StaleReplay",
]


@dataclass
class ValueTamper:
    """Corrupt a stored value in the edge's replica (at-rest tampering).

    The replica's tree is modified in place; its digests are *not*
    (the hacker cannot sign), so any query whose result covers the
    tuple fails verification at the client.
    """

    table: str
    key: Any
    column: str
    new_value: Any

    def apply(self, edge: EdgeServer) -> None:
        """Mutate the replica."""
        vbt = edge.replica(self.table)
        leaf = vbt.tree.find_leaf(self.key)
        try:
            idx = leaf.keys.index(self.key)
        except ValueError:
            raise EdgeError(f"key {self.key!r} not found on edge") from None
        old_row: Row = leaf.values[idx]
        leaf.values[idx] = old_row.replace(**{self.column: self.new_value})


@dataclass
class SpuriousTuple:
    """Insert a forged tuple into the replica with a fabricated
    signature.

    The hacker can write to the tree but cannot produce a valid
    signature, so it fabricates a random one; the nodes above still
    carry the central server's digests of a leaf without the tuple, and
    verification fails on the mismatch.
    """

    table: str
    row_values: tuple
    seed: int = 0

    def apply(self, edge: EdgeServer) -> None:
        """Insert the forged row + a garbage tuple signature.

        The row is spliced directly into the leaf (a page-level hack),
        NOT inserted through the B-tree API — a real attacker edits
        storage and cannot trigger legitimate rebalancing + re-signing.
        """
        import bisect

        vbt = edge.replica(self.table)
        row = Row(vbt.schema, self.row_values)
        leaf = vbt.tree.find_leaf(row.key)
        idx = bisect.bisect_left(leaf.keys, row.key)
        if idx < len(leaf.keys) and leaf.keys[idx] == row.key:
            raise EdgeError(f"key {row.key!r} already exists on edge")
        leaf.keys.insert(idx, row.key)
        leaf.values.insert(idx, row)
        vbt.tree._size += 1
        garbage = random.Random(self.seed).getrandbits(256)
        width = vbt.signing.signer.public_key.signature_len
        vbt._tuple_auth[row.key] = SignedDigest(garbage.to_bytes(width, "big") + bytes(2))


@dataclass
class DropTuple:
    """Drop the i-th tuple from every outgoing result.

    With ``cover=False`` the VO no longer accounts for the tuple and
    verification fails.  With ``cover=True`` the (malicious) edge adds
    the dropped tuple's signed digest to ``D_S`` — the attack the
    paper's trust model explicitly excludes; verification passes, which
    the adversary tests pin as the documented boundary.
    """

    table: str
    index: int = 0
    cover: bool = False

    def install(self, edge: EdgeServer) -> None:
        """Register the in-flight interceptor on the edge."""
        vbt = edge.replica(self.table)

        def interceptor(result: AuthenticatedResult) -> AuthenticatedResult:
            if result.table != self.table or self.index >= len(result.rows):
                return result
            dropped_key = result.keys[self.index]
            result.rows.pop(self.index)
            result.keys.pop(self.index)
            if result.vo.result_positions is not None:
                result.vo.result_positions.pop(self.index)
            # Slice the dropped row's block out of D_P (row-major).
            block = result.vo.projection_digests
            stride = len(block) // (len(result.rows) + 1)
            start = self.index * stride
            result.vo.projection_digests = block[:start] + block[start + stride :]
            if self.cover:
                result.vo.selection_entries.append(
                    VOEntry(
                        kind=VOEntryKind.TUPLE, signed=vbt.tuple_auth(dropped_key)
                    )
                )
            return result

        edge.add_interceptor(interceptor)


@dataclass
class ResponseTamper:
    """Rewrite a value in flight (man-in-the-middle on the response)."""

    row_index: int
    column_index: int
    new_value: Any

    def install(self, edge: EdgeServer) -> None:
        """Register the in-flight interceptor on the edge."""

        def interceptor(result: AuthenticatedResult) -> AuthenticatedResult:
            if self.row_index < len(result.rows):
                row = list(result.rows[self.row_index])
                if self.column_index < len(row):
                    row[self.column_index] = self.new_value
                    result.rows[self.row_index] = tuple(row)
            return result

        edge.add_interceptor(interceptor)


@dataclass
class StaleReplay:
    """Serve data signed under an expired key epoch.

    Models an edge server that simply never applies updates: after the
    central server rotates its key (and the validity window lapses),
    clients holding the key ring reject the old epoch's signatures with
    a stale-key verdict.  Nothing to install — just *don't* propagate
    to this edge; the class exists to document the scenario and to
    assert staleness in tests.
    """

    table: str

    def is_stale(self, central, edge: EdgeServer) -> bool:
        """True if the edge's replica is behind the central server.

        Staleness is central-side knowledge (the fan-out engine's
        ack-fed cursors) — an unsecured edge cannot be asked how stale
        it is, and holds no reference to the central log to find out.
        """
        return central.staleness(edge, self.table) > 0
