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
    """Insert a forged tuple into the replica with fabricated digests.

    The hacker can write to the tree but cannot produce valid
    signatures, so it fabricates random ones; verification fails on
    signature recovery mismatch.
    """

    table: str
    row_values: tuple
    seed: int = 0

    def apply(self, edge: EdgeServer) -> None:
        """Insert the forged row + garbage digest material.

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
        rng = random.Random(self.seed)
        fake = lambda: SignedDigest(
            signature=rng.getrandbits(256), epoch=0
        )
        from repro.core.vbtree import TupleAuth

        vbt._tuple_auth[row.key] = TupleAuth(
            signed_tuple=fake(),
            signed_attrs=tuple(fake() for _ in row.values),
        )


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
            # Remove the dropped row's projection digests and reindex.
            filtered_count = len(result.all_columns) - len(result.columns)
            if result.vo.projection_entries and filtered_count:
                first = result.vo.projection_entries[0]
                if first.row_index is None:
                    # FLAT_SET: entries were appended row-by-row; the
                    # malicious edge knows the construction order.
                    start = self.index * filtered_count
                    del result.vo.projection_entries[
                        start : start + filtered_count
                    ]
                else:
                    kept = []
                    for entry in result.vo.projection_entries:
                        if entry.row_index == self.index:
                            continue
                        if entry.row_index > self.index:
                            kept.append(
                                VOEntry(
                                    kind=entry.kind,
                                    signed=entry.signed,
                                    row_index=entry.row_index - 1,
                                    attr_index=entry.attr_index,
                                )
                            )
                        else:
                            kept.append(entry)
                    result.vo.projection_entries = kept
            if self.cover:
                auth = vbt.tuple_auth(dropped_key)
                result.vo.selection_entries.append(
                    VOEntry(kind=VOEntryKind.TUPLE, signed=auth.signed_tuple)
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
