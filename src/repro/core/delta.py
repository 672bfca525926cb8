"""Replica deltas — log-shipping replacement for clone propagation.

The paper's Section 3.4 observes that an update touches only the
root-to-leaf digest path, yet the seed implementation shipped a full
VB-tree clone to every edge server on every mutation (O(tree × edges)
bytes per changed row).  This module defines the **ReplicaDelta**: a
structured, signed, wire-serializable record of one (or a coalesced
batch of) mutation(s) that an edge server can apply to its replica in
O(path) work — see DESIGN.md section 6 for the protocol.

A delta carries everything the edge needs and nothing it could forge:

* the tuple operations (inserted row values with their centrally-signed
  tuple digest; deleted search keys);
* the re-signed digest — one per node — of every VB-tree node the
  mutation touched (the root-to-leaf fold path, or the dirty set of a
  split/merge), addressed by stable node id;
* the ids of nodes freed by structural changes;
* a per-table, monotonically increasing **log sequence number** (LSN)
  range and the key epoch, both bound under the central server's
  signature over the serialized body.

Tree *structure* is never shipped: B+-tree mutation is deterministic
(same capacities, same node-id counter — what a snapshot restores), so
the edge replays the tuple operations against its own tree and the
resulting splits/frees match the central server's byte-for-byte.  The
edge checks that they do — the delta names the nodes its mutations
freed and re-signed — so a replica whose shape drifted (an unsigned
snapshot header edited in transit) is refused on the first delta it
replays differently.  The signed node digests then overwrite the
edge's stale entries; the edge never computes — and could never sign —
a digest itself.

Digests travel in signed form **only**.  The signature scheme recovers
its message (``s⁻¹(s(x)) = x``, Section 3.2), so an unsigned value
beside its signature says nothing the signature does not, and nothing
on an edge reads one: a replica holds exactly what its VOs ship.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

from repro.core.vbtree import VBTree
from repro.crypto.signatures import SignedDigest
from repro.db.rows import Row
from repro.exceptions import ReplicaDeltaError

__all__ = [
    "DeltaOpKind",
    "TupleOp",
    "NodeDigestUpdate",
    "ReplicaDelta",
    "delta_digest",
    "coalesce",
    "apply_delta",
]

#: Bit width of the signed delta-body digest.  240 bits keeps the
#: signing payload (digest · 2^16 + epoch) comfortably below any RSA
#: modulus of >= 264 bits, including the 512-bit simulation keys.
_DELTA_DIGEST_BITS = 240


class DeltaOpKind(Enum):
    """One tuple-level mutation inside a delta."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class TupleOp:
    """One tuple operation.

    For an INSERT the op carries the row values plus the central
    server's signed tuple digest, which the edge installs as it is (it
    cannot sign).  For a DELETE it carries only the tree search key —
    digests of removed tuples are dropped, not recomputed.

    Attributes:
        kind: INSERT or DELETE.
        values: Row values in schema column order (INSERT only).
        key: Tree search key (DELETE only; may be a composite tuple for
            secondary VB-trees).
        signed_tuple: Signed tuple digest (INSERT).
    """

    kind: DeltaOpKind
    values: tuple[Any, ...] | None = None
    key: Any = None
    signed_tuple: SignedDigest | None = None

    @classmethod
    def insert(cls, row: Row, signed_tuple: SignedDigest) -> "TupleOp":
        """Build an INSERT op from a row and its signed tuple digest."""
        return cls(
            kind=DeltaOpKind.INSERT,
            values=tuple(row.values),
            signed_tuple=signed_tuple,
        )

    @classmethod
    def delete(cls, key: Any) -> "TupleOp":
        """Build a DELETE op for the tuple at ``key``."""
        return cls(kind=DeltaOpKind.DELETE, key=key)


@dataclass(frozen=True)
class NodeDigestUpdate:
    """One VB-tree node's re-signed digest, addressed by node id."""

    node_id: int
    signed: SignedDigest


@dataclass(frozen=True)
class ReplicaDelta:
    """A signed unit of replication: one mutation, or a coalesced batch.

    Attributes:
        table: VB-tree name (base table, join view, or secondary index).
        lsn_first: First log sequence number covered (== ``lsn_last``
            for a single-mutation delta).
        lsn_last: Last log sequence number covered.
        epoch: Key epoch all contained signatures were produced under.
        base_version: Replica tree version this delta applies on top of.
        new_version: Tree version after application.
        structural: True if any covered mutation split or freed nodes.
        ops: Tuple operations in application order.
        node_updates: Final signed digest state of every touched node.
        freed_nodes: Node ids removed by structural changes.
        signature: Central server's signature over the serialized body
            (``None`` until sealed by the replicator).
    """

    table: str
    lsn_first: int
    lsn_last: int
    epoch: int
    base_version: int
    new_version: int
    structural: bool
    ops: tuple[TupleOp, ...]
    node_updates: tuple[NodeDigestUpdate, ...]
    freed_nodes: tuple[int, ...]
    signature: SignedDigest | None = None


def delta_digest(body: bytes) -> int:
    """Digest of a serialized delta body, as an integer small enough to
    sign under any simulation RSA key (see ``_DELTA_DIGEST_BITS``)."""
    raw = hashlib.sha256(body).digest()
    return int.from_bytes(raw, "big") >> (256 - _DELTA_DIGEST_BITS)


def coalesce(deltas: Sequence[ReplicaDelta]) -> ReplicaDelta:
    """Merge a contiguous run of deltas into one batch delta.

    Tuple operations are concatenated in order; node digest updates are
    last-writer-wins per node id (node ids are never reused, so a freed
    node can never reappear); freed sets accumulate.  The result is
    **unsigned** — the replicator re-signs the batch as a unit.

    Raises:
        ReplicaDeltaError: If the sequence is empty, spans tables or
            epochs, or has non-contiguous LSNs/versions.
    """
    if not deltas:
        raise ReplicaDeltaError("cannot coalesce an empty delta sequence")
    first = deltas[0]
    ops: list[TupleOp] = []
    updates: dict[int, NodeDigestUpdate] = {}
    freed: set[int] = set()
    structural = False
    prev: ReplicaDelta | None = None
    for delta in deltas:
        if delta.table != first.table:
            raise ReplicaDeltaError(
                f"cannot coalesce across tables "
                f"({first.table!r} vs {delta.table!r})"
            )
        if delta.epoch != first.epoch:
            raise ReplicaDeltaError("cannot coalesce across key epochs")
        if prev is not None and (
            delta.lsn_first != prev.lsn_last + 1
            or delta.base_version != prev.new_version
        ):
            raise ReplicaDeltaError(
                f"non-contiguous deltas: {prev.lsn_last} -> {delta.lsn_first}"
            )
        ops.extend(delta.ops)
        freed.update(delta.freed_nodes)
        for update in delta.node_updates:
            updates[update.node_id] = update
        structural = structural or delta.structural
        prev = delta
    assert prev is not None
    final_updates = tuple(
        u for u in updates.values() if u.node_id not in freed
    )
    return ReplicaDelta(
        table=first.table,
        lsn_first=first.lsn_first,
        lsn_last=prev.lsn_last,
        epoch=first.epoch,
        base_version=first.base_version,
        new_version=prev.new_version,
        structural=structural,
        ops=tuple(ops),
        node_updates=final_updates,
        freed_nodes=tuple(sorted(freed)),
    )


def apply_delta(vbt: VBTree, delta: ReplicaDelta) -> None:
    """Apply a (already authenticated) delta to a replica VB-tree.

    Tuple operations replay against the replica's own B+-tree — the
    deterministic mutation reproduces the central server's structural
    changes — then the signed node digests overwrite the touched nodes'
    auth entries and freed nodes' entries are dropped.  LSN / signature
    checks live in :meth:`repro.edge.edge_server.EdgeServer.apply_delta`;
    this function only enforces version continuity so a delta can never
    be applied twice or out of order even when called directly.

    Application is **not** atomic across a multi-op batch: an op that
    fails (only possible when the replica has already diverged from the
    central tree) leaves earlier ops applied and the version not
    advanced.  That replica is unusable for further deltas by
    construction — the edge nacks, and the central server's fan-out
    engine replaces it wholesale with a snapshot
    (:class:`repro.edge.fanout.FanoutEngine`).

    The replay must reproduce the delta's structural changes: the
    nodes it freed are exactly ``freed_nodes``, every node it created
    and kept has a node update, and no node update names an id the
    replica has not yet allocated.

    Raises:
        ReplicaDeltaError: On version mismatch, a tuple op that does
            not apply cleanly, or a replay whose structural changes are
            not the delta's (replica divergence — resync via snapshot).
    """
    if delta.base_version != vbt.version:
        raise ReplicaDeltaError(
            f"delta for {delta.table!r} expects replica version "
            f"{delta.base_version}, replica is at {vbt.version}"
        )
    # Ops come off the wire (or out of ``TupleOp.insert``) already
    # holding tuples of exactly what the replica stores: install them
    # as they are.
    schema, key_of, tree = vbt.schema, vbt.key_of, vbt.tree
    created: set[int] = set()
    freed: set[int] = set()
    for op in delta.ops:
        try:
            if op.kind is DeltaOpKind.INSERT:
                row = Row(schema, op.values)
                key = key_of(row)
                trace = tree.insert(key, row)
                vbt.install_tuple_auth(key, op.signed_tuple)
            else:
                trace = tree.delete(op.key)
                vbt.drop_tuple_auth(op.key)
        except Exception as exc:
            raise ReplicaDeltaError(
                f"delta op {op.kind.value} failed on replica of "
                f"{delta.table!r}: {exc}"
            ) from exc
        if trace.created or trace.freed:
            created.update(node.node_id for node in trace.created)
            freed.update(node.node_id for node in trace.freed)
    updated = {update.node_id for update in delta.node_updates}
    if (
        freed != set(delta.freed_nodes)
        or not created - freed <= updated
        or max(updated, default=-1) >= tree.next_node_id
    ):
        raise ReplicaDeltaError(
            f"replica of {delta.table!r} replayed other structural "
            "changes than the delta names"
        )
    for node_id in delta.freed_nodes:
        vbt.drop_node_auth(node_id)
    for update in delta.node_updates:
        vbt.install_node_auth(update.node_id, update.signed)
    vbt.version = delta.new_version
