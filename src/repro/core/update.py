"""Authenticated updates — Section 3.4.

All updates run at the central server (only it can sign new digests).

**Insert.**  The DBMS computes the new tuple's digest (formulas 1-2)
and signs it — the tuple's one signature (DESIGN.md D5) — then updates
each node digest on the root-to-leaf path.  Under the
FLATTENED policy this is the paper's cheap fold::

    D_N' = h(D_N, D_T)     (one modular multiplication per node)

Path X-locks are acquired up front (a denied lock must leave the tree
untouched so the replication log stays consistent) but, following the
paper, each digest's lock is released "only as it is being modified" —
right after its fold — under short insert locks.  Under
the NESTED policy ancestors must be recomputed from their children
(an explicit cost the update benches quantify).  Splits force digest
recomputation for the affected nodes either way.

**Delete.**  The tuple's contribution cannot be reversed out of the
exponent product (that would require taking roots), so the transaction
X-locks *all* digests on the path from the root to the affected leaves,
deletes the tuples, then recomputes digests bottom-up — exactly the
paper's description of why deletes are the expensive operation.

Concurrent queries S-lock their enveloping subtrees
(:meth:`repro.core.query_auth.QueryAuthenticator._lock_envelope`); a
query whose envelope does not overlap the delete's path proceeds
untouched, which is the concurrency win the paper claims over
root-signature schemes like [5].
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.delta import NodeDigestUpdate, ReplicaDelta, TupleOp
from repro.core.digests import DigestPolicy
from repro.core.vbtree import VBTree
from repro.db.btree import MutationTrace, _Node
from repro.db.rows import Row
from repro.db.transactions import Transaction
from repro.exceptions import LockError

__all__ = ["AuthenticatedUpdater", "digest_resource"]


def digest_resource(table: str, node_id: int) -> tuple[str, str, int]:
    """Lock-manager resource name for one node digest."""
    return ("digest", table, node_id)


class AuthenticatedUpdater:
    """Applies inserts/deletes to a VB-tree, maintaining digests and
    following the paper's digest-locking protocol.

    Args:
        vbtree: The central server's authoritative VB-tree.
        short_insert_locks: If True (paper behaviour), insert releases
            each digest X-lock right after updating that digest; if
            False, locks are held to commit (strict 2PL).
    """

    def __init__(self, vbtree: VBTree, short_insert_locks: bool = True) -> None:
        self.vbtree = vbtree
        self.short_insert_locks = short_insert_locks
        #: FIFO queue of deltas emitted by mutations (unsigned; the
        #: replicator assigns LSNs and seals them).  A queue, not a
        #: slot: one logical update can mutate a tree several times —
        #: e.g. view maintenance inserting every joined row — and each
        #: mutation's delta must be recorded, in order.
        self._pending_deltas: list[ReplicaDelta] = []

    def take_delta(self) -> ReplicaDelta | None:
        """Pop the oldest pending delta (None if none)."""
        if not self._pending_deltas:
            return None
        return self._pending_deltas.pop(0)

    def take_deltas(self) -> list[ReplicaDelta]:
        """Drain all pending deltas, oldest first."""
        deltas, self._pending_deltas = self._pending_deltas, []
        return deltas

    def _emit_delta(
        self,
        op: TupleOp,
        trace: MutationTrace,
        touched: Iterable[_Node],
        base_version: int,
    ) -> ReplicaDelta:
        """Record the mutation as an (unsigned) :class:`ReplicaDelta`."""
        vbt = self.vbtree
        freed_ids = {n.node_id for n in trace.freed}
        updates: dict[int, NodeDigestUpdate] = {}
        for node in touched:
            if node.node_id in freed_ids or node.node_id in updates:
                continue
            updates[node.node_id] = NodeDigestUpdate(
                node.node_id, vbt.node_auth(node)
            )
        delta = ReplicaDelta(
            table=vbt.table_name,
            lsn_first=0,
            lsn_last=0,
            epoch=vbt.signing.signer.epoch,
            base_version=base_version,
            new_version=vbt.version,
            structural=bool(trace.split or trace.freed),
            ops=(op,),
            node_updates=tuple(updates.values()),
            freed_nodes=tuple(sorted(freed_ids)),
        )
        self._pending_deltas.append(delta)
        return delta

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, row: Row, txn: Transaction | None = None) -> None:
        """Insert ``row`` and maintain digests along the path.

        All path X-locks are acquired *before* the tree is mutated: a
        denied lock must leave the tree untouched, or the mutation
        would be invisible to the replication log and replicas would
        silently diverge.  (The paper describes acquiring each digest
        lock as it is modified; we keep its *release* discipline — under
        short locks each digest is released right after its fold — but
        front-load acquisition for failure atomicity.)

        Raises:
            DuplicateKeyError: On key collision (nothing is touched).
            LockError: If a digest X-lock cannot be granted immediately
                (nothing is touched).
        """
        vbt = self.vbtree
        base_version = vbt.version
        key = vbt.key_of(row)
        path = vbt.tree.path_to(vbt.tree.find_leaf(key))
        acquired: list[tuple[str, str, int]] = []
        self._lock_nodes(txn, path, exclusive=True, acquired=acquired)
        try:
            trace, signed = vbt.raw_insert(row)
        except Exception:
            self._release_all(txn, acquired)
            raise
        touched: list[_Node]
        try:
            if trace.split or trace.freed:
                # Structural change: also X-lock the nodes the split
                # created (including a new root) before recomputing
                # their digests.  These are fresh node ids no other
                # transaction can hold, so the grants cannot fail.
                self._lock_nodes(
                    txn, trace.created, exclusive=True, acquired=acquired
                )
                touched = vbt.recompute_dirty(trace)
            elif vbt.policy is DigestPolicy.FLATTENED:
                # The paper's incremental path: fold the tuple digest
                # into each node digest from the root down, releasing
                # each digest's lock right after it is modified.
                for node in trace.path:
                    self._fold(node, key)
                    if self.short_insert_locks:
                        self._release_node(txn, node, acquired)
                touched = list(trace.path)
            else:
                # NESTED: the leaf digest changes, so every ancestor must
                # be recomputed from its children.
                for node in reversed(trace.path):
                    vbt.recompute_node(node)
                touched = list(trace.path)
        finally:
            if self.short_insert_locks:
                self._release_all(txn, acquired)
        vbt.version += 1
        self._emit_delta(TupleOp.insert(row, signed), trace, touched, base_version)

    def _fold(self, node: _Node, key: Any) -> None:
        """``D_N' = h(D_N, D_T)`` on the central tree's working values."""
        vbt = self.vbtree
        folded = vbt.signing.engine.fold_into_node(
            vbt._node_values[node.node_id], vbt._tuple_values[key]
        )
        vbt.set_node_value(node, folded)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def delete(self, key: Any, txn: Transaction | None = None) -> Row:
        """Delete the tuple at ``key``; recompute digests bottom-up.

        The root-to-leaf digest path is X-locked *before* any
        modification (the paper's delete protocol).

        Returns:
            The removed row.
        """
        vbt = self.vbtree
        base_version = vbt.version
        leaf = vbt.tree.find_leaf(key)
        path = vbt.tree.path_to(leaf)
        self._lock_nodes(txn, path, exclusive=True)
        row = vbt.tree.get(key)
        trace, _auth = vbt.raw_delete(key)
        touched = vbt.recompute_dirty(trace)
        vbt.version += 1
        self._emit_delta(TupleOp.delete(key), trace, touched, base_version)
        return row

    def delete_range(
        self, low: Any, high: Any, txn: Transaction | None = None
    ) -> list[Row]:
        """Delete all tuples with ``low <= key <= high`` (the paper's
        contiguous-range delete whose cost formula (12) models).

        Returns:
            The removed rows.
        """
        keys = [k for k, _ in self.vbtree.tree.range_items(low, high)]
        return [self.delete(k, txn=txn) for k in keys]

    # ------------------------------------------------------------------
    # Locking plumbing
    # ------------------------------------------------------------------

    def lock_path(self, key: Any, txn: Transaction | None) -> None:
        """X-lock the root-to-leaf digest path ``key`` resolves to,
        holding the locks until ``txn`` finishes.

        Used by the central server to front-load *every* lock a
        multi-tree operation (base table + secondary indexes + join
        views) will need before mutating anything: a denied lock then
        aborts with all trees untouched, so the replication log can
        never record a partial update.  Locks acquired here are not
        released early by the short-insert-lock discipline (they were
        not acquired by :meth:`insert`), i.e. pre-locked operations run
        under strict 2PL.

        Raises:
            LockError: If any lock on the path cannot be granted.
        """
        tree = self.vbtree.tree
        path = tree.path_to(tree.find_leaf(key))
        self._lock_nodes(txn, path, exclusive=True)

    def _lock_nodes(
        self,
        txn: Transaction | None,
        nodes: Sequence[_Node],
        exclusive: bool,
        acquired: list | None = None,
    ) -> None:
        if txn is None:
            return
        for node in nodes:
            resource = digest_resource(self.vbtree.table_name, node.node_id)
            already_held = txn.holds(resource) is not None
            granted = (
                txn.lock_exclusive(resource)
                if exclusive
                else txn.lock_shared(resource)
            )
            if not granted:
                raise LockError(
                    f"update blocked acquiring lock on {resource!r}"
                )
            if acquired is not None and not already_held:
                acquired.append(resource)

    def _release_all(self, txn: Transaction | None, acquired: list) -> None:
        """Release every lock this operation acquired (and only those)."""
        if txn is None:
            return
        for resource in acquired:
            txn.manager.locks.release(txn.txn_id, resource)
        acquired.clear()

    def _release_node(
        self, txn: Transaction | None, node: _Node, acquired: list
    ) -> None:
        """Release one node's digest lock if this operation acquired it
        (the paper's short insert locks: held only while modified)."""
        if txn is None:
            return
        resource = digest_resource(self.vbtree.table_name, node.node_id)
        if resource in acquired:
            txn.manager.locks.release(txn.txn_id, resource)
            acquired.remove(resource)
