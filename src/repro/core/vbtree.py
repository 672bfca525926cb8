"""The Verifiable B-tree (Section 3.2).

A :class:`VBTree` is a B+-tree over ``key -> Row`` whose geometry
includes the per-child signed digest (formula 6's reduced fan-out), plus
the digest material of formulas (1)-(3):

* per tuple: the signed tuple digest (stored with the leaf entry) —
  the one signature a tuple has; attribute digests are recomputed from
  the row wherever they are needed (DESIGN.md D5);
* per node: the signed node digest (stored with the child pointer in
  the parent) — what ``D_S`` ships for a pruned branch and what ``D_N``
  ships for an enveloping subtree's top node;
* tree metadata: the root's signed digest and a version number.

Signatures are message-recovering (``s⁻¹(s(x)) = x``), so the signed
form is all a tree stores, ships or serves — exactly one signed digest
per tuple and child pointer.  The central server additionally keeps the
*unsigned* tuple and node values it folds and recomputes from, in two
private maps a replica never fills (it cannot sign, so it never needs
them).

Digest maintenance on updates lives in :mod:`repro.core.update`; this
module owns the data structure, bulk build, and digest recomputation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.core.digests import DigestPolicy, SigningDigestEngine
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.db.btree import BPlusTree, InternalNode, LeafNode, MutationTrace, _Node
from repro.db.expressions import Predicate
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.db.schema import TableSchema
from repro.exceptions import AuthenticationError, KeyNotFoundError

__all__ = ["VBTree"]


class VBTree:
    """Verifiable B-tree over a table's rows.

    Args:
        schema: Table schema (fixes the key column and digest inputs).
        signing: The central server's signing digest engine.
        geometry: Page geometry; defaults to the paper's VB-tree
            geometry, with ``key_len`` taken from the schema's key type
            and ``digest_len`` from the signature width.
        fanout_override: Test hook for small fan-outs.
    """

    def __init__(
        self,
        schema: TableSchema,
        signing: SigningDigestEngine,
        geometry: PageGeometry | None = None,
        fanout_override: int | None = None,
        key_func: "Callable[[Row], Any] | None" = None,
        key_len: int | None = None,
    ) -> None:
        self.schema = schema
        self.signing = signing
        #: Maps a row to its search key in THIS tree.  The primary
        #: VB-tree uses the schema key; secondary VB-trees (the paper's
        #: "one or more VB-trees" per table) use a composite
        #: ``(attribute, primary key)`` — see :mod:`repro.core.secondary`.
        self.key_of = key_func or (lambda row: row.key)
        sig_len = signing.signer.public_key.signature_len + 2
        base = geometry or PageGeometry.vbtree_default()
        self.geometry = PageGeometry(
            block_size=base.block_size,
            key_len=key_len or schema.key_type.byte_width(),
            pointer_len=base.pointer_len,
            digest_len=sig_len,
        )
        self.tree = BPlusTree(
            geometry=self.geometry, min_fanout_override=fanout_override
        )
        #: One signed digest per tuple: formula (2)'s row hash under the
        #: central signature — what ``D_S`` ships for a tuple the
        #: selection filters out.
        self._tuple_auth: dict[Any, SignedDigest] = {}
        #: One signed digest per node: the node value (exponent product
        #: under FLATTENED, combined hash under NESTED) under the
        #: central signature.
        self._node_auth: dict[int, SignedDigest] = {}
        #: The signer's working state: unsigned tuple value per key and
        #: node value per node id, read by folds and recomputation.
        #: Empty on a replica.
        self._tuple_values: dict[Any, int] = {}
        self._node_values: dict[int, int] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def policy(self) -> DigestPolicy:
        """Digest policy in force."""
        return self.signing.policy

    @property
    def table_name(self) -> str:
        """Name of the table this tree authenticates."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self.tree)

    def height(self) -> int:
        """Tree height (leaf level = 1)."""
        return self.tree.height()

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        schema: TableSchema,
        rows: Iterable[Row],
        signing: SigningDigestEngine,
        geometry: PageGeometry | None = None,
        fanout_override: int | None = None,
        key_func: Callable[[Row], Any] | None = None,
        key_len: int | None = None,
    ) -> "VBTree":
        """Bulk-build a VB-tree: insert rows, then digest bottom-up."""
        vbt = cls(
            schema,
            signing,
            geometry=geometry,
            fanout_override=fanout_override,
            key_func=key_func,
            key_len=key_len,
        )
        for row in rows:
            vbt.tree.insert(vbt.key_of(row), row)
            vbt._store_tuple(row)
        vbt.recompute_all_nodes()
        return vbt

    def _store_tuple(self, row: Row) -> SignedDigest:
        digests, signed = self.signing.sign_tuple(self.table_name, row)
        key = self.key_of(row)
        self._tuple_auth[key] = signed
        self._tuple_values[key] = digests.tuple_value
        return signed

    # ------------------------------------------------------------------
    # Digest access
    # ------------------------------------------------------------------

    def tuple_auth(self, key: Any) -> SignedDigest:
        """The signed digest of the tuple at ``key``.

        Raises:
            KeyNotFoundError: If no such tuple.
        """
        try:
            return self._tuple_auth[key]
        except KeyError:
            raise KeyNotFoundError(f"no tuple digest for key {key!r}") from None

    def node_auth(self, node: _Node) -> SignedDigest:
        """The signed digest of a node.

        Raises:
            AuthenticationError: If the node has no digest (tree
                corrupted or digests not yet computed).
        """
        try:
            return self._node_auth[node.node_id]
        except KeyError:
            raise AuthenticationError(
                f"no digest recorded for node {node.node_id}"
            ) from None

    def root_auth(self) -> SignedDigest:
        """Signed digest of the root (tree metadata's signed digest)."""
        return self.node_auth(self.tree.root)

    def get_row(self, key: Any) -> Row:
        """Row stored at ``key``.

        Raises:
            KeyNotFoundError: If absent.
        """
        return self.tree.get(key)

    def rows(self) -> Iterator[Row]:
        """All rows in key order."""
        for _k, row in self.tree.items():
            yield row

    def select(self, predicate: Predicate) -> Iterator[tuple[Any, Row]]:
        """``(key, row)`` for every row satisfying ``predicate``, in key
        order — a range scan when the predicate pins the schema key to
        one interval, a full scan otherwise."""
        key_range = predicate.key_range(self.schema.key)
        if key_range is None:
            items = self.tree.items()
        elif key_range.empty:
            return
        else:
            items = self.tree.range_items(
                low=key_range.low,
                high=key_range.high,
                low_inclusive=key_range.low_inclusive,
                high_inclusive=key_range.high_inclusive,
            )
        for item in items:
            if predicate.evaluate(item[1]):
                yield item

    # ------------------------------------------------------------------
    # Digest (re)computation
    # ------------------------------------------------------------------

    def compute_node_value(self, node: _Node) -> int:
        """Digest value of ``node`` from its children's current values."""
        engine = self.signing.engine
        if node.is_leaf:
            child_values = [self._tuple_values[k] for k in node.keys]
        else:
            child_values = [
                self._node_values[c.node_id]
                for c in node.children  # type: ignore[attr-defined]
            ]
        return engine.node_value(child_values)

    def set_node_value(self, node: _Node, value: int) -> SignedDigest:
        """Record a node's digest value and sign it — once."""
        signed = self.signing.sign_value(value)
        self._node_auth[node.node_id] = signed
        self._node_values[node.node_id] = value
        return signed

    def recompute_node(self, node: _Node) -> SignedDigest:
        """Recompute one node's digest from its children."""
        return self.set_node_value(node, self.compute_node_value(node))

    def recompute_all_nodes(self) -> None:
        """Recompute every node digest bottom-up (bulk build / repair)."""
        self._node_auth.clear()
        self._node_values.clear()
        self._recompute_subtree(self.tree.root)

    def _recompute_subtree(self, node: _Node) -> None:
        if not node.is_leaf:
            for child in node.children:  # type: ignore[attr-defined]
                self._recompute_subtree(child)
        self.recompute_node(node)

    def recompute_dirty(self, trace: MutationTrace) -> list[_Node]:
        """Recompute digests for every node a mutation touched, plus all
        their ancestors, bottom-up.

        Returns:
            The nodes recomputed, deepest first.
        """
        for node in trace.freed:
            self._node_auth.pop(node.node_id, None)
            self._node_values.pop(node.node_id, None)
        dirty: dict[int, _Node] = {}

        def add_with_ancestors(node: _Node) -> None:
            cursor: _Node | None = node
            while cursor is not None and cursor.node_id not in dirty:
                dirty[cursor.node_id] = cursor
                cursor = cursor.parent

        freed_ids = {f.node_id for f in trace.freed}
        for node in trace.modified:
            if node.node_id not in freed_ids:
                add_with_ancestors(node)
        for node in trace.created:
            add_with_ancestors(node)
        add_with_ancestors(self.tree.root)

        ordered = sorted(
            dirty.values(), key=self._depth_of, reverse=True
        )
        for node in ordered:
            self.recompute_node(node)
        return ordered

    def _depth_of(self, node: _Node) -> int:
        depth = 0
        cursor = node
        while cursor.parent is not None:
            cursor = cursor.parent
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Integrity audit (test / ops helper)
    # ------------------------------------------------------------------

    def audit(self) -> None:
        """Recompute every digest from the stored rows — tuple values
        from the rows, node values bottom-up from those — and check by
        recovery that each tuple's and each node's signed digest is the
        central server's signature over the recomputed
        value.  Nothing stored is trusted, so the same audit
        holds on the central tree and on a replica.

        Raises:
            AuthenticationError: On a row without digest material or any
                signature that does not recover to its recomputed value.
        """
        engine = self.signing.engine
        verify = DigestVerifier(self.signing.signer.public_key).verify_value
        tuple_values: dict[Any, int] = {}
        for key, row in self.tree.items():
            signed = self._tuple_auth.get(key)
            if signed is None:
                raise AuthenticationError(f"missing tuple digest for {key!r}")
            value = engine.tuple_digests(self.table_name, row).tuple_value
            if not verify(signed, value):
                raise AuthenticationError(f"bad tuple signature at {key!r}")
            tuple_values[key] = value

        def check(node: _Node) -> int:
            if node.is_leaf:
                child_values = [tuple_values[k] for k in node.keys]
            else:
                child_values = [
                    check(c) for c in node.children  # type: ignore[attr-defined]
                ]
            value = engine.node_value(child_values)
            if not verify(self.node_auth(node), value):
                raise AuthenticationError(
                    f"node {node.node_id} signature invalid"
                )
            return value

        check(self.tree.root)

    # ------------------------------------------------------------------
    # Raw mutation + digest bookkeeping (used by core.update)
    # ------------------------------------------------------------------

    def raw_insert(self, row: Row) -> tuple[MutationTrace, SignedDigest]:
        """Insert a row and its signed tuple digest; node digests are
        NOT updated here (see :mod:`repro.core.update`)."""
        trace = self.tree.insert(self.key_of(row), row)
        return trace, self._store_tuple(row)

    def raw_delete(self, key: Any) -> tuple[MutationTrace, SignedDigest]:
        """Delete a row and its signed tuple digest; node digests are
        NOT updated here (see :mod:`repro.core.update`)."""
        trace = self.tree.delete(key)
        del self._tuple_values[key]
        return trace, self._tuple_auth.pop(key)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def install_tuple_auth(self, key: Any, signed: SignedDigest) -> None:
        """Install a centrally-signed tuple digest on a replica.

        Replica-side counterpart of :meth:`_store_tuple`: edge servers
        cannot sign, so delta application ships the central server's
        signature over the wire and installs it verbatim (see
        :func:`repro.core.delta.apply_delta`).
        """
        self._tuple_auth[key] = signed

    def drop_tuple_auth(self, key: Any) -> None:
        """Remove a deleted tuple's signed digest (replica side)."""
        self._tuple_auth.pop(key, None)

    def install_node_auth(self, node_id: int, signed: SignedDigest) -> None:
        """Install a centrally-signed node digest by node id.

        Node ids are stable across replicas (see :meth:`clone` and the
        deterministic-mutation argument in DESIGN.md section 6), so a
        delta can address nodes it re-signed without shipping structure.
        """
        self._node_auth[node_id] = signed

    def drop_node_auth(self, node_id: int) -> None:
        """Forget the signed digest of a freed node (replica side)."""
        self._node_auth.pop(node_id, None)

    def clone(self) -> "VBTree":
        """Replica copy for distribution to an edge server.

        The tree structure and signed-digest maps are copied (so
        at-rest tampering on the replica cannot corrupt the master);
        rows and signed digests are immutable and shared.  Like any
        replica it holds none of the signer's working values."""
        new = self.__class__.__new__(self.__class__)
        new.__dict__.update(self.__dict__)
        new.tree = self.tree.clone()
        new._tuple_auth = dict(self._tuple_auth)
        new._node_auth = dict(self._node_auth)
        new._tuple_values = {}
        new._node_values = {}
        return new
